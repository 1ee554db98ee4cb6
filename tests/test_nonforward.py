"""Non-forwarding analysis: trace search, static guarantee, witnesses."""

import random

import pytest

import cpi.nonforward
from cpi.gen import random_cpi_process, random_pi_process
from cpi.lts import BoundOutAct, Engine, InAct, OutAct, TauAct
from cpi.nonforward import (
    NFVerdict, NFViolation, WitnessNotCpi, check_nonforwarding,
    static_guarantee, witness_check,
)
from cpi.parser import PI, parse
from cpi.syntax import (
    NIL, Par, Prefixed, Receive, Repl, Restrict, Send, SortError,
    canonicalize, chan, free_names, validate_cpi, var,
)

SATISFYING = "k?(x).new l in (l!<x>.0 | l?(y).0)"
VIOLATING = "k?(x).new l in (k!<l>.l!<x>.0 | l?(y).0)"


def test_satisfying_example():
    v = check_nonforwarding(parse(SATISFYING, mode=PI), 5)
    assert v.satisfied and v.violation is None
    assert v.to_json()["result"] == "satisfied-up-to-depth"


def test_violating_example():
    v = check_nonforwarding(parse(VIOLATING, mode=PI), 5)
    assert not v.satisfied
    viol = v.violation
    assert viol.receive_index == 0 and viol.send_index == 2
    # received on k, extruded l, then forwarded the received name on l
    kinds = [a["kind"] for a in v.to_json()["violation"]["trace"]]
    assert kinds == ["in", "bound-out", "out"]


def test_direct_forward():
    v = check_nonforwarding(parse("a?(x).b!<x>.0", mode=PI), 2)
    assert not v.satisfied
    assert v.violation.receive_index == 0 and v.violation.send_index == 1


def test_already_free_name_is_not_watched():
    # receiving a name that was already free is not a confidentiality leak
    v = check_nonforwarding(parse("a?(x).a!<a>.0", mode=PI), 3)
    assert v.satisfied


def test_depth_zero_trivially_satisfied():
    assert check_nonforwarding(parse(VIOLATING, mode=PI), 0).satisfied


def test_violation_beyond_depth_not_found():
    v = check_nonforwarding(parse(VIOLATING, mode=PI), 2)
    assert v.satisfied  # the forward needs a 3-step trace


def test_static_guarantee():
    g = static_guarantee(parse(SATISFYING, mode=PI))
    assert not g.guaranteed  # outside the fragment despite being safe
    g2 = static_guarantee(parse("a?(x).x!<b>.0", mode=PI))
    assert g2.guaranteed


def test_fragment_members_never_forward():
    # the static guarantee, sampled behaviorally
    rng = random.Random(77)
    for _ in range(40):
        p = random_cpi_process(rng, 8)
        assert validate_cpi(p).ok
        assert check_nonforwarding(p, 4).satisfied


def test_witness_check_positive():
    p = parse(SATISFYING, mode=PI)
    q = parse("k?(x).new l in (l?(y).0 | l!<x>.0)", mode=PI)
    # q is outside the fragment too, so it is rejected as a witness
    with pytest.raises(WitnessNotCpi):
        witness_check(p, q, 3)
    # a genuine confidential witness: the private exchange on l is
    # invisible either way, so sending a instead of x changes nothing
    w = parse("k?(x).new l in (l!<a>.0 | l?(y).0)", mode=PI)
    ev = witness_check(p, w, 4)
    assert ev.positive


def test_witness_check_negative():
    p = parse(VIOLATING, mode=PI)
    w = parse("k?(x).0")
    ev = witness_check(p, w, 3)
    assert not ev.positive


# A channel used at two arities: the clash shows only once a step
# synchronizes b!<c> with the received b?(y,z), at step 2.
ARITY_CLASH = "a?(x).x?(y,z).0 | a!<b>.0 | b!<c>.0"


def test_arity_clash_in_last_step_is_raised():
    p = parse(ARITY_CLASH, mode=PI)
    assert check_nonforwarding(p, 1).satisfied
    for depth in (2, 3):
        with pytest.raises(SortError, match="arity 2"):
            check_nonforwarding(p, depth)


def outcome(search, p, depth):
    """The verdict of ``search``, or the sort error it raised."""
    try:
        return search(p, depth)
    except SortError as e:
        return ("SortError", str(e))


def action_key(a):
    """The order of ``successors`` on labels, restated."""
    if isinstance(a, TauAct):
        return (0, "", (), ())
    bound = tuple(b.ident for b in a.bound) if isinstance(a, BoundOutAct) else ()
    rank = {OutAct: 1, BoundOutAct: 2, InAct: 3}[type(a)]
    return (rank, a.subject.ident, tuple(o.ident for o in a.objects), bound)


def reference_nonforwarding(p, depth):
    """Breadth-first search that expands every level, the last included,
    with full ``Engine.successors``; built from public calls only."""
    engine = Engine()
    root = canonicalize(p)
    frontier = [(root, (), ())]
    seen = {(root, ())}
    for _ in range(depth):
        nxt = []
        for state, watched, trace in frontier:
            watch = dict(watched)
            for tr in engine.successors(state):
                a = tr.action
                emitted = set()
                if isinstance(a, (OutAct, BoundOutAct)):
                    emitted = set(a.objects) - set(getattr(a, "bound", ()))
                hits = sorted(emitted & set(watch), key=lambda n: n.ident)
                if hits:
                    return NFVerdict(False, depth, NFViolation(
                        trace + (a,), watch[hits[0]], len(trace), hits[0]))
                new = watched
                if isinstance(a, InAct):
                    extra = {(o, len(trace)) for o in a.objects
                             if o.is_channel and o not in free_names(state)
                             and o not in watch}
                    if extra:
                        new = tuple(sorted(set(watched) | extra,
                                           key=lambda kv: (kv[0].ident, kv[1])))
                if (tr.target, new) not in seen:
                    seen.add((tr.target, new))
                    nxt.append((tr.target, new, trace + (a,)))
        nxt.sort(key=lambda node: tuple(action_key(a) for a in node[2]))
        frontier = nxt
    return NFVerdict(True, depth)


# Parents that share a trace reach one node by different actions: a!<d>
# after the left receive, a!<b> after the right one.  The node's trace,
# and so the violation, is that of the parent visited first.
CONVERGING = ("new k in ((a?(x).new m in a!<b>.k?(u).s!<u>.0)"
              " | a?(y).a!<d>.g?(v).k!<v>.0)")


# Three receivers on a, in derivation order R1, R2, R3 and in text order
# the reverse.  The node where R1 and R3 have fired is reached from the
# first (R1 fired) and the third (R3 fired) node of the first level, and
# is kept by the first; its violation, p!<#i0>, is the one reported.
SHARED = ("new k in ((a?(x1).new m in k!<k>.0)"
          " | (a?(y).a?(z).new h in (h!<h>.0 | h?(v).g?(u).q!<u>.0))"
          " | (a?(x3).k?(v).g?(u).p!<u>.0))")


def tie_roots(rng, count):
    """Roots whose searches meet nodes that share a trace: two or three
    receivers on one channel, so every free input has two or three
    targets, two sends of one restricted channel (bound outputs), and a
    replicated receiver.  Each received name is forwarded, on b or c, so
    nodes that share a trace can yield different violations."""
    a, b, c, k, l, w = map(chan, "abcklw")
    x, y, z = var("xt"), var("yt"), var("zt")
    roots = [parse("a?(x).c!<x>.0 | a?(y).b!<y>.0", mode=PI),
             parse(SHARED, mode=PI)]
    while len(roots) < count:
        p, q, r = (random_pi_process(rng, rng.randint(1, 4), repl_weight=0.1)
                   for _ in range(3))
        fx = Prefixed(Send(rng.choice((b, c)), (x,)), NIL)
        fy = Prefixed(Send(rng.choice((b, c)), (y,)), NIL)
        fz = Restrict((l,), Prefixed(Send(w, (l,)), Prefixed(Send(l, (z,)), NIL)))
        rx = Prefixed(Receive(a, (x,)), Par(p, fx))
        ry = Prefixed(Receive(a, (y,)), Par(q, fy))
        roots += [
            Par(rx, ry),
            Par(Par(rx, Prefixed(Receive(a, (y,)), q)),
                Prefixed(Receive(a, (z,)), Par(r, fz))),
            Par(Repl(rx), ry),
            Restrict((k,), Par(
                Prefixed(Send(a, (k,)), Par(p, Prefixed(Receive(k, (x,)), fx))),
                Par(Prefixed(Send(a, (k,)), q), ry))),
            Par(Prefixed(Receive(a, (x,)), Par(p, Prefixed(Send(a, (x,)), NIL))), ry),
        ]
    return roots[:count]


def test_label_only_last_level_matches_full_search():
    # the last level reads labels only; a search that expands every
    # level in full, on successors, must give the same verdicts and
    # violations at every depth
    rng = random.Random(616)
    terms = []
    for i in range(110):
        gen = random_cpi_process if i % 4 == 0 else random_pi_process
        terms.append(gen(rng, rng.randint(2, 8), repl_weight=0.06))
    terms += [Par(p, q) for p, q in zip(terms[:30], terms[30:60])]
    # forwarders after a random prefix of work, so violations end at
    # every step of the trace
    x, l = var("x"), chan("l")
    for p in terms[60:100]:
        fwd = Prefixed(Send(chan("c"), (x,)), NIL)
        terms.append(Prefixed(Receive(chan("a"), (x,)), Par(p, fwd)))
        terms.append(Prefixed(Receive(chan("a"), (x,)), Restrict((l,), Par(
            Prefixed(Send(chan("a"), (l,)), Prefixed(Send(l, (x,)), NIL)), p))))
    terms += [Par(p, parse(text, mode=PI)) for p in terms[100:110]
              for text in ("a?(x).b!<b>.b?(y).b!<b>.c!<x>.0",
                           "a?(x).new l in w!<l,x>.0",
                           "a?(x).(d!<x>.0 | c!<x>.0)")]
    # arity clashes that surface at steps 2 to 4, alone and next to
    # other work, some of it watched
    clash = parse(ARITY_CLASH, mode=PI)
    w = chan("w")
    n = len(terms)
    for _ in range(3):
        terms.append(clash)
        terms += [Par(p, clash) for p in terms[100:104]]
        terms += [Par(clash, p) for p in terms[60:62]]
        clash = Prefixed(Send(w, (w,)), clash)
    terms += tie_roots(random.Random(4242), 300)
    violations, errors = [], set()
    for i, p in enumerate(terms):
        for depth in range(6) if i % 5 == 0 or i >= n else (i % 6,):
            got = outcome(check_nonforwarding, p, depth)
            assert got == outcome(reference_nonforwarding, p, depth), (i, depth)
            if isinstance(got, tuple):
                errors.add(depth)
            elif got.violation is not None:
                violations.append((depth, got.violation))
    assert len(violations) >= 40
    assert {2, 3, 4} <= errors
    # found on the last level, which reads labels only, at every depth
    assert {d for d, v in violations if v.send_index == d - 1} == {2, 3, 4, 5}
    assert any(isinstance(v.trace[-1], BoundOutAct) for _, v in violations)


def test_converging_parents_keep_the_first_parents_trace():
    # the node that both parents reach starts the only violation, six
    # steps in, so its trace decides the violation's third action: the
    # a!<d> of the parent visited first, the one where the left receive
    # fired, whichever of it and the other parent's a!<b> (a!<e>) has
    # the smaller key
    for text, third in ((CONVERGING, "d"),
                        (CONVERGING.replace("a!<b>", "a!<e>"), "d")):
        p = parse(text, mode=PI)
        got = check_nonforwarding(p, 6)
        assert got == reference_nonforwarding(p, 6)
        assert got.violation.trace[2].objects == (chan(third),)


def test_monadic_search_renders_no_target(monkeypatch, renders):
    # two receivers on one channel give the free input two targets; the
    # search reads them in derivation order and renders none, also when
    # the root is taken for a polyadic one
    for text, satisfied in (("a?(x).b!<b>.0 | a?(y).b!<b>.0", True),
                            ("a?(x).b!<x>.0 | a?(y).b!<y>.0", False)):
        p = parse(text, mode=PI)
        assert renders(lambda: check_nonforwarding(p, 4)) == 0
        assert check_nonforwarding(p, 4).satisfied is satisfied
        with monkeypatch.context() as m:
            m.setattr(cpi.nonforward, "_monadic", lambda root: False)
            assert renders(lambda: check_nonforwarding(p, 4)) == 0
            assert check_nonforwarding(p, 4).satisfied is satisfied
