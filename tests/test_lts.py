"""Transition engine: per-rule behavior, traces, tau reachability, and
agreement with the independent rule-schema oracle."""

import copy
import dataclasses
import gc
import json
import pickle
import random
from pathlib import Path

import pytest

from naive_lts import naive_step_set, normalize
from named_engine import NamedEngine
from rough_terms import rough_process
from cpi import bisim, encoding, syntax
from cpi.bisim import check, law_suite
from cpi.encoding import check_completeness, encode, encode_with_handlers
from cpi.gen import random_cpi_process, random_pi_process
from cpi.lts import (
    BoundOutAct, Engine, InAct, NoSuchTransition, OutAct, TAU, TauAct,
    Transition, _action_sort_key, _opened, action_names, render_action,
    run_trace, successors, tau_reachable,
)
from cpi.parser import PI, parse, render
from cpi.syntax import (
    NIL, Match, Name, Par, Prefixed, Receive, Repl, Restrict, Send,
    SortError, canonicalize, chan, free_names, nameless, par, prefix_chain,
    var,
)


def label_tuple(a):
    """An engine action as an oracle label."""
    if isinstance(a, TauAct):
        return ("tau",)
    if isinstance(a, OutAct):
        return ("out", a.subject.ident, tuple(o.ident for o in a.objects))
    if isinstance(a, InAct):
        return ("in", a.subject.ident, tuple(o.ident for o in a.objects))
    return ("bout", a.subject.ident, tuple(o.ident for o in a.objects),
            tuple(b.ident for b in a.bound))


def engine_step_set(p, extra=()):
    return {normalize(label_tuple(tr.action), tr.target)
            for tr in successors(p, extra)}


def assert_conforms(text, extra=(), mode=PI):
    p = canonicalize(parse(text, mode=mode))
    env = {n for n in free_names(p) if n.is_channel} | set(extra)
    got = engine_step_set(p, extra)
    want = naive_step_set(p, env)
    assert got == want, f"{text}: {got ^ want}"


def labels(p, extra=()):
    return sorted({lab for lab, _ in engine_step_set(p, extra)})


def test_out_rule():
    p = parse("a!<b>.0")
    assert labels(p) == [("out", "a", ("b",))]


def test_in_rule_finite_cut():
    p = parse("a?(x).0")
    # instantiated over the free channel a and one fresh representative
    assert labels(p) == [("in", "a", ("#i0",)), ("in", "a", ("a",))]


def test_in_rule_extra_environment():
    p = parse("a?(x).0")
    assert ("in", "a", ("b",)) in labels(p, extra=(chan("b"),))


def test_match_rule():
    assert labels(parse("[a=a]a!<b>.0")) == [("out", "a", ("b",))]
    assert labels(parse("[a=b]a!<b>.0")) == []


def test_uninstantiated_variable_blocks():
    # a variable subject or unresolved guard cannot fire
    assert labels(parse("a?(x).x!<b>.0", mode=PI)) == [
        ("in", "a", ("#i0",)), ("in", "a", ("a",)), ("in", "a", ("b",))]
    inner = parse("a?(x).[x=b]b!<a>.0", mode=PI)
    # after receiving b the guard resolves and the output fires
    t = run_trace(inner, [InAct(chan("a"), (chan("b"),))])
    assert labels(t) == [("out", "b", ("a",))]


def test_res_rule_blocks_restricted_subject():
    assert labels(parse("new k in k!<a>.0")) == []
    assert labels(parse("new k in a!<b>.0")) == [("out", "a", ("b",))]


def test_open_rule():
    p = parse("new l in k!<l>.0")
    assert labels(p) == [("bout", "k", ("@b0",), ("@b0",))]


def test_comm_and_close():
    assert labels(parse("a!<b>.0 | a?(x).0"), extra=()).count(("tau",)) == 1
    p = parse("(new l in k!<l>.0) | k?(x).0")
    assert ("tau",) in labels(p)


def test_close_restores_restriction():
    p = parse("(new l in k!<l>.l!<a>.0) | k?(x).x?(y).0")
    (tau,) = [t for t in successors(p) if isinstance(t.action, TauAct)]
    # the private l is restricted again around both continuations
    assert render(tau.target) == "new #0 in #0!<a>.0 | #0?(#1).0"


def test_rep_act_and_rep_comm():
    p = parse("!(a!<b>.0 | a?(x).0)")
    ls = labels(p)
    assert ("out", "a", ("b",)) in ls and ("tau",) in ls


def test_polyadic_arity_mismatch_raises():
    with pytest.raises(SortError):
        successors(parse("a!<b,c>.0 | a?(x).0", mode=PI))


def test_run_trace():
    p = parse("a?(x).x!<b>.0", mode=PI)
    q = run_trace(p, [InAct(chan("a"), (chan("c"),))])
    assert labels(q) == [("out", "c", ("b",))]
    with pytest.raises(NoSuchTransition) as ei:
        run_trace(p, [TAU])
    assert ei.value.step == 0


def test_run_trace_bound_output_matching():
    p = parse("new l in k!<l>.l!<a>.0")
    q = run_trace(p, [BoundOutAct(chan("k"), (chan("fresh"),), (chan("fresh"),))])
    # the continuation speaks on the opened name, as the label spells it
    assert labels(q) == [("out", "fresh", ("a",))]
    assert len(successors(q)) == 1


def _replay_counterexample(p, q, depth):
    """The counterexample of ``check(p, q, depth)`` and the state that
    ``run_trace`` reaches along it from the side that moves last."""
    ce = check(p, q, depth).counterexample
    return ce, run_trace(q if ce[-1][1] == "left" else p, [a for a, _ in ce])


def test_counterexample_reusing_an_extruded_name_replays():
    p = parse("new k in a!<k>.k!<c>.0")
    q = parse("new k in a!<k>.k!<d>.0")
    ce, end = _replay_counterexample(p, q, 3)
    b0 = chan("#b0")
    assert ce == ((BoundOutAct(chan("a"), (b0,), (b0,)), "right"),
                  (OutAct(b0, (chan("c"),)), "right"))
    assert end is NIL


def test_extrusion_counterexamples_replay():
    # new k in a!<k>.P against new k in a!<k>.Q: every counterexample
    # that starts with the extrusion replays on the side that moves last
    rng = random.Random(11)
    a, k = chan("a"), chan("k")
    replayed = reused = 0
    while replayed < 300:
        p, q = (Restrict((k,), Prefixed(Send(a, (k,)), random_cpi_process(
                    rng, rng.randint(2, 6), extra_channels=(k,),
                    repl_weight=0.0)))
                for _ in range(2))
        ce = check(p, q, 4).counterexample
        if ce is None or len(ce) < 2 or type(ce[0][0]) is not BoundOutAct:
            continue
        _replay_counterexample(p, q, 4)
        replayed += 1
        b0 = ce[0][0].bound[0]
        reused += any(b0 in action_names(x) for x, _ in ce[1:])
    # over half of them use the extruded name again
    assert reused > 150


def test_counterexample_through_a_later_same_label_move_replays():
    # the game's path leaves by the second of two a!<b> moves: the replay
    # must back out of the first, whose target cannot go on
    p = parse("a!<b>.0 | a!<b>.c!<d>.0")
    q = parse("a!<b>.0 | a!<b>.0")
    ce, end = _replay_counterexample(p, q, 2)
    assert [a for a, _ in ce] == [OutAct(chan("a"), (chan("b"),)),
                                  OutAct(chan("c"), (chan("d"),))]
    assert end is canonicalize(parse("a!<b>.0 | 0"))


def test_same_label_counterexamples_replay():
    # a!<b>.P | a!<b>.Q against a!<b>.P | a!<b>.P: the two a!<b> moves
    # of one side have different futures, and every counterexample
    # replays on the side that moves last
    rng = random.Random(5)
    a, b = chan("a"), chan("b")
    replayed = 0
    while replayed < 300:
        p, q = (Prefixed(Send(a, (b,)), random_cpi_process(
                    rng, rng.randint(1, 5), repl_weight=0.0))
                for _ in range(2))
        ce = check(Par(p, q), Par(p, p), 4).counterexample
        if ce is None:
            continue
        _replay_counterexample(Par(p, q), Par(p, p), 4)
        replayed += 1


def test_run_trace_names_the_deepest_step_reached():
    # the first a!<b> target tried goes on by e!<f> and g!<h> and then
    # stops; the second stops at once: the error names the deeper step
    p = parse("a!<b>.c!<d>.0 | a!<b>.e!<f>.g!<h>.0")
    a, b = chan("a"), chan("b")
    with pytest.raises(NoSuchTransition) as ei:
        run_trace(p, [OutAct(a, (b,)), OutAct(chan("e"), (chan("f"),)),
                      OutAct(chan("g"), (chan("h"),)), TAU])
    assert ei.value.step == 3 and "tau" in str(ei.value)
    with pytest.raises(NoSuchTransition) as ei:
        run_trace(p, [OutAct(a, (b,)), OutAct(chan("x"), (b,))])
    assert ei.value.step == 1


def test_run_trace_bound_names_are_fresh_and_pair_by_position():
    p = parse("(new k in a!<k>.k!<a>.0) | b!<c>.0")
    a, c, z = chan("a"), chan("c"), chan("z")
    with pytest.raises(NoSuchTransition) as ei:
        run_trace(p, [BoundOutAct(a, (c,), (c,))])
    assert ei.value.step == 0
    # a fresh name is opened and keeps its spelling
    assert run_trace(p, [BoundOutAct(a, (z,), (z,)), OutAct(z, (a,))]) is (
        canonicalize(parse("0 | b!<c>.0")))
    # bound names pair by position, whatever order the label lists them in
    k, x, y = chan("k"), chan("x"), chan("y")
    p = parse("new l, m in k!<l, m>.m!<a>.0")
    assert run_trace(p, [BoundOutAct(k, (x, y), (y, x)), OutAct(y, (a,))]) is NIL
    with pytest.raises(NoSuchTransition) as ei:
        run_trace(p, [BoundOutAct(k, (x, y), (y, x)), OutAct(x, (a,))])
    assert ei.value.step == 1


def test_tau_reachable():
    p = parse("new a in (a!<a>.a!<a>.0 | a?(x).a?(y).0)")
    r = tau_reachable(p, 4)
    assert len(r.states) == 3 and not r.exceeded
    r2 = tau_reachable(p, 1)
    assert r2.exceeded and len(r2.states) == 2


def test_a_hole_is_named_only_once_opened():
    # a bound output's target calls the name it opens by a hole, here
    # under a binder of its own; naming the target before the client
    # names the hole raises rather than take that binder for it
    p = parse("new k in a!<k>.new m in k!<m>.0", mode=PI)
    ((a, targets),) = Engine().moves(nameless(p), frozenset(free_names(p)))
    (t,) = targets
    with pytest.raises(IndexError):
        canonicalize(t)
    assert render(canonicalize(_opened(t, a.objects))) == "new #1 in #0!<#1>.0"


def test_engine_path_names_only_roots_and_reported_states(monkeypatch):
    # states inside the engine are nameless, so the namer of a nameless
    # state runs only for the root and for a state a report prints, at
    # most 10 times; the conversion of a named term runs only for a
    # query's roots, and once each, since a term keeps its nameless form
    named, converted, roots = [], [], []

    def watch(walk, into):
        def watched(t, *args):
            into.append(t)
            return walk(t, *args)
        return watched

    def query(call, count):
        # a call whose first ``count`` arguments are its roots
        def asked(*args):
            roots.extend(args[:count])
            return call(*args)
        return asked

    monkeypatch.setattr(syntax, "_convert", watch(syntax._convert, converted))
    monkeypatch.setattr(syntax, "_name", watch(syntax._name, named))
    monkeypatch.setattr(bisim, "check", query(bisim.check, 2))
    monkeypatch.setattr(encoding, "check", query(encoding.check, 2))
    monkeypatch.setattr(encoding, "tau_levels", query(encoding.tau_levels, 1))
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    p = parse((corpus / "encoding" / "two_pairs.cpi").read_text(), mode=PI)
    for run, named_roots in ((lambda: check_completeness(p), [p]),
                             (lambda: law_suite(5, 2, 4), [])):
        named.clear()
        converted.clear()
        roots.clear()
        printed = json.dumps(run().to_json())
        states, terms = list(named), list(converted)
        assert len(states) <= 10, len(states)
        allowed = {render(canonicalize(r)) for r in named_roots}
        for t in states:
            text = render(canonicalize(t))
            assert text in allowed or text in printed, text
        asked = {id(r) for r in [p, *roots]}
        assert all(id(t) in asked for t in terms), [render(t) for t in terms]
        assert len({id(t) for t in terms}) == len(terms), len(terms)


def test_successors_deterministic_order():
    p = parse("a!<b>.0 | a?(x).0 | c!<d>.0")
    assert [t.action for t in successors(p)] == [t.action for t in successors(p)]
    first = successors(p)[0].action
    assert isinstance(first, TauAct)


def test_engine_cache_does_not_change_answers():
    # one engine reused across many states answers as a fresh one does
    rng = random.Random(2026)
    engine = Engine()
    for _ in range(60):
        p = random_cpi_process(rng, rng.randint(2, 9), repl_weight=0.08)
        for tr in successors(p):
            for inputs in (True, False):
                assert (engine.successors(tr.target, include_inputs=inputs)
                        == successors(tr.target, include_inputs=inputs))


CONFORMANCE_CASES = [
    ("a!<b>.0", ()),
    ("a?(x).0", ()),
    ("a?(x).x!<a>.0", ()),
    ("[a=a]a!<b>.0", ()),
    ("[a=b]a!<b>.0", ()),
    ("a!<b>.0 | a?(x).0", ()),
    ("a!<b>.0 | a?(x).x!<c>.0", ()),
    ("new k in k!<a>.0", ()),
    ("new l in k!<l>.0", ()),
    ("new l in k!<l>.l?(x).0", ()),
    ("(new l in k!<l>.l!<a>.0) | k?(x).x?(y).0", ()),
    ("new l,m in k!<l,m>.0", ()),
    ("new l in (k!<l>.0 | l?(x).0)", ()),
    ("!a!<b>.0", ()),
    ("!(a!<b>.0 | a?(x).0)", ()),
    ("!(new l in a!<l>.0 | a?(x).0)", ()),
    ("a?(x).(x!<a>.0 | b!<a>.0)", ("e",)),
    ("(new l in k!<l>.0) | k?(x).(x!<a>.0 | k!<x>.0)", ()),
    ("new k in (k!<a>.0 | k?(x).0 | k?(y).y!<b>.0)", ()),
    ("a!<b,c>.0 | a?(x,y).y!<x>.0", ()),
]


@pytest.mark.parametrize("text,extra", CONFORMANCE_CASES)
def test_oracle_conformance(text, extra):
    assert_conforms(text, tuple(chan(e) for e in extra))


def test_oracle_conformance_random():
    rng = random.Random(2024)
    for _ in range(60):
        p = random_cpi_process(rng, rng.randint(2, 9), repl_weight=0.05)
        env = {n for n in free_names(canonicalize(p)) if n.is_channel}
        assert engine_step_set(canonicalize(p)) == naive_step_set(canonicalize(p), env)


def test_engine_labels_are_the_actions_of_successors():
    # labels lists the distinct actions of successors in their order,
    # whether or not the engine already holds that successors entry, and
    # gives the oracle's label set
    rng = random.Random(3030)
    cases = [(parse(text, mode=PI), tuple(chan(e) for e in extra))
             for text, extra in CONFORMANCE_CASES]
    for i in range(80):
        gen = random_pi_process if i % 2 else random_cpi_process
        extra = ((), (chan("e"),), (chan("a"), chan("#i0")))[i % 3]
        cases.append((gen(rng, rng.randint(1, 8), repl_weight=0.08), extra))
    shared = Engine()
    for i, (p, extra) in enumerate(cases):
        want = tuple(dict.fromkeys(tr.action for tr in successors(p, extra)))
        assert Engine().labels(p, extra) == want, render(p)
        if i % 2:
            shared.successors(p, extra)
        assert shared.labels(p, extra) == want, render(p)
        c = canonicalize(p)
        env = {n for n in free_names(c) if n.is_channel} | set(extra)
        assert ({normalize(label_tuple(a), NIL)[0] for a in want}
                == {lab for lab, _ in naive_step_set(c, env)}), render(p)


# ---------------------------------------------------------------------------
# Inputs are instantiated only on channels of the environment


# Extra channels, one named like a canonical binder: #0 is bound in most
# of the states below, so a receive on the bound #0 has its subject in
# the environment, is instantiated, and must still be dropped by res.
EXTRAS = ((), (chan("e"),), (chan("a"),), (chan("#0"),), (chan("#0"), chan("e")))


def receivers_under_new(rng):
    """A random pi term whose restrictions guard receivers on their own
    channels, some replicated.  It is closed when every channel of the
    pool is restricted; otherwise it also receives on a free channel."""
    pool = [chan(c) for c in "abcd"]
    ks = rng.sample(pool, rng.choice((1, 2, 4, 4)))
    y = var("y")
    parts = []
    for k in ks + [c for c in pool if c not in ks][:1]:
        cont = random_pi_process(rng, rng.randint(1, 3), free_variables=(y,),
                                 repl_weight=0)
        recv = Prefixed(Receive(k, (y,)), cont)
        parts.append(Repl(recv) if rng.random() < 0.3 else recv)
    parts.append(random_pi_process(rng, rng.randint(1, 5), repl_weight=0.1))
    rng.shuffle(parts)
    p = Restrict(tuple(ks), par(*parts))
    if rng.random() < 0.2:
        p = Repl(p)
    if rng.random() < 0.3:
        p = Par(p, random_pi_process(rng, rng.randint(1, 3), repl_weight=0))
    return p


def translations():
    """Small translations with their handlers, open and closed, and the
    states one tau step away."""
    sources = ["new a,b in (a!<b>.0 | a?(x).0)",
               "new a,b in (a!<b>.0 | a?(x).b!<x>.0)",
               "new k in (k!<k>.0 | !k?(x).0)",
               "new k in (new l in k!<l>.0 | k?(x).0)",
               "a!<b>.0",
               "new a in (a!<b>.0 | a?(x).0)"]
    out = []
    for text in sources:
        enc = encode_with_handlers(parse(text, mode=PI))
        out.append(enc)
        out.extend(tr.target for tr in successors(enc, include_inputs=False)
                   if isinstance(tr.action, TauAct))
    return out


def single_news(shape):
    """An oracle shape with ``new a,b in P`` written ``new a in new b in
    P``, as it is by definition (a close on a bound output of two names
    gives the oracle the first)."""
    if not isinstance(shape, tuple):
        return shape
    if shape[:1] == ("new",) and len(shape[1]) > 1:
        shape = ("new", shape[1][:1], ("new", shape[1][1:], shape[2]))
    return tuple(single_news(x) for x in shape)


def assert_engine_is_oracle(p, extra):
    c = canonicalize(p)
    env = {n for n in free_names(c) if n.is_channel} | set(extra)
    want = {single_news(s) for s in naive_step_set(c, env)}
    assert engine_step_set(c, extra) == want, (render(c), extra)
    # without inputs: the oracle's steps less its input moves
    got = {normalize(label_tuple(tr.action), tr.target)
           for tr in successors(c, extra, include_inputs=False)}
    assert got == {s for s in want if s[0][0] != "in"}, (render(c), extra)
    return want


def test_oracle_conformance_receivers_under_new():
    rng = random.Random(808)
    seen = {"closed": 0, "open": 0, "inputs": 0}
    for i in range(120):
        p = receivers_under_new(rng)
        want = assert_engine_is_oracle(p, EXTRAS[i % len(EXTRAS)])
        seen["open" if free_names(p) else "closed"] += 1
        seen["inputs"] += any(lab[0] == "in" for lab, _ in want)
    assert min(seen.values()) >= 20, seen


def test_oracle_conformance_translations():
    states = translations()
    assert len(states) >= 12
    for i, p in enumerate(states):
        assert_engine_is_oracle(p, EXTRAS[i % 2 * 3])


def test_extra_channel_named_like_a_binder_is_received():
    # a bound name is an index, so an extra channel named #0 is a free
    # name like any other: it is offered as the input z would be
    p = canonicalize(parse("new k in (a?(x).x!<a>.0 | k!<k>.0)", mode=PI))
    got = {render_action(tr.action) for tr in successors(p, [chan("#0")])}
    assert {"a?<#0>", "a?<a>", "a?<#i0>"} <= got
    zs = {render_action(tr.action) for tr in successors(p, [chan("z")])}
    assert {a.replace("z", "#0") for a in zs} == got


def test_rep_close_into_a_copy_that_restricts_the_name():
    # one copy of !P extrudes its l to another copy, which restricts a
    # channel of its own under the same binder: that binder is renamed
    # apart, so the tau is there
    p = parse("!(new l in (a!<l>.0 | a?(x).0))", mode=PI)
    closes = [tr for tr in successors(p) if tr.action is TAU
              and "rep-close" in tr.rules]
    assert [render(tr.target) for tr in closes] == [
        "(new #0 in 0 | a?(#1).0 | new #2 in a!<#2>.0 | 0) "
        "| !new #3 in a!<#3>.0 | a?(#4).0"]


def test_closed_state_has_one_transition_set():
    # one cache entry and one tuple for a closed state, whatever
    # include_inputs says; labels read the same entry
    rng = random.Random(909)
    closed = [s for s in translations() if not free_names(s)]
    while len(closed) < 40:
        p = receivers_under_new(rng)
        if not free_names(p):
            closed.append(p)
    engine = Engine()
    for p in closed:
        every = engine.successors(p)
        assert engine.successors(p, include_inputs=False) is every, render(p)
        assert not any(isinstance(tr.action, InAct) for tr in every)
        assert engine.labels(p) == tuple(dict.fromkeys(tr.action for tr in every))


def test_no_inputs_is_the_empty_environment():
    # without inputs the environment is empty, whatever the caller
    # passed: an open state has one cache entry and one tuple for every
    # extra environment, equal to what a fresh engine gives
    rng = random.Random(919)
    opened = [s for s in translations() if free_names(s)]
    while len(opened) < 40:
        p = receivers_under_new(rng)
        if free_names(p):
            opened.append(p)
    engine = Engine()
    with_inputs = 0
    for p in opened:
        bare = engine.successors(p, include_inputs=False)
        assert not any(isinstance(tr.action, InAct) for tr in bare)
        for extra in EXTRAS[1:]:
            got = engine.successors(p, extra, include_inputs=False)
            assert got is bare, render(p)
            assert Engine().successors(p, extra, include_inputs=False) == bare
            with_inputs += any(isinstance(tr.action, InAct)
                               for tr in engine.successors(p, extra))
    assert with_inputs >= 100


# ---------------------------------------------------------------------------
# The nameless engine against the named engine it replaced, kept as the
# reference in named_engine.py.


def _receive_subjects(p):
    """The names that receive prefixes of ``p`` receive on."""
    if type(p) is Prefixed:
        core = prefix_chain(p.prefix)[1]
        own = {core.subject} if type(core) is Receive else set()
        return own | _receive_subjects(p.continuation)
    if type(p) is Par:
        return _receive_subjects(p.left) | _receive_subjects(p.right)
    if type(p) in (Restrict, Repl):
        return _receive_subjects(p.body)
    return set()


# Components that send, receive and extrude with and around a channel k
# restricted above them.
_SCOPED = ("new m in a!<m>.k!<m>.0", "a?(x).x!<k>.0", "a!<k>.k?(y).0",
           "new m in a?(x).(x!<m>.0 | m!<k>.0)", "k!<a>.0",
           "new m in (a!<m>.0 | m?(z).z!<k>.0)", "new m in k?(y).y!<m>.0",
           "a?(x).k!<x>.0", "new m in a!<m>.m?(z).k!<z>.0")


def scoped_syncs(rng):
    """``new k in ((P | Q) | R)``, its parts drawn from _SCOPED: closes
    and communications below the top '|', whose parts use k, and names
    of the nest received across nests of the receiver's own."""
    parts = [rng.choice(_SCOPED) for _ in range(3)]
    if rng.random() < 0.3:
        parts[rng.randrange(3)] = "!" + rng.choice(_SCOPED)
    return parse("new k in ((%s) | (%s) | (%s))" % tuple(parts), mode=PI)


def _engine_inputs():
    """The corpus, 2,000 seeded pi and cpi terms with replication, 600
    polyadic rough terms, 200 scoped synchronizations and 60 replicated
    ones, and translations with their handlers, open and closed, with
    the states one tau step into each.  A translated receive on a free
    channel takes an input of four names, too many to list on an
    environment of a dozen channels, so an open translation's source
    receives on restricted channels only."""
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    yield from (parse(f.read_text(), mode=PI)
                for f in sorted(corpus.glob("*/*.cpi")))
    rng = random.Random(5150)
    for i in range(2000):
        gen = random_pi_process if i % 2 else random_cpi_process
        yield gen(rng, rng.randint(1, 12), repl_weight=0.08)
    for _ in range(600):
        yield rough_process(rng, rng.randint(2, 10))
    for _ in range(200):
        state = scoped_syncs(rng)
        yield state
        yield from (tr.target for tr in successors(state, include_inputs=False)
                    if tr.action is TAU)
    sources = []
    for i in range(150):
        source = random_pi_process(rng, rng.randint(2, 8 if i % 5 else 5),
                                   repl_weight=0.05)
        frees = sorted((n for n in free_names(source) if n.is_channel),
                       key=lambda n: n.ident)
        heard = [n for n in frees if n in _receive_subjects(source)]
        sources.append(Restrict(tuple(frees), source) if frees else source)
        if i % 5 == 0 and heard and len(heard) < len(frees):
            sources.append(Restrict(tuple(heard), source))
    for source in sources:
        enc = encode_with_handlers(source)
        yield enc
        yield from (tr.target for tr in successors(enc, include_inputs=False)
                    if tr.action is TAU)
    for _ in range(60):
        # one copy extrudes k to another, which restricts k itself
        yield Repl(scoped_syncs(rng))
    yield from translations()


def _engine_answers(engine, p, extra):
    """successors with and without inputs and labels, or the sort error
    each raised, as type and message."""
    for call in (lambda: engine.successors(p, extra),
                 lambda: engine.successors(p, extra, include_inputs=False),
                 lambda: engine.labels(p, extra)):
        try:
            yield call()
        except SortError as e:
            yield type(e), str(e)


def _restored_input(a, extra):
    """Whether ``a`` is an input of the extra channel ``#0``, which the
    named engine took for its binder ``#0`` and lost."""
    return (type(a) is InAct and chan("#0") in extra
            and chan("#0") in a.objects)


def _restored(got, want, extra):
    """What the nameless engine's answers ``got`` add to the named
    engine's ``want``, call by call, or an AssertionError if an added
    item is not one the named engine lost.  It lost inputs of the extra
    channel ``#0`` and rep-closes whose receiving copy restricts the
    extruded name under the same name.  A tau label may be added only
    with such rep-closes, when every tau transition added is one."""
    added = []
    for x, w in zip(got, want):
        if isinstance(x, tuple) and x[:1] == (SortError,):
            assert x == w
            added.append(())
            continue
        known = set(w)
        assert [y for y in x if y in known] == list(w)
        added.append(tuple(y for y in x if y not in known))
    taus = [tr for tr in added[0] if tr.action is TAU]
    closes = all("rep-close" in tr.rules for tr in taus)
    for tr in added[0] + added[1]:
        assert ("rep-close" in tr.rules and tr.action is TAU
                or _restored_input(tr.action, extra)), tr
    for a in added[2]:
        assert a is TAU and taus and closes or _restored_input(a, extra), a
    return added


def test_rule_engine_matches_the_reference_engine():
    seen = {"sort errors": 0, "bound outputs": 0, "closes": 0, "nest wraps": 0,
            "replicated syncs": 0, "guarded syncs": 0, "restored #0": 0,
            "restored rep-closes": 0}
    for p in _engine_inputs():
        engine, reference = Engine(), NamedEngine()
        for extra in EXTRAS:
            got = list(_engine_answers(engine, p, extra))
            want = list(_engine_answers(reference, p, extra))
            if got != want:
                # the named engine's answers are the nameless engine's
                # less what it lost, in the same order
                try:
                    added = _restored(got, want, extra)
                except AssertionError as e:
                    raise AssertionError((render(p), extra, str(e))) from None
                seen["restored #0"] += any(
                    _restored_input(tr.action, extra) for tr in added[0])
                seen["restored rep-closes"] += any(
                    "rep-close" in tr.rules for tr in added[0])
            if got[0][:1] == (SortError,):
                seen["sort errors"] += 1
                continue
            for tr in got[0]:
                seen["bound outputs"] += type(tr.action) is BoundOutAct
                seen["closes"] += any(r.startswith("close") for r in tr.rules)
                seen["nest wraps"] += tr.rules.count("res") > 1
                if tr.action is TAU:
                    seen["replicated syncs"] += any(r.startswith("rep-") for r in tr.rules)
                    seen["guarded syncs"] += "match" in tr.rules
    assert min(seen.values()) >= 25, seen


# ---------------------------------------------------------------------------
# The order of successors


def crowded(rng):
    """Senders and receivers crowding two channels, some senders sending
    a restricted channel: many tau targets and bound outputs."""
    pool = (chan("a"), chan("b"))
    y = var("y")
    parts = []
    for _ in range(rng.randint(2, 5)):
        k = rng.choice(pool)
        roll = rng.random()
        if roll < 0.4:
            cont = random_pi_process(rng, rng.randint(1, 3),
                                     free_variables=(y,), repl_weight=0)
            parts.append(Prefixed(Receive(k, (y,)), cont))
        else:
            cont = random_pi_process(rng, rng.randint(1, 3), repl_weight=0)
            if roll < 0.7:
                l = chan("l")
                parts.append(Restrict((l,), Prefixed(Send(k, (l,)), cont)))
            else:
                parts.append(Prefixed(Send(k, (rng.choice(pool),)), cont))
    p = par(*parts)
    return Restrict(pool[:1], p) if rng.random() < 0.3 else p


def _named_targets(engine, p, env):
    """The actions and targets of ``engine.moves`` on ``p`` under ``env``,
    each target opened on its action's names and canonicalized."""
    return [(a, canonicalize(_opened(t, a.objects) if type(a) is BoundOutAct
                             else t))
            for a, targets in engine.moves(nameless(p), env) for t in targets]


def test_successors_sorted_by_action_then_derivation():
    # successors lists the actions by key, and each action's targets in
    # the order of Engine.moves, the order the rule engine derives them
    rng = random.Random(1313)
    states = translations()
    for i in range(600):
        if i % 4 == 0:
            states.append(receivers_under_new(rng))
        elif i % 4 == 1:
            states.append(crowded(rng))
        else:
            gen = random_pi_process if i % 4 == 2 else random_cpi_process
            states.append(gen(rng, rng.randint(2, 10), repl_weight=0.08))
    seen = {"open": 0, "closed": 0, "bound": 0, "taus": 0, "tied": 0}
    engine = Engine()
    for i, p in enumerate(states):
        extra = EXTRAS[i % len(EXTRAS)]
        try:
            every = engine.successors(p, extra)
        except SortError:
            continue
        env = frozenset(n for n in free_names(p) if n.is_channel) | set(extra)
        for got, env in ((every, env),
                         (engine.successors(p, extra, include_inputs=False),
                          frozenset())):
            keys = [_action_sort_key(tr.action) for tr in got]
            assert keys == sorted(keys), (render(p), extra)
            assert ([(tr.action, tr.target) for tr in got]
                    == _named_targets(engine, p, env)), (render(p), extra)
        actions = [tr.action for tr in every]
        seen["closed" if not free_names(p) else "open"] += 1
        seen["bound"] += any(isinstance(a, BoundOutAct) for a in actions)
        seen["taus"] += actions.count(TAU) > 1
        seen["tied"] += len(set(actions)) < len(actions)
    assert min(seen.values()) >= 40, seen


def respelled(p, nests, env=None, count=None):
    """An alpha-variant of ``p`` built apart from the parser: binder
    ``n`` is spelled ``n_<i>``, ``i`` counting binders from the root, and
    with ``nests`` "split" a restriction of several channels is nested
    single ones, with "join" a restriction right below another joins it."""
    env = {} if env is None else env
    count = [0] if count is None else count

    def bind(names):
        inner = dict(env)
        for n in names:
            count[0] += 1
            inner[n] = Name(n.kind, f"{n.ident}_{count[0]}")
        return inner, tuple(inner[n] for n in names)

    def again(q, inner=env):
        return respelled(q, nests, inner, count)

    name = lambda n: env.get(n, n)
    if isinstance(p, Prefixed):
        guards, core = prefix_chain(p.prefix)
        if isinstance(core, Send):
            pre, inner = Send(name(core.subject), tuple(map(name, core.objects))), env
        else:
            inner, binders = bind(core.binders)
            pre = Receive(name(core.subject), binders)
        for a, b in reversed(guards):
            pre = Match(name(a), name(b), pre)
        return Prefixed(pre, again(p.continuation, inner))
    if isinstance(p, Par):
        return Par(again(p.left), again(p.right))
    if isinstance(p, Repl):
        return Repl(again(p.body))
    if isinstance(p, Restrict):
        inner, ks = bind(p.channels)
        body = again(p.body, inner)
        if nests == "join" and isinstance(body, Restrict):
            return Restrict(ks + body.channels, body.body)
        if nests == "split":
            for k in reversed(ks[1:]):
                body = Restrict((k,), body)
            ks = ks[:1]
        return Restrict(ks, body)
    return p


def test_move_order_is_a_function_of_the_alpha_class():
    # successors gives one tuple for every spelling of a state: its
    # binders renamed, its nests split or joined, and asked of a fresh
    # engine or of one warmed by unrelated queries; a sort error names a
    # restricted channel the same way
    rng = random.Random(2323)
    k = chan("k")
    clash = Restrict((k,), Par(Prefixed(Receive(k, (var("y"), var("z"))), NIL),
                               Prefixed(Send(k, (k,)), NIL)))
    states = translations()
    for i in range(400):
        if i % 4 == 0:
            states.append(receivers_under_new(rng))
        elif i % 4 == 1:
            states.append(crowded(rng))
        elif i % 4 == 2:
            states.append(random_pi_process(rng, rng.randint(2, 10),
                                            repl_weight=0.08))
        else:
            p = rough_process(rng, rng.randint(2, 9))
            states.append(Par(p, clash) if i % 8 == 7 else p)
    warm = Engine()
    seen = {"tied": 0, "split": 0, "joined": 0, "sort errors": 0}
    for i, p in enumerate(states):
        extra = EXTRAS[i % len(EXTRAS)]
        spellings = [p, respelled(p, "split"), respelled(p, "join")]
        seen["split"] += spellings[1] != respelled(p, None)
        seen["joined"] += spellings[2] != respelled(p, None)
        answers = set()
        for engine, q in [(Engine(), q) for q in spellings] + [(warm, p)]:
            answers.add(tuple(_engine_answers(engine, q, extra)))
        assert len(answers) == 1, (render(p), extra)
        (every, _, _), = answers
        if every[:1] == (SortError,):
            seen["sort errors"] += 1
        else:
            actions = [tr.action for tr in every]
            seen["tied"] += len(set(actions)) < len(actions)
    assert min(seen.values()) >= 20, seen


# ---------------------------------------------------------------------------
# Interned actions against the frozen dataclasses they replaced, kept here
# as the reference: field-by-field equality and the sort key of a match.


def _old_bound_out_check(self):
    if not self.bound:
        raise ValueError("bound output needs a bound object")
    if not set(self.bound) <= set(self.objects):
        raise ValueError("bound names must be among the objects")
    if self.subject in self.bound:
        raise ValueError("bound output subject cannot be bound")


_MESSAGE = [("subject", Name), ("objects", tuple)]
OldOut = dataclasses.make_dataclass("OutAct", _MESSAGE, frozen=True)
OldIn = dataclasses.make_dataclass("InAct", _MESSAGE, frozen=True)
OldBoundOut = dataclasses.make_dataclass(
    "BoundOutAct", _MESSAGE + [("bound", tuple)], frozen=True,
    namespace={"__post_init__": _old_bound_out_check})
OldTau = dataclasses.make_dataclass("TauAct", [], frozen=True)
OLD = {OutAct: OldOut, InAct: OldIn, BoundOutAct: OldBoundOut, TauAct: OldTau}


def _old_copy(a):
    return OLD[type(a)](*(getattr(a, f) for f in a.__match_args__))


def _old_key(a):
    match a:
        case OldTau():
            return (0, "", (), ())
        case OldOut(subject=s, objects=objs):
            return (1, s.ident, tuple(o.ident for o in objs), ())
        case OldBoundOut(subject=s, objects=objs, bound=bound):
            return (2, s.ident, tuple(o.ident for o in objs),
                    tuple(b.ident for b in bound))
        case OldIn(subject=s, objects=objs):
            return (3, s.ident, tuple(o.ident for o in objs), ())
    raise TypeError(a)


def _corpus_and_seeded_actions():
    """Every action of successors (with and without inputs) and of
    Engine.labels on the corpus scripts and 2,000 seeded terms, half of
    them polyadic rough terms."""
    corpus = Path(__file__).resolve().parent.parent / "corpus"
    states = [parse(f.read_text(), mode=PI) for f in sorted(corpus.glob("*/*.cpi"))]
    rng = random.Random(2121)
    for i in range(2000):
        if i % 2:
            states.append(rough_process(rng, rng.randint(2, 10)))
        else:
            gen = random_pi_process if i % 4 else random_cpi_process
            states.append(gen(rng, rng.randint(1, 12), repl_weight=0.05))
    for i, p in enumerate(states):
        engine = Engine()
        extra = EXTRAS[i % len(EXTRAS)]
        try:
            trans = (engine.successors(p, extra)
                     + engine.successors(p, include_inputs=False))
            labels = engine.labels(p, extra)
        except SortError:
            continue
        yield from (tr.action for tr in trans)
        yield from labels


def test_actions_keep_the_dataclass_semantics():
    actions = {}
    for a in _corpus_and_seeded_actions():
        actions[id(a)] = a
    actions = list(actions.values())
    copies = [_old_copy(a) for a in actions]
    # equal exactly when the copies are equal: distinct actions have
    # distinct copies, and an action rebuilt from its fields is itself
    assert len(set(copies)) == len(actions)
    for a, old in zip(actions, copies):
        assert type(a)(*(getattr(a, f) for f in a.__match_args__)) is a
        assert repr(a) == repr(old)
        assert _action_sort_key(a) == _old_key(old)
        assert pickle.loads(pickle.dumps(a)) is a
        assert copy.copy(a) is a and copy.deepcopy(a) is a
        with pytest.raises(AttributeError):
            a.subject = chan("a")
    kinds = {t: sum(type(a) is t for a in actions) for t in OLD}
    assert kinds[TauAct] == 1 and min(kinds.values()) >= 1, kinds
    assert len(actions) >= 300 and kinds[BoundOutAct] >= 10, kinds


@pytest.mark.parametrize("fields", [
    (chan("k"), (chan("l"),), ()),
    (chan("k"), (chan("l"),), (chan("m"),)),
    (chan("k"), (chan("k"), chan("l")), (chan("k"),)),
    (chan("k"), (chan("l"),), (chan("l"), chan("m"))),
], ids=["no-bound", "bound-not-object", "subject-bound", "one-not-object"])
def test_bound_output_raises_as_before(fields):
    gc.collect()
    before = len(syntax._nodes)
    with pytest.raises(ValueError) as old:
        OldBoundOut(*fields)
    for _ in range(2):
        with pytest.raises(ValueError) as new:
            BoundOutAct(*fields)
        assert str(new.value) == str(old.value)
    assert len(syntax._nodes) == before


def test_unreferenced_actions_leave_the_intern_table():
    gc.collect()
    before = len(syntax._nodes)
    a, l = chan("zq_act_a"), chan("zq_act_l")
    acts = [OutAct(a, (l,)), InAct(a, (l,)), BoundOutAct(a, (l,), (l,))]
    assert OutAct(a, (l,)) is acts[0] and acts[0] != acts[1]
    assert len(syntax._nodes) == before + 5
    del acts
    assert len(syntax._nodes) == before + 2
    del a, l
    gc.collect()
    assert len(syntax._nodes) == before
