"""Bounded bisimilarity: game behavior, counterexamples, the
closed-domain instance family, and the law suite machinery."""

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

import cpi
from cpi.bisim import (
    ConstructionError, Verdict, _Game, check, check_proposition1_instance,
    law_suite,
)
from cpi.encoding import encode_with_handlers
from cpi.gen import random_cpi_process, random_pi_process
from cpi.lts import BoundOutAct, Engine, InAct, OutAct, TauAct
from cpi.nonforward import _monadic
from cpi.parser import PI, parse
from cpi.syntax import (
    NIL, Par, Prefixed, Receive, Repl, Restrict, Send, SortError,
    canonicalize, chan, free_names, nameless, substitute, var,
)


def bisim(a, b, depth=4):
    return check(parse(a), parse(b), depth)


def test_reflexive():
    assert bisim("a!<b>.0 | c?(x).0", "a!<b>.0 | c?(x).0").bisimilar


def test_alpha_variants():
    assert bisim("new k in k!<a>.0 | a?(x).0",
                 "new m in m!<a>.0 | a?(y).0").bisimilar


def test_distinguishes_labels():
    v = bisim("a!<b>.0", "a!<c>.0", depth=1)
    assert not v.bisimilar
    (act, side) = v.counterexample[0]
    assert isinstance(act, OutAct)


def test_counterexample_trace_depth_two():
    v = bisim("a!<b>.a!<b>.0", "a!<b>.0", depth=2)
    assert not v.bisimilar
    assert len(v.counterexample) == 2
    assert {s for _, s in v.counterexample} <= {"left", "right"}


def test_depth_bounded_positive_is_not_proof():
    # distinguishable only at depth 3
    v2 = bisim("a!<b>.a!<b>.a!<b>.0", "a!<b>.a!<b>.0", depth=2)
    v3 = bisim("a!<b>.a!<b>.a!<b>.0", "a!<b>.a!<b>.0", depth=3)
    assert v2.bisimilar and not v3.bisimilar


def test_input_environment_shared():
    # same inputs must be compared over the union of free channels
    v = check(parse("a?(x).x!<a>.0", mode="pi"), parse("a?(x).b!<a>.0"), 3)
    assert not v.bisimilar


def test_bound_output_label_normalization():
    assert bisim("new l in k!<l>.0", "new m in k!<m>.0", depth=3).bisimilar


def test_tau_mismatch():
    v = bisim("a!<b>.0 | a?(x).0", "a!<b>.0", depth=1)
    assert not v.bisimilar
    assert any(isinstance(act, TauAct) for act, _ in v.counterexample)


def test_json_shape():
    j = bisim("a!<b>.0", "0", depth=1).to_json()
    assert j["result"] == "not-bisimilar"
    assert j["counterexample"][0]["action"]["kind"] == "out"


def test_proposition1_family():
    m = chan("m")
    bodies = [
        NIL,
        Prefixed(Send(m, (chan("n"),)), NIL),
        Prefixed(Receive(m, (var("z"),)), NIL),
        Par(Prefixed(Send(m, (chan("n"),)), NIL),
            Prefixed(Receive(m, (var("z"),)), NIL)),
    ]
    guarded = [Send(chan("n"), (chan("n"),)), Receive(chan("n"), (var("w"),))]
    for body in bodies:
        for pi in guarded:
            v = check_proposition1_instance(body, m, pi, depth=6)
            assert v.bisimilar, (body, pi)


def test_proposition1_reserved_clash():
    with pytest.raises(ConstructionError):
        check_proposition1_instance(Prefixed(Send(chan("k"), (chan("k"),)), NIL),
                                    chan("m"), Send(chan("n"), (chan("n"),)), 4)


def test_proposition1_mutant_detected():
    # replacing the private-name guard with a reflexive one is observable
    left = parse("""
        new k in (new l in k!<l>.m?(y).[y=y]p!<t>.0 | k?(x).0)
    """)
    right = parse("""
        new k in (new l in k!<l>.m?(y).0 | k?(x).0)
    """)
    assert not check(left, right, 6).bisimilar


def test_law_suite_small():
    rep = law_suite(seed=5, instances=8, depth=3)
    assert rep.ok
    names = [r.name for r in rep.results]
    assert "mutant-par-absorb" in names
    mutant = [r for r in rep.results if r.should_fail][0]
    assert mutant.failures  # the false law must be caught


def test_law_suite_independent_of_history():
    # the report is the same in a fresh process as after other checks
    script = ("import json; from cpi.bisim import law_suite; print(json.dumps("
              "law_suite(seed=5, instances=8, depth=3).to_json()))")
    fresh = subprocess.run([sys.executable, "-c", script], check=True,
                           capture_output=True, text=True).stdout
    check(parse("a!<b>.0 | a?(x).0"), parse("new k in a!<k>.0"), 3)
    law_suite(seed=6, instances=4, depth=3)
    assert law_suite(seed=5, instances=8, depth=3).to_json() == json.loads(fresh)


def test_law_suite_json():
    rep = law_suite(seed=5, instances=2, depth=2)
    j = rep.to_json()
    assert j["ok"] is True and len(j["laws"]) == 11
    assert j["laws"][-1]["name"] == "mutant-par-absorb"
    assert j["laws"][-1]["should_fail"] and j["laws"][-1]["failures"]


def test_lost_chain_memo_holds_one_move_per_round():
    # the memo's counterexamples share their tails, so a game lost n
    # rounds deep keeps n moves, not n(n+1)/2
    n = 1000
    p = canonicalize(parse("a!<b>." * n + "0"))
    q = canonicalize(parse("a!<b>." * (n - 1) + "a!<c>.0"))
    game = _Game(p, q, Engine())
    game.play(p, q, n)
    links = set()
    for link in game.memo.values():
        while link is not None and id(link) not in links:
            links.add(id(link))
            link = link[1]
    assert len(links) <= n
    move = (OutAct(chan("a"), (chan("b"),)), "right")
    assert check(p, q, n) == Verdict(False, n, (move,) * n)


def _cpi_lines(call):
    """The number of lines of ``cpi`` code that ``call()`` executes."""
    count = 0
    package = str(Path(cpi.__file__).parent)

    def local(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return local

    def trace(frame, event, arg):
        return local if frame.f_code.co_filename.startswith(package) else None

    sys.settrace(trace)
    try:
        call()
    finally:
        sys.settrace(None)
    return count


def test_chain_game_is_linear():
    # each round of the game along a chain of sends moves to a subterm
    # that is already a state, so no round walks the rest of the chain:
    # twice the chain is twice the work, counted in executed lines
    def play(n):
        p = parse("a!<b>." * n + "0")
        return _cpi_lines(lambda: check(p, Par(p, NIL), n))

    ratio = play(2000) / play(1000)
    assert 1.8 < ratio < 2.2, ratio


def test_memoization_consistency():
    # the same pair at different entry depths must agree on the verdict
    rng = random.Random(11)
    for _ in range(20):
        p = random_cpi_process(rng, 6)
        q = random_cpi_process(rng, 6)
        v_lo = check(p, q, 2)
        v_hi = check(p, q, 4)
        if v_lo.bisimilar is False:
            assert v_hi.bisimilar is False


def test_shared_engine_does_not_change_verdicts():
    # one engine reused across many checks, in two orders, answers as a
    # fresh engine per check does, counterexamples included
    rng = random.Random(404)
    pairs = []
    while len(pairs) < 99:
        p = random_cpi_process(rng, rng.randint(1, 5), repl_weight=0.05)
        q = random_cpi_process(rng, rng.randint(1, 5), repl_weight=0.05)
        pairs += [(p, q), (Par(p, q), Par(q, p)), (Par(p, q), p)]
    fresh = [check(p, q, 3) for p, q in pairs]
    assert any(v.bisimilar for v in fresh)
    assert any(not v.bisimilar for v in fresh)
    for order in (list(range(len(pairs))), list(reversed(range(len(pairs))))):
        engine = Engine()
        for i in order:
            p, q = pairs[i]
            assert check(p, q, 3, engine) == fresh[i], i


def reference_check(p, q, depth):
    """The bounded game with every round, the last included, played on
    full ``Engine.successors`` moves; built from public calls only."""
    engine = Engine()
    p, q = canonicalize(p), canonicalize(q)
    base = {n for n in free_names(p) | free_names(q) if n.is_channel}
    memo = {}

    def moves(s, env, avoid):
        out = []
        for tr in engine.successors(s, env):
            a, t = tr.action, tr.target
            if isinstance(a, BoundOutAct):
                fresh, j = [], 0
                while len(fresh) < len(a.bound):
                    if f"#b{j}" not in avoid:
                        fresh.append(chan(f"#b{j}"))
                    j += 1
                m = dict(zip(a.bound, fresh))
                a = BoundOutAct(a.subject, tuple(m.get(o, o) for o in a.objects),
                                tuple(fresh))
                fn = free_names(t)
                t = canonicalize(substitute(t, {k: v for k, v in m.items() if k in fn}))
            out.append((a, t))
        return out

    def play(a, b, d):
        if d == 0 or a == b:
            return None
        if (a, b, d) in memo:
            return memo[a, b, d]
        env = base | {n for n in free_names(a) | free_names(b) if n.is_channel}
        avoid = {n.ident for n in env | free_names(a) | free_names(b)}
        by_a, by_b = {}, {}
        for act, t in moves(a, env, avoid):
            by_a.setdefault(act, []).append(t)
        for act, t in moves(b, env, avoid):
            by_b.setdefault(act, []).append(t)
        result = None
        for attacker, defender, side in ((by_a, by_b, "right"), (by_b, by_a, "left")):
            for act, targets in attacker.items():
                for t in targets:
                    replies = [play(t, c, d - 1) if side == "right" else play(c, t, d - 1)
                               for c in defender.get(act, ())]
                    if None not in replies:
                        result = [(act, side)] + (replies[0] if replies else [])
                        break
                if result is not None:
                    break
            if result is not None:
                break
        memo[a, b, d] = result
        return result

    ce = play(p, q, depth)
    return Verdict(ce is None, depth, None if ce is None else tuple(ce))


def outcome(game, p, q, depth):
    """The verdict of ``game``, or the sort error it raised."""
    try:
        return game(p, q, depth)
    except SortError as e:
        return ("SortError", str(e))


def test_label_only_last_round_matches_full_game():
    # the last round reads labels only; a game that expands it in full
    # must give the same verdicts and counterexamples at every depth
    rng = random.Random(515)
    pairs = []
    while len(pairs) < 120:
        gen = random_pi_process if len(pairs) % 2 else random_cpi_process
        p = gen(rng, rng.randint(1, 5), repl_weight=0.06)
        q = gen(rng, rng.randint(1, 5), repl_weight=0.06)
        pairs += [(p, q), (Par(p, q), Par(q, p)), (Par(p, q), p),
                  (Restrict((chan("a"),), p), p)]
    # a channel used at two arities: the clash shows only when a round
    # synchronizes b!<c> with the received b?(y,z)
    clash = parse("a?(x).x?(y,z).0 | a!<b>.0 | b!<c>.0", mode=PI)
    n = len(pairs)
    pairs += [(clash, Par(p, clash)) for p, _ in pairs[:8]]
    pairs += [(Par(clash, p), q) for p, q in pairs[:8]]
    steps, errors = [], set()
    for i, (p, q) in enumerate(pairs):
        for depth in (1, 2, 3, 4) if i % 3 == 0 or i >= n else (1 + i % 4,):
            got = outcome(check, p, q, depth)
            assert got == outcome(reference_check, p, q, depth), (i, depth)
            if isinstance(got, tuple):
                errors.add(depth)
            else:
                steps += got.counterexample or ()
    assert 2 in errors
    assert any(isinstance(a, BoundOutAct) for a, _ in steps)
    assert any(isinstance(a, InAct) for a, _ in steps)
    assert {"left", "right"} <= {side for _, side in steps}


def _monadic_pairs(rng, count):
    """Seeded monadic pairs in the law suite's shapes and at random: free
    inputs, bound outputs (a restricted channel sent), replication, and
    two receivers on one channel."""
    a, k, x, y = chan("a"), chan("k"), var("xd"), var("yd")
    pairs = []
    while len(pairs) < count:
        gen = random_pi_process if len(pairs) % 3 else random_cpi_process
        p = gen(rng, rng.randint(1, 4), repl_weight=0.1)
        q = gen(rng, rng.randint(1, 4), repl_weight=0.1)
        twin = Par(Prefixed(Receive(a, (x,)), p), Prefixed(Receive(a, (y,)), q))
        sent = Restrict((k,), Par(Prefixed(Send(a, (k,)), p),
                                  Prefixed(Send(a, (k,)), q)))
        pairs += [(p, q), (Par(p, q), Par(q, p)), (Par(p, q), p),
                  (Par(p, Restrict((k,), q)), Restrict((k,), Par(p, q))),
                  (twin, Par(twin, p)), (sent, Par(p, sent)),
                  (Repl(p), Par(p, Repl(p)))]
    return pairs


# Two bound outputs on one subject from two restrictions: the engine
# names their bound channels apart, so they are two of its actions, and
# the game joins them under one normal label.
_TWO_EXTRUSIONS = ("new x in a!<x>.0 | new y in a!<y>.b!<y>.0",
                   "new y in a!<y>.b!<y>.0 | new x in a!<x>.0",
                   "new x in a!<x>.0 | new y in a!<y>.c!<y>.0",
                   "new x in a!<x>.b!<x>.0 | new y in a!<y>.0",
                   "new x in a!<x>.0 | new y in a!<y>.0",
                   "new x in (a!<x>.0 | a!<x>.b!<x>.0)",
                   "a?(z).0 | new x in a!<x>.z!<x>.0 | new y in a!<y>.0")


def _merging_pairs(rng, count):
    """Monadic pairs whose states have bound outputs that the game joins
    under one label: the shapes above, and random continuations of two
    restricted sends on ``a`` against variants."""
    a, k, l = chan("a"), chan("k"), chan("l")
    shapes = [parse(t, mode=PI) for t in _TWO_EXTRUSIONS]
    pairs = [(p, q) for p in shapes for q in shapes if p is not q]
    while len(pairs) < count:
        p = random_pi_process(rng, rng.randint(1, 3), extra_channels=(k,))
        q = random_pi_process(rng, rng.randint(1, 3), extra_channels=(l,))
        sent_p = Restrict((k,), Prefixed(Send(a, (k,)), p))
        sent_q = Restrict((l,), Prefixed(Send(a, (l,)), q))
        pairs += [(Par(sent_p, sent_q), Par(sent_q, sent_p)),
                  (Par(sent_p, sent_q), Par(sent_p, sent_p)),
                  (Par(sent_p, sent_q), sent_p)]
    return pairs


# Closed sources with two receivers on one channel: their translations
# are polyadic, and a synchronization has two tau targets.
_TWO_RECEIVERS = ("new a,b,c in (a!<b>.0 | a?(x).x!<c>.0 | a?(y).c!<y>.0)",
                  "new a,b,c in (a!<b>.0 | a?(y).c!<y>.0 | a?(x).x!<c>.0)",
                  "new a,b,c in (a!<b>.0 | a?(x).x!<c>.0 | a?(y).c!<c>.0)",
                  "new a,b,c in (a!<c>.0 | a?(x).x!<c>.0 | a?(y).c!<y>.0)")


def _polyadic_tied_pairs():
    """Polyadic pairs whose moves tie: translations of two-receiver
    sources, and two receivers of two names on one free channel."""
    encoded = [encode_with_handlers(parse(t, mode=PI)) for t in _TWO_RECEIVERS]
    pairs = [(p, q) for p in encoded for q in encoded]
    twin = parse("a?(x,y).b!<x>.0 | a?(u,v).c!<v>.0", mode=PI)
    for text in ("a?(u,v).c!<v>.0 | a?(x,y).b!<x>.0",
                 "a?(x,y).b!<y>.0 | a?(u,v).c!<v>.0",
                 "a?(x,y).b!<x>.0 | a?(u,v).c!<u>.0 | a!<b,c>.0"):
        q = parse(text, mode=PI)
        pairs += [(twin, q), (q, twin)]
    return pairs


def test_derivation_order_game_matches_reference_game(monkeypatch):
    # the game visits moves in derivation order and takes the first
    # winner and the first reply it meets: the verdicts and
    # counterexamples are those of the reference game on successors, at
    # every depth, for monadic pairs, for pairs whose bound outputs join
    # under one label, and for polyadic pairs whose moves tie
    by_label = cpi.bisim._moves_by_label
    merges = 0

    def counting(engine, p, env, avoid):
        nonlocal merges
        got = by_label(engine, p, env, avoid)
        merges += sum(type(a) is BoundOutAct for a, _ in engine.moves(p, env))
        merges -= sum(type(a) is BoundOutAct for a in got)
        return got

    monkeypatch.setattr(cpi.bisim, "_moves_by_label", counting)
    rng = random.Random(2020)
    pairs = _monadic_pairs(rng, 308)
    pairs += _merging_pairs(rng, 90)
    monadic = len(pairs)
    pairs += _polyadic_tied_pairs()
    lost = polyadic_lost = 0
    for i, (p, q) in enumerate(pairs):
        assert _monadic(nameless(p)) and _monadic(nameless(q)) or i >= monadic, i
        for depth in (1, 2, 3, 4) if i % 4 == 0 else (1 + i % 4,):
            got = check(p, q, depth)
            assert got == reference_check(p, q, depth), (i, depth)
            lost += not got.bisimilar
            polyadic_lost += not got.bisimilar and i >= monadic
    assert lost >= 150
    assert polyadic_lost >= 5
    assert merges >= 10


def test_monadic_game_renders_no_target(renders):
    # two receivers on one channel give every input two targets; the
    # game reads them in derivation order and renders none, for a
    # monadic pair and for a polyadic one
    for p, q in (("a?(x).b!<x>.0 | a?(y).c!<y>.0",
                  "a?(y).c!<y>.0 | a?(x).b!<x>.0"),
                 ("a?(x,y).b!<x>.0 | a?(u,v).c!<v>.0",
                  "a?(u,v).c!<v>.0 | a?(x,y).b!<x>.0")):
        p, q = parse(p, mode=PI), parse(q, mode=PI)
        assert renders(lambda: check(p, q, 4)) == 0
        assert check(p, q, 4).bisimilar
