"""Bounded bisimilarity: game behavior, counterexamples, the
closed-domain instance family, and the law suite machinery."""

import json
import random
import subprocess
import sys

import pytest

from cpi.bisim import (
    ConstructionError, check, check_proposition1_instance, law_suite,
)
from cpi.gen import random_cpi_process
from cpi.lts import Engine, InAct, OutAct, TauAct
from cpi.parser import parse
from cpi.syntax import NIL, Par, Prefixed, Receive, Send, chan, var


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
    rep = law_suite(seed=5, instances=2, depth=2, include_mutant=False)
    j = rep.to_json()
    assert j["ok"] is True and len(j["laws"]) == 10


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
