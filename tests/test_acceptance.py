"""Acceptance suite.

Eight end-to-end criteria, each with a wall-clock budget.  Every test
prints a single machine-greppable verdict line of the form

    [PASS] criterion-N: <summary> (<elapsed>s < <budget>s)

The lines are emitted outside pytest's capture, so they
appear in any run.
"""

import random
import time
from pathlib import Path

import pytest

from naive_lts import naive_step_set
from cpi.bisim import check, check_proposition1_instance, law_suite
from cpi.encoding import check_completeness, encode, renaming_policy
from cpi.gen import random_cpi_process, random_pi_process
from cpi.lts import BoundOutAct, InAct, OutAct, TauAct, successors
from cpi.nonforward import check_nonforwarding
from cpi.parser import PI, parse, render
from cpi.syntax import (
    NIL, Par, Prefixed, Receive, Send, alpha_equivalent, canonicalize,
    chan, free_names, free_output_objects, substitute, validate_cpi, var,
)
from test_lts import CONFORMANCE_CASES, engine_step_set

CORPUS = Path(__file__).resolve().parent.parent / "corpus"


class Budget:
    """Times a criterion and emits its verdict line (past any capture)."""

    def __init__(self, number: int, summary: str, limit: float, capsys=None):
        self.number = number
        self.summary = summary
        self.limit = limit
        self.capsys = capsys

    def __enter__(self):
        self.t0 = time.monotonic()
        return self

    def __exit__(self, exc_type, exc, tb):
        elapsed = time.monotonic() - self.t0
        status = "PASS" if exc_type is None and elapsed < self.limit else "FAIL"
        within = "<" if elapsed < self.limit else ">="
        line = (f"\n[{status}] criterion-{self.number}: {self.summary} "
                f"({elapsed:.1f}s {within} {self.limit:.0f}s)")
        if self.capsys is not None:
            with self.capsys.disabled():
                print(line)
        else:
            print(line)
        if exc_type is None:
            assert elapsed < self.limit, (
                f"criterion {self.number} exceeded its {self.limit}s budget")
        return False


def test_criterion_1_transition_conformance(capsys):
    """The engine agrees with the independent rule-schema oracle."""
    with Budget(1, f"{len(CONFORMANCE_CASES)} transition conformance pairs "
                   "match the naive rule enumerator", 5.0, capsys):
        assert len(CONFORMANCE_CASES) >= 15
        for text, extra in CONFORMANCE_CASES:
            p = canonicalize(parse(text, mode=PI))
            env = ({n for n in free_names(p) if n.is_channel}
                   | {chan(e) for e in extra})
            got = engine_step_set(p, tuple(chan(e) for e in extra))
            want = naive_step_set(p, env)
            assert got == want, text


def _explore(p, depth):
    """Breadth-first transition exploration; yields every edge once per
    canonical source state."""
    seen = {canonicalize(p)}
    frontier = list(seen)
    for _ in range(depth):
        nxt = []
        for s in frontier:
            for tr in successors(s):
                yield s, tr
                if tr.target not in seen:
                    seen.add(tr.target)
                    nxt.append(tr.target)
        frontier = nxt


def test_criterion_2_output_object_containment(capsys):
    """Free output objects never grow along transitions of confidential
    terms, except by names extruded in the same step."""
    with Budget(2, "output-object containment on 500 random confidential "
                   "terms, depth 4", 60.0, capsys):
        rng = random.Random(1002)
        checked = 0
        for _ in range(500):
            p = random_cpi_process(rng, rng.randint(2, 12), repl_weight=0.05)
            for s, tr in _explore(p, 4):
                fo_s = free_output_objects(s)
                bound = (frozenset(tr.action.bound)
                         if isinstance(tr.action, BoundOutAct) else frozenset())
                # the per-step containment; composing it edge by edge
                # gives the trace-level statement
                assert free_output_objects(tr.target) <= fo_s | bound, render(s)
                # emitted free objects were free output objects already
                if isinstance(tr.action, OutAct):
                    assert set(tr.action.objects) <= fo_s
                elif isinstance(tr.action, BoundOutAct):
                    assert set(tr.action.objects) - bound <= fo_s
                checked += 1
        assert checked > 500  # the sample actually exercised transitions


def test_criterion_3_fragment_never_forwards(capsys):
    """Confidential-fragment membership implies the non-forwarding
    property, sampled behaviorally, plus the two flagship examples."""
    with Budget(3, "non-forwarding holds on 500 random confidential terms "
                   "at depth 5, and the flagship pair behaves as stated",
                120.0, capsys):
        sat = parse("k?(x).new l in (l!<x>.0 | l?(y).0)", mode=PI)
        vio = parse("k?(x).new l in (k!<l>.l!<x>.0 | l?(y).0)", mode=PI)
        assert check_nonforwarding(sat, 5).satisfied
        assert not check_nonforwarding(vio, 5).satisfied
        rng = random.Random(1003)
        for _ in range(500):
            p = random_cpi_process(rng, rng.randint(2, 10), repl_weight=0.04)
            assert validate_cpi(p).ok
            v = check_nonforwarding(p, 5)
            assert v.satisfied, render(p)


def test_criterion_4_closed_domain_instances(capsys):
    """The closed-domain equation family holds at depth 6; a mutant with
    a reachable guard is told apart."""
    with Budget(4, "8 closed-domain instances bisimilar at depth 6; "
                   "reflexive-guard mutant rejected", 30.0, capsys):
        m = chan("m")
        bodies = [
            NIL,
            Prefixed(Send(m, (chan("n"),)), NIL),
            Prefixed(Receive(m, (var("z"),)), NIL),
            Par(Prefixed(Send(m, (chan("n"),)), NIL),
                Prefixed(Receive(m, (var("z"),)), NIL)),
        ]
        guarded = [Send(chan("n"), (chan("n"),)),
                   Receive(chan("n"), (var("w"),))]
        for body in bodies:
            for pi in guarded:
                v = check_proposition1_instance(body, m, pi, depth=6)
                assert v.bisimilar, (render(body), pi)
        left = parse("new k in (new l in k!<l>.m?(y).[y=y]p!<t>.0 | k?(x).0)")
        right = parse("new k in (new l in k!<l>.m?(y).0 | k?(x).0)")
        mutant = check(left, right, 6)
        assert not mutant.bisimilar and mutant.counterexample


def test_criterion_5_law_suite(capsys):
    """Ten equational laws over 200 random instances each at depth 4;
    the injected false law is detected."""
    with Budget(5, "10 laws x 200 instances at depth 4 all hold; "
                   "injected false law fails", 120.0, capsys):
        rep = law_suite(seed=1005, instances=200, depth=4)
        genuine = [r for r in rep.results if not r.should_fail]
        assert len(genuine) == 10
        for r in genuine:
            assert r.ok, (r.name, [f.to_json() for f in r.failures[:1]])
        (mutant,) = [r for r in rep.results if r.should_fail]
        assert mutant.ok and mutant.failures


def test_criterion_6_translation_completeness(capsys):
    """Every reduction of six closed source terms is matched by the
    translation within the tau budget; the plain communication takes
    exactly six internal steps."""
    with Budget(6, "reduction completeness on 6 closed terms "
                   "(tau budget 12, depth 4); plain communication = "
                   "6 tau steps", 300.0, capsys):
        sources = sorted((CORPUS / "encoding").glob("*.cpi"))
        assert len(sources) >= 6
        for src in sources:
            p = parse(src.read_text(), mode=PI)
            rep = check_completeness(p, tau_budget=12, depth=4)
            assert rep.results, src.name
            assert rep.ok, (src.name, rep.to_json())
            if src.stem == "plain_comm":
                assert rep.results[0].tau_steps == 6


def test_criterion_7_translation_properties(capsys):
    """Validity, homomorphism and name invariance of the translation on
    300 random source terms."""
    with Budget(7, "translation validity, homomorphism and name "
                   "invariance on 300 random source terms", 60.0, capsys):
        rng = random.Random(1007)
        k = chan("invk")
        for _ in range(300):
            p = random_pi_process(rng, rng.randint(2, 10), repl_weight=0.08)
            q = random_pi_process(rng, rng.randint(2, 6), repl_weight=0.08)
            assert validate_cpi(encode(p)).ok, render(p)
            assert canonicalize(encode(Par(p, q))) == canonicalize(
                Par(encode(p), encode(q)))
            frees = sorted((n for n in free_names(p) if n.is_channel),
                           key=lambda n: n.ident)
            if frees:
                c = frees[0]
                tc, tk = renaming_policy(c), renaming_policy(k)
                lhs = encode(substitute(p, {c: k}))
                rhs = substitute(encode(p), {c: k, tc.n_name: tk.n_name,
                                             tc.m_name: tk.m_name})
                assert alpha_equivalent(lhs, rhs), render(p)


def test_criterion_8_parser_roundtrip(capsys):
    """Printing then reparsing 1000 random terms is the identity up to
    alpha-equivalence."""
    with Budget(8, "print/reparse identity on 1000 random terms", 10.0, capsys):
        rng = random.Random(1008)
        for _ in range(1000):
            p = random_pi_process(rng, rng.randint(1, 12), repl_weight=0.1)
            q = parse(render(p), mode=PI, allow_reserved=True)
            assert alpha_equivalent(p, q), render(p)
