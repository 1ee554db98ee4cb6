"""The benchmark's own tests: short runs, checks that reject wrong
answers, and repeatable per-layer counts.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import workloads  # first: puts src/ and tests/ on the path
import oracle
from cpi import bisim, encoding, nonforward, parser
from cpi.lts import OutAct, TAU
from cpi.syntax import NIL, Par, Prefixed, Receive, Restrict, Send, chan, var

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result(done: subprocess.CompletedProcess) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def first(w: workloads.Workload, label: str) -> tuple:
    for _ in range(50):
        for q in w.round():
            if q[0] == label:
                return q
    raise AssertionError(f"no {label} query")


# ---------------------------------------------------------------------------
# Short runs


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_short_run(workload):
    out = result(bench("--workload", workload, "--seed", "7", "--seconds", "1",
                       "--trace", "0"))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["failed"] == 0 and out["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = bench("--workload", "laws", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


# ---------------------------------------------------------------------------
# Each check rejects a wrong answer


def test_laws_checks_reject_wrong_verdicts():
    w = workloads.Laws(1)
    law = first(w, "par-unit")
    assert w.check(law, w.run(law)) is None
    flipped = bisim.Verdict(False, 4, ((TAU, "right"),))
    assert w.check(law, flipped)

    pair = first(w, "fresh-output")
    assert w.check(pair, w.run(pair)) is None
    assert w.check(pair, bisim.Verdict(True, 4))
    assert w.check(pair, bisim.Verdict(False, 4, ()))
    # A deterministic P: the attack must end with the output on z.
    a, b, x, z = chan("a"), chan("b"), var("x"), chan("zfresh")
    p = Prefixed(Receive(a, (x,)), Prefixed(Send(b, (x,)), NIL))
    pair = ("fresh-output", (Par(p, Prefixed(Send(z, (z,)), NIL)), p))
    assert w.run(pair).counterexample[-1] == (OutAct(z, (z,)), "right")
    assert w.check(pair, w.run(pair)) is None
    wrong_move = bisim.Verdict(False, 4, ((OutAct(a, (a,)), "right"),))
    assert w.check(pair, wrong_move)


def test_laws_run_check_needs_a_caught_mutant():
    w = workloads.Laws(1)
    mutant = first(w, "mutant-par-absorb")
    assert w.check(mutant, bisim.Verdict(True, 4)) is None
    assert w.check_run()
    w.check(mutant, bisim.Verdict(False, 4, ((TAU, "right"),)))
    assert w.check_run() == []


def test_nonforward_checks_reject_forged_violations():
    w = workloads.NonForward(1)
    p = parser.parse("a?(x).b!<x>.0", mode=parser.PI)
    verdict = nonforward.check_nonforwarding(p, 3)
    assert not verdict.satisfied
    assert w.check(("pi", p), verdict) is None
    # The fragment never forwards: a violated confidential term is wrong.
    assert w.check(("cpi", p), verdict)
    v = verdict.violation
    forged = [
        dataclasses.replace(v, channel=chan("b")),
        dataclasses.replace(v, receive_index=v.send_index),
        dataclasses.replace(v, trace=(v.trace[0], OutAct(chan("c"), (v.channel,)))),
    ]
    for bad in forged:
        assert w.check(("pi", p), dataclasses.replace(verdict, violation=bad))
    # The same trace on a term that uses the channel only as a subject.
    q = parser.parse("a?(x).x!<b>.0", mode=parser.PI)
    assert w.check(("pi", q), verdict)


def test_encode_verify_checks_reject_dropped_reducts():
    w = workloads.EncodeVerify(1)
    src = parser.parse((ROOT / "corpus" / "encoding" / "two_pairs.cpi").read_text(),
                       mode=parser.PI)
    report = encoding.check_completeness(src, workloads.TAU_BUDGET,
                                         workloads.ENC_DEPTH)
    assert len(report.results) == 2
    assert w.check(("generated", src), report) is None
    dropped = dataclasses.replace(report, results=report.results[1:])
    assert w.check(("generated", src), dropped)
    missed = dataclasses.replace(report.results[0], found=False)
    unmatched = dataclasses.replace(report, results=(missed,) + report.results[1:])
    assert w.check(("generated", src), unmatched)


def test_fragment_walk():
    a, b, c, x, y = chan("a"), chan("b"), chan("c"), var("x"), var("y")
    forwards = Prefixed(Receive(a, (x,)), Prefixed(Send(b, (x,)), NIL))
    assert oracle.fragment_breaches(forwards)
    clash = Par(Prefixed(Send(a, (b,)), NIL), Prefixed(Receive(a, (x, y)), NIL))
    assert oracle.fragment_breaches(clash)
    # A bound a and a free a are different names.
    apart = Par(Restrict((a,), Prefixed(Send(a, (b,)), NIL)),
                Prefixed(Send(a, (b, c)), NIL))
    assert oracle.fragment_breaches(apart) is None
    assert oracle.fragment_breaches(encoding.encode_with_handlers(
        parser.parse("new a,b in (a!<b>.0 | a?(x).b!<x>.0)", mode=parser.PI))) is None


def test_frontend_checks_reject_wrong_outputs():
    w = workloads.Frontend(1)
    q = w.round()[0]
    p, enc, report, text = w.run(q)
    assert w.check(q, (p, enc, report, text)) is None
    assert w.check(q, (parser.parse("0"), enc, report, text))
    assert w.check(q, (p, enc, report, text + " | a!<b>.0"))
    forwards = parser.parse("a?(x).b!<x>.0", mode=parser.PI)
    assert w.check(q, (p, forwards, report, parser.render(forwards)))


# ---------------------------------------------------------------------------
# Traced runs


# Counts of the program's work.  gc.collected is left out: when the
# collector runs depends on more than the work done, and it differs by a
# few percent between runs of the same seed.
COUNTS = ("calls", "transitions", "states", "repeat_in_query",
          "repeat_across_queries", "states_per_query")


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_traced_counts_repeat(workload):
    runs = [result(bench("--workload", workload, "--seed", "3", "--seconds", "1",
                         "--trace", "1")) for _ in range(2)]
    names = {m["name"] for m in SPEC["per_layer"]}
    for out in runs:
        assert out["correct"] is True and out["failed"] == 0
        assert set(out["metrics"]) == names
    counted = [k for k in names if k.endswith(COUNTS)]
    assert counted
    first_run, second_run = ({k: out["metrics"][k]["value"] for k in counted}
                             for out in runs)
    assert first_run == second_run
