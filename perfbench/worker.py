"""One workload in one fresh process: set-up, then the queries.

    python3 perfbench/worker.py timed WORKLOAD SEED SECONDS
    python3 perfbench/worker.py fixed WORKLOAD SEED TRACE [SPAN_FILE]

Set-up imports ``cpi`` and builds the workload's set-up rounds of inputs
from SEED.  ``timed`` then runs rounds, one query at a time, until the
queries have taken SECONDS, finishing the round it is in.  ``fixed`` runs
exactly the set-up rounds, with the tracer on when TRACE is 1, and writes
the spans to SPAN_FILE.  Answers are checked after each round, outside
the timed section.  Between rounds, about every quarter second of query
time, the worker times a fixed loop that uses nothing of ``cpi``, so the
caller can tell how fast the host ran.  The last line of standard output
is one JSON object.
"""

from __future__ import annotations

import json
import resource
import sys
import time

now = time.perf_counter
CALIBRATE_EVERY_S = 0.25


def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now."""
    start = now()
    s = 0
    for k in range(200_000):
        s += k * k
    return now() - start


def judge(w, queries, answers, log) -> int:
    """Check one round's answers; the number of failed queries."""
    failed = 0
    for q, (ok, a) in zip(queries, answers):
        if ok:
            try:
                why = w.check(q, a)
            except Exception as e:  # a check the answer crashes is failed
                why = f"check raised {e!r}"
        else:
            why = f"query raised {a!r}"
        if why:
            failed += 1
            log(f"{w.name}: {q[0]} query failed: {why}")
    return failed


def ask(w, q):
    try:
        return True, w.run(q)
    except Exception as e:  # a query that raises counts as failed
        return False, e


def main(argv: list[str]) -> dict:
    start = now()
    mode, name, seed = argv[0], argv[1], argv[2]
    import workloads
    w = workloads.WORKLOADS[name](seed)
    rounds = [w.round() for _ in range(w.rounds)]
    setup_s = now() - start

    def log(msg: str) -> None:
        print(msg, file=sys.stderr)

    attempted = failed = 0
    busy = 0.0
    cal = [calibrate()]
    last_cal = 0.0

    def maybe_calibrate() -> None:
        nonlocal last_cal
        if busy - last_cal >= CALIBRATE_EVERY_S:
            cal.append(calibrate())
            last_cal = busy

    if mode == "timed":
        seconds = float(argv[3])
        times: list[float] = []
        r = 0
        while busy < seconds:
            if r == len(rounds):
                rounds.append(w.round())
            queries, rounds[r] = rounds[r], None
            r += 1
            answers = []
            t_round = now()
            for q in queries:
                t = now()
                answers.append(ask(w, q))
                times.append(now() - t)
            busy += now() - t_round
            attempted += len(queries)
            failed += judge(w, queries, answers, log)
            maybe_calibrate()
        result = {
            "setup_s": setup_s, "busy_s": busy, "times": times,
            "tail_percentile": w.tail_percentile,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
    elif mode == "fixed":
        tr = None
        if argv[3] == "1":
            import tracer
            tr = tracer.Tracer()
            tr.install()
        for queries in rounds:
            answers = []
            t_round = now()
            for q in queries:
                if tr:
                    tr.begin_query()
                answers.append(ask(w, q))
                if tr:
                    tr.end_query()
            busy += now() - t_round
            attempted += len(queries)
            failed += judge(w, queries, answers, log)
            maybe_calibrate()
        result = {"busy_s": busy}
        if tr:
            tr.uninstall()
            result["metrics"] = tr.metrics()
            result["spans"] = len(tr.span_start)
            if len(argv) > 4:
                tr.write(argv[4])
    else:
        raise SystemExit(f"unknown mode {mode!r}")
    breaches = w.check_run()
    for b in breaches:
        log(f"{w.name}: {b}")
    result.update(attempted=attempted, failed=failed, breaches=breaches,
                  calibration_s=cal)
    return result


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1:])))
