"""The workbench benchmark: one workload, one seed, one JSON result.

    python3 perfbench/run.py --workload laws --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Each workload runs in fresh worker
processes, one at a time, each a closed loop with one client: the next
query starts only when the previous one has returned.

With ``--trace 0`` four workers, one after another, each set up and run
timed queries for a quarter of ``--seconds``, each on its own share of
the seed's inputs.  The result holds the end-to-end metrics: the query
metrics pool the queries of all four, while ``setup_s`` and
``peak_rss_mb`` are the medians of the four workers, since one heavy
query would otherwise set the memory peak of a whole run.  With
``--trace 1`` two workers run the same fixed rounds, untraced and then
traced (``--seconds`` is not used); the result holds the per-layer
metrics of the traced one and the tracing overhead, the extra share of
query time the traced worker took.  Spans are written to
``perfbench/out/``.

Times are scaled to a host of reference speed.  The speed of a shared
host drifts by tens of percent within a minute, for identical work, and
each worker times a fixed pure-Python loop about every quarter second of
query time.  A worker's times are multiplied by ``REFERENCE_LOOP_S``
over the median time of its loop, and the unscaled end-to-end figures
are printed on standard error.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Without the
``cpi`` sources beside it, the benchmark exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("laws", "nonforward", "encode-verify", "frontend")
PARTS = 4
DEADLINE_S = 170.0
# The calibration loop's time on the host the reference figures in the
# README were measured on.
REFERENCE_LOOP_S = 0.016


def worker(args: list[str], deadline: float) -> dict:
    """Run one worker to its end and return its result."""
    left = deadline - time.monotonic()
    if left <= 0:
        raise TimeoutError("no time left for another worker")
    done = subprocess.run([sys.executable, str(HERE / "worker.py"), *args],
                          cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=left, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


def tail(times: list[float], percentile: float) -> tuple[float, int]:
    """The ``percentile`` of ``times`` and how many queries lie beyond it."""
    value = statistics.quantiles(times, n=1000)[round(percentile * 10) - 1]
    return value, sum(t > value for t in times)


def speed(part: dict) -> float:
    """The factor that scales a worker's times to the reference host."""
    return REFERENCE_LOOP_S / statistics.median(part["calibration_s"])


def query_metrics(parts: list[dict], scale) -> dict:
    """The end-to-end metrics of the timed workers, each worker's times
    multiplied by ``scale(worker)``."""
    times = [t * scale(p) for p in parts for t in p["times"]]
    tail_s, _ = tail(times, parts[0]["tail_percentile"])
    return {
        "setup_s": (statistics.median(p["setup_s"] * scale(p) for p in parts), "s"),
        "queries_per_s": (len(times) / sum(p["busy_s"] * scale(p) for p in parts), "1/s"),
        "query_p50_ms": (1000 * statistics.median(times), "ms"),
        "query_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in parts), "MB"),
    }


def end_to_end(workload: str, seed: int, seconds: int, deadline: float):
    parts = [worker(["timed", workload, f"{seed}.{k}", str(seconds / PARTS)],
                    deadline)
             for k in range(PARTS)]
    queries = sum(len(p["times"]) for p in parts)
    percentile = parts[0]["tail_percentile"]
    _, beyond = tail([t for p in parts for t in p["times"]], percentile)
    print(f"{workload}: {queries} queries in "
          f"{sum(p['busy_s'] for p in parts):.2f} s; query_tail_ms is "
          f"p{percentile:g}, with {beyond} queries beyond it; host speed "
          f"factors {', '.join(f'{speed(p):.3f}' for p in parts)}", file=sys.stderr)
    for name, (value, unit) in query_metrics(parts, lambda p: 1.0).items():
        print(f"{workload} unscaled {name} = {value:.6g} {unit}", file=sys.stderr)
    metrics = query_metrics(parts, speed)
    run = {key: sum(p[key] for p in parts) for key in ("attempted", "failed")}
    run["breaches"] = [b for p in parts for b in p["breaches"]]
    return run, metrics


def per_layer(workload: str, seed: int, deadline: float):
    plain = worker(["fixed", workload, str(seed), "0"], deadline)
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    spans = out / f"spans-{workload}-{seed}.tsv.gz"
    traced = worker(["fixed", workload, str(seed), "1", str(spans)], deadline)
    metrics = {k: tuple(v) for k, v in traced["metrics"].items()}
    metrics["trace.overhead"] = (100.0 * (
        traced["busy_s"] * speed(traced) / (plain["busy_s"] * speed(plain)) - 1.0), "%")
    print(f"{workload}: {traced['spans']} spans written to "
          f"{spans.relative_to(ROOT)}", file=sys.stderr)
    combined = {
        "attempted": plain["attempted"] + traced["attempted"],
        "failed": plain["failed"] + traced["failed"],
        "breaches": plain["breaches"] + traced["breaches"],
    }
    return combined, metrics


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    for need in (ROOT / "src" / "cpi" / "__init__.py",
                 ROOT / "tests" / "naive_lts.py"):
        if not need.is_file():
            print(f"perfbench: {need.relative_to(ROOT)} is missing; run from "
                  "the root of a cpi-workbench checkout", file=sys.stderr)
            return 2
    try:
        if args.trace:
            run, metrics = per_layer(args.workload, args.seed, deadline)
        else:
            run, metrics = end_to_end(args.workload, args.seed, args.seconds,
                                      deadline)
    except (subprocess.SubprocessError, TimeoutError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {run['attempted']}, "
          f"failed = {run['failed']}")
    print(json.dumps({
        "correct": not run["breaches"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
