"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload verify-all --seed 0 --seconds 10 --trace 0

The run builds the workload from its seed, then runs whole rounds until
``--seconds`` have passed (at least one round).  Every round's outputs are
checked by :mod:`checks`.  With ``--trace 0`` the last line holds the
end-to-end metrics; with ``--trace 1`` the functions of each layer are
wrapped and the last line holds the per-layer metrics, while the spans and
counters go to ``perfbench/out/``.  The program is imported from ``src/``
of the checkout; without it the run exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")

#: Fresh processes timed from start to the end of set-up, per run.
SETUP_SAMPLES = 3


def _args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_program():
    """Import dendromap from this checkout's ``src/``, never from elsewhere."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    try:
        import dendromap
    except ImportError as exc:
        print(f"perfbench: cannot import dendromap from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if not os.path.abspath(dendromap.__file__).startswith(src + os.sep):
        print(f"perfbench: dendromap came from {dendromap.__file__}, not {src}", file=sys.stderr)
        sys.exit(2)


def _setup_seconds(args) -> float:
    """Median wall time from process start to the end of set-up."""
    cmd = [
        sys.executable, os.path.abspath(__file__), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-only",
    ]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            t1 = perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe failed with code {proc.returncode}")
        samples.append(t1 - t0)
    return statistics.median(samples)


def _percentile(sorted_values, q: float):
    """Nearest-rank percentile of an ascending list."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def end_to_end(rounds, setup_s: float) -> dict:
    lat = sorted(x for r in rounds for x in r.latencies_ns)
    med = statistics.median
    return {
        "setup_s": (setup_s, "s"),
        # Rounds repeat the same work, so the peak after the first round is
        # the run's peak whatever the number of rounds.
        "peak_rss_mb": (rounds[0].peak_rss_mb, "MB"),
        "verdict_s": (med([r.verdict_s for r in rounds]), "s"),
        "build_s": (med([r.build_s for r in rounds]), "s"),
        "replay_s": (med([r.replay_s for r in rounds]), "s"),
        "dump_kb": (med([r.dump_bytes for r in rounds]) / 1024, "KB"),
        # One caller, no think time: throughput over the time spent in calls.
        "queries_per_s": (len(lat) / (sum(lat) / 1e9), "1/s"),
        "query_p50_us": (_percentile(lat, 0.50) / 1e3, "us"),
        "query_p99_us": (_percentile(lat, 0.99) / 1e3, "us"),
    }


def main(argv=None) -> int:
    args = _args(argv)
    _import_program()
    sys.path.insert(0, HERE)
    import workloads
    from dendromap.dynamics import RhoContext
    from dendromap.tau12 import TauEngine

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    rounds = []
    pause = tracer.paused if tracer else contextlib.nullcontext
    t0 = perf_counter()
    with workloads.Instances(RhoContext, TauEngine) as instances:
        while not rounds or perf_counter() - t0 < args.seconds:
            rounds.append(workload.run_round(instances, pause))
            rounds[-1].peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = [p for r in rounds for p in r.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    for e in [e for r in rounds for e in r.errors][:20]:
        print(f"operation failed: {e}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
    }
    if tracer is None:
        metrics = end_to_end(rounds, _setup_seconds(args))
    else:
        metrics = tracer.finish(args.workload, args.seed, OUT)
    result["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    os.makedirs(OUT, exist_ok=True)
    detail = os.path.join(OUT, f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(detail, "w", encoding="utf-8") as fh:
        json.dump({
            "result": result,
            "rounds": [
                dict(r.detail, build_s=r.build_s, verdict_s=r.verdict_s, replay_s=r.replay_s)
                for r in rounds
            ],
        }, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
