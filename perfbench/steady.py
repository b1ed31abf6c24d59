"""Steadiness check: run one workload in two sets of runs and compare them.

Usage, from the root of a checkout:

    python3 perfbench/steady.py --workload map-queries --runs 10

Run i of each set uses seed ``--first-seed + i``; the two sets alternate
which of them runs first for each seed.  For every metric the command
prints, per set, the median, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and the spread, which is the
distance between the quartiles as a share of the median.  It then compares
the sets: the second set's median may be worse than the first's by at most
the metric's bound from ``BENCHMARK.json``, every spread but that of
``setup_s`` must stay within its bound, and the share of failed operations
must be the same in both sets.  The raw results go to
``perfbench/out/steady-<workload>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=0)
    p.add_argument("--sets", type=int, choices=(1, 2), default=2)
    args = p.parse_args(argv)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    metrics = {m["name"]: m for m in bench["end_to_end"]}
    sets = [[] for _ in range(args.sets)]
    for i in range(args.runs):
        seed = args.first_seed + i
        order = range(args.sets) if i % 2 == 0 else reversed(range(args.sets))
        for s in order:
            result = run_once(args.workload, seed, bench["run_seconds"])
            if not result["correct"]:
                print(f"seed {seed}: outputs failed their checks", file=sys.stderr)
            sets[s].append(result)
            print(f"set {s + 1} seed {seed}: " + " ".join(
                f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()
            ), flush=True)

    ok = True
    summary = {}
    print(f"\n{'metric':16s} {'set':>3s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for name, spec in metrics.items():
        rows = [summarize([r["metrics"][name]["value"] for r in runs]) for runs in sets]
        summary[name] = rows
        for s, row in enumerate(rows):
            flag = ""
            if name != "setup_s" and row["spread"] > spec["bound"]:
                flag, ok = " over bound", False
            elif name != "setup_s" and row["spread"] > spec["bound"] / 3:
                flag = " over a third of the bound"
            print(f"{name:16s} {s + 1:3d} {row['median']:12.6g} {row['q1']:12.6g} "
                  f"{row['q3']:12.6g} {row['spread']:8.4f} {spec['bound']:6.2f}{flag}")
        if len(rows) == 2:
            a, b = rows[0]["median"], rows[1]["median"]
            worse = (b - a) / a if spec["better"] == "lower" else (a - b) / a
            print(f"{'':16s} second median worse by {worse:+.4f}")
            if worse > spec["bound"]:
                ok = False
    shares = [
        sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets
    ]
    print(f"failed share per set: {shares}")
    if len(set(shares)) > 1 or not all(r["correct"] for runs in sets for r in runs):
        ok = False
    os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
    with open(os.path.join(HERE, "out", f"steady-{args.workload}.json"), "w") as fh:
        json.dump({"sets": sets, "summary": summary, "ok": ok}, fh, indent=1)
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
