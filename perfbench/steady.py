"""Steadiness runs: each workload on several seeds, with quartiles per metric.

    python3 perfbench/steady.py --runs 10 --first-seed 1

Runs ``perfbench/run.py`` once per workload and seed, one run at a time, with
the run length from BENCHMARK.json.  Prints, per workload and end-to-end
metric, the median, the quartiles (statistics.quantiles, n=4) and their
spread as a share of the median next to the metric's bound, plus the failed
share, and writes the raw results to ``perfbench/out/steady-<first seed>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> dict:
    res = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {res.returncode}: {res.stderr}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    results = {}
    print(f"cores: {os.cpu_count()}  run_seconds: {spec['run_seconds']}  runs: {args.runs}")
    print(f"{'workload':15s} {'metric':12s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
          f"{'spread':>7s} {'bound':>6s}")
    for wl in args.workloads:
        rows = [run_once(wl, s, spec["run_seconds"])
                for s in range(args.first_seed, args.first_seed + args.runs)]
        results[wl] = rows
        for name, bound in bounds.items():
            vals = [r["metrics"][name]["value"] for r in rows]
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"{wl:15s} {name:12s} {med:10.5g} {q1:10.5g} {q3:10.5g} "
                  f"{(q3 - q1) / med:7.2%} {bound:6.0%}")
        shares = sorted({(r["failed"], r["attempted"]) for r in rows})
        print(f"{wl:15s} failed/attempted {shares}  "
              f"correct {all(r['correct'] for r in rows)}")
        sys.stdout.flush()
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"steady-{args.first_seed}.json").write_text(json.dumps(results, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
