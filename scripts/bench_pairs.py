"""Interleaved parent/change benchmark pairs, written as a BENCH_<n>.json record.

    python3 scripts/bench_pairs.py --parent ../parent --change . --out BENCH_6.json

Both arguments are checkouts with their own ``perfbench/`` and ``src/``.  For
every workload of the change's BENCHMARK.json and seed s = 1..10, the two
sides run ``perfbench/run.py --seed s --trace 0`` one after the other, the
parent first on odd seeds and the change first on even ones, with the run
length from BENCHMARK.json.  Then each side runs seed 1 once with --trace 1.

Per workload and end-to-end metric the record holds each side's values,
median and quartiles (statistics.quantiles, n=4), the pairs the change won
(ties count for neither side), and whether the median gap exceeds the
parent's quartile spread; the failed/attempted shares; and both sides'
seed-1 per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10  # the fewest pairs that can support a gain claim (9 of 10 won)


def run(checkout: Path, workload: str, seed: int, seconds: int, trace: int) -> dict:
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True, timeout=1800, check=False)
    if res.returncode != 0:
        raise RuntimeError(f"{checkout} {workload} seed {seed} exited {res.returncode}: "
                           f"{res.stderr[-2000:]}")
    return json.loads(res.stdout.strip().splitlines()[-1])


def summary(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    record = {"pairs": PAIRS, "seeds": seeds, "run_seconds": seconds,
              "order": "parent first on odd seeds, change first on even seeds",
              "workloads": {}}
    for name in (w["name"] for w in spec["workloads"]):
        rows = {"parent": [], "change": []}
        for seed in seeds:
            sides = ("parent", "change") if seed % 2 else ("change", "parent")
            for side in sides:
                checkout = args.parent if side == "parent" else args.change
                rows[side].append(run(checkout, name, seed, seconds, 0))
                print(f"{name} seed {seed} {side} done", file=sys.stderr, flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            sign = 1.0 if m["better"] == "higher" else -1.0
            par = [r["metrics"][m["name"]]["value"] for r in rows["parent"]]
            chg = [r["metrics"][m["name"]]["value"] for r in rows["change"]]
            p, c = summary(par), summary(chg)
            metrics[m["name"]] = {
                "unit": m["unit"], "better": m["better"], "bound": m["bound"],
                "parent": p, "change": c,
                "change_wins": sum(sign * (y - x) > 0 for x, y in zip(par, chg)),
                "parent_wins": sum(sign * (x - y) > 0 for x, y in zip(par, chg)),
                "median_gap_exceeds_parent_iqr":
                    abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
            }
        traces = {side: run(args.parent if side == "parent" else args.change,
                            name, 1, seconds, 1)
                  for side in ("parent", "change")}
        record["workloads"][name] = {
            "metrics": metrics,
            "failed": {side: [[r["failed"], r["attempted"]] for r in rows[side]]
                       for side in rows},
            "correct": {side: all(r["correct"] for r in rows[side]) for side in rows},
            "trace_seed1": {side: {k: v["value"] for k, v in t["metrics"].items()}
                            for side, t in traces.items()},
        }
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
