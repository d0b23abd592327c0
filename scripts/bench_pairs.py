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
parent's quartile spread; the parent's spread (q3 - q1) / median and a
verdict against the metric's bound; the failed/attempted shares; and both
sides' seed-1 per-layer metrics.  The verdict is "regression" when the
change's median is worse than the parent's by more than the bound,
"unresolved" when the parent's spread exceeds the bound (unless every change
run beats every parent run), and "within bound" otherwise.

Under "scenarios" the record holds the end-to-end view: the wall time of
``python -m switchosc.cli reproduce <id> --no-plot``, each in a fresh
process (so the import counts), for every id of the change's
``experiments.list_scenarios()``, 10 pairs in the same alternating order.
Under "tier1" it holds the wall time of the tier-1 suite, ``python -m pytest
-q --continue-on-collection-errors`` run in each checkout with its own
``src`` first on PYTHONPATH, in the same 10 pairs, and each run's exit code.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

PAIRS = 10  # the fewest pairs that can support a gain claim (9 of 10 won)
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]


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


def compare(par: list[float], chg: list[float], better: str) -> dict:
    """Both sides' summaries, pair wins and the median gap against the parent's IQR."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = summary(par), summary(chg)
    return {
        "better": better, "parent": p, "change": c,
        "change_wins": sum(sign * (y - x) > 0 for x, y in zip(par, chg)),
        "parent_wins": sum(sign * (x - y) > 0 for x, y in zip(par, chg)),
        "median_gap_exceeds_parent_iqr": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
    }


def verdict(row: dict, bound: float) -> str:
    p, c = row["parent"], row["change"]
    sign = 1.0 if row["better"] == "higher" else -1.0
    if sign * (p["median"] - c["median"]) / p["median"] > bound:
        return "regression"
    every_run_better = all(sign * (y - x) > 0 for x in p["values"] for y in c["values"])
    if (p["q3"] - p["q1"]) / p["median"] > bound and not every_run_better:
        return "unresolved"
    return "within bound"


def scenario_ids(checkout: Path) -> list[str]:
    res = subprocess.run(
        [sys.executable, "-c",
         "from switchosc.experiments import list_scenarios; print(*list_scenarios())"],
        cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        capture_output=True, text=True, timeout=120, check=True)
    return res.stdout.split()


def time_scenario(checkout: Path, sid: str) -> float:
    """Wall seconds of one ``switchosc reproduce <sid> --no-plot`` in a fresh process."""
    with tempfile.TemporaryDirectory() as out:
        t0 = time.perf_counter()
        res = subprocess.run(
            [sys.executable, "-m", "switchosc.cli", "reproduce", sid, "--no-plot",
             "--out-dir", out],
            cwd=checkout, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
            capture_output=True, text=True, timeout=1800, check=False)
        wall = time.perf_counter() - t0
    if res.returncode != 0:
        raise RuntimeError(f"{checkout} reproduce {sid} exited {res.returncode}: "
                           f"{res.stdout[-2000:]}{res.stderr[-2000:]}")
    return wall


def time_tier1(checkout: Path) -> tuple[float, int]:
    """Wall seconds and exit code of one tier-1 run in the checkout."""
    path = os.pathsep.join(filter(None, [str(checkout / "src"), os.environ.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    res = subprocess.run([sys.executable, *TIER1], cwd=checkout,
                         env={**os.environ, "PYTHONPATH": path},
                         capture_output=True, text=True, timeout=3600, check=False)
    return time.perf_counter() - t0, res.returncode


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    seeds = list(range(1, PAIRS + 1))
    order = {seed: ("parent", "change") if seed % 2 else ("change", "parent")
             for seed in seeds}
    record = {"pairs": PAIRS, "seeds": seeds, "run_seconds": seconds,
              "order": "parent first on odd seeds, change first on even seeds",
              "workloads": {}, "scenarios": {}, "tier1": {}}
    for name in (w["name"] for w in spec["workloads"]):
        rows = {"parent": [], "change": []}
        for seed in seeds:
            for side in order[seed]:
                rows[side].append(run(checkouts[side], name, seed, seconds, 0))
                print(f"{name} seed {seed} {side} done", file=sys.stderr, flush=True)
        metrics = {}
        for m in spec["end_to_end"]:
            row = compare([r["metrics"][m["name"]]["value"] for r in rows["parent"]],
                          [r["metrics"][m["name"]]["value"] for r in rows["change"]],
                          m["better"])
            p = row["parent"]
            metrics[m["name"]] = {
                "unit": m["unit"], "bound": m["bound"], **row,
                "parent_spread": (p["q3"] - p["q1"]) / p["median"],
                "verdict": verdict(row, m["bound"]),
            }
        traces = {side: run(checkouts[side], name, 1, seconds, 1)
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

    ids = scenario_ids(checkouts["change"])
    walls = {sid: {"parent": [], "change": []} for sid in ids}
    for seed in seeds:
        for sid in ids:
            for side in order[seed]:
                walls[sid][side].append(time_scenario(checkouts[side], sid))
        print(f"scenarios pair {seed} done", file=sys.stderr, flush=True)
    record["scenarios"] = {sid: {"unit": "s", **compare(w["parent"], w["change"], "lower")}
                           for sid, w in walls.items()}
    args.out.write_text(json.dumps(record, indent=1) + "\n")

    runs = {"parent": [], "change": []}
    for seed in seeds:
        for side in order[seed]:
            runs[side].append(time_tier1(checkouts[side]))
        print(f"tier-1 pair {seed} done", file=sys.stderr, flush=True)
    record["tier1"] = {
        "unit": "s", "command": " ".join(["python", *TIER1]),
        **compare([w for w, _ in runs["parent"]], [w for w, _ in runs["change"]], "lower"),
        "exit_codes": {side: [code for _, code in r] for side, r in runs.items()},
    }
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
