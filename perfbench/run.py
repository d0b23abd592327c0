"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload disc-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the program is imported from ``src``.  The
operation list is built from the seed and holds max(1, round(seconds /
round cost)) whole rounds, so every run of one workload does comparable work
and the failed share never depends on the machine.  The last line of standard output
is one JSON object: correct, attempted, failed and metrics (the end-to-end
metrics with --trace 0, the per-layer metrics and the tracing overhead with
--trace 1).  Per-operation times, failures and, when traced, the spans are
written under ``perfbench/out``.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import bench_setup

OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import sys, time\n"
    "t = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import numpy, scipy.integrate, scipy.optimize, switchosc\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Import time of numpy, scipy and switchosc in a fresh interpreter."""
    res = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(bench_setup.SRC)],
        cwd=bench_setup.ROOT, env=bench_setup.single_threaded_env(),
        capture_output=True, text=True, timeout=120, check=False)
    if res.returncode != 0:
        raise bench_setup.ProgramMissing(f"import probe failed: {res.stderr.strip()}")
    return float(res.stdout.strip().splitlines()[-1])


def run_list(wl, tracer=None, check: bool = True) -> dict:
    """Run every op of the workload once, timing each from outside."""
    times, ok_times, failures, problems = [], [], [], []
    for i, op in enumerate(wl.ops):
        t0 = time.perf_counter()
        try:
            out = tracer.call_op(i, wl.run, op) if tracer else wl.run(op)
        except Exception as exc:  # a failed op is counted, reported and skipped
            times.append(time.perf_counter() - t0)
            failures.append({"index": i, "op": op, "error": repr(exc),
                             "traceback": traceback.format_exc(limit=-3)})
            if not op.get("expect_fail"):
                print(f"unexpected failure of op {i} {op}: {exc!r}", file=sys.stderr)
            continue
        elapsed = time.perf_counter() - t0
        times.append(elapsed)
        ok_times.append(elapsed)
        if check:
            found = wl.check(op, out)
            problems += [f"op {i} {op['kind']}: {p}" for p in found]
        del out
    if check:
        problems += wl.finish()
    return {"times": times, "ok_times": ok_times, "failures": failures, "problems": problems}


def end_to_end(wl, res: dict) -> dict[str, float]:
    """ops_per_s is the median over rounds of ops completed / the round's wall time.

    A median, because the shared machine has bursts of a few seconds in which
    everything runs up to 40% faster; a throughput over the whole list would
    carry them into the figure.
    """
    failed = {f["index"] for f in res["failures"]}
    done, wall = {}, {}
    for i, (op, t) in enumerate(zip(wl.ops, res["times"])):
        done[op["round"]] = done.get(op["round"], 0) + (i not in failed)
        wall[op["round"]] = wall.get(op["round"], 0.0) + t
    return {
        "ops_per_s": statistics.median(done[r] / wall[r] for r in wall),
        "op_p50_s": statistics.median(res["ok_times"]),
    }


def parse_args(argv):
    from bench_workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    return args, WORKLOADS[args.workload]


def main(argv=None) -> int:
    try:
        bench_setup.import_program()
    except (bench_setup.ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2
    args, cls = parse_args(argv)
    rounds = max(1, round(args.seconds / cls.round_seconds))

    setups = []
    for _ in range(SETUP_REPEATS if not args.trace else 1):
        t_import = 0.0 if args.trace else import_seconds()
        t0 = time.perf_counter()
        wl = cls(args.seed, rounds)
        wl.prepare()
        wl.warmup()
        setups.append(t_import + time.perf_counter() - t0)

    res = run_list(wl)
    record = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
              "trace": args.trace, "setup_s": setups, "times": res["times"],
              "failures": res["failures"], "problems": res["problems"]}
    base = end_to_end(wl, res)
    if args.trace:
        from bench_trace import Tracer

        tracer = Tracer().install()
        try:
            traced = run_list(wl, tracer, check=False)
        finally:
            tracer.remove()
        if [f["index"] for f in traced["failures"]] != [f["index"] for f in res["failures"]]:
            res["problems"].append("traced pass failed other ops than the untraced pass")
        overhead = end_to_end(wl, traced)
        metrics = tracer.layer_metrics()
        metrics["trace.overhead_ops_per_s"] = (overhead["ops_per_s"] - base["ops_per_s"], "1/s")
        metrics["trace.overhead_op_p50_s"] = (overhead["op_p50_s"] - base["op_p50_s"], "s")
        record["traced_times"] = traced["times"]
        OUT_DIR.mkdir(exist_ok=True)
        with open(OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json", "w") as fh:
            json.dump(tracer.dump(), fh)
    else:
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "ops_per_s": (base["ops_per_s"], "1/s"),
            "op_p50_s": (base["op_p50_s"], "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }

    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump(record, fh, indent=1, default=str)

    print(f"workload {args.workload}  seed {args.seed}  rounds {rounds}  "
          f"ops {len(wl.ops)}  failed {len(res['failures'])}")
    for p in res["problems"]:
        print(f"CHECK FAILED: {p}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not res["problems"],
        "attempted": len(wl.ops),
        "failed": len(res["failures"]),
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
