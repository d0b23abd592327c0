"""Quick tests of the benchmark itself: its checks, its oracles, its tracing.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import bench_setup

bench_setup.import_program()

import numpy as np  # noqa: E402

from switchosc import OscillatorParams, poincare, regularization, sliding  # noqa: E402

import bench_oracles as oracles  # noqa: E402
import run as bench_run  # noqa: E402
from bench_trace import Tracer  # noqa: E402
from bench_workloads import DiscSweep, RegLongRun  # noqa: E402

HERE = Path(__file__).resolve().parent


def test_op_lists_are_seeded_whole_rounds():
    one, again, three = DiscSweep(7, 1), DiscSweep(7, 1), DiscSweep(8, 3)
    assert one.ops == again.ops
    assert len(three.ops) == 3 * len(one.ops)
    for wl in (one, three):
        fails = [op for op in wl.ops if op.get("expect_fail")]
        assert len(fails) * len(one.ops) == 2 * len(wl.ops)
        sweep = [op["a"] for op in wl.ops if op["kind"] == "sweep"]
        assert 0.01 in sweep and min(sweep) >= 1e-3 and max(sweep) <= 10.0
        assert not any(0.98 < a < 1.15 for a in sweep)
    starts = [op["x0"] for op in RegLongRun(3, 1).ops if op["kind"] == "seeded"]
    assert all(math.sin(1.5 * math.pi * x0) < 0.0 and 10.0 <= x0 <= 20.0 for x0 in starts)


def test_disc_checks_pass_on_the_program_and_reject_perturbations():
    wl = DiscSweep(0, 1)
    op = {"kind": "sweep", "a": 0.01, "oracle": True}
    res = wl.run(op)
    assert wl.check(op, res) == []  # includes the crossing oracle on every arc

    sign, x_i, x_next = oracles.contact_arcs(res["linear"])[0]
    assert oracles.check_crossings([(sign, x_i, x_next + 1e-6)], 0.01)

    x_star, mult = res["period4"]
    assert oracles.check_period4(0.01, x_star + 1e-6, mult)
    assert oracles.check_period4(0.01, x_star, 1.0)

    rows = copy.deepcopy(res["margins"])
    rows[3]["margin_minus"] = -1e-9
    assert oracles.check_margins(rows)

    traj = copy.deepcopy(res["nonlinear"])
    seg = traj.segments[-1]
    seg.ys[len(seg.ys) // 2] = 1e-9
    assert oracles.check_confined(traj)

    traj = copy.deepcopy(res["nonlinear"])
    next(e for e in traj.events if e.kind == "slide-exit").x += 1e-6
    assert oracles.check_slide_exits(traj)


def test_return_map_oracle_agrees_and_checks_reject_perturbations():
    a, eps = 0.01, 1e-2
    p = OscillatorParams(a=a, epsilon=eps)
    x = 0.62
    assert abs(oracles.reg_linear_return(x, a, eps)
               - regularization.regularized_poincare_linear(x, p)) <= oracles.RETURN_TOL

    x_star = poincare.find_nonsliding_period4(a)[0]
    fp = regularization.regularized_fixed_point(p, (x_star - 0.08, x_star + 0.08))
    assert oracles.check_return(fp, a, eps) == []
    assert oracles.check_return(fp + 1e-6, a, eps)
    assert oracles.check_fixed_point_error(fp, x_star, eps) == []
    assert oracles.check_fixed_point_error(x_star + 5.1 * eps, x_star, eps)

    assert oracles.check_errors_fall([(1e-2, 0.011), (3e-3, 0.004), (1e-3, 0.0013)]) == []
    assert oracles.check_errors_fall([(1e-2, 0.011), (3e-3, 0.004), (1e-3, 0.0041)])

    coarse, fine = (1e-2, [(2.8, 3.4)], -70.6), (1e-3, [(2.8, 3.3)], -608.9)
    assert oracles.check_sliding_pair(coarse, fine) == []
    assert oracles.check_sliding_pair(coarse, (1e-3, [], -608.9))
    assert oracles.check_sliding_pair(coarse, (1e-3, [(2.8, 3.3)], -72.0))


def test_long_run_oracle_agrees_and_checks_reject_perturbations():
    wl = RegLongRun(0, 1)
    op = dict(wl.ops[0])  # the paper's start, with the v oracle
    assert op["kind"] == "paper" and op.get("oracle")
    res = wl.run(op)
    assert wl.check(op, res) == []

    traj, rows = res
    branch, exit_x = oracles.slide_branch(traj)
    assert oracles.check_paper_run(branch + 1, exit_x)
    assert oracles.check_paper_run(branch, exit_x + 0.6)

    assert oracles.check_v_confined(np.array([0.3, -2.0, 1.0 + 1e-6]))
    sups = [r["sup_distance"] for r in rows]
    assert oracles.check_distances(sups[:-1] + [sups[-2] + 1e-6])

    xq = [op["x0"] + 0.5, 20.0]
    v_ref = oracles.reg_nonlinear_v(op["x0"], op["v0"], wl.a, op["eps"], xq)
    assert oracles.check_v_oracle(traj.eval(xq), v_ref, xq) == []
    assert oracles.check_v_oracle(traj.eval(xq) + [0.0, 1e-5], v_ref, xq)


def _traced_counts(wl) -> dict:
    tracer = Tracer().install()
    try:
        res = bench_run.run_list(wl, tracer, check=False)
    finally:
        tracer.remove()
    assert len(res["failures"]) == 2
    return {k: v for k, (v, unit) in tracer.layer_metrics().items() if unit == "count"}


def test_traced_counts_repeat_exactly():
    disc = DiscSweep(5, 1)
    long_run = RegLongRun(5, 1)
    originals = (sliding.simulate_discontinuous, regularization.RegTrajectory.eval)

    class Mixed(DiscSweep):
        def run(self, op):
            return long_run.run(op) if op["kind"] == "paper" else super().run(op)

    wl = Mixed(5, 1)
    wl.ops = disc.ops[:3] + [op for op in disc.ops if op.get("expect_fail")] + long_run.ops[:1]
    first, second = _traced_counts(wl), _traced_counts(wl)
    assert first == second
    assert first["poincare.next_crossing_calls"] > 0 and first["regularization.steps"] > 0
    assert (sliding.simulate_discontinuous, regularization.RegTrajectory.eval) == originals


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    res = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "disc-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert res.returncode != 0
    for line in res.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")

