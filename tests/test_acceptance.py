"""Acceptance gate: one test per criterion, each driven by its scenario.

Every criterion runs at its stated tolerance (pinned in the scenario files)
and prints one PASS/FAIL line; runtime budgets are asserted where stated.
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import math

from switchosc.experiments import load_scenario, run_scenario

_BUDGETS = {  # wall-clock seconds where the criterion states one
    "E1": 1.0, "E2": 1.0, "E8": 60.0, "E9": 120.0, "E11": 30.0,
}


def _run(scenario_id: str, tmp_path):
    scenario = load_scenario(scenario_id)
    report = run_scenario(scenario, out_dir=tmp_path)
    for line in report.lines():
        print(line)
    print(f"{scenario_id} runtime {report.runtime_s:.2f} s")
    failures = [c for c in report.checks if not c.passed]
    assert not failures, "; ".join(f"{c.name}: {c.detail}" for c in failures)
    budget = _BUDGETS.get(scenario_id)
    if budget is not None:
        assert report.runtime_s < budget, (
            f"{scenario_id} took {report.runtime_s:.1f}s, budget {budget}s")
    return report


def test_criterion_01_x0_root(tmp_path):
    _run("E1", tmp_path)


def test_criterion_02_nonsliding_fixed_point(tmp_path):
    rep = _run("E2", tmp_path)
    assert 0.0 < rep.measured["multiplier"] < 1.0


def test_criterion_03_small_a_limit(tmp_path):
    _run("E3", tmp_path)


def test_criterion_04_interval_confinements(tmp_path):
    _run("E4", tmp_path)


def test_criterion_05_sliding_orbit_linear(tmp_path):
    _run("E5", tmp_path)


def test_criterion_06_sliding_orbit_nonlinear(tmp_path):
    _run("E6", tmp_path)


def test_criterion_07_fold_points(tmp_path):
    _run("E7", tmp_path)


def test_criterion_08_regularized_linear_persistence(tmp_path):
    rep = _run("E8", tmp_path)
    # the variational log-derivative resolves the exponential smallness of
    # the contraction and must show the >= 10x drop
    assert rep.measured["log_contraction_fine"] <= (
        rep.measured["log_contraction_coarse"] - math.log(10.0))


def test_criterion_09_exit_point_scaling(tmp_path):
    _run("E9", tmp_path)


def test_criterion_10_slow_manifold_closeness(tmp_path):
    _run("E10", tmp_path)


def test_criterion_11_long_slide_regime(tmp_path):
    _run("E11", tmp_path)


def test_criterion_12_asymptotics_toward_vr(tmp_path):
    _run("E12", tmp_path)


def test_criterion_13_property_suites(tmp_path):
    _run("E13", tmp_path)
