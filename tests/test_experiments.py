import math

import numpy as np
import pytest

from switchosc import experiments, poincare
from switchosc.core import DomainError, SolverError
from switchosc.experiments import (
    ivp_contact,
    ivp_fixed_point,
    list_scenarios,
    load_scenario,
    run_scenario,
    write_csv,
)
from switchosc.poincare import find_nonsliding_period4, next_crossing
from switchosc.core import OscillatorParams


def test_all_scenarios_parse_with_provenance():
    ids = list_scenarios()
    assert {f"E{i}" for i in range(1, 14)} <= set(ids)
    for sid in ids:
        sc = load_scenario(sid)
        assert sc.id == sid
        for check in sc.expected:
            assert check["provenance"] in ("PAPER", "TRIVIAL", "DERIVED")


def test_write_csv_formats_cells_as_the_table_writers_did(tmp_path):
    # floats (numpy ones too) at 12 significant digits, ints and strings as
    # they are, None empty
    path = tmp_path / "t.csv"
    write_csv(path, "f,g,h,i,n,s,none,nan,inf", [
        (0.1 + 0.2, np.float64(2.0) / 3.0, -1.5e-20, 123456789012345.0, 22, "sliding",
         None, math.nan, -math.inf)])
    assert path.read_bytes() == (b"f,g,h,i,n,s,none,nan,inf\n"
                                 b"0.3,0.666666666667,-1.5e-20,1.23456789012e+14,22,sliding,,nan,-inf\n")


@pytest.mark.parametrize("sid", [s for s in list_scenarios() if s.startswith("FIG")])
def test_figure_scenario_passes(sid, tmp_path):
    # the acceptance suite runs E1-E13; this runs the figure scenarios, each
    # of whose values is read (run_scenario refuses one that is not)
    assert run_scenario(load_scenario(sid), out_dir=tmp_path).passed


def test_unknown_scenario_rejected():
    with pytest.raises(DomainError):
        load_scenario("E99")


def test_a0_limit_raises_a_rejected_departure_s_error(monkeypatch):
    # a bracket width of 1e-2 leaves every polished crossing with a residual
    # far above RESIDUAL_TOL, and the runner raises that error
    monkeypatch.setattr(poincare, "BRACKET_WIDTH", 1e-2)
    with pytest.raises(SolverError, match="crossing residual"):
        experiments._run_a0_limit(load_scenario("E3"))


def test_ivp_oracle_agrees_with_h_machinery():
    # the deliberately independent integration path reproduces next_crossing
    p = OscillatorParams(a=0.3)
    assert ivp_contact(-1, 0.4, 0.0, 0.0, 0.3) == pytest.approx(
        next_crossing(-1, 0.4, p).x_next, abs=1e-9)


def test_ivp_fixed_point_cross_validates():
    x_map, _ = find_nonsliding_period4(0.01)
    assert abs(ivp_fixed_point(0.01, x_map) - x_map) < 1e-8


def test_run_scenario_reports_and_artifacts(tmp_path):
    rep = run_scenario(load_scenario("E1"), out_dir=tmp_path)
    assert rep.passed
    assert all(c.passed for c in rep.checks)
    csv = (tmp_path / "E1" / "results.csv").read_text()
    assert csv.startswith("key,value\n")
    assert "x0," in csv
    lines = list(rep.lines())
    assert any(line.startswith("PASS E1/x0_value") for line in lines)


def test_failed_check_yields_failed_verdict(tmp_path):
    sc = load_scenario("E1")
    sc.expected = [{"name": "wrong", "key": "x0", "op": "abs_tol",
                    "target": 0.5, "tol": 1e-12, "provenance": "TRIVIAL"}]
    rep = run_scenario(sc, out_dir=tmp_path)
    assert not rep.passed


def test_e8_paper_contraction_check_can_fail():
    # the paper's claim: the sliding orbit's contraction strengthens >= 10x
    # as eps falls 10x; its check must reject a run that does not show it
    paper = [c for c in load_scenario("E8").expected if c["provenance"] == "PAPER"]
    assert paper
    for shown in (True, False):
        verdicts = [experiments._evaluate_check(c, {"log_decrease_10x": shown})
                    for c in paper]
        assert all(v.passed for v in verdicts) is shown


def test_e5_composite_landing_check_can_fail(monkeypatch):
    # the landing follows next_crossing leg by leg, apart from the orbit
    # solver: legs that return 0.7 late fail its check while the orbit exists
    rep = run_scenario(load_scenario("E5"))
    assert rep.passed and rep.measured["composite_landing"] == 6.760109440113624
    real = poincare.next_crossing
    monkeypatch.setattr(poincare, "next_crossing", lambda sign, x, p: poincare.PoincareResult(
        real(sign, x, p).x_next + 0.7, 0))
    verdicts = {c.name: c.passed for c in run_scenario(load_scenario("E5")).checks}
    assert verdicts["exists"] and not verdicts["composite_landing"]


def test_scenario_csv_is_deterministic(tmp_path):
    a = run_scenario(load_scenario("E7"), out_dir=tmp_path / "r1")
    b = run_scenario(load_scenario("E7"), out_dir=tmp_path / "r2")
    assert a.passed and b.passed
    b1 = (tmp_path / "r1" / "E7" / "results.csv").read_bytes()
    b2 = (tmp_path / "r2" / "E7" / "results.csv").read_bytes()
    assert b1 == b2


@pytest.mark.parametrize("name, broken", [
    ("psi", lambda v: 0.5 * v),                                    # psi(+-1) = +-1/2
    ("psi_prime", lambda v: 1.5 * (1.0 - v * v) * (v * v - 0.25)),  # psi' < 0 near 0
    ("psi_prime", lambda v: 1.5 * (1.0 + v * v)),                  # psi''(1) > 0
], ids=["ends", "monotone", "curvature"])
def test_property_suite_fails_on_a_broken_psi(monkeypatch, name, broken):
    assert run_scenario(load_scenario("E13")).measured["psi_valid"] is True
    monkeypatch.setattr(experiments, name, broken)
    rep = run_scenario(load_scenario("E13"))
    assert rep.measured["psi_valid"] is False and not rep.passed
