import json
import math
import time

import numpy as np
import pytest

from switchosc.analytic_flow import flow_from
from switchosc.cli import main
from switchosc.core import OscillatorError, OscillatorParams
from switchosc.poincare import composite_map, next_crossing


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_orbit_find_prints_paper_value(capsys):
    code, out, _ = run(["orbit", "find", "--model", "linear", "--a", "0.01"], capsys)
    assert code == 0
    assert "0.626124996" in out
    assert "multiplier" in out


def test_orbit_find_nonlinear(capsys):
    code, out, _ = run(["orbit", "find", "--model", "nonlinear", "--a", "0.5"], capsys)
    assert code == 0
    assert "x_a" in out


def test_orbit_sliding_absence_exit_code(capsys):
    code, out, _ = run(["orbit", "find", "--model", "linear", "--a", "0.001",
                        "--sliding"], capsys)
    assert code == 1
    assert "no sliding" in out


def test_orbit_find_nonsliding_absence_exit_code(capsys):
    code, out, _ = run(["orbit", "find", "--model", "linear", "--a", "10"], capsys)
    assert code == 1
    assert "no non-sliding period-4 orbit" in out


def test_orbit_find_nonsliding_orbit_near_the_grazing_point(capsys):
    code, out, _ = run(["orbit", "find", "--model", "linear", "--a", "0.03"], capsys)
    assert code == 0
    assert "x* = 0.606982" in out


def test_simulate_writes_csv_and_svg(tmp_path, capsys):
    code, out, _ = run(["simulate", "--model", "nonlinear", "--a", "0.5",
                        "--x0", "0", "--y0", "0", "--x-end", "4.4",
                        "--out-dir", str(tmp_path), "--plot"], capsys)
    assert code == 0
    csv = (tmp_path / "trajectory.csv").read_text()
    assert csv.splitlines()[0] == "x,y_or_v,mode,branch,event"
    assert "sliding" in csv
    svg = (tmp_path / "trajectory.svg").read_text()
    assert svg.startswith("<svg") and "polyline" in svg and "</svg>" in svg
    assert "http" not in svg.replace("http://www.w3.org/2000/svg", "")


def test_plot_from_csv_round_trip(tmp_path, capsys):
    code, _, _ = run(["simulate", "--model", "linear", "--a", "2.0",
                      "--x0", "3.3333333333333335", "--y0", "0",
                      "--x-end", "8.0", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    csv_path = tmp_path / "trajectory.csv"
    out1 = tmp_path / "p1.svg"
    out2 = tmp_path / "p2.svg"
    assert run(["plot-from-csv", str(csv_path), "--out", str(out1)], capsys)[0] == 0
    assert run(["plot-from-csv", str(csv_path), "--out", str(out2)], capsys)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_manifolds_table(tmp_path, capsys):
    code, out, _ = run(["manifolds", "--model", "nonlinear", "--range", "0:8",
                        "--a", "1.0", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    body = (tmp_path / "manifolds.csv").read_text()
    assert "n,x_lo,x_hi,stability,lambda_mid,v0_mid" in body
    for n in (1, 2, 3, 4):
        assert f"n={n} domain=({2 * n / 3.0:.12g}, {2.0 * n:.12g})" in out


def test_map_table(tmp_path, capsys):
    code, _, _ = run(["map", "--model", "linear", "--a", "0.01",
                      "--epsilon", "0.0025", "--grid", "0.55:0.65:3",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "maps.csv").read_text().splitlines()
    assert rows[0] == "x,p_minus,p_composite,p_eps"
    assert len(rows) == 4


def test_map_rows_equal_the_scalar_maps(tmp_path, capsys):
    # departures outside (0, 2/3) mod 4, or that either map rejects, leave
    # both map columns nan
    code, _, _ = run(["map", "--model", "linear", "--a", "0.01", "--grid", "0:4.6:24",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "maps.csv").read_text().splitlines()[1:]
    p = OscillatorParams(a=0.01)
    nan_rows = 0
    for row, x in zip(rows, np.linspace(0.0, 4.6, 24).tolist()):
        try:
            expected = (next_crossing(-1, x, p).x_next, composite_map(x, 0.01))
        except OscillatorError:
            expected = (math.nan, math.nan)
            nan_rows += 1
        assert row == f"{x:.12g},{expected[0]:.12g},{expected[1]:.12g},nan"
    assert 0 < nan_rows < len(rows) == 24


def test_ageing_table(tmp_path, capsys):
    code, _, _ = run(["ageing", "--model", "nonlinear", "--range", "0:12",
                      "--a", "1.0", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    body = (tmp_path / "ageing.csv").read_text()
    assert "3,4," in body  # branch 3 has width 4


def test_reproduce_scenario(tmp_path, capsys):
    code, out, _ = run(["reproduce", "E1", "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    assert "PASS E1/x0_value" in out
    assert (tmp_path / "E1" / "results.csv").exists()


def test_reproduce_unknown_scenario_usage_error(tmp_path, capsys):
    code, _, err = run(["reproduce", "nope", "--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert "unknown scenario" in err


@pytest.mark.parametrize("args", [
    ["map", "--model", "linear", "--a", "0.01", "--grid", "0:1"],
    ["map", "--model", "linear", "--a", "0.01", "--grid", "0:1:2.5"],
    ["manifolds", "--model", "nonlinear", "--a", "1", "--range", "0"],
    ["ageing", "--model", "nonlinear", "--range", "0:inf"],
    ["scaling", "--a", "0.01", "--eps-grid", "1e-2,x"],
    ["scaling", "--a", "0.01", "--eps-grid", "1e-2,-1e-3"],
    ["scaling", "--a", "0.01", "--n-grid", "4,8.5"],
    ["scaling", "--a", "0.01", "--n-grid", ""],
])
def test_malformed_colon_flag_usage_error(args, tmp_path, capsys):
    code, _, err = run(args + ["--out-dir", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: --")


@pytest.mark.parametrize("args, name, content", [
    (["--config", "{file}", "orbit", "find"], "bad.json", '{"model": "linear", "a": '),
    (["--config", "{file}", "orbit", "find", "--model", "linear"], "cfg.json", '{"a": "x"}'),
    (["--config", "{file}", "orbit", "find"], "cfg.json", '{"model": "cubic", "a": 0.01}'),
    (["--config", "{file}", "orbit", "find"], "cfg.json", "[0.01]"),
    (["--config", "{file}", "simulate", "--model", "linear", "--a", "1",
      "--out-dir", "{dir}"], "cfg.json", '{"x0": [0]}'),
    (["--config", "{file}", "simulate", "--model", "nonlinear", "--a", "0.5",
      "--out-dir", "{dir}"], "cfg.json", '{"x_end": Infinity}'),
    (["--config", "{file}", "simulate", "--model", "nonlinear", "--a", "0.5",
      "--out-dir", "{dir}"], "cfg.json", '{"x0": NaN}'),
    (["--config", "{file}", "simulate", "--model", "nonlinear", "--a", "0.5",
      "--x-end", "inf", "--out-dir", "{dir}"], "cfg.json", "{}"),
    (["--config", "{file}", "orbit", "find", "--model", "linear"], "cfg.json",
     '{"a": 1' + "0" * 400 + "}"),
    (["--config", "{file}", "orbit", "find", "--model", "linear"], "cfg.json", '{"a": true}'),
    (["--config", "{file}", "orbit", "find", "--model", "linear"], "cfg.json", '{"a": null}'),
    (["--config", "{file}", "orbit", "find"], "cfg.json", '{"model": 3, "a": 0.01}'),
    (["--config", "{file}", "orbit", "find", "--model", "linear", "--a", "0.01"],
     "cfg.json", '{"epsilon": -0.5}'),
    (["plot-from-csv", "{file}"], "traj.csv", "x,y_or_v,mode,branch,event\n1.0,abc\n"),
    (["plot-from-csv", "{file}"], "traj.csv", "x,y_or_v,mode,branch,event\n0.0,1.0\n1.0\n"),
    (["plot-from-csv", "{file}"], "traj.csv", "x,y_or_v,mode,branch,event\n0.0,nan\n"),
    (["plot-from-csv", "{file}"], "traj.csv", "x,y_or_v,mode,branch,event\n"),
    (["plot-from-csv", "{file}"], "traj.csv", b"x,y_or_v,mode,branch,event\n\xff\n"),
    (["--config", "{dir}", "orbit", "find"], "unused.json", "{}"),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "bad.json",
     '{"id": "X", "kind": "x0_root", '),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "x0_root", "bogus": 1}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '["X", "x0_root"]'),
    (["plot-from-csv", "{file}"], "traj.csv", "a,b\n1.0,2.0\n"),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "x0_root", "expected": 3}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "x0_root", "expected": '
     '[{"name": "q", "op": "is_true", "provenance": "PAPER"}]}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "x0_root", "expected": '
     '[{"name": "x0", "op": "le", "provenance": "PAPER"}]}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "a0_limit", "params": {"a": 1e-8}}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "a0_limit", "params": 1e-8, "spec": {"samples": 5}}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "trajectory", "params": {"a": 1.0}, '
     '"spec": {"runs": [{"start": [0.3, -0.4]}]}}'),
])
def test_malformed_input_file_usage_error(args, name, content, tmp_path, capsys):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        path.write_text(content)
    code, out, err = run([a.format(file=path, dir=tmp_path) for a in args], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert out == ""


@pytest.mark.parametrize("command", ["manifolds", "ageing"])
def test_branch_table_past_the_row_cap_usage_error(command, tmp_path, capsys):
    # 1.5e8 nonlinear branches meet 0:1e8, and past 2**53 domain ends collide
    # in floating point; either range is refused before any row is built
    for x_range in ("0:1e8", "0:1e24"):
        t0 = time.perf_counter()
        code, out, err = run([command, "--model", "nonlinear", "--a", "1", "--range", x_range,
                              "--out-dir", str(tmp_path)], capsys)
        assert time.perf_counter() - t0 < 1.0, x_range
        assert code == 2 and out == ""
        assert err.startswith("error: --range") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args", [
    ["simulate", "--model", "linear", "--a", "1e-300", "--x0", "0", "--y0", "1",
     "--x-end", "1e12", "--out-dir", "{dir}"],
    ["orbit", "find", "--model", "linear", "--a", "1e300"],
])
def test_contact_search_past_the_array_cap_usage_error(args, tmp_path, capsys):
    # a contact lattice (tiny a) or a departure's probes (huge a) would need
    # more points than memory holds; both stop before building the array
    code, out, err = run([a.format(dir=tmp_path) for a in args], capsys)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1 and "more than" in err


@pytest.mark.parametrize("model,epsilon,y0", [("linear", 0.0, 1.0),
                                             ("nonlinear", 1e-3, 2.0)])
def test_contact_search_stops_at_the_run_end(model, epsilon, y0, tmp_path, capsys):
    # at a = 1e-9 the transient would put the contact horizon past 1e9, but
    # the run ends at x = 3 on the closed-form arc; a regularized run (y0 in
    # layer units there) stays outside the layer the same way
    args = ["simulate", "--model", model, "--a", "1e-9", "--x0", "0",
            "--y0", str(y0 / epsilon if epsilon else y0), "--x-end", "3",
            "--out-dir", str(tmp_path)]
    if epsilon:
        args += ["--epsilon", str(epsilon)]
    code, _, _ = run(args, capsys)
    assert code == 0
    last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1].split(",")
    scale = epsilon if epsilon else 1.0
    y3 = flow_from(+1, 3.0, 0.0, y0, OscillatorParams(a=1e-9, epsilon=epsilon))
    assert float(last[0]) == 3.0
    assert float(last[1]) == pytest.approx(y3 / scale, rel=1e-11)


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": "linear", "a": 123.0}))
    code, out, _ = run(["--config", str(cfg), "orbit", "find", "--a", "0.01"], capsys)
    assert code == 0
    assert "0.626124996" in out  # the flag a=0.01 wins over the config value
