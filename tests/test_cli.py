import contextlib
import importlib.util
import io
import json
import math
import re
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from switchosc import experiments, poincare

from switchosc.analytic_flow import flow_from
from switchosc.cli import main
from switchosc.core import OscillatorError, OscillatorParams
from switchosc.poincare import composite_map, next_crossing
from switchosc.regularization import psi_inverse


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
    # no --a or --epsilon: the critical branch v0_mid depends on neither
    code, out, _ = run(["manifolds", "--model", "nonlinear", "--range", "0:8",
                        "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    header, *rows = (tmp_path / "manifolds.csv").read_text().splitlines()
    assert header == "n,x_lo,x_hi,stability,lambda_mid,v0_mid"
    for row in rows:
        lam, v0 = map(float, row.split(",")[4:])
        assert v0 == pytest.approx(psi_inverse(lam), abs=1e-11)
    for n in (1, 2, 3, 4):
        assert f"n={n} domain=({2 * n / 3.0:.12g}, {2.0 * n:.12g})" in out


def test_map_table(tmp_path, capsys):
    code, _, _ = run(["map", "--a", "0.01",
                      "--epsilon", "0.0025", "--grid", "0.55:0.65:3",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    rows = (tmp_path / "maps.csv").read_text().splitlines()
    assert rows[0] == "x,p_minus,p_composite,p_eps"
    assert len(rows) == 4


def test_map_rows_equal_the_scalar_maps(tmp_path, capsys):
    # departures outside (0, 2/3) mod 4, or that either map rejects, leave
    # both map columns nan
    code, _, _ = run(["map", "--a", "0.01", "--grid", "0:4.6:24",
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


def test_map_row_takes_one_crossing_per_leg(tmp_path, capsys, monkeypatch):
    # the S_- landing of a row is both its p_minus column and the first leg
    # of its composite map
    calls = []
    crossing = poincare.next_crossing
    monkeypatch.setattr(poincare, "next_crossing",
                        lambda *args: calls.append(args) or crossing(*args))
    code, _, _ = run(["map", "--a", "0.01", "--grid", "0.1:0.6:7",
                      "--out-dir", str(tmp_path)], capsys)
    rows = (tmp_path / "maps.csv").read_text().splitlines()[1:]
    assert code == 0 and all(row.count("nan") == 1 for row in rows)  # p_eps alone
    assert len(calls) == 2 * len(rows) == 14


def test_ageing_table(tmp_path, capsys):
    code, _, _ = run(["ageing", "--model", "nonlinear", "--range", "0:12",
                      "--out-dir", str(tmp_path)], capsys)
    assert code == 0
    body = (tmp_path / "ageing.csv").read_text()
    assert body.startswith("n,branch_width,stability\n")
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
    ["map", "--a", "0.01", "--grid", "0:1"],
    ["map", "--a", "0.01", "--grid", "0:1:2.5"],
    ["manifolds", "--model", "nonlinear", "--range", "0"],
    ["ageing", "--model", "nonlinear", "--range", "0:inf"],
    ["scaling", "--a", "0.01", "--eps-grid", "1e-2,x"],
    ["scaling", "--a", "0.01", "--eps-grid", "1e-2,-1e-3"],
    ["scaling", "--a", "0.01", "--n-grid", "4,8.5"],
    ["scaling", "--a", "0.01", "--n-grid", ""],
    ["map", "--a", "0.01", "--grid", "1e308:-1e308:3"],  # the span overflows
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
    (["--config", "{file}", "map", "--a", "0.01", "--grid", "0.55:0.65:3",
      "--out-dir", "{dir}"], "cfg.json", '{"epsilon": -0.5}'),
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
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "trajectory", "params": {"a": 1.0}, '
     '"spec": {"model": "linear", "runs": [{"start": [0.3, -0.4]}]}}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "trajectory", "params": {"a": 1.0}, '
     '"spec": {"model": "cubic", "runs": [{"start": [0.3, -0.4], "x_end": 1.0}]}}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "trajectory", "params": {"a": 1.0}, "spec": {"model": "linear", '
     '"runs": [{"start": [0.3, -0.4], "x_end": 1.0, "lable": "run"}]}}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "x0_root", "params": {"a": 0.01}}'),
    (["reproduce", "{file}", "--no-plot", "--out-dir", "{dir}"], "scenario.json",
     '{"id": "X", "kind": "x0_root", "model": "nonlinear"}'),
    (["--config", "{file}", "scaling", "--a", "0.01", "--out-dir", "{dir}"], "cfg.json",
     '{"n_fixed": 10.0}'),
    (["--config", "{file}", "manifolds", "--model", "linear", "--range", "0:8"], "cfg.json",
     '{"out_dir": 3}'),
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
        code, out, err = run([command, "--model", "nonlinear", "--range", x_range,
                              "--out-dir", str(tmp_path)], capsys)
        assert time.perf_counter() - t0 < 1.0, x_range
        assert code == 2 and out == ""
        assert err.startswith("error: --range") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


def test_map_grid_past_the_row_cap_usage_error(tmp_path, capsys):
    # 1e15 samples end in numpy's allocation error and 2**18 + 1 would be
    # tabulated for minutes; both are refused before the grid is built
    for n in ("1e15", str(2**18 + 1)):
        t0 = time.perf_counter()
        code, out, err = run(["map", "--a", "0.01",
                              "--grid", f"0.1:0.6:{n}", "--out-dir", str(tmp_path)], capsys)
        assert time.perf_counter() - t0 < 1.0, n
        assert code == 2 and out == ""
        assert err.startswith("error: --grid") and err.count("\n") == 1
        assert not list(tmp_path.iterdir())


#: finite ends, with the extremes of the float range drawn as often as the rest
_ENDS = st.one_of(st.sampled_from([-sys.float_info.max, -1e300, 0.0, 1e300, sys.float_info.max]),
                  st.floats(allow_nan=False, allow_infinity=False))
#: command -> (table, its x columns)
_END_TABLES = {"map": ("maps.csv", [0]), "manifolds": ("manifolds.csv", [1, 2]),
               "ageing": ("ageing.csv", [])}


@seed(7)
@settings(max_examples=80, deadline=None, database=None)
@given(command=st.sampled_from(sorted(_END_TABLES)), lo=_ENDS, hi=_ENDS,
       n=st.integers(1, 3), model=st.sampled_from(["linear", "nonlinear"]))
def test_grid_and_range_ends_fuzz(command, lo, hi, n, model, tmp_path_factory):
    # finite ends anywhere in the float range: each run exits 0 or 2, with
    # no traceback (an escaping exception) or warning, and every row it
    # writes has a finite x
    work = tmp_path_factory.mktemp("ends")
    if command == "map":
        argv = ["map", "--a", "0.01", f"--grid={lo!r}:{hi!r}:{n}"]
    else:
        argv = [command, "--model", model, f"--range={lo!r}:{hi!r}"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error")
        code = main(argv + ["--out-dir", str(work)])
    assert code in (0, 2), argv
    table, x_columns = _END_TABLES[command]
    if code == 2:
        assert err.getvalue().startswith("error: --") and err.getvalue().count("\n") == 1
        assert not (work / table).exists()
        return
    for row in (work / table).read_text().splitlines()[1:]:
        cells = row.split(",")
        assert all(math.isfinite(float(cells[k])) for k in x_columns), (argv, row)


@pytest.mark.parametrize("args", [
    ["simulate", "--model", "linear", "--a", "1e-300", "--x0", "0", "--y0", "1",
     "--x-end", "1e12", "--out-dir", "{dir}"],
    ["orbit", "find", "--model", "linear", "--a", "1e300"],
    ["map", "--a", "3e4", "--grid", "0.1:0.6:3", "--out-dir", "{dir}"],
    ["simulate", "--model", "nonlinear", "--a", "0.5", "--x0", "0.3", "--y0", "0.2",
     "--x-end", "1e5", "--out-dir", "{dir}"],
    ["simulate", "--model", "nonlinear", "--a", "0.5", "--epsilon", "0.01", "--x0", "0.3",
     "--y0", "0.2", "--x-end", "2.5e7", "--out-dir", "{dir}"],
])
def test_probes_or_rows_past_the_cap_usage_error(args, tmp_path, capsys):
    # a departure's probes (huge a) would take longer to walk than any run
    # should, and a simulate span tabulates at least 120 rows per unit of x
    # (12 million to x = 1e5); each is refused before anything runs
    t0 = time.perf_counter()
    code, out, err = run([a.format(dir=tmp_path) for a in args], capsys)
    assert time.perf_counter() - t0 < 1.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "more than" in err
    assert not list(tmp_path.iterdir())


def test_simulate_refuses_the_rows_it_built_past_the_cap(tmp_path, capsys):
    # the span tabulates 262 080 rows at 120 per unit, under the cap, but each
    # of the run's 1 639 segments holds at least 9, so it builds 263 719
    t0 = time.perf_counter()
    code, out, err = run(["simulate", "--model", "linear", "--a", "0.5", "--x0", "0",
                          "--y0", "0.2", "--x-end", "2184", "--out-dir", str(tmp_path)],
                         capsys)
    assert time.perf_counter() - t0 < 5.0
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "builds 263719 rows, more than the 262144" in err
    assert not list(tmp_path.iterdir())
    # a shorter run of the same start writes its table
    code, _, _ = run(["simulate", "--model", "linear", "--a", "0.5", "--x0", "0",
                      "--y0", "0.2", "--x-end", "2100", "--out-dir", str(tmp_path)], capsys)
    rows = (tmp_path / "trajectory.csv").read_text().count("\n") - 1
    assert code == 0 and 2100 * 120 < rows <= 2**18


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


def exit_code(args, capsys):
    """(code, stdout, stderr) of ``main``, an argparse usage exit counting as its code."""
    try:
        code = main(args)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


CSV_ROWS = "x,y_or_v,mode,branch,event\n0.0,1.0\n1.0,0.5\n"


@pytest.mark.parametrize("args, config", [
    (["orbit", "find", "--model", "linear", "--a", "0.01", "--epsilon", "0.05"], None),
    (["orbit", "find", "--model", "linear", "--a", "0.01", "--out-dir", "{dir}"], None),
    (["manifolds", "--model", "nonlinear", "--range", "0:8", "--a", "1", "--out-dir", "{dir}"],
     None),
    (["manifolds", "--model", "nonlinear", "--range", "0:8", "--epsilon", "0.5",
      "--out-dir", "{dir}"], None),
    (["map", "--model", "nonlinear", "--a", "0.01", "--grid", "0.55:0.65:3",
      "--out-dir", "{dir}"], None),
    (["ageing", "--model", "nonlinear", "--range", "0:12", "--a", "1", "--out-dir", "{dir}"],
     None),
    (["ageing", "--model", "nonlinear", "--range", "0:12", "--epsilon", "0.5",
      "--out-dir", "{dir}"], None),
    (["scaling", "--a", "0.01", "--model", "linear", "--out-dir", "{dir}"], None),
    (["scaling", "--a", "0.01", "--epsilon", "1e-3", "--out-dir", "{dir}"], None),
    (["--config", "{dir}/missing.json", "reproduce", "E1", "--no-plot", "--out-dir", "{dir}"],
     None),
    (["--config", "{file}", "reproduce", "E1", "--no-plot", "--out-dir", "{dir}"],
     '{"scenario": "E2"}'),
    (["--config", "{dir}/missing.json", "plot-from-csv", "{dir}/t.csv"], None),
    (["--config", "{file}", "plot-from-csv", "{dir}/t.csv"], '{"out_dir": "."}'),
], ids=["orbit-epsilon", "orbit-out-dir", "manifolds-a", "manifolds-epsilon", "map-model",
        "ageing-a", "ageing-epsilon", "scaling-model", "scaling-epsilon",
        "reproduce-missing-config", "reproduce-config-key", "plot-missing-config",
        "plot-config-key"])
def test_setting_that_nothing_reads_usage_error(args, config, tmp_path, capsys):
    # every flag or config key a command accepts is one it reads; these were
    # accepted and ignored, and now exit 2 before anything is computed or written
    cfg = tmp_path / "cfg.json"
    cfg.write_text(config or "{}")
    (tmp_path / "t.csv").write_text(CSV_ROWS)
    code, out, err = exit_code([a.format(dir=tmp_path, file=cfg) for a in args], capsys)
    assert code == 2 and out == ""
    assert err.startswith(("usage: ", "error: "))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json", "t.csv"]


def test_config_fills_the_flags_not_given(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SWITCHOSC_OUT", raising=False)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"out_dir": str(tmp_path / "d"), "model": "nonlinear"}))
    assert run(["--config", str(cfg), "ageing", "--range", "0:12"], capsys)[0] == 0
    assert (tmp_path / "d" / "ageing.csv").exists() and not (tmp_path / "out").exists()
    # a flag on the command line wins over its key
    code, _, _ = run(["--config", str(cfg), "ageing", "--range", "0:12",
                      "--out-dir", str(tmp_path / "e")], capsys)
    assert code == 0 and (tmp_path / "e" / "ageing.csv").exists()
    # a switch key takes true or false
    cfg.write_text(json.dumps({"model": "linear", "a": 0.001, "sliding": True}))
    code, out, _ = run(["--config", str(cfg), "orbit", "find"], capsys)
    assert code == 1 and "no sliding" in out
    cfg.write_text(json.dumps({"plot": False}))
    code, _, _ = run(["--config", str(cfg), "reproduce", "FIG2", "--out-dir", str(tmp_path)],
                     capsys)
    assert code == 0 and not (tmp_path / "FIG2" / "FIG2.svg").exists()


@pytest.mark.parametrize("args, message", [
    (["scaling", "--a", "2"], "eps = 0.01 of the eps grid gives a*eps = 0.02 > 0.01"),
    (["scaling", "--a", "0.01", "--n-grid", "2,4,8,16"], "n = 2 of the n grid is below 3"),
])
def test_scaling_grid_point_outside_the_regime_usage_error(args, message, tmp_path, capsys):
    # such a point was once dropped without a word
    code, out, err = run(args + ["--out-dir", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("args, message", [
    (["scaling", "--a", "0.01", "--n-fixed", "2"],
     "n_fixed = 2 is below 3, outside the asymptotic regime"),
    (["scaling", "--a", "2", "--eps-fixed", "0.1", "--eps-grid", "1e-3,3e-4,1e-4,3e-5,1e-5"],
     "eps_fixed = 0.1 gives a*eps = 0.2 > 0.01, outside the asymptotic regime"),
])
def test_scaling_fixed_value_outside_the_regime_usage_error(args, message, tmp_path, capsys):
    # the eps sweep's branch and the n sweep's width meet the grid points' bounds
    code, out, err = run(args + ["--out-dir", str(tmp_path)], capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert not list(tmp_path.iterdir())


def test_scaling_plot_is_deterministic_on_log_axes(tmp_path, capsys):
    svgs = []
    for name in ("r1", "r2"):
        code, out, _ = run(["scaling", "--a", "0.01", "--plot",
                            "--out-dir", str(tmp_path / name)], capsys)
        svg = tmp_path / name / "scaling.svg"
        assert code == 0 and f"wrote {svg}" in out
        svgs.append(svg.read_bytes())
    assert svgs[0] == svgs[1]
    # tick labels on both log axes: x ticks centred, y ticks right-aligned
    ticks = re.findall(rb'text-anchor="(middle|end)"[^>]*>(1e[^<]*)<', svgs[0])
    assert {anchor for anchor, _ in ticks} == {b"middle", b"end"}


@pytest.mark.parametrize("sid, where, key, value", [
    ("FIG2", "spec", "runs", 3),
    ("E2", "params", "a", "x"),
    ("E3", "spec", "samples", "5"),
    ("E7", "spec", "a_eps_grid", 1e-5),
])
def test_scenario_value_of_the_wrong_type_usage_error(sid, where, key, value, tmp_path, capsys):
    # each once ended in a TypeError traceback inside its runner, exit 1
    doc = json.loads((experiments._scenario_dir() / f"{sid}.json").read_text())
    doc[where][key] = value
    path = tmp_path / f"{sid}.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["reproduce", str(path), "--no-plot", "--out-dir", str(tmp_path)],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith(f"error: scenario {sid}: ") and err.count("\n") == 1
    assert not (tmp_path / sid).exists()


@pytest.mark.parametrize("edit, message", [
    ("misspelt", "the scenario gives no value 'eps_grid'"),
    ("unread", "spec gives values that nothing reads: ['eps_gird']"),
])
def test_e9_with_a_misspelt_value_usage_error(edit, message, tmp_path, capsys):
    # E9 with eps_grid misspelt lacks a value its runner reads; with the
    # misspelt key beside the right one, it gives a value that nothing reads
    doc = json.loads((experiments._scenario_dir() / "E9.json").read_text())
    spec = doc["spec"]
    spec["eps_gird"] = spec.pop("eps_grid") if edit == "misspelt" else spec["eps_grid"]
    path = tmp_path / "E9.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(["reproduce", str(path), "--no-plot", "--out-dir", str(tmp_path)],
                         capsys)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err
    assert not (tmp_path / "E9").exists()


def _readme_commands() -> list[list[str]]:
    path = Path(__file__).resolve().parent.parent / "scripts" / "trace_lines.py"
    spec = importlib.util.spec_from_file_location("trace_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.readme_commands()


def test_readme_cli_block_runs(tmp_path, capsys, monkeypatch):
    # each command of the README's CLI block, as scripts/trace_lines.py reads
    # them, exits with the code the README documents
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("SWITCHOSC_OUT", raising=False)
    commands = _readme_commands()
    assert len(commands) >= 12
    for cmd in commands:
        expected = 1 if cmd == ["switchosc", "orbit", "find", "--model", "linear", "--a", "10"] \
            else 0
        code, _, err = exit_code(cmd[1:], capsys)
        assert code == expected, (cmd, err)


_NUMERIC_RUNS = {  # a run that exits 0, and its numeric flags
    "simulate": (["simulate", "--model", "linear", "--a", "0.5", "--x0", "0.3", "--y0", "0.2",
                  "--x-end", "4", "--out-dir", "{dir}"], ["a", "x0", "y0", "x-end"]),
    "simulate-regularized": (["simulate", "--model", "nonlinear", "--a", "0.5", "--epsilon",
                              "0.01", "--x0", "0.3", "--v0", "20", "--x-end", "4",
                              "--out-dir", "{dir}"], ["a", "epsilon", "x0", "v0", "x-end"]),
    "orbit find": (["orbit", "find", "--model", "linear", "--a", "0.01"], ["a"]),
    "map": (["map", "--a", "0.01", "--epsilon", "0.0025", "--grid", "0.55:0.65:3",
             "--out-dir", "{dir}"], ["a", "epsilon"]),
    "scaling": (["scaling", "--a", "0.01", "--out-dir", "{dir}"],
                ["a", "n-fixed", "eps-fixed", "eps-grid", "n-grid"]),
}


@pytest.mark.parametrize("name,flag", [(name, flag) for name, (_, flags) in _NUMERIC_RUNS.items()
                                       for flag in flags])
def test_numeric_flag_fuzz_exits_with_a_code(name, flag, tmp_path, capsys):
    # each numeric flag of a run that exits 0, set to each value below (the
    # later flag wins): every run exits 0, 1 or 2, never with a traceback,
    # and a usage error says why on stderr
    argv, _ = _NUMERIC_RUNS[name]
    for value in ("nan", "inf", "-inf", "1e400", "-1", "0"):
        args = [a.format(dir=tmp_path) for a in argv] + [f"--{flag}={value}"]
        code, out, err = exit_code(args, capsys)
        assert code in (0, 1, 2), (args, code)
        assert "Traceback" not in err, args
        if code == 2:
            assert err.startswith(("error: ", "usage: ")), (args, err)


_FUZZ_COMMANDS = {  # argv after the config, and the command's optional flags
    "orbit find": (["orbit", "find"], ["model", "a", "sliding"]),
    "manifolds": (["manifolds", "--range", "0:8"], ["model", "out_dir"]),
    "ageing": (["ageing", "--range", "0:12"], ["model", "out_dir"]),
}
_FLAG_VALUES = {"model": ["linear", "nonlinear"], "a": [0.01, 0.5, 2], "sliding": [True, False],
                "out_dir": ["o", "o/p"]}
_JUNK_KEYS = ["epsilon", "out_dir", "range", "help", "config", "func", "parser", "v0", ""]
_FUZZ_VALUES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf, True, False, None, 0, 0.01, 0.5, 10,
                     -1.0, 1e300, "linear", "nonlinear", "", "x", "0.5"]),
    st.lists(st.sampled_from([0.01, "linear", None]), max_size=2),
    st.dictionaries(st.sampled_from(["a", "model"]), st.sampled_from([0.5, "linear"]),
                    max_size=2))


@seed(6)
@settings(max_examples=100, deadline=None, database=None)
@given(data=st.data())
def test_config_fuzz_exits_with_a_code(data, tmp_path_factory):
    # config documents from the command's own flag names and junk keys, with
    # values of every JSON kind: each run exits 0, 1 or 2, never with a
    # traceback, and exit 2 says why on one error line
    name = data.draw(st.sampled_from(sorted(_FUZZ_COMMANDS)))
    argv, flags = _FUZZ_COMMANDS[name]
    # a config that sets each flag to one of its values, then up to three
    # edits: a key (a flag's or a junk one) dropped or given any value
    config = {key: data.draw(st.sampled_from(_FLAG_VALUES[key])) for key in flags}
    keys = st.sampled_from(flags + [k for k in _JUNK_KEYS if k not in flags])
    for key, drop in data.draw(st.lists(st.tuples(keys, st.booleans()), max_size=3)):
        if drop:
            config.pop(key, None)
        else:
            config[key] = data.draw(_FUZZ_VALUES)
    work = tmp_path_factory.mktemp("fuzz")
    (work / "cfg.json").write_text(json.dumps(config))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.chdir(work), contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(err):
        code = main(["--config", "cfg.json", *argv])
    assert code in (0, 1, 2)
    if code == 2:
        assert err.getvalue().startswith("error:") and err.getvalue().count("\n") == 1
