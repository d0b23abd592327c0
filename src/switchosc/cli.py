"""Command-line surface: simulate, analyze, reproduce.

Exit codes: 0 success, 1 failed verdict or reported absence, 2 usage errors.
All floating output is printed at 12 significant digits so paper-quoted
10-digit values are reproducible from the terminal.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import experiments, poincare
from .experiments import fmt, write_csv
from .core import (
    DomainError,
    NoOrbitError,
    OscillatorParams,
    SwitchingModel,
    OscillatorError,
    branch,
    branch_indices,
)
from .regularization import (
    critical_branch,
    exit_scaling_fit,
    regularized_poincare_linear,
)
from .sliding import (
    ageing_metrics,
    find_sliding_period4_linear,
    find_sliding_period4_nonlinear,
)
from .svgplot import line_plot

CSV_HEADER = "x,y_or_v,mode,branch,event"
#: Most branch rows ``manifolds`` and ``ageing`` build for one --range; a
#: nonlinear --range 0:1e5 (150 000 rows) fits.
MAX_BRANCH_ROWS = 2**18


def _out_dir(args) -> Path:
    d = Path(getattr(args, "out_dir", None) or os.environ.get("SWITCHOSC_OUT", "out"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _load_config(path: str | None) -> dict:
    return experiments.read_json_object(path, "config file") if path else {}


def _setting(args, cfg: dict, key: str, default=None):
    """A finite numeric setting: the flag if given, else the config value, else ``default``."""
    value = getattr(args, key)
    if value is None:
        value = cfg.get(key, default)
    if value is None:
        return None
    try:
        finite = not isinstance(value, bool) and math.isfinite(value)
    except (TypeError, OverflowError):  # a string, list or object; an int past float range
        finite = False
    if not finite:
        raise DomainError(f"{key} must be a finite number, got {value!r}")
    return value


def _params(args, cfg: dict) -> OscillatorParams:
    a = _setting(args, cfg, "a")
    if a is None:
        raise DomainError("damping a is required (flag --a or config)")
    return OscillatorParams(a=a, epsilon=_setting(args, cfg, "epsilon", 0.0))


def _colon_floats(text: str, form: str, flag: str) -> list[float]:
    """The finite numbers of a ':'-separated flag value shaped like ``form``."""
    try:
        vals = [float(t) for t in text.split(":")]
    except ValueError:
        vals = []
    if len(vals) != form.count(":") + 1 or not all(map(math.isfinite, vals)):
        raise DomainError(f"{flag} takes {form} (finite numbers), got {text!r}")
    return vals


def _comma_numbers(text: str, flag: str, integer: bool = False) -> list:
    """The positive numbers (integers if ``integer``) of a ','-separated flag value."""
    try:
        vals = [(int if integer else float)(t) for t in text.split(",")]
    except ValueError:
        vals = []
    if not vals or not all(math.isfinite(v) and v > 0 for v in vals):
        kind = "positive integers" if integer else "positive finite numbers"
        raise DomainError(f"{flag} takes a comma-separated list of {kind}, got {text!r}")
    return vals


def _model(args, cfg: dict) -> SwitchingModel:
    name = args.model or cfg.get("model")
    if name is None:
        raise DomainError("model is required (linear|nonlinear)")
    try:
        return SwitchingModel(name)
    except ValueError:
        raise DomainError(f"model must be linear or nonlinear, got {name!r}") from None


def _branch_range(args, model: SwitchingModel) -> tuple[float, float]:
    """The --range lo:hi, refused when it meets more than MAX_BRANCH_ROWS branches."""
    lo, hi = _colon_floats(args.range, "lo:hi", "--range")
    try:
        indices = branch_indices(model, lo, hi)
    except DomainError as exc:  # an end past 2**53
        raise DomainError(f"--range {args.range}: {exc}") from None
    count = indices.stop - indices.start  # len() overflows past sys.maxsize
    if count > MAX_BRANCH_ROWS:
        raise DomainError(f"--range {args.range} meets {count} branches, more than the "
                          f"{MAX_BRANCH_ROWS} rows a table holds")
    return lo, hi


def cmd_simulate(args) -> int:
    cfg = _load_config(args.config)
    params = _params(args, cfg)
    model = _model(args, cfg)
    x0 = _setting(args, cfg, "x0", 0.0)
    y0 = _setting(args, cfg, "y0", 0.0)
    x_end = _setting(args, cfg, "x_end", x0 + 8.0)
    out = _out_dir(args)
    traj = experiments.simulate(model, params, x0, y0, x_end)
    csv_path = out / "trajectory.csv"
    write_csv(csv_path, CSV_HEADER, traj.rows())
    print(f"wrote {csv_path}")
    if args.plot:
        svg_path = out / "trajectory.svg"
        line_plot([("trajectory", *traj.xy())], path=str(svg_path),
                  title=f"{model.value}, a={fmt(params.a)}", xlabel="x",
                  ylabel="v" if params.epsilon > 0.0 else "y")
        print(f"wrote {svg_path}")
    return 0


def cmd_orbit_find(args) -> int:
    cfg = _load_config(args.config)
    params = _params(args, cfg)
    model = _model(args, cfg)
    linear = model is SwitchingModel.LINEAR
    absent = ("no non-sliding period-4 orbit" if linear and not args.sliding else
              "no sliding period-4 orbit" if linear else "orbit construction failed")
    try:
        if linear and not args.sliding:
            x_star, mult = poincare.find_nonsliding_period4(params.a)
            print(f"non-sliding period-4 fixed point x* = {fmt(x_star)}")
            print(f"multiplier dP/dx = {fmt(mult)}")
        elif linear:
            res = find_sliding_period4_linear(params.a)
            print(f"sliding period-4 orbit: landing x = {fmt(res.landing)}, "
                  f"closure error {fmt(res.closure_error)}, branch {res.branch}")
        else:
            res = find_sliding_period4_nonlinear(params.a)
            print(f"sliding period-4 orbit: x_a = {fmt(res.landing)}, branch {res.branch}, "
                  f"closure error {fmt(res.closure_error)}")
    except NoOrbitError as exc:
        print(f"{absent}: {exc}")
        return 1
    return 0


def cmd_manifolds(args) -> int:
    cfg = _load_config(args.config)
    params = _params(args, cfg)
    model = _model(args, cfg)
    lo, hi = _branch_range(args, model)
    branches = [branch(model, n) for n in branch_indices(model, lo, hi)]
    rows = []
    for b in branches:
        xm = 0.5 * (max(b.domain[0], lo) + min(b.domain[1], hi))
        v0 = critical_branch(model, b.index, xm) if params.epsilon > 0.0 else math.nan
        rows.append((b.index, *b.domain, b.stability, b.lambda_of(xm), v0))
    path = _out_dir(args) / "manifolds.csv"
    write_csv(path, "n,x_lo,x_hi,stability,lambda_mid,v0_mid", rows)
    print(f"wrote {path} ({len(branches)} branches)")
    for b in branches:
        print(f"n={b.index} domain=({fmt(b.domain[0])}, {fmt(b.domain[1])}) {b.stability}")
    return 0


def cmd_map(args) -> int:
    cfg = _load_config(args.config)
    params = _params(args, cfg)
    lo, hi, n = _colon_floats(args.grid, "lo:hi:n", "--grid")
    if not (n >= 1 and n == int(n)):
        raise DomainError(f"--grid sample count must be a positive integer, got {n}")
    xs = np.linspace(lo, hi, int(n))
    discontinuous = OscillatorParams(a=params.a)
    # a departure either map rejects leaves both columns nan
    pc = poincare.composite_map_array(xs, params.a)
    pm = np.where(np.isnan(pc), np.nan, poincare.next_crossing_array(-1, xs, discontinuous))
    rows = []
    for x, x_minus, x_comp in zip(xs.tolist(), pm.tolist(), pc.tolist()):
        pe = math.nan
        if params.epsilon > 0.0:
            try:
                pe = regularized_poincare_linear(x, params)
            except OscillatorError:
                pass
        rows.append((x, x_minus, x_comp, pe))
    path = _out_dir(args) / "maps.csv"
    write_csv(path, "x,p_minus,p_composite,p_eps", rows)
    print(f"wrote {path}")
    return 0


def cmd_ageing(args) -> int:
    cfg = _load_config(args.config)
    model = _model(args, cfg)
    rows = ageing_metrics(model, x_range=_branch_range(args, model))
    path = _out_dir(args) / "ageing.csv"
    write_csv(path, "n,branch_width,slid_length,stability",
              ((r["n"], r["branch_width"], r["slid_length"], r["stability"]) for r in rows))
    print(f"wrote {path}")
    return 0


def cmd_scaling(args) -> int:
    cfg = _load_config(args.config)
    params = _params(args, cfg)
    eps_grid = _comma_numbers(args.eps_grid, "--eps-grid")
    n_grid = _comma_numbers(args.n_grid, "--n-grid", integer=True)
    fit_eps, fit_n = exit_scaling_fit(params.a, eps_grid, args.n_fixed,
                                      n_grid, args.eps_fixed)
    print(f"slope_eps = {fmt(fit_eps.exponent)} (r^2 = {fmt(fit_eps.r_squared)})")
    print(f"slope_n   = {fmt(fit_n.exponent)} (r^2 = {fmt(fit_n.r_squared)})")
    out = _out_dir(args)
    path = out / "scaling.csv"
    write_csv(path, "sweep,abscissa,delay",
              [("eps", *s) for s in fit_eps.samples] + [("n", *s) for s in fit_n.samples])
    if args.plot:
        svg = out / "scaling.svg"
        line_plot([("delay vs eps", [s[0] for s in fit_eps.samples],
                    [s[1] for s in fit_eps.samples])],
                  path=str(svg), title="exit-point scaling", xlabel="eps",
                  ylabel="x_e - fold", logx=True, logy=True)
        print(f"wrote {svg}")
    print(f"wrote {path}")
    return 0


def cmd_reproduce(args) -> int:
    scenario = experiments.load_scenario(args.scenario)
    report = experiments.run_scenario(scenario, out_dir=_out_dir(args),
                                      plot=args.plot)
    for line in report.lines():
        print(line)
    print(f"runtime {report.runtime_s:.2f} s")
    return 0 if report.passed else 1


def cmd_plot_from_csv(args) -> int:
    lines = Path(args.csv).read_text().splitlines()
    if not lines or lines[0] != CSV_HEADER:
        raise DomainError(f"{args.csv}: unexpected CSV header (want {CSV_HEADER!r})")
    xs, ys = [], []
    for number, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        try:
            x, y = float(parts[0]), float(parts[1])
        except (IndexError, ValueError):
            x = y = math.nan
        if not (math.isfinite(x) and math.isfinite(y)):
            raise DomainError(f"{args.csv} line {number}: want finite numbers x,y_or_v "
                              f"first, got {line!r}")
        xs.append(x)
        ys.append(y)
    if not xs:
        raise DomainError(f"{args.csv} holds no data rows")
    out = args.out or str(Path(args.csv).with_suffix(".svg"))
    line_plot([("trajectory", xs, ys)], path=out, title=Path(args.csv).stem,
              xlabel="x", ylabel="y or v")
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="switchosc",
        description="Frequency-switching oscillator: simulation and analysis")
    ap.add_argument("--config", help="JSON config file; flags override its values")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--model", choices=["linear", "nonlinear"])
        p.add_argument("--a", type=float)
        p.add_argument("--epsilon", type=float)
        p.add_argument("--out-dir", dest="out_dir")

    p = sub.add_parser("simulate", help="hybrid or regularized trajectory to CSV/SVG")
    common(p)
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", "--v0", dest="y0", type=float)
    p.add_argument("--x-end", dest="x_end", type=float)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_simulate)

    p_orbit = sub.add_parser("orbit", help="periodic-orbit search")
    orbit_sub = p_orbit.add_subparsers(dest="orbit_command", required=True)
    p = orbit_sub.add_parser("find", help="locate the period-4 orbit")
    common(p)
    p.add_argument("--sliding", action="store_true",
                   help="search the sliding orbit (linear model)")
    p.set_defaults(func=cmd_orbit_find)

    p = sub.add_parser("manifolds", help="sliding/critical branch tables")
    common(p)
    p.add_argument("--range", required=True, help="lo:hi")
    p.set_defaults(func=cmd_manifolds)

    p = sub.add_parser("map", help="tabulate the crossing maps over a grid")
    common(p)
    p.add_argument("--grid", required=True, help="lo:hi:n")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("ageing", help="branch width table")
    common(p)
    p.add_argument("--range", required=True, help="lo:hi")
    p.set_defaults(func=cmd_ageing)

    p = sub.add_parser("scaling", help="exit-point scaling fits")
    common(p)
    p.add_argument("--eps-grid", default="1e-2,3e-3,1e-3,3e-4,1e-4")
    p.add_argument("--n-grid", default="4,8,16,32")
    p.add_argument("--n-fixed", type=int, default=10)
    p.add_argument("--eps-fixed", type=float, default=1e-3)
    p.add_argument("--plot", action="store_true")
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("reproduce", help="run a named scenario")
    p.add_argument("scenario")
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--no-plot", dest="plot", action="store_false", default=True)
    p.set_defaults(func=cmd_reproduce)

    p = sub.add_parser("plot-from-csv", help="re-plot a trajectory CSV")
    p.add_argument("csv")
    p.add_argument("--out")
    p.set_defaults(func=cmd_plot_from_csv)
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (OscillatorError, OSError, UnicodeDecodeError) as exc:  # bad input or file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
