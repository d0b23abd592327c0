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
    SAMPLES_PER_UNIT,
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
#: Most rows a table of the CLI holds: the branches of a ``manifolds`` or
#: ``ageing`` --range (a nonlinear 0:1e5, 150 000 rows, fits), the samples
#: of a ``map`` --grid and a ``simulate`` span at SAMPLES_PER_UNIT per unit.
MAX_ROWS = 2**18


def _out_dir(args) -> Path:
    d = Path(args.out_dir or os.environ.get("SWITCHOSC_OUT", "out"))
    d.mkdir(parents=True, exist_ok=True)
    return d


def _config_value(action: argparse.Action, value) -> None:
    """Refuse a config value that the flag of ``action`` could not take."""
    if action.nargs == 0:
        ok, want = type(value) is bool, "true or false"
    elif action.choices:
        ok, want = value in action.choices, f"one of {', '.join(action.choices)}"
    elif action.type is None:
        ok, want = type(value) is str, "a string"
    else:  # no bool, no float for an int flag, nothing past float range
        ok = type(value) in {int, action.type} and abs(value) <= sys.float_info.max
        want = f"a finite {action.type.__name__}"
    if not ok:
        raise DomainError(f"config {action.dest} must be {want}, got {value!r}")


def _with_config(ap: argparse.ArgumentParser, argv, args) -> argparse.Namespace:
    """``argv`` parsed again with the --config values as defaults of the command's flags."""
    cfg = experiments.read_json_object(args.config, "config file")
    flags = {a.dest: a for a in args.parser._actions
             if a.option_strings and not a.required and a.dest != "help"}
    for key, value in cfg.items():
        if key not in flags:
            raise DomainError(f"config key {key!r} is no optional flag of {args.parser.prog} "
                              f"(it takes {', '.join(sorted(flags))})")
        _config_value(flags[key], value)
    args.parser.set_defaults(**cfg)
    return ap.parse_args(argv)


def _setting(args, key: str, default=None):
    """A finite numeric setting: its flag or config value, else (or with no flag) ``default``."""
    value = getattr(args, key, None)
    if value is not None and not math.isfinite(value):
        raise DomainError(f"{key} must be a finite number, got {value!r}")
    return default if value is None else value


def _params(args) -> OscillatorParams:
    a = _setting(args, "a")
    if a is None:
        raise DomainError("damping a is required (flag --a or config)")
    return OscillatorParams(a=a, epsilon=_setting(args, "epsilon", 0.0))


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


def _model(args) -> SwitchingModel:
    if args.model is None:
        raise DomainError("model is required (flag --model or config: linear|nonlinear)")
    return SwitchingModel(args.model)


def _branch_range(args, model: SwitchingModel) -> tuple[float, float]:
    """The --range lo:hi, refused when it meets more than MAX_ROWS branches."""
    lo, hi = _colon_floats(args.range, "lo:hi", "--range")
    try:
        indices = branch_indices(model, lo, hi)
    except DomainError as exc:  # an end past 2**53
        raise DomainError(f"--range {args.range}: {exc}") from None
    count = indices.stop - indices.start  # len() overflows past sys.maxsize
    if count > MAX_ROWS:
        raise DomainError(f"--range {args.range} meets {count} branches, more than the "
                          f"{MAX_ROWS} rows a table holds")
    return lo, hi


def cmd_simulate(args) -> int:
    params = _params(args)
    model = _model(args)
    x0 = _setting(args, "x0", 0.0)
    y0 = _setting(args, "y0", 0.0)
    x_end = _setting(args, "x_end", x0 + 8.0)
    rows = (x_end - x0) * SAMPLES_PER_UNIT  # the least the run's segments tabulate
    if rows > MAX_ROWS:
        raise DomainError(f"--x-end {x_end!r} from --x0 {x0!r} needs {rows:.3g} rows, more "
                          f"than the {MAX_ROWS} rows a table holds")
    traj = experiments.simulate(model, params, x0, y0, x_end)
    built = sum(len(seg.xs) for seg in traj.segments)  # each segment holds >= 9 rows
    if built > MAX_ROWS:
        raise DomainError(f"the run from --x0 {x0!r} to --x-end {x_end!r} builds {built} "
                          f"rows, more than the {MAX_ROWS} rows a table holds")
    out = _out_dir(args)
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
    params = _params(args)
    model = _model(args)
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
    model = _model(args)
    lo, hi = _branch_range(args, model)
    branches = [branch(model, n) for n in branch_indices(model, lo, hi)]
    rows = []
    for b in branches:
        xm = 0.5 * (max(b.domain[0], lo) + min(b.domain[1], hi))
        rows.append((b.index, *b.domain, b.stability, b.lambda_of(xm),
                     critical_branch(model, b.index, xm)))
    path = _out_dir(args) / "manifolds.csv"
    write_csv(path, "n,x_lo,x_hi,stability,lambda_mid,v0_mid", rows)
    print(f"wrote {path} ({len(branches)} branches)")
    for b in branches:
        print(f"n={b.index} domain=({fmt(b.domain[0])}, {fmt(b.domain[1])}) {b.stability}")
    return 0


def cmd_map(args) -> int:
    params = _params(args)
    lo, hi, n = _colon_floats(args.grid, "lo:hi:n", "--grid")
    if not math.isfinite(hi - lo):  # the grid's samples would overflow to inf and nan
        raise DomainError(f"--grid {args.grid}: the span hi - lo overflows")
    if not (n >= 1 and n == int(n)):
        raise DomainError(f"--grid sample count must be a positive integer, got {n}")
    if n > MAX_ROWS:
        raise DomainError(f"--grid {args.grid} asks for {n:g} samples, more than the "
                          f"{MAX_ROWS} rows a table holds")
    discontinuous = OscillatorParams(a=params.a)
    # probes past MAX_POINTS would stop every row alike: refuse the command
    poincare._probe_count(-1, lo, discontinuous)
    rows = []
    for x in np.linspace(lo, hi, int(n)).tolist():
        try:
            x_minus, x_comp = poincare._legs(x, discontinuous)
        except OscillatorError:  # a departure either map rejects leaves both nan
            x_minus = x_comp = math.nan
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
    model = _model(args)
    rows = ageing_metrics(model, x_range=_branch_range(args, model))
    path = _out_dir(args) / "ageing.csv"
    write_csv(path, "n,branch_width,stability",
              ((r["n"], r["branch_width"], r["stability"]) for r in rows))
    print(f"wrote {path}")
    return 0


def cmd_scaling(args) -> int:
    params = _params(args)
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
    ap.add_argument("--config", help="JSON file of the command's optional flags; flags win")
    sub = ap.add_subparsers(dest="command", required=True)
    shared = {"model": {"choices": [m.value for m in SwitchingModel]}, "a": {"type": float},
              "epsilon": {"type": float}, "out_dir": {}}

    def command(parent, name, func, help, *flags):
        p = parent.add_parser(name, help=help)
        for flag in flags:
            p.add_argument("--" + flag.replace("_", "-"), dest=flag, **shared[flag])
        p.set_defaults(func=func, parser=p)
        return p

    p = command(sub, "simulate", cmd_simulate, "hybrid or regularized trajectory to CSV/SVG",
                "model", "a", "epsilon", "out_dir")
    p.add_argument("--x0", type=float)
    p.add_argument("--y0", "--v0", dest="y0", type=float)
    p.add_argument("--x-end", dest="x_end", type=float)
    p.add_argument("--plot", action="store_true")

    p_orbit = sub.add_parser("orbit", help="periodic-orbit search")
    orbit_sub = p_orbit.add_subparsers(dest="orbit_command", required=True)
    p = command(orbit_sub, "find", cmd_orbit_find, "locate the period-4 orbit", "model", "a")
    p.add_argument("--sliding", action="store_true",
                   help="search the sliding orbit (linear model)")

    p = command(sub, "manifolds", cmd_manifolds, "sliding/critical branch tables",
                "model", "out_dir")
    p.add_argument("--range", required=True, help="lo:hi")

    p = command(sub, "map", cmd_map, "tabulate the linear model's crossing maps over a grid",
                "a", "epsilon", "out_dir")
    p.add_argument("--grid", required=True, help="lo:hi:n")

    p = command(sub, "ageing", cmd_ageing, "branch width table", "model", "out_dir")
    p.add_argument("--range", required=True, help="lo:hi")

    p = command(sub, "scaling", cmd_scaling, "exit-point scaling fits", "a", "out_dir")
    p.add_argument("--eps-grid", default="1e-2,3e-3,1e-3,3e-4,1e-4")
    p.add_argument("--n-grid", default="4,8,16,32")
    p.add_argument("--n-fixed", type=int, default=10)
    p.add_argument("--eps-fixed", type=float, default=1e-3)
    p.add_argument("--plot", action="store_true")

    p = command(sub, "reproduce", cmd_reproduce, "run a named scenario", "out_dir")
    p.add_argument("scenario")
    p.add_argument("--no-plot", dest="plot", action="store_false", default=True)

    p = command(sub, "plot-from-csv", cmd_plot_from_csv, "re-plot a trajectory CSV")
    p.add_argument("csv")
    p.add_argument("--out")
    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        if args.config:
            args = _with_config(ap, argv, args)
        return args.func(args)
    except (OscillatorError, OSError, UnicodeDecodeError) as exc:  # bad input or file
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
