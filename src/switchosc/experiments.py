"""Named reproducible scenarios binding library operations to expected values.

Scenarios are declarative JSON documents (id, kind, parameters, expected
checks with tolerances and provenance tags); a registry of runners produces
measured values, every expected entry gets a verdict, and results are written
as CSV plus a plain-text report.  The acceptance suite drives the same
scenarios, so CLI `reproduce` and pytest agree by construction.
"""

from __future__ import annotations

import importlib.resources
import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from . import poincare
from .core import (
    DomainError,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    forcing,
    omega,
    sinpi,
)
from .regularization import (
    exit_scaling_fit,
    find_regularized_sliding_orbit_linear,
    fold_points,
    regularized_fixed_point,
    simulate_regularized,
    slow_manifold_expansion,
    v_r_reference,
    convergence_to_vr,
    capture_start,
    psi,
    psi_prime,
)
from .sliding import (
    find_sliding_period4_linear,
    find_sliding_period4_nonlinear,
    check_no_nonsliding_periodic_nonlinear,
    linear_branches,
    nonlinear_branches,
    simulate_discontinuous,
)
from .svgplot import line_plot

#: criterion number -> scenario id realizing it (emitted as the traceability matrix)
TRACEABILITY = {i: f"E{i}" for i in range(1, 14)}


@dataclass
class CheckResult:
    name: str
    passed: bool
    measured: object
    detail: str
    provenance: str


@dataclass
class Report:
    scenario_id: str
    measured: dict
    checks: list[CheckResult] = field(default_factory=list)
    runtime_s: float = 0.0
    artifacts: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        for c in self.checks:
            yield (f"{'PASS' if c.passed else 'FAIL'} {self.scenario_id}/{c.name}: "
                   f"{c.detail} [{c.provenance}]")


@dataclass
class Scenario:
    id: str
    kind: str
    description: str = ""
    model: str = "linear"
    params: dict = field(default_factory=dict)
    spec: dict = field(default_factory=dict)
    expected: list = field(default_factory=list)
    seed: int | None = None

    @property
    def switching_model(self) -> SwitchingModel:
        return SwitchingModel(self.model)


def _scenario_dir():
    return importlib.resources.files("switchosc") / "scenarios"


def list_scenarios() -> list[str]:
    return sorted(p.name[:-5] for p in _scenario_dir().iterdir()
                  if p.name.endswith(".json"))


def read_json_object(path: str | Path, what: str) -> dict:
    """The JSON object in ``path``; anything else is a usage error."""
    try:
        doc = json.loads(Path(path).read_text())
    except ValueError as exc:  # also malformed UTF-8
        raise DomainError(f"{what} {path} is not valid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise DomainError(f"{what} {path} must hold a JSON object")
    return doc


def load_scenario(id_or_path: str) -> Scenario:
    """A built-in scenario by id, or a scenario file; a malformed file raises DomainError."""
    p = Path(id_or_path)
    if p.suffix == ".json" and p.exists():
        doc = read_json_object(p, "scenario file")
    else:
        res = _scenario_dir() / f"{id_or_path}.json"
        try:
            doc = json.loads(res.read_text())
        except FileNotFoundError:
            raise DomainError(f"unknown scenario {id_or_path!r}; "
                              f"available: {', '.join(list_scenarios())}") from None
    _validate_checks(id_or_path, doc.get("expected", []))
    try:
        return Scenario(**doc)
    except TypeError as exc:  # an unknown or missing key
        raise DomainError(f"scenario {id_or_path}: {exc}") from None


# ---------------------------------------------------------------------------
# check evaluation


#: check op -> (operands, verdict on the measured value v and the check c, template)
_CHECK_OPS = {
    "abs_tol": (("target", "tol"), lambda v, c: abs(v - c["target"]) <= c["tol"],
                "{val!r} vs {target!r} +- {tol}"),
    "interval": (("lo", "hi"), lambda v, c: c["lo"] < v < c["hi"], "{val!r} in ({lo}, {hi})"),
    "le": (("target",), lambda v, c: v <= c["target"], "{val!r} <= {target}"),
    "ge": (("target",), lambda v, c: v >= c["target"], "{val!r} >= {target}"),
    "lt": (("target",), lambda v, c: v < c["target"], "{val!r} < {target}"),
    "gt": (("target",), lambda v, c: v > c["target"], "{val!r} > {target}"),
    "is_true": ((), lambda v, c: bool(v), "{val!r} is true"),
    "is_false": ((), lambda v, c: not bool(v), "{val!r} is false"),
}


def _validate_checks(scenario: str, checks) -> None:
    """Reject a malformed ``expected`` list with DomainError before anything runs."""
    if not (isinstance(checks, list) and all(isinstance(c, dict) and "name" in c for c in checks)):
        raise DomainError(f"scenario {scenario}: 'expected' must be a list of named checks")
    bad = [c["name"] for c in checks
           if c.get("provenance") not in ("PAPER", "TRIVIAL", "DERIVED")]
    if bad:
        raise DomainError(f"checks missing provenance tags: {bad}")
    for c in checks:
        op = c.get("op")
        operands = _CHECK_OPS[op][0] if isinstance(op, str) and op in _CHECK_OPS else None
        if operands is None or any(type(c.get(k)) not in (int, float) for k in operands):
            raise DomainError(f"scenario {scenario}: check {c['name']!r} needs a known op "
                              f"and its numeric operands, got {c}")


def _evaluate_check(check: dict, measured: dict) -> CheckResult:
    name = check["name"]
    key = check.get("key", name)
    if key not in measured:
        raise DomainError(f"check {name!r}: the runner measures no {key!r}")
    val = measured[key]
    _, verdict, template = _CHECK_OPS[check["op"]]
    ok = verdict(val, check)
    detail = template.format(**check, val=val)
    return CheckResult(name=name, passed=bool(ok), measured=val, detail=detail,
                       provenance=check.get("provenance", "DERIVED"))


# ---------------------------------------------------------------------------
# independent solve_ivp oracle used by the cross-validation suite


def ivp_contact(sign: int, x0: float, y0: float, level: float, a: float) -> float:
    """First crossing of y = level by y' = -a y - sin(w pi x) out of S_sign, by solve_ivp.

    Deliberately independent of the closed-form machinery.  A terminal event
    stops the DOP853 run at the first crossing seen at a step end.  A dip
    through the level and back inside one step shows only at its turning
    point (a second event, on y' = 0): the crossing then lies between that
    turn and the one before, where y is monotone, and the dense output gives it.
    """
    w = omega(sign)
    rhs = lambda x, y: [-a * y[0] - math.sin(w * math.pi * x)]
    # a start on the level is no contact: the event counts crossings after it
    hit = lambda x, y: y[0] - level if x > x0 else float(sign)
    hit.terminal, hit.direction = True, -sign
    # past this the transient is below half the forced amplitude
    span = 16.0 / w + math.log(1.0 + 2.0 * abs(y0) * math.hypot(w * math.pi, a)) / a
    sol = solve_ivp(rhs, (x0, x0 + span), [y0], method="DOP853", rtol=1e-13, atol=1e-15,
                    events=[hit, lambda x, y: rhs(x, y)[0]], dense_output=True,
                    max_step=0.25 / w)
    if sol.status != 1:
        raise SolverError(f"ivp oracle found no contact with y = {level!r} from "
                          f"({x0!r}, {y0!r}) in S_{sign:+d} at a={a!r}")
    lo = x0
    for xt, (yt,) in zip(sol.t_events[1], sol.y_events[1]):
        if sign * (yt - level) < 0.0:
            return brentq(lambda x: sol.sol(x)[0] - level, lo, xt, xtol=1e-14)
        lo = xt
    return float(sol.t_events[0][0])


def ivp_fixed_point(a: float, guess: float) -> float:
    """Fixed point of the two-leg return map built on the ivp oracle."""
    g = lambda x: ivp_contact(+1, ivp_contact(-1, x, 0.0, 0.0, a), 0.0, 0.0, a) - (x + 4.0)
    return brentq(g, guess - 0.02, guess + 0.02, xtol=1e-11)


# ---------------------------------------------------------------------------
# scenario runners (one per kind); each returns a dict of measured values


def _run_x0_root(sc: Scenario) -> dict:
    t0 = time.perf_counter()
    x0 = poincare.solve_x0()
    return {"x0": x0,
            "residual": poincare.dP_da_at_zero(x0),
            "runtime_s": time.perf_counter() - t0}


def _run_nonsliding_fixed_point(sc: Scenario) -> dict:
    a = sc.params["a"]
    t0 = time.perf_counter()
    x_star, multiplier = poincare.find_nonsliding_period4(a)
    return {"x_star": x_star, "multiplier": multiplier,
            "fixed_point_residual": abs(poincare.composite_map(x_star, a) - (x_star + 4.0)),
            "runtime_s": time.perf_counter() - t0}


def _run_a0_limit(sc: Scenario) -> dict:
    a = sc.params["a"]
    n = sc.spec.get("samples", 50)
    xs = np.linspace(0.02, 2.0 / 3.0 - 0.02, n)
    lands = poincare.composite_map_array(xs, a)
    for x in xs[np.isnan(lands)].tolist():
        poincare.composite_map(x, a)  # raises the error the array form turned into nan
    return {"max_deviation": float(np.max(np.abs(lands - (xs + 4.0)))), "samples": n}


def _run_interval_confinement(sc: Scenario) -> dict:
    a_grid = sc.spec["a_grid"]
    n_max = sc.spec.get("n_max", 10)
    worst = math.inf
    lemma4_ok = True
    for a in a_grid:
        p = OscillatorParams(a=a)
        v = poincare.next_crossing(+1, 10.0 / 3.0, p).x_next
        lemma4_ok &= 4.0 < v < 14.0 / 3.0
        rows = check_no_nonsliding_periodic_nonlinear(a, n_max)
        worst = min(worst, min(min(r["margin_plus"], r["margin_minus"]) for r in rows))
    return {"lemma4_ok": lemma4_ok, "min_margin": worst}


def _run_sliding_linear(sc: Scenario) -> dict:
    a_exist = sc.params.get("a", 10.0)
    a_absent = sc.spec.get("a_absent", 1e-3)
    res = find_sliding_period4_linear(a_exist)
    absent = find_sliding_period4_linear(a_absent)
    out = {
        "exists": res.exists,
        "landing": res.landing if res.exists else math.nan,
        "closure_error": res.closure_error if res.exists else math.nan,
        "absent_reported": not absent.exists,
    }
    # crossing-map composite landing: alternate half-plane legs from (10/3, +)
    # until the landing leaves the crossing region (3 legs in the Theorem-2
    # structure at large a, 2 when the slide starts one crossing earlier)
    from .core import Region, classify_threshold_point

    p = OscillatorParams(a=a_exist)
    x_cur, side = 10.0 / 3.0, +1
    for _ in range(4):
        x_cur = poincare.next_crossing(side, x_cur, p).x_next
        if classify_threshold_point(x_cur) is not Region.CROSSING:
            break
        side = -side
    out["composite_landing"] = x_cur
    return out


def _run_sliding_nonlinear(sc: Scenario) -> dict:
    out = {}
    all_ok = True
    for a in sc.spec["a_grid"]:
        res = find_sliding_period4_nonlinear(a)
        key = f"a_{a}"
        out[key + "_x_a"] = res.x_a if res.exists else math.nan
        out[key + "_closure"] = res.closure_error if res.exists else math.nan
        ok = res.exists and 2.0 < res.x_a < 4.0 and res.closure_error < 1e-9
        all_ok &= ok
    out["all_ok"] = all_ok
    return out


def _run_fold_points(sc: Scenario) -> dict:
    worst = 0.0
    for a_eps in sc.spec["a_eps_grid"]:
        a = sc.params.get("a", 0.01)
        p = OscillatorParams(a=a, epsilon=a_eps / a)
        for sign, w in ((+1, 1.5), (-1, 0.5)):
            for n in (1, 2, 3, 5):
                xf = fold_points(sign, n, p)
                base = 2.0 * n / 3.0 if sign > 0 else 2.0 * n
                g = lambda x: -a * p.epsilon * sign - sinpi(w * x)
                root = brentq(g, base - 0.2, base + 0.2, xtol=1e-15)
                worst = max(worst, abs(xf - root))
    return {"max_formula_error": worst}


def _run_regularized_linear(sc: Scenario) -> dict:
    a = sc.params["a"]
    eps_grid = sc.spec["eps_grid"]
    x_star, _ = poincare.find_nonsliding_period4(a)
    errs = []
    for eps in eps_grid:
        p = OscillatorParams(a=a, epsilon=eps)
        fp = regularized_fixed_point(p, (x_star - 0.08, x_star + 0.08))
        errs.append(abs(fp - x_star))
    slope = float(np.polyfit(np.log(eps_grid), np.log(errs), 1)[0])
    out = {
        "fp_errors": errs,
        "monotone": all(e1 > e2 for e1, e2 in zip(errs, errs[1:])),
        "first_order_bound": all(e <= 5.0 * eps for e, eps in zip(errs, eps_grid)),
        "loglog_slope": slope,
    }
    a2 = sc.spec.get("a_sliding", 2.0)
    logc = {}
    for eps in sc.spec.get("eps_sliding", [1e-2, 1e-3]):
        orb = find_regularized_sliding_orbit_linear(a2, OscillatorParams(a=a2, epsilon=eps))
        logc[eps] = orb.log_contraction
    e_coarse, e_fine = max(logc), min(logc)
    out.update({
        "log_contraction_coarse": logc[e_coarse],
        "log_contraction_fine": logc[e_fine],
        "log_decrease_10x": logc[e_fine] <= logc[e_coarse] - math.log(10.0),
        "log_contraction_ratio": logc[e_fine] / logc[e_coarse],
    })
    return out


def _run_exit_scaling(sc: Scenario) -> dict:
    a = sc.params["a"]
    fit_eps, fit_n = exit_scaling_fit(
        a=a, eps_grid=sc.spec["eps_grid"], n_fixed=sc.spec["n_fixed"],
        n_grid=sc.spec["n_grid"], eps_fixed=sc.spec["eps_fixed"])
    return {"slope_eps": fit_eps.exponent, "r2_eps": fit_eps.r_squared,
            "slope_n": fit_n.exponent, "r2_n": fit_n.r_squared,
            "eps_samples": fit_eps.samples, "n_samples": fit_n.samples}


def _run_slow_manifold(sc: Scenario) -> dict:
    a = sc.params["a"]
    eps = sc.params["epsilon"]
    out = {}
    all_ok = True
    for n in sc.spec["n_grid"]:
        p = OscillatorParams(a=a, epsilon=eps)
        xs0, vs0 = capture_start(n)
        traj = simulate_regularized(SwitchingModel.NONLINEAR, p, xs0, vs0,
                                    x_end=3.0 * n + 2.0 + 0.01, rtol=1e-11)
        grid = np.linspace(7.0 * n / 3.0, 3.0 * n + 2.0, 700)
        v = traj.eval(grid)
        ratios = []
        for x, vx in zip(grid, v):
            sm = slow_manifold_expansion(n, float(x), p)
            ratios.append(abs(vx - sm["v0"]) / (5.0 * eps * abs(sm["v1"])))
        out[f"n_{n}_max_ratio"] = float(max(ratios))
        all_ok &= max(ratios) <= 1.0
    out["all_within_bound"] = all_ok
    return out


def _run_fig11(sc: Scenario) -> dict:
    a = sc.params["a"]
    eps = sc.params["epsilon"]
    x0, v0 = sc.spec.get("start", [14.1, 1.1])
    p = OscillatorParams(a=a, epsilon=eps)
    traj = simulate_regularized(SwitchingModel.NONLINEAR, p, x0, v0,
                                x_end=sc.spec.get("x_end", 50.0))
    spans = traj.layer_spans()
    entry, exit_x = max(spans, key=lambda s: s[1] - s[0])
    xs = np.linspace(0.5 * (entry + exit_x) - 1.0, 0.5 * (entry + exit_x) + 1.0, 9)
    lam_mid = float(np.mean([psi(v) for v in traj.eval(xs)]))
    branch = round(float(np.mean(xs)) * (1.0 + lam_mid / 2.0))
    x_t = min(e.x for e in traj.events if e.kind == "layer-entry")
    grid = np.linspace(x_t + 1e-6, traj.x_end - 1e-6, 4000)
    v_after = traj.eval(grid)
    return {
        "branch": branch,
        "layer_entry": entry,
        "exit_x": exit_x,
        "layer_residency": exit_x - entry,
        "slide_extent": exit_x - x0,
        "confined": bool(np.max(v_after) <= 1.0 + 1e-9),
        "_traj": traj,
    }


def _run_vr_convergence(sc: Scenario) -> dict:
    a = sc.params["a"]
    eps = sc.params["epsilon"]
    x0, v0 = sc.spec.get("start", [14.1, 1.1])
    n_lo, n_hi = sc.spec.get("windows", [5, 30])
    p = OscillatorParams(a=a, epsilon=eps)
    traj = simulate_regularized(SwitchingModel.NONLINEAR, p, x0, v0,
                                x_end=4.0 * (n_hi + 2) + x0)
    rows = convergence_to_vr(traj, n_lo, n_hi)
    sups = [r["sup_distance"] for r in rows]
    return {
        "sup_distances": sups,
        "monotone_decreasing": all(s1 >= s2 - 1e-9 for s1, s2 in zip(sups, sups[1:])),
        "min_consecutive_distance": min(r["consecutive_distance"] for r in rows),
        "x_eps_a": v_r_reference(n_lo, p).x_eps_a,
    }


def _run_property_suite(sc: Scenario) -> dict:
    # forcing-model agreement at lambda = +-1
    xs = np.linspace(-7.0, 997.0, 4021)
    dev = 0.0
    for x in xs:
        for model in SwitchingModel:
            dev = max(dev,
                      abs(forcing(model, float(x), 1.0) - sinpi(1.5 * x)),
                      abs(forcing(model, float(x), -1.0) - sinpi(0.5 * x)))
    # transition-function properties: psi(+-1) = +-1, psi' > 0 on (-1, 1) and
    # psi''(+-1) of sign -+ (one-sided differences of psi' at the ends)
    inner = np.linspace(-1.0, 1.0, 2001)[1:-1]
    step = 1e-6
    psi_valid = (abs(psi(1.0) - 1.0) <= 1e-12 and abs(psi(-1.0) + 1.0) <= 1e-12
                 and all(psi_prime(float(v)) > 0.0 for v in inner)
                 and psi_prime(1.0 - step) > psi_prime(1.0)
                 and psi_prime(-1.0 + step) > psi_prime(-1.0))
    # branch nullclines
    res = 0.0
    for b in linear_branches((0.0, 12.0)):
        for t in np.linspace(0.02, 0.98, 41):
            x = b.domain[0] + t * b.width
            res = max(res, abs(forcing(SwitchingModel.LINEAR, x, b.lambda_of(x))))
    for b in nonlinear_branches((0.0, 30.0)):
        for t in np.linspace(0.02, 0.98, 41):
            x = b.domain[0] + t * b.width
            res = max(res, abs(forcing(SwitchingModel.NONLINEAR, x, b.lambda_of(x))))
    # criterion-2 fixed point via two independent code paths
    a = sc.params.get("a", 0.01)
    x_map, _ = poincare.find_nonsliding_period4(a)
    x_ivp = ivp_fixed_point(a, x_map)
    return {
        "forcing_agreement": dev,
        "psi_valid": psi_valid,
        "nullcline_residual": res,
        "x_star_map": x_map,
        "x_star_ivp": x_ivp,
        "cross_validation_gap": abs(x_map - x_ivp),
    }


def _run_trajectory(sc: Scenario) -> dict:
    """Generic figure reproduction: one or more runs, measured summary, plot data."""
    p = OscillatorParams(a=sc.params["a"], epsilon=sc.params.get("epsilon", 0.0))
    runs = sc.spec["runs"]
    model = sc.switching_model
    series = []
    measured = {"n_runs": len(runs)}
    for i, run in enumerate(runs):
        x0, y0 = run["start"]
        x_end = run["x_end"]
        if p.epsilon > 0.0:
            traj = simulate_regularized(model, p, x0, y0, x_end)
        else:
            traj = simulate_discontinuous(model, p, (x0, y0), x_end)
        series.append((run.get("label", f"run{i}"), *traj.xy()))
        measured[f"run{i}_events"] = len(traj.events)
    measured["_series"] = series
    return measured


_RUNNERS = {
    "x0_root": _run_x0_root,
    "nonsliding_fixed_point": _run_nonsliding_fixed_point,
    "a0_limit": _run_a0_limit,
    "interval_confinement": _run_interval_confinement,
    "sliding_linear": _run_sliding_linear,
    "sliding_nonlinear": _run_sliding_nonlinear,
    "fold_points": _run_fold_points,
    "regularized_linear": _run_regularized_linear,
    "exit_scaling": _run_exit_scaling,
    "slow_manifold": _run_slow_manifold,
    "fig11": _run_fig11,
    "vr_convergence": _run_vr_convergence,
    "property_suite": _run_property_suite,
    "trajectory": _run_trajectory,
}


def run_scenario(scenario: Scenario, out_dir: str | Path | None = None,
                 plot: bool = False) -> Report:
    """Execute a scenario, evaluate every expected check, write artifacts."""
    runner = _RUNNERS.get(scenario.kind)
    if runner is None:
        raise DomainError(f"no runner for scenario kind {scenario.kind!r}")
    t0 = time.perf_counter()
    measured = runner(scenario)
    runtime = time.perf_counter() - t0
    report = Report(scenario_id=scenario.id, measured=measured, runtime_s=runtime)
    for check in scenario.expected:
        report.checks.append(_evaluate_check(check, measured))
    if out_dir is not None:
        out = Path(out_dir) / scenario.id
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / "results.csv"
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("key,value\n")
            for k in sorted(measured):
                if k.startswith("_"):
                    continue
                v = measured[k]
                if isinstance(v, list):
                    v = ";".join(f"{u:.12g}" if isinstance(u, float) else str(u)
                                 for u in (v if not isinstance(v[0], (list, tuple))
                                           else [x for pair in v for x in pair]))
                elif isinstance(v, float):
                    v = f"{v:.12g}"
                fh.write(f"{k},{v}\n")
        rep_path = out / "report.txt"
        with open(rep_path, "w", newline="\n") as fh:
            for line in report.lines():
                fh.write(line + "\n")
            fh.write(f"runtime_s {runtime:.3f}\n")
        report.artifacts += [str(csv_path), str(rep_path)]
        if plot:
            series = measured.get("_series")
            if series is None and "_traj" in measured:
                series = [("v(x)", *measured["_traj"].xy())]
            if series:
                svg_path = out / f"{scenario.id}.svg"
                line_plot(series, path=str(svg_path), title=scenario.id,
                          xlabel="x", ylabel="y" if scenario.params.get(
                              "epsilon", 0.0) == 0.0 else "v")
                report.artifacts.append(str(svg_path))
    return report


def write_traceability(out_dir: str | Path) -> Path:
    """Criterion -> scenario matrix, one row per acceptance criterion."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "traceability.csv"
    with open(path, "w", newline="\n") as fh:
        fh.write("criterion,scenario\n")
        for crit, sid in sorted(TRACEABILITY.items()):
            fh.write(f"{crit},{sid}\n")
    return path
