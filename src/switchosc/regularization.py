"""Switching-layer dynamics for epsilon > 0.

The threshold is blown up into the strip |v| <= 1, v = y/epsilon, where the
multiplier sign(y) is replaced by a smooth monotone transition psi(v).  Inside
the strip the dynamics is the stiff scalar ODE

    dv/dx = (-a eps v - f_i(x, psi(v))) / eps,

integrated by the in-house Radau IIA kernel of ``switchosc.radau`` (order 5,
scalar Newton, embedded error estimate, stop levels on v located exactly);
outside it psi is saturated, so the exterior flow is the closed form of the
half-plane system and no numerical integration is used there: an exterior arc
ends where ``analytic_flow.next_contact`` finds it back on y = +-eps.  scipy's
Radau serves only as a test oracle for the kernel.

A run is a ``core.Trajectory`` in (x, v): each layer arc keeps the kernel's
dense output (the step's cubic in numpy) as its evaluator and each exterior
arc the closed form ``flow_from_array``, so ``Trajectory.eval`` serves v on
arrays; ``v_r`` is evaluated the same way.

Fixed points of the regularized return map P_eps are found by Newton's method
on its variational derivative: a run with ``with_sensitivity`` yields both
P_eps(x) and log P_eps'(x) (a section map of a planar flow preserves
orientation, so P_eps' > 0) in the steps of a plain run, since the kernel
carries J' = d/dv (dv/dx) as a quadrature; so each iterate costs one run.
The bracket guards the iteration, with bisection as fallback.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    DomainError,
    NoOrbitError,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    Trajectory,
    TrajectoryEvent,
    TrajectorySegment,
    Mode,
    capture_threshold,
    forcing,
    forcing_dlam,
    omega,
)
# flow_from stays bound here: the benchmark's tracer patches it by name
from .analytic_flow import flow_from, flow_from_array, flow_from_deriv, next_contact
from .radau import solve_ivp
from .sliding import _linear_branch, _nonlinear_branch

_NUDGE = 1e-12
#: Layer solves and exterior arcs before a regularized run gives up.
_EVENT_BUDGET = 6000


class CaptureError(SolverError):
    """A layer transit was captured by a slow manifold where that is not allowed."""


class LayerIntegrationError(SolverError):
    """The layer integrator failed; carries the last accepted state (x, v) and
    the last step size attempted (h)."""

    def __init__(self, message: str, x: float, v: float, h: float):
        super().__init__(f"{message} (x={x!r}, v={v!r}, last attempted step {h!r})")
        self.x, self.v, self.h = x, v, h


# ---------------------------------------------------------------------------
# the transition function psi and the layer system


def psi(v: float) -> float:
    """The cubic switch profile psi(v) = v (3 - v^2) / 2, psi(+-1) = +-1."""
    return 0.5 * v * (3.0 - v * v)


def psi_prime(v: float) -> float:
    return 1.5 * (1.0 - v * v)


def psi_inverse(lam: float) -> float:
    """The v in [-1, 1] with psi(v) = lam, in closed form.

    With v = 2 sin(t), psi(v) = 3 sin(t) - 4 sin(t)^3 = sin(3t), so
    psi^-1(lam) = 2 sin(asin(lam) / 3).
    """
    if not -1.0 <= lam <= 1.0:
        raise DomainError(f"psi inverse needs lambda in [-1, 1], got {lam}")
    return 2.0 * math.sin(math.asin(lam) / 3.0)


def layer_system(model: SwitchingModel, params: OscillatorParams):
    """The layer ODE dv/dx = (-a eps v - f_i(x, psi(v))) / eps, for eps > 0.

    Returns ``(rate, rate_dv)``: the scalar rate(x, v) and its derivative
    d rate / dv, which ``radau.solve_ivp`` takes as the Jacobian and, with a
    sensitivity, as J' (J accumulates the log-derivative of the flow map
    along the arc).  The closures look ``forcing`` and ``forcing_dlam`` up in
    this module at each call, so a wrapper patched in here (a test, the
    perfbench tracer) sees every evaluation.
    """
    e = params.epsilon
    a = params.a

    def rate(x, v):
        return (-a * e * v - forcing(model, x, _clip(psi(v)))) / e

    def rate_dv(x, v):
        return (-a * e - forcing_dlam(model, x, _clip(psi(v))) * psi_prime(v)) / e

    return rate, rate_dv


def _clip(lam: float) -> float:
    return -1.0 if lam < -1.0 else (1.0 if lam > 1.0 else lam)


# ---------------------------------------------------------------------------
# layer geometry


def critical_branch(model: SwitchingModel, index: int, x: float) -> float:
    """v0 with psi(v0) = branch lambda(x); the layer image of a sliding branch."""
    b = _linear_branch(index) if model is SwitchingModel.LINEAR else _nonlinear_branch(index)
    return psi_inverse(b.lambda_of(x))


def fold_points(sign: int, n: int, params: OscillatorParams) -> float:
    """x at which the layer boundary v = sign*1 is tangent to the field.

    x^+-_(eps,n) = x_n^+- +- (-1)^(n+1) arcsin(a eps) / (pi w+-) with
    x_n^+ = 2n/3, x_n^- = 2n; requires a*eps < 1.
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +-1")
    if not params.a * params.epsilon < 1.0:
        raise DomainError("fold points need a*eps < 1")
    w = omega(sign)
    base = 2.0 * n / 3.0 if sign > 0 else 2.0 * n
    shift = ((-1) ** (n + 1)) * math.asin(params.a * params.epsilon) / (math.pi * w)
    return base + (shift if sign > 0 else -shift)


# ---------------------------------------------------------------------------
# the regularized hybrid engine


def _exterior_v(side: int, x0: float, v0: float, params: OscillatorParams,
                x: np.ndarray) -> np.ndarray:
    """v on an array of x of the exterior flow from (x0, v0)."""
    e = params.epsilon
    return flow_from_array(side, x, x0, e * v0, params) / e


# Both engines return ``core.Trajectory``, which also owns
# ``capture_threshold``.  Both names stay reachable here because callers
# outside the package look them up through this module (the benchmark's
# tracer patches ``RegTrajectory.eval`` and reads ``capture_threshold``).
RegTrajectory = Trajectory


def _ext_return(side: int, x0: float, v0: float, params: OscillatorParams) -> float:
    """Next x > x0 where the exterior flow from (x0, eps*v0) re-reaches y = side*eps."""
    e = params.epsilon
    return next_contact(side, x0, e * v0, side * e, params)


def simulate_regularized(model: SwitchingModel, params: OscillatorParams,
                         x0: float, v0: float, x_end: float,
                         rtol: float = 1e-10,
                         stop_at_downward_v0_after: float | None = None,
                         with_sensitivity: bool = False) -> Trajectory:
    """Full regularized trajectory from (x0, v0) to x_end.

    Alternates stiff layer integration (``radau.solve_ivp`` at rtol and atol
    = rtol/100, analytic Jacobian, stop levels v = +-1 where v leaves the
    layer) with closed-form exterior arcs.  When ``stop_at_downward_v0_after``
    is set, a downward v = 0 stop is added and the run terminates at the
    first such crossing past that abscissa (the Poincare section used by the
    regularized return map).  ``with_sensitivity`` also accumulates
    J = d/dv (dv/dx) along the path (a quadrature in the kernel, which leaves
    the steps unchanged), yielding the log-derivative of the flow map for
    contraction estimates.
    The returned trajectory has passed ``Trajectory.validate``.
    """
    if params.epsilon <= 0.0:
        raise DomainError("regularized simulation needs epsilon > 0")
    if not (math.isfinite(x0) and math.isfinite(v0) and math.isfinite(x_end)):
        raise DomainError(f"regularized simulation needs finite x0, v0, x_end; "
                          f"got {x0}, {v0}, {x_end}")
    if x_end < x0:
        raise DomainError(f"regularized simulation runs forward: x_end={x_end} < x0={x0}")
    e = params.epsilon
    a = params.a
    atol = rtol / 100.0
    traj = Trajectory(params=params, model=model)
    log_sens = 0.0
    rate, rate_dv = layer_system(model, params)
    # v leaves the layer through +-1; the section is the downward v = 0
    stops = [(1.0, +1), (-1.0, -1)]
    if stop_at_downward_v0_after is not None:
        stops.append((0.0, -1))

    x, v = x0, v0
    mode = "layer" if abs(v) <= 1.0 else "ext"
    side = 0 if mode == "layer" else (1 if v > 0 else -1)
    for _guard in range(_EVENT_BUDGET):
        if x >= x_end:
            break
        if mode == "layer":
            v_in = min(max(v, -1.0 + _NUDGE), 1.0 - _NUDGE)
            sol = solve_ivp(rate, rate_dv, (x, x_end), v_in, rtol, atol, stops,
                            with_sensitivity)
            if sol.status < 0:
                raise LayerIntegrationError(f"layer integration failed: {sol.message}",
                                            sol.t[-1], sol.v_end, sol.h_last)
            x1 = sol.t[-1]
            level = sol.v_end if sol.stop is None else stops[sol.stop][0]
            traj.segments.append(TrajectorySegment(Mode.LAYER, x, x1, v_in, level,
                                                   sol.sol.value))
            if sol.stop is None:
                x = x1
                continue
            if with_sensitivity:
                # section-map log-derivative: rate-in/rate-out factors plus
                # the integrated dF/dv along the arc
                log_sens += (sol.j_end + math.log(abs(rate(x, v_in)))
                             - math.log(abs(rate(x1, level))))
            if level == 0.0:
                if x1 > stop_at_downward_v0_after:
                    traj.section_x = x1
                    break
                x, v = x1, -_NUDGE
                continue
            x, v, side = x1, level, int(level)
            traj.events.append(TrajectoryEvent(x=x, kind="layer-exit", branch=side))
            mode = "ext"
        else:
            xr = _ext_return(side, x, v, params)
            seg_end = min(xr, x_end)
            traj.segments.append(TrajectorySegment(
                Mode.FLOW_PLUS if side > 0 else Mode.FLOW_MINUS, x, seg_end, v,
                float(side) if xr <= x_end else math.nan,
                partial(_exterior_v, side, x, v, params)))
            if with_sensitivity and xr <= x_end:
                r_out = abs(flow_from_deriv(side, x, x, e * v, params))
                r_in = abs(flow_from_deriv(side, xr, x, e * v, params))
                log_sens += math.log(r_out) - math.log(r_in) - a * (xr - x)
            if xr > x_end:
                x = x_end
                break
            traj.events.append(TrajectoryEvent(x=xr, kind="layer-entry", branch=side))
            x, v, mode = xr, float(side), "layer"
    else:
        raise SolverError(
            f"regularized event budget of {_EVENT_BUDGET} arcs exhausted before "
            f"x_end={x_end!r}: {mode} arc next at x={x!r}, v={v!r}, last events "
            f"{traj.events[-3:]}")
    if with_sensitivity:
        traj.log_sensitivity = log_sens
    traj.validate()
    return traj



# ---------------------------------------------------------------------------
# slow manifolds, exit points, scaling fits (nonlinear model)


def slow_manifold_expansion(n: int, x: float, params: OscillatorParams) -> dict:
    """First-order slow manifold of the attracting branch 2n: v0 + eps*v1.

    v1 = (-1)^(2n+1) * 2 (v0' + a v0) / (pi x psi'(v0)) = -2(v0' + a v0)/(pi x psi'),
    with v0' = lambda'(x)/psi'(v0) computed analytically.  Valid away from the
    folds: psi'(v0) > 0.1 is enforced.
    """
    guard = 0.1
    nu = 2 * n
    b = _nonlinear_branch(nu)
    v0 = psi_inverse(b.lambda_of(x))
    sp = psi_prime(v0)
    if not sp > guard:
        raise DomainError(f"fold proximity: psi'(v0)={sp} <= guard {guard} at x={x}")
    v0p = b.lambda_prime(x) / sp
    v1 = -2.0 * (v0p + params.a * v0) / (math.pi * x * sp)
    return {"v0": v0, "v1": v1,
            "v_first_order": v0 + params.epsilon * v1,
            "v0_prime": v0p}


@dataclass
class ExitMeasurement:
    n: int
    x_e: float
    fold_x: float
    delay: float
    trajectory: Trajectory


def capture_start(n: int, offset_frac: float = 0.25) -> tuple[float, float]:
    """A start state just above the attracting branch 2n, inside its basin.

    The basin ceiling is the adjacent repelling branch, a lambda-gap of 2/x
    away (ageing packs branches ~1/n apart), so the offset scales with it.
    """
    nu = 2 * n
    xs = float(nu)  # lambda = 0 there; mid-branch
    v0 = psi_inverse(_nonlinear_branch(nu).lambda_of(xs))
    gap = (2.0 / xs) / psi_prime(v0)
    return xs, v0 + offset_frac * gap


def measure_exit_point(n: int, params: OscillatorParams,
                       rtol: float = 1e-10) -> ExitMeasurement:
    """Layer exit point x_e of a trajectory captured on the attracting branch 2n.

    Integrates from the first-order slow manifold at x = 3n (well inside the
    branch) to the v = -1 exit event; the delay past the boundary fold
    x^-_(eps,2n) is the Riccati-scaling observable (expected (eps^2/n)^(1/3)).
    """
    nu = 2 * n
    xs = 1.5 * nu
    vs = slow_manifold_expansion(n, xs, params)["v_first_order"]
    traj = simulate_regularized(SwitchingModel.NONLINEAR, params, xs, vs,
                                x_end=2.0 * nu + 1.0, rtol=rtol)
    exits = [ev.x for ev in traj.events if ev.kind == "layer-exit" and ev.branch == -1]
    if not exits:
        raise SolverError(f"trajectory was not captured/did not exit for n={n}")
    fold = fold_points(-1, nu, params)
    if not exits[0] > fold:
        raise SolverError(f"exit {exits[0]} not past the fold {fold}; not captured")
    return ExitMeasurement(n=n, x_e=exits[0], fold_x=fold,
                           delay=exits[0] - fold, trajectory=traj)


@dataclass
class ScalingFit:
    """Log-log regression of a power law; r_squared is reported, never assumed."""

    exponent: float
    intercept: float
    r_squared: float
    samples: list[tuple[float, float]]

    @property
    def decades(self) -> float:
        xs = [s[0] for s in self.samples]
        return math.log10(max(xs) / min(xs))


def fit_power_law(samples: list[tuple[float, float]],
                  min_samples: int = 4, min_decades: float = 0.0) -> ScalingFit:
    if len(samples) < min_samples:
        raise DomainError(f"need >= {min_samples} samples, got {len(samples)}")
    lx = np.log([s[0] for s in samples])
    ly = np.log([s[1] for s in samples])
    if (lx.max() - lx.min()) / math.log(10.0) < min_decades - 1e-9:
        raise DomainError(
            f"samples span {(lx.max() - lx.min()) / math.log(10):.2f} decades, "
            f"need >= {min_decades}")
    slope, intercept = np.polyfit(lx, ly, 1)
    pred = slope * lx + intercept
    ss_res = float(np.sum((ly - pred) ** 2))
    ss_tot = float(np.sum((ly - ly.mean()) ** 2))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return ScalingFit(exponent=float(slope), intercept=float(intercept),
                      r_squared=r2, samples=list(samples))


def exit_scaling_fit(a: float, eps_grid: list[float], n_fixed: int,
                     n_grid: list[int], eps_fixed: float) -> tuple[ScalingFit, ScalingFit]:
    """Exit-delay scaling in eps (fixed n) and in n (fixed eps).

    Expected exponents 2/3 and -1/3.  The smallest branches (n < 3) and large
    a*eps (> 0.01) sit outside the asymptotic regime and are excluded.
    """
    eps_samples = []
    for eps in sorted(eps_grid):
        if a * eps > 0.01:
            continue
        m = measure_exit_point(n_fixed, OscillatorParams(a=a, epsilon=eps))
        eps_samples.append((eps, m.delay))
    n_samples = []
    for n in sorted(n_grid):
        if n < 3:
            continue
        m = measure_exit_point(n, OscillatorParams(a=a, epsilon=eps_fixed))
        n_samples.append((float(n), m.delay))
    fit_eps = fit_power_law(eps_samples, min_samples=4, min_decades=2.0)
    fit_n = fit_power_law(n_samples, min_samples=4)
    return fit_eps, fit_n


# ---------------------------------------------------------------------------
# the regularized linear maps

#: Integrator rtol of every P_eps run.
_PMAP_RTOL = 1e-11


def _section_return(x: float, params: OscillatorParams,
                    with_sensitivity: bool = False) -> Trajectory:
    """The linear-model run from (x, -1e-12) to its next downward v = 0 crossing.

    A start at (x, 0) would stop at once where the field points down, as for
    x in (0, 1); where it points up, the run begins 1e-12 below the section.
    """
    traj = simulate_regularized(SwitchingModel.LINEAR, params, x, -_NUDGE,
                                x_end=x + 12.0, rtol=_PMAP_RTOL,
                                stop_at_downward_v0_after=x + 0.5,
                                with_sensitivity=with_sensitivity)
    if traj.section_x is None:
        raise SolverError(f"P_eps: no section return from x={x}")
    return traj


def _require_no_capture(traj: Trajectory) -> None:
    if traj.captured_spans():
        raise CaptureError(
            f"layer capture at {traj.captured_spans()}; non-sliding regime violated")


def regularized_poincare_linear(x: float, params: OscillatorParams,
                                allow_capture: bool = False) -> float:
    """P_eps(x): return map of the regularized linear system on {v = 0, downward}.

    Follows the full hybrid trajectory (layer transits plus exterior arcs)
    until the next downward v = 0 crossing, at rtol 1e-11.
    Without ``allow_capture`` a layer arc longer than
    ``capture_threshold(eps)`` raises CaptureError: the orbit left the
    non-sliding regime.
    """
    if params.epsilon <= 0.0:
        raise DomainError("regularized map needs epsilon > 0")
    traj = _section_return(x, params)
    if not allow_capture:
        _require_no_capture(traj)
    return traj.section_x


#: Newton iterates (bisection steps included) before the fixed-point solve gives up.
_FIXED_POINT_RUNS = 40
#: A Newton step shorter than this ends the fixed-point solve.
_FIXED_POINT_XTOL = 1e-12


def _fixed_point_orbit(params: OscillatorParams, bracket: tuple[float, float],
                       allow_capture: bool) -> tuple[float, Trajectory]:
    """Root of g(x) = P_eps(x) - (x + 4) in ``bracket`` and the orbit from it.

    Newton on g' = P_eps' - 1, where P_eps' = exp(log_sensitivity) > 0 comes
    from the variational equation of the same run that gives P_eps, so one
    iterate costs one run.  Iterates start at the bracket midpoint and never
    leave the bracket.  When a Newton step would leave it, or the step that
    led to the current iterate did not halve |g|, the next iterate is the
    bisection point; the bracket ends are evaluated only then, to learn which
    side holds the root.  Only scalars of rejected iterates are kept, so one
    trajectory is alive at a time.  Without ``allow_capture`` the returned
    orbit must be capture-free.
    """
    lo, hi = sorted(bracket)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"fixed-point bracket must be finite, got {bracket}")

    def run(x):
        traj = _section_return(x, params, with_sensitivity=True)
        return traj.section_x - (x + 4.0), math.expm1(traj.log_sensitivity), traj

    g_lo = None  # g at lo, unknown until a bisection needs the ends
    x, g_ref = 0.5 * (lo + hi), math.inf  # g_ref: |g| a Newton step must halve
    for _ in range(_FIXED_POINT_RUNS):
        traj = None
        gx, dg, traj = run(x)
        last = x, gx
        step = -gx / dg if dg != 0.0 else math.inf
        if abs(step) < _FIXED_POINT_XTOL:
            if not allow_capture:
                _require_no_capture(traj)
            return x, traj
        if g_lo is None and not (lo <= x + step <= hi and abs(gx) <= 0.5 * g_ref):
            traj = None
            g_lo, g_hi = run(lo)[0], run(hi)[0]
            if g_lo * g_hi > 0.0:
                raise DomainError(
                    f"no fixed point of P_eps in [{lo}, {hi}]: "
                    f"g = {g_lo} and {g_hi} at the ends")
        if g_lo is not None:  # keep the sign change inside [lo, hi]
            if (gx > 0.0) == (g_lo > 0.0):
                lo, g_lo = x, gx
            else:
                hi = x
        if lo <= x + step <= hi and abs(gx) <= 0.5 * g_ref:
            x, g_ref = x + step, abs(gx)
        else:
            x, g_ref = 0.5 * (lo + hi), math.inf
    raise SolverError(
        f"fixed-point iteration did not converge in {_FIXED_POINT_RUNS} runs: last "
        f"iterate x={last[0]!r}, g={last[1]!r}, bracket=({lo!r}, {hi!r})")


def regularized_fixed_point(params: OscillatorParams,
                            bracket: tuple[float, float]) -> float:
    """Fixed point of P_eps(x) - (x + 4) inside ``bracket`` (ends in either order).

    Solved by Newton's method on the variational derivative P_eps' of each
    run, guarded by the bracket with bisection as fallback; the located
    iterate is returned once its Newton step falls below 1e-12.  The return
    map stays total when an iterate brushes a sliding branch, so the
    iteration tolerates capture; the orbit at the located fixed point must
    then be capture-free (the non-sliding regime check applies to the orbit,
    not to probe points), or CaptureError is raised.  A bracket without a
    fixed point raises DomainError; an iteration that does not converge
    raises SolverError with its last iterate, g and bracket.
    """
    return _fixed_point_orbit(params, bracket, allow_capture=False)[0]


@dataclass
class RegSlidingOrbit:
    fixed_point: float
    trajectory: Trajectory
    log_contraction: float
    sliding_span: tuple[float, float]


def find_regularized_sliding_orbit_linear(a: float,
                                          params: OscillatorParams) -> RegSlidingOrbit:
    """Regularized sliding period-4 orbit of the linear model (large-a regime).

    Locates the fixed point of P_eps in (0.02, 0.64) by the Newton iteration
    of ``regularized_fixed_point``, with capture allowed, and verifies that
    the orbit from it carries a captured layer segment (the slide along the
    attracting critical branch).  Its contraction is the variational
    log-derivative log P_eps' of that same final run, which resolves the
    exponential smallness; so the solve makes only its Newton runs.
    """
    if params.a != a:
        raise DomainError("params.a must equal a")
    fp, orbit = _fixed_point_orbit(params, (0.02, 0.64), allow_capture=True)
    captured = orbit.captured_spans()
    if not captured:
        raise NoOrbitError(
            f"no sliding (captured) segment on the orbit at a={a}, "
            f"eps={params.epsilon}: not in the sliding regime")
    return RegSlidingOrbit(
        fixed_point=fp,
        trajectory=orbit,
        log_contraction=orbit.log_sensitivity,
        sliding_span=captured[0],
    )


# ---------------------------------------------------------------------------
# the asymptotic periodic object v_r (nonlinear model)


@dataclass
class VrReference:
    """One 4-window of the asymptotic periodic object.

    Piece 1 is the exterior dip v_-(x) from the fold (x^-_(eps,2n), -1);
    piece 2 clamps to -1 until the window ends at x^-_(eps,2n+2).
    """

    n: int
    x_start: float
    x_reentry: float
    x_eps_a: float
    params: OscillatorParams

    def eval(self, xq) -> np.ndarray:
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        dip = _exterior_v(-1, self.x_start, -1.0, self.params, np.maximum(xq, self.x_start))
        return np.where(xq <= self.x_reentry, dip, -1.0)


def v_r_reference(n: int, params: OscillatorParams) -> VrReference:
    if params.epsilon <= 0.0:
        raise DomainError("v_r needs epsilon > 0")
    xs = fold_points(-1, 2 * n, params)
    xr = _ext_return(-1, xs, -1.0, params)
    x_eps_a = xr - xs
    lo = 2.0 - 2.0 * math.asin(params.a * params.epsilon)
    if not lo < x_eps_a < 4.0:
        raise SolverError(f"x_eps_a={x_eps_a} outside ({lo}, 4)")
    return VrReference(n=n, x_start=xs, x_reentry=xr, x_eps_a=x_eps_a, params=params)


def convergence_to_vr(traj: Trajectory, n_lo: int, n_hi: int) -> list[dict]:
    """Per-window sup distance to v_r plus distinctness of consecutive windows,
    each over 1200 points of the window."""
    params = traj.params
    rows = []
    for n in range(n_lo, n_hi + 1):
        vr = v_r_reference(n, params)
        xs = np.linspace(vr.x_start, vr.x_start + 4.0, 1200)
        if xs[0] < traj.x_start or xs[-1] + 4.0 > traj.x_end:
            raise DomainError(
                f"trajectory [{traj.x_start}, {traj.x_end}] does not cover window n={n}")
        v = traj.eval(xs)
        rows.append({
            "n": n,
            "sup_distance": float(np.max(np.abs(v - vr.eval(xs)))),
            "consecutive_distance": float(np.max(np.abs(v - traj.eval(xs + 4.0)))),
        })
    return rows
