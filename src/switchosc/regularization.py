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

A layer transit, an arc that crosses the strip in O(eps) of x, is run in the
v form: u = sigma v is the independent variable and x the state,
dx/du = sigma / rate (``transit_system``), which is not stiff, so it takes
about a fifth of the kernel steps.  A capture has no monotone x(u), so the
guard ``_may_capture`` keeps an arc in the x form where an attracting branch
at its start reaches past ``capture_threshold(eps)`` beyond it.  A v-form
arc that meets the capture stop at x_start + ``capture_threshold(eps)``, or
whose kernel run fails, is rerun in the x form from its start.

A run is a ``core.Trajectory`` in (x, v): each x-form layer arc keeps the
kernel's dense output (the step's cubic in numpy) as its evaluator, each
v-form arc a ``TransitDense`` (v(x) by inverting a quintic Hermite x(u) per
step) and each exterior arc the closed form ``flow_from_array``, so
``Trajectory.eval`` serves v on arrays; ``v_r`` is evaluated the same way.

Fixed points of the regularized return map P_eps are found by
``poincare.section_fixed_point``, the Newton driver of the discontinuous map
too: a run with a ``section_after`` yields P_eps(x) and log P_eps'(x) in the
steps of a plain run (the kernel carries J' = d/dv (dv/dx) as a quadrature,
or d/dx (dx/du) on a v-form arc, whose integral is log(dx_out/dx_in)
itself), so each iterate costs one run.
"""

from __future__ import annotations

import itertools
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
    branch,
    branch_indices,
    capture_threshold,
    forcing,
    forcing_dlam,
    forcing_dx,
    omega,
)
# flow_from stays bound here: the benchmark's tracer patches it by name
from .analytic_flow import flow_from, flow_from_array, flow_from_deriv, next_contact
# next_crossing is looked up in poincare at each call: the benchmark's tracer
# patches it there
from . import poincare
from .radau import solve_ivp

_NUDGE = 1e-12
#: Layer solves and exterior arcs before a regularized run gives up.
_EVENT_BUDGET = 6000
#: Slope evaluations a layer transit in the v form may take before it is
#: rerun in the x form.
_TRANSIT_EVALUATIONS = 10000


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
    perfbench tracer) sees every evaluation.  The field is psi itself: a stage
    just past the strip sees psi's cubic continuation, and past |v| = 2, where
    psi leaves [-1, 1] and ``core.forcing`` is undefined, the rate is NaN.  The
    kernel takes a NaN trial evaluation as a failed step and halves it, so a
    trial past the strip is recoverable, and a run that leaves the strip
    without a stop ends with the kernel's step-size failure.
    """
    e = params.epsilon
    a = params.a

    def rate(x, v):
        lam = psi(v)
        if not -1.0 <= lam <= 1.0:
            return math.nan
        return (-a * e * v - forcing(model, x, lam)) / e

    def rate_dv(x, v):
        return (-a * e - forcing_dlam(model, x, psi(v)) * psi_prime(v)) / e

    return rate, rate_dv


def transit_system(model: SwitchingModel, params: OscillatorParams, sigma: float):
    """The layer ODE with u = sigma v as the independent variable and x as the
    state: dx/du = sigma / rate(x, sigma u), sigma = +-1 the sign of the rate.

    Returns ``(slope, slope_dx)`` in ``radau.solve_ivp``'s (t, y) order: the
    slope dx/du and its derivative d slope / dx = sigma f_x / (eps rate^2),
    the Jacobian and, with a sensitivity, the J' whose quadrature is
    log(dx_out/dx_in).  Across a transit the rate keeps its sign and is
    O(1/eps), so x(u) is smooth and the problem is not stiff.  The kernel
    takes a NaN as a failed step, and the slope is NaN where the rate is zero
    or has the other sign (x(u) turns vertical there, or a Newton iterate
    went to the mirror branch of a start on a zero of the rate, where x
    falls) and past ``_TRANSIT_EVALUATIONS`` evaluations (where x stalls
    below a point where the field is undefined, steps too short to move x
    would go on).  Where its derivative overflows, the kernel ends the run on
    the non-finite Jacobian.  Like ``layer_system``, the closures look up
    ``forcing`` and ``forcing_dx`` in this module at each call.
    """
    e = params.epsilon
    rate = layer_system(model, params)[0]
    calls = itertools.count()

    def slope(u, x):
        r = rate(x, sigma * u)
        return sigma / r if sigma * r > 0.0 and next(calls) < _TRANSIT_EVALUATIONS else math.nan

    def slope_dx(u, x):
        r = rate(x, sigma * u)
        return sigma * forcing_dx(model, x, psi(sigma * u)) / e / r / r if r else math.nan

    return slope, slope_dx


class TransitDense:
    """v(x) on a layer arc run in the v form: the inverse of x(u).

    Between two step ends x(u) is the quintic Hermite polynomial of the end
    states and of dx/du and d2x/du2 there, both from the layer ODE.  The
    kernel's own dense output, a cubic, is only as good as the tolerance on
    x, which the rate, O(1/eps), magnifies into v (to about 1e-9 at rtol
    1e-11); the step ends are far better, and the quintic keeps that between
    them.  Each point's step is found among the step ends' x; a safeguarded
    Newton iteration on the step's quintic, started from the chord and kept
    inside a bracket that bisects whenever the Newton point leaves it, solves
    x(u) = x_q, vectorised over the points.  The ends give the arc's start
    and end levels exactly.  The derivatives are evaluated on the first call.
    """

    _ITERATIONS = 60

    def __init__(self, model: SwitchingModel, params: OscillatorParams, sigma: float,
                 sol, x1: float, v1: float):
        self.model, self.params, self.sigma, self.sol = model, params, sigma, sol
        self.x1, self.v1 = x1, v1
        self._table = None  # (u and x at the step ends, step sizes, coefficients)

    def _tabulate(self):
        us = np.array(self.sol.ts)
        xs = np.array([step[2] for step in self.sol.steps] + [self.x1])
        rate_dv = layer_system(self.model, self.params)[1]
        slope, slope_dx = transit_system(self.model, self.params, self.sigma)
        d1, d2 = [], []
        for u, x in zip(us.tolist(), xs.tolist()):
            s = slope(u, x)
            d1.append(s)
            # d/du slope(u, x(u)) = -rate_dv / rate^2 + slope_dx * slope
            d2.append(s * (slope_dx(u, x) - rate_dv(x, self.sigma * u) * s))
        h = np.diff(us)
        d1, d2 = np.array(d1), np.array(d2)
        a, b, c, d = h * d1[:-1], h * h * d2[:-1], h * d1[1:], h * h * d2[1:]
        gap = np.diff(xs)
        coefficients = (a, 0.5 * b,
                        10.0 * gap - 6.0 * a - 1.5 * b - 4.0 * c + 0.5 * d,
                        -15.0 * gap + 8.0 * a + 1.5 * b + 7.0 * c - d,
                        6.0 * gap - 3.0 * a - 0.5 * b - 3.0 * c + 0.5 * d)
        return us, xs, h, np.array(coefficients)

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        if self._table is None:
            self._table = self._tabulate()
        us, xs, h, coefficients = self._table
        j = np.clip(np.searchsorted(xs, xq, "left") - 1, 0, len(h) - 1)
        c1, c2, c3, c4, c5 = coefficients[:, j]
        offset = xs[j] - xq
        lo, hi = np.zeros(xq.shape), np.ones(xq.shape)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = np.clip(-offset / (xs[j + 1] - xs[j]), 0.0, 1.0)
            for _ in range(self._ITERATIONS):
                f = offset + t * (c1 + t * (c2 + t * (c3 + t * (c4 + t * c5))))
                lo = np.where(f < 0.0, t, lo)
                hi = np.where(f > 0.0, t, hi)
                newton = t - f / (c1 + t * (2.0 * c2 + t * (3.0 * c3 + t * (4.0 * c4
                                                                          + 5.0 * t * c5))))
                step = np.where((newton > lo) & (newton < hi), newton, 0.5 * (lo + hi))
                step = np.where(f == 0.0, t, step)
                if np.array_equal(step, t):
                    break
                t = step
        v = self.sigma * (us[j] + t * h[j])
        return np.where(xq == self.x1, self.v1, v)  # u + t h can miss the span's end


# ---------------------------------------------------------------------------
# layer geometry


def critical_branch(model: SwitchingModel, index: int, x: float) -> float:
    """v0 with psi(v0) = branch lambda(x); the layer image of a sliding branch."""
    return psi_inverse(branch(model, index).lambda_of(x))


def fold_points(sign: int, n: int, params: OscillatorParams) -> float:
    """x at which the layer boundary v = sign*1 is tangent to the field.

    x^+-_(eps,n) = x_n^+- +- (-1)^(n+1) arcsin(a eps) / (pi w+-) with
    x_n^+ = 2n/3, x_n^- = 2n; ``OscillatorParams`` guarantees a*eps < 1.
    """
    if sign not in (-1, 1):
        raise DomainError("sign must be +-1")
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


def _ext_return(side: int, x0: float, v0: float, params: OscillatorParams,
                x_end: float = math.inf) -> float:
    """Next x > x0 where the exterior flow from (x0, eps*v0) re-reaches y = side*eps.

    inf when that return lies past the first contact lattice point at or past
    x_end (see ``next_contact``).
    """
    e = params.epsilon
    return next_contact(side, x0, e * v0, side * e, params, x_end)


def _may_capture(model: SwitchingModel, x: float, epsilon: float) -> bool:
    """An attracting branch at x reaches past x + capture_threshold(eps).

    A layer arc from x can then be captured, so it keeps the x form.  Domain
    ends rise with the index, so the last attracting index at x has the
    largest end.
    """
    if abs(x) > 2.0**53:  # past branch_indices' range: keep the x form
        return True
    attracting = [n for n in branch_indices(model, x, x)[-2:]
                  if branch(model, n).stability == "attracting"]
    return bool(attracting) and (branch(model, attracting[-1]).domain[1]
                                 > x + capture_threshold(epsilon))


def _x_arc(model: SwitchingModel, params: OscillatorParams, x: float, v_in: float,
           x_end: float, rtol: float, section: bool):
    """A layer arc with x as the independent variable: any arc, captures too.

    Returns (x1, v1, evaluator, exited, log dx_out/dx_in).  ``exited`` is
    False where the arc reached x_end inside the layer (x1 = x_end, v1 the v
    there); the log-derivative is None then and outside a section run.
    """
    rate, rate_dv = layer_system(model, params)
    # v leaves the layer through +-1; the section is the downward v = 0
    stops = [(1.0, +1), (-1.0, -1)] + ([(0.0, -1)] if section else [])
    sol = solve_ivp(rate, rate_dv, (x, x_end), v_in, rtol, stops, section)
    if sol.status < 0:
        raise LayerIntegrationError(f"layer integration failed: {sol.message}",
                                    sol.t[-1], sol.v_end, sol.h_last)
    x1 = sol.t[-1]
    if sol.stop is None:
        return x1, sol.v_end, sol.sol.value, False, None
    level = stops[sol.stop][0]
    # the section-map log-derivative: the integrated dF/dv along the arc and
    # the rate-in/rate-out factors
    log_slope = (sol.j_end + math.log(abs(rate(x, v_in))) - math.log(abs(rate(x1, level)))
                 if section else None)
    return x1, level, sol.sol.value, True, log_slope


def _v_arc(model: SwitchingModel, params: OscillatorParams, x: float, v_in: float,
           x_end: float, rtol: float, section: bool):
    """A transit with u = sigma v as the independent variable and x as the state,
    returned as ``_x_arc`` returns an arc, or None where the x form must run.

    sigma is the sign of the rate at the start.  The u-span ends at the level
    where the transit leaves: v = sigma, or v = 0 for a falling arc from
    above the section of a section run.  Rising stops on x at x_end and at
    x + ``capture_threshold(eps)`` end it early: the first cuts the run, the
    second (a transit turning into a capture) gives None, as does a kernel
    failure.  The kernel's sensitivity is log(dx_out/dx_in) itself.
    """
    sigma = 1.0 if layer_system(model, params)[0](x, v_in) > 0.0 else -1.0
    level = 0.0 if section and sigma < 0.0 and v_in > 0.0 else sigma
    slope, slope_dx = transit_system(model, params, sigma)
    stops = [(x_end, +1), (x + capture_threshold(params.epsilon), +1)]
    sol = solve_ivp(slope, slope_dx, (sigma * v_in, sigma * level), x, rtol, stops, section)
    if sol.status < 0 or sol.stop == 1:
        return None
    exited = sol.stop is None
    x1, v1 = (sol.v_end, level) if exited else (x_end, sigma * sol.t[-1])
    return (x1, v1, TransitDense(model, params, sigma, sol.sol, x1, v1), exited,
            sol.j_end if exited else None)


def simulate_regularized(model: SwitchingModel, params: OscillatorParams,
                         x0: float, v0: float, x_end: float,
                         rtol: float = 1e-10,
                         section_after: float | None = None) -> Trajectory:
    """Full regularized trajectory from (x0, v0) to x_end.

    Alternates layer integration (``radau.solve_ivp`` at rtol, analytic
    Jacobian; stop levels v = +-1 where v leaves the layer, or in the v form
    the level as the span's end) with closed-form exterior arcs.  With
    ``section_after`` set the run is a section run of the regularized return
    map: a downward v = 0 stop is added, the run terminates at the first
    such crossing past that abscissa (``section_x``), and ``log_sensitivity``
    accumulates J = d/dv (dv/dx) along the path (a quadrature in the kernel,
    which leaves the steps unchanged), the log-derivative of the flow map for
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
    traj = Trajectory(params=params, model=model)
    log_sens = 0.0
    section = section_after is not None

    x, v = x0, v0
    mode = "layer" if abs(v) <= 1.0 else "ext"
    side = 0 if mode == "layer" else (1 if v > 0 else -1)
    for _guard in range(_EVENT_BUDGET):
        if x >= x_end:
            break
        if mode == "layer":
            v_in = min(max(v, -1.0 + _NUDGE), 1.0 - _NUDGE)
            arc = (None if _may_capture(model, x, e)
                   else _v_arc(model, params, x, v_in, x_end, rtol, section))
            if arc is None:
                arc = _x_arc(model, params, x, v_in, x_end, rtol, section)
            x1, level, evaluator, exited, log_slope = arc
            traj.segments.append(TrajectorySegment(Mode.LAYER, x, x1, v_in, level, evaluator))
            if not exited:
                x = x1
                continue
            if section:
                log_sens += log_slope
            if level == 0.0:
                if x1 > section_after:
                    traj.section_x = x1
                    break
                x, v = x1, -_NUDGE
                continue
            x, v, side = x1, level, int(level)
            traj.events.append(TrajectoryEvent(x=x, kind="layer-exit", branch=side))
            mode = "ext"
        else:
            xr = _ext_return(side, x, v, params, x_end)
            seg_end = min(xr, x_end)
            traj.segments.append(TrajectorySegment(
                Mode.FLOW_PLUS if side > 0 else Mode.FLOW_MINUS, x, seg_end, v,
                float(side) if xr <= x_end else math.nan,
                partial(_exterior_v, side, x, v, params)))
            if section and xr <= x_end:
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
    if section:
        traj.log_sensitivity = log_sens
    traj.validate()
    return traj



# ---------------------------------------------------------------------------
# slow manifolds, exit points, scaling fits (nonlinear model)


def slow_manifold_expansion(n: int, x: float, params: OscillatorParams) -> dict:
    """First-order slow manifold of the attracting branch 2n: v0 + eps*v1.

    v1 = (-1)^(2n+1) * 2 (v0' + a v0) / (pi x psi'(v0)) = -2(v0' + a v0)/(pi x psi'),
    with v0' = lambda'(x)/psi'(v0) and lambda'(x) = -2*2n/x^2.  Valid away from the
    folds: psi'(v0) > 0.1 is enforced.
    """
    guard = 0.1
    nu = 2 * n
    b = branch(SwitchingModel.NONLINEAR, nu)
    v0 = psi_inverse(b.lambda_of(x))
    sp = psi_prime(v0)
    if not sp > guard:
        raise DomainError(f"fold proximity: psi'(v0)={sp} <= guard {guard} at x={x}")
    v0p = -2.0 * nu / (x * x) / sp
    v1 = -2.0 * (v0p + params.a * v0) / (math.pi * x * sp)
    return {"v0": v0, "v1": v1,
            "v_first_order": v0 + params.epsilon * v1,
            "v0_prime": v0p}


@dataclass
class ExitMeasurement:
    x_e: float
    fold_x: float
    delay: float
    trajectory: Trajectory


#: ``capture_start``'s offset above the attracting branch, as a fraction of
#: the lambda-gap to the repelling branch above it.
_CAPTURE_OFFSET = 0.25


def capture_start(n: int) -> tuple[float, float]:
    """A start state just above the attracting branch 2n, inside its basin.

    The basin ceiling is the adjacent repelling branch, a lambda-gap of 2/x
    away (ageing packs branches ~1/n apart), so the offset scales with it.
    """
    nu = 2 * n
    xs = float(nu)  # lambda = 0 there; mid-branch
    v0 = psi_inverse(branch(SwitchingModel.NONLINEAR, nu).lambda_of(xs))
    gap = (2.0 / xs) / psi_prime(v0)
    return xs, v0 + _CAPTURE_OFFSET * gap


def measure_exit_point(n: int, params: OscillatorParams) -> ExitMeasurement:
    """Layer exit point x_e of a trajectory captured on the attracting branch 2n.

    Integrates from the first-order slow manifold at x = 3n (well inside the
    branch) to the v = -1 exit event; the delay past the boundary fold
    x^-_(eps,2n) is the Riccati-scaling observable (expected (eps^2/n)^(1/3)).
    """
    nu = 2 * n
    xs = 1.5 * nu
    vs = slow_manifold_expansion(n, xs, params)["v_first_order"]
    traj = simulate_regularized(SwitchingModel.NONLINEAR, params, xs, vs,
                                x_end=2.0 * nu + 1.0)
    exits = [ev.x for ev in traj.events if ev.kind == "layer-exit" and ev.branch == -1]
    if not exits:
        raise SolverError(f"trajectory was not captured/did not exit for n={n}")
    fold = fold_points(-1, nu, params)
    if not exits[0] > fold:
        raise SolverError(f"exit {exits[0]} not past the fold {fold}; not captured")
    return ExitMeasurement(x_e=exits[0], fold_x=fold,
                           delay=exits[0] - fold, trajectory=traj)


@dataclass
class ScalingFit:
    """Log-log regression of a power law; r_squared is reported, never assumed."""

    exponent: float
    intercept: float
    r_squared: float
    samples: list[tuple[float, float]]


#: Fewest samples ``fit_power_law`` fits.
_MIN_FIT_SAMPLES = 4


def fit_power_law(samples: list[tuple[float, float]],
                  min_decades: float = 0.0) -> ScalingFit:
    if len(samples) < _MIN_FIT_SAMPLES:
        raise DomainError(f"need >= {_MIN_FIT_SAMPLES} samples, got {len(samples)}")
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
    a*eps (> 0.01) sit outside the asymptotic regime: a grid point or a fixed
    value there raises DomainError.
    """
    for what, eps in [*((f"eps = {e} of the eps grid", e) for e in eps_grid),
                      (f"eps_fixed = {eps_fixed}", eps_fixed)]:
        if a * eps > 0.01:
            raise DomainError(f"{what} gives a*eps = {a * eps:g} > 0.01, "
                              f"outside the asymptotic regime")
    for what, n in [*((f"n = {m} of the n grid", m) for m in n_grid),
                    (f"n_fixed = {n_fixed}", n_fixed)]:
        if n < 3:
            raise DomainError(f"{what} is below 3, outside the asymptotic regime")
    eps_samples = [(eps, measure_exit_point(n_fixed, OscillatorParams(a=a, epsilon=eps)).delay)
                   for eps in sorted(eps_grid)]
    n_samples = [(float(n), measure_exit_point(n, OscillatorParams(a=a, epsilon=eps_fixed)).delay)
                 for n in sorted(n_grid)]
    fit_eps = fit_power_law(eps_samples, min_decades=2.0)
    fit_n = fit_power_law(n_samples)
    return fit_eps, fit_n


# ---------------------------------------------------------------------------
# the regularized linear maps

#: Integrator rtol of every P_eps run.
_PMAP_RTOL = 1e-11


def _section_return(x: float, params: OscillatorParams) -> tuple[float, float, Trajectory]:
    """(P_eps(x), log P_eps'(x), run): the run ``section_fixed_point`` iterates.

    The linear-model run goes from (x, -1e-12) to its next downward v = 0
    crossing.  A start at (x, 0) would stop at once where the field points
    down, as for x in (0, 1); where it points up, the run begins 1e-12 below.
    """
    traj = simulate_regularized(SwitchingModel.LINEAR, params, x, -_NUDGE,
                                x_end=x + 12.0, rtol=_PMAP_RTOL, section_after=x + 0.5)
    if traj.section_x is None:
        raise SolverError(f"P_eps: no section return from x={x}")
    return traj.section_x, traj.log_sensitivity, traj


def _require_no_capture(traj: Trajectory) -> None:
    if traj.captured_spans():
        raise CaptureError(
            f"layer capture at {traj.captured_spans()}; non-sliding regime violated")


def regularized_poincare_linear(x: float, params: OscillatorParams) -> float:
    """P_eps(x): return map of the regularized linear system on {v = 0, downward}.

    Follows the full hybrid trajectory (layer transits plus exterior arcs)
    until the next downward v = 0 crossing, at rtol 1e-11.  A layer arc
    longer than ``capture_threshold(eps)`` raises CaptureError: the orbit left
    the non-sliding regime.
    """
    px, _, traj = _section_return(x, params)  # DomainError unless epsilon > 0
    _require_no_capture(traj)
    return px


def regularized_fixed_point(params: OscillatorParams,
                            bracket: tuple[float, float]) -> float:
    """Fixed point of P_eps(x) - (x + 4) inside ``bracket`` (ends in either order).

    Solved by ``poincare.section_fixed_point`` on the runs' variational
    derivative P_eps'.  The iterates may be captured by a sliding branch; the
    orbit at the located fixed point must not, or CaptureError is raised.  A
    bracket without a fixed point raises DomainError, an iteration that does
    not converge SolverError with its last iterate, g and bracket.
    """
    x, _, orbit = poincare.section_fixed_point(partial(_section_return, params=params),
                                               bracket)
    _require_no_capture(orbit)
    return x


#: Largest half-width of the sliding solve's bracket about its discontinuous orbit.
_SLIDING_BRACKET = 0.08


@dataclass
class RegSlidingOrbit:
    fixed_point: float
    trajectory: Trajectory
    log_contraction: float
    sliding_span: tuple[float, float]


def find_regularized_sliding_orbit_linear(a: float,
                                          params: OscillatorParams) -> RegSlidingOrbit:
    """Regularized sliding period-4 orbit of the linear model (large-a regime).

    Locates the fixed point of P_eps as ``regularized_fixed_point`` does, in
    a bracket centred on the discontinuous sliding orbit's section point
    c = P_+(10/3) - 4, which lies in (0, 2/3), with half-width
    min(0.08, c/2); the first Newton run starts at c.  It requires a
    captured layer segment on the orbit from the fixed point (the slide along
    the attracting critical branch).  Its contraction is log P_eps' of that
    same run, which resolves the exponential smallness; so the solve makes
    only its Newton runs and one ``next_crossing``.
    """
    if params.a != a:
        raise DomainError("params.a must equal a")
    c = poincare.next_crossing(+1, 10.0 / 3.0, OscillatorParams(a=a)).x_next - 4.0
    half = min(_SLIDING_BRACKET, c / 2.0)
    fp, _, orbit = poincare.section_fixed_point(partial(_section_return, params=params),
                                                (c - half, c + half))
    captured = orbit.captured_spans()
    if not captured:
        raise NoOrbitError(
            f"no sliding (captured) segment on the orbit at a={a}, "
            f"eps={params.epsilon}: not in the sliding regime")
    return RegSlidingOrbit(fixed_point=fp, trajectory=orbit,
                           log_contraction=orbit.log_sensitivity, sliding_span=captured[0])


# ---------------------------------------------------------------------------
# the asymptotic periodic object v_r (nonlinear model)


@dataclass
class VrReference:
    """One 4-window of the asymptotic periodic object.

    Piece 1 is the exterior dip v_-(x) from the fold (x^-_(eps,2n), -1);
    piece 2 clamps to -1 until the window ends at x^-_(eps,2n+2).
    """

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
    return VrReference(x_start=xs, x_reentry=xr, x_eps_a=x_eps_a, params=params)


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
