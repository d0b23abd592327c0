"""Crossing-to-crossing maps and the non-sliding period-4 orbit (linear model).

The next threshold contact after a departure at (x_i, 0) is the first positive
zero of the crossing function h.  h has a trivial zero at 0 (double when the
departure is tangent), so the solver never probes near 0.  Its probes are a
grid whose step resolves both the oscillation (1/(8w)) and the decay (1/(4a)),
and the zeros of the comparison function h0: the lattice 2k/w and its shift by
a start that depends on x_i.  The hinf lattice is not probed.  h is evaluated
on all probes in one array call.  The probes stay unsorted: the bracket's
upper end is the smallest probe at which h has left the sign of y, its lower
end the largest probe below that (or 0).  brentq polishes it on h, with the
phase of x_i computed once.

``next_crossing`` takes one departure and reports x_next and brentq's
iterations; the sequential hybrid engine uses it.  ``next_crossing_array``
takes a 1-D array of independent departures, brackets them in passes of at
most MAX_POINTS probes and returns each x_next, nan where the scalar form
raises.  The two share the probes, the departure test and the polish, so
their crossings are bit-identical.  The period-4 scan, the margin table, the
a -> 0 scenario and the map table use the array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq

from .core import (
    DomainError,
    NoOrbitError,
    OscillatorParams,
    Region,
    SolverError,
    classify_threshold_point,
    cospi,
    omega,
    sinpi,
)
from .analytic_flow import MAX_POINTS, h0_zeros, h_array, varphi_over_pi
# h stays bound here, unused: the benchmark's tracer patches it by name
from .analytic_flow import h  # noqa: F401

BRACKET_WIDTH = 1e-13
#: Largest |h| accepted at a polished crossing.
RESIDUAL_TOL = 1e-12
#: Scan horizon of a departure, in units of 1/w.
HORIZON = 6.0
#: Most departures bracketed in one pass of ``next_crossing_array``.
ROWS_PER_PASS = 1024

#: Window of crossing departures into S_- for the composite map (mod 4).
I_MINUS = (0.0, 2.0 / 3.0)


@dataclass
class PoincareResult:
    """The next crossing and brentq's iterations (0 at an exact probe zero)."""

    x_next: float
    iterations: int


def _departure_ok(sign: int, x_i: float) -> bool:
    """Field at (x_i, 0) permits leaving into S_sign (transversally or tangentially).

    sin(w pi x_i) at a tangency point carries the rounding of x_i itself, about
    w pi ulp(x_i), so the tangency test widens with |x_i| on long runs.
    """
    w = omega(sign)
    dy = -sinpi(w * x_i)
    if abs(dy) <= max(1e-12, 8.0 * math.pi * w * math.ulp(x_i)):
        # tangent departure: the curvature -w pi cos(w pi x_i) must bend into S_sign
        return sign * (-w * math.pi * cospi(w * x_i)) > 0.0
    return sign * dy > 0.0


def _probe_count(sign: int, x_i: float, params: OscillatorParams) -> int:
    """A bound on the probes of one departure: the uniform grid and 12 zeros of h0.

    Raises SolverError past MAX_POINTS, where the decay step 1/(4a) is tiny.
    """
    w = omega(sign)
    count = HORIZON * max(8.0, 4.0 * params.a / w) + 13.0
    if not count <= MAX_POINTS:
        raise SolverError(f"the departure ({x_i!r}, 0.0) into S_{sign:+d} at a={params.a!r} "
                          f"needs {count:.3g} probes up to x = {x_i + HORIZON / w!r}, "
                          f"more than {MAX_POINTS}")
    return int(count)


def _probes(sign: int, x_i: "float | np.ndarray",
            params: OscillatorParams) -> np.ndarray:
    """Scan abscissae xbar, unsorted, nan outside (floor, horizon].

    The uniform grid, whose step resolves both the oscillation (1/(8w)) and the
    decay (1/(4a)), then the zeros of the comparison function h0.  An array of
    departures gives one row each.  Callers size it by ``_probe_count`` first.
    """
    w = omega(sign)
    horizon = HORIZON / w
    step = min(1.0 / (8.0 * w), 1.0 / (4.0 * params.a))
    uniform = np.arange(1, math.floor(horizon / step) + 2) * step
    zeros = h0_zeros(sign, np.asarray(x_i), params, horizon)
    t = np.empty(zeros.shape[:-1] + (uniform.size + zeros.shape[-1],))
    t[..., :uniform.size] = uniform
    t[..., uniform.size:] = zeros
    t[(t <= min(step * 1e-3, 1e-4)) | (t > horizon)] = np.nan
    return t


def _brackets(sign: int, x_i: "float | np.ndarray", params: OscillatorParams):
    """The probe bracket (lo, hi] of the first zero of h from each departure.

    hi is the smallest probe at which h has left the sign of y (inf when there
    is none) and lo the largest probe below it, or 0.0; the third value says
    whether h(hi) == 0 where hi is finite.  All departures take one
    ``h_array`` evaluation, in which the nan probes never hit.
    """
    t = _probes(sign, x_i, params)
    vals = h_array(sign, t, x_i, params)
    # h carries the sign of y, which is `sign` until the first zero
    hit = vals <= 0.0 if sign > 0 else vals >= 0.0
    hi = np.minimum.reduce(t, axis=-1, where=hit, initial=np.inf)
    lo = np.maximum.reduce(t, axis=-1, where=t < hi[..., None], initial=0.0)
    exact = np.minimum.reduce(t, axis=-1, where=vals == 0.0, initial=np.inf) == hi
    return lo, hi, exact


def _polish(sign: int, x_i: float, params: OscillatorParams, lo: float, hi: float,
            exact: bool) -> tuple[float, int]:
    """The root of h(., x_i) in [lo, hi] and brentq's iterations.

    The callback is h with the phase of x_i computed once.  Raises SolverError
    when the residual exceeds RESIDUAL_TOL.
    """
    w, a = omega(sign), params.a
    vq = varphi_over_pi(sign, x_i, params)
    s = sinpi(vq)
    f = lambda u: math.exp(-a * u) * s - sinpi(w * u + vq)
    if exact:
        root, iters = hi, 0
    else:
        root, info = brentq(f, lo, hi, xtol=BRACKET_WIDTH / 2, full_output=True)
        # h(0) = 0 exactly, and brentq returns such a bracket end at once
        # without setting its iteration count
        iters = info.iterations if lo != 0.0 else 0
    residual = abs(f(root))
    if residual > RESIDUAL_TOL:
        # bracket has collapsed below 1e-13; a residual above the bound means
        # the slope is enormous, not that the root is wrong, but report it anyway
        raise SolverError(f"crossing residual {residual} exceeds {RESIDUAL_TOL}")
    return root, iters


def _check_sign(sign: int) -> None:
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")


def _departures(x_i) -> np.ndarray:
    """x_i as a 1-D float array; DomainError unless every entry is finite."""
    x_i = np.asarray(x_i, dtype=float)
    if x_i.ndim != 1:
        raise DomainError(f"departures must form a 1-D array, got shape {x_i.shape}")
    bad = np.flatnonzero(~np.isfinite(x_i))
    if bad.size:
        raise DomainError(f"departures must be finite, got x_i[{bad[0]}] = {x_i[bad[0]]}")
    return x_i


def next_crossing(sign: int, x_i: float, params: OscillatorParams) -> PoincareResult:
    """First return to y = 0 of the flow leaving (x_i, 0) into S_sign.

    Raises DomainError for a non-finite x_i or when the field at x_i does not
    allow that departure, and SolverError when no sign change appears within
    the horizon 6/w (which cannot happen for a > 0) or the probes would pass
    MAX_POINTS.  ``next_crossing_array`` takes many departures.
    """
    _check_sign(sign)
    if not math.isfinite(x_i):
        raise DomainError(f"departure must be finite, got x_i={x_i}")
    if not _departure_ok(sign, x_i):
        raise DomainError(
            f"departure into S_{'+' if sign > 0 else '-'} at x={x_i} is inconsistent "
            "with the field direction"
        )
    _probe_count(sign, x_i, params)  # SolverError past MAX_POINTS
    lo, hi, exact = _brackets(sign, x_i, params)
    if hi == math.inf:
        raise SolverError(
            f"no crossing located within horizon {HORIZON / omega(sign)} from x_i={x_i} "
            f"(sign={sign}, a={params.a})"
        )
    root, iters = _polish(sign, x_i, params, float(lo), float(hi), exact)
    return PoincareResult(x_next=x_i + root, iterations=iters)


def next_crossing_array(sign: int, x_i: np.ndarray, params: OscillatorParams) -> np.ndarray:
    """``next_crossing``'s x_next for a 1-D array of independent departures.

    A row is nan where ``next_crossing`` raises.  The rows are bracketed
    together in one h evaluation per pass, at most ROWS_PER_PASS rows and
    MAX_POINTS probes, and each is polished by the scalar form's brentq, so
    every crossing is bit-identical to it.  Raises DomainError for a sign
    other than +-1 or a non-finite x_i, and SolverError when one departure's
    probes would pass MAX_POINTS.
    """
    _check_sign(sign)
    x_i = _departures(x_i)
    xs = x_i.tolist()
    x_next = np.full(x_i.size, np.nan)
    rows = np.array([i for i, x in enumerate(xs) if _departure_ok(sign, x)], dtype=int)
    if not rows.size:
        return x_next
    per_pass = max(1, min(ROWS_PER_PASS, MAX_POINTS // _probe_count(sign, xs[rows[0]], params)))
    for start in range(0, rows.size, per_pass):
        chunk = rows[start:start + per_pass]
        brackets = _brackets(sign, x_i[chunk], params)
        for r, lo, hi, exact in zip(chunk.tolist(), *(v.tolist() for v in brackets)):
            if hi == math.inf:
                continue
            try:
                x_next[r] = xs[r] + _polish(sign, xs[r], params, lo, hi, exact)[0]
            except SolverError:
                pass
    return x_next


def composite_map(x: float, a: float) -> float:
    """P(x, a) = P_+^a(P_-^a(x)) for departures x in I_- = (0, 2/3) mod 4."""
    p = OscillatorParams(a=a)
    if not (math.isfinite(x) and I_MINUS[0] < math.fmod(x, 4.0) < I_MINUS[1]):
        raise DomainError(f"composite map needs x in (0, 2/3) mod 4, got {x}")
    x1 = next_crossing(-1, x, p).x_next
    return next_crossing(+1, x1, p).x_next


def composite_map_array(x: np.ndarray, a: float) -> np.ndarray:
    """``composite_map`` for a 1-D array of departures: nan where it raises.

    Each leg is one ``next_crossing_array`` call.  Raises DomainError for a
    non-finite x.
    """
    p = OscillatorParams(a=a)
    x = _departures(x)
    frac = np.fmod(x, 4.0)
    inside = np.flatnonzero((I_MINUS[0] < frac) & (frac < I_MINUS[1]))
    x1 = next_crossing_array(-1, x[inside], p)
    landed = ~np.isnan(x1)
    x2 = np.full(x.shape, np.nan)
    x2[inside[landed]] = next_crossing_array(+1, x1[landed], p)
    return x2


def dP_da_at_zero(x0: float) -> float:
    """dP/da at a = 0 for departures in (0, 2/3); pole at 2/3 reported as -inf."""
    if not 0.0 < x0 <= 2.0 / 3.0:
        raise DomainError(f"x0 must lie in (0, 2/3], got {x0}")
    s3 = sinpi(1.5 * x0)
    s1 = sinpi(0.5 * x0)
    if s3 == 0.0 or abs(x0 - 2.0 / 3.0) < 1e-12:
        return -math.inf
    cot3 = cospi(1.5 * x0) / s3
    cot1 = cospi(0.5 * x0) / s1
    return (2.0 / math.pi) * (
        32.0 / (9.0 * math.pi) + (2.0 * x0 / 3.0) * cot3 + (4.0 - 2.0 * x0) * cot1
    )


def solve_x0() -> float:
    """Root of dP/da(., 0) in (1/2, 2/3): the a -> 0 limit of the fixed point."""
    return brentq(dP_da_at_zero, 0.5, 2.0 / 3.0 - 1e-12, xtol=1e-12)


def dP_dx(x: float, a: float) -> float:
    """Derivative of the composite map at a fixed point of P(x) - (x + 4).

    Closed form by the triple-angle reduction; x must be such a fixed point.
    """
    pm = next_crossing(-1, x, OscillatorParams(a=a)).x_next
    den = 3.0 - 4.0 * sinpi(x / 2.0) ** 2
    if abs(den) < 1e-9:
        raise SolverError(f"dP_dx denominator ~ 0 at x={x} (x near 2/3 mod 4)")
    num = 3.0 - 4.0 * sinpi(pm / 2.0) ** 2
    return (num / den) * math.exp(-4.0 * a)


def find_nonsliding_period4(a: float) -> tuple[float, float]:
    """Fixed point x* of P(x, a) - (x + 4) on (0, 2/3) and its multiplier.

    Brackets on 64 subintervals, whose 65 ends take two
    ``next_crossing_array`` calls (``composite_map_array``), then refines by
    bisection-backed root finding on the scalar ``composite_map``.  Raises
    NoOrbitError when no transversal fixed point exists (no sign change, or an
    intermediate contact falls outside a crossing region, which is how the
    orbit dies as `a` grows), SolverError on a numerical failure.
    """
    p = OscillatorParams(a=a)
    lo, hi, n = 1e-4, 2.0 / 3.0 - 1e-4, 64
    delta = lambda x: composite_map(x, a) - (x + 4.0)
    xs = lo + (hi - lo) * np.arange(n + 1) / n
    vals = (composite_map_array(xs, a) - (xs + 4.0)).tolist()
    xs = xs.tolist()
    root = None
    for (x1, v1), (x2, v2) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if math.isnan(v1) or math.isnan(v2):
            continue
        if v1 == 0.0:
            root = x1
            break
        if (v1 > 0.0) != (v2 > 0.0):
            root = brentq(delta, x1, x2, xtol=1e-12)
            break
    if root is None:
        raise NoOrbitError(f"no non-sliding period-4 fixed point found for a={a}")
    mid = next_crossing(-1, root, p)
    for contact in (mid.x_next, composite_map(root, a)):
        if classify_threshold_point(contact) is not Region.CROSSING:
            raise NoOrbitError(
                f"fixed point candidate x={root} touches a non-crossing region at "
                f"x={contact}; the transversal orbit does not exist at a={a}"
            )
    multiplier = dP_dx(root, a)
    return root, multiplier
