"""Crossing-to-crossing maps and the non-sliding period-4 orbit (linear model).

The next threshold contact after a departure at (x_i, 0) is the first positive
zero of the crossing function h.  h has a trivial zero at 0 (double when the
departure is tangent), so the solver never probes near 0.  Its probes are a
grid whose step resolves both the oscillation (1/(8w)) and the decay (1/(4a)),
merged with the zeros of the comparison function h0; the hinf lattice is not
probed.  h is evaluated on all probes in one array call, and the first sign
change is polished with a bracketed root finder on the scalar h.
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
from .analytic_flow import h, h0_zeros, h_array, h_dxbar

GRAZING_DERIV_TOL = 1e-8
BRACKET_WIDTH = 1e-13

#: Window of crossing departures into S_- for the composite map (mod 4).
I_MINUS = (0.0, 2.0 / 3.0)


@dataclass
class PoincareResult:
    x_next: float
    residual: float
    bracket: tuple[float, float]
    iterations: int
    grazing_suspect: bool = False
    sign: int = 0
    x_start: float = math.nan

    @property
    def xbar(self) -> float:
        return self.x_next - self.x_start


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


def _probe_points(sign: int, x_i: float, params: OscillatorParams,
                  horizon: float) -> np.ndarray:
    """Sorted scan abscissae in (floor, horizon]: the uniform grid and the h0 zeros."""
    w = omega(sign)
    step = min(1.0 / (8.0 * w), 1.0 / (4.0 * params.a))
    floor = min(step * 1e-3, 1e-4)
    uniform = np.arange(1, math.floor(horizon / step) + 2) * step
    # a zero that is also a grid point k*step is probed once
    extra = [t for t in set(h0_zeros(sign, x_i, params, horizon))
             if t > floor and round(t / step) * step != t]
    pts = np.concatenate((uniform[uniform <= horizon], extra))
    pts.sort()
    return pts


def next_crossing(sign: int, x_i: float, params: OscillatorParams,
                  tol: float = 1e-12) -> PoincareResult:
    """First return to y = 0 of the flow leaving (x_i, 0) into S_sign.

    Raises DomainError when the field at x_i does not allow that departure and
    SolverError when no sign change appears within the horizon 6/w (which
    cannot happen for a > 0).
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")
    if not _departure_ok(sign, x_i):
        raise DomainError(
            f"departure into S_{'+' if sign > 0 else '-'} at x={x_i} is inconsistent "
            "with the field direction"
        )
    horizon = 6.0 / omega(sign)
    f = lambda u: h(sign, u, x_i, params)
    pts = _probe_points(sign, x_i, params, horizon)
    vals = h_array(sign, pts, x_i, params)
    # h carries the sign of y, which is `sign` until the first zero
    hit = vals <= 0.0 if sign > 0 else vals >= 0.0
    i = int(hit.argmax())
    if not hit[i]:
        raise SolverError(
            f"no crossing located within horizon {horizon} from x_i={x_i} "
            f"(sign={sign}, a={params.a})"
        )
    lo, hi = (float(pts[i - 1]) if i else 0.0), float(pts[i])
    if vals[i] == 0.0:
        root, iters = hi, 0
    else:
        root, info = brentq(f, lo, hi, xtol=BRACKET_WIDTH / 2, full_output=True)
        # h(0) = 0 exactly, and brentq returns such a bracket end at once
        # without setting its iteration count
        iters = info.iterations if lo != 0.0 else 0
    residual = abs(f(root))
    if residual > tol:
        # bracket has collapsed below 1e-13; a residual above tol means the
        # slope is enormous, not that the root is wrong, but report it anyway
        raise SolverError(f"crossing residual {residual} exceeds tol {tol}")
    grazing = abs(h_dxbar(sign, root, x_i, params)) < GRAZING_DERIV_TOL
    return PoincareResult(
        x_next=x_i + root,
        residual=residual,
        bracket=(lo, hi),
        iterations=iters,
        grazing_suspect=grazing,
        sign=sign,
        x_start=x_i,
    )


def composite_map(x: float, a: float, tol: float = 1e-12) -> float:
    """P(x, a) = P_+^a(P_-^a(x)) for departures x in I_- = (0, 2/3) mod 4."""
    p = OscillatorParams(a=a)
    frac = math.fmod(x, 4.0)
    if not I_MINUS[0] < frac < I_MINUS[1]:
        raise DomainError(f"composite map needs x in (0, 2/3) mod 4, got {x}")
    x1 = next_crossing(-1, x, p, tol=tol).x_next
    return next_crossing(+1, x1, p, tol=tol).x_next


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


def find_nonsliding_period4(a: float, tol: float = 1e-12) -> tuple[float, float]:
    """Fixed point x* of P(x, a) - (x + 4) on (0, 2/3) and its multiplier.

    Brackets on 64 subintervals, then refines by bisection-backed
    root finding.  Raises NoOrbitError when no transversal fixed point exists
    (no sign change, or an intermediate contact falls outside a crossing
    region, which is how the orbit dies as `a` grows), SolverError on a
    numerical failure.
    """
    p = OscillatorParams(a=a)
    lo, hi, n = 1e-4, 2.0 / 3.0 - 1e-4, 64
    delta = lambda x: composite_map(x, a, tol=tol) - (x + 4.0)
    xs = [lo + (hi - lo) * k / n for k in range(n + 1)]
    vals = []
    for x in xs:
        try:
            vals.append(delta(x))
        except (DomainError, SolverError):
            vals.append(math.nan)
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
