"""Crossing-to-crossing maps and the period-4 fixed points of section maps.

The next threshold contact after a departure at (x_i, 0) is the first positive
zero of the crossing function h; its trivial zero at 0 is never probed.  The
probes, a grid whose step resolves both the oscillation (1/(8w)) and the
decay (1/(4a)) merged with the zeros of the comparison function h0, are
walked in ascending order with the phase of x_i computed once.  The first
probe at which h has left the sign of y and the probe before it (or 0)
bracket the zero, and brentq polishes it.  ``next_crossing`` takes one
departure, one that ``core.departure_ok`` allows, and reports brentq's
iterations.

``section_fixed_point`` is the one Newton driver for a period-4 fixed point
P(x) = x + 4 of a section map, in both engines: a run from x reports P(x) and
log P'(x).  The discontinuous linear map is total under Filippov's
convention: a leg that lands on an attracting interval slides to its end,
10/3 mod 4, and departs from there, so P' = 0 on such departures; a
transversal leg contributes (rate at departure / rate at arrival) e^(-a dx).
The non-sliding orbit is the fixed point whose legs both cross.
"""

from __future__ import annotations

import heapq
import itertools
import math
from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

from scipy.optimize import brentq

from .core import (
    DomainError,
    NoOrbitError,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    branch,
    cospi,
    departure_ok,
    field_direction,
    omega,
    sinpi,
)
from .analytic_flow import MAX_POINTS, phase_lag, varphi_over_pi
# h stays bound here, unused: the benchmark's tracer patches it by name
from .analytic_flow import h  # noqa: F401

BRACKET_WIDTH = 1e-13
#: Largest |h| accepted at a polished crossing.
RESIDUAL_TOL = 1e-12
#: Scan horizon of a departure, in units of 1/w.
HORIZON = 6.0

#: Window of crossing departures into S_- for the composite map (mod 4).
I_MINUS = (0.0, 2.0 / 3.0)


@dataclass
class PoincareResult:
    """The next crossing and brentq's iterations (0 at an exact probe zero)."""

    x_next: float
    iterations: int


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


def _probes(sign: int, x_i: float, params: OscillatorParams) -> Iterator[float]:
    """Scan abscissae xbar in (floor, horizon], ascending (a point on two lattices twice).

    The uniform grid k*step, whose step resolves both the oscillation (1/(8w))
    and the decay (1/(4a)), merged with the zeros of the comparison function
    h0 = sin(varphi) - sin(w pi xbar + varphi): xbar = 2k/w and xbar = start +
    2k/w.  Callers bound the walk by ``_probe_count`` first.
    """
    w = omega(sign)
    horizon = HORIZON / w
    step = min(1.0 / (8.0 * w), 1.0 / (4.0 * params.a))
    period = 2.0 / w
    start = 1.0 / w + 2.0 * phase_lag(sign, params) / (w * math.pi) - 2.0 * math.fmod(x_i, period)
    floor = min(step * 1e-3, 1e-4)
    # the shifted lattice from its first point above the floor: fmod < 0 for
    # x_i < 0 puts start up to two periods past it
    start -= period * max(0, math.floor((start - floor) / period))
    lattices = ((k * step for k in itertools.count(1)),
                (k * period for k in itertools.count()),
                (start + k * period for k in itertools.count()))
    probes = heapq.merge(*(itertools.dropwhile(lambda t: t <= floor, lat) for lat in lattices))
    return itertools.takewhile(lambda t: t <= horizon, probes)


def next_crossing(sign: int, x_i: float, params: OscillatorParams) -> PoincareResult:
    """First return to y = 0 of the flow leaving (x_i, 0) into S_sign.

    Raises DomainError for a non-finite x_i or when the field at x_i does not
    allow that departure, and SolverError when no sign change appears within
    the horizon 6/w (which cannot happen for a > 0), the probes would pass
    MAX_POINTS or the residual at the root exceeds RESIDUAL_TOL.
    """
    if sign not in (-1, 1):
        raise DomainError(f"sign must be +-1, got {sign}")
    if not math.isfinite(x_i):
        raise DomainError(f"departure must be finite, got x_i={x_i}")
    if not departure_ok(sign, x_i):
        raise DomainError(
            f"departure into S_{'+' if sign > 0 else '-'} at x={x_i} is inconsistent "
            "with the field direction"
        )
    _probe_count(sign, x_i, params)  # SolverError past MAX_POINTS
    w, a = omega(sign), params.a
    vq = varphi_over_pi(sign, x_i, params)
    s = sinpi(vq)
    f = lambda u: math.exp(-a * u) * s - sinpi(w * u + vq)  # h with the phase computed once
    lo = 0.0
    for hi in _probes(sign, x_i, params):
        # h carries the sign of y, which is `sign` until the first zero
        val = f(hi)
        if sign * val <= 0.0:
            break
        lo = hi
    else:
        raise SolverError(f"no crossing located within horizon {HORIZON / w} from "
                          f"x_i={x_i} (sign={sign}, a={a})")
    if val == 0.0:
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
    return PoincareResult(x_next=x_i + root, iterations=iters)


def _legs(x: float, params: OscillatorParams) -> tuple[float, float]:
    """The landings P_-(x) and P(x) = P_+(P_-(x)) of a departure x in I_- mod 4."""
    if not (math.isfinite(x) and I_MINUS[0] < math.fmod(x, 4.0) < I_MINUS[1]):
        raise DomainError(f"composite map needs x in (0, 2/3) mod 4, got {x}")
    x1 = next_crossing(-1, x, params).x_next
    return x1, next_crossing(+1, x1, params).x_next


def composite_map(x: float, a: float) -> float:
    """P(x, a) = P_+^a(P_-^a(x)) for departures x in I_- = (0, 2/3) mod 4."""
    return _legs(x, OscillatorParams(a=a))[1]


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


#: Newton iterates (bisection steps included) before a fixed-point solve gives up.
_FIXED_POINT_RUNS = 40
#: A Newton step shorter than this ends the fixed-point solve.
_FIXED_POINT_XTOL = 1e-12


def section_fixed_point(run, bracket: tuple[float, float]):
    """Root of g(x) = P(x) - (x + 4) in ``bracket`` (ends in either order).

    ``run(x)`` returns (P(x), log P'(x), payload); P' >= 0, since a section
    map of a planar flow preserves order.  Newton on g' = P' - 1 starts at the
    bracket midpoint; when a step would leave the bracket or the last one did
    not halve |g|, the bracket ends are run once and bisection takes over.
    Returns (x, log P'(x), payload) of the iterate whose Newton step or
    sign-change bracket is below 1e-12, or whose g is within 8 ulp of P (where
    P' nears 1, a step on rounding noise stays large).  Raises DomainError
    for a non-finite bracket or one without a sign change, SolverError with
    the last iterate, g and bracket when the runs are spent.
    """
    lo, hi = sorted(bracket)
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise DomainError(f"fixed-point bracket must be finite, got {bracket}")
    g_lo = None  # g at lo, unknown until a bisection needs the ends
    x, g_ref = 0.5 * (lo + hi), math.inf  # g_ref: |g| a Newton step must halve
    for _ in range(_FIXED_POINT_RUNS):
        payload = None  # one payload alive at a time
        px, log_slope, payload = run(x)
        gx = px - (x + 4.0)
        last = x, gx
        dg = math.expm1(log_slope)
        step = -gx / dg if dg != 0.0 else math.inf
        if (abs(step) < _FIXED_POINT_XTOL or abs(gx) <= 8.0 * math.ulp(px)
                or (g_lo is not None and hi - lo < _FIXED_POINT_XTOL)):
            return x, log_slope, payload
        if g_lo is None and not (lo <= x + step <= hi and abs(gx) <= 0.5 * g_ref):
            payload = None
            g_lo, g_hi = (run(end)[0] - (end + 4.0) for end in (lo, hi))
            if g_lo * g_hi > 0.0:
                raise DomainError(
                    f"no fixed point of P in [{lo}, {hi}]: g = {g_lo} and {g_hi} at the ends")
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


def _slide_end(x: float, landing: float) -> float | None:
    """The end 10/3 mod 4 of the attracting branch a leg from x lands on, or None.

    A landing where the S_- field points up and the S_+ field does not is on
    linear branch 2 floor(landing/4) + 1, ends included; the hybrid run slides
    to its end as well.  Raises SolverError for any other non-crossing landing.
    """
    up_plus, up_minus = field_direction(+1, landing), field_direction(-1, landing)
    if up_minus > 0 and up_plus <= 0:
        return branch(SwitchingModel.LINEAR, 2 * math.floor(landing / 4.0) + 1).domain[1]
    if up_plus != up_minus or up_plus == 0:
        raise SolverError(f"the composite map from x={x!r} lands at x={landing!r}, not a "
                          f"crossing: fields S_+ {up_plus:+d}, S_- {up_minus:+d} (0 tangent)")
    return None


def _composite_run(params: OscillatorParams, x: float):
    """(P(x), log P'(x), slide end or None) of the total composite map.

    The legs x -> x1 -> x2 are two ``next_crossing`` calls.  After a slide P
    is the crossing from the slide's end, the same for every x nearby.
    """
    x1 = next_crossing(-1, x, params).x_next
    end = _slide_end(x, x1)
    if end is None:
        x2 = next_crossing(+1, x1, params).x_next
        end = _slide_end(x, x2)
    if end is not None:
        return next_crossing(+1, end, params).x_next, -math.inf, end
    # each leg: rate of departure over rate of arrival, times the decay
    log_slope = (math.log(abs(sinpi(x / 2.0) / sinpi(x1 / 2.0)))
                 + math.log(abs(sinpi(1.5 * x1) / sinpi(1.5 * x2)))
                 - params.a * (x2 - x))
    return x2, log_slope, None


def find_nonsliding_period4(a: float) -> tuple[float, float]:
    """Fixed point x* of P(x, a) - (x + 4) on (0, 2/3) and its multiplier P'(x*).

    Solved on the total composite map, whose fixed point is the sliding
    orbit's crossing past the grazing-sliding bifurcation.  Raises
    NoOrbitError when that orbit slides or none exists, SolverError on a
    numerical failure.
    """
    p = OscillatorParams(a=a)
    try:
        x_star, log_slope, slide = section_fixed_point(partial(_composite_run, p),
                                                       (1e-4, 2.0 / 3.0 - 1e-4))
    except DomainError as exc:  # no sign change: every departure here is valid
        raise NoOrbitError(f"no period-4 fixed point at a={a}: {exc}") from exc
    if slide is not None:
        raise NoOrbitError(f"the period-4 fixed point x={x_star} slides to x={slide}: "
                           f"no non-sliding orbit at a={a}")
    return x_star, math.exp(log_slope)
