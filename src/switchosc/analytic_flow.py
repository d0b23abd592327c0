"""Closed-form half-plane solutions and the crossing function h.

In either half plane y' = -a y - sin(w pi x) is linear, so the flow from
(x0, y0) is the decayed start plus the flow leaving (x0, 0):

    y(x) = exp(-a (x - x0)) y0 + h(x - x0, x0) / sqrt(w^2 pi^2 + a^2),
    h(xbar, x_i) = exp(-a*xbar) sin(varphi(x_i)) - sin(w*pi*xbar + varphi(x_i)).

The phase varphi is reduced mod 2 pi, so one sine per point keeps full
precision at large x, and y(x0) = y0 exactly.  ``flow_from`` evaluates this
on a float, ``flow_from_array`` on an array of x; ``flow_solution`` is the
case y0 = 0.  The zeros of h, the threshold returns, cannot be written down,
but are sandwiched between the zeros of two explicit comparison functions,
h0 (drop the decay) and hinf (drop the transient); the Poincare module
walks one departure's h0 zeros merged with a uniform grid.

``next_contact`` locates the first contact of the general flow from any
start with a level y = c (the threshold c = 0 from an interior start, the
layer boundary c = +-eps for an exterior arc).  There no probing is needed:
the zeros of a c + sin(w pi x) separate the contacts, so that lattice
brackets the first one.  Both searches walk their points in ascending order
and stop at the first one where the flow has reached the level; neither walks
more than MAX_POINTS points.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import brentq

from .core import (
    DomainError,
    OscillatorParams,
    SolverError,
    omega,
    sinpi,
    sinpi_array,
)

#: Most points one contact search may walk, a lattice of ``next_contact`` or
#: one departure's probes: a bound on how long a search can take (near it, a
#: departure into S_- at a = 2.18e4 walks about 1.7e5 probes, 0.1 s on one core).
MAX_POINTS = 1 << 20


def flow_scale(sign: int, params: OscillatorParams) -> float:
    """sqrt(w^2 pi^2 + a^2); h is the threshold-leaving solution times this."""
    w = omega(sign)
    return math.hypot(w * math.pi, params.a)


def phase_lag(sign: int, params: OscillatorParams) -> float:
    """phi+- = arctan(w+- pi / a), the phase lag of the particular solution."""
    return math.atan2(omega(sign) * math.pi, params.a)


def varphi_over_pi(sign: int, x_i: float, params: OscillatorParams) -> float:
    """(w*pi*x_i - phi)/pi reduced mod 2, so trig of it stays exact at large x."""
    w = omega(sign)
    phi = phase_lag(sign, params)
    return math.fmod(w * x_i, 2.0) - phi / math.pi


def flow_from(sign: int, x: float, x0: float, y0: float,
              params: OscillatorParams) -> float:
    """General half-plane solution through (x0, y0), valid while it stays in S_sign.

    The decayed start plus h / flow_scale, the flow leaving (x0, 0); it is
    y0 exactly at x0.  Raises DomainError for x < x0.
    """
    return (math.exp(-params.a * (x - x0)) * y0
            + h(sign, x - x0, x0, params) / flow_scale(sign, params))


def flow_from_array(sign: int, x: np.ndarray, x0: float, y0: float,
                    params: OscillatorParams) -> np.ndarray:
    """``flow_from`` on an array of x, in the same operation order."""
    return (np.exp(-params.a * (x - x0)) * y0
            + h_array(sign, x - x0, x0, params) / flow_scale(sign, params))


def flow_from_deriv(sign: int, x: float, x0: float, y0: float,
                    params: OscillatorParams) -> float:
    """dy/dx of the general half-plane solution (equals -a y - sin(w pi x))."""
    return -params.a * flow_from(sign, x, x0, y0, params) - sinpi(omega(sign) * x)


def flow_solution(sign: int, x: float, x_i: float, params: OscillatorParams) -> float:
    """Y_+-(x, x_i): the half-plane solution leaving the threshold at (x_i, 0).

    ``flow_from`` with y0 = 0, so exactly h / flow_scale.
    """
    return flow_from(sign, x, x_i, 0.0, params)


def next_contact(sign: int, x0: float, y0: float, level: float,
                 params: OscillatorParams, x_end: float) -> float:
    """First x > x0 at which the flow from (x0, y0) in S_sign reaches y = level.

    d/dx (e^(a x) (y - level)) = -e^(a x) (a level + sin(w pi x)), so the
    zeros of a level + sin(w pi x) separate the contacts: each cell of that
    lattice holds at most one.  The lattice is walked in ascending order with
    ``flow_from``; the first point where the flow has reached the level and the
    point before it bracket the first contact, and ``brentq`` polishes it.  The
    lattice runs to the horizon x0 + 8/w + max(0, ln(|y0|/amp)/a); a contact
    past it, which a transient y0 - y_p(x0) larger than |y0| can cause, raises
    SolverError, as does a lattice of more than MAX_POINTS points (a tiny a),
    before the walk starts.  A run that ends at x_end needs no contact past
    it: the walk stops at the first point at or past x_end, which keeps every
    bracket before x_end, and no contact before that point returns inf.
    A start on the level (a layer exit, a fold) skips the cell that begins at
    x0, which holds no other contact; a flow that crosses the level in that
    cell enters the other side at once and is rejected.
    """
    w = omega(sign)
    a = params.a
    amp = 1.0 / math.hypot(w * math.pi, a)
    horizon = x0 + 8.0 / w + math.log(max(abs(y0) / amp, 1.0)) / a
    # lattice cells are at most 2/w long, so this holds the first point past x_end
    reach = min(horizon, x_end + 3.0 / w)
    size = w * (reach - x0) + 8.0  # both lattices, with their end cells
    if not size <= MAX_POINTS:
        raise SolverError(f"the contact search from ({x0!r}, {y0!r}) in S_{sign:+d} at "
                          f"a={a!r} needs {size:.3g} lattice points up to x = {reach!r}, "
                          f"more than {MAX_POINTS}")
    s = math.asin(-a * level) / math.pi  # |a level| <= a eps < 1
    lattice = (x for m in range(math.floor(w * x0 / 2.0) - 1, math.ceil(w * reach / 2.0) + 1)
               for x in ((s + 2.0 * m) / w, (1.0 - s + 2.0 * m) / w))
    # a lattice point within rounding of x0 is x0 itself (a fold start)
    cut = x0 + 1e-12 * max(1.0, abs(x0))
    lattice = itertools.takewhile(lambda x: x < horizon,
                                  itertools.dropwhile(lambda x: x <= cut, lattice))
    g = lambda x: flow_from(sign, x, x0, y0, params) - level
    lo = x0
    for x in itertools.chain(lattice, (horizon,)):  # the horizon ends a walk short of x_end
        if sign * g(x) <= 0.0:
            break
        if x_end <= x < horizon:
            return math.inf
        lo = x
    else:
        raise SolverError(f"no contact with y = {level!r} from ({x0!r}, {y0!r}) "
                          f"before x = {horizon!r}")
    if lo == x0 and (y0 == level or not sign * g(x0) > 0.0):
        raise DomainError(f"the flow from ({x0!r}, {y0!r}) on y = {level!r} leaves "
                          f"S_{sign:+d} at once")
    return brentq(g, lo, x, xtol=1e-14)


def h(sign: int, xbar: float, x_i: float, params: OscillatorParams) -> float:
    """Crossing function; its first positive zero is the next threshold contact."""
    if xbar < 0.0:
        raise DomainError(f"xbar must be >= 0, got {xbar}")
    w = omega(sign)
    vq = varphi_over_pi(sign, x_i, params)
    return math.exp(-params.a * xbar) * sinpi(vq) - sinpi(w * xbar + vq)


def h_array(sign: int, xbar: np.ndarray, x_i: float, params: OscillatorParams) -> np.ndarray:
    """``h`` on an array of xbar from one departure x_i, in the same operation order."""
    if (xbar < 0.0).any():
        raise DomainError(f"xbar must be >= 0, got min {np.min(xbar)}")
    w = omega(sign)
    vq = varphi_over_pi(sign, x_i, params)
    return np.exp(-params.a * xbar) * sinpi(vq) - sinpi_array(w * xbar + vq)


def p0_map(sign: int, x_i: float) -> float:
    """Undamped (a = 0) crossing map: (2/w)(1 + floor(w x_i)) - x_i."""
    w = omega(sign)
    return (2.0 / w) * (1.0 + math.floor(w * x_i)) - x_i
