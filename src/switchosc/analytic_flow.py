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
probes the h0 lattice, and ``h_array`` also takes an array of departures,
one row each.

``next_contact`` locates the first contact of the general flow from any
start with a level y = c (the threshold c = 0 from an interior start, the
layer boundary c = +-eps for an exterior arc).  There no probing is needed:
the zeros of a c + sin(w pi x) separate the contacts, so that lattice
brackets the first one.  No contact search builds an array of more than
MAX_POINTS points.
"""

from __future__ import annotations

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

#: Most points a contact search evaluates in one array: a lattice of
#: ``next_contact``, one departure's probes or one pass of departures.
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


def flow_solution(sign: int, x: "float | np.ndarray", x_i: float,
                  params: OscillatorParams) -> "float | np.ndarray":
    """Y_+-(x, x_i): the half-plane solution leaving the threshold at (x_i, 0).

    ``flow_from`` with y0 = 0, so exactly h / flow_scale; an array of x is
    one ``flow_from_array`` call.
    """
    if isinstance(x, np.ndarray):
        return flow_from_array(sign, x, x_i, 0.0, params)
    return flow_from(sign, x, x_i, 0.0, params)


def next_contact(sign: int, x0: float, y0: float, level: float,
                 params: OscillatorParams) -> float:
    """First x > x0 at which the flow from (x0, y0) in S_sign reaches y = level.

    d/dx (e^(a x) (y - level)) = -e^(a x) (a level + sin(w pi x)), so the
    zeros of a level + sin(w pi x) separate the contacts: each cell of that
    lattice holds at most one.  One ``flow_from_array`` call on the lattice
    brackets the first contact and ``brentq`` polishes it.  The lattice runs
    to the horizon x0 + 8/w + max(0, ln(|y0|/amp)/a); a contact past it, which
    a transient y0 - y_p(x0) larger than |y0| can cause, raises SolverError,
    as does a lattice of more than MAX_POINTS points (a tiny a).
    A start on the level (a layer exit, a fold) skips the cell that begins at
    x0, which holds no other contact; a flow that crosses the level in that
    cell enters the other side at once and is rejected.
    """
    w = omega(sign)
    a = params.a
    amp = 1.0 / math.hypot(w * math.pi, a)
    horizon = x0 + 8.0 / w + math.log(max(abs(y0) / amp, 1.0)) / a
    size = w * (horizon - x0) + 8.0  # both lattices, with their end cells
    if not size <= MAX_POINTS:
        raise SolverError(f"the contact search from ({x0!r}, {y0!r}) in S_{sign:+d} at "
                          f"a={a!r} needs {size:.3g} lattice points up to x = {horizon!r}, "
                          f"more than {MAX_POINTS}")
    s = math.asin(-a * level) / math.pi  # |a level| <= a eps < 1
    k = 2.0 * np.arange(math.floor(w * x0 / 2.0) - 1, math.ceil(w * horizon / 2.0) + 1)
    lattice = np.sort(np.concatenate(((s + k) / w, (1.0 - s + k) / w)))
    # a lattice point within rounding of x0 is x0 itself (a fold start)
    lattice = lattice[(lattice > x0 + 1e-12 * max(1.0, abs(x0))) & (lattice < horizon)]
    xs = np.append(lattice, horizon)
    inside = np.flatnonzero(sign * (flow_from_array(sign, xs, x0, y0, params) - level) <= 0.0)
    if not inside.size:
        raise SolverError(f"no contact with y = {level!r} from ({x0!r}, {y0!r}) "
                          f"before x = {horizon!r}")
    j = inside[0]
    g = lambda x: flow_from(sign, x, x0, y0, params) - level
    if j == 0 and (y0 == level or not sign * g(x0) > 0.0):
        raise DomainError(f"the flow from ({x0!r}, {y0!r}) on y = {level!r} leaves "
                          f"S_{sign:+d} at once")
    return brentq(g, xs[j - 1] if j else x0, xs[j], xtol=1e-14)


def h(sign: int, xbar: float, x_i: float, params: OscillatorParams) -> float:
    """Crossing function; its first positive zero is the next threshold contact."""
    if xbar < 0.0:
        raise DomainError(f"xbar must be >= 0, got {xbar}")
    w = omega(sign)
    vq = varphi_over_pi(sign, x_i, params)
    return math.exp(-params.a * xbar) * sinpi(vq) - sinpi(w * xbar + vq)


def h_array(sign: int, xbar: np.ndarray, x_i: "float | np.ndarray",
            params: OscillatorParams) -> np.ndarray:
    """``h`` on an array of xbar, in the same operation order.

    An array of departures x_i takes one row of xbar each.
    """
    if (xbar < 0.0).any():
        raise DomainError(f"xbar must be >= 0, got min {np.min(xbar)}")
    w = omega(sign)
    if isinstance(x_i, np.ndarray):
        vq = np.array([[varphi_over_pi(sign, x, params)] for x in x_i.tolist()])
        s = np.array([[sinpi(v)] for v in vq[:, 0].tolist()])
    else:
        vq = varphi_over_pi(sign, x_i, params)
        s = sinpi(vq)
    return np.exp(-params.a * xbar) * s - sinpi_array(w * xbar + vq)


def h0_zeros(sign: int, x_i: np.ndarray, params: OscillatorParams,
             horizon: float) -> np.ndarray:
    """Zeros of h0 = sin(varphi) - sin(w pi xbar + varphi), one row per departure.

    Two interleaved lattices: xbar = 2k/w, and xbar = start + 2k/w with
    start = 1/w + 2 phi/(w pi) - 2 fmod(x_i, 2/w).  Each row holds the two
    lattices for k = 0, 1, ... until both pass the horizon, unsorted; the
    caller cuts them to its range.  A 0-d x_i gives one row.
    """
    w = omega(sign)
    period = 2.0 / w
    start = 1.0 / w + 2.0 * phase_lag(sign, params) / (w * math.pi) - 2.0 * np.fmod(x_i, period)
    k = np.arange(math.floor((horizon - min(0.0, start.min())) / period) + 2) * period
    zs = np.empty(start.shape + (2 * k.size,))
    zs[..., :k.size] = k
    zs[..., k.size:] = start[..., None] + k
    return zs


def p0_map(sign: int, x_i: float) -> float:
    """Undamped (a = 0) crossing map: (2/w)(1 + floor(w x_i)) - x_i."""
    w = omega(sign)
    return (2.0 / w) * (1.0 + math.floor(w * x_i)) - x_i
