"""Closed-form half-plane solutions and the transcendental crossing functions.

In either half plane the flow from (x_i, 0) is an explicitly solvable damped
driven linear ODE.  Its zero set is governed by

    h(xbar, x_i) = exp(-a*xbar) sin(varphi(x_i)) - sin(w*pi*xbar + varphi(x_i)),

whose own zeros cannot be written down, but are sandwiched between the zeros
of the two explicit comparison functions h0 (drop the decay) and hinf (drop
the transient).  Both zero lattices are listed up to a horizon; the Poincare
module probes the h0 lattice.

``h_array`` and ``flow_from_array`` evaluate h and the general flow on arrays
in the scalar operation order; ``flow_solution`` takes a float or an array,
so a sampled arc is one call.
"""

from __future__ import annotations

import math

import numpy as np

from .core import (
    DomainError,
    OscillatorParams,
    cospi,
    cospi_array,
    omega,
    sinpi,
    sinpi_array,
)


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


def particular_solution(sign: int, x: float, params: OscillatorParams) -> float:
    """Steady-state response y_p(x) = [w pi cos(w pi x) - a sin(w pi x)] / (w^2 pi^2 + a^2)."""
    w = omega(sign)
    a = params.a
    return (w * math.pi * cospi(w * x) - a * sinpi(w * x)) / (
        (w * math.pi) ** 2 + a**2
    )


def flow_from(sign: int, x: float, x0: float, y0: float,
              params: OscillatorParams) -> float:
    """General half-plane solution through (x0, y0), valid while it stays in S_sign."""
    yp = particular_solution(sign, x, params)
    yp0 = particular_solution(sign, x0, params)
    return yp + math.exp(-params.a * (x - x0)) * (y0 - yp0)


def flow_from_array(sign: int, x: np.ndarray, x0: float, y0: float,
                    params: OscillatorParams) -> np.ndarray:
    """``flow_from`` on an array of x, in the same operation order."""
    w = omega(sign)
    a = params.a
    yp = (w * math.pi * cospi_array(w * x) - a * sinpi_array(w * x)) / (
        (w * math.pi) ** 2 + a**2
    )
    yp0 = particular_solution(sign, x0, params)
    return yp + np.exp(-a * (x - x0)) * (y0 - yp0)


def flow_from_deriv(sign: int, x: float, x0: float, y0: float,
                    params: OscillatorParams) -> float:
    """dy/dx of the general half-plane solution (equals -a y - sin(w pi x))."""
    return -params.a * flow_from(sign, x, x0, y0, params) - sinpi(omega(sign) * x)


def flow_solution(sign: int, x: "float | np.ndarray", x_i: float,
                  params: OscillatorParams) -> "float | np.ndarray":
    """Y_+-(x, x_i): the half-plane solution leaving the threshold at (x_i, 0).

    Evaluated in the phase-shifted form, which avoids cancellation between
    large-x sines and makes Y exactly h / flow_scale.  An array of x is
    evaluated in one call through ``h_array``.
    """
    if isinstance(x, np.ndarray):
        return h_array(sign, x - x_i, x_i, params) / flow_scale(sign, params)
    if x < x_i:
        raise DomainError(f"flow is evaluated forward only (x={x} < x_i={x_i})")
    return h(sign, x - x_i, x_i, params) / flow_scale(sign, params)


def h(sign: int, xbar: float, x_i: float, params: OscillatorParams) -> float:
    """Crossing function; its first positive zero is the next threshold contact."""
    if xbar < 0.0:
        raise DomainError(f"xbar must be >= 0, got {xbar}")
    w = omega(sign)
    vq = varphi_over_pi(sign, x_i, params)
    return math.exp(-params.a * xbar) * sinpi(vq) - sinpi(w * xbar + vq)


def h_array(sign: int, xbar: np.ndarray, x_i: float,
            params: OscillatorParams) -> np.ndarray:
    """``h`` on an array of xbar, in the same operation order."""
    if np.any(xbar < 0.0):
        raise DomainError(f"xbar must be >= 0, got min {np.min(xbar)}")
    w = omega(sign)
    vq = varphi_over_pi(sign, x_i, params)
    return np.exp(-params.a * xbar) * sinpi(vq) - sinpi_array(w * xbar + vq)


def h_dxbar(sign: int, xbar: float, x_i: float, params: OscillatorParams) -> float:
    """dh/dxbar, used for grazing detection at located roots."""
    w = omega(sign)
    vq = varphi_over_pi(sign, x_i, params)
    return -params.a * math.exp(-params.a * xbar) * sinpi(vq) - w * math.pi * cospi(
        w * xbar + vq
    )


def _lattice(start: float, step: float, horizon: float) -> list[float]:
    """The points start + k*step, k = 0, 1, ..., that lie in [0, horizon]."""
    n = max(0, math.floor((horizon - start) / step) + 2)
    return [v for v in (start + k * step for k in range(n)) if 0.0 <= v <= horizon]


def h0_zeros(sign: int, x_i: float, params: OscillatorParams,
             horizon: float) -> list[float]:
    """Sorted zeros in [0, horizon] of h0 = sin(varphi) - sin(w pi xbar + varphi).

    Two interleaved lattices: xbar = 2n/w, and xbar = (2n+1)/w + 2 phi/(w pi) - 2 x_i.
    """
    w = omega(sign)
    phi = phase_lag(sign, params)
    start_b = 1.0 / w + 2.0 * phi / (w * math.pi) - 2.0 * math.fmod(x_i, 2.0 / w)
    return sorted(_lattice(0.0, 2.0 / w, horizon) + _lattice(start_b, 2.0 / w, horizon))


def hinf_zeros(sign: int, x_i: float, params: OscillatorParams,
               horizon: float) -> list[float]:
    """Sorted zeros in [0, horizon] of hinf = -sin(w pi xbar + varphi): pitch 1/w."""
    w = omega(sign)
    phi = phase_lag(sign, params)
    start = phi / (w * math.pi) - math.fmod(x_i, 1.0 / w)
    return _lattice(start, 1.0 / w, horizon)


def p0_map(sign: int, x_i: float) -> float:
    """Undamped (a = 0) crossing map: (2/w)(1 + floor(w x_i)) - x_i."""
    w = omega(sign)
    return (2.0 / w) * (1.0 + math.floor(w * x_i)) - x_i
