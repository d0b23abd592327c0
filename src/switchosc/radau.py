"""Radau IIA (order 5) for the scalar switching-layer ODE, on plain Python floats.

A transcription of scipy.integrate's ``Radau`` (Hairer & Wanner, *Solving
ODEs II*, sec. IV.8) for the one problem the regularized engine solves: the
scalar stiff ODE v' = rate(x, v), run until v reaches one of a few stop
levels.  It keeps scipy's constants, simplified Newton iteration, error
estimate, step-size rule, dense output and root location (``brentq`` with
xtol = rtol = 4 EPS), so its steps, counts and results match
``scipy.integrate.solve_ivp(method="Radau")`` with the stop levels as
terminal events, up to rounding.  The state is one float, so each "LU
factorisation" of the real and complex collocation matrices is one real and
one complex number (``nlu`` counts them as scipy counts its LU
decompositions), and each solve is a division.

The sensitivity J' = d rate / dv does not depend on J, so J is a quadrature,
as in CVODES: an accepted step adds Z_J = h A F_J, F_J the rate derivative at
the converged v stages and A the Radau IIA matrix.  J is not error-controlled,
so a run with the sensitivity takes exactly the steps of one without.
"""

from __future__ import annotations

import math
import sys

import numpy as np
from scipy.optimize import brentq

EPS = sys.float_info.epsilon

S6 = 6 ** 0.5
C = ((4 - S6) / 10, (4 + S6) / 10, 1.0)
E = ((-13 - 7 * S6) / 3, (-13 + 7 * S6) / 3, -1 / 3)
MU_REAL = 3 + 3 ** (2 / 3) - 3 ** (1 / 3)
MU_COMPLEX = (3 + 0.5 * (3 ** (1 / 3) - 3 ** (2 / 3))
              - 0.5j * (3 ** (5 / 6) + 3 ** (7 / 6)))
T = ((0.09443876248897524, -0.14125529502095421, 0.03002919410514742),
     (0.25021312296533332, 0.20412935229379994, -0.38294211275726192),
     (1.0, 1.0, 0.0))
TI = ((4.17871859155190428, 0.32768282076106237, 0.52337644549944951),
      (-4.17871859155190428, -0.32768282076106237, 0.47662355450055044),
      (0.50287263494578682, -2.57192694985560522, 0.59603920482822492))
TI_REAL = TI[0]
TI_COMPLEX = tuple(complex(TI[1][j], TI[2][j]) for j in range(3))
# the Radau IIA matrix: stage increments Z = h A F of a quadrature
A = (((88 - 7 * S6) / 360, (296 - 169 * S6) / 1800, (-2 + 3 * S6) / 225),
     ((296 + 169 * S6) / 1800, (88 + 7 * S6) / 360, (-2 - 3 * S6) / 225),
     ((16 - S6) / 36, (16 + S6) / 36, 1 / 9))
# dense output: y(t_old + s h) = y_old + sum_k Q[k] s^(k+1), Q = Z^T P
P = ((13 / 3 + 7 * S6 / 3, -23 / 3 - 22 * S6 / 3, 10 / 3 + 5 * S6),
     (13 / 3 - 7 * S6 / 3, -23 / 3 + 22 * S6 / 3, 10 / 3 - 5 * S6),
     (1 / 3, -8 / 3, 10 / 3))

NEWTON_MAXITER = 6
MIN_FACTOR = 0.2
MAX_FACTOR = 10.0

MESSAGES = {
    -1: "Required step size is less than spacing between numbers.",
    0: "The solver successfully reached the end of the integration interval.",
    1: "A stop level was reached.",
}


class RadauSolution:
    """Dense output of v over the accepted steps, like scipy's ``OdeSolution``.

    ``value(t)`` is v at t, a float or an array of them; at a step boundary
    the earlier step is used.  The first call tabulates the steps as arrays,
    so solutions that are never evaluated cost nothing extra.
    """

    def __init__(self, ts: list[float], steps: list[tuple]):
        self.ts = ts          # t0 and every accepted step end (or the stop point)
        self.steps = steps    # per step: (t_old, h, v_old, Q), Q = 3 coefficients
        self._table = None    # (ts, t_old, h, v_old, Q) as arrays, built on first use

    def value(self, t):
        if self._table is None:
            t_old, h, v_old, q = zip(*self.steps)
            self._table = (np.array(self.ts), np.array(t_old), np.array(h),
                           np.array(v_old), np.array(q))
        ts, t_old, h, v_old, q = self._table
        j = np.clip(np.searchsorted(ts, t, "left") - 1, 0, len(h) - 1)
        return _dense(t, t_old[j], h[j], v_old[j], np.moveaxis(q[j], -1, 0))


class RadauResult:
    """What ``solve_ivp`` returns; ``t``, ``sol``, the counts, ``status`` and
    ``message`` as in scipy's ``OdeResult``.  The state is kept only at the
    end, as the floats ``v_end`` and ``j_end`` (None without the
    sensitivity); ``stop`` is the index of the stop level reached, or None.

    ``h_last`` is the size of the last step attempted, accepted or not: on a
    failure it is the step found too small.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)


def _dense(t: float, t_old: float, h: float, y_old: float, q) -> float:
    s = (t - t_old) / h
    s2 = s * s
    s3 = s2 * s
    return y_old + (q[0] * s + q[1] * s2 + q[2] * s3)


def _dense_coefficients(z) -> tuple[float, float, float]:
    """Q = Z^T P for the stage increments Z of one step."""
    return tuple(z[0] * p[0] + z[1] * p[1] + z[2] * p[2] for p in zip(*P))


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old) -> float:
    if error_norm_old is None or h_abs_old is None or error_norm == 0.0:
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    if error_norm == 0.0:
        return math.inf
    return min(1.0, multiplier) * error_norm ** -0.25


def _solve_collocation(rate, t, y, h, z0, scale, tol, lu_real, lu_complex):
    """Simplified Newton iteration for the three stage increments Z.

    ``lu_real`` is MU_REAL/h - J, ``lu_complex`` the reciprocal of
    MU_COMPLEX/h - J.

    Returns (converged, iterations, Z, rate of convergence, rate evaluations).
    """
    m_real = MU_REAL / h
    m_complex = MU_COMPLEX / h
    w0, w1, w2 = (ti[0] * z0[0] + ti[1] * z0[1] + ti[2] * z0[2] for ti in TI)
    z = z0
    ch = (t + h * C[0], t + h * C[1], t + h)
    dw_norm_old = None
    newton_rate = None
    converged = False
    k = 0
    for k in range(NEWTON_MAXITER):
        a = rate(ch[0], y + z[0])
        b = rate(ch[1], y + z[1])
        c = rate(ch[2], y + z[2])
        if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
            break
        f_real = a * TI_REAL[0] + b * TI_REAL[1] + c * TI_REAL[2] - m_real * w0
        f_complex = (a * TI_COMPLEX[0] + b * TI_COMPLEX[1] + c * TI_COMPLEX[2]
                     - m_complex * complex(w1, w2))
        d_real = f_real / lu_real
        d_complex = lu_complex * f_complex
        dw_norm = math.sqrt((d_real / scale) ** 2 + (d_complex.real / scale) ** 2
                            + (d_complex.imag / scale) ** 2) / 3 ** 0.5
        if dw_norm_old is not None:
            newton_rate = dw_norm / dw_norm_old
        if newton_rate is not None and (
                newton_rate >= 1.0 or
                newton_rate ** (NEWTON_MAXITER - k) / (1.0 - newton_rate) * dw_norm > tol):
            break
        w0 += d_real
        w1 += d_complex.real
        w2 += d_complex.imag
        z = [tr[0] * w0 + tr[1] * w1 + tr[2] * w2 for tr in T]
        if dw_norm == 0.0 or (newton_rate is not None
                              and newton_rate / (1.0 - newton_rate) * dw_norm < tol):
            converged = True
            break
        dw_norm_old = dw_norm
    return converged, k + 1, z, newton_rate, 3 * (k + 1)


def _initial_step(rate, t0, y0, f0, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 3."""
    interval = t_bound - t0
    scale = atol + abs(y0) * rtol
    d0 = abs(y0 / scale)
    d1 = abs(f0 / scale)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = rate(t0 + h0, y0 + h0 * f0)
    d2 = abs((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)
    return min(100 * h0, h1, interval)


def solve_ivp(rate, rate_dv, x_span, v0, rtol, atol, stops,
              sensitivity) -> RadauResult:
    """Integrate the layer ODE v' = rate(x, v) forward over x_span with Radau IIA.

    ``rate_dv(x, v)`` is d rate / dv, the Jacobian.  With ``sensitivity``
    the run also carries J with J' = rate_dv(x, v), J(x_span[0]) = 0, as a
    quadrature of each accepted step's v stages; J is not error-controlled
    and does not change the steps.  ``stops`` are (level, direction) pairs:
    the run ends where v crosses a level in its direction (+1 rising, -1
    falling), at the smallest such root; ``stop`` is then that pair's index,
    and ``t[-1]``, ``v_end`` and ``j_end`` hold the stop point (J there from
    the last step's collocation polynomial).  ``t`` is a list; rtol below
    100 EPS is raised to it, as scipy does.
    """
    t0, t_bound = float(x_span[0]), float(x_span[1])
    if not t_bound >= t0:
        raise ValueError("only forward integration (x_span[1] >= x_span[0]) is supported")
    rtol = max(float(rtol), 100 * EPS)
    atol = float(atol)
    y = float(v0)
    j = j_old = 0.0 if sensitivity else None  # J at t and at the last step start

    newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
    t = t0
    f = rate(t, y)
    jac = rate_dv(t, y)
    nfev, njev, nlu = 1, 1, 0
    ts, steps = [t0], []
    v_end, j_end = y, j  # the state at ts[-1]
    h_abs = h_last = math.nan
    status = stop = None
    if t == t_bound:
        status = 0
    else:
        h_abs = _initial_step(rate, t, y, f, t_bound, rtol, atol)
        nfev += 1
    h_abs_old = error_norm_old = None
    lu = None
    current_jac = True
    dense = None  # the last accepted step: (t_old, h, v_old, Q)

    levels = [level for level, _ in stops]
    rising = [direction > 0 for _, direction in stops]
    g = [y - level for level in levels]

    while status is None:
        # -- one step of scipy's Radau._step_impl --------------------------
        min_step = 10 * (math.nextafter(t, math.inf) - t)
        h_prop = h_abs
        if h_abs < min_step:
            h_abs = min_step
            h_abs_old = error_norm_old = None
        rejected = False
        while True:
            h_last = h_abs
            if not h_abs >= min_step:  # also catches a NaN step size
                status = -1
                break
            t_new = t + h_abs
            if t_new > t_bound:
                t_new = t_bound
            h = t_new - t
            h_abs = h_last = h
            if dense is None:
                z0 = [0.0, 0.0, 0.0]
            else:
                z0 = [_dense(t + h * cj, *dense) - y for cj in C]
            scale = atol + abs(y) * rtol
            converged = False
            while not converged:
                if lu is None:
                    lu = (MU_REAL / h - jac, 1 / (MU_COMPLEX / h - jac))
                    nlu += 2
                converged, n_iter, z, newton_rate, calls = _solve_collocation(
                    rate, t, y, h, z0, scale, newton_tol, lu[0], lu[1])
                nfev += calls
                if not converged:
                    if current_jac:
                        break
                    jac = rate_dv(t, y)
                    njev += 1
                    current_jac = True
                    lu = None
            if not converged:
                h_abs *= 0.5
                lu = None
                continue
            y_new = y + z[2]
            ze = (z[0] * E[0] + z[1] * E[1] + z[2] * E[2]) / h
            error = (f + ze) / lu[0]
            scale = atol + max(abs(y), abs(y_new)) * rtol
            error_norm = abs(error / scale)
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                fe = rate(t, y + error)
                nfev += 1
                error = (fe + ze) / lu[0]
                error_norm = abs(error / scale)
            if not math.isfinite(error_norm):
                error_norm = math.inf
            if error_norm > 1:
                factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
                h_abs *= max(MIN_FACTOR, safety * factor)
                lu = None
                rejected = True
            else:
                break
        if status == -1:
            break

        recompute_jac = n_iter > 2 and newton_rate > 1e-3
        factor = _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old)
        factor = min(MAX_FACTOR, safety * factor)
        if not recompute_jac and factor < 1.2:
            factor = 1.0
        else:
            lu = None
        f_new = rate(t_new, y_new)
        nfev += 1
        if recompute_jac:
            jac = rate_dv(t_new, y_new)
            njev += 1
            current_jac = True
        else:
            current_jac = False
        h_abs_old = h_prop
        error_norm_old = error_norm
        t_old = t
        dense = (t_old, t_new - t_old, y, _dense_coefficients(z))
        if sensitivity:
            f_j = [rate_dv(t + h * cj, y + zj) for cj, zj in zip(C, z)]
            z_j = [h * (ai[0] * f_j[0] + ai[1] * f_j[1] + ai[2] * f_j[2]) for ai in A]
            j_old, j = j, j + z_j[2]
        h_abs = h_abs * factor
        t, y, f = t_new, y_new, f_new
        if t >= t_bound:
            status = 0

        # -- stop levels, located as scipy's solve_ivp locates events -------
        t_end, v_end, j_end = t, y, j
        g_new = [y - level for level in levels]
        active = [k for k in range(len(levels))
                  if (g[k] <= 0 <= g_new[k] if rising[k] else g[k] >= 0 >= g_new[k])]
        if active:
            roots = [brentq(lambda s, level=levels[k]: _dense(s, *dense) - level,
                            t_old, t, xtol=4 * EPS, rtol=4 * EPS) for k in active]
            m = min(range(len(active)), key=roots.__getitem__)
            stop, t_end, status = active[m], roots[m], 1
            v_end = _dense(t_end, *dense)
            if sensitivity:
                j_end = _dense(t_end, t_old, h, j_old, _dense_coefficients(z_j))
        g = g_new
        if len(ts) > 1 and ts[-1] == t_end:
            continue  # a stop on the previous step end adds no step
        ts.append(t_end)
        steps.append(dense)

    return RadauResult(
        t=ts, v_end=v_end, j_end=j_end, sol=RadauSolution(ts, steps), stop=stop,
        nfev=nfev, njev=njev, nlu=nlu,
        status=status, message=MESSAGES[status], h_last=h_last)
