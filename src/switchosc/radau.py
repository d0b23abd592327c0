"""Radau IIA (order 5) for the scalar switching-layer ODE, on plain Python floats.

A transcription of scipy.integrate's ``Radau`` (Hairer & Wanner, *Solving
ODEs II*, sec. IV.8) for the one problem the regularized engine solves: the
scalar stiff ODE v' = rate(x, v), optionally with the sensitivity
J' = d rate / dv carried along, run until v reaches one of a few stop levels.
It keeps scipy's constants, simplified Newton iteration, error estimate,
step-size rule, dense output and root location (``brentq`` with
xtol = rtol = 4 EPS), so its steps, counts and results match
``scipy.integrate.solve_ivp(method="Radau")`` with the stop levels as
terminal events, up to rounding.

The Jacobian is diagonal (the rate does not depend on J), so each "LU
factorisation" of the real and complex collocation matrices is one real and
one complex number per component, and each solve is a division.  ``nlu``
counts those factorisations as scipy counts its LU decompositions.
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
    """Dense output over the accepted steps, like scipy's ``OdeSolution``.

    ``value(t, i)`` is component i at t, a float or an array of them; at a
    step boundary the earlier step is used.  The first call tabulates the
    steps as arrays, so solutions that are never evaluated cost nothing extra.
    """

    def __init__(self, ts: list[float], steps: list[tuple]):
        self.ts = ts          # t0 and every accepted step end (or the stop point)
        self.steps = steps    # per step: (t_old, h, y_old, Q), Q[i] = 3 coefficients
        self._table = None    # (ts, t_old, h, y_old, Q) as arrays, built on first use

    def value(self, t, i: int = 0):
        if self._table is None:
            t_old, h, y_old, q = zip(*self.steps)
            self._table = (np.array(self.ts), np.array(t_old), np.array(h),
                           np.array(y_old), np.array(q))
        ts, t_old, h, y_old, q = self._table
        j = np.clip(np.searchsorted(ts, t, "left") - 1, 0, len(h) - 1)
        # the operations of _dense, in its order, so values agree bit for bit
        s = (t - t_old[j]) / h[j]
        s2 = s * s
        s3 = s2 * s
        qi = q[j, i]
        return y_old[j, i] + (qi[..., 0] * s + qi[..., 1] * s2 + qi[..., 2] * s3)


class RadauResult:
    """What ``solve_ivp`` returns; ``t``, ``sol``, the counts, ``status`` and
    ``message`` as in scipy's ``OdeResult``.  The state is kept only at the
    end, as ``y_end``; ``stop`` is the index of the stop level reached, or None.

    ``h_last`` is the size of the last step attempted, accepted or not: on a
    failure it is the step found too small.
    """

    def __init__(self, **fields):
        self.__dict__.update(fields)


def _dense(t: float, t_old: float, h: float, y_old: list, q: list) -> list[float]:
    s = (t - t_old) / h
    s2 = s * s
    s3 = s2 * s
    return [y_old[i] + (qi[0] * s + qi[1] * s2 + qi[2] * s3) for i, qi in enumerate(q)]


def _norm(values: list[float]) -> float:
    """RMS norm, as scipy's ``common.norm``."""
    return math.sqrt(sum([v * v for v in values])) / len(values) ** 0.5


def _predict_factor(h_abs, h_abs_old, error_norm, error_norm_old) -> float:
    if error_norm_old is None or h_abs_old is None or error_norm == 0.0:
        multiplier = 1.0
    else:
        multiplier = h_abs / h_abs_old * (error_norm_old / error_norm) ** 0.25
    if error_norm == 0.0:
        return math.inf
    return min(1.0, multiplier) * error_norm ** -0.25


def _solve_collocation(fun, t, y, h, z0, scale, tol, lu_real, lu_complex):
    """Simplified Newton iteration for the stage increments Z (3 x n).

    ``lu_real`` holds the diagonal of MU_REAL/h - J, ``lu_complex`` the
    reciprocals of MU_COMPLEX/h - J.

    Returns (converged, iterations, Z, rate, right-hand-side evaluations).
    """
    n = len(y)
    m_real = MU_REAL / h
    m_complex = MU_COMPLEX / h
    w = [[ti[0] * z0[0][i] + ti[1] * z0[1][i] + ti[2] * z0[2][i] for i in range(n)]
         for ti in TI]
    z = z0
    ch = (t + h * C[0], t + h * C[1], t + h)
    size = 3 * n
    dw_norm_old = None
    rate = None
    converged = False
    k = 0
    for k in range(NEWTON_MAXITER):
        f0 = fun(ch[0], [y[i] + z[0][i] for i in range(n)])
        f1 = fun(ch[1], [y[i] + z[1][i] for i in range(n)])
        f2 = fun(ch[2], [y[i] + z[2][i] for i in range(n)])
        finite = True
        dw = [[0.0] * n, [0.0] * n, [0.0] * n]
        ssq = 0.0
        for i in range(n):
            a, b, c = f0[i], f1[i], f2[i]
            if not (math.isfinite(a) and math.isfinite(b) and math.isfinite(c)):
                finite = False
                break
            f_real = a * TI_REAL[0] + b * TI_REAL[1] + c * TI_REAL[2] - m_real * w[0][i]
            f_complex = (a * TI_COMPLEX[0] + b * TI_COMPLEX[1] + c * TI_COMPLEX[2]
                         - m_complex * complex(w[1][i], w[2][i]))
            d_real = f_real / lu_real[i]
            d_complex = lu_complex[i] * f_complex
            dw[0][i], dw[1][i], dw[2][i] = d_real, d_complex.real, d_complex.imag
            si = scale[i]
            ssq += ((d_real / si) ** 2 + (d_complex.real / si) ** 2
                    + (d_complex.imag / si) ** 2)
        if not finite:
            break
        dw_norm = math.sqrt(ssq) / size ** 0.5
        if dw_norm_old is not None:
            rate = dw_norm / dw_norm_old
        if rate is not None and (rate >= 1.0 or
                                 rate ** (NEWTON_MAXITER - k) / (1.0 - rate) * dw_norm > tol):
            break
        for r in range(3):
            wr, dr = w[r], dw[r]
            for i in range(n):
                wr[i] += dr[i]
        z = [[tr[0] * w[0][i] + tr[1] * w[1][i] + tr[2] * w[2][i] for i in range(n)]
             for tr in T]
        if dw_norm == 0.0 or rate is not None and rate / (1.0 - rate) * dw_norm < tol:
            converged = True
            break
        dw_norm_old = dw_norm
    return converged, k + 1, z, rate, 3 * (k + 1)


def _initial_step(fun, t0, y0, f0, t_bound, rtol, atol):
    """scipy's ``select_initial_step`` for an error estimator of order 3."""
    interval = t_bound - t0
    scale = [atol + abs(v) * rtol for v in y0]
    d0 = _norm([v / s for v, s in zip(y0, scale)])
    d1 = _norm([v / s for v, s in zip(f0, scale)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, interval)
    f1 = fun(t0 + h0, [v + h0 * f for v, f in zip(y0, f0)])
    d2 = _norm([(a - b) / s for a, b, s in zip(f1, f0, scale)]) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 4)
    return min(100 * h0, h1, interval)


def solve_ivp(rate, rate_dv, x_span, v0, rtol, atol, stops,
              sensitivity) -> RadauResult:
    """Integrate the layer ODE v' = rate(x, v) forward over x_span with Radau IIA.

    ``rate_dv(x, v)`` is d rate / dv, the Jacobian.  With ``sensitivity`` the
    state is (v, J) with J' = rate_dv(x, v), J(x_span[0]) = 0, and the
    Jacobian is diag(rate_dv, 0).  ``stops`` are (level, direction) pairs: the
    run ends where v crosses a level in its direction (+1 rising, -1
    falling), at the smallest such root; ``stop`` is then that pair's index,
    and ``t[-1]``/``y_end`` hold the stop point.  ``t`` is a list; rtol below
    100 EPS is raised to it, as scipy does.
    """
    t0, t_bound = float(x_span[0]), float(x_span[1])
    if not t_bound >= t0:
        raise ValueError("only forward integration (x_span[1] >= x_span[0]) is supported")
    rtol = max(float(rtol), 100 * EPS)
    atol = float(atol)
    if sensitivity:
        y = [float(v0), 0.0]

        def fun(t, yv):
            v = yv[0]
            return [rate(t, v), rate_dv(t, v)]

        def diag(t, yv):
            return [rate_dv(t, yv[0]), 0.0]
    else:
        y = [float(v0)]

        def fun(t, yv):
            return [rate(t, yv[0])]

        def diag(t, yv):
            return [rate_dv(t, yv[0])]
    n = len(y)

    newton_tol = max(10 * EPS / rtol, min(0.03, rtol ** 0.5))
    t = t0
    f = fun(t, y)
    jdiag = diag(t, y)
    nfev, njev, nlu = 1, 1, 0
    ts, steps = [t0], []
    y_end = y  # the state at ts[-1]
    h_abs = h_last = math.nan
    status = stop = None
    if t == t_bound:
        status = 0
    else:
        h_abs = _initial_step(fun, t, y, f, t_bound, rtol, atol)
        nfev += 1
    h_abs_old = error_norm_old = None
    lu = None
    current_jac = True
    dense = None  # the last accepted step: (t_old, h, y_old, Q)

    levels = [level for level, _ in stops]
    rising = [direction > 0 for _, direction in stops]
    g = [y[0] - level for level in levels]

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
                z0 = [[0.0] * n, [0.0] * n, [0.0] * n]
            else:
                z0 = []
                for cj in C:
                    yj = _dense(t + h * cj, *dense)
                    z0.append([yj[i] - y[i] for i in range(n)])
            scale = [atol + abs(v) * rtol for v in y]
            converged = False
            while not converged:
                if lu is None:
                    lu = ([MU_REAL / h - d for d in jdiag],
                          [1 / (MU_COMPLEX / h - d) for d in jdiag])
                    nlu += 2
                converged, n_iter, z, newton_rate, calls = _solve_collocation(
                    fun, t, y, h, z0, scale, newton_tol, lu[0], lu[1])
                nfev += calls
                if not converged:
                    if current_jac:
                        break
                    jdiag = diag(t, y)
                    njev += 1
                    current_jac = True
                    lu = None
            if not converged:
                h_abs *= 0.5
                lu = None
                continue
            y_new = [y[i] + z[2][i] for i in range(n)]
            ze = [(z[0][i] * E[0] + z[1][i] * E[1] + z[2][i] * E[2]) / h for i in range(n)]
            error = [(f[i] + ze[i]) / lu[0][i] for i in range(n)]
            scale = [atol + max(abs(y[i]), abs(y_new[i])) * rtol for i in range(n)]
            error_norm = _norm([error[i] / scale[i] for i in range(n)])
            safety = 0.9 * (2 * NEWTON_MAXITER + 1) / (2 * NEWTON_MAXITER + n_iter)
            if rejected and error_norm > 1:
                fe = fun(t, [y[i] + error[i] for i in range(n)])
                nfev += 1
                error = [(fe[i] + ze[i]) / lu[0][i] for i in range(n)]
                error_norm = _norm([error[i] / scale[i] for i in range(n)])
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
        f_new = fun(t_new, y_new)
        nfev += 1
        if recompute_jac:
            jdiag = diag(t_new, y_new)
            njev += 1
            current_jac = True
        else:
            current_jac = False
        h_abs_old = h_prop
        error_norm_old = error_norm
        t_old = t
        dense = (t_old, t_new - t_old, y,
                 [[z[0][i] * p[0] + z[1][i] * p[1] + z[2][i] * p[2] for p in zip(*P)]
                  for i in range(n)])
        h_abs = h_abs * factor
        t, y, f = t_new, y_new, f_new
        if t >= t_bound:
            status = 0

        # -- stop levels, located as scipy's solve_ivp locates events -------
        t_end, y_end = t, y
        g_new = [y[0] - level for level in levels]
        active = [k for k in range(len(levels))
                  if (g[k] <= 0 <= g_new[k] if rising[k] else g[k] >= 0 >= g_new[k])]
        if active:
            roots = [brentq(lambda s, level=levels[k]: _dense(s, *dense)[0] - level,
                            t_old, t, xtol=4 * EPS, rtol=4 * EPS) for k in active]
            m = min(range(len(active)), key=roots.__getitem__)
            stop, t_end, status = active[m], roots[m], 1
            y_end = _dense(t_end, *dense)
        g = g_new
        if len(ts) > 1 and ts[-1] == t_end:
            continue  # a stop on the previous step end adds no step
        ts.append(t_end)
        steps.append(dense)

    return RadauResult(
        t=ts, y_end=y_end, sol=RadauSolution(ts, steps), stop=stop,
        nfev=nfev, njev=njev, nlu=nlu,
        status=status, message=MESSAGES[status], h_last=h_last)
