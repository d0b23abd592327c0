"""Correctness checks and the independent integrations they compare against.

Every check returns a list of problems (empty when the result passes).  The
oracles integrate the model equations with their own right-hand sides and
scipy's general-purpose solvers; they share no code with switchosc, so an
error in the program's closed forms, contact finders or layer engine shows
as a disagreement.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

X_STAR_PAPER = 0.6261249968  # non-sliding fixed point of the linear model at a = 0.01
X_STAR_TOL = 1e-8
CROSSING_TOL = 1e-8          # oracle error is ~1e-11; a 1e-6 shift must fail
RETURN_TOL = 1e-8            # oracle error is ~1e-13; a 1e-6 shift moves it >= 3.8e-7
V_TOL = 1e-6
Y_CONFINED_TOL = 1e-12
V_CONFINED_TOL = 1e-9
EVEN_TOL = 1e-9


def omega(sign: int) -> float:
    return 1.5 if sign > 0 else 0.5


def psi(v: float) -> float:
    """The cubic switch profile, saturated outside the layer."""
    v = min(1.0, max(-1.0, v))
    return 0.5 * v * (3.0 - v * v)


# ---------------------------------------------------------------------------
# oracles


def ode_crossing(sign: int, x_i: float, a: float, reach: float,
                 skip: float = 1e-3, grid: float = 1e-3) -> float:
    """First return to y = 0 of y' = -a y - sin(w pi x) leaving (x_i, 0) into S_sign.

    Searches (x_i + skip, x_i + reach].  The dense solution is scanned on a
    ``grid``-spaced mesh, because a near-tangent return dips through y = 0
    and back within one solver step, where step-end event detection misses
    it.  Skipping the first ``skip`` keeps the trivial zero at x_i out.
    """
    w = omega(sign)

    def rhs(x, y):
        return [-a * y[0] - math.sin(w * math.pi * x)]

    x_hi = x_i + reach
    sol = solve_ivp(rhs, (x_i, x_hi), [0.0], method="DOP853", rtol=1e-12,
                    atol=1e-14, dense_output=True)
    xs = np.arange(x_i + skip, x_hi, grid)
    ys = sign * sol.sol(xs)[0]
    past = np.flatnonzero(ys <= 0.0)
    if not past.size or past[0] == 0:
        raise RuntimeError(f"oracle found no return from x={x_i} into S_{sign} "
                           f"within {reach}")
    k = past[0]
    return float(brentq(lambda x: sol.sol(x)[0], xs[k - 1], xs[k], xtol=1e-14))


def _layer_rate(model: str, a: float, eps: float):
    """dv/dx of the full regularized system in layer units v = y/eps."""
    if model == "linear":
        def force(x, lam):
            return (0.5 * (1.0 + lam) * math.sin(1.5 * math.pi * x)
                    + 0.5 * (1.0 - lam) * math.sin(0.5 * math.pi * x))
    else:
        def force(x, lam):
            return math.sin(math.pi * x * (1.0 + 0.5 * lam))

    def rhs(x, z):
        v = z[0]
        return [(-a * eps * v - force(x, psi(v))) / eps]

    return rhs


def reg_linear_return(x0: float, a: float, eps: float) -> float:
    """Next downward v = 0 crossing past x0 + 1/2 of the regularized linear system."""
    def down(x, z):
        return z[0] if x > x0 + 0.5 else -1.0

    down.terminal, down.direction = True, -1
    sol = solve_ivp(_layer_rate("linear", a, eps), (x0, x0 + 6.0), [0.0],
                    method="Radau", rtol=1e-10, atol=1e-12, events=down)
    if not sol.t_events[0].size:
        raise RuntimeError(f"oracle found no section return from x={x0}")
    return float(sol.t_events[0][0])


def reg_nonlinear_v(x0: float, v0: float, a: float, eps: float, xq) -> np.ndarray:
    """v at the sorted abscissae xq of the regularized nonlinear system from (x0, v0)."""
    xq = np.asarray(xq, dtype=float)
    sol = solve_ivp(_layer_rate("nonlinear", a, eps), (x0, float(xq[-1])), [v0],
                    method="Radau", rtol=1e-11, atol=1e-13, t_eval=xq)
    if sol.status != 0:
        raise RuntimeError(f"oracle integration failed: {sol.message}")
    return sol.y[0]


# ---------------------------------------------------------------------------
# disc-sweep checks


def contact_arcs(traj) -> list[tuple[int, float, float]]:
    """(sign, departure x, return x) of every half-plane arc from y = 0 back to y = 0.

    The run's last segment is cut at x_end and is no complete arc.
    """
    arcs = []
    for seg in traj.segments:
        mode = seg.mode.value
        if mode in ("flow+", "flow-") and seg.ys[0] == 0.0 and seg.ys[-1] == 0.0 \
                and seg.xs[-1] < traj.x_end:
            arcs.append((1 if mode == "flow+" else -1, seg.xs[0], seg.xs[-1]))
    return arcs


def check_crossings(arcs, a: float) -> list[str]:
    """Each claimed first return agrees with the oracle's, searched up to just past it."""
    out = []
    for sign, x_i, x_next in arcs:
        try:
            ref = ode_crossing(sign, x_i, a, reach=x_next - x_i + 0.25)
        except RuntimeError as exc:
            out.append(f"crossing from {x_i} claimed at {x_next!r}: {exc}")
            continue
        if not abs(ref - x_next) <= CROSSING_TOL:
            out.append(f"crossing from {x_i} into S_{sign} at a={a}: program {x_next!r}, "
                       f"oracle {ref!r}")
    return out


def check_confined(traj) -> list[str]:
    """Nonlinear runs from (0, 0) stay in y <= 0 after their first contact."""
    if not traj.events:
        return ["no threshold contact"]
    first = traj.events[0].x
    worst = max((y for seg in traj.segments for x, y in zip(seg.xs, seg.ys)
                 if x > first), default=-math.inf)
    return [] if worst <= Y_CONFINED_TOL else [
        f"y = {worst} > 0 after the first contact at x={first}"]


def check_slide_exits(traj) -> list[str]:
    """Nonlinear branch n slides to its right end 2n: every exit is an even integer."""
    out = []
    exits = [e.x for e in traj.events if e.kind == "slide-exit"]
    if not exits:
        out.append("no slide exit")
    for x in exits:
        if not abs(x - 2.0 * round(x / 2.0)) <= EVEN_TOL * max(1.0, abs(x)):
            out.append(f"slide exit at x={x!r} is not an even integer")
    return out


def check_margins(rows) -> list[str]:
    return [f"n={r['n']}: margins {r['margin_plus']}, {r['margin_minus']}" for r in rows
            if not (r["margin_plus"] > 0.0 and r["margin_minus"] > 0.0)]


def check_period4(a: float, x_star: float, multiplier: float) -> list[str]:
    out = []
    if not 0.0 < multiplier < 1.0:
        out.append(f"multiplier {multiplier} outside (0, 1) at a={a}")
    if a == 0.01 and not abs(x_star - X_STAR_PAPER) <= X_STAR_TOL:
        out.append(f"x* = {x_star!r} at a=0.01, paper {X_STAR_PAPER}")
    return out


# ---------------------------------------------------------------------------
# reg-return-map checks


def check_fixed_point_error(fp: float, x_star: float, eps: float) -> list[str]:
    return [] if abs(fp - x_star) <= 5.0 * eps else [
        f"|fp - x*| = {abs(fp - x_star)} > 5 eps = {5.0 * eps}"]


def check_errors_fall(errors: list[tuple[float, float]]) -> list[str]:
    """(eps, |fp - x*|) pairs at one a: the error falls with eps."""
    errors = sorted(errors, reverse=True)
    return [f"error {e2} at eps={p2} not below {e1} at eps={p1}"
            for (p1, e1), (p2, e2) in zip(errors, errors[1:]) if not e2 < e1]


def check_return(fp: float, a: float, eps: float) -> list[str]:
    xr = reg_linear_return(fp, a, eps)
    return [] if abs(xr - (fp + 4.0)) <= RETURN_TOL else [
        f"orbit from fp={fp!r} (a={a}, eps={eps}) returns at {xr!r}, not fp + 4"]


def check_sliding_pair(coarse, fine) -> list[str]:
    """coarse/fine: (eps, captured spans, log_contraction) of the a = 2 orbits."""
    out = [f"no captured span at eps={eps}" for eps, spans, _ in (coarse, fine) if not spans]
    if not fine[2] <= coarse[2] - math.log(10.0):
        out.append(f"log contraction {fine[2]} at eps={fine[0]} is not ln 10 below "
                   f"{coarse[2]} at eps={coarse[0]}")
    return out


# ---------------------------------------------------------------------------
# reg-long-run checks


def check_v_confined(v_after) -> list[str]:
    worst = float(np.max(v_after))
    return [] if worst <= 1.0 + V_CONFINED_TOL else [
        f"v = {worst} > 1 after the first layer entry"]


def check_distances(sups) -> list[str]:
    return [f"window distance rose from {s1} to {s2}" for s1, s2 in zip(sups, sups[1:])
            if not s2 <= s1 + 1e-9]


def check_v_oracle(v_prog, v_ref, xq) -> list[str]:
    return [f"v({x}) = {vp!r}, oracle {vr!r}" for x, vp, vr in zip(xq, v_prog, v_ref)
            if not abs(vp - vr) <= V_TOL]


def slide_branch(traj) -> tuple[int, float]:
    """Branch index and exit of the longest layer stay, from v on its middle."""
    entry, exit_x = max(traj.layer_spans(), key=lambda s: s[1] - s[0])
    mid = 0.5 * (entry + exit_x)
    lam = psi(float(traj.eval([mid])[0]))
    return round(mid * (1.0 + 0.5 * lam)), exit_x


def check_paper_run(branch: int, exit_x: float) -> list[str]:
    out = []
    if branch != 22:
        out.append(f"slides on branch {branch}, paper 22")
    if not abs(exit_x - 44.0) <= 0.5:
        out.append(f"slide exit at {exit_x}, paper 44 +- 0.5")
    return out
