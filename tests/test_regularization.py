import math
import re
from bisect import bisect_left, bisect_right

import numpy as np
import pytest
from scipy.integrate import solve_ivp
from scipy.optimize import brentq

from switchosc.analytic_flow import flow_from, flow_solution
from switchosc import radau, regularization
from switchosc.core import (
    DomainError,
    Mode,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    forcing,
    sinpi,
)
from switchosc.poincare import composite_map, find_nonsliding_period4, next_crossing
from switchosc.regularization import (
    CaptureError,
    capture_start,
    convergence_to_vr,
    critical_branch,
    exit_scaling_fit,
    find_regularized_sliding_orbit_linear,
    fit_power_law,
    fold_points,
    layer_system,
    measure_exit_point,
    psi,
    psi_inverse,
    psi_prime,
    regularized_fixed_point,
    regularized_poincare_linear,
    simulate_regularized,
    slow_manifold_expansion,
    v_r_reference,
)
from switchosc.sliding import find_sliding_period4_nonlinear

LIN = SwitchingModel.LINEAR
NONLIN = SwitchingModel.NONLINEAR


def test_cubic_psi_properties_and_inverse():
    assert psi(1.0) == 1.0 and psi(-1.0) == -1.0
    assert all(psi_prime(float(v)) > 0.0 for v in np.linspace(-1.0, 1.0, 2001)[1:-1])
    # closed-form inverse against plain bisection on the monotone cubic
    for lam in (-0.999, -0.5, 0.0, 0.5, 0.97):
        ref = brentq(lambda v: psi(v) - lam, -1.0, 1.0, xtol=1e-15)
        assert psi_inverse(lam) == pytest.approx(ref, abs=1e-13)
    # round trip to a few ulp on a grid holding both ends, and the ends themselves
    lams = np.linspace(-1.0, 1.0, 20001)
    assert lams[0] == -1.0 and lams[-1] == 1.0
    assert max(abs(psi(psi_inverse(float(lam))) - lam) for lam in lams) <= 4.5e-16
    assert abs(psi_inverse(1.0) - 1.0) <= 2.3e-16
    assert abs(psi_inverse(-1.0) + 1.0) <= 2.3e-16
    for lam in (1.0 + 1e-12, math.nan):
        with pytest.raises(DomainError):
            psi_inverse(lam)


def test_layer_field_values():
    p = OscillatorParams(a=0.7, epsilon=1e-3)
    # on a critical branch the forcing vanishes and dv = -a v0
    v0 = critical_branch(LIN, 1, 3.0)
    rate = layer_system(LIN, p)[0]
    assert rate(3.0, v0) == pytest.approx(-p.a * v0, abs=1e-9)
    rate, rate_dv = layer_system(NONLIN, p)
    assert rate(2.0, 0.0) == pytest.approx(0.0, abs=1e-12)
    # generic point agrees with the core forcing scaled by 1/eps
    x, v = 1.234, 0.4
    expected = (-p.a * p.epsilon * v - forcing(NONLIN, x, psi(v))) / p.epsilon
    assert rate(x, v) == pytest.approx(expected, rel=1e-12)
    # the kernel's Jacobian and sensitivity rate, d rate/dv
    assert rate_dv(x, v) == pytest.approx(
        (rate(x, v + 1e-6) - rate(x, v - 1e-6)) / 2e-6, rel=1e-7)


def test_critical_branch_values():
    assert critical_branch(LIN, 1, 3.0) == pytest.approx(0.0, abs=1e-13)
    assert critical_branch(NONLIN, 2, 2.0) == pytest.approx(0.0, abs=1e-13)
    # psi(v0) = 0.5 at x = 0.8 on branch 1: bisection oracle on the cubic
    ref = brentq(lambda v: 0.5 * v * (3 - v * v) - 0.5, -1, 1, xtol=1e-15)
    assert critical_branch(NONLIN, 1, 0.8) == pytest.approx(ref, abs=1e-13)
    with pytest.raises(DomainError):
        critical_branch(NONLIN, 1, 2.5)


def test_fold_points_formula():
    # eps -> 0 limit is the tangency lattice
    p0 = OscillatorParams(a=0.01, epsilon=1e-12)
    assert fold_points(+1, 2, p0) == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert fold_points(-1, 2, p0) == pytest.approx(4.0, abs=1e-9)
    # formula matches the bisection root of the boundary equation
    p = OscillatorParams(a=0.01, epsilon=0.0025)
    for sign, w in ((+1, 1.5), (-1, 0.5)):
        for n in (1, 2, 5):
            base = 2.0 * n / 3.0 if sign > 0 else 2.0 * n
            g = lambda x: -p.a * p.epsilon * sign - sinpi(w * x)
            ref = brentq(g, base - 0.2, base + 0.2, xtol=1e-15)
            assert fold_points(sign, n, p) == pytest.approx(ref, abs=1e-12)
    # offsets alternate with n through the (-1)^(n+1) factor
    d1 = fold_points(+1, 1, p) - 2.0 / 3.0
    d2 = fold_points(+1, 2, p) - 4.0 / 3.0
    assert d1 > 0.0 > d2
    # a*eps >= 1 is already rejected at parameter construction
    with pytest.raises(DomainError):
        OscillatorParams(a=1.2, epsilon=0.9)


def test_attracting_branch_capture_rate():
    # distance to the slow manifold decays exponentially at the linearized
    # fast rate |df/dv| / eps once the transient is in the linear regime
    p = OscillatorParams(a=0.01, epsilon=1e-3)
    n = 4
    x0, v_start = capture_start(n, offset_frac=0.1)
    traj = simulate_regularized(NONLIN, p, x0, v_start, x0 + 0.01,
                                rtol=1e-12)
    v0 = critical_branch(NONLIN, 2 * n, x0)
    rate = math.pi * x0 / 2.0 * psi_prime(v0) / p.epsilon
    xs = np.linspace(x0 + 5e-5, x0 + 2.5e-4, 7)
    ref = np.array([slow_manifold_expansion(n, float(x), p)["v_first_order"]
                    for x in xs])
    d = np.abs(traj.eval(xs) - ref)
    slope = np.polyfit(xs, np.log(d), 1)[0]
    assert slope == pytest.approx(-rate, rel=0.35)


def test_slow_manifold_expansion_values():
    # near-zero damping: v1 = -2 v0' / (pi x psi'(v0)) with the chain-rule v0'
    p = OscillatorParams(a=1e-12, epsilon=1e-3)
    n = 5
    x = 2.0 * n
    sm = slow_manifold_expansion(n, x, p)
    assert sm["v0"] == pytest.approx(0.0, abs=1e-12)
    v0p = (-2.0 * (2 * n) / x**2) / 1.5
    assert sm["v0_prime"] == pytest.approx(v0p, rel=1e-9)
    assert sm["v1"] == pytest.approx(-2.0 * v0p / (math.pi * x * 1.5), rel=1e-9)
    # O(1/n) bound at branch centers
    pa = OscillatorParams(a=0.01, epsilon=1e-3)
    for n in range(2, 21):
        assert abs(slow_manifold_expansion(n, 2.0 * n, pa)["v1"]) <= 0.2 / n
    with pytest.raises(DomainError):
        slow_manifold_expansion(3, 12.0 - 1e-6, pa)  # fold proximity


def test_measured_trajectory_matches_first_order_expansion():
    # sup |v - v0| <= 2 eps |v1| inside the flat window, and the signed
    # deviation agrees with eps*v1
    p = OscillatorParams(a=0.01, epsilon=1e-3)
    n = 8
    x0, v_start = capture_start(n)
    traj = simulate_regularized(NONLIN, p, x0, v_start, 3.0 * n + 2.0,
                                rtol=1e-11)
    for x in np.linspace(7.0 * n / 3.0, 3.0 * n + 2.0, 50):
        sm = slow_manifold_expansion(n, float(x), p)
        v = float(traj.eval([x])[0])
        assert abs(v - sm["v0"]) <= 2.0 * p.epsilon * abs(sm["v1"])
        assert (v - sm["v0"]) * sm["v1"] > 0.0  # same side as the expansion


def test_exit_point_measurement_and_eps_limit():
    p = OscillatorParams(a=0.01, epsilon=1e-3)
    m = measure_exit_point(10, p)
    assert m.x_e > m.fold_x
    assert m.delay == pytest.approx((p.epsilon**2 / 10) ** (1.0 / 3.0), rel=0.65)
    # eps -> 0 at fixed n: x_e -> 4n
    delays = [measure_exit_point(5, OscillatorParams(a=0.01, epsilon=e)).x_e - 20.0
              for e in (1e-3, 1e-4, 1e-5)]
    assert delays[0] > delays[1] > delays[2] > 0.0


def test_fit_power_law_guards():
    with pytest.raises(DomainError):
        fit_power_law([(1.0, 1.0), (2.0, 2.0)])
    with pytest.raises(DomainError):
        fit_power_law([(1.0, 1.0), (2.0, 2.0), (3.0, 3.0), (4.0, 4.0)],
                      min_decades=2.0)


def test_exit_scaling_fit_short_grid():
    fit_eps, fit_n = exit_scaling_fit(
        a=0.01, eps_grid=[1e-2, 1e-3, 3e-4, 1e-4], n_fixed=6,
        n_grid=[4, 6, 10, 16], eps_fixed=1e-3)
    assert fit_eps.exponent == pytest.approx(2.0 / 3.0, abs=0.07)
    assert fit_n.exponent == pytest.approx(-1.0 / 3.0, abs=0.07)
    assert fit_eps.r_squared > 0.98 and fit_n.r_squared > 0.98
    assert fit_eps.decades >= 2.0


def test_boundary_return_map_windows():
    # the exterior return from a fold of the boundary v = +-1 to that boundary
    p = OscillatorParams(a=1.0, epsilon=1e-3)
    r_plus = regularization._ext_return(+1, fold_points(+1, 1, p), 1.0, p)
    assert fold_points(+1, 2, p) < r_plus < fold_points(+1, 3, p)
    r_minus = regularization._ext_return(-1, fold_points(-1, 0, p), -1.0, p)
    assert fold_points(-1, 1, p) < r_minus < fold_points(-1, 2, p)


def test_boundary_return_map_eps_limit_is_next_crossing():
    p = OscillatorParams(a=1.0, epsilon=1e-8)
    ref = next_crossing(-1, 0.0, OscillatorParams(a=1.0)).x_next
    assert regularization._ext_return(-1, fold_points(-1, 0, p), -1.0, p) == pytest.approx(
        ref, abs=1e-5)


def test_regularized_map_converges_to_discontinuous():
    a = 0.01
    x = 0.6
    pd = composite_map(x, a)
    gaps = []
    for eps in (4e-3, 2e-3, 1e-3):
        gaps.append(abs(regularized_poincare_linear(
            x, OscillatorParams(a=a, epsilon=eps)) - pd))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 4e-3 * 1.0  # O(eps) magnitude


def test_section_return_has_no_zero_length_arc():
    # a start on the section, where the field points down, would stop at once
    # and leave a zero-length layer arc; the run starts just below it instead
    p = OscillatorParams(a=0.01, epsilon=1e-3)
    traj = regularization._section_return(0.3, p)
    assert traj.segments[0].x0 == 0.3 and traj.eval(0.3)[0] == -1e-12
    assert all(s.x1 > s.x0 for s in traj.segments)


def test_regularized_fixed_point_near_discontinuous():
    a = 0.01
    eps = 0.0025
    x_star, _ = find_nonsliding_period4(a)
    fp = regularized_fixed_point(OscillatorParams(a=a, epsilon=eps),
                                 (x_star - 0.08, x_star + 0.08))
    assert abs(fp - x_star) < 5.0 * eps
    # derivative of P_eps at the fixed point stays contracting
    d = 1e-5
    p = OscillatorParams(a=a, epsilon=eps)
    der = (regularized_poincare_linear(fp + d, p)
           - regularized_poincare_linear(fp - d, p)) / (2 * d)
    assert 0.0 < der < 1.0


def test_capture_reported_outside_nonsliding_regime():
    with pytest.raises(CaptureError):
        regularized_poincare_linear(0.3, OscillatorParams(a=2.0, epsilon=1e-3))
    with pytest.raises(CaptureError):
        regularized_poincare_linear(0.28, OscillatorParams(a=2.0, epsilon=1e-2))


def test_regularized_sliding_orbit_linear():
    a = 2.0
    orb = find_regularized_sliding_orbit_linear(a, OscillatorParams(a=a, epsilon=2.5e-3))
    # period-4 closure of the section map
    res = regularized_poincare_linear(orb.fixed_point,
                                      OscillatorParams(a=a, epsilon=2.5e-3),
                                      allow_capture=True)
    assert res == pytest.approx(orb.fixed_point + 4.0, abs=1e-8)
    assert orb.sliding_span[1] - orb.sliding_span[0] > 0.3
    assert orb.log_contraction < -40.0  # exponentially strong contraction


def test_vr_reference_properties():
    p = OscillatorParams(a=0.01, epsilon=0.0025)
    vr = v_r_reference(4, p)
    lo = 2.0 - 2.0 * math.asin(p.a * p.epsilon)
    assert lo < vr.x_eps_a < 4.0
    # continuity at the junction: piece 1 lands back on the boundary value
    at_junction = float(vr.eval([vr.x_reentry])[0])
    assert at_junction == pytest.approx(-1.0, abs=1e-10)
    # starts on the boundary
    assert float(vr.eval([vr.x_start])[0]) == pytest.approx(-1.0, abs=1e-12)


def test_vr_eps_limit_is_discontinuous_orbit():
    # eps * v_r converges to the discontinuous sliding orbit y_d
    a = 0.5
    orbit = find_sliding_period4_nonlinear(a)
    sup_gaps = []
    for eps in (1e-3, 1e-4):
        p = OscillatorParams(a=a, epsilon=eps)
        vr = v_r_reference(3, p)
        xs = np.linspace(vr.x_start + 1e-9, vr.x_start + 4.0 - 1e-9, 300)
        y_vr = eps * vr.eval(xs)
        # y_d on the same window: flow from (12, 0) until 12 + x_a, zero after
        y_d = np.array([
            flow_solution(-1, float(x), 12.0, OscillatorParams(a=a))
            if x <= 12.0 + orbit.x_a else 0.0
            for x in xs])
        sup_gaps.append(float(np.max(np.abs(y_vr - y_d))))
    assert sup_gaps[0] < 0.02 and sup_gaps[1] < sup_gaps[0]


def test_convergence_to_vr_windows_smoke():
    p = OscillatorParams(a=0.01, epsilon=0.0025)
    traj = simulate_regularized(NONLIN, p, 14.1, 1.1, 14.1 + 4 * 12)
    rows = convergence_to_vr(traj, 6, 10)
    sups = [r["sup_distance"] for r in rows]
    assert all(s1 >= s2 for s1, s2 in zip(sups, sups[1:]))
    assert all(r["consecutive_distance"] > 1e-12 for r in rows)


def test_normal_hyperbolicity_signs():
    # d f/dv = psi'(v0) * df/dlambda carries the branch stability: positive on
    # attracting branches, negative on repelling ones, for both models
    from switchosc.core import forcing_dlam
    from switchosc.sliding import linear_branches, nonlinear_branches

    for model, branches in ((LIN, linear_branches((0.0, 12.0))),
                            (NONLIN, nonlinear_branches((0.0, 20.0)))):
        for b in branches:
            for t in (0.2, 0.5, 0.8):
                x = b.domain[0] + t * b.width
                lam = b.lambda_of(x)
                v0 = psi_inverse(lam)
                dfdv = psi_prime(v0) * forcing_dlam(model, x, lam)
                if b.stability == "attracting":
                    assert dfdv > 0.0, (model, b.index, x)
                else:
                    assert dfdv < 0.0, (model, b.index, x)


def test_riccati_window_dominance():
    # in the fold blow-up coordinates the field reduces to -(xt + vt^2); the
    # dropped terms must stay below 10% of the dominant ones in the window
    a = 0.01
    eps = 1e-3
    n = 10
    p = OscillatorParams(a=a, epsilon=eps)
    m = measure_exit_point(n, p, rtol=1e-11)
    psi_second = 3.0  # psi''(-1) = -3 v at v = -1
    alpha = (math.pi / 2.0 * math.asin(a * eps)
             + n * math.pi**2 * psi_second / 2.0) ** (1.0 / 3.0)
    x_scale = eps ** (2.0 / 3.0) / alpha
    v_scale = math.pi * eps ** (1.0 / 3.0) / (2.0 * alpha**2)
    worst = 0.0
    for xt in np.linspace(-2.0, -0.5, 12):
        x = m.fold_x + x_scale * xt
        v = float(m.trajectory.eval([x])[0])
        vt = (v + 1.0) / v_scale
        dvdx = (-a * eps * v - forcing(NONLIN, x, psi(v))) / eps
        vt_prime = dvdx * x_scale / v_scale
        dominant = xt + vt * vt
        resid = abs(vt_prime + dominant)
        worst = max(worst, resid / max(abs(xt), vt * vt, 1.0))
    assert worst < 0.10, worst


def test_layer_exit_events_are_exact():
    p = OscillatorParams(a=0.01, epsilon=1e-3)
    m = measure_exit_point(6, p)
    v_at_exit = float(m.trajectory.eval([m.x_e])[0])
    assert v_at_exit == pytest.approx(-1.0, abs=1e-9)


def test_funnel_windows_capture_onto_branch_2n():
    # layer entries through the stated fold windows end up tracking the
    # attracting branch 2n: from V+ through (x+_{eps,2n}, x+_{2n+1}), from
    # V- through (x-_{eps,2n-1}, x-_{2n}); here 2n = 6
    p = OscillatorParams(a=0.5, epsilon=1e-3)
    lo_p, hi_p = fold_points(+1, 6, p), 14.0 / 3.0 - 0.05
    lo_m, hi_m = fold_points(-1, 5, p), 12.0 - 0.4
    for lo, hi, v_in in ((lo_p, hi_p, 1.0 - 1e-9), (lo_m, hi_m, -1.0 + 1e-9)):
        for frac in (0.1, 0.5, 0.9):
            x_in = lo + 1e-4 + frac * (hi - lo - 1e-4)
            traj = simulate_regularized(NONLIN, p, x_in, v_in, x_in + 0.6,
                                        rtol=1e-10)
            xq = x_in + 0.5
            v = float(traj.eval([xq])[0])
            v0 = critical_branch(NONLIN, 6, xq)
            assert abs(v - v0) < 0.01, (x_in, v_in, v, v0)


def test_exterior_return_inside_the_first_probe_step():
    # a start just above the layer on a falling phase returns to it within
    # 0.06; the run must follow the full ODE there
    p = OscillatorParams(a=0.01, epsilon=2.5e-3)
    x0, v0 = 13.900927392651871, 1.0861487030897792
    traj = simulate_regularized(NONLIN, p, x0, v0, 20.0)

    def full(x, z):
        v = z[0]
        lam = 0.5 * v * (3.0 - v * v) if abs(v) <= 1.0 else math.copysign(1.0, v)
        return [(-p.a * p.epsilon * v - forcing(NONLIN, x, lam)) / p.epsilon]

    xq = np.array([13.95, 13.97757696, 14.5, 16.0, 18.0, 20.0])
    ref = solve_ivp(full, (x0, 20.0), [v0], method="Radau", rtol=1e-11, atol=1e-13,
                    t_eval=xq)
    assert ref.status == 0
    np.testing.assert_allclose(traj.eval(xq), ref.y[0], rtol=0.0, atol=1e-6)
    assert traj.events[0].kind == "layer-entry" and traj.events[0].x < 13.96


def test_failed_layer_integration_reports_its_state(monkeypatch):
    real = regularization.forcing
    x_bad = 0.3 + 1e-4  # inside the first layer transit from (0.3, 0)
    monkeypatch.setattr(regularization, "forcing",
                        lambda model, x, lam: math.nan if x > x_bad else real(model, x, lam))
    with pytest.raises(SolverError) as info:
        simulate_regularized(LIN, OscillatorParams(a=0.01, epsilon=1e-3), 0.3, 0.0, 2.0)
    err = info.value
    assert 0.3 <= err.x <= x_bad and -1.0 < err.v < 0.0
    assert 0.0 < err.h < 10 * math.ulp(err.x)
    assert f"x={err.x!r}" in str(err) and f"v={err.v!r}" in str(err)


@pytest.mark.parametrize("x0, v0, x_end, eps", [
    (math.nan, 0.0, 5.0, 1e-2),
    (math.inf, 0.0, 5.0, 1e-2),
    (0.5, math.nan, 5.0, 1e-2),
    (0.5, math.inf, 5.0, 1e-2),
    (0.5, 0.0, math.nan, 1e-2),
    (0.5, 0.0, math.inf, 1e-2),
    (0.5, 0.0, 0.4, 1e-2),
    (0.5, 0.0, 5.0, 0.0),
], ids=["x0-nan", "x0-inf", "v0-nan", "v0-inf", "x_end-nan", "x_end-inf", "x_end-before-x0",
        "eps-zero"])
def test_simulate_regularized_rejects_bad_input(x0, v0, x_end, eps):
    p = OscillatorParams(a=0.01, epsilon=eps)
    with pytest.raises(DomainError):
        simulate_regularized(LIN, p, x0, v0, x_end)


def test_regularized_map_rejects_non_finite_start():
    with pytest.raises(DomainError):
        regularized_poincare_linear(math.nan, OscillatorParams(a=0.01, epsilon=1e-2))


def _count_runs(monkeypatch) -> list:
    """Wrap simulate_regularized; the returned list collects one entry per run."""
    runs = []
    real = regularization.simulate_regularized

    def counted(*args, **kwargs):
        runs.append(args[2])
        return real(*args, **kwargs)

    monkeypatch.setattr(regularization, "simulate_regularized", counted)
    return runs


def test_regularized_fixed_point_bracket_contract(monkeypatch):
    p = OscillatorParams(a=0.01, epsilon=1e-2)
    runs = _count_runs(monkeypatch)
    # ends in either order; from the midpoint 0.6 the first Newton step
    # overshoots, so this solve also takes the bisection fallback
    assert regularized_fixed_point(p, (0.7, 0.5)) == pytest.approx(0.63735, abs=1e-5)
    assert 0.5 in runs and 0.7 in runs and len(runs) <= 12
    for bracket in ((math.nan, 0.7), (0.5, math.inf)):
        with pytest.raises(DomainError):
            regularized_fixed_point(p, bracket)
    # no fixed point: the Newton step leaves the bracket, the ends show no
    # sign change; DomainError is a ValueError, like scipy's brentq error
    runs.clear()
    with pytest.raises(ValueError, match="no fixed point"):
        regularized_fixed_point(p, (0.3, 0.4))
    assert len(runs) <= 3


def test_regularized_fixed_point_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(regularization, "_FIXED_POINT_RUNS", 2)
    with pytest.raises(SolverError) as info:
        regularized_fixed_point(OscillatorParams(a=0.01, epsilon=1e-2), (0.5, 0.7))
    found = re.search(r"last iterate x=(\S+), g=(\S+), bracket=\((\S+), (\S+)\)",
                      str(info.value))
    x, g, lo, hi = map(float, found.groups())
    assert 0.5 <= lo <= x <= hi <= 0.7 and g != 0.0


@pytest.mark.parametrize("eps", [1e-2, 2.5e-3])
def test_log_sensitivity_matches_finite_difference(eps):
    # where P' < 1e-3 the finite difference's own error (P_eps to ~1e-14 over
    # 2h = 2e-6) exceeds the bound, so those points are left out
    a, h = 0.01, 1e-6
    p = OscillatorParams(a=a, epsilon=eps)
    x_star, _ = find_nonsliding_period4(a)
    checked = 0
    for x in np.linspace(x_star - 0.08, x_star + 0.08, 9):
        x = float(x)
        traj = simulate_regularized(LIN, p, x, 0.0, x + 12.0, rtol=1e-11,
                                    stop_at_downward_v0_after=x + 0.5,
                                    with_sensitivity=True)
        slope = math.exp(traj.log_sensitivity)
        if slope < 1e-3:
            continue
        fd = (regularized_poincare_linear(x + h, p, allow_capture=True)
              - regularized_poincare_linear(x - h, p, allow_capture=True)) / (2.0 * h)
        assert fd == pytest.approx(slope, rel=1e-6), x
        checked += 1
    assert checked >= 7


@pytest.mark.parametrize("a, eps", [(a, eps) for a in (0.005, 0.01, 0.02)
                                    for eps in (1e-2, 1e-3)] + [(2.0, 1e-2), (2.0, 1e-3)])
def test_fixed_point_agrees_with_brentq_within_run_budget(monkeypatch, a, eps):
    p = OscillatorParams(a=a, epsilon=eps)
    runs = _count_runs(monkeypatch)
    if a < 1.0:
        x_star, _ = find_nonsliding_period4(a)
        bracket = (x_star - 0.08, x_star + 0.08)
        fp = regularized_fixed_point(p, bracket)
        assert len(runs) <= 6
    else:
        bracket = (0.02, 0.64)
        fp = find_regularized_sliding_orbit_linear(a, p).fixed_point
        # only the Newton runs: the contraction is the last run's log P_eps'
        assert len(runs) <= 3 and fp + 1e-4 not in runs and fp - 1e-4 not in runs
    ref = brentq(lambda x: regularized_poincare_linear(x, p, allow_capture=True) - (x + 4.0),
                 *bracket, xtol=1e-13)
    assert abs(fp - ref) <= 1e-12


def _relative_gap(got, want):
    return np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))


def test_trajectory_eval_matches_per_point_semantics():
    # a run with exterior arcs on both sides, a captured slide and transits;
    # queried at every segment start and end, every layer step end, and
    # points inside the steps and the exterior arcs
    p = OscillatorParams(a=0.01, epsilon=1e-2)
    e = p.epsilon
    traj = simulate_regularized(NONLIN, p, 14.1, 1.1, 56.0)
    spans = traj.layer_spans()
    assert traj.captured_spans() and len(traj.captured_spans()) < len(spans)
    assert {s.mode for s in traj.segments if s.mode is not Mode.LAYER} == {
        Mode.FLOW_PLUS, Mode.FLOW_MINUS}

    pts = [x for s in traj.segments for x in (s.x0, s.x1)]
    for s in traj.segments:
        if s.mode is Mode.LAYER:
            ts = s.eval.__self__.ts
            pts += ts + [0.5 * (t0 + t1) for t0, t1 in zip(ts, ts[1:])]
        else:
            pts += np.linspace(s.x0, s.x1, 41)[1:-1].tolist()
    xq = np.array(pts)
    got = traj.eval(xq)
    assert got.shape == xq.shape

    starts = [s.x0 for s in traj.segments]
    exact, ext_want, ext_got = 0, [], []
    for x, v in zip(xq, got):
        j = bisect_right(starts, x) - 1  # a segment start takes the later segment
        seg = traj.segments[j]
        if seg.mode is Mode.LAYER:
            sol = seg.eval.__self__
            k = min(max(bisect_left(sol.ts, x) - 1, 0), len(sol.steps) - 1)  # a step end: earlier step
            assert v == radau._dense(float(x), *sol.steps[k]), (x, j, k)
            exact += 1
        else:
            side = 1 if seg.mode is Mode.FLOW_PLUS else -1
            v0 = 1.1 if j == 0 else float(side)
            ext_want.append(flow_from(side, float(x), seg.x0, e * v0, p) / e)
            ext_got.append(v)
    assert exact > 1000 and len(ext_want) > 100
    assert _relative_gap(np.array(ext_got), np.array(ext_want)) <= 1e-12

    # the same values in any order and shape
    perm = np.random.default_rng(6).permutation(len(xq))
    assert np.array_equal(traj.eval(xq[perm]), got[perm])
    assert np.array_equal(traj.eval(xq[:60].reshape(3, 20)), got[:60].reshape(3, 20))

    vr = v_r_reference(11, p)
    xs = np.concatenate([np.linspace(vr.x_start - 0.5, vr.x_start + 4.0, 601),
                         [vr.x_start, vr.x_reentry]])
    want = np.array([flow_from(-1, max(float(x), vr.x_start), vr.x_start, -e, p) / e
                     if x <= vr.x_reentry else -1.0 for x in xs])
    got_vr = vr.eval(xs)
    assert np.all(got_vr[xs > vr.x_reentry] == -1.0)
    assert _relative_gap(got_vr, want) <= 1e-12


def test_trajectory_eval_rejects_points_outside_the_run():
    p = OscillatorParams(a=0.01, epsilon=2.5e-3)
    traj = simulate_regularized(NONLIN, p, 14.1, 1.1, 30.0)
    assert (traj.x_start, traj.x_end) == (14.1, 30.0)
    ends = traj.eval([14.1, 30.0])
    assert ends[0] == pytest.approx(1.1, abs=1e-12) and abs(ends[1]) <= 1.0
    for bad in (math.nan, math.inf, -math.inf, 5.0, 100.0, 14.1 - 1e-9, 30.0 + 1e-9):
        with pytest.raises(DomainError, match="outside the simulated range"):
            traj.eval([20.0, bad])
    empty = simulate_regularized(NONLIN, p, 14.1, 1.1, 14.1)  # a run of length zero
    with pytest.raises(DomainError, match="outside the simulated range"):
        empty.eval([14.1])
