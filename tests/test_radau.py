"""The scalar Radau IIA kernel against scipy's Radau on switching-layer problems.

scipy integrates the same ODE with the stop levels on v as terminal events,
so both must take the same steps and stop at the same level and point.  The
kernel carries the sensitivity J as a quadrature that does not steer the
steps, so its steps and v are compared with scipy's run on v alone and its J
with scipy's run on the (v, J) system.
"""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from switchosc.core import OscillatorParams, SwitchingModel
from switchosc.radau import solve_ivp
from switchosc.regularization import layer_system

# the stop levels of simulate_regularized with a section: v leaves the layer
# through +-1, and the Poincare section is the downward v = 0
STOPS = [(1.0, +1), (-1.0, -1), (0.0, -1)]


def layer_problem(model, a, eps):
    """rate and rate_dv of simulate_regularized's layer ODE."""
    return layer_system(model, OscillatorParams(a=a, epsilon=eps))


def scipy_reference(rate, rate_dv, x_span, v0, sens, stops):
    """scipy's Radau on the (v, J) system, with each stop as a terminal event."""
    def rhs(x, yv):
        return [rate(x, yv[0]), rate_dv(x, yv[0])] if sens else [rate(x, yv[0])]

    def jac(x, yv):
        d = rate_dv(x, yv[0])
        return [[d, 0.0], [0.0, 0.0]] if sens else [[d]]

    events = []
    for level, direction in stops:
        ev = lambda x, yv, level=level: yv[0] - level
        ev.terminal, ev.direction = True, direction
        events.append(ev)
    y0 = [v0, 0.0] if sens else [v0]
    return scipy_solve_ivp(rhs, x_span, y0, method="Radau", jac=jac, rtol=1e-10,
                           atol=1e-12, events=events, dense_output=True)


# entries from above (falling field), from below (rising field) and a section start
STARTS = [(0.3, 1.0 - 1e-12), (2.9, -1.0 + 1e-12), (5.2, 0.0), (8.4, 1.0 - 1e-12)]
CASES = [(model, a, eps, sens)
         for model in SwitchingModel
         for a, eps in [(1e-3, 1e-3), (1e-3, 1e-2), (0.05, 3e-3), (2.0, 1e-3), (2.0, 1e-2)]
         for sens in (False, True)]


@pytest.mark.parametrize("k", range(len(CASES)))
def test_kernel_matches_scipy_radau(k):
    model, a, eps, sens = CASES[k]
    # each start runs both with and without the sensitivity
    x0, v0 = STARTS[(k // 2) % len(STARTS)]
    rate, rate_dv = layer_problem(model, a, eps)
    ref = scipy_reference(rate, rate_dv, (x0, x0 + 2.5), v0, False, STOPS)
    got = solve_ivp(rate, rate_dv, (x0, x0 + 2.5), v0, 1e-10, STOPS, sens)

    assert got.status == ref.status >= 0
    assert got.t[0] == x0 and got.t[-1] == pytest.approx(ref.t[-1], abs=1e-10)
    fired = [i for i, te in enumerate(ref.t_events) if len(te)]
    assert fired == ([got.stop] if got.stop is not None else [])
    if fired:
        assert got.t[-1] == pytest.approx(ref.t_events[got.stop][0], abs=1e-10)
        np.testing.assert_allclose(got.v_end, ref.y_events[got.stop][0][0],
                                   rtol=1e-10, atol=1e-10)

    xq = np.linspace(x0, ref.t[-1], 52)[1:-1]
    np.testing.assert_allclose(got.sol.value(xq), ref.sol(xq)[0], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.v_end, ref.y[0, -1], rtol=1e-10, atol=1e-10)

    assert abs((len(got.t) - 1) - (len(ref.t) - 1)) <= 0.03 * (len(ref.t) - 1)
    assert abs(got.nfev - ref.nfev) <= 0.03 * ref.nfev
    assert got.njev >= 1 and got.nlu >= 2

    if not sens:
        assert got.j_end is None
        return
    # J is not error-controlled: the run takes the plain run's steps exactly
    plain = solve_ivp(rate, rate_dv, (x0, x0 + 2.5), v0, 1e-10, STOPS, False)
    assert got.t == plain.t
    assert (got.nfev, got.njev, got.nlu) == (plain.nfev, plain.njev, plain.nlu)
    assert (got.stop, got.v_end) == (plain.stop, plain.v_end)
    ends = np.array(plain.t)
    assert np.array_equal(got.sol.value(ends), plain.sol.value(ends))
    ref_j = scipy_reference(rate, rate_dv, (x0, x0 + 2.5), v0, True, STOPS)
    assert [i for i, te in enumerate(ref_j.t_events) if len(te)] == fired
    want = ref_j.y_events[got.stop][0][1] if fired else ref_j.y[1, -1]
    np.testing.assert_allclose(got.j_end, want, rtol=1e-10, atol=1e-10)


def test_earliest_stop_wins_when_one_step_crosses_two_levels():
    # v = 0.9 - x falls through 0 at x = 0.9 and through -0.1 at x = 1.0,
    # both inside one step; the run stops at the earlier root
    stops = [(-0.1, -1), (0.0, -1)]
    rate, rate_dv = (lambda x, v: -1.0), (lambda x, v: 0.0)
    got = solve_ivp(rate, rate_dv, (0.0, 10.0), 0.9, 1e-10, stops, False)
    t_old, h = got.sol.steps[-1][:2]
    assert t_old < 0.9 and t_old + h > 1.0  # the last step crosses both levels
    assert got.status == 1 and got.stop == 1
    assert got.t[-1] == pytest.approx(0.9, abs=1e-12)
    assert got.v_end == pytest.approx(0.0, abs=1e-12)
    ref = scipy_reference(rate, rate_dv, (0.0, 10.0), 0.9, False, stops)
    assert [i for i, te in enumerate(ref.t_events) if len(te)] == [got.stop]
    assert got.t[-1] == pytest.approx(ref.t_events[1][0], abs=1e-10)


def test_kernel_reaches_the_end_without_events():
    # on (2.8, 3.2) the run stays inside the strip (max |v| = 0.143)
    rate, rate_dv = layer_problem(SwitchingModel.LINEAR, 0.5, 1e-2)
    got = solve_ivp(rate, rate_dv, (2.8, 3.2), 0.0, 1e-10, [], False)
    ref = scipy_reference(rate, rate_dv, (2.8, 3.2), 0.0, False, [])
    assert got.status == 0 and got.t[-1] == 3.2 and got.stop is None
    assert got.v_end == pytest.approx(ref.y[0, -1], rel=1e-10)
    assert got.sol.value(3.2) == got.v_end
    empty = solve_ivp(rate, rate_dv, (1.0, 1.0), 0.0, 1e-3, [], False)
    assert empty.status == 0 and list(empty.t) == [1.0]


@pytest.mark.parametrize("model", list(SwitchingModel))
def test_kernel_run_leaving_the_strip_without_a_stop_ends(model):
    # from the upper edge with no stop armed the field drives v down through
    # the strip; past v = -2 psi(v) leaves [-1, 1], the rate is NaN and every
    # trial step there fails, so the run ends short of the span at v = -2,
    # where a clipped field would carry the run on to v = -7 and beyond
    rate, rate_dv = layer_problem(model, 1e-3, 1e-3)
    got = solve_ivp(rate, rate_dv, (0.3, 0.31), 1.0 - 1e-12, 1e-10, [], False)
    assert got.status == -1 and got.t[-1] < 0.31
    assert -2.0 - 1e-9 <= got.v_end <= -2.0 + 1e-9


def test_kernel_rejects_what_it_does_not_implement():
    rate, rate_dv = layer_problem(SwitchingModel.LINEAR, 0.5, 1e-2)
    with pytest.raises(ValueError):
        solve_ivp(rate, rate_dv, (1.0, 0.0), 0.0, 1e-3, [], False)


@pytest.mark.parametrize("x_bad", [0.5, -1.0])
def test_nan_rhs_fails_after_bounded_step_halvings(x_bad):
    nan_calls = []

    def rate(x, v):
        if not x <= x_bad:
            nan_calls.append(x)
            if len(nan_calls) > 10_000:
                raise RuntimeError("the kernel keeps stepping on a NaN right-hand side")
            return math.nan
        return -50.0 * (v - math.cos(x))

    sol = solve_ivp(rate, lambda x, v: -50.0, (0.0, 1.0), 1.0, 1e-10, [], False)
    assert sol.status == -1 and "step size" in sol.message
    assert sol.t[-1] <= max(x_bad, 0.0)
    # every NaN attempt halves the step, from at most 1 down to 10 ulp(x)
    assert len(nan_calls) <= 3 * 2 * 60
    assert 0.0 < sol.h_last < 10 * math.ulp(1.0) or math.isnan(sol.h_last)


@pytest.mark.parametrize("jacobian", [math.inf, math.nan])
def test_non_finite_jacobian_ends_the_run_where_it_was_evaluated(jacobian):
    # an infinite Jacobian would zero the Newton increments, a false
    # convergence that keeps v = 1 to the end instead of exp(-1); a NaN one
    # fails every Newton iteration and halves the step down to 10 ulp(x)
    calls = []

    def rate(x, v):
        calls.append(x)
        return -v

    sol = solve_ivp(rate, lambda x, v: jacobian, (0.0, 1.0), 1.0, 1e-10, [], False)
    assert sol.status == -1 and "Jacobian" in sol.message
    assert sol.t == [0.0] and sol.v_end == 1.0
    assert len(calls) == 2  # the rate at the start and the initial-step probe
