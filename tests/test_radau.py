"""The scalar Radau IIA kernel against scipy's Radau on switching-layer problems.

scipy integrates the same (v, J) system with the stop levels on v as
terminal events, so both must stop at the same level and point.
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
    ref = scipy_reference(rate, rate_dv, (x0, x0 + 2.5), v0, sens, STOPS)
    got = solve_ivp(rate, rate_dv, (x0, x0 + 2.5), v0, 1e-10, 1e-12, STOPS, sens)

    assert got.status == ref.status >= 0
    assert got.t[0] == x0 and got.t[-1] == pytest.approx(ref.t[-1], abs=1e-10)
    fired = [i for i, te in enumerate(ref.t_events) if len(te)]
    assert fired == ([got.stop] if got.stop is not None else [])
    if fired:
        assert got.t[-1] == pytest.approx(ref.t_events[got.stop][0], abs=1e-10)
        np.testing.assert_allclose(got.y_end, ref.y_events[got.stop][0],
                                   rtol=1e-10, atol=1e-10)

    xq = np.linspace(x0, ref.t[-1], 52)[1:-1]
    dense = [[got.sol.value(x, i) for x in xq] for i in range(len(got.y_end))]
    np.testing.assert_allclose(dense, ref.sol(xq), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.y_end, ref.y[:, -1], rtol=1e-10, atol=1e-10)

    assert abs((len(got.t) - 1) - (len(ref.t) - 1)) <= 0.03 * (len(ref.t) - 1)
    assert abs(got.nfev - ref.nfev) <= 0.03 * ref.nfev
    assert got.njev >= 1 and got.nlu >= 2


def test_kernel_reaches_the_end_without_events():
    rate, rate_dv = layer_problem(SwitchingModel.LINEAR, 0.5, 1e-2)
    got = solve_ivp(rate, rate_dv, (1.0, 1.5), 0.0, 1e-10, 1e-12, [], False)
    ref = scipy_reference(rate, rate_dv, (1.0, 1.5), 0.0, False, [])
    assert got.status == 0 and got.t[-1] == 1.5 and got.stop is None
    assert got.y_end[0] == pytest.approx(ref.y[0, -1], rel=1e-10)
    assert got.sol.value(1.5) == got.y_end[0]
    empty = solve_ivp(rate, rate_dv, (1.0, 1.0), 0.0, 1e-3, 1e-6, [], False)
    assert empty.status == 0 and list(empty.t) == [1.0]


def test_kernel_rejects_what_it_does_not_implement():
    rate, rate_dv = layer_problem(SwitchingModel.LINEAR, 0.5, 1e-2)
    with pytest.raises(ValueError):
        solve_ivp(rate, rate_dv, (1.0, 0.0), 0.0, 1e-3, 1e-6, [], False)


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

    sol = solve_ivp(rate, lambda x, v: -50.0, (0.0, 1.0), 1.0, 1e-10, 1e-12, [], False)
    assert sol.status == -1 and "step size" in sol.message
    assert sol.t[-1] <= max(x_bad, 0.0)
    # every NaN attempt halves the step, from at most 1 down to 10 ulp(x)
    assert len(nan_calls) <= 3 * 2 * 60
    assert 0.0 < sol.h_last < 10 * math.ulp(1.0) or math.isnan(sol.h_last)
