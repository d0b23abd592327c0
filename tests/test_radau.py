"""The scalar Radau IIA kernel against scipy's Radau on switching-layer problems."""

import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp as scipy_solve_ivp

from switchosc.core import OscillatorParams, SwitchingModel
from switchosc.radau import solve_ivp
from switchosc.regularization import layer_system


def layer_problem(model, a, eps, with_sensitivity):
    """rhs and jac of simulate_regularized's layer ODE, and events on v = +-1, 0."""
    _, rhs, jac = layer_system(model, OscillatorParams(a=a, epsilon=eps), with_sensitivity)
    up = lambda x, yv: yv[0] - 1.0
    up.terminal, up.direction = True, +1
    down = lambda x, yv: yv[0] + 1.0
    down.terminal, down.direction = True, -1
    mid = lambda x, yv: yv[0]  # non-terminal, either direction
    return rhs, jac, [up, down, mid]


# entries from above (falling field), from below (rising field) and a section start
STARTS = [(0.3, 1.0 - 1e-12), (2.9, -1.0 + 1e-12), (5.2, 0.0), (8.4, 1.0 - 1e-12)]
CASES = [(model, a, eps, sens)
         for model in SwitchingModel
         for a, eps in [(1e-3, 1e-3), (1e-3, 1e-2), (0.05, 3e-3), (2.0, 1e-3), (2.0, 1e-2)]
         for sens in (False, True)]


@pytest.mark.parametrize("k", range(len(CASES)))
def test_kernel_matches_scipy_radau(k):
    model, a, eps, sens = CASES[k]
    x0, v0 = STARTS[k % len(STARTS)]
    rhs, jac, events = layer_problem(model, a, eps, sens)
    y0 = [v0, 0.0] if sens else [v0]
    kw = dict(method="Radau", jac=jac, rtol=1e-10, atol=1e-12, events=events,
              dense_output=True)
    ref = scipy_solve_ivp(rhs, (x0, x0 + 2.5), y0, **kw)
    got = solve_ivp(rhs, (x0, x0 + 2.5), y0, **kw)

    assert got.status == ref.status >= 0
    assert got.t[0] == x0 and got.t[-1] == pytest.approx(ref.t[-1], abs=1e-10)
    for te, tr, ye, yr in zip(got.t_events, ref.t_events, got.y_events, ref.y_events):
        assert len(te) == len(tr)
        np.testing.assert_allclose(te, tr, rtol=0.0, atol=1e-10)
        np.testing.assert_allclose(ye, yr, rtol=1e-10, atol=1e-10)

    xq = np.linspace(x0, ref.t[-1], 52)[1:-1]
    dense = [[got.sol.value(x, i) for x in xq] for i in range(len(y0))]
    np.testing.assert_allclose(dense, ref.sol(xq), rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(got.y_end, ref.y[:, -1], rtol=1e-10, atol=1e-10)

    assert abs((len(got.t) - 1) - (len(ref.t) - 1)) <= 0.03 * (len(ref.t) - 1)
    assert abs(got.nfev - ref.nfev) <= 0.03 * ref.nfev
    assert got.njev >= 1 and got.nlu >= 2


def test_kernel_reaches_the_end_without_events():
    rhs, jac, _ = layer_problem(SwitchingModel.LINEAR, 0.5, 1e-2, False)
    got = solve_ivp(rhs, (1.0, 1.5), [0.0], jac=jac, rtol=1e-10, atol=1e-12)
    ref = scipy_solve_ivp(rhs, (1.0, 1.5), [0.0], method="Radau", jac=jac,
                          rtol=1e-10, atol=1e-12)
    assert got.status == 0 and got.t[-1] == 1.5 and got.t_events == []
    assert got.y_end[0] == pytest.approx(ref.y[0, -1], rel=1e-10)
    assert got.sol.value(1.5) == got.y_end[0]
    empty = solve_ivp(rhs, (1.0, 1.0), [0.0], jac=jac)
    assert empty.status == 0 and list(empty.t) == [1.0]


def test_kernel_rejects_what_it_does_not_implement():
    rhs, jac, _ = layer_problem(SwitchingModel.LINEAR, 0.5, 1e-2, False)
    with pytest.raises(ValueError):
        solve_ivp(rhs, (0.0, 1.0), [0.0], method="BDF", jac=jac)
    with pytest.raises(ValueError):
        solve_ivp(rhs, (0.0, 1.0), [0.0])
    with pytest.raises(ValueError):
        solve_ivp(rhs, (1.0, 0.0), [0.0], jac=jac)
    with pytest.raises(ValueError):
        solve_ivp(lambda x, y: [0.0] * 3, (0.0, 1.0), [0.0] * 3, jac=jac)
    with pytest.raises(ValueError):
        solve_ivp(lambda x, y: [0.0, 0.0], (0.0, 1.0), [0.0, 0.0],
                  jac=lambda x, y: [[1.0, 1.0], [0.0, 0.0]])


@pytest.mark.parametrize("x_bad", [0.5, -1.0])
def test_nan_rhs_fails_after_bounded_step_halvings(x_bad):
    nan_calls = []

    def rhs(x, y):
        if not x <= x_bad:
            nan_calls.append(x)
            if len(nan_calls) > 10_000:
                raise RuntimeError("the kernel keeps stepping on a NaN right-hand side")
            return [math.nan]
        return [-50.0 * (y[0] - math.cos(x))]

    sol = solve_ivp(rhs, (0.0, 1.0), [1.0], jac=lambda x, y: [[-50.0]],
                    rtol=1e-10, atol=1e-12)
    assert sol.status == -1 and "step size" in sol.message
    assert sol.t[-1] <= max(x_bad, 0.0)
    # every NaN attempt halves the step, from at most 1 down to 10 ulp(x)
    assert len(nan_calls) <= 3 * 2 * 60
    assert 0.0 < sol.h_last < 10 * math.ulp(1.0) or math.isnan(sol.h_last)
