import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from switchosc.analytic_flow import (
    flow_from,
    flow_scale,
    flow_solution,
    h,
    h0_zeros,
    hinf_zeros,
    p0_map,
    phase_lag,
    varphi_over_pi,
)
from switchosc.core import OscillatorParams, omega, sinpi


def eq14_reference(sign: int, x: float, x_i: float, params: OscillatorParams) -> float:
    """Unshifted closed form, written directly from the constant-variation solution."""
    w = omega(sign)
    a = params.a
    den = (w * math.pi) ** 2 + a**2
    return (w * math.pi * math.cos(w * math.pi * x) - a * math.sin(w * math.pi * x)
            + math.exp(-a * (x - x_i)) * (a * math.sin(w * math.pi * x_i)
                                          - w * math.pi * math.cos(w * math.pi * x_i))
            ) / den


def test_phase_constants_values():
    # tan(phi) = w pi / a = 1 when a = 1.5 pi
    assert phase_lag(+1, OscillatorParams(a=1.5 * math.pi)) == pytest.approx(
        math.pi / 4.0, abs=1e-14)
    p0 = OscillatorParams(a=1e-12)
    assert phase_lag(+1, p0) == pytest.approx(math.pi / 2.0, abs=1e-10)
    assert phase_lag(-1, p0) == pytest.approx(math.pi / 2.0, abs=1e-10)
    p_inf = OscillatorParams(a=1e6)
    assert phase_lag(+1, p_inf) < 1e-5 and phase_lag(-1, p_inf) < 1e-5


def test_flow_initial_condition_and_slope():
    p = OscillatorParams(a=0.7)
    for sign, x_i in ((+1, 0.37), (-1, 2.83), (+1, 11.0 / 3.0)):
        assert flow_solution(sign, x_i, x_i, p) == pytest.approx(0.0, abs=1e-14)
        d = 1e-7
        slope = (flow_solution(sign, x_i + d, x_i, p) - 0.0) / d
        assert slope == pytest.approx(-sinpi(omega(sign) * x_i), abs=1e-6)


def test_flow_matches_dense_integration():
    # oracle: adaptive high-order integration of the smooth half-plane ODE
    p = OscillatorParams(a=0.01)
    sol = solve_ivp(lambda x, y: [-p.a * y[0] - math.sin(0.5 * math.pi * x)],
                    (0.5, 3.0), [0.0], rtol=1e-12, atol=1e-14, dense_output=True)
    assert flow_solution(-1, 3.0, 0.5, p) == pytest.approx(
        float(sol.y[0, -1]), abs=1e-9)


def test_shifted_and_unshifted_forms_agree():
    rng = np.random.default_rng(7)
    for _ in range(300):
        a = float(10.0 ** rng.uniform(-3, 1))
        x_i = float(rng.uniform(0.0, 40.0))
        xbar = float(rng.uniform(0.0, 6.0))
        sign = 1 if rng.uniform() < 0.5 else -1
        p = OscillatorParams(a=a)
        assert flow_solution(sign, x_i + xbar, x_i, p) == pytest.approx(
            eq14_reference(sign, x_i + xbar, x_i, p), abs=1e-12)


def test_flow_from_general_initial_condition():
    p = OscillatorParams(a=0.4)
    # reduces to the threshold flow when y0 = 0
    assert flow_from(+1, 2.5, 1.0, 0.0, p) == pytest.approx(
        flow_solution(+1, 2.5, 1.0, p), abs=1e-14)
    # satisfies the ODE: central difference of the solution
    d = 1e-6
    x = 3.2
    lhs = (flow_from(-1, x + d, 1.7, -0.3, p) - flow_from(-1, x - d, 1.7, -0.3, p)) / (2 * d)
    rhs = -p.a * flow_from(-1, x, 1.7, -0.3, p) - sinpi(0.5 * x)
    assert lhs == pytest.approx(rhs, abs=1e-8)


def test_h_vanishes_at_zero_and_decays_to_hinf():
    p = OscillatorParams(a=1.0)
    for sign, x_i in ((+1, 10.0 / 3.0), (-1, 0.0), (-1, 4.5)):
        assert h(sign, 0.0, x_i, p) == pytest.approx(0.0, abs=1e-14)
        w = omega(sign)
        vq = varphi_over_pi(sign, x_i, p)
        for xbar in (5.0, 9.0):
            tail = abs(h(sign, xbar, x_i, p) - (-sinpi(w * xbar + vq)))
            assert tail <= math.exp(-p.a * xbar) + 1e-15


def test_h_sign_change_brackets_first_crossing_from_10_3():
    # h leaves 0 positively (the orbit enters S+) and has flipped negative by
    # xbar = 4/3: exactly the sign pattern that pins the first crossing inside
    # the (2/3, 4/3) comparison-lattice bracket
    p = OscillatorParams(a=1.0)
    assert h(+1, 0.05, 10.0 / 3.0, p) > 0.0
    assert h(+1, 2.0 / 3.0, 10.0 / 3.0, p) > 0.0
    assert h(+1, 4.0 / 3.0, 10.0 / 3.0, p) < 0.0


def test_h_is_scaled_flow():
    p = OscillatorParams(a=0.3)
    for xbar in (0.3, 1.1, 2.6):
        assert h(-1, xbar, 0.7, p) == pytest.approx(
            flow_solution(-1, 0.7 + xbar, 0.7, p) * flow_scale(-1, p), abs=1e-12)


def test_h0_zeros_contain_period_lattice_and_are_roots():
    p = OscillatorParams(a=1.0)
    zs = h0_zeros(+1, 10.0 / 3.0, p, 12.0)[:8]
    assert zs == sorted(zs)
    # the 2n/w family is always present
    for k in (0.0, 4.0 / 3.0, 8.0 / 3.0):
        assert any(abs(z - k) < 1e-12 for z in zs)
    # and every reported zero is a genuine root of h0
    vq = varphi_over_pi(+1, 10.0 / 3.0, p)
    for z in zs:
        assert sinpi(vq) - sinpi(1.5 * z + vq) == pytest.approx(0.0, abs=1e-9)


def test_hinf_zeros_large_a_limit():
    # as a -> infinity the first nondegenerate zero from x_i = 10/3 tends to 2/3
    p = OscillatorParams(a=1e6)
    zs = hinf_zeros(+1, 10.0 / 3.0, p, 2.0)[:3]
    assert zs[0] == pytest.approx(0.0, abs=1e-5)
    assert zs[1] == pytest.approx(2.0 / 3.0, abs=1e-5)
    vq = varphi_over_pi(+1, 10.0 / 3.0, p)
    for z in zs:
        assert sinpi(1.5 * z + vq) == pytest.approx(0.0, abs=1e-9)


def test_zero_lattices_are_sorted():
    p = OscillatorParams(a=0.5)
    zs = h0_zeros(-1, 7.7, p, 400.0)[:200]
    assert all(z2 >= z1 for z1, z2 in zip(zs, zs[1:]))
    assert all(z >= 0.0 for z in zs)


def test_sandwich_property():
    # h^inf < h < h^0 wherever sin(varphi) > 0, reversed when negative
    rng = np.random.default_rng(3)
    for _ in range(200):
        a = float(10.0 ** rng.uniform(-2, 1))
        p = OscillatorParams(a=a)
        sign = 1 if rng.uniform() < 0.5 else -1
        x_i = float(rng.uniform(0.0, 12.0))
        w = omega(sign)
        vq = varphi_over_pi(sign, x_i, p)
        s = sinpi(vq)
        if abs(s) < 1e-6:
            continue
        for xbar in rng.uniform(1e-3, 5.0, size=8):
            h0 = s - sinpi(w * xbar + vq)
            hinf = -sinpi(w * xbar + vq)
            hv = h(sign, float(xbar), x_i, p)
            strict = math.exp(-a * xbar) * abs(s) > 1e-14  # decay below one ulp ties them
            if s > 0:
                assert (hinf < hv < h0) if strict else (hinf <= hv <= h0)
            else:
                assert (h0 < hv < hinf) if strict else (h0 <= hv <= hinf)


def test_p0_map_values():
    assert p0_map(-1, 0.5) == pytest.approx(3.5, abs=1e-14)
    assert p0_map(-1, 1e-12) == pytest.approx(4.0, abs=1e-9)
    # composite a = 0 identity on the crossing window
    for x in np.linspace(0.05, 0.6, 12):
        x1 = p0_map(-1, float(x))
        assert x1 == pytest.approx(4.0 - float(x), abs=1e-12)
        assert p0_map(+1, x1) == pytest.approx(4.0 + float(x), abs=1e-12)
