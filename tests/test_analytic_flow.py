import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from switchosc.analytic_flow import (
    MAX_POINTS,
    flow_from,
    flow_from_array,
    flow_scale,
    flow_solution,
    h,
    h0_zeros,
    next_contact,
    p0_map,
    phase_lag,
    varphi_over_pi,
)
from switchosc.core import (
    DomainError,
    OscillatorError,
    OscillatorParams,
    SolverError,
    omega,
    sinpi,
)
from switchosc.experiments import ivp_contact
from switchosc.regularization import fold_points


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


def test_flow_from_starts_exactly_at_y0_and_matches_the_unshifted_form():
    # the unshifted form: y_p(x) + exp(-a (x - x0)) (y0 - y_p(x0))
    rng = np.random.default_rng(17)
    for _ in range(300):
        sign = 1 if rng.uniform() < 0.5 else -1
        p = OscillatorParams(a=float(10.0 ** rng.uniform(-3, 1)))
        x0, y0 = float(rng.uniform(0.0, 40.0)), sign * float(rng.uniform(0.0, 2.0))
        x = x0 + rng.uniform(0.0, 6.0, size=4)
        assert flow_from(sign, x0, x0, y0, p) == y0
        assert flow_from_array(sign, np.array([x0]), x0, y0, p)[0] == y0
        w, a = omega(sign), p.a
        yp = lambda u: ((w * math.pi * np.cos(w * math.pi * u) - a * np.sin(w * math.pi * u))
                        / ((w * math.pi) ** 2 + a**2))
        want = yp(x) + np.exp(-a * (x - x0)) * (y0 - yp(x0))
        got = flow_from_array(sign, x, x0, y0, p)
        np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
        scalar = [flow_from(sign, u, x0, y0, p) for u in x.tolist()]
        np.testing.assert_allclose(got, scalar, rtol=0.0, atol=1e-15)
    with pytest.raises(DomainError):
        flow_from(+1, 0.9, 1.0, 0.2, OscillatorParams(a=0.5))


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


def h0_zeros_up_to(sign, x_i, p, horizon):
    """The zeros of h0 from one departure in [0, horizon], sorted."""
    zs = np.sort(h0_zeros(sign, np.array(x_i), p, horizon))
    return zs[(zs >= 0.0) & (zs <= horizon)].tolist()


def test_h0_zeros_contain_period_lattice_and_are_roots():
    p = OscillatorParams(a=1.0)
    zs = h0_zeros_up_to(+1, 10.0 / 3.0, p, 12.0)[:8]
    # the 2n/w family is always present
    for k in (0.0, 4.0 / 3.0, 8.0 / 3.0):
        assert any(abs(z - k) < 1e-12 for z in zs)
    # and every reported zero is a genuine root of h0
    vq = varphi_over_pi(+1, 10.0 / 3.0, p)
    for z in zs:
        assert sinpi(vq) - sinpi(1.5 * z + vq) == pytest.approx(0.0, abs=1e-9)


def test_zero_lattices_are_sorted():
    # each row holds two lattices of step 2/w, the first from 0, both past the horizon
    p = OscillatorParams(a=0.5)
    x_i = np.array([7.7, -3.1, 0.0, 401.9])
    zs = h0_zeros(-1, x_i, p, 400.0)
    half = zs.shape[1] // 2
    assert zs.shape == (4, 2 * half)
    for lattice in (zs[:, :half], zs[:, half:]):
        np.testing.assert_allclose(np.diff(lattice, axis=1), 4.0, rtol=0.0, atol=1e-12)
        assert np.all(lattice[:, -1] > 400.0)
    assert np.all(zs[:, 0] == 0.0)
    np.testing.assert_array_equal(zs[0], h0_zeros(-1, np.array(7.7), p, 400.0))


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


def horizon(sign, x0, y0, a):
    """The finder's horizon x0 + 8/w + max(0, ln(|y0|/amp)/a)."""
    w = omega(sign)
    amp = 1.0 / math.hypot(w * math.pi, a)
    return x0 + 8.0 / w + max(0.0, math.log(abs(y0) / amp) / a)


def check_contact(sign, x0, y0, level, p):
    want = ivp_contact(sign, x0, y0, level, p.a)
    if want > horizon(sign, x0, y0, p.a):
        # the horizon is sized from |y0|, not from |y0 - y_p(x0)|: a contact
        # past it is reported as missing, never as a later one
        with pytest.raises(SolverError, match="no contact"):
            next_contact(sign, x0, y0, level, p)
        return 0
    got = next_contact(sign, x0, y0, level, p)
    assert got > x0 and got == pytest.approx(want, rel=0.0, abs=1e-9), (x0, y0, level, p)
    return 1


def _draw(rng):
    p = OscillatorParams(a=float(10.0 ** rng.uniform(-3.0, 1.0)),
                         epsilon=float(10.0 ** rng.uniform(-3.0, -2.0)))
    return p, float(rng.uniform(0.0, 200.0))


@pytest.mark.parametrize("sign", [1, -1])
def test_next_contact_from_interior_and_off_boundary_starts(sign):
    # an interior start at small a may run for hundreds of periods before its
    # contact, and the oracle follows each of them, so it is drawn less often
    rng = np.random.default_rng(11 + sign)
    located = 0
    for k in range(30):
        p, x0 = _draw(rng)
        if k % 3 == 0:
            located += check_contact(sign, x0, sign * float(rng.uniform(1e-3, 1.0)), 0.0, p)
        e = p.epsilon
        located += check_contact(sign, x0, sign * e * float(rng.uniform(1.0 + 1e-6, 1.5)),
                                 sign * e, p)
    assert located >= 30


@pytest.mark.parametrize("a", [1e-300, 1e-9])
def test_next_contact_refuses_a_lattice_past_the_cap(a):
    # the transient of y0 = 1 decays over ln(|y0|/amp)/a, so the lattice would
    # hold billions of points or more; the search stops before building it
    p = OscillatorParams(a=a)
    with pytest.raises(SolverError, match=f"more than {MAX_POINTS}") as exc:
        next_contact(+1, 0.0, 1.0, 0.0, p)
    assert f"(0.0, 1.0) in S_+1 at a={a!r}" in str(exc.value)


@pytest.mark.parametrize("sign", [1, -1])
def test_next_contact_from_boundary_starts(sign):
    # on y = sign*eps the flow either leaves the strip (a contact follows) or
    # enters it at once, which is rejected
    rng = np.random.default_rng(21 + sign)
    entering = 0
    for _ in range(40):
        p, x0 = _draw(rng)
        level = sign * p.epsilon
        if sign * (p.a * level + math.sin(omega(sign) * math.pi * x0)) < 0.0:
            check_contact(sign, x0, level, level, p)
        else:
            entering += 1
            with pytest.raises(OscillatorError, match="at once"):
                next_contact(sign, x0, level, level, p)
    assert 10 <= entering <= 30


@pytest.mark.parametrize("sign,parity", [(-1, 0), (1, 1)])
def test_next_contact_from_outward_and_inward_folds(sign, parity):
    # at fold_points(sign, n) the field is tangent to y = sign*eps; the fold
    # is outward for even n on side -1 (as v_r_reference starts) and for odd
    # n on side +1, inward for the other parity.  A start just before an
    # inward fold leaves the strip and is back just after the fold.
    rng = np.random.default_rng(31 + sign)
    for _ in range(40):
        p, _x = _draw(rng)
        n = 2 * int(rng.integers(0, 100 if sign < 0 else 300) // 2) + parity
        level = sign * p.epsilon
        check_contact(sign, fold_points(sign, n, p), level, level, p)
        inward = fold_points(sign, n + 1, p)
        with pytest.raises(OscillatorError, match="at once"):
            next_contact(sign, inward, level, level, p)
        eta = float(10.0 ** rng.uniform(-6.0, -1.0)) / omega(sign)
        check_contact(sign, inward - eta, level, level, p)
