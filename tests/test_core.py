import math

import numpy as np
import pytest

from switchosc.core import (
    DomainError,
    HybridState,
    Mode,
    OscillatorParams,
    Region,
    SwitchingModel,
    classify_threshold_point,
    cospi,
    forcing,
    sinpi,
    sinpi_array,
    vector_field,
)


def test_forcing_linear_lambda_plus_one_is_triple_angle():
    # triple-angle identity collapses the linear model at lambda = +1
    assert forcing(SwitchingModel.LINEAR, 0.4, 1.0) == pytest.approx(
        math.sin(1.5 * math.pi * 0.4), abs=1e-14)


def test_forcing_nonlinear_at_integer_x():
    assert forcing(SwitchingModel.NONLINEAR, 2.0, 0.0) == pytest.approx(0.0, abs=1e-14)


def test_forcing_linear_midpoint_value():
    # [1 + cos(pi/2)] sin(pi/4) = sqrt(2)/2
    assert forcing(SwitchingModel.LINEAR, 0.5, 0.0) == pytest.approx(
        math.sqrt(2.0) / 2.0, abs=1e-14)


def test_forcing_rejects_lambda_outside_range():
    with pytest.raises(DomainError):
        forcing(SwitchingModel.LINEAR, 0.3, 1.2)


@pytest.mark.parametrize("model", list(SwitchingModel))
def test_models_agree_off_threshold(model):
    # both models reduce to sin(w+- pi x) at lambda = +-1, everywhere
    for x in np.linspace(-13.0, 987.0, 1717):
        assert forcing(model, float(x), 1.0) == pytest.approx(
            sinpi(1.5 * float(x)), abs=1e-12)
        assert forcing(model, float(x), -1.0) == pytest.approx(
            sinpi(0.5 * float(x)), abs=1e-12)


def test_vector_field_simple_values():
    p = OscillatorParams(a=1.0)
    st = HybridState(x=0.0, y=1.0, mode=Mode.FLOW_PLUS)
    assert vector_field(SwitchingModel.LINEAR, p, st) == pytest.approx((1.0, -1.0))
    p2 = OscillatorParams(a=0.5)
    st2 = HybridState(x=1.0 / 3.0, y=-2.0, mode=Mode.FLOW_MINUS)
    dx, dy = vector_field(SwitchingModel.NONLINEAR, p2, st2)
    assert dx == 1.0
    assert dy == pytest.approx(1.0 - math.sin(math.pi / 6.0), abs=1e-14)


def test_vector_field_derived_value_independent_evaluation():
    # oracle: direct evaluation of -a y - sin(1.5 pi x) with stdlib trig
    p = OscillatorParams(a=2.0)
    st = HybridState(x=0.9, y=0.1, mode=Mode.FLOW_PLUS)
    _, dy = vector_field(SwitchingModel.LINEAR, p, st)
    assert dy == pytest.approx(-0.2 - math.sin(1.35 * math.pi), abs=1e-13)


def test_vector_field_rejects_threshold():
    p = OscillatorParams(a=1.0)
    with pytest.raises(DomainError):
        vector_field(SwitchingModel.LINEAR, p,
                     HybridState(x=0.5, y=0.0, mode=Mode.SLIDING))


def test_classify_paper_examples():
    assert classify_threshold_point(3.0) is Region.ATTRACTING
    assert classify_threshold_point(1.0) is Region.REPELLING
    assert classify_threshold_point(2.0 / 3.0) is Region.TANGENCY_PLUS
    assert classify_threshold_point(2.0) is Region.TANGENCY_MINUS
    assert classify_threshold_point(0.4) is Region.CROSSING


def test_classify_is_four_periodic():
    for x in np.linspace(0.01, 3.99, 211):
        r = classify_threshold_point(float(x))
        for k in (1, 3, 25):
            assert classify_threshold_point(float(x) + 4.0 * k) is r


def test_classify_matches_field_directions():
    # attracting: both fields point toward y = 0; repelling: away; crossing: same sign
    p = OscillatorParams(a=0.3)
    for x in np.linspace(0.013, 3.987, 547):
        region = classify_threshold_point(float(x))
        dy_plus = vector_field(SwitchingModel.LINEAR, p,
                               HybridState(x=float(x), y=1e-9, mode=Mode.FLOW_PLUS))[1]
        dy_minus = vector_field(SwitchingModel.LINEAR, p,
                                HybridState(x=float(x), y=-1e-9, mode=Mode.FLOW_MINUS))[1]
        if region is Region.ATTRACTING:
            assert dy_plus < 0 < dy_minus
        elif region is Region.REPELLING:
            assert dy_minus < 0 < dy_plus
        elif region is Region.CROSSING:
            assert (dy_plus > 0) == (dy_minus > 0)


def test_params_validation():
    with pytest.raises(DomainError):
        OscillatorParams(a=-1.0)
    with pytest.raises(DomainError):
        OscillatorParams(a=1.0, epsilon=-0.1)
    with pytest.raises(DomainError):
        OscillatorParams(a=2.0, epsilon=0.6)  # a*eps >= 1
    # non-finite values: a = inf would make the crossing probe step 1/(4a) zero
    for bad in ({"a": math.inf}, {"a": math.nan},
                {"a": 1.0, "epsilon": math.nan}, {"a": 1.0, "epsilon": math.inf}):
        with pytest.raises(DomainError):
            OscillatorParams(**bad)


def test_hybrid_state_invariants():
    with pytest.raises(DomainError):
        HybridState(x=0.0, y=-1.0, mode=Mode.FLOW_PLUS)
    with pytest.raises(DomainError):
        HybridState(x=0.0, y=0.1, mode=Mode.SLIDING)


def test_sinpi_reduction_is_exact_at_lattice_points():
    # the whole point of the reduction: exact zeros stay exact at large x
    for k in (2, 100, 668, 10_000):
        assert sinpi(float(k)) == 0.0
        assert abs(cospi(float(k))) == 1.0
    # against stdlib at moderate arguments where math.sin is still accurate
    for u in np.linspace(-3.7, 8.9, 401):
        assert sinpi(float(u)) == pytest.approx(math.sin(math.pi * u), abs=5e-15)
        assert cospi(float(u)) == pytest.approx(math.cos(math.pi * u), abs=5e-15)


def test_array_trig_matches_scalar_reduction():
    # exact zeros at the integers, at any size and sign, and the scalar values
    # elsewhere, up to the library sin
    zeros = np.array([-1001.0, -3.0, -1.0, -0.0, 0.0, 1.0, 2.0, 668.0, 10_000.0, 2.0**40])
    assert np.all(sinpi_array(zeros) == 0.0)
    u = np.concatenate([np.linspace(-3.7, 8.9, 401), np.linspace(1e3, 1e3 + 4.0, 97),
                        zeros, zeros + 0.5])
    got = sinpi_array(u)
    want = np.array([sinpi(float(x)) for x in u])
    assert np.all((got == 0.0) == (want == 0.0))
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-15)
