"""The one trajectory type both engines return: validate, eval, samples, failures."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from switchosc import regularization, sliding
from switchosc.core import (
    GAP_TOL,
    DomainError,
    Mode,
    OscillatorError,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    Trajectory,
    TrajectorySegment,
)
from switchosc.regularization import simulate_regularized
from switchosc.sliding import simulate_discontinuous

LIN = SwitchingModel.LINEAR
NONLIN = SwitchingModel.NONLINEAR


def _constant(c):
    return lambda x: np.full(np.shape(x), c)


def _traj(*segs):
    return Trajectory(params=OscillatorParams(a=0.5), model=LIN, segments=list(segs))


def _seg(x0, x1, y0=0.0, y1=0.0, c=0.0):
    return TrajectorySegment(Mode.FLOW_PLUS, x0, x1, y0, y1, _constant(c))


def test_validate_accepts_abutting_segments():
    _traj(_seg(0.0, 1.0, y1=0.25), _seg(1.0, 2.0, y0=0.25, y1=math.nan)).validate()
    _traj(_seg(0.0, 1.0), _seg(1.0 + 0.5 * GAP_TOL, 2.0, y0=0.5 * GAP_TOL)).validate()
    _traj().validate()


@pytest.mark.parametrize("segs,match", [
    ((_seg(0.0, 1.0), _seg(1.0 + 2.0 * GAP_TOL, 2.0)), "do not abut"),
    ((_seg(0.0, 1.0), _seg(1.0, 2.0, y0=2.0 * GAP_TOL)), "do not abut"),
    ((_seg(0.0, 1.0, y1=math.nan), _seg(1.0, 2.0)), "do not abut"),
    ((_seg(0.0, 1.0), _seg(1.0, 1.0 - 1e-6)), "runs backwards"),
    ((_seg(0.0, math.nan),), "runs backwards"),
])
def test_validate_rejects_gaps_and_backward_segments(segs, match):
    with pytest.raises(SolverError, match=match):
        _traj(*segs).validate()


def test_validate_passes_on_a_regularized_run():
    # the E11 start: exterior arcs on both sides, transits and a captured slide
    traj = simulate_regularized(NONLIN, OscillatorParams(a=0.01, epsilon=2.5e-3),
                                14.1, 1.1, 50.0)
    assert traj.captured_spans()
    assert {s.mode for s in traj.segments} == {Mode.LAYER, Mode.FLOW_PLUS, Mode.FLOW_MINUS}
    traj.validate()


def test_samples_are_tabulated_once_and_pin_zero_ends():
    calls = []

    def arc(x):
        calls.append(len(x))
        return 1.0 + x

    seg = TrajectorySegment(Mode.FLOW_PLUS, 2.0, 2.05, 0.0, 0.0, arc)
    assert seg.xs[0] == 2.0 and len(seg.xs) == 9  # at least 8 intervals
    assert calls == []  # reading x does not evaluate
    ys = seg.ys
    assert ys is seg.ys and calls == [9]
    assert ys[0] == 0.0 and ys[-1] == 0.0 and ys[1] == 1.0 + seg.xs[1]


def test_eval_takes_the_later_segment_at_a_boundary():
    traj = _traj(_seg(0.0, 1.0, c=1.0), _seg(1.0, 2.0, c=2.0), _seg(2.0, 3.0, c=3.0))
    got = traj.eval([0.0, 0.5, 1.0, 2.0, 2.5, 3.0])
    assert got.tolist() == [1.0, 1.0, 2.0, 3.0, 3.0, 3.0]


@pytest.mark.parametrize("model,start,x_end", [
    (LIN, (10.0 / 3.0, 0.0), 10.0 / 3.0 + 40.5),
    (NONLIN, (0.0, 0.0), 40.5),
    (NONLIN, (1.3, 0.2), 30.0),
])
@pytest.mark.parametrize("a", [0.005, 0.1, 0.7, 4.0])
def test_eval_on_discontinuous_runs(model, start, x_end, a):
    traj = simulate_discontinuous(model, OscillatorParams(a=a), start, x_end)
    assert traj.x_start == start[0] and traj.x_end == x_end
    for seg in traj.segments:
        want = np.array(seg.ys[1:-1])
        got = traj.eval(seg.xs[1:-1])
        assert np.all(np.abs(got - want) <= 1e-15 * np.maximum(1.0, np.abs(want)))
    for prev, seg in zip(traj.segments, traj.segments[1:]):
        assert seg.x0 == prev.x1
        assert traj.eval(seg.x0)[0] == seg.eval(np.array([seg.x0]))[0]
    for bad in (traj.x_start - 1e-9, traj.x_end + 1e-9, math.nan):
        with pytest.raises(DomainError, match="outside the simulated range"):
            traj.eval([traj.x_start, bad])


_X_START = st.floats(0.0, 8.0)
_Y_START = st.one_of(st.just(0.0), st.floats(-1.0, 1.0).filter(lambda y: y != 0.0))


@settings(derandomize=True, max_examples=100, deadline=None)
@given(log_a=st.floats(-3.0, 1.0), model=st.sampled_from(SwitchingModel),
       x0=_X_START, y0=_Y_START)
def test_discontinuous_runs_validate_and_keep_their_half_planes(log_a, model, x0, y0):
    try:
        traj = simulate_discontinuous(model, OscillatorParams(a=10.0 ** log_a), (x0, y0),
                                      x0 + 30.0)
    except OscillatorError:
        return  # a start with no unique forward evolution, or a located fault
    traj.validate()
    for seg in traj.segments:
        if seg.mode is Mode.FLOW_PLUS:
            assert min(seg.ys) >= -1e-12
        elif seg.mode is Mode.FLOW_MINUS:
            assert max(seg.ys) <= 1e-12
        else:
            assert seg.mode is Mode.SLIDING and set(seg.ys) == {0.0}


@settings(derandomize=True, max_examples=20, deadline=None)
@given(a=st.floats(0.005, 2.0), eps=st.floats(1e-3, 1e-2),
       model=st.sampled_from(SwitchingModel), x0=st.floats(0.0, 20.0),
       v0=st.floats(-1.5, 1.5))
# a layer exit whose exterior arc returns to the layer after 0.12: a scan
# with a fixed first step missed that return and ran the arc to v = +277
@example(a=0.027474071601392164, eps=0.00445191851895782, model=LIN,
         x0=13.924319933403108, v0=-0.6218377529625386)
def test_regularized_runs_keep_layer_and_exterior_apart(a, eps, model, x0, v0):
    traj = simulate_regularized(model, OscillatorParams(a=a, epsilon=eps), x0, v0,
                                x0 + 30.0)
    for seg in traj.segments:
        v = np.array(seg.ys)
        if seg.mode is Mode.LAYER:
            assert np.max(np.abs(v)) <= 1.0 + 1e-9
        else:
            side = 1.0 if seg.mode is Mode.FLOW_PLUS else -1.0
            assert np.min(side * v) >= 1.0 - 1e-9


def test_discontinuous_budget_failure_names_the_state(monkeypatch):
    monkeypatch.setattr(sliding, "_EVENT_BUDGET", 5)
    with pytest.raises(SolverError) as info:
        simulate_discontinuous(NONLIN, OscillatorParams(a=0.5), (0.0, 0.0), 40.5)
    msg = str(info.value)
    assert "budget of 5 steps exhausted" in msg and "next state" in msg and "x=" in msg
    assert "next state 'slide' at x=6.944" in msg
    assert msg.count("TrajectoryEvent(") == 3 and "kind='slide-entry', branch=4" in msg


def test_regularized_budget_failure_names_the_state(monkeypatch):
    monkeypatch.setattr(regularization, "_EVENT_BUDGET", 3)
    with pytest.raises(SolverError) as info:
        simulate_regularized(NONLIN, OscillatorParams(a=0.01, epsilon=2.5e-3),
                             14.1, 1.1, 50.0)
    msg = str(info.value)
    assert "budget of 3 arcs exhausted" in msg and "arc next at x=" in msg
    assert msg.count("TrajectoryEvent(") == 3


def test_v_form_transits_invert_their_dense_output(monkeypatch):
    # every layer arc of a non-sliding P_eps run is a transit in the v form:
    # its evaluator gives the end levels exactly, is monotone, and agrees with
    # the x form's dense output within 1e-10 at 50 points per transit
    p = OscillatorParams(a=0.01, epsilon=2.5e-3)
    args = (LIN, p, 0.62, -1e-12, 12.62)
    traj = simulate_regularized(*args, rtol=1e-11, section_after=1.12)
    monkeypatch.setattr(regularization, "_v_arc", lambda *a: None)
    ref = simulate_regularized(*args, rtol=1e-11, section_after=1.12)
    assert [s.mode for s in traj.segments] == [s.mode for s in ref.segments]
    transits = 0
    for seg, want in zip(traj.segments, ref.segments):
        if seg.mode is not Mode.LAYER:
            continue
        assert isinstance(seg.eval, regularization.TransitDense)
        transits += 1
        assert seg.eval(np.array([seg.x0, seg.x1])).tolist() == [seg.y0, seg.y1]
        assert traj.eval(seg.x0)[0] == seg.y0
        xs = np.linspace(seg.x0, seg.x1, 50)
        v = seg.eval(xs)
        assert np.all(np.sign(seg.y1 - seg.y0) * np.diff(v) >= 0.0)
        assert np.array_equal(traj.eval(xs[:-1]), v[:-1])
        assert np.max(np.abs(v - want.eval(xs))) <= 1e-10
    assert transits == 3  # down to -1, up to +1, down to the section
