import itertools
import math

import numpy as np
import pytest
from scipy.optimize import brentq

from switchosc.analytic_flow import (
    MAX_POINTS,
    flow_from_deriv,
    flow_solution,
    h,
    p0_map,
    phase_lag,
)
from switchosc import poincare
from switchosc.experiments import ivp_fixed_point
from switchosc.core import (
    DomainError,
    NoOrbitError,
    OscillatorParams,
    Region,
    SolverError,
    classify_threshold_point,
    departure_ok,
    omega,
    sinpi,
)
from switchosc.sliding import find_sliding_period4_linear
from switchosc.poincare import (
    BRACKET_WIDTH,
    _brackets,
    composite_map,
    composite_map_array,
    dP_da_at_zero,
    find_nonsliding_period4,
    next_crossing,
    next_crossing_array,
    solve_x0,
)

X0_PAPER = 0.6357545163
XSTAR_PAPER = 0.6261249968


@pytest.mark.parametrize("a", [0.01, 0.1, 1.0, 10.0, 100.0])
def test_first_crossing_from_10_3_confined(a):
    p = OscillatorParams(a=a)
    res = next_crossing(+1, 10.0 / 3.0, p)
    assert 4.0 < res.x_next < 14.0 / 3.0
    assert abs(h(+1, res.x_next - 10.0 / 3.0, 10.0 / 3.0, p)) < 1e-12
    # a transversal return, not a graze
    assert abs(flow_from_deriv(+1, res.x_next, 10.0 / 3.0, 0.0, p)) > 1e-8


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("n", [0, 1, 3])
def test_crossing_from_4n_confined(a, n):
    res = next_crossing(-1, 4.0 * n, OscillatorParams(a=a))
    assert 4.0 * n + 2.0 < res.x_next < 4.0 * n + 4.0


def test_crossing_small_a_limit_against_p0():
    # oracle: the explicit a = 0 map
    res = next_crossing(-1, 0.5, OscillatorParams(a=1e-8))
    assert res.x_next == pytest.approx(p0_map(-1, 0.5), abs=1e-6)


def test_flow_map_consistency_and_bracket():
    p = OscillatorParams(a=0.37)
    for sign, x_i in ((+1, 10.0 / 3.0), (-1, 0.21), (-1, 8.0)):
        res = next_crossing(sign, x_i, p)
        assert abs(flow_solution(sign, res.x_next, x_i, p)) < 1e-10
        lo, hi, exact = _brackets(sign, x_i, p)
        assert lo < res.x_next - x_i < hi or (exact and res.x_next - x_i == hi)


def test_departure_consistency_enforced():
    # at x = 1 (repelling region) the S- field points down only from above
    with pytest.raises(DomainError):
        next_crossing(-1, 3.0, OscillatorParams(a=1.0))


def test_translation_property():
    p = OscillatorParams(a=0.8)
    r1 = next_crossing(+1, 10.0 / 3.0, p).x_next
    r2 = next_crossing(+1, 10.0 / 3.0 + 4.0 / 3.0, p).x_next
    assert r2 - r1 == pytest.approx(4.0 / 3.0, abs=1e-10)
    r3 = next_crossing(-1, 0.5, p).x_next
    r4 = next_crossing(-1, 4.5, p).x_next
    assert r4 - r3 == pytest.approx(4.0, abs=1e-10)


def test_composite_map_small_a_and_paper_point():
    for x in np.linspace(0.05, 0.6, 9):
        assert composite_map(float(x), 1e-8) == pytest.approx(float(x) + 4.0, abs=1e-6)
    assert composite_map(0.626125, 0.01) == pytest.approx(4.626125, abs=5e-6)


def test_composite_map_domain_check():
    with pytest.raises(DomainError):
        composite_map(0.8, 0.01)


def test_dP_da_formula_values():
    # closed-form value at 1/2 and the pole at 2/3
    expected_half = (2.0 / math.pi) * 8.0 * (4.0 + 3.0 * math.pi) / (9.0 * math.pi)
    assert dP_da_at_zero(0.5) == pytest.approx(expected_half, abs=1e-12)
    assert dP_da_at_zero(2.0 / 3.0) == -math.inf
    assert dP_da_at_zero(0.5) > 0.0 > dP_da_at_zero(0.66)


def test_dP_da_matches_finite_difference_of_map():
    # oracle: forward difference of the composite map in a at a -> 0
    d = 1e-6
    for x in (0.3, 0.5, 0.6):
        fd = (composite_map(x, d) - (x + 4.0)) / d
        assert fd == pytest.approx(dP_da_at_zero(x), rel=1e-4)


def test_solve_x0_matches_paper():
    x0 = solve_x0()
    assert x0 == pytest.approx(X0_PAPER, abs=1e-9)
    assert abs(dP_da_at_zero(x0)) < 1e-9
    assert 0.5 < x0 < 2.0 / 3.0


def dP_dx(x, a):
    """Oracle: P'(x) at a fixed point x of P(x) - (x + 4), by the triple angle.

    With x2 = x + 4 the product of the legs' rate ratios reduces to
    (3 - 4 sin^2(pi x1/2)) / (3 - 4 sin^2(pi x/2)) e^(-4a).
    """
    pm = next_crossing(-1, x, OscillatorParams(a=a)).x_next
    num = 3.0 - 4.0 * sinpi(pm / 2.0) ** 2
    return num / (3.0 - 4.0 * sinpi(x / 2.0) ** 2) * math.exp(-4.0 * a)


def test_dP_dx_limits_and_modes():
    # a -> 0: P-(x) = 4 - x makes numerator equal denominator
    x0 = solve_x0()
    assert dP_dx(x0, 1e-8) == pytest.approx(1.0, abs=1e-6)
    x_star, _ = find_nonsliding_period4(0.01)
    closed = dP_dx(x_star, 0.01)
    assert find_nonsliding_period4(0.01)[1] == pytest.approx(closed, rel=1e-12)
    d = 1e-6
    fd = (composite_map(x_star + d, 0.01) - composite_map(x_star - d, 0.01)) / (2.0 * d)
    assert 0.0 < closed < 1.0
    assert fd == pytest.approx(closed, abs=1e-4)


def test_find_nonsliding_period4_at_a_001():
    x_star, mult = find_nonsliding_period4(0.01)
    assert x_star == pytest.approx(XSTAR_PAPER, abs=1e-8)
    assert 0.0 < mult < 1.0
    assert abs(composite_map(x_star, 0.01) - (x_star + 4.0)) < 1e-9


def test_fixed_point_tends_to_x0():
    x_star, _ = find_nonsliding_period4(1e-6)
    assert x_star == pytest.approx(solve_x0(), abs=1e-4)


def test_small_a_solve_stops_at_rounding_level(monkeypatch):
    # g ~ a and g' = P' - 1 -> 0, so a Newton step on g's rounding noise can
    # stay above 1e-12: a g within rounding of P ends the solve instead, and
    # where g jumps across its root by more than that (16 ulp at one of these
    # a, which used to spend all 40 runs), the sign-change bracket's width does
    runs = []
    real = poincare._composite_run
    monkeypatch.setattr(poincare, "_composite_run", lambda p, x: runs.append(x) or real(p, x))
    counts = []
    for a in (10.0 ** np.random.default_rng(11).uniform(-8.0, -4.0, 40)).tolist():
        runs.clear()
        x_star, mult = find_nonsliding_period4(a)
        assert x_star == pytest.approx(solve_x0(), abs=1e-4) and 0.99 < mult < 1.0
        counts.append(len(runs))
    assert np.median(counts) <= 13 and max(counts) <= 24, counts


def test_no_orbit_reported_in_large_a_regime():
    # at a = 1.05 the crossings from just below 8/3 have zero length, so the
    # map has no fixed point in (0, 2/3); at a = 10 its fixed point slides
    for a in (1.05, 10.0):
        with pytest.raises(NoOrbitError):
            find_nonsliding_period4(a)


def test_zero_bracket_end_reports_no_iterations():
    # the first probe already has the other sign, so the bracket is (0, t1)
    # with h(0) = 0 exactly: brentq returns 0 at once (the zero-length arc of
    # the open contact-finder fault) and leaves its own count unset
    x_i, p = 6.642139527593896, OscillatorParams(a=1.068)
    assert _brackets(+1, x_i, p)[0] == 0.0
    res = next_crossing(+1, x_i, p)
    assert res.x_next == x_i
    assert res.iterations == 0


def scalar_scan_crossing(sign, x_i, params):
    """Oracle: the probe-by-probe scan that the array probe replaces.

    Probes are the uniform grid k*step and the two h0 zero lattices, built
    term by term up to the horizon, deduplicated, sorted and cut at the
    floor; the scan stops at the first exact zero or sign change of h and
    polishes a sign change with brentq.
    """
    if not departure_ok(sign, x_i):
        raise DomainError("inconsistent departure")
    w = omega(sign)
    horizon = 6.0 / w
    step = min(1.0 / (8.0 * w), 1.0 / (4.0 * params.a))
    pts = set(itertools.takewhile(lambda t: t <= horizon,
                                  (k * step for k in itertools.count(1))))
    start_b = (1.0 / w + 2.0 * phase_lag(sign, params) / (w * math.pi)
               - 2.0 * math.fmod(x_i, 2.0 / w))
    for start in (0.0, start_b):
        k0 = 0 if start >= 0 else math.ceil(-start / (2.0 / w))
        for k in itertools.count(k0):
            t = start + k * (2.0 / w)
            if t > horizon:
                break
            if t >= 0.0:
                pts.add(t)
    floor = min(step * 1e-3, 1e-4)
    f = lambda u: h(sign, u, x_i, params)
    prev = 0.0
    for t in sorted(t for t in pts if t > floor):
        val = f(t)
        if val == 0.0:
            root = t
            break
        if (val > 0.0) != (sign > 0):
            root = brentq(f, prev, t, xtol=BRACKET_WIDTH / 2)
            break
        prev = t
    else:
        raise SolverError("no crossing")
    if abs(f(root)) > 1e-12:
        raise SolverError("residual")
    return x_i + root


def test_array_probe_matches_scalar_scan_bit_for_bit():
    rng = np.random.default_rng(11)
    cases = [(+1, 1.068, 6.642139527593896)]
    for k in range(600):
        sign = 1 if rng.uniform() < 0.5 else -1
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        if k % 3 == 0:
            x_i = 2.0 * int(rng.integers(0, 3000)) / 3.0  # contact lattice 2n/3
        elif k % 3 == 1:
            x_i = float(rng.uniform(0.0, 2000.0))
        else:
            x_i = float(rng.uniform(0.0, 20.0))
        cases.append((sign, a, x_i))
    accepted = 0
    for sign, a, x_i in cases:
        p = OscillatorParams(a=a)
        try:
            expected = scalar_scan_crossing(sign, x_i, p)
        except (DomainError, SolverError) as exc:
            with pytest.raises(type(exc)):
                next_crossing(sign, x_i, p)
            continue
        assert next_crossing(sign, x_i, p).x_next == expected
        accepted += 1
    assert accepted > 200


def scalar_or_nan(sign, x_i, params):
    try:
        return next_crossing(sign, x_i, params).x_next
    except (DomainError, SolverError):
        return math.nan


def assert_same_floats(got, expected):
    """Bit for bit, nan exactly where expected is nan."""
    got, expected = np.asarray(got, dtype=float), np.asarray(expected, dtype=float)
    assert np.array_equal(np.isnan(got), np.isnan(expected))
    assert np.array_equal(got.view(np.int64)[~np.isnan(got)],
                          expected.view(np.int64)[~np.isnan(expected)])


def test_next_crossing_array_matches_scalar_bit_for_bit():
    # seeded draws of the departures the callers make: contact-lattice points
    # 2n/3 (many rejected), arbitrary points out to x = 2000, short-run
    # points and the margin starts 4n - 2 / 4n, plus the a = 1.068 start
    rng = np.random.default_rng(13)
    draws = [(+1, 1.068, np.array([6.642139527593896, 10.0 / 3.0]))]
    for _ in range(60):
        sign = 1 if rng.uniform() < 0.5 else -1
        a = float(10.0 ** rng.uniform(-3.0, 1.0))
        n = rng.integers(1, 500, size=8)
        x_i = np.concatenate((2.0 * rng.integers(0, 3000, size=10) / 3.0,
                              rng.uniform(0.0, 2000.0, size=10),
                              rng.uniform(0.0, 20.0, size=10),
                              4.0 * n - 2.0 if sign > 0 else 4.0 * n))
        draws.append((sign, a, x_i))
    accepted = rejected = 0
    for sign, a, x_i in draws:
        p = OscillatorParams(a=a)
        expected = [scalar_or_nan(sign, x, p) for x in x_i.tolist()]
        assert_same_floats(next_crossing_array(sign, x_i, p), expected)
        accepted += int(np.sum(~np.isnan(expected)))
        rejected += int(np.sum(np.isnan(expected)))
    assert accepted > 1000 and rejected > 100


def test_next_crossing_array_passes_in_several_rounds(monkeypatch):
    p = OscillatorParams(a=0.3)
    x_i = np.linspace(0.0, 40.0, 23)
    whole = next_crossing_array(-1, x_i, p)
    monkeypatch.setattr(poincare, "ROWS_PER_PASS", 4)
    assert_same_floats(next_crossing_array(-1, x_i, p), whole)
    assert next_crossing_array(+1, np.array([]), p).shape == (0,)


@pytest.mark.parametrize("sign, x_i", [
    (0, [0.5]), (2, [0.5]), (-1, [0.5, math.nan]), (+1, [math.inf]),
    (-1, [[0.5]]),
])
def test_next_crossing_array_rejects_bad_input_at_entry(sign, x_i):
    with pytest.raises(DomainError):
        next_crossing_array(sign, np.array(x_i), OscillatorParams(a=0.5))
    if sign in (-1, 1):
        with pytest.raises(DomainError):
            composite_map_array(np.array(x_i), 0.5)


@pytest.mark.parametrize("x", [math.inf, -math.inf, math.nan])
def test_scalar_maps_reject_a_non_finite_departure(x):
    # an infinite departure used to end in math.fmod's bare ValueError
    for sign in (-1, 1):
        with pytest.raises(DomainError, match="finite"):
            next_crossing(sign, x, OscillatorParams(a=0.5))
    with pytest.raises(DomainError):
        composite_map(x, 0.5)


def scalar_period4_scan(a):
    """Oracle: find_nonsliding_period4 with its scan made of scalar composite_map calls."""
    lo, hi, n = 1e-4, 2.0 / 3.0 - 1e-4, 64
    delta = lambda x: composite_map(x, a) - (x + 4.0)
    xs = [lo + (hi - lo) * k / n for k in range(n + 1)]
    vals = []
    for x in xs:
        try:
            vals.append(delta(x))
        except (DomainError, SolverError):
            vals.append(math.nan)
    for (x1, v1), (x2, v2) in zip(zip(xs, vals), zip(xs[1:], vals[1:])):
        if math.isnan(v1) or math.isnan(v2):
            continue
        if v1 == 0.0:
            root = x1
            break
        if (v1 > 0.0) != (v2 > 0.0):
            root = brentq(delta, x1, x2, xtol=1e-12)
            break
    else:
        return "no orbit"
    mid = next_crossing(-1, root, OscillatorParams(a=a)).x_next
    if any(classify_threshold_point(c) is not Region.CROSSING
           for c in (mid, composite_map(root, a))):
        return "no orbit"
    return root, dP_dx(root, a)


@pytest.mark.parametrize("a", np.geomspace(1e-3, 0.02, 6).tolist() + [0.5, 10.0])
def test_period4_scan_matches_scalar_scan_bit_for_bit(a):
    # the Newton solve on the total map against the scan of scalar
    # composite_map calls: the same orbit, or the same absence
    expected = scalar_period4_scan(a)
    if expected == "no orbit":
        with pytest.raises(NoOrbitError):
            find_nonsliding_period4(a)
    else:
        x_star, mult = find_nonsliding_period4(a)
        assert x_star == pytest.approx(expected[0], abs=1e-12)
        assert mult == pytest.approx(expected[1], rel=1e-10)


@pytest.mark.parametrize("a", [0.028, 0.03, 0.0315])
def test_nonsliding_orbit_up_to_the_grazing_point_matches_ivp_oracle(a):
    # every 64-cell of the scan that holds this root has an undefined end:
    # the landing x1 is within 0.005 of the attracting interval
    assert scalar_period4_scan(a) == "no orbit"
    x_star, mult = find_nonsliding_period4(a)
    assert x_star == pytest.approx(ivp_fixed_point(a, x_star), abs=1e-10)
    assert 0.0 < mult == pytest.approx(dP_dx(x_star, a), rel=1e-10)


def grazing_point(has_orbit, lo=0.0319, hi=0.032):
    """Bisected a where has_orbit(a) turns from True (at lo) to False (at hi)."""
    assert has_orbit(lo) and not has_orbit(hi)
    while hi - lo > 1e-13:
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if has_orbit(mid) else (lo, mid)
    return lo


def nonsliding_exists(a):
    try:
        find_nonsliding_period4(a)
    except NoOrbitError:
        return False
    return True


def sliding_exists(a):
    try:
        find_sliding_period4_linear(a)
    except NoOrbitError:
        return False
    return True


def test_exactly_one_period4_family_at_every_a():
    for a in np.linspace(0.02, 0.05, 301).tolist():
        assert nonsliding_exists(a) != sliding_exists(a), a


def test_both_period4_families_meet_at_one_grazing_point():
    a_g = grazing_point(nonsliding_exists)
    a_s = grazing_point(lambda a: not sliding_exists(a))
    assert abs(a_g - a_s) < 1e-12
    # below a_g the non-sliding orbit's landing nears the attracting
    # interval, so its multiplier vanishes; above it the slide shrinks to 0
    below, above = a_g - 1e-9, a_g + 1e-9
    assert 0.0 < find_nonsliding_period4(below)[1] < 1e-6
    assert not sliding_exists(below)
    res = find_sliding_period4_linear(above)
    assert 0.0 < 22.0 / 3.0 - res.landing < 1e-6
    with pytest.raises(NoOrbitError, match="slides"):
        find_nonsliding_period4(above)


def test_composite_map_array_matches_scalar():
    x = np.concatenate((np.linspace(-1.0, 9.0, 41), [0.01, 4.3, 0.6655]))
    for a in (0.01, 1.068, 3.0):
        expected = []
        for v in x.tolist():
            try:
                expected.append(composite_map(v, a))
            except (DomainError, SolverError):
                expected.append(math.nan)
        assert_same_floats(composite_map_array(x, a), expected)


def test_composite_map_is_strictly_increasing_where_defined():
    # P is the composite of two return maps of a planar flow, so it preserves
    # order; nan marks a departure or an intermediate contact it rejects
    rng = np.random.default_rng(29)
    x = np.sort(rng.uniform(0.0, 2.0 / 3.0, size=1500))
    pairs = 0
    for a in (10.0 ** rng.uniform(-3.0, math.log10(0.5), size=25)).tolist():
        px = composite_map_array(x, a)
        both = ~np.isnan(px[:-1]) & ~np.isnan(px[1:])
        assert np.all(np.diff(px)[both] > 0.0), a
        pairs += int(both.sum())
    assert pairs > 20000


@pytest.mark.parametrize("a", [1e300, 1.7e308])
def test_departure_probes_past_the_cap_raise(a):
    # the decay step 1/(4a) would ask for more probes than memory holds
    p = OscillatorParams(a=a)
    with pytest.raises(SolverError, match=f"more than {MAX_POINTS}") as exc:
        next_crossing(-1, 0.5, p)
    assert f"(0.5, 0.0) into S_-1 at a={a!r}" in str(exc.value)
    with pytest.raises(SolverError, match="probes"):
        next_crossing_array(-1, np.array([0.5, 0.6]), p)
    with pytest.raises(SolverError, match="probes"):
        find_nonsliding_period4(a)


def test_next_crossing_array_passes_fit_under_the_cap(monkeypatch):
    # at a = 100 a departure into S_- takes about 4 800 probes, so a pass
    # holds about 200 departures, not ROWS_PER_PASS
    p = OscillatorParams(a=100.0)
    x_i = np.linspace(0.01, 1.99, 500)
    expected = [scalar_or_nan(-1, x, p) for x in x_i.tolist()]
    sizes = []
    real = poincare._probes

    def probes(sign, x, params):
        t = real(sign, x, params)
        sizes.append(t.shape)
        return t

    monkeypatch.setattr(poincare, "_probes", probes)
    assert_same_floats(next_crossing_array(-1, x_i, p), expected)
    assert len(sizes) == 3 and sum(rows for rows, _ in sizes) == 500
    assert all(rows * width <= MAX_POINTS for rows, width in sizes)
