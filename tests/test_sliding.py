import collections
import functools
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from switchosc.analytic_flow import flow_from, flow_solution
from switchosc.core import (
    SAMPLES_PER_UNIT,
    DomainError,
    HybridState,
    Mode,
    NoOrbitError,
    OscillatorParams,
    Region,
    SolverError,
    SwitchingModel,
    branch,
    branch_indices,
    classify_threshold_point,
    departure_ok,
    forcing,
)
from switchosc import poincare, sliding
from switchosc.poincare import find_nonsliding_period4, next_crossing
from switchosc.sliding import (
    ageing_metrics,
    check_no_nonsliding_periodic_nonlinear,
    find_sliding_period4_linear,
    find_sliding_period4_nonlinear,
    select_branch_on_entry,
    simulate_discontinuous,
)

LIN = SwitchingModel.LINEAR
NONLIN = SwitchingModel.NONLINEAR


def fast_layer_landing(model, x, from_side, eps=1e-4, a=0.5):
    """Oracle for branch selection: integrate the frozen-x fast layer flow
    from just inside the boundary and report the limiting lambda."""
    psi = lambda v: 0.5 * v * (3.0 - v * v)

    def rhs(_t, v):
        return [(-a * eps * v[0] - forcing(model, x, psi(float(np.clip(v[0], -1, 1))))) / eps]

    v0 = 0.999 * from_side
    # dv/dt carries the rounding of f over eps, ~1e-12 here: a tighter atol
    # leaves the step control thrashing at the equilibrium for millions of
    # steps on some builds of the linear algebra
    sol = solve_ivp(rhs, (0.0, 3.0), [v0], method="Radau", rtol=1e-10, atol=1e-10)
    return psi(float(sol.y[0, -1]))


def branches(model, lo, hi):
    return [branch(model, n) for n in branch_indices(model, lo, hi)]


@functools.cache
def _domain_table(model):
    idx = np.arange(-10, 10011) if model is LIN else np.arange(1, 15011)
    ends = np.array([branch(model, int(n)).domain for n in idx])
    return idx, ends[:, 0], ends[:, 1]


def brute_indices(model, lo, hi):
    """Oracle for branch_indices: a scan of every index in a window wide
    enough for |x| < 1e4, kept where the domain meets (lo, hi)."""
    idx, d0, d1 = _domain_table(model)
    assert hi < d0[-1] and (model is NONLIN or lo > d1[0]), (lo, hi)
    return idx[(d0 < hi) & (d1 > lo)].tolist()


def test_linear_branches_on_one_period():
    bs = branches(LIN, 0.0, 4.0)
    doms = {(round(b.domain[0], 12), round(b.domain[1], 12)): b.stability for b in bs
            if b.domain[0] >= 0.0 and b.domain[1] <= 4.0}
    assert doms == {
        (round(2.0 / 3.0, 12), round(4.0 / 3.0, 12)): "repelling",
        (round(8.0 / 3.0, 12), round(10.0 / 3.0, 12)): "attracting",
    }


def test_linear_branch_lambda_values():
    b = branches(LIN, 0.5, 1.5)[0]
    assert b.lambda_of(1.0) == pytest.approx(0.0, abs=1e-14)
    # both endpoints drive sec(pi x) -> -2, so lambda -> +1
    for x in (2.0 / 3.0 + 1e-9, 4.0 / 3.0 - 1e-9):
        assert b.lambda_of(x) == pytest.approx(1.0, abs=1e-7)


def test_nonlinear_branch_geometry_and_ageing_width():
    bs = {b.index: b for b in branches(NONLIN, 0.0, 8.0)}
    assert bs[1].domain == pytest.approx((2.0 / 3.0, 2.0))
    assert bs[2].domain == pytest.approx((4.0 / 3.0, 4.0))
    for n, b in bs.items():
        assert b.width == pytest.approx(4.0 * n / 3.0, abs=1e-12)
        assert b.lambda_of(float(n)) == pytest.approx(0.0, abs=1e-14)
        assert b.stability == ("attracting" if n % 2 == 0 else "repelling")


def test_branch_overlap_beyond_four_thirds():
    assert branch_indices(NONLIN, 1.0, 1.0) == range(1, 2)
    assert branch_indices(NONLIN, 3.0, 3.0) == range(2, 5)  # branches 2, 3, 4 coexist
    assert not branch_indices(NONLIN, 0.5, 0.5)


@pytest.mark.parametrize("model,xr", [(LIN, (0.0, 12.0)), (NONLIN, (0.0, 30.0))])
def test_branch_nullcline_residuals(model, xr):
    for b in branches(model, *xr):
        for t in np.linspace(0.02, 0.98, 37):
            x = b.domain[0] + t * b.width
            assert abs(forcing(model, x, b.lambda_of(x))) < 1e-12


def test_select_branch_linear_attracting_point():
    d = select_branch_on_entry(LIN, 3.0, +1)
    assert d.kind == "sliding"
    assert d.lam_star == pytest.approx(0.0, abs=1e-14)


def test_select_branch_crossing_before_first_branch():
    assert select_branch_on_entry(NONLIN, 0.5, +1).kind == "crossing"


def test_select_branch_matches_fast_layer_oracle():
    # the eps -> 0 selection rule against direct stiff integration of the
    # layer flow; overlapping-branch cases from both sides
    cases = [(NONLIN, 3.0, +1), (NONLIN, 3.7, -1), (NONLIN, 7.1, -1),
             (NONLIN, 9.5, +1), (LIN, 3.0, +1), (LIN, 6.9, -1)]
    # and seeded contacts over [1, 100] that slide
    rng = np.random.default_rng(27)
    for model in (LIN, NONLIN):
        for x in rng.uniform(1.0, 100.0, 20).tolist():
            for side in (-1, 1):
                try:
                    if select_branch_on_entry(model, x, side).kind == "sliding":
                        cases.append((model, x, side))
                except DomainError:  # the field points away from the threshold
                    pass
    assert len(cases) >= 6 + 20
    for model, x, side in cases:
        d = select_branch_on_entry(model, x, side)
        assert d.kind == "sliding"
        lam_oracle = fast_layer_landing(model, x, side)
        assert d.lam_star == pytest.approx(lam_oracle, abs=1e-4), (model, x, side)


def test_select_branch_nonlinear_from_above_takes_largest_root():
    # x = 3 carries roots of branches 2, 3, 4; the descent stops at branch 4
    d = select_branch_on_entry(NONLIN, 3.0, +1)
    assert d.branch.index == 4
    assert d.lam_star == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_entry_side_rule_from_below_lands_on_even_branch():
    # arrivals from S- exist only where x mod 4 in (2, 4) and attach to the
    # even branch whose domain (4n/3, 4n) contains x
    for x in (2.5, 3.9, 7.3, 11.0, 18.6):
        d = select_branch_on_entry(NONLIN, x, -1)
        assert d.kind == "sliding"
        n = d.branch.index
        assert n % 2 == 0
        assert 2.0 * n / 3.0 < x < 2.0 * n


def sorted_entry_branch(model, x, side):
    """Oracle: every branch at x sorted by its root lambda; the fast flow from
    lambda = side stops at the first root it meets, or None."""
    roots = sorted((branch(model, n).lambda_of(x), n) for n in brute_indices(model, x, x))
    if not roots:
        return None
    return branch(model, (roots[-1] if side > 0 else roots[0])[1])


def test_select_branch_matches_enumerate_and_sort():
    rng = np.random.default_rng(8)
    xs = (10.0 ** rng.uniform(-1.0, 4.0, size=400)).tolist()
    # the open domain ends 2n/3 and 2n, and their neighbours
    for n in (1, 2, 3, 7, 40, 301):
        for end in (2.0 * n / 3.0, 2.0 * n):
            xs += [end, np.nextafter(end, 0.0), np.nextafter(end, np.inf)]
    checked = {"crossing": 0, "sliding": 0}
    for model in (LIN, NONLIN):
        for x in xs:
            for side in (-1, 1):
                try:
                    d = select_branch_on_entry(model, x, side)
                except DomainError:  # the field points away from the threshold
                    continue
                if d.kind == "tangency":
                    continue
                expected = sorted_entry_branch(model, x, side)
                assert d.branch == expected, (model, x, side)
                if expected is not None:
                    assert d.lam_star == expected.lambda_of(x)
                checked[d.kind] += 1
    assert min(checked.values()) > 100, checked


def _float_ends(model, top):
    """Both float ends of branches up to ``top`` and their neighbours one ulp away."""
    for n in range(-5 if model is LIN else 1, top + 1):
        for end in branch(model, n).domain:
            yield from (float(np.nextafter(end, -np.inf)), end, float(np.nextafter(end, np.inf)))


@pytest.mark.parametrize("model", [LIN, NONLIN])
def test_branch_float_ends_agree_with_the_domain_comparisons(model):
    # at a branch's own float end the selection must not pick a branch whose
    # lambda_of rejects the point, and branch_indices must list exactly the
    # indices a scan of the domains finds, at points and on ranges
    xs = list(_float_ends(model, 2000))
    for x in xs:
        assert list(branch_indices(model, x, x)) == brute_indices(model, x, x), x
        for side in (-1, 1):
            try:
                select_branch_on_entry(model, x, side)
            except DomainError as exc:
                assert "does not point" in str(exc), (x, side)
    rng = np.random.default_rng(27)
    for lo, hi in np.sort(rng.choice(xs, size=(4000, 2)), axis=1).tolist():
        assert list(branch_indices(model, lo, hi)) == brute_indices(model, lo, hi), (lo, hi)


def test_entry_selection_builds_at_most_two_branches(monkeypatch):
    built = []
    real = sliding.branch
    monkeypatch.setattr(sliding, "branch", lambda model, n: built.append(n) or real(model, n))
    kinds = []
    for x in (4e3 + 0.3, 4e4 + 2.9):
        for side in (-1, 1):
            built.clear()
            try:
                kinds.append(select_branch_on_entry(NONLIN, x, side).kind)
            except DomainError:  # the field points away from the threshold
                continue
            assert len(built) <= 1, (x, side)
    assert kinds.count("sliding") >= 2


@pytest.mark.parametrize("a", [0.1, 1.0])
@pytest.mark.parametrize("x0", [10.3, 50.3, 200.7, 1000.1, 1e5 + 0.3, 4e7 + 0.3])
def test_ageing_run_at_large_x_slides_on_the_largest_branch(x0, a):
    # from S_+ the slide attaches to n = ceil(3x/2) - 1 and leaves at its end
    # 2n, so the slide grows with x (the ageing law); a run that had to build
    # all ~x branches per contact would not finish at large x
    traj = simulate_discontinuous(NONLIN, OscillatorParams(a=a), (x0, 0.7), 3.0 * x0 + 60.0)
    entry = next(e for e in traj.events if e.kind == "slide-entry")
    leave = next(e for e in traj.events if e.kind == "slide-exit")
    n = math.ceil(1.5 * entry.x) - 1
    assert entry.branch == leave.branch == n
    assert leave.x == 2.0 * n


def test_select_branch_rejects_outward_field():
    with pytest.raises(DomainError):
        select_branch_on_entry(NONLIN, 1.0, +1)  # S+ field points up at x = 1


def test_simulate_linear_small_a_reproduces_map_fixed_point():
    # hybrid path against the Poincare-map path
    x_star, _ = find_nonsliding_period4(0.01)
    p = OscillatorParams(a=0.01)
    traj = simulate_discontinuous(LIN, p, (x_star, 0.0), x_star + 4.2)
    crossings = [e.x for e in traj.events if e.kind == "cross"]
    assert len(crossings) >= 2
    assert crossings[1] == pytest.approx(x_star + 4.0, abs=1e-8)
    assert not any(s.mode is Mode.SLIDING for s in traj.segments)


def test_simulate_linear_a2_sliding_orbit_structure():
    p = OscillatorParams(a=2.0)
    traj = simulate_discontinuous(LIN, p, (10.0 / 3.0, 0.0), 10.0 / 3.0 + 4.5)
    slides = [s for s in traj.segments if s.mode is Mode.SLIDING]
    assert slides, "a=2 orbit must slide"
    assert slides[0].xs[-1] == pytest.approx(22.0 / 3.0, abs=1e-10)
    kinds = [e.kind for e in traj.events]
    assert kinds[:2] == ["cross", "cross"]
    assert "slide-entry" in kinds and "slide-exit" in kinds


@pytest.mark.parametrize("a", [0.5, 2.0, 10.0])
def test_simulate_linear_long_run_keeps_leaving_slides(a):
    # slide exits at 4n + 4/3 are tangent departures; past x ~ 2051 the
    # rounding of x itself once made sin(w pi x) miss a fixed 1e-12 tolerance
    traj = simulate_discontinuous(LIN, OscillatorParams(a=a), (10.0 / 3.0, 0.0), 2100.0)
    assert traj.x_end == 2100.0
    exits = [e.x for e in traj.events if e.kind == "slide-exit"]
    assert exits[-1] == pytest.approx(2099.0 + 1.0 / 3.0, abs=1e-9)


def test_simulate_nonlinear_theorem_structure():
    p = OscillatorParams(a=0.5)
    traj = simulate_discontinuous(NONLIN, p, (0.0, 0.0), 4.4)
    entries = [e for e in traj.events if e.kind == "slide-entry"]
    assert entries and 2.0 < entries[0].x < 4.0
    assert entries[0].branch == 2
    assert max(y for s in traj.segments for y in s.ys) <= 1e-12


def test_simulate_rejects_ambiguous_repelling_start():
    with pytest.raises(DomainError):
        simulate_discontinuous(LIN, OscillatorParams(a=1.0), (1.0, 0.0), 5.0)


@pytest.mark.parametrize("start, x_end", [
    ((0.0, 0.0), float("inf")), ((0.0, 0.0), float("nan")), ((float("nan"), 0.5), 5.0)])
def test_simulate_rejects_non_finite_range(start, x_end):
    with pytest.raises(DomainError):
        simulate_discontinuous(NONLIN, OscillatorParams(a=0.5), start, x_end)


def test_explicit_repelling_start_slides_then_exits():
    # forward simulation from an explicit on-branch state is allowed
    p = OscillatorParams(a=0.5)
    st = HybridState(x=1.0, y=0.0, mode=Mode.SLIDING, branch=1)
    traj = simulate_discontinuous(NONLIN, p, st, 3.0)
    assert traj.segments[0].mode is Mode.SLIDING
    exit_ev = [e for e in traj.events if e.kind == "slide-exit"]
    assert exit_ev and exit_ev[0].x == pytest.approx(2.0, abs=1e-12)
    # odd-branch endpoint: the outward field is the S+ one
    assert traj.segments[1].mode is Mode.FLOW_PLUS


@pytest.mark.parametrize("a,expect", [(10.0, True), (2.0, True), (1e-3, False)])
def test_sliding_orbit_linear_regimes(a, expect):
    if not expect:
        with pytest.raises(NoOrbitError, match="no sliding segment reaches"):
            find_sliding_period4_linear(a)
        return
    res = find_sliding_period4_linear(a)
    assert 20.0 / 3.0 < res.landing < 22.0 / 3.0
    assert res.closure_error < 1e-8


def test_sliding_orbit_linear_large_a_first_crossing():
    res = find_sliding_period4_linear(10.0)
    assert 4.0 < res.crossings[0] < 14.0 / 3.0


@pytest.mark.parametrize("a", [0.1, 0.5, 2.0])
def test_sliding_orbit_nonlinear(a):
    res = find_sliding_period4_nonlinear(a)
    assert 2.0 < res.landing < 4.0
    assert res.closure_error < 1e-10
    assert res.branch == 2


def test_sliding_orbit_nonlinear_refuses_a_run_into_s_plus(monkeypatch):
    # a run with an arc above the threshold has left the closure of S_-
    run = simulate_discontinuous(NONLIN, OscillatorParams(a=0.5), (0.0, 0.3), 4.5)
    assert run.segments[0].mode is Mode.FLOW_PLUS
    assert any(e.kind == "slide-entry" for e in run.events)
    assert any(e.kind == "slide-exit" for e in run.events)
    monkeypatch.setattr(sliding, "simulate_discontinuous", lambda *args, **kw: run)
    with pytest.raises(NoOrbitError, match="left closure of S_- into S_\\+ at x=0.0"):
        find_sliding_period4_nonlinear(0.5)


def test_sliding_orbit_nonlinear_large_a_limit():
    # x_a -> 2+ as a -> infinity (the h^inf lattice zero at xbar = 2)
    res = find_sliding_period4_nonlinear(1e3)
    assert 2.0 < res.landing < 2.01


@pytest.mark.parametrize("a", [0.1, 1.0, 10.0])
def test_no_nonsliding_periodic_nonlinear_margins(a):
    rows = check_no_nonsliding_periodic_nonlinear(a, 10)
    for r in rows:
        assert r["margin_plus"] > 0.0 and r["margin_minus"] > 0.0
        n = r["n"]
        assert 4.0 * n - 4.0 / 3.0 < r["p_plus"] < 4.0 * n - 2.0 / 3.0
        assert 4.0 * n + 2.0 < r["p_minus"] < 4.0 * n + 4.0


@pytest.mark.parametrize("a", np.geomspace(1e-3, 10.0, 7).tolist())
def test_margin_rows_equal_scalar_rows(a):
    # oracle: the rows built one scalar next_crossing per departure
    p = OscillatorParams(a=a)
    expected = []
    for n in range(1, 13):
        xp = next_crossing(+1, 4.0 * n - 2.0, p).x_next
        xm = next_crossing(-1, 4.0 * n, p).x_next
        expected.append({
            "n": n,
            "p_plus": xp,
            "margin_plus": min(xp - (4.0 * n - 4.0 / 3.0), (4.0 * n - 2.0 / 3.0) - xp),
            "p_minus": xm,
            "margin_minus": min(xm - (4.0 * n + 2.0), (4.0 * n + 4.0) - xm),
        })
    assert check_no_nonsliding_periodic_nonlinear(a, 12) == expected


def test_margin_row_failure_raises_the_scalar_error_with_its_n(monkeypatch):
    # a bracket width of 1e-2 leaves every polished crossing with a residual
    # far above tol, so both forms reject every departure
    p = OscillatorParams(a=0.5)
    monkeypatch.setattr(poincare, "BRACKET_WIDTH", 1e-2)
    with pytest.raises(SolverError) as scalar:
        next_crossing(+1, 2.0, p)
    with pytest.raises(SolverError) as rows:
        check_no_nonsliding_periodic_nonlinear(0.5, 3)
    assert str(rows.value) == f"margin row n=1: {scalar.value}"


def _max_y_after(traj, x_t):
    """Largest y the trajectory reaches past x_t."""
    return max(y for seg in traj.segments for x, y in zip(seg.xs, seg.ys) if x > x_t + 1e-12)


def test_confinement_from_upper_half_plane():
    # after its first threshold contact the orbit stays in the closure of S_-
    p = OscillatorParams(a=0.5)
    traj = simulate_discontinuous(NONLIN, p, (0.1, 0.5), 12.0)
    x_t = traj.events[0].x
    assert x_t < 12.0 and _max_y_after(traj, x_t) <= 1e-10
    # and an ageing-regime start analogous to the long-slide figure
    p2 = OscillatorParams(a=0.01)
    traj2 = simulate_discontinuous(NONLIN, p2, (14.1, 0.001), 30.0)
    assert _max_y_after(traj2, traj2.events[0].x) <= 1e-10


def test_confinement_trivial_for_lower_start():
    p = OscillatorParams(a=0.5)
    traj = simulate_discontinuous(NONLIN, p, (0.3, -0.4), 6.0)
    assert traj.segments[0].xs[0] == pytest.approx(0.3)
    assert _max_y_after(traj, 0.3) <= 1e-10


def test_ageing_metrics_tables():
    rows = ageing_metrics(NONLIN, x_range=(0.0, 8.0))
    widths = {r["n"]: r["branch_width"] for r in rows}
    assert widths[3] == pytest.approx(4.0, abs=1e-12)
    lin_rows = ageing_metrics(LIN, x_range=(0.0, 8.0))
    assert all(r["branch_width"] == pytest.approx(2.0 / 3.0) for r in lin_rows)
    # trajectory-keyed slid lengths: the canonical orbit slides 4 - x_a on branch 2
    res = find_sliding_period4_nonlinear(0.5)
    t_rows = ageing_metrics(NONLIN, trajectory=res.trajectory)
    slid = {r["n"]: r["slid_length"] for r in t_rows if r["slid_length"] > 0}
    assert slid[2] == pytest.approx(4.0 - res.landing, abs=1e-9)


def test_tangency_contact_flagged():
    # at x = 2/3 the S+ field is tangent to the threshold: fold handling case
    d = select_branch_on_entry(NONLIN, 2.0 / 3.0, +1)
    assert d.kind == "tangency"


def near_tangency_points():
    """x near the tangency lattices 2k/3 and 2k, k near 1, 1e2, 1e4, 1e6, 1e8:
    1 to 4 ulps away on either side, and 2^j ulps (j = 3 .. 40), which
    straddle the tangency band at every magnitude."""
    ks = np.concatenate([k0 + np.arange(12) for k0 in (1, 100, 10**4, 10**6, 10**8)])
    base = np.concatenate([2.0 * ks / 3.0, 2.0 * ks])
    ulp = np.spacing(base)
    pts = [base]
    for d in (*range(1, 5), *(2.0 ** j for j in range(3, 41))):
        pts += [base + d * ulp, base - d * ulp]
    near = np.concatenate(pts)
    return near[near > 0.0].tolist()


def test_regions_and_contacts_follow_the_departure_rule():
    # one tangency band for every threshold rule: a region allows the
    # departures its name says, and a contact accepted from S_side is one the
    # run could not have left into S_side
    departures = {Region.ATTRACTING: 0, Region.CROSSING: 1, Region.REPELLING: 2}
    checked = collections.Counter()
    for x in near_tangency_points():
        sides = {side for side in (-1, 1) if departure_ok(side, x)}
        region = classify_threshold_point(x)
        if region in departures:
            assert len(sides) == departures[region], (x, region, sides)
        checked[region] += 1
        for model in (LIN, NONLIN):
            for side in (-1, 1):
                try:
                    kind = select_branch_on_entry(model, x, side).kind
                except DomainError:  # the field points away from the threshold
                    assert side in sides, (model, x, side)
                    continue
                if kind != "tangency":
                    assert side not in sides, (model, x, side, kind)
                checked[kind] += 1
    assert all(checked[k] > 100 for k in (*departures, "crossing", "sliding", "tangency")), \
        checked


@pytest.mark.parametrize("model,start,x_end", [
    (LIN, (10.0 / 3.0, 0.0), 10.0 / 3.0 + 40.5),
    (NONLIN, (0.0, 0.0), 40.5),
    (NONLIN, (1.3, 0.2), 30.0),
])
@pytest.mark.parametrize("a", [0.005, 0.1, 0.7, 4.0])
def test_sampled_arcs_match_scalar_samples(model, start, x_end, a):
    p = OscillatorParams(a=a)
    traj = simulate_discontinuous(model, p, start, x_end)
    last = len(traj.segments) - 1
    for k, seg in enumerate(traj.segments):
        assert type(seg.xs) is list and type(seg.ys) is list
        x0, x1 = seg.xs[0], seg.xs[-1]
        n = max(8, int(round((x1 - x0) * SAMPLES_PER_UNIT)))
        assert seg.xs == [x0 + (x1 - x0) * i / n for i in range(n + 1)]
        if seg.mode is Mode.SLIDING:
            assert seg.ys == [0.0] * len(seg.xs)
            continue
        side = 1 if seg.mode is Mode.FLOW_PLUS else -1
        interior = k == 0 and start[1] != 0.0
        if not interior:
            assert seg.ys[0] == 0.0  # departs from the threshold
        if k < last:
            assert seg.ys[-1] == 0.0  # ends on a contact
        lo, hi = (0 if interior else 1), (n if k == last else n - 1)
        for x, y in zip(seg.xs[lo:hi + 1], seg.ys[lo:hi + 1]):
            ref = (flow_from(side, x, start[0], start[1], p) if interior
                   else flow_solution(side, x, x0, p))
            assert abs(y - ref) <= 1e-15 * max(1.0, abs(ref))


def test_interior_start_finds_a_dip_between_probes():
    # the flow+ arc from this start dips through y = 0 on (0.642, 0.684), inside
    # one probe step; the contact must be that first zero, not the later one
    p = OscillatorParams(a=1.0)
    x0, y0 = 0.29296875, 0.2890625
    traj = simulate_discontinuous(NONLIN, p, (x0, y0), 3.0)
    x_hit = traj.segments[0].x1
    assert abs(flow_from(+1, x_hit, x0, y0, p)) <= 1e-12
    assert 0.64 < x_hit < 2.0 / 3.0 and traj.events[0].x == x_hit
    ys = [flow_from(+1, x, x0, y0, p) for x in np.linspace(x0, x_hit, 400)[:-1]]
    assert min(ys) > 0.0
