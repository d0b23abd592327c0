"""Threshold semantics of the discontinuous system: branches, entry selection,
event-driven hybrid simulation, sliding periodic orbits, ageing metrics.

Sliding happens where the forcing can vanish for some lambda in (-1, 1).  For
the linear model that reproduces the classical Filippov picture (isolated
branches on the attracting/repelling intervals); for the nonlinear model the
branches proliferate and overlap, and the branch a trajectory attaches to is
decided by the fast layer dynamics v' = -f_i(x, psi(v)): descending from
lambda = +1 the motion stops at the largest root of f_i(x, .) in (-1, 1),
ascending from lambda = -1 at the smallest.  A root reached this way is
automatically fast-attracting (df/dlambda > 0); the regularization module is
the validating oracle for this rule.

The hybrid simulator stores SAMPLES_PER_UNIT samples per unit of x on every
arc; each arc's samples are built and evaluated in one array call and kept
as lists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .core import (
    DomainError,
    Mode,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    Trajectory,
    TrajectoryEvent,
    TrajectorySegment,
    HybridState,
    cospi,
    forcing,
    forcing_dlam,
    omega,
    sinpi,
)
from .analytic_flow import flow_from, flow_from_array, flow_solution
from .poincare import _departure_ok, next_crossing

Y_ZERO_TOL = 1e-12
TANGENCY_FIELD_TOL = 1e-11
#: Stored samples per unit of x on every hybrid trajectory segment.
SAMPLES_PER_UNIT = 120


@dataclass(frozen=True)
class SlidingBranch:
    """One branch of the sliding manifold: an open x-interval with its lambda graph."""

    model: SwitchingModel
    index: int
    domain: tuple[float, float]
    stability: str  # "attracting" | "repelling"

    def lambda_of(self, x: float) -> float:
        lo, hi = self.domain
        if not lo < x < hi:
            raise DomainError(f"x={x} outside branch domain ({lo}, {hi})")
        if self.model is SwitchingModel.LINEAR:
            return -1.0 - 1.0 / cospi(x)
        return 2.0 * (self.index / x - 1.0)

    def lambda_prime(self, x: float) -> float:
        if self.model is SwitchingModel.LINEAR:
            c = cospi(x)
            return -math.pi * sinpi(x) / (c * c)
        return -2.0 * self.index / (x * x)

    @property
    def width(self) -> float:
        return self.domain[1] - self.domain[0]


def _linear_branch(k: int) -> SlidingBranch:
    lo = 2.0 / 3.0 + 2.0 * k
    return SlidingBranch(
        model=SwitchingModel.LINEAR,
        index=k,
        domain=(lo, lo + 2.0 / 3.0),
        stability="attracting" if k % 2 else "repelling",
    )


def _nonlinear_branch(n: int) -> SlidingBranch:
    if n < 1:
        raise DomainError("nonlinear branch index starts at 1")
    return SlidingBranch(
        model=SwitchingModel.NONLINEAR,
        index=n,
        domain=(2.0 * n / 3.0, 2.0 * n),
        stability="attracting" if n % 2 == 0 else "repelling",
    )


def linear_branches(x_range: tuple[float, float]) -> list[SlidingBranch]:
    """All linear-model branches whose domain meets x_range."""
    lo, hi = x_range
    k_lo = math.floor((lo - 4.0 / 3.0) / 2.0)
    k_hi = math.ceil((hi - 2.0 / 3.0) / 2.0)
    out = []
    for k in range(k_lo, k_hi + 1):
        b = _linear_branch(k)
        if b.domain[1] > lo and b.domain[0] < hi:
            out.append(b)
    return out


def nonlinear_branches(x_range: tuple[float, float]) -> list[SlidingBranch]:
    """All nonlinear-model branches meeting x_range; they overlap for x > 4/3."""
    lo, hi = x_range
    out = []
    for n in range(1, max(2, math.ceil(3.0 * hi / 2.0)) + 1):
        b = _nonlinear_branch(n)
        if b.domain[1] > lo and b.domain[0] < hi:
            out.append(b)
    return out


def branches_at(model: SwitchingModel, x: float) -> list[SlidingBranch]:
    """Branches whose open domain contains x, sorted by lambda value ascending."""
    if model is SwitchingModel.LINEAR:
        if cospi(x) < -0.5:
            k = round((x - 1.0) / 2.0)
            return [_linear_branch(k)]
        return []
    n_lo = math.floor(x / 2.0) + 1
    n_hi = math.ceil(3.0 * x / 2.0) - 1
    return [_nonlinear_branch(n) for n in range(n_lo, n_hi + 1) if n >= 1]


@dataclass(frozen=True)
class EntryDecision:
    kind: str  # "crossing" | "sliding" | "tangency"
    branch: SlidingBranch | None = None
    lam_star: float | None = None


def select_branch_on_entry(model: SwitchingModel, x_entry: float,
                           from_side: int) -> EntryDecision:
    """Resolve a threshold contact from S_(from_side): cross, or attach to a branch.

    The fast layer flow moving inward from lambda = from_side stops at the
    first root of f_i(x_entry, .) it meets: the largest root from above, the
    smallest from below.  No root means the contact is a crossing.  A contact
    with a vanishing inward field, or a stopping root with df/dlambda ~ 0
    (root at a branch endpoint), is flagged as a tangency for fold handling.
    """
    if from_side not in (-1, 1):
        raise DomainError(f"from_side must be +-1, got {from_side}")
    f_edge = forcing(model, x_entry, float(from_side))
    if abs(f_edge) < TANGENCY_FIELD_TOL:
        return EntryDecision(kind="tangency")
    if from_side * f_edge < 0.0:
        raise DomainError(
            f"field at x={x_entry} does not point from S_{'+' if from_side > 0 else '-'} "
            "towards the threshold"
        )
    cands = branches_at(model, x_entry)
    if not cands:
        return EntryDecision(kind="crossing")
    roots = sorted(((b.lambda_of(x_entry), b) for b in cands), key=lambda t: t[0])
    lam_star, branch = roots[-1] if from_side > 0 else roots[0]
    slope = forcing_dlam(model, x_entry, lam_star)
    if abs(slope) < TANGENCY_FIELD_TOL:
        return EntryDecision(kind="tangency", branch=branch, lam_star=lam_star)
    if slope < 0.0:
        # cannot happen for a consistent inward field: the first root met from
        # either edge of [-1, 1] is attracting for the fast flow
        raise SolverError(
            f"first-met root at x={x_entry} is fast-repelling; inconsistent geometry"
        )
    return EntryDecision(kind="sliding", branch=branch, lam_star=lam_star)


def _departure_side(x: float) -> int:
    """Unique half-plane a threshold point can depart into; raises if ambiguous."""
    ok_p = _departure_ok(+1, x)
    ok_m = _departure_ok(-1, x)
    if ok_p and ok_m:
        raise DomainError(
            f"start (x={x}, y=0) lies in a repelling region: forward evolution is "
            "non-unique; give an explicit sliding state instead"
        )
    if not ok_p and not ok_m:
        raise DomainError(
            f"start (x={x}, y=0) lies in an attracting region: give an explicit "
            "sliding state with a branch"
        )
    return +1 if ok_p else -1


def _first_hit_from_interior(sign: int, x0: float, y0: float,
                             params: OscillatorParams) -> float:
    """First y = 0 contact of the general half-plane flow from (x0, y0 != 0)."""
    w = omega(sign)
    step = min(1.0 / (8.0 * w), 1.0 / (4.0 * params.a))
    g = lambda x: flow_from(sign, x, x0, y0, params)
    amp = 1.0 / math.hypot(w * math.pi, params.a)
    horizon = x0 + 6.0 / w + (
        0.0 if abs(y0) <= amp else math.log(abs(y0) / amp) / params.a
    )
    t, gp = x0, y0
    while t < horizon:
        t2 = t + step
        g2 = g(t2)
        if gp != 0.0 and (g2 > 0.0) != (gp > 0.0):
            return brentq(g, t, t2, xtol=1e-13)
        if g2 == 0.0:
            return t2
        t, gp = t2, g2
    raise SolverError(f"no threshold contact located from ({x0}, {y0})")


def simulate_discontinuous(model: SwitchingModel, params: OscillatorParams,
                           initial: "HybridState | tuple[float, float]",
                           x_end: float, tol: float = 1e-12) -> Trajectory:
    """Event-driven hybrid trajectory of the discontinuous (epsilon = 0) system.

    Half-plane arcs use the closed-form flow with crossings located by the
    Poincare machinery (no fixed-step integration anywhere), and each arc's
    stored samples are evaluated in one array call; threshold
    contacts are classified by select_branch_on_entry; sliding segments run
    along their branch until lambda reaches +-1 at the right endpoint, then
    exit into the half-plane whose field points outward.

    ``initial`` is either a HybridState or a plain (x, y) pair; threshold
    pairs (x, 0.0) depart into the unique consistent half-plane.
    """
    if params.epsilon != 0.0:
        raise DomainError("simulate_discontinuous requires epsilon = 0")
    if isinstance(initial, tuple):
        x0, y0 = initial
        if y0 == 0.0:
            start_state = ("depart", x0, _departure_side(x0))
        else:
            start_state = ("interior", x0, (y0, +1 if y0 > 0 else -1))
    else:
        x0 = initial.x
        if initial.mode is Mode.SLIDING:
            if initial.branch is None:
                cands = branches_at(model, x0)
                if len(cands) != 1:
                    raise DomainError(
                        "sliding start needs an explicit branch index when branches overlap"
                    )
                branch = cands[0]
            else:
                branch = (_linear_branch(initial.branch) if model is SwitchingModel.LINEAR
                          else _nonlinear_branch(initial.branch))
                if not branch.domain[0] < x0 < branch.domain[1]:
                    raise DomainError(f"sliding start x={x0} outside branch domain")
            start_state = ("slide", x0, branch)
        elif initial.y == 0.0:
            start_state = ("depart", x0, _departure_side(x0))
        else:
            start_state = ("interior", x0, (initial.y, +1 if initial.y > 0 else -1))
    if not (math.isfinite(x0) and math.isfinite(x_end)):
        raise DomainError(f"simulate_discontinuous needs finite x0 and x_end; "
                          f"got {x0}, {x_end}")
    if x_end <= x0:
        raise DomainError("x_end must exceed the initial x")
    traj = Trajectory()

    def sample(xs0: float, xs1: float) -> np.ndarray:
        n = max(8, int(round((xs1 - xs0) * SAMPLES_PER_UNIT)))
        return xs0 + (xs1 - xs0) * np.arange(n + 1) / n

    state = start_state
    for _guard in range(100000):
        kind, x, payload = state
        if kind == "depart":
            side = payload
            res = next_crossing(side, x, params, tol=tol)
            xc = min(res.x_next, x_end)
            xs = sample(x, xc)
            ys = flow_solution(side, xs, x, params).tolist()
            ys[0] = 0.0
            traj.segments.append(TrajectorySegment(
                mode=Mode.FLOW_PLUS if side > 0 else Mode.FLOW_MINUS, xs=xs.tolist(), ys=ys))
            if res.x_next > x_end:
                break
            ys[-1] = 0.0
            state = ("contact", res.x_next, side)
        elif kind == "interior":
            y0, side = payload
            xc_hit = _first_hit_from_interior(side, x, y0, params)
            xc = min(xc_hit, x_end)
            xs = sample(x, xc)
            ys = flow_from_array(side, xs, x, y0, params).tolist()
            traj.segments.append(TrajectorySegment(
                mode=Mode.FLOW_PLUS if side > 0 else Mode.FLOW_MINUS, xs=xs.tolist(), ys=ys))
            if xc_hit > x_end:
                break
            ys[-1] = 0.0
            state = ("contact", xc_hit, side)
        elif kind == "contact":
            side = payload
            decision = select_branch_on_entry(model, x, side)
            if decision.kind == "crossing":
                traj.events.append(TrajectoryEvent(x=x, kind="cross"))
                state = ("depart", x, -side)
            elif decision.kind == "sliding":
                traj.events.append(TrajectoryEvent(
                    x=x, kind="slide-entry", branch=decision.branch.index))
                state = ("slide", x, decision.branch)
            else:
                # tangential contact: graze and continue on the incoming side
                traj.events.append(TrajectoryEvent(x=x, kind="fold"))
                state = ("depart", x, side)
        elif kind == "slide":
            branch = payload
            x_exit = branch.domain[1]
            xc = min(x_exit, x_end)
            xs = sample(x, xc).tolist()
            traj.segments.append(TrajectorySegment(
                mode=Mode.SLIDING, xs=xs, ys=[0.0] * len(xs), branch=branch.index))
            if x_exit > x_end:
                break
            traj.events.append(TrajectoryEvent(
                x=x_exit, kind="slide-exit", branch=branch.index))
            # the endpoint is a tangency point; exactly one half-plane field
            # points away from the threshold there and the orbit leaves into it
            state = ("depart", x_exit, _departure_side(x_exit))
        else:  # pragma: no cover
            raise SolverError(f"unknown state {kind}")
        if traj.segments and traj.segments[-1].xs[-1] >= x_end:
            break
    else:  # pragma: no cover
        raise SolverError("event budget exhausted before reaching x_end")
    traj.validate()
    return traj


@dataclass
class SlidingOrbitResult:
    exists: bool
    trajectory: Trajectory | None = None
    crossings: list[float] = field(default_factory=list)
    landing: float | None = None
    closure_error: float | None = None
    x_a: float | None = None
    branch: int | None = None
    reason: str = ""


def find_sliding_period4_linear(a: float) -> SlidingOrbitResult:
    """Sliding period-4 orbit of the linear model through (10/3, 0).

    Simulates one period forward: the orbit exists iff the trajectory slides
    into x = 22/3 (= 10/3 + 4) on the attracting branch.  For small a the
    crossings drift past 22/3 and absence is reported, as expected in that
    regime.
    """
    p = OscillatorParams(a=a)
    # (10/3, 0) is the right edge of the first attracting interval: the only
    # consistent departure is a tangent one into S_+
    traj = simulate_discontinuous(
        SwitchingModel.LINEAR, p, (10.0 / 3.0, 0.0), x_end=10.0 / 3.0 + 4.0 + 0.75)
    crossings = [e.x for e in traj.events if e.kind == "cross"]
    target = 10.0 / 3.0 + 4.0
    for seg in traj.segments:
        if seg.mode is Mode.SLIDING and seg.xs[0] < target <= seg.xs[-1] + 1e-9:
            exit_x = next(e.x for e in traj.events
                          if e.kind == "slide-exit" and e.x >= target - 1e-9)
            return SlidingOrbitResult(
                exists=True, trajectory=traj, crossings=crossings,
                landing=seg.xs[0], closure_error=abs(exit_x - target),
                branch=seg.branch)
    return SlidingOrbitResult(
        exists=False, trajectory=traj, crossings=crossings,
        reason=f"no sliding segment reaches x = 22/3 at a={a}; crossings={crossings}")


def find_sliding_period4_nonlinear(a: float) -> SlidingOrbitResult:
    """The unique sliding period-4 orbit of the nonlinear model (exists for all a > 0).

    From (0, 0) the orbit dips into S_-, returns at x_a in (2, 4), attaches to
    the attracting branch n = 2 and slides to x = 4; periodicity then follows
    from the 4-periodicity of the field.  Periodicity of nonlinear sliding
    runs is only claimed here because the regularized limit confirms it
    (cross-module test); raw threshold concatenations would be unverified.
    """
    p = OscillatorParams(a=a)
    traj = simulate_discontinuous(
        SwitchingModel.NONLINEAR, p, (0.0, 0.0), x_end=4.0 + 0.5)
    entries = [e for e in traj.events if e.kind == "slide-entry"]
    exits = [e for e in traj.events if e.kind == "slide-exit"]
    if not entries or not exits:
        return SlidingOrbitResult(exists=False, trajectory=traj,
                                  reason="orbit did not slide")
    x_a = entries[0].x
    closure = abs(exits[0].x - 4.0)
    ymax = max(max(seg.ys) for seg in traj.segments)
    if ymax > Y_ZERO_TOL:
        return SlidingOrbitResult(exists=False, trajectory=traj,
                                  reason=f"orbit left closure of S_- (max y {ymax})")
    return SlidingOrbitResult(
        exists=True, trajectory=traj, crossings=[], landing=x_a,
        closure_error=closure, x_a=x_a, branch=entries[0].branch)


def check_no_nonsliding_periodic_nonlinear(a: float, n_max: int):
    """Per-n margins showing candidate transversal closures are excluded.

    P_+^a(4n-2) must land strictly inside (4n-4/3, 4n-2/3) and P_-^a(4n)
    strictly inside (4n+2, 4n+4); positive margins rule out non-sliding
    periodic orbits through the x = 2n contact lattice.
    """
    p = OscillatorParams(a=a)
    rows = []
    for n in range(1, n_max + 1):
        xp = next_crossing(+1, 4.0 * n - 2.0, p).x_next
        xm = next_crossing(-1, 4.0 * n, p).x_next
        rows.append({
            "n": n,
            "p_plus": xp,
            "margin_plus": min(xp - (4.0 * n - 4.0 / 3.0), (4.0 * n - 2.0 / 3.0) - xp),
            "p_minus": xm,
            "margin_minus": min(xm - (4.0 * n + 2.0), (4.0 * n + 4.0) - xm),
        })
    return rows


def ageing_metrics(model: SwitchingModel,
                   x_range: tuple[float, float] | None = None,
                   trajectory: Trajectory | None = None):
    """Branch-width table (ageing law) plus per-trajectory slid lengths.

    Nonlinear branch n spans 4n/3; linear branches all span 2/3.  When a
    trajectory is given, each sliding segment contributes its length keyed by
    the branch it ran on.
    """
    rows = []
    if x_range is not None:
        branches = (nonlinear_branches(x_range) if model is SwitchingModel.NONLINEAR
                    else linear_branches(x_range))
        for b in branches:
            rows.append({"n": b.index, "branch_width": b.width, "slid_length": 0.0,
                         "stability": b.stability})
    if trajectory is not None:
        by_branch = {r["n"]: r for r in rows}
        for seg in trajectory.segments:
            if seg.mode is Mode.SLIDING:
                length = seg.xs[-1] - seg.xs[0]
                row = by_branch.get(seg.branch)
                if row is None:
                    b = (_nonlinear_branch(seg.branch) if model is SwitchingModel.NONLINEAR
                         else _linear_branch(seg.branch))
                    row = {"n": seg.branch, "branch_width": b.width,
                           "slid_length": 0.0, "stability": b.stability}
                    rows.append(row)
                    by_branch[seg.branch] = row
                row["slid_length"] += length
    return rows

