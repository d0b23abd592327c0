"""Threshold semantics of the discontinuous system: entry selection,
event-driven hybrid simulation, sliding periodic orbits, ageing metrics.

Sliding happens where the forcing can vanish for some lambda in (-1, 1); the
branches where it does are ``core.branch`` and ``core.branch_indices``.  For
the linear model they are the classical Filippov picture (isolated branches
on the attracting/repelling intervals); for the nonlinear model they
proliferate and overlap, and the branch a trajectory attaches to is decided
by the fast layer dynamics v' = -f_i(x, psi(v)): descending from lambda = +1
the motion stops at the largest root of f_i(x, .) in (-1, 1), ascending from
lambda = -1 at the smallest.  Both models take that rule; the roots rise
with the branch index, and a linear point lies on one branch at most.  A root
reached this way is automatically fast-attracting (df/dlambda > 0); the
regularization module is the validating oracle for this rule.  Tangent
contacts and departures follow ``core.field_direction`` and ``departure_ok``.

The hybrid simulator stores each arc as a closed-form segment of a
``core.Trajectory``: ``flow_from_array`` from the arc's start (y0 = 0 for a
departure from the threshold), or zero on a slide.  Samples are tabulated
only when read.  Arcs from the threshold end at ``poincare.next_crossing``;
an arc from an interior start ends at ``analytic_flow.next_contact`` with the
level y = 0.  The nonlinear margins over the contact lattice x = 2n take one
``next_crossing`` per side: both fields are 4-periodic in x, so every row is
the n = 1 landing shifted by 4(n - 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .core import (
    DomainError,
    Mode,
    NoOrbitError,
    OscillatorParams,
    SolverError,
    SwitchingModel,
    Trajectory,
    TrajectoryEvent,
    TrajectorySegment,
    HybridState,
    SlidingBranch,
    branch,
    branch_indices,
    departure_ok,
    field_direction,
    forcing_dlam,
)
# flow_from and flow_solution stay bound here: the benchmark's tracer patches
# them by name
from .analytic_flow import flow_from, flow_from_array, flow_solution, next_contact
from .poincare import next_crossing

#: Loop steps (arcs, contacts and slides) before a hybrid run gives up.
_EVENT_BUDGET = 100000


@dataclass(frozen=True)
class EntryDecision:
    kind: str  # "crossing" | "sliding" | "tangency"
    branch: SlidingBranch | None = None
    lam_star: float | None = None


def select_branch_on_entry(model: SwitchingModel, x_entry: float,
                           from_side: int) -> EntryDecision:
    """Resolve a threshold contact from S_(from_side): cross, or attach to a branch.

    A tangent S_(from_side) field (``core.field_direction``) is a tangency,
    for fold handling; one pointing away is a DomainError.  Otherwise the fast
    layer flow moving inward from lambda = from_side stops at the first root
    of f_i(x_entry, .) it meets: the largest from above, the smallest from
    below.  No root means the contact is a crossing.
    """
    if from_side not in (-1, 1):
        raise DomainError(f"from_side must be +-1, got {from_side}")
    direction = field_direction(from_side, x_entry)
    if direction == 0:
        return EntryDecision(kind="tangency")
    if direction == from_side:
        raise DomainError(
            f"field at x={x_entry} does not point from S_{'+' if from_side > 0 else '-'} "
            "towards the threshold"
        )
    # the roots at x_entry rise with the index: from above the first root met
    # is the largest index, from below the smallest
    cands = branch_indices(model, x_entry, x_entry)
    if not cands:
        return EntryDecision(kind="crossing")
    found = branch(model, cands[-1] if from_side > 0 else cands[0])
    lam_star = found.lambda_of(x_entry)
    if forcing_dlam(model, x_entry, lam_star) < 0.0:
        # cannot happen for a consistent inward field: the first root met from
        # either edge of [-1, 1] is attracting for the fast flow, with
        # |df/dlambda| at least sqrt(3)/4 (linear) or pi/3 (nonlinear)
        raise SolverError(
            f"first-met root at x={x_entry} is fast-repelling; inconsistent geometry"
        )
    return EntryDecision(kind="sliding", branch=found, lam_star=lam_star)


def _departure_side(x: float) -> int:
    """Unique half-plane a threshold point can depart into; raises if ambiguous."""
    ok_p = departure_ok(+1, x)
    ok_m = departure_ok(-1, x)
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


def simulate_discontinuous(model: SwitchingModel, params: OscillatorParams,
                           initial: "HybridState | tuple[float, float]",
                           x_end: float) -> Trajectory:
    """Event-driven hybrid trajectory of the discontinuous (epsilon = 0) system.

    Half-plane arcs use the closed-form flow with crossings located by the
    Poincare machinery (no fixed-step integration anywhere), and each arc
    keeps that closed form as its evaluator; threshold
    contacts are classified by select_branch_on_entry; sliding segments run
    along their branch until lambda reaches +-1 at the right endpoint, then
    exit into the half-plane whose field points outward.

    ``initial`` is either a HybridState or a plain (x, y) pair; threshold
    pairs (x, 0.0) depart into the unique consistent half-plane.
    """
    if params.epsilon != 0.0:
        raise DomainError("simulate_discontinuous requires epsilon = 0")
    if isinstance(initial, HybridState) and initial.mode is Mode.SLIDING:
        x0, n = initial.x, initial.branch
        if n is None:
            cands = branch_indices(model, x0, x0)
            if len(cands) != 1:
                raise DomainError(f"sliding start x={x0} lies on {len(cands)} branches: "
                                  "give an explicit branch index")
            n = cands[0]
        start = branch(model, n)
        if not start.domain[0] < x0 < start.domain[1]:
            raise DomainError(f"sliding start x={x0} outside branch domain")
        state = ("slide", x0, start)
    else:
        x0, y0 = (initial.x, initial.y) if isinstance(initial, HybridState) else initial
        state = ("depart", x0, _departure_side(x0)) if y0 == 0.0 else ("interior", x0, y0)
    if not (math.isfinite(x0) and math.isfinite(x_end)):
        raise DomainError(f"simulate_discontinuous needs finite x0 and x_end; "
                          f"got {x0}, {x_end}")
    if x_end <= x0:
        raise DomainError("x_end must exceed the initial x")
    traj = Trajectory(params=params, model=model)
    for _guard in range(_EVENT_BUDGET):
        kind, x, payload = state
        if kind in ("depart", "interior"):
            if kind == "depart":
                side, y0 = payload, 0.0
                x_hit = next_crossing(side, x, params).x_next
            else:
                y0, side = payload, (1 if payload > 0.0 else -1)
                x_hit = next_contact(side, x, y0, 0.0, params, x_end)
            arc = partial(flow_from_array, side, x0=x, y0=y0, params=params)
            cut = x_hit > x_end
            traj.segments.append(TrajectorySegment(
                Mode.FLOW_PLUS if side > 0 else Mode.FLOW_MINUS, x, min(x_hit, x_end),
                y0, math.nan if cut else 0.0, arc))
            if cut:
                break
            state = ("contact", x_hit, side)
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
        else:  # "slide"
            b = payload
            x_exit = b.domain[1]
            cut = x_exit > x_end
            traj.segments.append(TrajectorySegment(
                Mode.SLIDING, x, min(x_exit, x_end), 0.0, 0.0, np.zeros_like,
                branch=b.index))
            if cut:
                break
            traj.events.append(TrajectoryEvent(
                x=x_exit, kind="slide-exit", branch=b.index))
            # the endpoint is a tangency point; exactly one half-plane field
            # points away from the threshold there and the orbit leaves into it
            state = ("depart", x_exit, _departure_side(x_exit))
        if traj.segments and traj.segments[-1].x1 >= x_end:
            break
    else:
        kind, x, _ = state
        raise SolverError(
            f"event budget of {_EVENT_BUDGET} steps exhausted before x_end={x_end!r}: "
            f"next state {kind!r} at x={x!r}, last events {traj.events[-3:]}")
    traj.validate()
    return traj


@dataclass
class SlidingOrbitResult:
    """A sliding period-4 orbit: one period's run, the slide's entry
    (``landing``), the slide exit's distance from closure and its branch."""

    trajectory: Trajectory
    landing: float
    closure_error: float
    branch: int


def find_sliding_period4_linear(a: float) -> SlidingOrbitResult:
    """Sliding period-4 orbit of the linear model through (10/3, 0).

    Simulates one period forward: the orbit exists iff the trajectory slides
    into x = 22/3 (= 10/3 + 4) on the attracting branch.  For small a the
    crossings drift past 22/3 and NoOrbitError reports the absence, as
    expected in that regime.
    """
    p = OscillatorParams(a=a)
    # (10/3, 0) is the right edge of the first attracting interval: the only
    # consistent departure is a tangent one into S_+
    traj = simulate_discontinuous(
        SwitchingModel.LINEAR, p, (10.0 / 3.0, 0.0), x_end=10.0 / 3.0 + 4.0 + 0.75)
    target = 10.0 / 3.0 + 4.0
    for seg in traj.segments:
        if seg.mode is Mode.SLIDING and seg.x0 < target <= seg.x1 + 1e-9:
            exit_x = next(e.x for e in traj.events
                          if e.kind == "slide-exit" and e.x >= target - 1e-9)
            return SlidingOrbitResult(trajectory=traj, landing=seg.x0,
                                      closure_error=abs(exit_x - target), branch=seg.branch)
    crossings = [e.x for e in traj.events if e.kind == "cross"]
    raise NoOrbitError(f"no sliding segment reaches x = 22/3 at a={a}; crossings={crossings}")


def find_sliding_period4_nonlinear(a: float) -> SlidingOrbitResult:
    """The unique sliding period-4 orbit of the nonlinear model (exists for all a > 0).

    From (0, 0) the orbit dips into S_-, returns at x_a in (2, 4), attaches to
    the attracting branch n = 2 and slides to x = 4; periodicity then follows
    from the 4-periodicity of the field.  Periodicity of nonlinear sliding
    runs is only claimed here because the regularized limit confirms it
    (``tests/test_regularization.py::test_vr_eps_limit_is_discontinuous_orbit``);
    raw threshold concatenations would be unverified.
    ``landing`` is the slide's entry x_a.  A run that does not slide, or has
    an arc in S_+ (leaves the closure of S_-), raises NoOrbitError.
    """
    p = OscillatorParams(a=a)
    traj = simulate_discontinuous(
        SwitchingModel.NONLINEAR, p, (0.0, 0.0), x_end=4.0 + 0.5)
    entries = [e for e in traj.events if e.kind == "slide-entry"]
    exits = [e for e in traj.events if e.kind == "slide-exit"]
    if not entries or not exits:
        raise NoOrbitError("orbit did not slide")
    above = [seg.x0 for seg in traj.segments if seg.mode is Mode.FLOW_PLUS]
    if above:
        raise NoOrbitError(f"orbit left closure of S_- into S_+ at x={above[0]}")
    return SlidingOrbitResult(trajectory=traj, landing=entries[0].x,
                              closure_error=abs(exits[0].x - 4.0), branch=entries[0].branch)


def check_no_nonsliding_periodic_nonlinear(a: float, n_max: int):
    """Per-n margins showing candidate transversal closures are excluded.

    P_+^a(4n-2) must land strictly inside (4n-4/3, 4n-2/3) and P_-^a(4n)
    strictly inside (4n+2, 4n+4); positive margins rule out non-sliding
    periodic orbits through the x = 2n contact lattice.  Both fields are
    4-periodic in x, so P_+-(x + 4k) = P_+-(x) + 4k: each side takes one
    ``next_crossing`` call, from 2 and from 4, and row n adds the exact step
    of that landing to its own start.
    """
    p = OscillatorParams(a=a)
    step_plus = next_crossing(+1, 2.0, p).x_next - 2.0
    step_minus = next_crossing(-1, 4.0, p).x_next - 4.0
    landings = ((n, (4.0 * n - 2.0) + step_plus, 4.0 * n + step_minus)
                for n in range(1, n_max + 1))
    return [{
        "n": n,
        "p_plus": xp,
        "margin_plus": min(xp - (4.0 * n - 4.0 / 3.0), (4.0 * n - 2.0 / 3.0) - xp),
        "p_minus": xm,
        "margin_minus": min(xm - (4.0 * n + 2.0), (4.0 * n + 4.0) - xm),
    } for n, xp, xm in landings]


def ageing_metrics(model: SwitchingModel, x_range: tuple[float, float]) -> list[dict]:
    """Branch-width table (the ageing law) of the branches meeting x_range.

    Nonlinear branch n spans 4n/3; linear branches all span 2/3.
    """
    branches = (branch(model, n) for n in branch_indices(model, *x_range))
    return [{"n": b.index, "branch_width": b.width, "stability": b.stability} for b in branches]
