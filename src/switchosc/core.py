"""Domain types, forcing models, and raw vector fields of the switched oscillator.

The system is ``x' = 1, y' = -a*y - f(x, lambda)`` with ``lambda = sign(y)``
off the threshold ``y = 0``.  Two forcing models exist: a convex (linear in
lambda) combination of two sinusoids, and a single sinusoid whose frequency is
a (nonlinear) function of lambda.  They agree for y != 0 and differ only in
threshold semantics, which is what the rest of the library is about.  Every
threshold rule is built on one tangency test, ``field_direction``.

The sliding branches, where f_i(x, lambda) vanishes for a lambda in (-1, 1),
are defined here once: ``branch`` builds one and ``branch_indices`` lists, in
O(1), the indices whose domain meets an interval.

Both engines return one ``Trajectory``: its segments keep the closed form (or
the layer kernel's dense output) they were computed from, so ``eval`` works on
arrays for either engine, and samples are tabulated only when read.
"""

from __future__ import annotations

import enum
import math
from collections.abc import Callable
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

#: The driving frequencies (in units of pi) above and below the threshold.
#: Every closed-form region, branch and lattice formula assumes this pair.
OMEGA_PLUS = 1.5
OMEGA_MINUS = 0.5

#: Largest jump allowed where consecutive trajectory segments meet.
GAP_TOL = 1e-9
#: Samples per unit of x when a trajectory segment is tabulated (at least 8 each).
SAMPLES_PER_UNIT = 120


class OscillatorError(Exception):
    """Base class for library errors."""


class DomainError(OscillatorError, ValueError):
    """An argument lies outside an operation's domain."""


class SolverError(OscillatorError, RuntimeError):
    """A numerical routine failed to meet its contract."""


class NoOrbitError(OscillatorError, RuntimeError):
    """A requested periodic orbit does not exist in this parameter regime."""


def sinpi(u: float) -> float:
    """sin(pi*u) with argument reduction mod 2.

    fmod is exact for doubles, so the reduction keeps full precision for the
    large x reached by ageing runs (x ~ 1e3), where a naive sin(pi*x) loses
    digits.
    """
    r = math.fmod(u, 2.0)
    if r > 1.0:
        r -= 2.0
    elif r < -1.0:
        r += 2.0
    if r == 0.0 or r == 1.0 or r == -1.0:
        return 0.0
    return math.sin(math.pi * r)


def cospi(u: float) -> float:
    """cos(pi*u) with argument reduction mod 2."""
    r = math.fmod(abs(u), 2.0)
    if r > 1.0:
        r = 2.0 - r
    if r == 0.5:
        return 0.0
    return math.cos(math.pi * r)


def sinpi_array(u: np.ndarray) -> np.ndarray:
    """``sinpi`` on an array: the same fmod reduction and exact zeros."""
    r = np.fmod(u, 2.0)
    r[r > 1.0] -= 2.0
    r[r < -1.0] += 2.0
    s = np.sin(np.pi * r)
    s[np.fmod(r, 1.0) == 0.0] = 0.0  # r in {-1, 0, 1}
    return s


class SwitchingModel(enum.Enum):
    LINEAR = "linear"
    NONLINEAR = "nonlinear"


class Mode(enum.Enum):
    FLOW_PLUS = "flow+"
    FLOW_MINUS = "flow-"
    SLIDING = "sliding"
    LAYER = "layer"


class Region(enum.Enum):
    ATTRACTING = "attracting"
    REPELLING = "repelling"
    CROSSING = "crossing"
    TANGENCY_PLUS = "tangency+"
    TANGENCY_MINUS = "tangency-"


@dataclass(frozen=True)
class OscillatorParams:
    """Damping and regularization width; epsilon = 0 is the discontinuous system."""

    a: float
    epsilon: float = 0.0

    def __post_init__(self) -> None:
        if not (math.isfinite(self.a) and self.a > 0.0):
            raise DomainError(f"damping a must be finite and > 0, got {self.a}")
        if not (math.isfinite(self.epsilon) and self.epsilon >= 0.0):
            raise DomainError(f"epsilon must be finite and >= 0, got {self.epsilon}")
        if self.epsilon > 0.0 and not self.a * self.epsilon < 1.0:
            raise DomainError(
                f"layer analysis assumes a*epsilon < 1, got {self.a * self.epsilon}"
            )


def omega(sign: int) -> float:
    """Driving frequency (in units of pi) of the half plane S_sign."""
    return OMEGA_PLUS if sign > 0 else OMEGA_MINUS


@dataclass(frozen=True)
class HybridState:
    """A phase point tagged with its dynamical mode.

    ``y`` holds the vertical coordinate; in layer scale callers divide by
    epsilon themselves.
    """

    x: float
    y: float
    mode: Mode
    branch: int | None = None

    def __post_init__(self) -> None:
        if self.mode is Mode.FLOW_PLUS and not self.y > 0.0:
            raise DomainError("mode flow+ requires y > 0")
        if self.mode is Mode.FLOW_MINUS and not self.y < 0.0:
            raise DomainError("mode flow- requires y < 0")
        if self.mode is Mode.SLIDING and self.y != 0.0:
            raise DomainError("sliding states sit exactly on y = 0")


def forcing(model: SwitchingModel, x: float, lam: float) -> float:
    """Forcing value f_i(x, lambda), lambda in [-1, 1].

    Linear: the convex combination of sin(w+ pi x) and sin(w- pi x).
    Nonlinear: one sinusoid at the lambda-interpolated frequency.
    Both reduce to sin(w+- pi x) at lambda = +-1.
    """
    if not -1.0 <= lam <= 1.0:
        raise DomainError(f"lambda must lie in [-1, 1], got {lam}")
    wp, wm = OMEGA_PLUS, OMEGA_MINUS
    if model is SwitchingModel.LINEAR:
        return 0.5 * (1.0 + lam) * sinpi(wp * x) + 0.5 * (1.0 - lam) * sinpi(wm * x)
    return sinpi(((1.0 + lam) * wp + (1.0 - lam) * wm) * x / 2.0)


def forcing_dlam(model: SwitchingModel, x: float, lam: float) -> float:
    """d f_i / d lambda, used for fast-direction stability of threshold roots."""
    wp, wm = OMEGA_PLUS, OMEGA_MINUS
    if model is SwitchingModel.LINEAR:
        return 0.5 * (sinpi(wp * x) - sinpi(wm * x))
    u = ((1.0 + lam) * wp + (1.0 - lam) * wm) * x / 2.0
    return math.pi * x * (wp - wm) / 2.0 * cospi(u)


def vector_field(model: SwitchingModel, params: OscillatorParams,
                 state: HybridState) -> tuple[float, float]:
    """(dx, dy) off the threshold; rejects y = 0 where lambda is set-valued."""
    if state.y == 0.0:
        raise DomainError("vector_field is undefined on y = 0; use the sliding module")
    lam = 1.0 if state.y > 0.0 else -1.0
    return 1.0, -params.a * state.y - forcing(model, state.x, lam)


def field_direction(sign: int, x: float) -> int:
    """Direction of the S_sign field at (x, 0): +1 up, -1 down, 0 tangent.

    The field's y component there is -sin(w pi x), which at a tangency carries
    the rounding of x, about w pi ulp(x): the band widens with |x| on long runs.
    """
    w = omega(sign)
    dy = -sinpi(w * x)
    if abs(dy) <= max(1e-12, 8.0 * math.pi * w * math.ulp(x)):
        return 0
    return 1 if dy > 0.0 else -1


def departure_ok(sign: int, x: float) -> bool:
    """The field at (x, 0) permits leaving into S_sign, transversally or tangentially."""
    direction = field_direction(sign, x)
    if direction == 0:  # the curvature -w pi cos(w pi x) must bend into S_sign
        return sign * -cospi(omega(sign) * x) > 0.0
    return direction == sign


def classify_threshold_point(x: float) -> Region:
    """Region of the threshold point (x, 0), from the two field directions.

    The pattern is 4-periodic: attracting on (8/3, 10/3), repelling on
    (2/3, 4/3), tangent where either field is, crossing elsewhere.  Points
    x = 2n are tangent for both fields and report TANGENCY_MINUS.
    """
    up_plus, up_minus = field_direction(+1, x), field_direction(-1, x)
    if up_minus == 0:
        return Region.TANGENCY_MINUS
    if up_plus == 0:
        return Region.TANGENCY_PLUS
    if up_plus < 0 < up_minus:
        return Region.ATTRACTING
    if up_minus < 0 < up_plus:
        return Region.REPELLING
    return Region.CROSSING


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


def _domain(model: SwitchingModel, n: int) -> tuple[float, float]:
    if model is SwitchingModel.LINEAR:
        lo = 2.0 / 3.0 + 2.0 * n
        return lo, lo + 2.0 / 3.0
    return 2.0 * n / 3.0, 2.0 * n


def branch(model: SwitchingModel, n: int) -> SlidingBranch:
    """Sliding branch n, where f_i(x, lambda) = 0 for a lambda in (-1, 1).

    Linear (Filippov): one branch per interval (2/3 + 2n, 4/3 + 2n), any
    integer n, attracting for odd n.  Nonlinear: branch n >= 1 on
    (2n/3, 2n), attracting for even n; the branches overlap for x > 4/3 and
    their width 4n/3 grows with n (the ageing law).
    """
    linear = model is SwitchingModel.LINEAR
    if not linear and n < 1:
        raise DomainError("nonlinear branch index starts at 1")
    return SlidingBranch(model, n, _domain(model, n),
                         "attracting" if n % 2 == (1 if linear else 0) else "repelling")


def branch_indices(model: SwitchingModel, lo: float, hi: float) -> range:
    """Indices n whose open domain (d0, d1) meets (lo, hi): d0 < hi and lo < d1.

    (x, x) gives the branches at x.  Both domain ends rise with n, so the
    indices form a range.  Its ends come from a closed-form guess, trimmed by
    the comparisons ``lambda_of`` makes, so every index returned for (x, x)
    has x inside its float domain.  Ends past +-2**53, where consecutive
    domain ends collide in floating point, raise DomainError.
    """
    if not (abs(lo) <= 2.0**53 and abs(hi) <= 2.0**53):  # False for NaN too
        raise DomainError(f"branch range needs ends within +-2**53, got ({lo}, {hi})")
    linear = model is SwitchingModel.LINEAR
    if linear:
        first, last = math.floor(lo / 2.0 - 2.0 / 3.0) + 1, math.ceil(hi / 2.0 - 1.0 / 3.0) - 1
    else:
        first, last = max(math.floor(lo / 2.0) + 1, 1), math.ceil(1.5 * hi) - 1
    while (linear or first > 1) and _domain(model, first - 1)[1] > lo:
        first -= 1
    while not _domain(model, first)[1] > lo:
        first += 1
    while _domain(model, last + 1)[0] < hi:
        last += 1
    while last >= first and not _domain(model, last)[0] < hi:
        last -= 1
    return range(first, max(first, last + 1))


@dataclass
class TrajectoryEvent:
    x: float
    kind: str  # cross | slide-entry | slide-exit | fold | layer-entry | layer-exit
    branch: int | None = None


@dataclass
class TrajectorySegment:
    """One arc of a run on [x0, x1]: mode, end values y0/y1 and evaluator.

    ``eval`` maps an array of x to y (v on a regularized run).  The end values
    cost no evaluation; y1 is nan where the run was cut at x_end.  ``xs`` and
    ``ys`` are tabulated on first read and cached; an end value 0.0 (on the
    threshold) is pinned exactly in ``ys``.
    """

    mode: Mode
    x0: float
    x1: float
    y0: float
    y1: float
    eval: Callable[[np.ndarray], np.ndarray]
    branch: int | None = None

    @cached_property
    def xs(self) -> list[float]:
        n = max(8, int(round((self.x1 - self.x0) * SAMPLES_PER_UNIT)))
        return (self.x0 + (self.x1 - self.x0) * np.arange(n + 1) / n).tolist()

    @cached_property
    def ys(self) -> list[float]:
        ys = self.eval(np.array(self.xs)).tolist()
        if self.y0 == 0.0:
            ys[0] = 0.0
        if self.y1 == 0.0:
            ys[-1] = 0.0
        return ys


def capture_threshold(epsilon: float) -> float:
    """Layer spans beyond this are slow-manifold captures (O(1) in x), not
    transits (O(eps), an order of magnitude at most for the fields here)."""
    return max(25.0 * epsilon, 0.02)


@dataclass
class Trajectory:
    """A run of either engine: segments in x order, the events between them
    and the P_eps outputs (``section_x``, ``log_sensitivity``) of a section run."""

    params: OscillatorParams
    model: SwitchingModel
    segments: list[TrajectorySegment] = field(default_factory=list)
    events: list[TrajectoryEvent] = field(default_factory=list)
    section_x: float | None = None
    log_sensitivity: float | None = None

    def eval(self, xq) -> np.ndarray:
        """y (v on a regularized run) at points in [x_start, x_end], else DomainError.

        A point where two segments meet takes the later one.  Each segment
        evaluates its points in one array call.
        """
        xq = np.atleast_1d(np.asarray(xq, dtype=float))
        inside = (xq >= self.x_start) & (xq <= self.x_end)  # False for NaN
        if not inside.all():
            raise DomainError(
                f"query point {xq[~inside][0]!r} outside the simulated range "
                f"[{self.x_start!r}, {self.x_end!r}]")
        idx = np.searchsorted([s.x0 for s in self.segments], xq, "right") - 1
        out = np.empty(xq.shape)
        for j in np.unique(idx):
            sel = idx == j
            out[sel] = self.segments[j].eval(xq[sel])
        return out

    @property
    def x_start(self) -> float:
        return self.segments[0].x0 if self.segments else math.nan

    @property
    def x_end(self) -> float:
        return self.segments[-1].x1 if self.segments else math.nan

    def layer_spans(self) -> list[tuple[float, float]]:
        return [(s.x0, s.x1) for s in self.segments if s.mode is Mode.LAYER]

    def captured_spans(self) -> list[tuple[float, float]]:
        threshold = capture_threshold(self.params.epsilon)
        return [sp for sp in self.layer_spans() if sp[1] - sp[0] > threshold]

    def validate(self) -> None:
        """Check from the stored ends that segments run forward and abut; raises
        SolverError.  Both engines call it on every trajectory they return."""
        for seg in self.segments:
            if not seg.x0 <= seg.x1:
                raise SolverError(f"segment runs backwards: x0={seg.x0!r} > x1={seg.x1!r}")
        for prev, seg in zip(self.segments, self.segments[1:]):
            if not (abs(seg.x0 - prev.x1) <= GAP_TOL and abs(seg.y0 - prev.y1) <= GAP_TOL):
                raise SolverError(
                    f"segments do not abut at x={seg.x0!r}: the previous one ends at "
                    f"({prev.x1!r}, {prev.y1!r}), this one starts at y={seg.y0!r}")

    def xy(self) -> tuple[list[float], list[float]]:
        """Every sample as flat x and y lists, in segment order, for plotting."""
        return ([x for seg in self.segments for x in seg.xs],
                [y for seg in self.segments for y in seg.ys])

    def rows(self):
        """Flat (x, y, mode, branch, event) rows for CSV emission."""
        ev = {round(e.x, 12): e.kind for e in self.events}
        for seg in self.segments:
            for x, y in zip(seg.xs, seg.ys):
                yield x, y, seg.mode.value, seg.branch, ev.get(round(x, 12), "")
