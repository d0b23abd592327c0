"""Domain types, forcing models, and raw vector fields of the switched oscillator.

The system is ``x' = 1, y' = -a*y - f(x, lambda)`` with ``lambda = sign(y)``
off the threshold ``y = 0``.  Two forcing models exist: a convex (linear in
lambda) combination of two sinusoids, and a single sinusoid whose frequency is
a (nonlinear) function of lambda.  They agree for y != 0 and differ only in
threshold semantics, which is what the rest of the library is about.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

TWO_THIRDS = 2.0 / 3.0

#: The driving frequencies (in units of pi) above and below the threshold.
#: Every closed-form region, branch and lattice formula assumes this pair.
OMEGA_PLUS = 1.5
OMEGA_MINUS = 0.5

#: Largest jump allowed where consecutive trajectory segments meet.
GAP_TOL = 1e-9


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


def cospi_array(u: np.ndarray) -> np.ndarray:
    """``cospi`` on an array: the same fmod reduction and exact zeros."""
    r = np.fmod(np.abs(u), 2.0)
    r = np.where(r > 1.0, 2.0 - r, r)
    return np.where(r == 0.5, 0.0, np.cos(np.pi * r))


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


def classify_threshold_point(x: float, tol: float = 1e-12) -> Region:
    """Region of the threshold point (x, 0), from the signs of -sin(w+- pi x).

    The pattern is 4-periodic: attracting on (8/3, 10/3), repelling on
    (2/3, 4/3), tangent where either field has sin(w pi x) = 0, crossing
    elsewhere.  Tangency detection uses ``tol`` on the reduced argument;
    points x = 2n are tangent for both fields and report TANGENCY_MINUS.
    """
    sm = sinpi(x / 2.0)
    sp = sinpi(3.0 * x / 2.0)
    if abs(sm) < tol:
        return Region.TANGENCY_MINUS
    if abs(sp) < tol:
        return Region.TANGENCY_PLUS
    if sp > 0.0 and sm < 0.0:
        return Region.ATTRACTING
    if sp < 0.0 and sm > 0.0:
        return Region.REPELLING
    return Region.CROSSING


@dataclass
class TrajectoryEvent:
    x: float
    kind: str  # cross | slide-entry | slide-exit | fold | layer-entry | layer-exit
    branch: int | None = None


@dataclass
class TrajectorySegment:
    mode: Mode
    xs: list[float]
    ys: list[float]
    branch: int | None = None


@dataclass
class Trajectory:
    """Ordered mode-tagged path segments with the events separating them."""

    segments: list[TrajectorySegment] = field(default_factory=list)
    events: list[TrajectoryEvent] = field(default_factory=list)

    def validate(self) -> None:
        """Check segment abutment and monotone x; raises SolverError on breach."""
        prev = None
        for seg in self.segments:
            if len(seg.xs) != len(seg.ys) or not seg.xs:
                raise SolverError("segment sample arrays malformed")
            for i in range(1, len(seg.xs)):
                if not seg.xs[i] >= seg.xs[i - 1]:
                    raise SolverError("x not increasing within a segment")
            if prev is not None:
                if abs(seg.xs[0] - prev[0]) > GAP_TOL or abs(seg.ys[0] - prev[1]) > GAP_TOL:
                    raise SolverError(
                        f"segments do not abut at x={seg.xs[0]} (gap "
                        f"{abs(seg.ys[0] - prev[1]):.2e})"
                    )
            prev = (seg.xs[-1], seg.ys[-1])

    @property
    def x_end(self) -> float:
        return self.segments[-1].xs[-1] if self.segments else math.nan

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
