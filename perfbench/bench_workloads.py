"""The benchmark's three workloads: seeded operation lists, the operations, their checks.

A workload is built from ``--seed`` and a round count.  Every round holds the
same kinds of operation in the same proportions, with fresh seeded values, so
runs of any seed do comparable work and failed operations are the same share
of attempted ones.  Operations call switchosc through its module attributes,
so the traced run's wrappers see every call.  Checks run outside the timed
region and return lists of problems.
"""

from __future__ import annotations

import math

import numpy as np

from switchosc import poincare, regularization, sliding
from switchosc.core import OscillatorParams, SwitchingModel

import bench_oracles as oracles

LINEAR = SwitchingModel.LINEAR
NONLINEAR = SwitchingModel.NONLINEAR


def _stratified(rng, lo: float, hi: float, k: int) -> list[float]:
    """One uniform draw in each of k equal strata of [lo, hi]."""
    edges = np.linspace(lo, hi, k + 1)
    return [float(rng.uniform(edges[i], edges[i + 1])) for i in range(k)]


class Workload:
    """Base: subclasses build ``ops`` and implement run/check/finish."""

    name = ""
    round_seconds = 1.0  # nominal cost of one round; sets the round count

    def __init__(self, seed: int, rounds: int):
        self.rng = np.random.default_rng(seed)
        self.ops: list[dict] = []

    def prepare(self) -> None:
        """Input set-up beyond the seeded values; counted in setup_s."""

    def warmup(self) -> None:
        raise NotImplementedError

    def run(self, op: dict):
        raise NotImplementedError

    def check(self, op: dict, result) -> list[str]:
        return []

    def finish(self) -> list[str]:
        """Checks that compare operations with each other, after the list ends."""
        return []


# ---------------------------------------------------------------------------


class DiscSweep(Workload):
    """Discontinuous system over a stratified log-grid of damping values.

    The seeded grid leaves out (0.98, 1.15): there the linear run from (10/3, 0)
    fails for every a in [0.9975, 1.1223] (zero-length arc from next_crossing).
    That fault stays in view through the named failing operation at a = 1.068.
    """

    name = "disc-sweep"
    round_seconds = 1.4
    strata = 24
    x_range = 40.5   # not a lattice point, so no run ends on a contact
    a_range = (1e-3, 10.0)
    a_skip = (0.98, 1.15)
    period4_below = 0.02
    oracle_ops = 2   # ops per run whose every crossing is re-integrated

    def __init__(self, seed: int, rounds: int):
        super().__init__(seed, rounds)
        lo, hi = (math.log10(v) for v in self.a_range)
        s_lo, s_hi = (math.log10(v) for v in self.a_skip)
        gap = s_hi - s_lo
        for r in range(rounds):
            for u in _stratified(self.rng, lo, hi - gap, self.strata):
                self.ops.append({"kind": "sweep", "a": 10.0 ** (u if u < s_lo else u + gap),
                                 "round": r})
            self.ops.append({"kind": "sweep", "a": 0.01, "round": r})
            self.ops.append({"kind": "linear-1.068", "a": 1.068, "round": r,
                             "expect_fail": True})
            self.ops.append({"kind": "interior-0.0127", "a": 0.0127, "round": r,
                             "expect_fail": True})
        sweep = [i for i, op in enumerate(self.ops) if op["kind"] == "sweep"]
        for i in self.rng.choice(sweep, size=min(self.oracle_ops, len(sweep)), replace=False):
            self.ops[int(i)]["oracle"] = True

    def warmup(self) -> None:
        self.run({"kind": "sweep", "a": 0.5})

    def run(self, op: dict):
        kind, a = op["kind"], op["a"]
        p = OscillatorParams(a=a)
        if kind == "linear-1.068":
            # next_crossing(+1, 6.642139527593896, a=1.068) returns a zero-length arc
            return sliding.simulate_discontinuous(
                LINEAR, p, (10.0 / 3.0, 0.0), 10.0 / 3.0 + self.x_range)
        if kind == "interior-0.0127":
            # _first_hit_from_interior gives up at x ~ 70.9; the first contact is at ~94.0
            return sliding.simulate_discontinuous(NONLINEAR, p, (8.7967, 0.4436), 108.8)
        out = {
            "nonlinear": sliding.simulate_discontinuous(NONLINEAR, p, (0.0, 0.0), self.x_range),
            "linear": sliding.simulate_discontinuous(
                LINEAR, p, (10.0 / 3.0, 0.0), 10.0 / 3.0 + self.x_range),
            "margins": sliding.check_no_nonsliding_periodic_nonlinear(a, 10),
        }
        if a <= self.period4_below:
            out["period4"] = poincare.find_nonsliding_period4(a)
        return out

    def check(self, op: dict, result) -> list[str]:
        a = op["a"]
        if op.get("expect_fail"):
            # should the fault be mended, the first round checks what the run now returns
            if op["round"] > 0:
                return []
            return oracles.check_crossings(oracles.contact_arcs(result), a)
        problems = (oracles.check_confined(result["nonlinear"])
                    + oracles.check_slide_exits(result["nonlinear"])
                    + oracles.check_margins(result["margins"]))
        if "period4" in result:
            problems += oracles.check_period4(a, *result["period4"])
        if op.get("oracle"):
            arcs = (oracles.contact_arcs(result["nonlinear"])
                    + oracles.contact_arcs(result["linear"])
                    + [(1, 4.0 * r["n"] - 2.0, r["p_plus"]) for r in result["margins"]]
                    + [(-1, 4.0 * r["n"], r["p_minus"]) for r in result["margins"]])
            problems += oracles.check_crossings(arcs, a)
        return problems


# ---------------------------------------------------------------------------


class RegReturnMap(Workload):
    """Fixed points of the regularized linear return map P_eps.

    Per round: one seeded a in [0.005, 0.02] solved at one eps from each third
    of log10 eps in [-3, -2], then the a = 2 sliding orbit at eps = 1e-2 and
    1e-3.  One solve takes 3.5-7 s, so one round makes a run.  The oracle
    re-integrates the orbits of the finest eps and of the fine sliding orbit.
    """

    name = "reg-return-map"
    round_seconds = 25.0
    a_range = (0.005, 0.02)
    eps_strata = 3
    bracket = 0.08
    sliding_a = 2.0
    sliding_eps = (1e-2, 1e-3)

    def __init__(self, seed: int, rounds: int):
        super().__init__(seed, rounds)
        for r in range(rounds):
            a = float(self.rng.uniform(*self.a_range))
            for u in sorted(_stratified(self.rng, -3.0, -2.0, self.eps_strata), reverse=True):
                self.ops.append({"kind": "nonsliding", "a": a, "eps": 10.0 ** u, "round": r})
            self.ops[-1]["oracle"] = True  # the finest eps
            for eps in self.sliding_eps:
                self.ops.append({"kind": "sliding", "a": self.sliding_a, "eps": eps, "round": r})
            self.ops[-1]["oracle"] = True
        self.x_star = {}
        self.errors: dict[float, list] = {}
        self.orbits: dict[int, list] = {}

    def prepare(self) -> None:
        """The discontinuous x* each bracket is centred on."""
        for op in self.ops:
            if op["kind"] == "nonsliding" and op["a"] not in self.x_star:
                self.x_star[op["a"]] = poincare.find_nonsliding_period4(op["a"])[0]

    def warmup(self) -> None:
        regularization.regularized_poincare_linear(0.62, OscillatorParams(a=0.01, epsilon=1e-2))

    def run(self, op: dict):
        p = OscillatorParams(a=op["a"], epsilon=op["eps"])
        if op["kind"] == "sliding":
            return regularization.find_regularized_sliding_orbit_linear(op["a"], p)
        xs = self.x_star[op["a"]]
        return regularization.regularized_fixed_point(p, (xs - self.bracket, xs + self.bracket))

    def check(self, op: dict, result) -> list[str]:
        a, eps = op["a"], op["eps"]
        if op["kind"] == "sliding":
            self.orbits.setdefault(op["round"], []).append(
                (eps, result.trajectory.captured_spans(), result.log_contraction))
            fp, problems = result.fixed_point, []
        else:
            xs = self.x_star[a]
            self.errors.setdefault(a, []).append((eps, abs(result - xs)))
            fp, problems = result, oracles.check_fixed_point_error(result, xs, eps)
        if op.get("oracle"):
            problems += oracles.check_return(fp, a, eps)
        return problems

    def finish(self) -> list[str]:
        problems = []
        for errs in self.errors.values():
            problems += oracles.check_errors_fall(errs)
        for orbits in self.orbits.values():
            coarse, fine = sorted(orbits, reverse=True)
            problems += oracles.check_sliding_pair(coarse, fine)
        return problems


# ---------------------------------------------------------------------------


class RegLongRun(Workload):
    """Long nonlinear regularized runs at a = 0.01: capture, the long slide, then v_r.

    Per round: the paper's start (14.1, 1.1) at eps = 2.5e-3, and one seeded
    start in each rising window of [10, 20] (v0 in (1, 1.5]) at both eps values.

    A rising window is where the upper forcing lifts the orbit,
    sin(3 pi x0 / 2) < 0, as at the paper's start.  On a falling phase an orbit
    starting just above the layer returns to it within the first probe step of
    regularization._ext_return, which misses that return and runs the closed
    form through the layer.
    """

    name = "reg-long-run"
    round_seconds = 22.0
    a = 0.01
    eps_values = (2.5e-3, 1e-3)
    rising_windows = range(7, 15)  # x0 = (m + f) 4/3 lies in [10, 20]
    rising_phase = (0.55, 0.9)      # 3 x0 / 2 mod 2 in [1.1, 1.8]
    paper_start = (14.1, 1.1, 2.5e-3)
    confined_grid = 400

    def __init__(self, seed: int, rounds: int):
        super().__init__(seed, rounds)
        x0p, v0p, epsp = self.paper_start
        for r in range(rounds):
            self.ops.append({"kind": "paper", "x0": x0p, "v0": v0p, "eps": epsp, "round": r})
            for m in self.rising_windows:
                x0 = (m + float(self.rng.uniform(*self.rising_phase))) * 4.0 / 3.0
                v0 = 1.5 - float(self.rng.uniform(0.0, 0.5))
                for eps in self.eps_values:
                    self.ops.append({"kind": "seeded", "x0": x0, "v0": v0, "eps": eps,
                                     "round": r})
        seeded = [i for i, op in enumerate(self.ops) if op["kind"] == "seeded"]
        self.ops[0]["oracle"] = True
        self.ops[int(self.rng.choice(seeded))]["oracle"] = True

    @staticmethod
    def x_end(x0: float) -> float:
        # the slide from an entry near x0 ends near 3 x0; 20 more units approach v_r
        return 3.0 * x0 + 20.0

    @staticmethod
    def windows(x0: float, x_end: float) -> tuple[int, int]:
        """The 4-windows [x_n, x_n + 4] (x_n ~ 4n) whose comparison span lies in the run."""
        return math.floor(x0 / 4.0) + 1, math.floor((x_end - 8.01) / 4.0)

    def warmup(self) -> None:
        p = OscillatorParams(a=self.a, epsilon=self.eps_values[0])
        regularization.simulate_regularized(NONLINEAR, p, 14.1, 1.1, 20.0)

    def run(self, op: dict):
        p = OscillatorParams(a=self.a, epsilon=op["eps"])
        x_end = self.x_end(op["x0"])
        traj = regularization.simulate_regularized(NONLINEAR, p, op["x0"], op["v0"], x_end)
        return traj, regularization.convergence_to_vr(traj, *self.windows(op["x0"], x_end))

    def check(self, op: dict, result) -> list[str]:
        traj, rows = result
        entries = [e.x for e in traj.events if e.kind == "layer-entry"]
        if not entries:
            return ["no layer entry"]
        grid = np.linspace(entries[0] + 1e-6, traj.x_end - 1e-6, self.confined_grid)
        problems = (oracles.check_v_confined(traj.eval(grid))
                    + oracles.check_distances([r["sup_distance"] for r in rows]))
        if op["kind"] == "paper":
            problems += oracles.check_paper_run(*oracles.slide_branch(traj))
        if op.get("oracle"):
            xq = [op["x0"] + 0.5, entries[0] + 1.0, entries[0] + 10.0]
            v_ref = oracles.reg_nonlinear_v(op["x0"], op["v0"], self.a, op["eps"], xq)
            problems += oracles.check_v_oracle(traj.eval(xq), v_ref, xq)
        return problems


WORKLOADS = {w.name: w for w in (DiscSweep, RegReturnMap, RegLongRun)}
