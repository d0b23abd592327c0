"""Per-layer tracing: wrappers patched where each calling module looks a name up.

A wrapper counts calls and keeps inclusive and self time (inclusive minus
the time of wrapped calls made inside it).  Some wrappers also read counts off
the returned object.  Coarse calls are kept as spans (id, parent id, name,
start, end, op index) and written out when the run ends; the hot leaf
functions (h, the closed-form flow, the forcing, branch selection) are only
aggregated, because a span per call would hold millions of records.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict

from switchosc import analytic_flow, poincare, regularization, sliding


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, total s, self s
        self.counts = Counter()
        self.spans: list[tuple] = []
        self.op_index = -1
        self._stack: list[list] = []  # [child seconds, span id] per open call
        self._patched: list[tuple] = []

    # -- wrapping ---------------------------------------------------------

    def wrap(self, name: str, fn, on_return=None, span: bool = True):
        stats, stack, spans = self.stats, self._stack, self.spans
        clock = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1][1] if stack else -1
            sid = len(spans) if span else parent
            frame = [0.0, sid]
            if span:
                spans.append(None)
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - t0
                stack.pop()
                st = stats[name]
                st[0] += 1
                st[1] += elapsed
                st[2] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if span:
                    spans[sid] = (sid, parent, name, t0, t0 + elapsed, self.op_index)
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, on_return=None, span: bool = True):
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, on_return, span))

    def install(self) -> "Tracer":
        c = self.counts

        def crossing(res):
            c["crossings"] += 1
            # brentq leaves its count unset when handed an exact zero as a
            # bracket end (the zero-length arc fault): skip such garbage
            if 0 <= res.iterations <= 100:
                c["root_iters"] += res.iterations

        def hybrid(traj):
            c["samples"] += sum(len(seg.xs) for seg in traj.segments)
            for ev in traj.events:
                c["event:" + ev.kind] += 1

        def ode(sol):
            c["steps"] += len(sol.t) - 1
            c["nfev"] += sol.nfev
            c["njev"] += sol.njev
            c["nlu"] += sol.nlu

        def regular(traj):
            threshold = regularization.capture_threshold(traj.params.epsilon)
            for x0, x1 in traj.layer_spans():
                c["captures" if x1 - x0 > threshold else "transits"] += 1
            c["segments"] += len(traj.segments)

        def evaluated(values):
            c["eval_points"] += len(values)

        self.patch(poincare, "h", "h.poincare", span=False)
        self.patch(analytic_flow, "h", "h.flow", span=False)
        for owner, attr in ((sliding, "flow_from"), (sliding, "flow_solution"),
                            (regularization, "flow_from")):
            self.patch(owner, attr, "flow", span=False)
        for owner in (poincare, sliding):
            self.patch(owner, "next_crossing", "next_crossing", crossing)
        self.patch(poincare, "composite_map", "composite_map")
        self.patch(poincare, "find_nonsliding_period4", "find_nonsliding_period4")
        self.patch(sliding, "simulate_discontinuous", "simulate_discontinuous", hybrid)
        self.patch(sliding, "select_branch_on_entry", "select_branch", span=False)
        self.patch(sliding, "check_no_nonsliding_periodic_nonlinear", "margins")
        self.patch(regularization, "solve_ivp", "solve_ivp", ode)
        for attr in ("forcing", "forcing_dlam"):
            self.patch(regularization, attr, "forcing", span=False)
        self.patch(regularization, "regularized_poincare_linear", "pmap")
        self.patch(regularization, "regularized_fixed_point", "fixed_point")
        self.patch(regularization, "find_regularized_sliding_orbit_linear", "sliding_orbit")
        self.patch(regularization, "_ext_return", "ext_return")
        self.patch(regularization, "simulate_regularized", "simulate_regularized", regular)
        self.patch(regularization, "convergence_to_vr", "convergence_to_vr")
        self.patch(regularization.RegTrajectory, "eval", "eval", evaluated)
        return self

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def call_op(self, index: int, fn, *args):
        """Run one benchmark operation as the root span of its calls."""
        self.op_index = index
        return self.wrap("op", fn)(*args)

    # -- results ----------------------------------------------------------

    def calls(self, *names) -> int:
        return sum(self.stats[n][0] for n in names if n in self.stats)

    def self_s(self, *names) -> float:
        return sum(self.stats[n][2] for n in names if n in self.stats)

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        c = self.counts
        crossings = c["crossings"]
        solves = self.calls("fixed_point")
        m = {
            "analytic_flow.h_calls": (self.calls("h.poincare", "h.flow"), "count"),
            "analytic_flow.h_s": (self.self_s("h.poincare", "h.flow"), "s"),
            "analytic_flow.flow_calls": (self.calls("flow"), "count"),
            "analytic_flow.flow_s": (self.self_s("flow"), "s"),
            "poincare.next_crossing_calls": (self.calls("next_crossing"), "count"),
            "poincare.next_crossing_s": (self.self_s("next_crossing"), "s"),
            "poincare.h_per_crossing": (
                self.calls("h.poincare") / crossings if crossings else 0.0, "count"),
            "poincare.root_iters": (c["root_iters"], "count"),
            "poincare.composite_map_calls": (self.calls("composite_map"), "count"),
            "sliding.simulate_s": (self.self_s("simulate_discontinuous"), "s"),
            "sliding.samples": (c["samples"], "count"),
            "sliding.events_cross": (c["event:cross"], "count"),
            "sliding.events_slide": (c["event:slide-entry"], "count"),
            "sliding.events_fold": (c["event:fold"], "count"),
            "sliding.select_branch_calls": (self.calls("select_branch"), "count"),
            "regularization.solve_ivp_calls": (self.calls("solve_ivp"), "count"),
            "regularization.solve_ivp_s": (self.self_s("solve_ivp"), "s"),
            "regularization.steps": (c["steps"], "count"),
            "regularization.nfev": (c["nfev"], "count"),
            "regularization.njev": (c["njev"], "count"),
            "regularization.nlu": (c["nlu"], "count"),
            "regularization.forcing_calls": (self.calls("forcing"), "count"),
            "regularization.forcing_s": (self.self_s("forcing"), "s"),
            "regularization.pmap_calls": (self.calls("pmap"), "count"),
            # inclusive: the whole cost of the P_eps evaluations
            "regularization.pmap_s": (self.stats["pmap"][1] if "pmap" in self.stats else 0.0,
                                      "s"),
            "regularization.pmap_per_solve": (
                self.calls("pmap") / solves if solves else 0.0, "count"),
            "regularization.ext_return_calls": (self.calls("ext_return"), "count"),
            "regularization.ext_return_s": (self.self_s("ext_return"), "s"),
            "regularization.layer_transits": (c["transits"], "count"),
            "regularization.captures": (c["captures"], "count"),
            "regularization.eval_points": (c["eval_points"], "count"),
            "regularization.eval_s": (self.self_s("eval"), "s"),
            "regularization.segments_kept": (c["segments"], "count"),
        }
        return m

    def dump(self) -> dict:
        return {
            "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                      for k, v in sorted(self.stats.items())},
            "counts": dict(sorted(self.counts.items())),
            "span_fields": ["id", "parent", "name", "start", "end", "op"],
            "spans": self.spans,
        }
