"""Spans around the calls into robustsvm's layers, for the traced run.

`Tracer.install` replaces public functions at layer boundaries with timing
wrappers, on the module attribute through which both the benchmark and the
library's own modules call them.  Each call records a span (name, start,
end, parent span, job id) in memory plus the counts named for it; nothing
is written until `write`.  The untraced run never installs the wrappers.
"""
from __future__ import annotations

import json
import time
from collections import defaultdict

SETUP = "setup"

# name -> (unit, better direction), in the order BENCHMARK.json lists them.
# Times and counts are per job unless named setup; README.md defines each.
PER_LAYER = {
    "solver.polish_s": ("s", "lower"),
    "solver.descent_s": ("s", "lower"),
    "solver.iterations": ("count", "lower"),
    "solver.separability_s": ("s", "lower"),
    "reduction.robustify_s": ("s", "lower"),
    "kernel.train_s": ("s", "lower"),
    "kernel.gram_s": ("s", "lower"),
    "kernel.descent_s": ("s", "lower"),
    "kernel.polish_s": ("s", "lower"),
    "kernel.polish_dim": ("count", "lower"),
    "core.from_arrays_s": ("s", "lower"),
    "core.from_arrays_rows": ("count", "lower"),
    "uncertainty.closed_form_s": ("s", "lower"),
    "uncertainty.brute_force_s": ("s", "lower"),
    "probabilistic.calibrate_s": ("s", "lower"),
    "probabilistic.coverage_s": ("s", "lower"),
    "probabilistic.draws": ("count", "lower"),
    "consistency.pairing_s": ("s", "lower"),
    "consistency.brick_s": ("s", "lower"),
    "consistency.bound_s": ("s", "lower"),
    "matching.hopcroft_karp_s": ("s", "lower"),
    "matching.edges": ("count", "lower"),
    "matching.matched": ("count", "higher"),
    "setup.solver.train_s": ("s", "lower"),
    "setup.solver.polish_s": ("s", "lower"),
    "setup.core.from_arrays_s": ("s", "lower"),
    "trace.job_p50_ms": ("ms", "lower"),
    "trace.spans": ("count", "lower"),
}

# Spans whose total time per job gives a metric directly.
_TIMED = {
    "solver.polish": "solver.polish_s",
    "solver.separability": "solver.separability_s",
    "reduction.robustify": "reduction.robustify_s",
    "kernel.train": "kernel.train_s",
    "kernel.gram": "kernel.gram_s",
    "kernel.polish": "kernel.polish_s",
    "core.from_arrays": "core.from_arrays_s",
    "uncertainty.closed_form": "uncertainty.closed_form_s",
    "uncertainty.brute_force": "uncertainty.brute_force_s",
    "probabilistic.calibrate": "probabilistic.calibrate_s",
    "probabilistic.coverage": "probabilistic.coverage_s",
    "consistency.pairing": "consistency.pairing_s",
    "consistency.brick": "consistency.brick_s",
    "consistency.bound": "consistency.bound_s",
    "matching.hopcroft_karp": "matching.hopcroft_karp_s",
}


class Tracer:
    """Spans and counts of one traced run; `job` names the job now running."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, job id]
        self.counts = defaultdict(float)  # (job id, counter) -> total
        self.job = SETUP
        self._stack = []

    def _wrap(self, name, fn, count=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1, self.job]
            self.spans.append(span)
            self._stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    self.counts[(self.job, key)] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self, rs):
        """Wrap the layer boundaries of the imported robustsvm package `rs`."""
        solver, kernel, core = rs.solver, rs.kernel, rs.core
        unc, red, prob, cons = rs.uncertainty, rs.reduction, rs.probabilistic, rs.consistency

        def patch(module, attr, name, count=None):
            setattr(module, attr, self._wrap(name, getattr(module, attr), count))

        patch(solver, "polish_minimizer", "solver.polish")
        patch(solver, "check_separability", "solver.separability")
        patch(solver, "robustify", "reduction.robustify")
        patch(solver, "train_regularized", "solver.train",
              lambda a, k, r: {"solver.iterations": r.iterations_used})
        patch(solver, "train_robust", "solver.train_robust")
        # kernel imported polish_minimizer by name; route it through the
        # solver wrapper so the solver span nests inside the kernel one.
        kernel.polish_minimizer = self._wrap(
            "kernel.polish", solver.polish_minimizer,
            lambda a, k, r: {"kernel.polish_calls": 1, "kernel.polish_dim": a[0].dim})
        patch(kernel, "gram", "kernel.gram")
        patch(kernel, "train_kernel_regularized", "kernel.train")
        from_arrays = core.Dataset.from_arrays.__func__
        core.Dataset.from_arrays = classmethod(self._wrap(
            "core.from_arrays", from_arrays,
            lambda a, k, r: {"core.from_arrays_rows": len(r)}))
        for attr in ("worst_case_loss_upper", "worst_case_loss_lower"):
            patch(unc, attr, "uncertainty.closed_form")
        patch(red, "box_robust_objective", "uncertainty.closed_form")
        patch(unc, "brute_force_worst_case", "uncertainty.brute_force")
        patch(prob, "calibrate_chance", "probabilistic.calibrate",
              lambda a, k, r: {"probabilistic.draws": a[2]})
        patch(prob, "chance_bound_check", "probabilistic.coverage",
              lambda a, k, r: {"probabilistic.draws": a[4]})
        patch(cons, "max_pairings_exact", "consistency.pairing")
        patch(cons, "brick_pairing_lower_bound", "consistency.brick")
        patch(cons, "generalization_bound", "consistency.bound")
        patch(cons, "hopcroft_karp", "matching.hopcroft_karp",
              lambda a, k, r: {"matching.edges": sum(len(v) for v in a[2]),
                               "matching.matched": r[0]})

    def _totals(self, job_ids):
        """Per-name total span time over the given jobs, plus for each name
        the time of its direct children by child name."""
        total = defaultdict(float)
        child = defaultdict(float)
        for name, start, end, parent, job in self.spans:
            if job not in job_ids:
                continue
            total[name] += end - start
            if parent >= 0:
                child[(self.spans[parent][0], name)] += end - start
        return total, child

    def metrics(self, jobs: int, traced_p50_ms: float) -> dict:
        job_ids = set(range(jobs))
        total, child = self._totals(job_ids)
        out = {}
        for span, metric in _TIMED.items():
            out[metric] = total[span] / jobs
        out["solver.descent_s"] = (
            total["solver.train"]
            - child[("solver.train", "solver.polish")]
            - child[("solver.train", "solver.separability")]
        ) / jobs
        out["kernel.descent_s"] = (
            total["kernel.train"]
            - child[("kernel.train", "kernel.gram")]
            - child[("kernel.train", "kernel.polish")]
        ) / jobs

        def per_job(key):
            return sum(v for (job, k), v in self.counts.items() if k == key and job in job_ids)

        for key in ("solver.iterations", "core.from_arrays_rows", "probabilistic.draws",
                    "matching.edges", "matching.matched"):
            out[key] = per_job(key) / jobs
        calls = per_job("kernel.polish_calls")
        out["kernel.polish_dim"] = per_job("kernel.polish_dim") / calls if calls else 0.0
        setup, _ = self._totals({SETUP})
        out["setup.solver.train_s"] = setup["solver.train"]
        out["setup.solver.polish_s"] = setup["solver.polish"]
        out["setup.core.from_arrays_s"] = setup["core.from_arrays"]
        out["trace.job_p50_ms"] = traced_p50_ms
        out["trace.spans"] = sum(1 for s in self.spans if s[4] in job_ids) / jobs
        return {name: {"value": out[name], "unit": unit} for name, (unit, _) in PER_LAYER.items()}

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")
