"""In-memory spans around the public callables of each csepsolve layer.

``Tracer.install`` replaces each callable listed by ``targets`` with a
wrapper that records one span per call: name, start, end, parent span and
solve id, plus optional counts taken from the call.  ``Tracer.restore``
puts every original back.  Callables are wrapped where their callers look
them up: a module attribute that another module imported by name (such as
``solve_prox`` inside ``hybrid``) is wrapped in that importing module.
"""

from __future__ import annotations

import time
from collections import defaultdict


def _live_cuts(args, kwargs, result):
    return (sum(not c.is_whole_space for c in args[0]),)


def _projector_count(args, kwargs, result):
    return (len(args[0]),)


def _prox_counts(args, kwargs, result):
    return (result.inner_iterations, int(not result.converged))


def _linesearch_trials(args, kwargs, result):
    return (result[0],)


def targets(harness, hybrid, baselines, geometry, problems, outcome):
    """(owner, attribute, span name, counts) for every wrapped callable.

    ``counts`` maps (args, kwargs, result) of a call to a tuple of numbers
    summed per span name.  A callable listed twice is wrapped twice; the
    later entry becomes the outer span.
    """
    return [
        (hybrid, "run_parallel_hybrid", "hybrid.solver", None),
        (hybrid, "run_maxsel_hybrid", "hybrid.solver", None),
        (hybrid, "run_single", "hybrid.solver", None),
        (hybrid, "run_sequential", "hybrid.solver", None),
        (baselines, "run_hybrid_extragradient", "baselines.solver", None),
        (baselines, "run_armijo_hybrid", "baselines.solver", None),
        (hybrid, "solve_prox", "prox.solve", _prox_counts),
        (baselines, "solve_prox", "prox.solve", _prox_counts),
        (hybrid, "build_c_cut", "hybrid.build_cut", None),
        (hybrid, "build_q_cut", "hybrid.build_cut", None),
        (baselines, "build_c_cut", "hybrid.build_cut", None),
        (baselines, "build_q_cut", "hybrid.build_cut", None),
        (hybrid, "project_halfspace", "hybrid.check", None),
        (baselines, "project_halfspace", "hybrid.check", None),
        (geometry.HalfspaceCut, "violation", "hybrid.check", None),
        (geometry.HalfspaceCut, "__init__", "geometry.cut_new", None),
        (hybrid, "project_halfspace_intersection", "geometry.anchor_project", _live_cuts),
        (baselines, "project_halfspace_intersection", "geometry.anchor_project", _live_cuts),
        (baselines, "dykstra", "geometry.dykstra", None),
        (baselines, "dykstra", "geometry.anchor_project", _projector_count),
        (geometry, "dykstra_halfspaces", "geometry.dykstra", None),
        (geometry, "project_two_halfspaces", "geometry.two_halfspace", None),
        (geometry.Box, "project", "geometry.set_project", None),
        (geometry.Ball, "project", "geometry.set_project", None),
        (geometry.WholeSpace, "project", "geometry.set_project", None),
        (geometry.Polyhedron, "project", "geometry.set_project", None),
        (baselines, "armijo_linesearch", "baselines.linesearch", _linesearch_trials),
        (problems, "spectral_norm_estimate", "problems.spectral_norm", None),
        (harness, "load_problem", "harness.load_problem", None),
        (harness, "reference_solution", "harness.reference_solution", None),
        (harness, "derive_default_params", "harness.derive_params", None),
        (harness, "extragradient_default_lam", "harness.derive_params", None),
        (harness, "summarize", "harness.summarize", None),
        (outcome, "write_trace", "outcome.write_trace", None),
    ]


class Tracer:
    """Records spans as lists [name, start, end, parent, solve_id, counts]."""

    def __init__(self):
        self.spans: list[list] = []
        self.solve_id = -1
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name, fn, count):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.solve_id, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[5] = count(args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, entries) -> None:
        for owner, attr, name, count in entries:
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, count))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def layer_totals(self):
        """Per span name: calls, inclusive seconds, self seconds, summed counts.

        Summed counts are lists, one entry per element of the counts tuple.
        Calls nested in a span of the same name count once, in the outer
        span.  Self time is a span's duration minus its direct children's.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        calls = defaultdict(int)
        incl = defaultdict(float)
        self_s = defaultdict(float)
        counts: dict[str, list] = {}
        for i, rec in enumerate(spans):
            name, start, end, parent = rec[0], rec[1], rec[2], rec[3]
            self_s[name] += (end - start) - child[i]
            if parent >= 0 and spans[parent][0] == name:
                continue
            calls[name] += 1
            incl[name] += end - start
            if rec[5] is not None:
                acc = counts.setdefault(name, [0] * len(rec[5]))
                for j, v in enumerate(rec[5]):
                    acc[j] += v
        return calls, incl, self_s, counts

    def write(self, path: str) -> None:
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start_us,end_us,parent,solve_id,count\n")
            for i, (name, start, end, parent, solve_id, count) in enumerate(self.spans):
                fh.write(
                    f"{i},{name},{(start - t0) * 1e6:.3f},{(end - t0) * 1e6:.3f},"
                    f"{parent},{solve_id},{'' if count is None else ';'.join(map(str, count))}\n"
                )
