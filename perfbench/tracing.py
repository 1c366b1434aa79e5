"""Spans around the calls into each pdwg layer, installed from outside.

pdwg modules bind names with `from ... import`, so a caller looks a function
up in its own module.  `installed` therefore replaces every binding of a
traced function in every loaded pdwg module, and the traced methods on
their classes, with a wrapper that records a span; `scipy.sparse.linalg.splu`
is replaced by a proxy that times the factorization, reads the LU fill and
times each `lu.solve`.  Wrappers return what the wrapped call returns and
re-raise what it raises, so the program computes the same results.  Every
original is put back when the `installed` block ends.

Spans stay in memory (name, start, end, parent) and are written out when the
run ends.  A layer's self time is the time of its spans minus the part their
child spans cover.
"""

from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter
from dataclasses import asdict, dataclass

import scipy.sparse.linalg as spla

# (span name, module, function); the span name is the layer metric's prefix.
TRACED_FUNCTIONS = [
    ("cli", "pdwg.cli", "main"),
    ("harness", "pdwg.harness", "solve_single"),
    ("harness", "pdwg.harness", "run_convergence"),
    ("harness", "pdwg.harness", "run_noise_study"),
    ("harness", "pdwg.harness", "run_benchmark_tables"),
    ("harness.csv", "pdwg.harness", "render_markdown"),
    ("verify", "pdwg.verify", "run_standard_checks"),
    ("mesh.build", "pdwg.mesh", "build_uniform_unit_square"),
    ("mesh.tag", "pdwg.mesh", "classify_boundary"),
    ("assembly.system", "pdwg.assembly", "build_saddle_system"),
    ("assembly.stabilizer", "pdwg.assembly", "assemble_stabilizer"),
    ("assembly.constraint", "pdwg.assembly", "assemble_constraint"),
    ("assembly.bc", "pdwg.assembly", "apply_boundary_conditions"),
    ("linsolve.solve", "pdwg.linsolve", "factor_and_solve"),
    ("linsolve.solve", "pdwg.linsolve", "solve_sparse"),
    ("norms.project", "pdwg.norms", "project_exact"),
    ("norms.error", "pdwg.norms", "error_norms"),
    ("norms.error", "pdwg.norms", "build_error_field"),
    ("norms.error", "pdwg.norms", "norms_of_error"),
    ("polyspace.edge_projection", "pdwg.polyspace", "project_edge_samples"),
    ("weak_laplacian", "pdwg.weak_laplacian", "projected_weak_function"),
    ("weak_laplacian", "pdwg.weak_laplacian", "discrete_weak_laplacian"),
    ("problems.perturb", "pdwg.problems", "perturb"),
]
TRACED_METHODS = [
    ("harness.csv", "pdwg.harness", "FieldSnapshot", "nodes_csv"),
    ("harness.csv", "pdwg.harness", "FieldSnapshot", "elements_csv"),
    ("harness.csv", "pdwg.harness", "ConvergenceTable", "to_csv"),
    ("harness.csv", "pdwg.harness", "NoiseStudy", "summary_csv"),
]

# Self time of each span name, and span counts, as per-layer metrics.
SELF_TIME_METRICS = {
    "mesh.build": "mesh.build_s",
    "mesh.tag": "mesh.tag_s",
    "assembly.stabilizer": "assembly.stabilizer_s",
    "assembly.constraint": "assembly.constraint_s",
    "assembly.bc": "assembly.bc_s",
    "assembly.system": "assembly.system_s",
    "linsolve.factor": "linsolve.factor_s",
    "linsolve.trisolve": "linsolve.trisolve_s",
    "linsolve.solve": "linsolve.solve_s",
    "norms.project": "norms.project_s",
    "norms.error": "norms.error_s",
    "polyspace.edge_projection": "polyspace.edge_projection_s",
    "weak_laplacian": "weak_laplacian.s",
    "verify": "verify.self_s",
    "problems.perturb": "problems.perturb_s",
    "harness": "harness.self_s",
    "harness.csv": "harness.csv_s",
    "cli": "cli.self_s",
}
SPAN_COUNT_METRICS = {
    "mesh.build": "mesh.builds",
    "assembly.system": "assembly.systems",
    "linsolve.factor": "linsolve.factorizations",
    "linsolve.trisolve": "linsolve.trisolves",
    "polyspace.edge_projection": "polyspace.edge_projections",
    "weak_laplacian": "weak_laplacian.calls",
    "problems.perturb": "problems.perturb_calls",
}
# Counts recorded by the wrappers themselves.
HOOK_COUNT_METRICS = ("assembly.unknowns", "assembly.nnz", "linsolve.lu_nnz",
                      "linsolve.singular")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 for a root


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx].end = time.perf_counter()
        self._stack.pop()

    def wrap(self, name, fn, on_result=None, on_error=None):
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(exc)
                raise
            finally:
                self._close(idx)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def self_times(self) -> Counter:
        """Self time per span name."""
        child = [0.0] * len(self.spans)
        for s in self.spans:
            if s.parent >= 0:
                child[s.parent] += s.end - s.start
        out = Counter()
        for s, covered in zip(self.spans, child):
            out[s.name] += (s.end - s.start) - covered
        return out

    def span_counts(self) -> Counter:
        return Counter(s.name for s in self.spans)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(asdict(s)) + "\n")


class _TracedLU:
    """Delegates to a SuperLU object, recording a span for each solve."""

    def __init__(self, lu, tracer: Tracer):
        self._lu = lu
        self.solve = tracer.wrap("linsolve.trisolve", lu.solve)

    def __getattr__(self, name):
        return getattr(self._lu, name)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Trace every call into the pdwg layers while the block runs."""
    import pdwg.cli  # noqa: F401  (load every module whose names get replaced)
    import pdwg.verify  # noqa: F401  (imported lazily by the CLI)
    from pdwg.linsolve import SingularSystem

    def count_system(system):
        tracer.counts["assembly.unknowns"] += system.M.shape[0]
        tracer.counts["assembly.nnz"] += system.M.nnz

    def count_singular(exc):
        if isinstance(exc, SingularSystem):
            tracer.counts["linsolve.singular"] += 1

    def traced_splu(*args, **kwargs):
        lu = factor(*args, **kwargs)
        tracer.counts["linsolve.lu_nnz"] += lu.nnz
        return _TracedLU(lu, tracer)

    factor = tracer.wrap("linsolve.factor", spla.splu)
    hooks = {
        "build_saddle_system": {"on_result": count_system},
        "solve_sparse": {"on_error": count_singular},
    }
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "pdwg" or name.startswith("pdwg."))]
    undo = []

    def replace(owner, name, new):
        undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, new)

    try:
        for span, module, attr in TRACED_FUNCTIONS:
            original = getattr(sys.modules[module], attr)
            wrapped = tracer.wrap(span, original, **hooks.get(attr, {}))
            for m in modules:
                for key in [k for k, v in vars(m).items() if v is original]:
                    replace(m, key, wrapped)
        for span, module, cls_name, attr in TRACED_METHODS:
            cls = getattr(sys.modules[module], cls_name)
            replace(cls, attr, tracer.wrap(span, cls.__dict__[attr]))
        replace(spla, "splu", traced_splu)
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)
