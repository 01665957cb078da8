"""Outside-in tracing: time calls into each layer's public functions.

The traced pass attributes a request's wall time to layers without
touching the program: each row of :data:`HOOKS` names a function *where it
is imported* (``repro.mf.numeric.assemble_front``, not its defining
module), and :meth:`Tracer.hooks` rebinds that name to a wrapper that
records a span — layer metric, start, end, span id, parent span id,
request id — for the duration of one request, then restores it.

A hook whose target no longer exists is *missing*: its metric reads as
``None`` and ``trace.missing_hooks`` counts it. It never raises, so a
later refactor that renames internals cannot break the gate that judges
it. Replacing these hooks with request-scoped ``repro.obs`` spans is a
ROADMAP item of its own.
"""

from __future__ import annotations

import importlib
import itertools
import json
import os
import threading
import time
from contextlib import contextmanager

#: (module, attribute path inside it, layer metric the time is booked to).
#: Several hooks may feed one metric. Order is irrelevant.
HOOKS: tuple[tuple[str, str, str], ...] = (
    # graph + ordering: the cold path
    ("repro.graph.structure", "AdjacencyGraph.from_symmetric_lower", "graph.from_lower_s"),
    ("repro.ordering.registry", "ORDERINGS[nd]", "ordering.nd_s"),
    ("repro.ordering.nested_dissection", "bisect", "graph.bisect_s"),
    ("repro.ordering.nested_dissection", "vertex_separator_from_bisection", "graph.separator_s"),
    ("repro.graph.structure", "AdjacencyGraph.subgraph", "graph.subgraph_s"),
    ("repro.ordering.nested_dissection", "amd_order", "ordering.amd_s"),
    # symbolic
    ("repro.core.solver", "analyze", "symbolic.analyze_s"),
    ("repro.symbolic.analyze", "etree", "symbolic.etree_s"),
    ("repro.symbolic.analyze", "postorder", "symbolic.postorder_s"),
    ("repro.symbolic.analyze", "symbolic_cholesky", "symbolic.symbolic_chol_s"),
    ("repro.symbolic.analyze", "fundamental_supernodes", "symbolic.supernodes_s"),
    ("repro.symbolic.analyze", "amalgamate", "symbolic.supernodes_s"),
    ("repro.symbolic.analyze", "supernode_rows", "symbolic.supernodes_s"),
    ("repro.symbolic.analyze", "supernode_parents", "symbolic.supernodes_s"),
    ("repro.symbolic.analyze", "permute_symmetric_lower", "sparse.permute_s"),
    ("repro.sparse.permute", "permute_symmetric_lower", "sparse.permute_s"),
    # numeric factorization: the warm path
    ("repro.core.solver", "SparseSolver.update_values", "core.update_values_s"),
    ("repro.core.solver", "multifrontal_factor", "mf.numeric.factor_s"),
    ("repro.mf.numeric", "assemble_front", "mf.frontal.assemble_s"),
    ("repro.mf.numeric", "extend_add", "mf.extend_add.extend_add_s"),
    ("repro.mf.numeric", "partial_cholesky", "dense.partial_factor_s"),
    # triangular sweeps + refinement
    ("repro.core.solver", "mf_solve_many", "mf.solve_phase.solve_s"),
    ("repro.mf.solve_phase", "forward_sweep", "mf.solve_phase.forward_s"),
    ("repro.mf.solve_phase", "backward_sweep", "mf.solve_phase.backward_s"),
    ("repro.mf.solve_phase", "permute_vector", "mf.solve_phase.permute_s"),
    ("repro.mf.solve_phase", "unpermute_vector", "mf.solve_phase.permute_s"),
    ("repro.core.solver", "iterative_refinement_many", "mf.refine.refine_s"),
    ("repro.mf.refine", "sym_matvec_lower_many", "mf.refine.matvec_s"),
    # serving layer intake
    ("repro.service.queue", "pattern_fingerprint", "service.fingerprint_s"),
    ("repro.service.queue", "values_digest", "service.fingerprint_s"),
    ("repro.service.queue", "as_symmetric_lower", "service.fingerprint_s"),
    # simulated machine
    ("repro.parallel.driver", "FactorPlan", "parallel.plan_s"),
    ("repro.core.solver", "simulate_factorization", "parallel.factor_sim_s"),
    ("repro.core.solver", "simulate_solve", "parallel.solve_sim_s"),
)

#: every metric a hook feeds, in table order
HOOK_METRICS: tuple[str, ...] = tuple(dict.fromkeys(m for _, _, m in HOOKS))


def _resolve(module: str, path: str):
    """``(owner, key, is_item)`` of a hook target, or raise if it is gone.

    *path* is a dotted attribute path; a last segment ``NAME[key]`` means
    item *key* of the mapping ``NAME`` (how the ordering registry holds
    the function the solver actually calls).
    """
    owner = importlib.import_module(module)
    *parents, last = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    if last.endswith("]"):
        mapping_name, key = last[:-1].split("[")
        owner = getattr(owner, mapping_name)
        owner[key]  # KeyError when gone
        return owner, key, True
    vars(owner)[last]  # KeyError when gone (inherited names do not count)
    return owner, last, False


class Tracer:
    """Installs the hook table around single requests and keeps the spans."""

    def __init__(self) -> None:
        #: finished spans: (metric, start, end, span id, parent id, request id)
        self.spans: list[tuple[str, float, float, int, int, int]] = []
        #: metrics whose hook target could not be found
        self.missing: set[str] = set()
        self.missing_hooks = 0
        self._request = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._targets = []
        for module, path, metric in HOOKS:
            try:
                owner, key, is_item = _resolve(module, path)
            except (ImportError, AttributeError, KeyError, TypeError):
                self.missing.add(metric)
                self.missing_hooks += 1
                continue
            self._targets.append((owner, key, is_item, metric))

    def _wrap(self, fn, metric: str):
        spans, local, ids, clock = self.spans, self._local, self._ids, time.perf_counter

        def hooked(*args, **kwargs):
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            sid = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(sid)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans.append((metric, t0, t1, sid, parent, self._request))

        return hooked

    @contextmanager
    def hooks(self, request_id: int):
        """Rebind every hook target for one request, then restore them."""
        self._request = request_id
        saved = []
        try:
            for owner, key, is_item, metric in self._targets:
                if is_item:
                    raw = owner[key]
                    saved.append((owner, key, True, raw))
                    owner[key] = self._wrap(raw, metric)
                    continue
                raw = vars(owner)[key]
                saved.append((owner, key, False, raw))
                if isinstance(raw, (classmethod, staticmethod)):
                    # call the bound form; keep instances from re-binding it
                    new = staticmethod(self._wrap(getattr(owner, key), metric))
                else:
                    new = self._wrap(raw, metric)
                setattr(owner, key, new)
            yield
        finally:
            for owner, key, is_item, raw in saved:
                if is_item:
                    owner[key] = raw
                else:
                    setattr(owner, key, raw)

    def write(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        rows = [
            {"name": m, "start": t0, "end": t1, "id": sid, "parent": par, "request": req}
            for m, t0, t1, sid, par, req in self.spans
        ]
        with open(path, "w") as fh:
            json.dump({"spans": rows, "missing": sorted(self.missing)}, fh)


def layer_totals(spans, scale_of_request) -> tuple[dict, dict, dict]:
    """Fold spans into per-metric totals.

    Returns ``(inclusive, self_time, calls)``, each keyed by
    ``(metric, request id)``. Times are multiplied by
    ``scale_of_request[request id]`` (raw → calibrated seconds). A span's
    self time is its duration minus its direct children's durations.
    """
    child_time: dict[int, float] = {}
    for _, t0, t1, _, parent, _ in spans:
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + (t1 - t0)
    inclusive: dict = {}
    self_time: dict = {}
    calls: dict = {}
    for metric, t0, t1, sid, _, req in spans:
        k = (metric, req)
        s = scale_of_request[req]
        dur = t1 - t0
        inclusive[k] = inclusive.get(k, 0.0) + dur * s
        self_time[k] = self_time.get(k, 0.0) + (dur - child_time.get(sid, 0.0)) * s
        calls[k] = calls.get(k, 0) + 1
    return inclusive, self_time, calls
