"""In-memory span tracing of weakkam, installed from outside the package.

Modules bind the names they import when they are imported, so a function
is wrapped at each binding the benchmark's call paths go through, not only
where it is defined. Every wrapper records a span (name, start, end,
parent) plus a few counts read from its arguments and result; spans stay
in memory and are dumped when the benchmark ends. Nothing under ``src/``
is edited: ``install`` patches module attributes and ``uninstall`` puts the
originals back, so untraced passes run the unwrapped functions.
"""
from __future__ import annotations

import contextlib
import functools
import math
import time

import weakkam.action
import weakkam.experiments
import weakkam.flow
import weakkam.systems
import weakkam.tropical
import weakkam.weak_kam
from weakkam.action import MinimizationSettings, winding_candidates

ZERO = "action.minimize_straight_batch.zero_winding"
OTHER = "action.minimize_straight_batch.other_windings"
ESCAPE = "action.minimize_straight_batch.saddle_escape"


class Tracer:
    """Span recorder. A span is ``[name, start, end, parent, counts]``;
    ``parent`` indexes ``spans`` (-1 for a root)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._patches = []
        # the first tropical-bound minimize_straight_batch call of each row
        # chunk is the zero winding: the chunk starts after assemble_kernel
        # is entered or after the previous chunk's exact_row_actions
        self._zero_next = False

    # -- spans -----------------------------------------------------------

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        self._stack.append(idx)
        return idx

    def close(self, idx: int, counts: dict | None = None):
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = counts or {}
        self._stack.pop()

    @contextlib.contextmanager
    def root(self, name: str):
        """A top-level span, such as one timed pass."""
        idx = self.open(name)
        try:
            yield idx
        finally:
            self.close(idx)

    def dump(self) -> list:
        return [{"name": n, "start": s, "end": e, "parent": p, "counts": c}
                for n, s, e, p, c in self.spans]

    # -- wrapping --------------------------------------------------------

    def _wrap(self, owner, attr, name, counts=None, before=None, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``name`` is a span name or a function of (args, kwargs) giving one;
        ``counts(args, kwargs, result)`` returns the span's counts;
        ``before()`` and ``after()`` keep call-order state.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if before is not None:
                before()
            label = name if isinstance(name, str) else name(args, kwargs)
            idx = tracer.open(label)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                tracer.close(idx, None if result is None or counts is None
                             else counts(args, kwargs, result))
                if after is not None:
                    after()

        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        sysmod = weakkam.systems
        act = weakkam.action
        trop = weakkam.tropical
        wk = weakkam.weak_kam
        exp = weakkam.experiments
        flow = weakkam.flow

        def points(args, kwargs, result):
            return {"points": int(getattr(args[1], "size", 1))}

        self._wrap(sysmod.LagrangianSystem, "lagrangian_and_grads",
                   "systems.lagrangian_and_grads", points)
        self._wrap(sysmod.LagrangianSystem, "lagrangian", "systems.lagrangian", points)

        def batch(args, kwargs, result):
            return {"rows": int(args[4].shape[0]), "iterations": int(result[4])}

        def chunk_phase(args, kwargs):
            if self._zero_next:
                self._zero_next = False
                return ZERO
            return OTHER

        def escape_phase(args, kwargs):
            return ESCAPE if kwargs.get("_escape", True) is False \
                else "action.minimize_straight_batch"

        def chunk_done():
            self._zero_next = True

        self._wrap(trop, "minimize_straight_batch", chunk_phase, batch)
        self._wrap(act, "minimize_straight_batch", escape_phase, batch)
        self._wrap(trop, "exact_row_actions", "action.exact_row_actions",
                   lambda a, k, r: {"rows": int(a[3].shape[0])}, after=chunk_done)

        def segments(args, kwargs, result):
            return {"segments": int(result[1].n_segments)}

        self._wrap(exp, "minimal_action", "action.minimal_action", segments)

        def kernel_counts(args, kwargs, result):
            n = result.grid.n
            settings = args[4] if len(args) > 4 else kwargs.get("settings")
            windings = winding_candidates(result.delta,
                                          settings or MinimizationSettings())
            return {"entries": n * n, "candidate_rows": (len(windings) - 1) * n * n}

        self._wrap(trop, "assemble_kernel", "tropical.assemble_kernel",
                   kernel_counts, before=chunk_done)

        def matmul_counts(args, kwargs, result):
            (m, k), n = getattr(args[0], "matrix", args[0]).shape, result.shape[1]
            # min-plus multiply-adds, and operand plus result bytes computed
            # from array sizes (cache misses and temporaries not included)
            return {"ops_computed": m * k * n,
                    "bytes_computed": 8 * (m * k + k * n + m * n)}

        self._wrap(wk, "minplus_matmul", "tropical.minplus_matmul", matmul_counts)
        self._wrap(exp, "minplus_apply", "tropical.minplus_apply")
        self._wrap(trop, "karp_eigenvalue", "tropical.karp_eigenvalue")
        self._wrap(exp, "karp_eigenvalue", "tropical.karp_eigenvalue")

        def barrier_counts(args, kwargs, result):
            return {"powers": int(result.horizon), "defect_max": float(result.defect),
                    "unstabilized": int(not result.stabilized)}

        self._wrap(wk, "peierls_barrier", "weak_kam.peierls_barrier", barrier_counts)
        self._wrap(exp, "peierls_barrier", "weak_kam.peierls_barrier", barrier_counts)
        self._wrap(wk, "aubry_set", "weak_kam.aubry_set")
        self._wrap(wk, "connection_graph", "weak_kam.connection_graph")

        def kstar(args, kwargs, result):
            return {"kstar": -1 if result.kstar is None else int(result.kstar)}

        self._wrap(exp, "run_convergence", "experiments.run_convergence", kstar)
        self._wrap(exp, "dwell_statistics", "experiments.dwell_statistics")
        self._wrap(flow, "refine_periodic_orbit", "flow.refine_periodic_orbit")
        self._wrap(flow, "monodromy", "flow.monodromy")
        self._wrap(exp, "flow_trajectory", "flow.flow_trajectory")

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


def self_times(spans: list) -> list:
    """Self time of each span: its duration minus its children's."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - child[i] for i, (_, start, end, _, _) in enumerate(spans)]


def subtree(spans: list, root: int) -> list:
    """Indices of ``root`` and all its descendants (spans are stored in
    opening order, so a descendant always follows its ancestor)."""
    inside = {root}
    out = [root]
    for i in range(root + 1, len(spans)):
        if spans[i][3] in inside:
            inside.add(i)
            out.append(i)
    return out


def layer_totals(spans: list, roots: list) -> dict:
    """Per span name: calls, self seconds, inclusive seconds and summed
    counts over the subtrees of ``roots``. ``defect_max`` and ``kstar``
    are maxima, every other count is a sum."""
    selfs = self_times(spans)
    totals = {}
    for root in roots:
        for i in subtree(spans, root):
            name, start, end, _, counts = spans[i]
            row = totals.setdefault(name, {"calls": 0, "self_s": 0.0, "incl_s": 0.0})
            row["calls"] += 1
            row["self_s"] += selfs[i]
            row["incl_s"] += end - start
            for key, value in counts.items():
                if key in ("defect_max", "kstar"):
                    row[key] = max(row.get(key, -math.inf), value)
                else:
                    row[key] = row.get(key, 0) + value
    return totals
