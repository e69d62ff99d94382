"""Peierls barrier, Aubry set, the semigroup limit, and the connection
graph between Aubry classes.

The barrier is realized as the entrywise running minimum over the tail of
the tropical powers of the c-shifted unit kernel. By max-plus cyclicity
these powers become exactly periodic after finitely many steps (a
tropical turnpike): for the built-in mechanical systems P^m == P^(m-p)
bit for bit after three or four powers. The product is deterministic, so
from the first such match on every later power repeats an earlier one,
and the barrier stops multiplying there and reads the tail at the
requested horizon by index. Its values and defect are bit-identical to
running all the products; the defect quantifies trust.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .action import MinimizationSettings
from .errors import ConfigurationError, EmptyAubrySetError
from .systems import LagrangianSystem
from .tropical import (Grid, TropicalKernel, assemble_kernel, minplus_apply,
                       minplus_matmul)

STABILIZATION_TOL = 1e-8
# the Aubry tolerance is this multiple of the measured free-kernel error
AUBRY_TOLERANCE_FACTOR = 10.0


@dataclass(frozen=True)
class BarrierMatrix:
    """h[i][j] approximates the barrier from (x_i, [s_frac]) to (x_j, [t_frac])."""

    grid: Grid
    s_frac: float
    t_frac: float
    values: np.ndarray
    horizon: int
    defect: float
    stabilized: bool
    c: float
    # first power m with P^m == P^(m - period), or None if the horizon
    # was reached before the powers repeated
    turnpike: int | None
    period: int | None


@dataclass(frozen=True)
class AubrySet:
    grid: Grid
    tol: float
    indices: np.ndarray
    clusters: list
    representatives: list

    @property
    def points(self) -> np.ndarray:
        return np.asarray(self.representatives) / self.grid.n


@dataclass(frozen=True)
class ConnectionGraph:
    """Directed segments between Aubry representatives, relative to a target.

    An edge (j, k) means the barrier from vertex k to the target decomposes
    through vertex j within tolerance; a root receives no edge. Cycles are
    reported, never asserted away.
    """

    vertices: list
    positions: np.ndarray
    target_index: int
    tol: float
    edges: list
    roots: list
    cycles: list


BARRIER_TAIL_WINDOW = 4


def peierls_barrier(sys, grid: Grid, c: float, horizon: int,
                    settings: MinimizationSettings | None = None,
                    t_frac: float = 0.0, *, kernel: TropicalKernel) -> BarrierMatrix:
    """Tail running minimum of tropical powers of the c-shifted unit kernel.

    ``kernel`` is the unit kernel over [s_frac, s_frac + 1] on ``grid``;
    the barrier starts at its offset s_frac = ``kernel.s``.

    The barrier is a liminf over long time windows, so short windows must
    not contribute: at generic entry pairs the early powers dip below the
    eventual limit (they realize the least c-corrected action over a few
    units, which can undercut the barrier by order 1e-2 on the built-in
    systems), and a minimum over all powers would return that smaller
    quantity instead of the barrier. The entrywise running minimum is
    therefore taken over the last ``BARRIER_TAIL_WINDOW`` powers up to
    ``horizon``, and the defect (change of the tail minimum over the final
    step) reports any residual drift.

    Each new power P^m is compared bitwise with the previous
    ``BARRIER_TAIL_WINDOW`` powers. At the first match P^m == P^(m - p)
    the products stop: every later power equals the held power with the
    same index modulo p, so the tail at ``horizon`` is read from the last
    p powers, and values, defect and stabilized are bit-identical to
    running all ``horizon - 1`` products. The match is recorded as
    ``turnpike`` = m and ``period`` = p. Powers that never repeat within
    the horizon (a kernel not shifted by its critical value, or the free
    system on grid n before power n/2 + 1) run every product and record
    None.

    For offsets (s_frac, t_frac) with t_frac != s_frac the powers are
    post-composed with the fractional kernel over [s_frac, s_frac + df],
    assembled with ``settings`` and shifted by c*df, where
    df = (t_frac - s_frac) mod 1.
    """
    if horizon < 2:
        raise ConfigurationError("barrier horizon must be at least 2")
    if kernel.grid != grid:
        raise ConfigurationError(
            f"barrier grid of {grid.n} points does not match the kernel's "
            f"{kernel.grid.n}")
    if kernel.delta != 1.0:
        raise ConfigurationError(f"barrier needs a unit-time kernel, not one "
                                 f"over {kernel.delta:g}")
    s_frac = kernel.s
    shifted = kernel.matrix + c
    tail = [shifted]  # P^(last - len(tail) + 1) .. P^last
    last, period = 1, None
    while last < horizon and period is None:
        power = minplus_matmul(tail[-1], shifted)
        last += 1
        period = next((p for p in range(1, min(BARRIER_TAIL_WINDOW, len(tail)) + 1)
                       if np.array_equal(power, tail[-p])), None)
        tail = (tail + [power])[-(BARRIER_TAIL_WINDOW + 1):]
    turnpike = None if period is None else last

    def at(e):
        """P^e for last - BARRIER_TAIL_WINDOW <= e <= horizon."""
        if e > last:
            e = turnpike - period + (e - turnpike) % period
        return tail[e - last - 1]

    window = [at(e) for e in range(max(1, horizon - BARRIER_TAIL_WINDOW), horizon + 1)]
    running = np.minimum.reduce(window[-BARRIER_TAIL_WINDOW:])
    prev = np.minimum.reduce(window[:-1][-BARRIER_TAIL_WINDOW:])
    defect = float(np.max(np.abs(running - prev)))
    values = running
    if t_frac != s_frac:
        df = (t_frac - s_frac) % 1.0
        fractional = assemble_kernel(sys, grid, s_frac, df, settings)
        values = minplus_matmul(running, fractional.matrix + c * df)
    return BarrierMatrix(grid=grid, s_frac=float(s_frac), t_frac=float(t_frac),
                         values=values, horizon=int(horizon), defect=defect,
                         stabilized=bool(defect <= STABILIZATION_TOL), c=float(c),
                         turnpike=turnpike, period=period)


def default_aubry_tolerance(grid: Grid, settings: MinimizationSettings | None = None) -> float:
    """Tolerance scaled to the measured kernel error at this resolution.

    Assembles the free-system unit kernel on the same grid and compares it
    with the closed form min_k (dx + k)^2 / 2; the Aubry tolerance is
    ``AUBRY_TOLERANCE_FACTOR`` times the sup error, floored at 1e-12.
    """
    free = LagrangianSystem(family="free")
    kernel = assemble_kernel(free, grid, 0.0, 1.0, settings)
    pts = grid.points
    diff = pts[None, :] - pts[:, None]
    exact = np.minimum.reduce([0.5 * (diff + k) ** 2 for k in (-1, 0, 1)])
    return max(1e-12, AUBRY_TOLERANCE_FACTOR * float(np.max(np.abs(kernel.matrix - exact))))


def aubry_set(h: BarrierMatrix, tol: float) -> AubrySet:
    """Grid points whose diagonal barrier vanishes within tol, clustered by
    grid adjacency (wrapping); one representative per cluster, at the
    cluster's diagonal argmin."""
    if h.s_frac != h.t_frac:
        raise ConfigurationError("Aubry detection needs equal time offsets")
    diag = np.diag(h.values)
    n = h.grid.n
    hits = np.flatnonzero(diag <= tol)
    if hits.size == 0:
        raise EmptyAubrySetError(
            "no grid point has vanishing diagonal barrier; the Aubry set is "
            "never empty, so raise the tolerance or extend the horizon")
    mask = np.zeros(n, dtype=bool)
    mask[hits] = True
    if hits.size == n:
        clusters = [list(range(n))]
    else:
        run_starts = [int(i) for i in hits if not mask[(i - 1) % n]]
        clusters = []
        for s0 in run_starts:
            cluster = [s0]
            j = (s0 + 1) % n
            while mask[j]:
                cluster.append(j)
                j = (j + 1) % n
            clusters.append(cluster)
    representatives = [int(cluster[int(np.argmin(diag[cluster]))]) for cluster in clusters]
    return AubrySet(grid=h.grid, tol=float(tol), indices=hits, clusters=clusters,
                    representatives=representatives)


def semigroup_limit(u0, h: BarrierMatrix) -> np.ndarray:
    """Limit of the c-corrected evolution from u0: min over starting points
    of u0 plus the barrier to each target."""
    values = np.asarray(u0, dtype=float)
    if values.shape != (h.grid.n,):
        raise ConfigurationError("shape mismatch between u0 and barrier")
    out, _ = minplus_apply(h.values, values)
    return out


def _find_cycles(n_vertices: int, edges) -> list:
    adj = [[] for _ in range(n_vertices)]
    for j, k, _ in edges:
        adj[j].append(k)
    color = [0] * n_vertices
    stack = []
    cycles = []

    def dfs(v):
        color[v] = 1
        stack.append(v)
        for w in adj[v]:
            if color[w] == 1:
                cycles.append(stack[stack.index(w):] + [w])
            elif color[w] == 0:
                dfs(w)
        stack.pop()
        color[v] = 2

    for v in range(n_vertices):
        if color[v] == 0:
            dfs(v)
    return cycles


def connection_graph(h: BarrierMatrix, aubry: AubrySet, target_index: int,
                     tol: float) -> ConnectionGraph:
    """Directed graph on Aubry representatives relative to a target point.

    Vertex j points to vertex k when the barrier from k to the target
    equals (within tol) the barrier from k to j plus the barrier from j to
    the target. Roots receive no segment. Acyclicity is checked and any
    violation reported with the offending cycle."""
    reps = list(aubry.representatives)
    if not reps:
        raise ConfigurationError("need at least one Aubry representative")
    hm = h.values
    edges = []
    for a, j in enumerate(reps):
        for b, k in enumerate(reps):
            if j == k:
                continue
            slack = hm[k, target_index] - (hm[k, j] + hm[j, target_index])
            if abs(slack) <= tol:
                edges.append((a, b, float(slack)))
    has_incoming = {b for _, b, _ in edges}
    roots = [i for i in range(len(reps)) if i not in has_incoming]
    cycles = _find_cycles(len(reps), edges)
    return ConnectionGraph(vertices=reps, positions=np.asarray(reps) / h.grid.n,
                           target_index=int(target_index), tol=float(tol),
                           edges=edges, roots=roots, cycles=cycles)
