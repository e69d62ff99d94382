"""Peierls barrier, Aubry set, the semigroup limit, and the connection
graph between Aubry classes.

The barrier is one tropical cycle of the c-shifted unit kernel. By
max-plus cyclicity its powers repeat with some period p after a
transient, P^(m+p) = P^m + p * lambda, and lambda vanishes at the
critical value c up to the rounding of c. The period is the lcm of the
cyclicities of the components of the critical graph (Cohen, Dubois,
Quadrat & Viot, IEEE TAC 30, 1985), the tropical form of the lcm of the
periods of the Aubry orbits, and has no bound set in advance. So the
barrier holds every power, multiplies until the first power that repeats
any earlier one within that rounding, and returns the entrywise minimum
over the p powers of the cycle. Every power keeps the exact row
symmetries of the kernel (``tropical.row_orbits``), so only the rows of
the orbit representatives are multiplied, and of those only the rows that
moved at the last power: the minimizing chains run through the Aubry set,
so rows can settle before the whole matrix does (at q = 1 on grid 256,
97 of the 129 representative rows of P^3 equal those of P^2).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, EmptyAubrySetError, NumericalError
from .systems import positive_integer, reduce_mod_1
from .tropical import (Grid, TropicalKernel, assemble_kernel, minplus_apply,
                       minplus_matmul, row_orbits)

# diagonal barrier up to which ``weakkam aubry`` counts a grid point as
# Aubry when no tolerance is given: a rounding floor, since the free
# kernel, whose straight minimizers the midpoint rule integrates exactly,
# equals its closed form on grids 16, 64 and 256
AUBRY_TOLERANCE = 1e-12
# the default cap on the barrier's powers, for every caller that sets none
BARRIER_HORIZON = 40


@dataclass(frozen=True)
class BarrierMatrix:
    """h[i][j] approximates the barrier from (x_i, [s_frac]) to (x_j, [t_frac])."""

    grid: Grid
    s_frac: float
    t_frac: float
    values: np.ndarray
    horizon: int
    defect: float
    c: float
    # first power m that repeats P^(m - period) within rounding, or None
    # if the horizon was reached before the powers repeated
    turnpike: int | None
    period: int | None

    @property
    def stabilized(self) -> bool:
        """Whether the powers entered their cycle within the horizon."""
        return self.period is not None

    def require_stabilized(self, label: str) -> None:
        """Raise ``NumericalError`` unless the powers entered their cycle
        within the horizon; ``label`` names the system."""
        if not self.stabilized:
            raise NumericalError(
                f"barrier of {label} on grid {self.grid.n} not stabilized at "
                f"horizon {self.horizon}: defect {self.defect:.3e}")


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


def check_barrier_horizon(horizon, t_frac=None) -> None:
    """Raise ``ConfigurationError`` unless the barrier may take a power and
    its end offset, when given, is finite."""
    positive_integer(horizon, "barrier horizon", 2)
    if t_frac is not None and not math.isfinite(t_frac):
        raise ConfigurationError("barrier end offset must be finite")


def check_tolerance(tol, name) -> None:
    """Raise ``ConfigurationError`` unless the ``name`` tolerance is finite
    and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigurationError(f"{name} tolerance must be finite and nonnegative")


def peierls_barrier(sys, grid: Grid, c: float, horizon: int, *,
                    t_frac: float | None = None, kernel: TropicalKernel) -> BarrierMatrix:
    """Minimum over one cycle of tropical powers of the c-shifted unit kernel.

    ``kernel`` is the unit kernel over [s_frac, s_frac + 1] on ``grid``;
    the barrier starts at its offset s_frac = ``kernel.s`` and, unless
    ``t_frac`` is given, ends there too. A given ``t_frac`` is a phase and
    is reduced mod 1, so an end offset of 1 is the offset 0.

    Each power keeps the exact row symmetries of the shifted kernel
    (``row_orbits``), so only the rows of the orbit representatives are
    multiplied, compared and held, and the values are gathered to the
    full matrix at the end, bit for bit the same as multiplying every row.
    Every other row is a permutation of a held one, so the largest entry
    and the changes below are those of the full powers. A representative
    row of P^(m - 1) whose bits equal its row of P^(m - 2) is copied into
    P^m, not multiplied: the same operands give the same product. The
    entries of the kernel, and their shift by c, must be finite; an inf
    would make the stop bound below inf and a NaN every change NaN.

    Each new power P^m is compared with every power held since P^1, and
    the products stop at the first m with
    max|P^m - P^(m - p)| <= (p (n + 2)^2 / 2 + m) eps M for some p: n is
    the grid size, eps machine epsilon and M the largest |entry| of the
    kernel and of P^1 .. P^m. The bound is what rounding alone can leave
    in a cycle of p powers when c is the Karp value of the kernel
    (u = eps / 2). Karp's walk sums of up to n steps, with the shift by
    c, move the cycle mean of the shifted kernel by less than
    (n + 2)^2 u M, so p powers drift by less than p (n + 2)^2 eps M / 2;
    the m - 1 rounded products move P^m and P^(m - p) by at most
    (m - 1) u M each, less than m eps M together. A larger change shows
    the powers have not entered their cycle.

    At the first such m, ``turnpike`` = m, ``period`` = the least such p,
    ``defect`` = its residual max|P^m - P^(m - p)|, ``stabilized`` is
    True, and the values are the entrywise minimum of P^(m - p + 1) ..
    P^m. Early powers can dip below the barrier, so none from before the
    cycle enters the minimum. The integer ``horizon`` only caps m: with
    no cycle within it (a kernel not shifted by its critical value, or
    the free system on grid n before power n/2 + 1) the values are
    P^horizon, the defect is max|P^horizon - P^(horizon - 1)|, and
    ``stabilized`` is False.

    For offsets (s_frac, t_frac) with t_frac != s_frac the cycle minimum is
    post-composed with the fractional kernel over [s_frac, s_frac + df],
    assembled by ``assemble_kernel`` and shifted by c*df, where
    df = (t_frac - s_frac) mod 1.
    """
    check_barrier_horizon(horizon, t_frac)
    if not math.isfinite(c):
        raise ConfigurationError("barrier shift c must be finite")
    if kernel.grid != grid:
        raise ConfigurationError(
            f"barrier grid of {grid.n} points does not match the kernel's "
            f"{kernel.grid.n}")
    if kernel.delta != 1.0:
        raise ConfigurationError(f"barrier needs a unit-time kernel, not one "
                                 f"over {kernel.delta:g}")
    s_frac = kernel.s
    t_frac = s_frac if t_frac is None else float(reduce_mod_1(t_frac))
    shifted = kernel.matrix + c
    # the largest |entry| of the kernel and of its shift, NaN if one is NaN
    largest = float(np.max([-kernel.matrix.min(), kernel.matrix.max(),
                            -shifted.min(), shifted.max()]))
    if not math.isfinite(largest):
        raise ConfigurationError("barrier kernel entries, and their shift by c, must be finite")
    reps, orbit, cols = row_orbits(shifted)
    held = [shifted[reps]]  # the representative rows of P^1 .. P^m
    moved = np.ones(reps.size, dtype=bool)
    m, period = 1, None
    while m < horizon and period is None:
        power = held[-1].copy()
        power[moved] = minplus_matmul(held[-1][moved], shifted)
        m += 1
        largest = max(largest, float(np.max(np.abs(power))))
        unit = np.finfo(float).eps * largest
        changes = [float(np.max(np.abs(power - held[-p]))) for p in range(1, m)]
        period = next((p for p, change in enumerate(changes, 1)
                       if change <= (p * (grid.n + 2) ** 2 / 2 + m) * unit), None)
        # a row whose bits did not change has the same product next time
        moved = (power.view(np.int64) != held[-1].view(np.int64)).any(axis=1)
        held.append(power)
    cycle = period or 1
    defect = changes[cycle - 1]
    values = np.minimum.reduce(held[-cycle:])[orbit[:, None], cols]
    if t_frac != s_frac:
        df = (t_frac - s_frac) % 1.0
        fractional = assemble_kernel(sys, grid, s_frac, df)
        values = minplus_matmul(values, fractional.matrix + c * df)
    return BarrierMatrix(grid=grid, s_frac=float(s_frac), t_frac=float(t_frac),
                         values=values, horizon=int(horizon), defect=defect, c=float(c),
                         turnpike=None if period is None else m, period=period)


def aubry_set(h: BarrierMatrix, tol: float) -> AubrySet:
    """Grid points whose diagonal barrier vanishes within tol, clustered by
    grid adjacency (wrapping); one representative per cluster, at the
    cluster's diagonal argmin."""
    if h.s_frac != h.t_frac:
        raise ConfigurationError("Aubry detection needs equal time offsets")
    check_tolerance(tol, "Aubry")
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
    return minplus_apply(h.values, values)


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
    violation reported with the offending cycle. ``target_index`` must be
    a grid index in [0, n), ``aubry`` must come from the barrier's grid,
    and the barrier must start and end at the same offset, where
    h(k, target) = h(k, j) + h(j, target) is the decomposition tested."""
    if h.s_frac != h.t_frac:
        raise ConfigurationError("a connection graph needs equal time offsets")
    check_tolerance(tol, "graph")
    if aubry.grid != h.grid:
        raise ConfigurationError(f"Aubry set is on a grid of {aubry.grid.n} points, "
                                 f"the barrier on one of {h.grid.n}")
    if positive_integer(target_index, "graph target index", 0) >= h.grid.n:
        raise ConfigurationError(f"graph target index must be below the grid size {h.grid.n}")
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
