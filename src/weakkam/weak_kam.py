"""Peierls barrier, Aubry set, the semigroup limit, and the connection
graph between Aubry classes.

The barrier is the least sum of c-shifted kernel entries along a path
through a critical node: the Kleene star of the shifted kernel B through
the nodes on its cycles of least mean, the Aubry set on the grid. Past a
transient every tropical power of B passes through a critical node (the
CSR expansion of Sergeev & Schneider, Trans. AMS 364, 2012), so the star
is the minimum over one cycle of powers, whose period is the cyclicity
of the critical graph (Cohen, Dubois, Quadrat & Viot, IEEE TAC 30, 1985),
the tropical form of the lcm of the periods of the Aubry orbits. The
barrier finds a subeigenvector of B with matrix-vector products, reads
the critical nodes off its tight graph, and iterates only the star rows
and columns of those nodes.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NumericalError
from .systems import positive_integer, reduce_mod_1
from .tropical import (Grid, TropicalKernel, assemble_kernel, minplus_apply,
                       minplus_matmul)

# the default cap on the barrier's horizon: each fixed point of the star
# runs at most BARRIER_HORIZON - 1 products (and at most n + 1 on a grid of
# n points), for every caller that sets none
BARRIER_HORIZON = 40


@dataclass(frozen=True)
class BarrierMatrix:
    """h[i][j] approximates the barrier from (x_i, [s_frac]) to (x_j, [t_frac]).

    ``classes`` are the critical classes, the Aubry set on the grid: the
    nodes of each strongly connected class of the tight graph that holds a
    cycle, one increasing list per class, the classes in the order of their
    least node."""

    grid: Grid
    s_frac: float
    t_frac: float
    values: np.ndarray
    horizon: int
    defect: float
    c: float
    # the cyclicity of the critical graph, or None if a fixed point of the
    # star did not arrive within the horizon
    period: int | None
    classes: list

    @property
    def stabilized(self) -> bool:
        """Whether every fixed point of the star arrived within the horizon."""
        return self.period is not None

    def require_stabilized(self, label: str) -> None:
        """Raise ``NumericalError`` unless every fixed point of the star
        arrived within the horizon; ``label`` names the system."""
        if not self.stabilized:
            raise NumericalError(
                f"barrier of {label} on grid {self.grid.n} not stabilized at "
                f"horizon {self.horizon}: defect {self.defect:.3e}")


@dataclass(frozen=True)
class AubrySet:
    """The barrier's critical classes as ``clusters``, their sorted union as
    ``indices``, and the least node of each class as its representative."""

    grid: Grid
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
    reported, never asserted away, as the vertices of each strongly
    connected class that holds one: cycles through one class count once.
    """

    vertices: list
    positions: np.ndarray
    target_index: int
    tol: float
    edges: list
    roots: list
    cycles: list


def check_barrier_horizon(horizon, t_frac=None) -> None:
    """Raise ``ConfigurationError`` unless the horizon lets each fixed point
    of the star take a step and the end offset, when given, is finite."""
    positive_integer(horizon, "barrier horizon", 2)
    if t_frac is not None and not math.isfinite(t_frac):
        raise ConfigurationError("barrier end offset must be finite")


def check_tolerance(tol, name) -> None:
    """Raise ``ConfigurationError`` unless the ``name`` tolerance is finite
    and nonnegative."""
    if not (math.isfinite(tol) and tol >= 0.0):
        raise ConfigurationError(f"{name} tolerance must be finite and nonnegative")


def _fixed_point(step, start, products: int, tol: float):
    """Iterate x = min(x, step(x)) from ``start`` for at most ``products``
    steps, stopping at the first whose largest change is within ``tol``.
    Returns the last iterate and the largest change of its step."""
    x, change = start, math.inf
    for _ in range(products):
        new = np.minimum(x, step(x))
        change, x = float(np.max(np.abs(new - x))), new
        if change <= tol:
            break
    return x, change


def _critical_classes(graph) -> list:
    """The nodes of each strongly connected class of ``graph`` (a boolean
    adjacency matrix) that holds a cycle, in increasing order.

    A node with no edge from or to the other nodes left is on no cycle, so
    such nodes are peeled off first; the reachability of the rest is
    closed by Boolean squaring, and a node is on a cycle when it reaches
    itself."""
    nodes = np.arange(len(graph))
    while True:
        sub = graph[np.ix_(nodes, nodes)]
        keep = sub.any(axis=0) & sub.any(axis=1)
        if keep.all():
            break
        nodes = nodes[keep]
    if nodes.size == 0:
        return []
    reach = sub
    while True:  # paths of one or more edges
        grown = reach | (reach.astype(float) @ reach > 0)
        if np.array_equal(grown, reach):
            break
        reach = grown
    mutual = reach & reach.T
    labels = np.argmax(mutual, axis=1)  # the least node of the class
    return [nodes[(labels == label) & np.diagonal(reach)]
            for label in np.unique(labels[np.diagonal(reach)])]


def _cyclicity(graph) -> int:
    """The gcd of the cycle lengths of a strongly connected graph: with the
    levels d of a breadth-first search, the gcd of d(u) + 1 - d(v) over its
    edges (u, v)."""
    level = np.full(len(graph), -1)
    level[0] = depth = 0
    frontier = level == 0
    while frontier.any():
        depth += 1
        frontier = graph[frontier].any(axis=0) & (level < 0)
        level[frontier] = depth
    u, v = np.nonzero(graph)
    return math.gcd(*(level[u] + 1 - level[v]).tolist())


def peierls_barrier(sys, grid: Grid, c: float, horizon: int = BARRIER_HORIZON, *,
                    t_frac: float | None = None, kernel: TropicalKernel) -> BarrierMatrix:
    """The Kleene star of the c-shifted unit kernel B = K + c through the
    critical nodes: h[i][j] = min over critical a of B*[i][a] + B*[a][j],
    where B* holds the least sums over paths of one or more steps.

    ``kernel`` is the unit kernel over [s_frac, s_frac + 1] on ``grid``;
    the barrier starts at its offset s_frac = ``kernel.s`` and, unless
    ``t_frac`` is given, ends there too. A given ``t_frac`` is a phase and
    is reduced mod 1, so an end offset of 1 is the offset 0. The entries
    of the kernel, and their shift by c, must be finite.

    Three fixed points are iterated as x = min(x, step(x)), each for at
    most H - 1 steps, H = min(``horizon``, n + 2) on a grid of n points,
    and stop at the first step that moves no entry by more than
    tol = ((n + 2)^2 / 2 + H) eps M: eps is machine epsilon and M the
    largest |entry| of K and B. At the critical value no cycle of B has a
    negative sum, so a least path sum needs at most n steps and, in exact
    arithmetic, every fixed point arrives within n + 1; a larger horizon
    would only let a shift below the critical value, whose negative
    cycles never let a fixed point arrive, pass under a larger tol. tol is
    what rounding alone leaves in one step when c is the Karp value of K
    (u = eps / 2): Karp's walk sums of up to n steps, with the shift by
    c, move the cycle mean of B by less than (n + 2)^2 u M, and each
    rounded step moves an entry by at most u M.

    1. A subeigenvector y <= y B from y = 0, by ``minplus_apply``.
    2. The critical nodes A, those on the cycles of the tight graph
       y_i + B_ij - y_j <= tol, whose cycles are the cycles of least mean;
       the strongly connected classes they form there are ``classes``.
    3. The star rows B*[A, :] and columns B*[:, A], by |A|-row products
       through ``minplus_matmul`` (the columns as rows of the transpose).

    ``period`` is the cyclicity of the critical graph: the gcd of the
    cycle lengths within each strongly connected class of the tight graph,
    then the lcm over the classes. ``defect`` is the largest last change
    of the three fixed points. When one does not arrive in time (a shift
    below the critical value, or the free system on grid n, whose star
    needs n/2 products) ``period`` is None and ``stabilized`` is False. A
    shift that leaves no critical node, as one above the critical value
    does, raises ``NumericalError``.

    For offsets (s_frac, t_frac) with t_frac != s_frac the values are
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
    steps = min(horizon, grid.n + 2) - 1
    tol = ((grid.n + 2) ** 2 / 2 + steps + 1) * np.finfo(float).eps * largest
    y, defect = _fixed_point(lambda y: minplus_apply(shifted, y), np.zeros(grid.n), steps, tol)
    tight = y[:, None] + shifted - y[None, :] <= tol
    classes = _critical_classes(tight)
    if not classes:
        raise NumericalError(
            f"the barrier shift c = {c!r} leaves no critical node on grid {grid.n}: "
            f"c is not the critical value of the kernel")
    critical = np.concatenate(classes)
    rows, row_change = _fixed_point(lambda r: minplus_matmul(r, shifted),
                                    shifted[critical], steps, tol)
    cols, col_change = _fixed_point(lambda r: minplus_matmul(r, shifted.T),
                                    shifted.T[critical], steps, tol)
    defect = max(defect, row_change, col_change)
    values = np.full((grid.n, grid.n), np.inf)
    for col, row in zip(cols, rows):
        np.minimum(values, col[:, None] + row, out=values)
    period = None
    if defect <= tol:
        period = math.lcm(*(_cyclicity(tight[np.ix_(nodes, nodes)]) for nodes in classes))
    if t_frac != s_frac:
        df = (t_frac - s_frac) % 1.0
        fractional = assemble_kernel(sys, grid, s_frac, df)
        values = minplus_matmul(values, fractional.matrix + c * df)
    return BarrierMatrix(grid=grid, s_frac=float(s_frac), t_frac=float(t_frac),
                         values=values, horizon=int(horizon), defect=defect, c=float(c),
                         period=period, classes=[nodes.tolist() for nodes in classes])


def aubry_set(h: BarrierMatrix, tol=None) -> AubrySet:
    """The Aubry set on the grid, read off the barrier's critical classes:
    each class is one cluster, represented by its least node. The classes
    are those of the start offset, so the barrier must end where it starts.

    ``tol`` is ignored. It exists only for the call ``aubry_set(barrier,
    2e-2)`` in ``bench/worker.py``, and goes with that call when the
    benchmark is next repaired."""
    if h.s_frac != h.t_frac:
        raise ConfigurationError("Aubry detection needs equal time offsets")
    return AubrySet(grid=h.grid, indices=np.sort(np.concatenate(h.classes)),
                    clusters=h.classes, representatives=[nodes[0] for nodes in h.classes])


def semigroup_limit(u0, h: BarrierMatrix) -> np.ndarray:
    """Limit of the c-corrected evolution from u0: min over starting points
    of u0 plus the barrier to each target."""
    values = np.asarray(u0, dtype=float)
    if values.shape != (h.grid.n,):
        raise ConfigurationError("shape mismatch between u0 and barrier")
    return minplus_apply(h.values, values)


def connection_graph(h: BarrierMatrix, aubry: AubrySet, target_index: int,
                     tol: float) -> ConnectionGraph:
    """Directed graph on Aubry representatives relative to a target point.

    Vertex j points to vertex k when the barrier from k to the target
    equals (within tol) the barrier from k to j plus the barrier from j to
    the target. Roots receive no segment. Acyclicity is checked: each
    strongly connected class that holds a cycle is reported as the list
    of its vertices (``_critical_classes``). ``target_index`` must be
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
    adjacency = np.zeros((len(reps), len(reps)), dtype=bool)
    for a, j in enumerate(reps):
        for b, k in enumerate(reps):
            if j == k:
                continue
            slack = hm[k, target_index] - (hm[k, j] + hm[j, target_index])
            if abs(slack) <= tol:
                edges.append((a, b, float(slack)))
                adjacency[a, b] = True
    roots = np.flatnonzero(~adjacency.any(axis=0)).tolist()
    cycles = [nodes.tolist() for nodes in _critical_classes(adjacency)]
    return ConnectionGraph(vertices=reps, positions=np.asarray(reps) / h.grid.n,
                           target_index=int(target_index), tol=float(tol),
                           edges=edges, roots=roots, cycles=cycles)
