"""Min-plus linear algebra over action kernels.

A kernel K[i][j] holds the minimal action from grid point i at time s to
grid point j at time s + delta. Applying it to a grid function is an
inf-convolution; its powers iterate the solution operator of the
evolutionary Hamilton-Jacobi equation; its minimum cycle mean gives the
critical value. The unit-time kernel is assembled once and reused for all
integer steps, which turns semigroup iteration into tropical matrix-vector
products.
"""
from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from .action import (minimize_straight_batch, segments_for, winding_candidates,
                     _straight_lifts)
from .errors import ConfigurationError, MinimizationError, NumericalError
from .systems import DiscretizedCurve, exact_row_actions

# mirrored kernel entries re-solved directly to check the declared
# symmetries, and the largest gap allowed between the two values
SYMMETRY_SAMPLE = 32
SYMMETRY_TOLERANCE = 1e-12
# floats of lifted samples that one assembly batch may hold over the first
# shell of windings; a batch's pairs are a stride through the
# representatives
BATCH_FLOATS = 1_000_000
# the fewest pairs an assembly batch holds when the kernel has as many
# representatives: smaller batches take BLAS's small-matrix routines, which
# round differently
MIN_BATCH_PAIRS = 16


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on the torus: points i/n for i = 0..n-1."""

    n: int

    def __post_init__(self):
        if isinstance(self.n, bool) or not isinstance(self.n, numbers.Integral) or self.n < 8:
            raise ConfigurationError("grid size must be an integer of at least 8")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def nearest_index(self, x) -> int:
        if not math.isfinite(x):
            raise ConfigurationError("a grid position must be finite")
        return int(round(float(x) * self.n)) % self.n


@dataclass(frozen=True)
class TropicalKernel:
    """K[i][j] = minimal action from x_i at time s to x_j at time s + delta."""

    grid: Grid
    s: float
    delta: float
    matrix: np.ndarray


def symmetry_orbits(maps, n: int) -> np.ndarray:
    """Orbit label of every flat kernel index i * n + j under the group the
    index maps generate: the smallest flat index of its orbit.

    Min-label closure: each pass lowers a label to the label of its image
    under every map and then to the label of its label, until nothing
    changes. The maps are permutations, so a fixed point is constant on
    orbits, and every label is an orbit member no larger than its index.
    """
    i, j = np.divmod(np.arange(n * n), n)
    images = [mi * n + mj for mi, mj in (f(i, j) for f in maps)]
    label = np.arange(n * n)
    while True:
        lowered = label
        for image in images:
            lowered = np.minimum(lowered, lowered[image])
        lowered = lowered[lowered]
        if np.array_equal(lowered, label):
            return label
        label = lowered


def _bound_gap(sys, a, b, n_seg, starts, ends, best_e):
    """How far a certified lower bound on the midpoint-rule action over
    [a, b] in ``n_seg`` segments of every row from ``starts`` to the lifted
    ``ends`` clears ``best_e``, net of rounding: where the gap is
    positive, no such row can beat ``best_e``.

    With the ceiling c'(t) >= max_x U(x, t) of ``critical_subsolution``
    summed over the midpoint times, C = h sum_i c'(t_i), the bound is the
    larger of two, minus C. The kinetic one is mass d^2 / (2T)
    (Cauchy-Schwarz). The subsolution one is s |u(end) - u(start)|: on a
    segment of length D, step h and midpoint m, Fenchel gives
    h (L + c') - s p(m) |D| >= mass (1 - s^2) D^2 / (2h), the midpoint
    rule misses |u(z+) - u(z)| by at most Lambda D^2 / 4, and
    s = sqrt(1 + r^2) - r with r = Lambda h / (4 mass) makes the two D^2
    terms cancel; the segments sum to the bound.

    The rounding allowance covers the plain sums behind ``best_e`` and
    behind any row that could beat it: n_seg terms whose magnitudes add up
    to at most |best_e| + 2 T sup U, each carrying a few roundings, one on
    the phase of a lifted midpoint, which grows with |z|; plus the
    rounding of the bound's own terms.
    """
    duration = b - a
    h = duration / n_seg
    sup_u = sys.potential_upper_bound()
    ceiling, u, _, lip = sys.critical_subsolution()
    r = lip * h / (4.0 * sys.mass)
    s = math.sqrt(1.0 + r * r) - r
    ceiling_sum = h * math.fsum(ceiling(a + h * (np.arange(n_seg) + 0.5)))
    kinetic = sys.mass * (ends - starts) ** 2 / (2.0 * duration)
    u0, u1 = u(starts), u(ends)
    lower = np.maximum(kinetic, s * np.abs(u1 - u0)) - ceiling_sum
    scale = (np.abs(best_e) + 2.0 * duration * sup_u + abs(ceiling_sum)
             + kinetic + s * (np.abs(u0) + np.abs(u1)))
    lift = 1.0 + np.maximum(np.abs(starts), np.abs(ends))
    allowance = 8.0 * np.finfo(float).eps * (n_seg + 1) * lift * scale
    return lower - best_e - allowance


def winding_search(sys, a, b, starts, ends):
    """Minimal action from each start at time a to the matching end at time
    b, over every winding the action bound cannot rule out.

    Returns (values, rows, windings): the fsum quadrature values
    (``exact_row_actions``), the winning lifted samples, and the winning
    windings. Each pair first minimizes its nearest lift, the shorter way
    round: winding -1, 0 or 1, and 0 for a pair exactly half a turn apart.
    Then come the shells of windings, first ``winding_candidates`` (0 and
    +-1), then +-2, +-3, ...: every other (pair, winding) row of a shell
    whose certified lower bound (``_bound_gap``: the larger of the kinetic
    bound and the critical-subsolution bound) clears the pair's best value
    so far can never win, so it is pruned, and the surviving rows of the
    shell are minimized in one batch. Both bounds grow with |k|, so the
    search stops at the first shell past the first that every pair's bound
    clears. The least value wins, and an exact tie goes to the smaller
    (|k|, k), whichever batch found it; a pruned row is strictly worse
    than a value already found, so pruning never changes the winner. A
    winner that did not converge raises ``MinimizationError``. A pair's
    value does not depend on the other pairs of the batch, up to BLAS
    rounding of one-row products.
    """
    n_seg = segments_for(b - a)

    # the shorter way round: -1, 0 or 1, and 0 for an exact half
    nearest = -np.round(ends - starts).astype(int)
    z0 = _straight_lifts(starts, ends + nearest, n_seg)
    rows, best_e, _, conv, _ = minimize_straight_batch(sys, a, b, n_seg, z0)
    best_winding = nearest.copy()

    def rank(k):  # position in (|k|, k) order
        return 2 * np.abs(k) + (k > 0)

    shell, k = np.array(winding_candidates()), 1  # 0 and +-1
    while True:
        ends_k = ends[None, :] + shell[:, None]
        unclear = _bound_gap(sys, a, b, n_seg, starts, ends_k, best_e) <= 0.0
        w_idx, pair = np.nonzero(unclear & (shell[:, None] != nearest))
        if pair.size:
            zk_init = _straight_lifts(starts[pair], ends_k[w_idx, pair], n_seg)
            zk, ek, _, convk, _ = minimize_straight_batch(sys, a, b, n_seg, zk_init)
            for w, kw in enumerate(shell):
                sel = np.flatnonzero(w_idx == w)
                e_w, e_best = ek[sel], best_e[pair[sel]]
                better = sel[(e_w < e_best) | (  # a tie goes to the smaller (|k|, k)
                    (e_w == e_best) & (rank(kw) < rank(best_winding[pair[sel]])))]
                best_e[pair[better]] = ek[better]
                rows[pair[better]] = zk[better]
                best_winding[pair[better]] = kw
                conv[pair[better]] = convk[better]
        if k > 1 and not unclear.any():
            break  # the bounds grow with |k|, so they clear every shell past this one
        k += 1
        shell = np.array([-k, k])

    if not conv.all():
        bad = int(np.flatnonzero(~conv)[0])
        raise MinimizationError(
            f"minimal action from (x, t) = ({starts[bad]:.12g}, {a:.12g}) to "
            f"({ends[bad]:.12g}, {b:.12g}) failed to converge at winding "
            f"{best_winding[bad]}",
            best_value=float(best_e[bad]),
            best_curve=DiscretizedCurve(a, b, rows[bad], int(best_winding[bad])))

    return exact_row_actions(sys, a, b, rows), rows, best_winding


def _worker_count() -> int:
    """Processes that assemble a kernel: the CPUs in this process's
    affinity, or 1 where the affinity is unknown or the caller is a
    daemonic process, which may not start children."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    import multiprocessing  # on first use, so importing the toolkit stays as fast

    if multiprocessing.current_process().daemon:
        return 1
    return len(os.sched_getaffinity(0))


def _send_share(conn, solve, jobs):
    """A worker's whole life: solve its jobs in order and send their values,
    or the exception that stopped it, back to the parent."""
    try:
        share = [solve(job) for job in jobs]
    except Exception as exc:  # re-raised by the parent
        share = exc
    conn.send(share)
    conn.close()


def _solve_jobs(solve, jobs, workers: int) -> list:
    """``solve(job)`` for every job, in job order. Process k of ``workers``
    solves ``jobs[k::workers]``; the caller is process 0, and the others are
    forked, so the solver and its jobs reach them by inheritance and only
    values come back. The split is static, so which process solves a job
    never depends on timing. An exception from any share is re-raised here,
    and no worker outlives the call."""
    workers = min(workers, len(jobs))
    if workers == 1:
        return [solve(job) for job in jobs]
    import multiprocessing

    # fork, not spawn: a system may hold lambdas or forward attributes, and
    # neither survives pickling
    ctx = multiprocessing.get_context("fork")
    children = []
    try:
        for k in range(1, workers):
            recv_end, send_end = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_send_share, args=(send_end, solve, jobs[k::workers]))
            child.start()
            send_end.close()  # the child holds the only write end: EOF if it dies
            children.append((child, recv_end))
        results = [None] * len(jobs)
        results[0::workers] = [solve(job) for job in jobs[0::workers]]
        for k, (child, recv_end) in enumerate(children, start=1):
            try:
                share = recv_end.recv()
            except EOFError:
                child.join()
                raise ChildProcessError(f"kernel worker {k} exited with code "
                                        f"{child.exitcode} before sending its values") from None
            if isinstance(share, BaseException):
                raise share
            results[k::workers] = share
        return results
    finally:
        for child, recv_end in children:
            if child.is_alive():
                child.kill()
            child.join()
            recv_end.close()


def assemble_kernel(sys, grid: Grid, s, delta) -> TropicalKernel:
    """Minimal action between all grid-point pairs over [s, s + delta].

    The system declares index maps under which the kernel is invariant
    (``sys.kernel_symmetries``); one representative pair per orbit, its
    smallest flat index, is minimized and its value copied to the rest of
    the orbit. Before the copy is trusted, a fixed seeded sample of
    ``SYMMETRY_SAMPLE`` mirrored entries is solved directly, and any gap
    above ``SYMMETRY_TOLERANCE`` raises.

    Pairs go through ``winding_search``, the same search as
    ``minimal_action``; this is the hot loop of the whole toolkit.
    Entries agree with ``minimal_action`` to rounding (1e-12), not bit for
    bit, because a one-pair batch runs its BLAS products through a
    different routine.

    The work is split over w processes, one per CPU in the affinity of the
    calling process. A batch holds about ``step`` pairs: the fewer of
    ``ceil(reps / w)`` and the pairs whose first shell of windings fits in
    ``BATCH_FLOATS`` floats. The representatives are dealt into
    ``m = ceil(reps / step)`` batches as strides, but never so many that a
    batch holds fewer than ``MIN_BATCH_PAIRS`` pairs (one batch when the
    kernel has fewer representatives): batch b holds representatives b,
    b + m, b + 2m, ..., so every batch draws its pairs from the whole
    kernel, cheap and costly alike, and the processes finish at about the
    same time. The symmetry sample is one more batch, and process k solves
    batches k, k + w, k + 2w, ... in order; the caller is process 0 and the
    others are forked for the call and joined before it returns or raises.
    A pair's value does not depend on the other pairs of its batch, and
    the floor keeps every batch off BLAS's small-matrix routines, so the
    kernel bits depend neither on the batch size nor on w. With one CPU,
    no affinity to read, or a daemonic caller, the batches are solved in
    this process.
    """
    if not (0.0 < delta <= 1.0):
        raise ConfigurationError("kernel duration must lie in (0, 1]")
    a, b = float(s), float(s) + float(delta)
    # the window must have the reported duration to the 1e-12 that entries
    # are held to: Karp divides by delta, and the barrier adds c delta
    if not (math.isfinite(a) and abs((b - a) - delta) <= 1e-12 * delta):
        raise ConfigurationError(
            f"kernel window [{a!r}, {b!r}] is {b - a!r} long in floating "
            f"point, not delta = {float(delta)!r}")
    n = grid.n
    pts = grid.points
    n_seg = segments_for(delta)

    def solve(pairs):
        """Entries at the given flat indices, in one search batch."""
        values, _, _ = winding_search(sys, a, b, pts[pairs // n], pts[pairs % n])
        return values

    label = symmetry_orbits(sys.kernel_symmetries(n, a, float(delta)), n)
    flat = np.arange(n * n)
    reps = np.flatnonzero(label == flat)
    mirrored = np.flatnonzero(label != flat)
    rng = np.random.default_rng(0)  # a fixed sample: assembly stays deterministic
    sample = np.sort(rng.choice(mirrored, size=min(SYMMETRY_SAMPLE, mirrored.size),
                                replace=False))

    workers = _worker_count()
    pair_floats = len(winding_candidates()) * (n_seg + 1)
    step = min(max(1, BATCH_FLOATS // pair_floats), -(-reps.size // workers))
    n_jobs = max(1, min(-(-reps.size // step), reps.size // MIN_BATCH_PAIRS))
    jobs = [reps[k::n_jobs] for k in range(n_jobs)]
    solved = _solve_jobs(solve, jobs + [sample] if sample.size else jobs, workers)
    values = np.empty(n * n)
    for job, share in zip(jobs, solved):
        values[job] = share
    matrix = values[label].reshape(n, n)

    if sample.size:
        gaps = np.abs(solved[-1] - values[label[sample]])
        worst = int(np.argmax(gaps))
        if not gaps[worst] <= SYMMETRY_TOLERANCE:
            i, j = divmod(int(sample[worst]), n)
            raise NumericalError(
                f"declared kernel symmetry fails at K[{i}][{j}]: its direct "
                f"solve differs from the mirrored value by {gaps[worst]:.3e}")
    return TropicalKernel(grid=grid, s=a, delta=float(delta), matrix=matrix)


def minplus_apply(mat, u):
    """u'[j] = min_i u[i] + K[i][j] for a kernel matrix K."""
    u = np.asarray(u, dtype=float)
    if u.shape != (mat.shape[0],):
        raise ConfigurationError("shape mismatch in min-plus apply")
    return np.min(u[:, None] + mat, axis=0)


def minplus_matmul(a, b):
    """C[i][j] = min_m A[i][m] + B[m][j], accumulated in place over m.

    One n x n output and one n x n scratch row-sum are reused for every
    inner index; min is exact, so the order of accumulation does not
    change a bit of the result.
    """
    if a.shape[1] != b.shape[0]:
        raise ConfigurationError("shape mismatch in min-plus matmul")
    out = np.full((a.shape[0], b.shape[1]), np.inf)
    tmp = np.empty_like(out)
    for m in range(a.shape[1]):
        np.add(a[:, m, None], b[m], out=tmp)
        np.minimum(out, tmp, out=out)
    return out


def karp_eigenvalue(kernel) -> float:
    """Critical value per unit time: minus the minimum cycle mean of the
    kernel graph over the kernel duration, which is 1 for a raw matrix.

    Karp's DP: D[k][v] is the least weight of a k-edge walk ending at v
    (any start), and the minimum cycle mean is
    min_v max_k (D[n][v] - D[k][v]) / (n - k).
    """
    if isinstance(kernel, TropicalKernel):
        mat, delta = kernel.matrix, kernel.delta
    else:
        mat, delta = np.asarray(kernel, dtype=float), 1.0
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ConfigurationError("kernel must be square")
    if not np.all(np.isfinite(mat)):
        raise ConfigurationError("kernel entries must be finite")
    n = mat.shape[0]
    d = np.empty((n + 1, n))
    d[0] = 0.0
    for k in range(1, n + 1):
        d[k] = np.min(d[k - 1][:, None] + mat, axis=0)
    denom = (n - np.arange(n)).astype(float)
    ratios = (d[n][None, :] - d[:n]) / denom[:, None]
    return -float(np.min(np.max(ratios, axis=0))) / float(delta)
