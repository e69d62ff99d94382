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

from dataclasses import dataclass

import numpy as np

from .action import (MinimizationSettings, minimize_straight_batch,
                     segments_for, winding_candidates, _straight_lifts)
from .errors import ConfigurationError, MinimizationError, NumericalError
from .systems import DiscretizedCurve, exact_row_actions

# mirrored kernel entries re-solved directly to check the declared
# symmetries, and the largest gap allowed between the two values
SYMMETRY_SAMPLE = 32
SYMMETRY_TOLERANCE = 1e-12


@dataclass(frozen=True)
class Grid:
    """Uniform spatial grid on the torus: points i/n for i = 0..n-1."""

    n: int

    def __post_init__(self):
        if self.n < 8:
            raise ConfigurationError("grid needs at least 8 points")

    @property
    def points(self) -> np.ndarray:
        return np.arange(self.n) / self.n

    def nearest_index(self, x) -> int:
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


def winding_search(sys, a, b, starts, ends, settings: MinimizationSettings):
    """Minimal action from each start at time a to the matching end at time
    b, over the windings of ``winding_candidates(b - a, settings)``.

    Returns (values, rows, windings): fsum quadrature values plus the
    system's ``action_offset``, the winning lifted samples, and the winning
    windings. The zero-winding problems run first; a nonzero (pair,
    winding) row whose rigorous lower bound (Cauchy-Schwarz kinetic term
    minus the potential ceiling) exceeds the pair's zero-winding energy can
    never win, so it is pruned, and every surviving row of every winding
    is minimized in one batch. Windings are then taken in (|k|, k) order
    and replace the incumbent only when strictly lower, so ties keep the
    smaller |winding|. A winner that did not converge raises
    ``MinimizationError``. A pair's value does not depend on the other
    pairs of the batch, up to BLAS rounding of one-row products.
    """
    windings = winding_candidates(b - a, settings)
    n_seg = segments_for(b - a, settings)
    qsys = sys.quadrature_system()
    pot_ceiling = qsys.potential_upper_bound()

    z0 = _straight_lifts(starts, ends, n_seg)
    rows, best_e, _, conv, _ = minimize_straight_batch(sys, a, b, n_seg, z0)
    best_winding = np.zeros(starts.size, dtype=int)

    others = np.array(windings[1:], dtype=int)
    ends_k = ends[None, :] + others[:, None]
    lower = (qsys.mass * (ends_k - starts[None, :]) ** 2 / (2.0 * (b - a))
             - (b - a) * pot_ceiling)
    w_idx, pair = np.nonzero(lower <= best_e[None, :])
    if pair.size:
        zk_init = _straight_lifts(starts[pair], ends_k[w_idx, pair], n_seg)
        zk, ek, _, convk, _ = minimize_straight_batch(sys, a, b, n_seg, zk_init)
        for w, k in enumerate(others):
            sel = np.flatnonzero(w_idx == w)
            better = sel[ek[sel] < best_e[pair[sel]]]  # strict: ties keep smaller |k|
            best_e[pair[better]] = ek[better]
            rows[pair[better]] = zk[better]
            best_winding[pair[better]] = k
            conv[pair[better]] = convk[better]

    if not conv.all():
        bad = int(np.flatnonzero(~conv)[0])
        raise MinimizationError(
            f"minimal action from (x, t) = ({starts[bad]:.12g}, {a:.12g}) to "
            f"({ends[bad]:.12g}, {b:.12g}) failed to converge at winding "
            f"{best_winding[bad]}",
            best_value=float(best_e[bad]),
            best_curve=DiscretizedCurve(a, b, rows[bad], int(best_winding[bad])))

    values = exact_row_actions(sys, a, b, rows)
    values += np.asarray(sys.action_offset(starts, ends + best_winding, a, b), dtype=float)
    return values, rows, best_winding


def assemble_kernel(sys, grid: Grid, s, delta,
                    settings: MinimizationSettings | None = None,
                    row_chunk: int | None = None) -> TropicalKernel:
    """Minimal action between all grid-point pairs over [s, s + delta].

    The system declares index maps under which the kernel is invariant
    (``sys.kernel_symmetries``); one representative pair per orbit, its
    smallest flat index, is minimized and its value copied to the rest of
    the orbit. Before the copy is trusted, a fixed seeded sample of
    ``SYMMETRY_SAMPLE`` mirrored entries is solved directly, and any gap
    above ``SYMMETRY_TOLERANCE`` raises.

    Pairs go through ``winding_search``, the same search as
    ``minimal_action``, in batches of ``row_chunk`` grid rows' worth of
    pairs; this is the hot loop of the whole toolkit. The default chunk
    keeps one batch with all its windings under a million floats, and the
    kernel bits do not depend on it. Entries agree with ``minimal_action``
    to rounding (1e-12), not bit for bit, because a one-pair batch runs
    its BLAS products through a different routine.
    """
    if settings is None:
        settings = MinimizationSettings()
    if not (0.0 < delta <= 1.0):
        raise ConfigurationError("kernel duration must lie in (0, 1]")
    n = grid.n
    pts = grid.points
    if row_chunk is None:
        n_wind = len(winding_candidates(delta, settings))
        n_seg = segments_for(delta, settings)
        row_chunk = min(n, max(1, 1_000_000 // (n * n_wind * (n_seg + 1))))

    a, b = float(s), float(s) + float(delta)

    def solve_pairs(flat):
        """Entries at the given flat indices, one search batch at a time."""
        out = np.empty(flat.size)
        step = row_chunk * n
        for p0 in range(0, flat.size, step):
            pairs = flat[p0:p0 + step]
            out[p0:p0 + pairs.size], _, _ = winding_search(
                sys, a, b, pts[pairs // n], pts[pairs % n], settings)
        return out

    label = symmetry_orbits(sys.kernel_symmetries(n, a, float(delta)), n)
    flat = np.arange(n * n)
    reps = np.flatnonzero(label == flat)
    values = np.empty(n * n)
    values[reps] = solve_pairs(reps)
    matrix = values[label].reshape(n, n)

    mirrored = np.flatnonzero(label != flat)
    if mirrored.size:
        rng = np.random.default_rng(0)  # a fixed sample: assembly stays deterministic
        sample = np.sort(rng.choice(mirrored, size=min(SYMMETRY_SAMPLE, mirrored.size),
                                    replace=False))
        gaps = np.abs(solve_pairs(sample) - values[label[sample]])
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
