"""Fixed-endpoint minimal action by the direct method.

The discrete objective is the midpoint-rule action of a broken line with
the endpoints pinned; the straight lift in each winding class seeds a
first-order descent. Many endpoint pairs are minimized simultaneously as
rows of one batch, which is what makes kernel assembly affordable: every
iteration is a handful of vectorized trig evaluations over many rows.
The descent runs on contiguous blocks of the batch of at most
``systems.BLOCK_FLOATS`` floats of samples (``systems.row_blocks``), so
its temporaries stay cache-sized whatever the batch size. Every phase
updates one batch state, the samples, values and gradients, in place:
the rows no block finishes are polished, and the saddles of every block
escape, once per batch. The search over windings, with its pruning and
tie policy, is ``tropical.winding_search``; ``minimal_action`` is its
one-pair call.

Rows of at most ``SEGMENTS_PER_UNIT_TIME`` segments, every kernel window,
descend in float32 and are finished in float64: mixed-precision iterative
refinement (Higham, Accuracy and Stability of Numerical Algorithms, 2nd
ed., 2002, ch. 12). Their spectral phase runs on a float32 copy of each
block to ``FLOAT32_GRADIENT_STOP``, where float32 trigonometry costs a
fraction of float64, and the float64 Newton polish takes every row to
``GRADIENT_TOLERANCE``. Longer rows keep the float64 descent: their
float32 preconditioner has subnormal entries, and the polish's
tridiagonal solve is a Python loop over their samples.

For every system, descent is preconditioned by the inverse of the
kinetic Hessian plus half the curvature bound on its diagonal, with a
per-row spectral (Barzilai-Borwein) step length and a nonmonotone
backtracking line search. That matrix is a constant tridiagonal Toeplitz
matrix, so its inverse is written down from its pivots in O(n^2)
operations (``_preconditioner_inverse``), and one dense inverse serves
a block's rows as one matrix product. The spectral phase, its backtracking,
the Newton polish and the saddle test all evaluate full sample rows at
the points of ``systems.midpoint_geometry``, the geometry of
``exact_row_actions``, through one evaluator. Every curve has
``SEGMENTS_PER_UNIT_TIME`` segments per unit time, and everything is
deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .systems import DiscretizedCurve, midpoint_geometry, reduce_mod_1, row_blocks

ARMIJO = 1e-4
MAX_BACKTRACK = 30
NONMONOTONE_WINDOW = 5
SPECTRAL_PHASE_BUDGET = 20
# Newton steps of the polish: a row whose Hessian has one soft eigenvalue
# walks a long curved valley, one accepted step at a time (a two-well row
# over 2.5 time units needs 169); a row that converges stops there
POLISH_BUDGET = 400
# sup norm of the discrete-action gradient below which a row has converged
GRADIENT_TOLERANCE = 1e-9
# the float32 spectral phase's stop. Rounding a lifted sample z to float32
# moves it by eps32 |z| / 2, so a velocity, and the gradient's difference of
# L_v = v across a sample, by about eps32 |z| / h: at unit windows (|z| <= 2,
# h = 1/32) its floor is about 1.2e-7 * 2 * 32 ~ 1e-5. The stop sits an order
# above that floor, where the descent still makes progress, and the float64
# Newton polish takes every row the rest of the way
FLOAT32_GRADIENT_STOP = 1e-4
# midpoint segments per unit of elapsed time, the one resolution of every curve
SEGMENTS_PER_UNIT_TIME = 32


@dataclass(frozen=True)
class MinimizationSettings:
    """No field: the resolution is ``SEGMENTS_PER_UNIT_TIME``. Kept only
    because ``bench/tracing.py`` builds one to call ``winding_candidates``;
    nothing in the toolkit reads it."""


def segments_for(duration: float) -> int:
    return max(2, int(round(SEGMENTS_PER_UNIT_TIME * duration)))


def winding_candidates(duration=None, settings=None) -> list[int]:
    """The first shell of windings, ordered by (|k|, k), whatever the
    duration: ``tropical.winding_search`` bounds the windings past it one
    shell at a time. The parameters are unused; they keep the signature
    that ``bench/tracing.py`` imports and calls."""
    return [0, -1, 1]


def _straight_lifts(starts, ends, n_seg):
    frac = np.arange(n_seg + 1) / n_seg
    z = starts[:, None] + (ends - starts)[:, None] * frac[None, :]
    z[:, 0] = starts
    z[:, -1] = ends
    return z


def _evaluate(sys, rows, h, tmid):
    """(value, interior gradient) of the batched midpoint-rule action of
    full sample rows, endpoints held fixed; the values are plain sums, not
    the fsum of ``exact_row_actions``."""
    mid, vel = midpoint_geometry(rows, h)
    lag, lx, lv = sys.lagrangian_and_grads(mid, vel, tmid)
    e = h * np.sum(lag, axis=1)
    g = 0.5 * h * (lx[:, :-1] + lx[:, 1:]) + (lv[:, :-1] - lv[:, 1:])
    return e, g


def _forward_sweep(diag, off, rhs=None):
    """Forward elimination of symmetric tridiagonal systems stored
    transposed, one column per system, so each step reads one contiguous
    row: (pivots, eliminated right-hand side), the latter None when no
    ``rhs`` is given."""
    piv = np.empty_like(diag)
    piv[0] = diag[0]
    y = None if rhs is None else np.empty_like(rhs)
    if y is not None:
        y[0] = rhs[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, diag.shape[0]):
            w = off[i - 1] / piv[i - 1]
            piv[i] = diag[i] - w * off[i - 1]
            if y is not None:
                y[i] = rhs[i] - w * y[i - 1]
    return piv, y


def _positive_definite(diag, off):
    """Whether each row's symmetric tridiagonal matrix is positive
    definite: all its elimination pivots are positive. This is the ``ok``
    of ``_thomas_spd`` without a right-hand side or back substitution."""
    piv, _ = _forward_sweep(np.ascontiguousarray(diag.T), np.ascontiguousarray(off.T))
    return np.all(piv > 0.0, axis=0)


def _thomas_spd(diag, off, rhs):
    """Vectorized symmetric tridiagonal solve, one system per row.

    Returns (x, ok); ``ok`` is False for rows whose elimination pivots are
    not all positive (matrix not positive definite), whose solutions are
    garbage and must be retried after regularization. The elimination
    runs on transposed copies (``_forward_sweep``).
    """
    diag, off, rhs = (np.ascontiguousarray(a.T) for a in (diag, off, rhs))
    piv, y = _forward_sweep(diag, off, rhs)
    x = np.empty_like(rhs)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        x[-1] = y[-1] / piv[-1]
        for i in range(diag.shape[0] - 2, -1, -1):
            x[i] = (y[i] - off[i] * x[i + 1]) / piv[i]
    ok = np.all(piv > 0.0, axis=0) & np.all(np.isfinite(x), axis=0)
    return x.T, ok


def _tridiagonal_hessian(sys, mid, vel, tmid, h):
    """(diag, off) of the discrete-action Hessian in the interior samples,
    from the mass and L_xx at the segment midpoints; the Lagrangian has no
    xv coupling for every built-in family and lift."""
    kin = sys.mass / h
    curv = 0.25 * h * np.asarray(sys.lagrangian_xx(mid, vel, tmid), dtype=float)
    diag = 2.0 * kin + (curv[:, :-1] + curv[:, 1:])
    off = -kin + curv[:, 1:-1]
    return diag, off


def _polish_rows(sys, z, h, tmid, e, g, gsup):
    """Damped regularized Newton on the discrete stationarity system,
    batched over the rows of finite value whose ``gsup`` exceeds
    ``GRADIENT_TOLERANCE``, until none does or ``POLISH_BUDGET`` steps are
    spent.

    It finishes every row of a float32 descent, which stops near
    ``FLOAT32_GRADIENT_STOP``, in a few quadratically convergent steps.
    Near-heteroclinic entries put the minimizer in a long curved valley
    where spectral first-order steps stall with a small but stubborn
    gradient and a genuinely wrong value (observed 3e-3 on the two-well
    system); the exact tridiagonal Hessian fixes those rows cheaply. Each
    step works through its rows one ``row_blocks`` chunk at a time
    (``_newton_step``), so its temporaries stay block-sized however many
    rows it polishes.
    Assumes the Lagrangian has no xv coupling, which holds for
    every built-in family and lift. Starts from the batch's ``e``, ``g``
    and ``gsup`` as ``_evaluate`` gave them; each step reads its Hessian
    from the samples' midpoint geometry, and an accepted trial point keeps
    the value and gradient its line search evaluated. Updates ``z``, ``e``,
    ``g`` and ``gsup`` in place; a row within the tolerance, or whose value
    is not finite, is never touched: no Newton step brings it back.
    """
    reg = np.zeros(z.shape[0])
    for _ in range(POLISH_BUDGET):
        idx = np.flatnonzero((gsup > GRADIENT_TOLERANCE) & np.isfinite(e))
        if idx.size == 0:
            break
        for chunk in row_blocks(idx.size, z.shape[1]):
            _newton_step(sys, z, h, tmid, e, g, gsup, reg, idx[chunk])


def _newton_step(sys, z, h, tmid, e, g, gsup, reg, idx):
    """One step of ``_polish_rows`` on the rows ``idx`` of the batch state
    and their regularization ``reg``, in place."""
    za, ga, e0, gsup0 = z[idx], g[idx], e[idx], gsup[idx]
    diag, off = _tridiagonal_hessian(sys, *midpoint_geometry(za, h), tmid, h)
    scale = np.max(np.abs(diag), axis=1)
    rid = reg[idx].copy()
    step = np.empty_like(ga)
    todo = np.arange(idx.size)
    for _ in range(60):
        sol, ok = _thomas_spd(diag[todo] + rid[todo, None], off[todo], -ga[todo])
        dd_ok = np.einsum("ij,ij->i", ga[todo], sol) < 0.0
        good = ok & dd_ok
        step[todo[good]] = sol[good]
        todo = todo[~good]
        if todo.size == 0:
            break
        rid[todo] = np.maximum(2.0 * rid[todo], 1e-8 * scale[todo])
    if todo.size:  # pragma: no cover - PD always reached eventually
        step[todo] = -ga[todo]
    dd = np.einsum("ij,ij->i", ga, step)
    t = np.ones(idx.size)
    accepted = np.zeros(idx.size, dtype=bool)
    for _ in range(MAX_BACKTRACK):
        trial = np.flatnonzero(~accepted)
        if trial.size == 0:
            break
        cand = za[trial].copy()
        cand[:, 1:-1] += t[trial, None] * step[trial]
        e_c, g_c = _evaluate(sys, cand, h, tmid)
        gsup_c = np.max(np.abs(g_c), axis=1)
        # absolute noise allowance keeps the endgame alive once the
        # decrease drops below float resolution of the action value;
        # a gradient-norm drop is then the effective acceptance test
        noise = 1e-14 * (1.0 + np.abs(e0[trial]))
        armijo = e_c <= e0[trial] + ARMIJO * t[trial] * dd[trial] + noise
        g_drop = gsup_c <= 0.9 * gsup0[trial]
        ok = armijo & (g_drop | (e_c <= e0[trial]))
        hit = idx[trial[ok]]
        z[hit], e[hit], g[hit] = cand[ok], e_c[ok], g_c[ok]
        gsup[hit] = gsup_c[ok]
        accepted[trial[ok]] = True
        t[trial[~ok]] *= 0.5
    rid[~accepted] = np.maximum(10.0 * rid[~accepted], 1e-8 * scale[~accepted])
    rid[accepted & (t == 1.0)] *= 0.25
    reg[idx] = rid


def _preconditioner_inverse(n_int, h, sigma):
    """The inverse of P = tridiag(-b, a, -b), a = 2/h + sigma, b = 1/h, the
    kinetic Hessian of unit mass plus ``sigma`` on its diagonal, in closed
    form (Meurant 1992), in O(n_int^2) operations.

    With the forward pivots d_1 = a, d_k = a - b^2 / d_(k-1), persymmetry
    gives the diagonal (P^-1)_jj = 1 / (d_j + d_(n+1-j) - a), and each
    entry above it is the one below times b / d_i:
    (P^-1)_ij = (P^-1)_jj prod_(k=i..j-1) b / d_k for i < j, mirrored below
    the diagonal, so the result is exactly symmetric. Every ratio b / d_k
    lies in (0, 1), so no product overflows at any n_int; sigma = 0 (the
    free family) needs no special case.
    """
    a, b = 2.0 / h + sigma, 1.0 / h
    pivots = [a]
    for _ in range(1, n_int):
        pivots.append(a - b * b / pivots[-1])
    ratio = [b / d for d in pivots]
    pivots = np.array(pivots)
    inv = np.empty((n_int, n_int))
    np.fill_diagonal(inv, 1.0 / (pivots + pivots[::-1] - a))
    for i in range(n_int - 2, -1, -1):
        inv[i + 1:, i] = np.multiply(inv[i + 1, i + 1:], ratio[i], out=inv[i, i + 1:])
    return inv


SADDLE_ESCAPE_BUMP = 0.05


def _spectral_phase(sys, z, e, g, gsup, h, tmid, pinv):
    """Preconditioned spectral descent of one block of rows, in place:
    ``z``, ``e``, ``g`` and ``gsup`` are the block's views of the batch
    state, and each row ends at its last accepted point with its value,
    gradient and gradient sup norm there. A row stops at
    ``GRADIENT_TOLERANCE``, or at ``FLOAT32_GRADIENT_STOP`` when the block
    is float32. Returns the iterations run."""
    def descend(rows, step, d):
        # moves the interior samples only: the endpoints stay exact
        out = rows.copy()
        out[:, 1:-1] -= step[:, None] * d
        return out

    m = z.shape[0]
    stop = FLOAT32_GRADIENT_STOP if z.dtype == np.float32 else GRADIENT_TOLERANCE
    e[:], g[:] = _evaluate(sys, z, h, tmid)
    gsup[:] = np.max(np.abs(g), axis=1)
    converged = gsup <= stop
    stalled = np.zeros(m, dtype=bool)
    alpha = np.ones(m, dtype=z.dtype)
    hist = np.tile(e[:, None], (1, NONMONOTONE_WINDOW))
    hist_ptr = np.zeros(m, dtype=int)
    iterations = 0

    for it in range(SPECTRAL_PHASE_BUDGET):
        idx = np.flatnonzero(~(converged | stalled))
        if idx.size == 0:
            break
        iterations = it + 1
        full = idx.size == m
        za = z if full else z[idx]
        ga = g if full else g[idx]
        d = ga @ pinv
        dd = np.einsum("ij,ij->i", ga, d)
        step = alpha[idx].copy()
        ref = hist[idx].max(axis=1)

        # fused first trial: gradient comes along for free when accepted
        cand = descend(za, step, d)
        e_t, g_t = _evaluate(sys, cand, h, tmid)
        accepted = e_t <= ref - ARMIJO * step * dd
        if accepted.all():
            z_next, e_next, g_next = cand, e_t, g_t
            pending = np.empty(0, dtype=int)
        else:
            z_next = np.where(accepted[:, None], cand, za)
            e_next = np.where(accepted, e_t, e[idx])
            g_next = np.where(accepted[:, None], g_t, ga)
            pending = np.flatnonzero(~accepted)
        for _ in range(MAX_BACKTRACK):
            if pending.size == 0:
                break
            step[pending] *= 0.5
            cand = descend(za[pending], step[pending], d[pending])
            e_c, g_c = _evaluate(sys, cand, h, tmid)
            ok = e_c <= ref[pending] - ARMIJO * step[pending] * dd[pending]
            hit = pending[ok]
            z_next[hit], e_next[hit], g_next[hit] = cand[ok], e_c[ok], g_c[ok]
            accepted[hit] = True
            pending = pending[~ok]

        if accepted.all():
            rows = idx
            z_acc, e_acc, g_acc = z_next, e_next, g_next
        else:
            stalled[idx[~accepted]] = True
            acc = np.flatnonzero(accepted)
            if acc.size == 0:
                continue
            rows = idx[acc]
            z_acc, e_acc, g_acc = z_next[acc], e_next[acc], g_next[acc]
            za, ga = za[acc], ga[acc]
        s_vec = z_acc[:, 1:-1] - za[:, 1:-1]
        y_vec = g_acc - ga
        sy = np.einsum("ij,ij->i", s_vec, y_vec)
        y_pinv = np.einsum("ij,ij->i", y_vec, y_vec @ pinv)
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = sy / y_pinv
        bb[~np.isfinite(bb) | (bb <= 0.0)] = 1.0
        alpha[rows] = np.clip(bb, 1e-4, 1e2)
        z[rows] = z_acc
        e[rows] = e_acc
        g[rows] = g_acc
        hist[rows, hist_ptr[rows]] = e_acc
        hist_ptr[rows] = (hist_ptr[rows] + 1) % NONMONOTONE_WINDOW
        gsup[rows] = np.max(np.abs(g_acc), axis=1)
        converged[rows] = gsup[rows] <= stop
    return iterations


def _float32_spectral_phase(sys, z, e, g, gsup, h, tmid, pinv):
    """``_spectral_phase`` of one block on a float32 copy of its samples,
    with a float32 ``pinv``. Only the interior samples are copied back, so
    the endpoints stay exact; the block's value, gradient and gradient sup
    norm are then evaluated in float64 for the polish. Returns the
    iterations run."""
    low = z.astype(np.float32)
    low_e, low_gsup = np.empty((2, z.shape[0]), dtype=np.float32)
    iterations = _spectral_phase(sys, low, low_e, np.empty(g.shape, dtype=np.float32),
                                 low_gsup, h, tmid.astype(np.float32), pinv)
    z[:, 1:-1] = low[:, 1:-1]
    e[:], g[:] = _evaluate(sys, z, h, tmid)
    gsup[:] = np.max(np.abs(g), axis=1)
    return iterations


def minimize_straight_batch(sys, a, b, n_seg, z0, _escape: bool = True):
    """Minimize rows of ``z0`` (endpoints fixed) over interior samples.

    Returns (z, e_quad, gsup, converged, iterations). ``e_quad`` is the
    per-row midpoint quadrature value, a plain sum. Every
    phase evaluates full rows through ``_evaluate``, so for every row
    ``e_quad`` and ``gsup`` are its value and gradient sup norm at the
    returned samples, in float64. ``iterations`` is the most spectral
    iterations any block ran.

    The spectral phase runs on the contiguous blocks of ``row_blocks``,
    each to its own convergence or budget, so only the samples, values,
    gradients and flags are batch-sized. When the rows have at most
    ``SEGMENTS_PER_UNIT_TIME`` segments, each block descends in float32
    (``_float32_spectral_phase``), with the preconditioner cast to float32
    once per batch, to ``FLOAT32_GRADIENT_STOP``; only its interior
    samples are copied back, and the block is evaluated again in float64.
    Longer rows descend in float64 to ``GRADIENT_TOLERANCE``. The
    preconditioner is the inverse of the kinetic-part Hessian plus half
    the system's curvature bound on the diagonal, built in closed form by
    ``_preconditioner_inverse`` in O(n_seg^2) and applied to a block's
    rows as one dense product. Steps
    are per-row spectral (Barzilai-Borwein) lengths with a nonmonotone
    Armijo backtracking safeguard; every trial point costs one fused
    evaluation of value and gradient. The rows no block converges get one
    Newton polish per batch: every row of a float32 batch, and a fraction
    of a percent of a float64 one, near heteroclinic connections. Its tail
    of steps costs about as much for a few rows as for many.

    Descent can end on a critical point of the discrete action that is
    not a minimum: a start can sit on one (a constant lift at a symmetric
    equilibrium of the potential), and a start symmetric under
    z(t) -> 2 w - z(1 - t) about a well centre w keeps that symmetry and
    ends on the best symmetric path, a saddle. So every converged row
    whose Hessian is not positive definite (a nonpositive pivot of its
    tridiagonal elimination, tested block by block) is re-minimized from
    two deterministic sine bumps and keeps the lowest result; the trapped
    rows of every block escape together in one batch. A row's arithmetic
    does not depend on its block or batch, up to BLAS rounding of a
    one-row product, in float32 as in float64.
    """
    z = np.array(z0, dtype=float)
    m, n_pts = z.shape
    if n_pts != n_seg + 1:
        raise ConfigurationError("z0 shape inconsistent with n_seg")
    h = (b - a) / n_seg
    tmid = a + h * (np.arange(n_seg) + 0.5)
    n_int = n_seg - 1

    pinv = _preconditioner_inverse(n_int, h, 0.5 * h * sys.lagrangian_xx_bound())
    phase = _spectral_phase
    if n_seg <= SEGMENTS_PER_UNIT_TIME:  # a row of at most unit time
        phase, pinv = _float32_spectral_phase, pinv.astype(np.float32)
    blocks = row_blocks(m, n_pts)
    e, gsup = np.empty(m), np.empty(m)
    g = np.empty((m, n_int))
    iterations = 0
    for block in blocks:
        iterations = max(iterations, phase(
            sys, z[block], e[block], g[block], gsup[block], h, tmid, pinv))
    _polish_rows(sys, z, h, tmid, e, g, gsup)
    converged = gsup <= GRADIENT_TOLERANCE

    if _escape:
        trapped = []
        for block in blocks:
            rows = block.start + np.flatnonzero(converged[block])
            hessian = _tridiagonal_hessian(sys, *midpoint_geometry(z[rows], h), tmid, h)
            trapped.append(rows[~_positive_definite(*hessian)])
        trapped = np.concatenate(trapped)
        if trapped.size:
            frac = np.arange(n_seg + 1) / n_seg
            bump = SADDLE_ESCAPE_BUMP * np.sin(np.pi * frac)
            bump[0] = bump[-1] = 0.0
            stacked = np.vstack([z[trapped] + bump, z[trapped] - bump])
            z_esc, e_esc, g_esc, conv_esc, _ = minimize_straight_batch(
                sys, a, b, n_seg, stacked, _escape=False)
            for pos, row in enumerate(trapped):
                for cand in (pos, pos + trapped.size):
                    if conv_esc[cand] and e_esc[cand] < e[row]:
                        z[row] = z_esc[cand]
                        e[row] = e_esc[cand]
                        gsup[row] = g_esc[cand]
                        converged[row] = True
    return z, e, gsup, converged, iterations


def check_endpoints(x, a, y, b) -> None:
    """Raise ``ConfigurationError`` unless the endpoints x, y and the times
    a < b of a minimal action are finite."""
    if not all(math.isfinite(z) for z in (x, a, y, b)):
        raise ConfigurationError("minimal_action needs finite endpoints and times")
    if not b > a:
        raise ConfigurationError("minimal_action requires b > a")


def minimal_action(sys, x, a, y, b):
    """Least action over curves from (x, a) to (y, b), with winding search.

    Returns (value, curve). The value is ``curve_action`` of the returned
    curve: both are ``exact_row_actions`` of the same row. Windings are searched, pruned and selected by
    ``tropical.winding_search``, the kernel assembler's own search: ties
    break toward smaller absolute winding, then toward the negative one,
    and a winner that did not converge raises ``MinimizationError``
    carrying its value and curve. The value agrees with the kernel entry
    for the same endpoints to rounding (1e-12), not bit for bit: BLAS
    evaluates the one-row products of a one-pair batch by a different
    routine than the many-row products of a kernel batch.
    """
    # tropical imports this module, so the search is imported at call time
    from .tropical import winding_search

    check_endpoints(x, a, y, b)
    starts = np.array([float(reduce_mod_1(x))])
    ends = np.array([float(reduce_mod_1(y))])
    values, rows, windings = winding_search(sys, a, b, starts, ends)
    curve = DiscretizedCurve(t0=a, t1=b, samples=rows[0], winding=int(windings[0]))
    return float(values[0]), curve
