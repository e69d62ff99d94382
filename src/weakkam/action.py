"""Fixed-endpoint minimal action by the direct method.

The discrete objective is the midpoint-rule action of a broken line with
the endpoints pinned; the straight lift in each winding class seeds a
first-order descent. Many endpoint pairs are minimized simultaneously as
rows of one batch, which is what makes kernel assembly affordable: every
iteration is a handful of vectorized trig evaluations over the whole
batch. The search over windings, with its pruning and tie policy, is
``tropical.winding_search``; ``minimal_action`` is its one-pair call.

Descent uses the exact inverse of the free-action Hessian (a constant
tridiagonal) as preconditioner, a per-row spectral (Barzilai-Borwein)
step length, and a nonmonotone backtracking line search. Everything is
deterministic for fixed settings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .systems import DiscretizedCurve, reduce_mod_1

ARMIJO = 1e-4
MAX_BACKTRACK = 30
NONMONOTONE_WINDOW = 5
SPECTRAL_PHASE_BUDGET = 20
POLISH_BUDGET = 100
# sup norm of the discrete-action gradient below which a row has converged
GRADIENT_TOLERANCE = 1e-9


@dataclass(frozen=True)
class MinimizationSettings:
    """Direct-method knobs.

    ``n_segments`` counts segments per unit of elapsed time;
    ``winding_range`` bounds the enumerated windings per unit of elapsed
    time. A winning row whose gradient sup norm misses
    ``GRADIENT_TOLERANCE`` raises ``MinimizationError``.
    """

    n_segments: int = 32
    winding_range: int = 1

    def __post_init__(self):
        if self.n_segments < 2:
            raise ConfigurationError("n_segments must be at least 2")
        if self.winding_range < 0:
            raise ConfigurationError("winding_range must be nonnegative")


def segments_for(duration: float, settings: MinimizationSettings) -> int:
    return max(2, int(round(settings.n_segments * duration)))


def winding_candidates(duration: float, settings: MinimizationSettings) -> list[int]:
    """Windings ordered by (|k|, k); the cap grows with elapsed time."""
    cap = settings.winding_range * int(math.ceil(duration))
    return sorted(range(-cap, cap + 1), key=lambda k: (abs(k), k))


def _tridiag_inverse(n: int) -> np.ndarray:
    # Closed-form inverse of tridiag(-1, 2, -1) with Dirichlet ends.
    i = np.arange(1.0, n + 1.0)
    return np.minimum.outer(i, i) * (n + 1.0 - np.maximum.outer(i, i)) / (n + 1.0)


def _straight_lifts(starts, ends, n_seg):
    frac = np.arange(n_seg + 1) / n_seg
    z = starts[:, None] + (ends - starts)[:, None] * frac[None, :]
    z[:, 0] = starts
    z[:, -1] = ends
    return z


def _thomas_spd(diag, off, rhs):
    """Vectorized symmetric tridiagonal solve, one system per row.

    Returns (x, ok); ``ok`` is False for rows whose elimination pivots are
    not all positive (matrix not positive definite), whose solutions are
    garbage and must be retried after regularization.
    """
    r, n = diag.shape
    piv = np.empty_like(diag)
    y = np.empty_like(rhs)
    piv[:, 0] = diag[:, 0]
    y[:, 0] = rhs[:, 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, n):
            w = off[:, i - 1] / piv[:, i - 1]
            piv[:, i] = diag[:, i] - w * off[:, i - 1]
            y[:, i] = rhs[:, i] - w * y[:, i - 1]
        x = np.empty_like(rhs)
        x[:, -1] = y[:, -1] / piv[:, -1]
        for i in range(n - 2, -1, -1):
            x[:, i] = (y[:, i] - off[:, i] * x[:, i + 1]) / piv[:, i]
    ok = np.all(piv > 0.0, axis=1) & np.all(np.isfinite(x), axis=1)
    return x, ok


def _tridiagonal_hessian(qsys, mid, vel, tmid, h):
    """(diag, off) of the discrete-action Hessian in the interior samples,
    from L_vv and L_xx at the segment midpoints; the quadrature Lagrangian
    has no xv coupling for every built-in family and lift."""
    kin = np.asarray(qsys.lagrangian_vv(mid, vel, tmid), dtype=float) / h
    curv = 0.25 * h * np.asarray(qsys.lagrangian_xx(mid, vel, tmid), dtype=float)
    diag = (kin[:, :-1] + kin[:, 1:]) + (curv[:, :-1] + curv[:, 1:])
    off = -kin[:, 1:-1] + curv[:, 1:-1]
    return diag, off


def _polish_rows(qsys, a, b, n_seg, z, tol, budget):
    """Damped regularized Newton on the discrete stationarity system,
    batched over rows.

    Near-heteroclinic entries put the minimizer in a long curved valley
    where spectral first-order steps stall with a small but stubborn
    gradient and a genuinely wrong value (observed 3e-3 on the two-well
    system); the exact tridiagonal Hessian fixes those few rows cheaply.
    Assumes the quadrature Lagrangian has no xv coupling, which holds for
    every built-in family and lift. Mutates ``z`` in place and returns
    (e, gsup).
    """
    h = (b - a) / n_seg
    tmid = a + h * (np.arange(n_seg) + 0.5)

    def eval_rows(rows):
        vel = np.diff(rows, axis=1) / h
        mid = 0.5 * (rows[:, 1:] + rows[:, :-1])
        lag, lx, lv = qsys.lagrangian_and_grads(mid, vel, tmid)
        e = h * np.sum(lag, axis=1)
        g = 0.5 * h * (lx[:, :-1] + lx[:, 1:]) + (lv[:, :-1] - lv[:, 1:])
        return e, g, mid, vel

    m = z.shape[0]
    e, g, mid, vel = eval_rows(z)
    reg = np.zeros(m)
    gsup = np.max(np.abs(g), axis=1)
    for _ in range(budget):
        idx = np.flatnonzero(gsup > tol)
        if idx.size == 0:
            break
        za, ga = z[idx], g[idx]
        diag, off = _tridiagonal_hessian(qsys, mid[idx], vel[idx], tmid, h)
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
        z_new = za.copy()
        for _ in range(MAX_BACKTRACK):
            trial = np.flatnonzero(~accepted)
            if trial.size == 0:
                break
            cand = za[trial].copy()
            cand[:, 1:-1] += t[trial, None] * step[trial]
            e_c, g_c, _, _ = eval_rows(cand)
            # absolute noise allowance keeps the endgame alive once the
            # decrease drops below float resolution of the action value;
            # a gradient-norm drop is then the effective acceptance test
            noise = 1e-14 * (1.0 + np.abs(e[idx][trial]))
            armijo = e_c <= e[idx][trial] + ARMIJO * t[trial] * dd[trial] + noise
            g_drop = np.max(np.abs(g_c), axis=1) <= 0.9 * gsup[idx][trial]
            ok = armijo & (g_drop | (e_c <= e[idx][trial]))
            hit = trial[ok]
            z_new[hit] = cand[ok]
            accepted[hit] = True
            t[trial[~ok]] *= 0.5
        rid[~accepted] = np.maximum(10.0 * rid[~accepted], 1e-8 * scale[~accepted])
        full = accepted & (t == 1.0)
        rid[full] *= 0.25
        reg[idx] = rid
        rows = idx[accepted]
        if rows.size:
            z[rows] = z_new[accepted]
            e_r, g_r, mid_r, vel_r = eval_rows(z[rows])
            e[rows] = e_r
            g[rows] = g_r
            mid[rows] = mid_r
            vel[rows] = vel_r
            gsup[rows] = np.max(np.abs(g_r), axis=1)
    return e, gsup


SADDLE_ESCAPE_BUMP = 0.05


def _hessian_pd_mask(qsys, a, b, n_seg, rows):
    """True where the discrete-action Hessian at the row is positive
    definite (tridiagonal factorization pivots all positive)."""
    h = (b - a) / n_seg
    tmid = a + h * (np.arange(n_seg) + 0.5)
    vel = np.diff(rows, axis=1) / h
    mid = 0.5 * (rows[:, 1:] + rows[:, :-1])
    diag, off = _tridiagonal_hessian(qsys, mid, vel, tmid, h)
    _, ok = _thomas_spd(diag, off, np.zeros_like(diag))
    return ok


def minimize_straight_batch(sys, a, b, n_seg, z0, _escape: bool = True):
    """Minimize rows of ``z0`` (endpoints fixed) over interior samples.

    Returns (z, e_quad, gsup, converged, iterations). ``e_quad`` is the
    per-row midpoint quadrature value without any boundary offset.

    The preconditioner is the kinetic-part Hessian plus half the system's
    curvature bound on the diagonal; its inverse is dense but shared by
    every row. Steps are per-row spectral (Barzilai-Borwein) lengths with
    a nonmonotone Armijo backtracking safeguard. The first trial point is
    evaluated with its gradient so that an accepted step (the common case)
    costs a single fused evaluation. Rows the spectral phase leaves
    unconverged (a fraction of a percent, near heteroclinic connections)
    get a per-row Newton polish.

    A start can sit exactly on a critical point of the discrete action
    without being a minimum (a constant lift at a symmetric equilibrium of
    the potential); descent cannot leave such a point, so rows converged
    at entry with a non-positive-definite Hessian are re-minimized from
    two deterministic sine bumps and keep the lowest result.
    """
    qsys = sys.quadrature_system()
    z = np.array(z0, dtype=float)
    m, n_pts = z.shape
    if n_pts != n_seg + 1:
        raise ConfigurationError("z0 shape inconsistent with n_seg")
    h = (b - a) / n_seg
    inv_h = 1.0 / h
    tmid = a + h * (np.arange(n_seg) + 0.5)
    n_int = n_seg - 1
    starts = z[:, 0].copy()
    ends = z[:, -1].copy()
    zi = np.ascontiguousarray(z[:, 1:-1])

    sigma = 0.5 * h * qsys.lagrangian_xx_bound()
    tri = (2.0 * np.eye(n_int) - np.eye(n_int, k=1) - np.eye(n_int, k=-1)) * inv_h
    pinv = np.linalg.inv(tri + sigma * np.eye(n_int)) if sigma > 0.0 \
        else h * _tridiag_inverse(n_int)
    tol = GRADIENT_TOLERANCE

    def geometry(interior, s0, s1):
        mid = np.empty((interior.shape[0], n_seg))
        vel = np.empty_like(mid)
        mid[:, 0] = 0.5 * (s0 + interior[:, 0])
        mid[:, -1] = 0.5 * (interior[:, -1] + s1)
        vel[:, 0] = (interior[:, 0] - s0) * inv_h
        vel[:, -1] = (s1 - interior[:, -1]) * inv_h
        if n_int > 1:
            mid[:, 1:-1] = 0.5 * (interior[:, 1:] + interior[:, :-1])
            vel[:, 1:-1] = (interior[:, 1:] - interior[:, :-1]) * inv_h
        return mid, vel

    def energy(interior, s0, s1):
        mid, vel = geometry(interior, s0, s1)
        return h * np.sum(qsys.lagrangian(mid, vel, tmid), axis=1)

    def energy_grad(interior, s0, s1):
        mid, vel = geometry(interior, s0, s1)
        lag, lx, lv = qsys.lagrangian_and_grads(mid, vel, tmid)
        e = h * np.sum(lag, axis=1)
        g = 0.5 * h * (lx[:, :-1] + lx[:, 1:]) + (lv[:, :-1] - lv[:, 1:])
        return e, g

    e, g = energy_grad(zi, starts, ends)
    gsup = np.max(np.abs(g), axis=1)
    converged = gsup <= tol
    entry_converged = converged.copy()
    stalled = np.zeros(m, dtype=bool)
    alpha = np.ones(m)
    hist = np.tile(e[:, None], (1, NONMONOTONE_WINDOW))
    hist_ptr = np.zeros(m, dtype=int)
    iterations = 0

    for it in range(SPECTRAL_PHASE_BUDGET):
        idx = np.flatnonzero(~(converged | stalled))
        if idx.size == 0:
            break
        iterations = it + 1
        full = idx.size == m
        za = zi if full else zi[idx]
        ga = g if full else g[idx]
        s0 = starts if full else starts[idx]
        s1 = ends if full else ends[idx]
        d = ga @ pinv
        dd = np.einsum("ij,ij->i", ga, d)
        step = alpha[idx].copy()
        ref = hist[idx].max(axis=1)

        # fused first trial: gradient comes along for free when accepted
        cand = za - step[:, None] * d
        e_t, g_t = energy_grad(cand, s0, s1)
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
            cand = za[pending] - step[pending, None] * d[pending]
            e_c = energy(cand, s0[pending], s1[pending])
            ok = e_c <= ref[pending] - ARMIJO * step[pending] * dd[pending]
            hit = pending[ok]
            if hit.size:
                z_next[hit] = cand[ok]
                e_next[hit] = e_c[ok]
                accepted[hit] = True
                _, g_h = energy_grad(z_next[hit], s0[hit], s1[hit])
                g_next[hit] = g_h
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
        s_vec = z_acc - za
        y_vec = g_acc - ga
        sy = np.einsum("ij,ij->i", s_vec, y_vec)
        y_pinv = np.einsum("ij,ij->i", y_vec, y_vec @ pinv)
        with np.errstate(divide="ignore", invalid="ignore"):
            bb = sy / y_pinv
        bb[~np.isfinite(bb) | (bb <= 0.0)] = 1.0
        alpha[rows] = np.clip(bb, 1e-4, 1e2)
        zi[rows] = z_acc
        e[rows] = e_acc
        g[rows] = g_acc
        hist[rows, hist_ptr[rows]] = e_acc
        hist_ptr[rows] = (hist_ptr[rows] + 1) % NONMONOTONE_WINDOW
        gsup[rows] = np.max(np.abs(g_acc), axis=1)
        converged[rows] = gsup[rows] <= tol

    z[:, 1:-1] = zi
    leftovers = np.flatnonzero(~converged)
    if leftovers.size:
        sub = z[leftovers]
        e_p, gsup_p = _polish_rows(qsys, a, b, n_seg, sub, tol, POLISH_BUDGET)
        z[leftovers] = sub
        e[leftovers] = e_p
        gsup[leftovers] = gsup_p
        converged[leftovers] = gsup_p <= tol

    if _escape and entry_converged.any():
        candidates = np.flatnonzero(entry_converged)
        pd_ok = _hessian_pd_mask(qsys, a, b, n_seg, z[candidates])
        trapped = candidates[~pd_ok]
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


def minimal_action(sys, x, a, y, b, settings: MinimizationSettings | None = None):
    """Least action over curves from (x, a) to (y, b), with winding search.

    Returns (value, curve). The value is ``curve_action`` of the returned
    curve: both are ``exact_row_actions`` of the same row plus the
    boundary term. Windings are searched, pruned and selected by
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

    if settings is None:
        settings = MinimizationSettings()
    if not b > a:
        raise ConfigurationError("minimal_action requires b > a")
    starts = np.array([float(reduce_mod_1(x))])
    ends = np.array([float(reduce_mod_1(y))])
    values, rows, windings = winding_search(sys, a, b, starts, ends, settings)
    curve = DiscretizedCurve(t0=a, t1=b, samples=rows[0], winding=int(windings[0]))
    return float(values[0]), curve
