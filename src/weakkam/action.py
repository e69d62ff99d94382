"""Fixed-endpoint minimal action by the direct method.

The discrete objective is the midpoint-rule action of a broken line with
the endpoints pinned; the straight lift in each winding class seeds a
first-order descent. Many endpoint pairs are minimized simultaneously as
rows of one batch, which is what makes kernel assembly affordable: every
iteration is a handful of vectorized trig evaluations over the whole
batch. The search over windings, with its pruning and tie policy, is
``tropical.winding_search``; ``minimal_action`` is its one-pair call.

For every system, descent is preconditioned by the inverse of the
kinetic Hessian plus half the curvature bound on its diagonal (a constant
tridiagonal, so one dense inverse serves every row), with a per-row
spectral (Barzilai-Borwein) step length and a nonmonotone backtracking
line search. The spectral phase, its backtracking, the Newton polish and
the saddle test all evaluate full sample rows at the points of
``systems.midpoint_geometry``, the geometry of ``exact_row_actions``,
through one evaluator. Every curve has ``SEGMENTS_PER_UNIT_TIME``
segments per unit time, and everything is deterministic.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .systems import DiscretizedCurve, midpoint_geometry, reduce_mod_1

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
    """(value, interior gradient, midpoints, velocities) of the batched
    midpoint-rule action of full sample rows, endpoints held fixed; the
    values are plain sums, not the fsum of ``exact_row_actions``."""
    mid, vel = midpoint_geometry(rows, h)
    lag, lx, lv = sys.lagrangian_and_grads(mid, vel, tmid)
    e = h * np.sum(lag, axis=1)
    g = 0.5 * h * (lx[:, :-1] + lx[:, 1:]) + (lv[:, :-1] - lv[:, 1:])
    return e, g, mid, vel


def _thomas_spd(diag, off, rhs):
    """Vectorized symmetric tridiagonal solve, one system per row.

    Returns (x, ok); ``ok`` is False for rows whose elimination pivots are
    not all positive (matrix not positive definite), whose solutions are
    garbage and must be retried after regularization. The elimination
    runs on transposed copies, so each step reads one contiguous column of
    the batch.
    """
    diag, off, rhs = (np.ascontiguousarray(a.T) for a in (diag, off, rhs))
    n = diag.shape[0]
    piv = np.empty_like(diag)
    y = np.empty_like(rhs)
    piv[0] = diag[0]
    y[0] = rhs[0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for i in range(1, n):
            w = off[i - 1] / piv[i - 1]
            piv[i] = diag[i] - w * off[i - 1]
            y[i] = rhs[i] - w * y[i - 1]
        x = np.empty_like(rhs)
        x[-1] = y[-1] / piv[-1]
        for i in range(n - 2, -1, -1):
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


def _polish_rows(sys, z, h, tmid, e, g):
    """Damped regularized Newton on the discrete stationarity system,
    batched over rows, until every gradient sup norm is within
    ``GRADIENT_TOLERANCE`` or ``POLISH_BUDGET`` steps are spent.

    Near-heteroclinic entries put the minimizer in a long curved valley
    where spectral first-order steps stall with a small but stubborn
    gradient and a genuinely wrong value (observed 3e-3 on the two-well
    system); the exact tridiagonal Hessian fixes those few rows cheaply.
    Assumes the Lagrangian has no xv coupling, which holds for
    every built-in family and lift. Starts from the rows' value ``e`` and
    gradient ``g`` as ``_evaluate`` gave them, so only their midpoint
    geometry is computed; an accepted trial point keeps the value,
    gradient and geometry its line search evaluated. Mutates ``z``, ``e``
    and ``g`` in place and returns (e, gsup).
    """
    mid, vel = midpoint_geometry(z, h)
    reg = np.zeros(z.shape[0])
    gsup = np.max(np.abs(g), axis=1)
    for _ in range(POLISH_BUDGET):
        idx = np.flatnonzero(gsup > GRADIENT_TOLERANCE)
        if idx.size == 0:
            break
        za, ga, e0, gsup0 = z[idx], g[idx], e[idx], gsup[idx]
        diag, off = _tridiagonal_hessian(sys, mid[idx], vel[idx], tmid, h)
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
            e_c, g_c, mid_c, vel_c = _evaluate(sys, cand, h, tmid)
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
            mid[hit], vel[hit], gsup[hit] = mid_c[ok], vel_c[ok], gsup_c[ok]
            accepted[trial[ok]] = True
            t[trial[~ok]] *= 0.5
        rid[~accepted] = np.maximum(10.0 * rid[~accepted], 1e-8 * scale[~accepted])
        rid[accepted & (t == 1.0)] *= 0.25
        reg[idx] = rid
    return e, gsup


SADDLE_ESCAPE_BUMP = 0.05


def minimize_straight_batch(sys, a, b, n_seg, z0, _escape: bool = True):
    """Minimize rows of ``z0`` (endpoints fixed) over interior samples.

    Returns (z, e_quad, gsup, converged, iterations). ``e_quad`` is the
    per-row midpoint quadrature value, a plain sum. Every
    phase evaluates full rows through ``_evaluate``, so for every row
    ``e_quad`` and ``gsup`` are its value and gradient sup norm at the
    returned samples.

    The preconditioner is the inverse of the kinetic-part Hessian plus
    half the system's curvature bound on the diagonal; it is dense but
    shared by every row. Steps are per-row spectral (Barzilai-Borwein)
    lengths with a nonmonotone Armijo backtracking safeguard; every trial
    point costs one fused evaluation of value and gradient. Rows the
    spectral phase leaves unconverged (a fraction of a percent, near
    heteroclinic connections) get a per-row Newton polish.

    Descent can end on a critical point of the discrete action that is
    not a minimum: a start can sit on one (a constant lift at a symmetric
    equilibrium of the potential), and a start symmetric under
    z(t) -> 2 w - z(1 - t) about a well centre w keeps that symmetry and
    ends on the best symmetric path, a saddle. So every converged row
    whose Hessian is not positive definite (a nonpositive pivot of its
    tridiagonal factorization) is re-minimized from two deterministic sine
    bumps and keeps the lowest result.
    """
    z = np.array(z0, dtype=float)
    m, n_pts = z.shape
    if n_pts != n_seg + 1:
        raise ConfigurationError("z0 shape inconsistent with n_seg")
    h = (b - a) / n_seg
    tmid = a + h * (np.arange(n_seg) + 0.5)
    n_int = n_seg - 1

    sigma = 0.5 * h * sys.lagrangian_xx_bound()
    tri = (2.0 * np.eye(n_int) - np.eye(n_int, k=1) - np.eye(n_int, k=-1)) * (1.0 / h)
    pinv = np.linalg.inv(tri + sigma * np.eye(n_int))

    def descend(rows, step, d):
        # moves the interior samples only: the endpoints stay exact
        out = rows.copy()
        out[:, 1:-1] -= step[:, None] * d
        return out

    e, g = _evaluate(sys, z, h, tmid)[:2]
    gsup = np.max(np.abs(g), axis=1)
    converged = gsup <= GRADIENT_TOLERANCE
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
        za = z if full else z[idx]
        ga = g if full else g[idx]
        d = ga @ pinv
        dd = np.einsum("ij,ij->i", ga, d)
        step = alpha[idx].copy()
        ref = hist[idx].max(axis=1)

        # fused first trial: gradient comes along for free when accepted
        cand = descend(za, step, d)
        e_t, g_t = _evaluate(sys, cand, h, tmid)[:2]
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
            e_c, g_c = _evaluate(sys, cand, h, tmid)[:2]
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
        converged[rows] = gsup[rows] <= GRADIENT_TOLERANCE

    leftovers = np.flatnonzero(~converged)
    if leftovers.size:
        sub = z[leftovers]
        e_p, gsup_p = _polish_rows(sys, sub, h, tmid, e[leftovers], g[leftovers])
        z[leftovers] = sub
        e[leftovers] = e_p
        gsup[leftovers] = gsup_p
        converged[leftovers] = gsup_p <= GRADIENT_TOLERANCE

    if _escape and converged.any():
        candidates = np.flatnonzero(converged)
        diag, off = _tridiagonal_hessian(sys, *midpoint_geometry(z[candidates], h),
                                         tmid, h)
        _, pd_ok = _thomas_spd(diag, off, np.zeros_like(diag))
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
