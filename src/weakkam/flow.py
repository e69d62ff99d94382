"""Euler-Lagrange flow, variational equations, shooting, Floquet data.

Integration is one classical fourth-order Runge-Kutta loop at a fixed
step, batched over states: the segments of a shooting residual step
together, each column exactly as its own one-state call would. The fixed
step keeps flows, monodromies, and everything downstream bit-for-bit
reproducible; adaptive stepping would make kernels run-dependent.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DegenerateOrbitError, NoOrbitError,
                     NotPeriodicError, NumericalError)
from .systems import PhasePoint, reduce_mod_1

STEPS_PER_UNIT_TIME = 200
UNIT_CIRCLE_TOL = 1e-6
# closing defect the shooting must reach, and its Newton step budget
SHOOTING_TOLERANCE = 1e-10
MAX_NEWTON = 60
# closing defect a monodromy seed may leave: ten shooting tolerances
MONODROMY_DEFECT_TOL = 1e-9


@dataclass(frozen=True)
class PeriodicOrbit:
    """A refined periodic orbit with its linearization data.

    ``lam`` is the least positive real part among the Floquet exponents
    (1/time units); it is positive exactly when the orbit is hyperbolic.
    """

    x: float
    v: float
    period: int
    monodromy: np.ndarray
    multipliers: np.ndarray
    floquet_exponents: np.ndarray
    hyperbolic: bool
    lam: float | None


def _check_mechanical(sys):
    if not hasattr(sys, "mass"):
        raise ConfigurationError(
            "flow integration requires a constant mass, so that L_v is "
            "independent of x and t; tilted systems share the base flow, "
            "integrate that instead")


def _steps_for(duration):
    return max(1, int(round(STEPS_PER_UNIT_TIME * abs(duration))))


def _rk4(rhs, y0, t0, t1, n_steps):
    """States at the step times t0 + h*i, i = 0..n_steps, one row each.

    A (d, m) state holds m states as columns, with t0 and t1 scalars or
    length-m arrays; each column steps with its own h = (t1 - t0) / n_steps,
    bit for bit as its one-state call would."""
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=float)
    ys = np.empty((n_steps + 1,) + y.shape)
    ys[0] = y
    for i in range(n_steps):
        t = t0 + h * i
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        ys[i + 1] = y
    return ys


def _el_rhs(sys):
    def rhs(t, y):
        x, v = y
        return np.array([v, sys.lagrangian_x(x, v, t) / sys.mass])
    return rhs


def flow_trajectory(sys, p: PhasePoint, t1):
    """All RK4 steps of the flow from p to time t1, positions lifted.

    Returns (times, xs, vs) including both endpoints.
    """
    _check_mechanical(sys)
    n = _steps_for(t1 - p.t)
    ys = _rk4(_el_rhs(sys), [p.x, p.v], p.t, t1, n)
    times = p.t + (t1 - p.t) / n * np.arange(n + 1)
    return times, ys[:, 0], ys[:, 1]


def flow_map(sys, p: PhasePoint, t1) -> PhasePoint:
    """Endpoint of the Euler-Lagrange flow, x reduced mod 1."""
    _, xs, vs = flow_trajectory(sys, p, t1)
    return PhasePoint(x=float(reduce_mod_1(xs[-1])), v=float(vs[-1]), t=float(t1))


def _flow_with_variational(sys, x0, v0, t0, t1):
    """Integrate m states together with their 2x2 variational matrices.

    The arguments are length-m arrays; every state takes the step count of
    the first. Returns the m end positions and velocities and the
    (m, 2, 2) matrices."""
    _check_mechanical(sys)
    t0, t1 = np.asarray(t0, dtype=float), np.asarray(t1, dtype=float)
    n = _steps_for(t1[0] - t0[0])

    def rhs(t, y):
        # rows x, v, xi00, xi01, xi10, xi11; J xi = [[xi10, xi11], [ax xi00, ax xi01]]
        ax = sys.lagrangian_xx(y[0], y[1], t) / sys.mass
        dy = np.empty_like(y)
        dy[0], dy[1] = y[1], sys.lagrangian_x(y[0], y[1], t) / sys.mass
        dy[2:4], dy[4:] = y[4:], ax * y[2:4]
        return dy

    y0 = np.empty((6, t0.size))
    y0[0], y0[1], y0[2:] = x0, v0, np.eye(2).reshape(4, 1)
    y = _rk4(rhs, y0, t0, t1, n)[-1]
    return y[0], y[1], y[2:].T.reshape(-1, 2, 2)


def monodromy(sys, orbit_seed: PhasePoint, period: int) -> np.ndarray:
    """Derivative of the time-``period`` flow map along a periodic orbit.

    The seed must close up (mod 1 in x) within ``MONODROMY_DEFECT_TOL``.
    """
    if isinstance(period, bool) or not isinstance(period, numbers.Integral) or period < 1:
        raise ConfigurationError("period must be a positive integer")
    x1, v1, mats = _flow_with_variational(sys, [orbit_seed.x], [orbit_seed.v],
                                          [orbit_seed.t], [orbit_seed.t + period])
    dx = x1[0] - orbit_seed.x
    defect = float(np.hypot(dx - round(dx), v1[0] - orbit_seed.v))
    if defect > MONODROMY_DEFECT_TOL:
        raise NotPeriodicError(
            f"seed does not close up over period {period}: defect {defect:.3e}",
            defect=defect)
    return mats[0]


def floquet_analysis(mono: np.ndarray, period: int = 1):
    """Multipliers, Floquet exponents, hyperbolicity flag, and the least
    positive exponent rate.

    Multipliers are sorted by descending real part, then descending
    imaginary part; exponents are their principal-branch logs divided by
    the period. The returned ``lam`` is the least positive real part among
    the exponents; None when no exponent has positive real part.
    """
    mono = np.asarray(mono, dtype=float)
    if mono.ndim != 2 or mono.shape[0] != mono.shape[1] or mono.shape[0] % 2:
        raise ConfigurationError("monodromy must be a square even-dimensional matrix")
    try:
        mults = np.linalg.eigvals(mono)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericalError(f"eigenvalue solver failed: {exc}") from exc
    order = np.lexsort((-mults.imag, -mults.real))
    mults = mults[order]
    exponents = np.log(mults.astype(complex)) / period
    hyperbolic = bool(np.all(np.abs(np.abs(mults) - 1.0) > UNIT_CIRCLE_TOL))
    positive = exponents.real[exponents.real > 0.0]
    lam = float(positive.min()) if positive.size else None
    return mults, exponents, hyperbolic, lam


SHOTS_PER_UNIT_TIME = 8
# closing residual the sub-period factorization reaches before the
# full-period polish
SEGMENT_TOLERANCE = 1e-12


def _multiple_shooting(sys, starts, period, tol):
    """Damped Newton on the factorization of the period map into
    ``len(starts)`` equal segments, from the given segment start states,
    until the closing residual's sup norm is within ``tol``.

    Splitting the period into short segments keeps the per-segment
    amplification small, so the Newton basin around a hyperbolic orbit is
    wide; single shooting over a full period mixes in the parabolic
    rotating circles of the autonomous cases and loses the nearby saddle.
    Each residual integrates all segments in one batched call. One segment
    is single shooting, with the monodromy minus the identity as Jacobian.
    Returns the refined starting state and the (m, 2, 2) segment matrices
    of the last residual, which was evaluated at that state.
    """
    z = np.array(starts, dtype=float)
    m = z.shape[0]
    times = period / m * np.arange(m + 1)
    seg = np.arange(m)

    def residual(states):
        x1, v1, mats = _flow_with_variational(sys, states[:, 0], states[:, 1],
                                              times[:-1], times[1:])
        nxt = np.roll(states, -1, axis=0)
        res = np.stack((x1 - nxt[:, 0], v1 - nxt[:, 1]), axis=1)
        res[-1, 0] -= round(res[-1, 0])
        jac = np.zeros((m, 2, m, 2))
        jac[seg, :, seg, :] = mats
        jac[seg, :, (seg + 1) % m, :] -= np.eye(2)
        return res, jac.reshape(2 * m, 2 * m), mats

    res, jac, mats = residual(z)
    for _ in range(MAX_NEWTON):
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return z[0], mats
        if np.linalg.cond(jac) > 1e12:
            raise DegenerateOrbitError(
                "I - monodromy is singular; the orbit direction is not hyperbolic")
        step = np.linalg.solve(jac, -res.reshape(-1)).reshape(m, 2)
        lam = 1.0
        while True:
            z_new = z + lam * step
            trial = residual(z_new)
            if float(np.max(np.abs(trial[0]))) < norm:
                z, (res, jac, mats) = z_new, trial
                break
            lam *= 0.5
            if lam < 1e-6:
                raise NoOrbitError(
                    f"shooting stalled at defect {norm:.3e}")
        if not np.all(np.isfinite(z)) or np.max(np.abs(z[:, 1])) > 1e3:
            raise NoOrbitError("Newton shooting diverged")
    raise NoOrbitError(f"shooting did not converge; last defect {norm:.3e}")


def refine_periodic_orbit(sys, guess: PhasePoint, period: int) -> PeriodicOrbit:
    """Damped Newton shooting for a periodic orbit near ``guess``.

    Newton solves psi_period(z) - z = 0 by ``_multiple_shooting``: first on
    the sub-period factorization, every segment started at the guess, to
    ``SEGMENT_TOLERANCE``; then as its one-segment call over the full
    period, to ``SHOOTING_TOLERANCE``. The x component of the closing
    residual is wrapped to the nearest integer, so rotating orbits close
    up mod 1. The monodromy is the polish's last segment matrix, the
    full-period variational flow from the refined state, which
    ``monodromy`` would integrate a second time.
    """
    if isinstance(period, bool) or not isinstance(period, numbers.Integral) or period < 1:
        raise ConfigurationError("period must be a positive integer")
    period = int(period)
    starts = np.tile([guess.x, guess.v], (SHOTS_PER_UNIT_TIME * period, 1))
    z, _ = _multiple_shooting(sys, starts, period, SEGMENT_TOLERANCE)
    z, mats = _multiple_shooting(sys, z[None, :], period, SHOOTING_TOLERANCE)
    mono = mats[0]
    if abs(np.linalg.det(mono - np.eye(2))) < 1e-10:
        raise DegenerateOrbitError(
            "I - monodromy is singular at the refined point; the orbit has a "
            "non-hyperbolic direction")
    mults, exponents, hyperbolic, lam = floquet_analysis(mono, period)
    return PeriodicOrbit(x=float(reduce_mod_1(z[0])), v=float(z[1]), period=period,
                         monodromy=mono, multipliers=mults,
                         floquet_exponents=exponents, hyperbolic=hyperbolic,
                         lam=lam)
