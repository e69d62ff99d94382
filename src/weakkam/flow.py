"""Euler-Lagrange flow, variational equations, shooting, Floquet data.

Integration is classical fourth-order Runge-Kutta at a fixed step. The
fixed step keeps flows, monodromies, and everything downstream bit-for-bit
reproducible; adaptive stepping would make kernels run-dependent.
"""
from __future__ import annotations

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
    """States at the step times t0 + h*i, i = 0..n_steps, one row each."""
    h = (t1 - t0) / n_steps
    y = np.array(y0, dtype=float)
    ys = np.empty((n_steps + 1, y.size))
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
    """Integrate the flow together with its 2x2 variational matrix."""
    _check_mechanical(sys)
    n = _steps_for(t1 - t0)

    def rhs(t, y):
        x, v = y[0], y[1]
        xi = y[2:].reshape(2, 2)
        a = sys.lagrangian_x(x, v, t) / sys.mass
        ax = sys.lagrangian_xx(x, v, t) / sys.mass
        jac = np.array([[0.0, 1.0], [float(ax), 0.0]])
        return np.hstack(([v, float(a)], (jac @ xi).reshape(-1)))

    y0 = np.hstack(([x0, v0], np.eye(2).reshape(-1)))
    y = _rk4(rhs, y0, t0, t1, n)[-1]
    return y[0], y[1], y[2:].reshape(2, 2)


def monodromy(sys, orbit_seed: PhasePoint, period: int) -> np.ndarray:
    """Derivative of the time-``period`` flow map along a periodic orbit.

    The seed must close up (mod 1 in x) within ``MONODROMY_DEFECT_TOL``.
    """
    if period < 1:
        raise ConfigurationError("period must be a positive integer")
    x1, v1, mat = _flow_with_variational(sys, orbit_seed.x, orbit_seed.v,
                                         orbit_seed.t, orbit_seed.t + period)
    dx = x1 - orbit_seed.x
    defect = float(np.hypot(dx - round(dx), v1 - orbit_seed.v))
    if defect > MONODROMY_DEFECT_TOL:
        raise NotPeriodicError(
            f"seed does not close up over period {period}: defect {defect:.3e}",
            defect=defect)
    return mat


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
    One segment is single shooting, with the monodromy minus the identity
    as Jacobian. Returns the refined starting state.
    """
    z = np.array(starts, dtype=float)
    m = z.shape[0]
    dt = period / m
    eye = np.eye(2)

    def residual(states):
        res = np.empty((m, 2))
        jac = np.zeros((2 * m, 2 * m))
        for k in range(m):
            x1, v1, a = _flow_with_variational(sys, states[k, 0], states[k, 1],
                                               k * dt, (k + 1) * dt)
            nxt = states[(k + 1) % m]
            dx = x1 - nxt[0]
            if k == m - 1:
                dx -= round(dx)
            res[k] = (dx, v1 - nxt[1])
            jac[2 * k:2 * k + 2, 2 * k:2 * k + 2] = a
            cols = 2 * ((k + 1) % m)
            jac[2 * k:2 * k + 2, cols:cols + 2] -= eye
        return res, jac

    res, jac = residual(z)
    for _ in range(MAX_NEWTON):
        norm = float(np.max(np.abs(res)))
        if norm <= tol:
            return z[0]
        if np.linalg.cond(jac) > 1e12:
            raise DegenerateOrbitError(
                "I - monodromy is singular; the orbit direction is not hyperbolic")
        step = np.linalg.solve(jac, -res.reshape(-1)).reshape(m, 2)
        lam = 1.0
        while True:
            z_new = z + lam * step
            res_new, jac_new = residual(z_new)
            if float(np.max(np.abs(res_new))) < norm:
                z, res, jac = z_new, res_new, jac_new
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
    up mod 1.
    """
    if period < 1:
        raise ConfigurationError("period must be a positive integer")
    period = int(period)
    starts = np.tile([guess.x, guess.v], (SHOTS_PER_UNIT_TIME * period, 1))
    z = _multiple_shooting(sys, starts, period, SEGMENT_TOLERANCE)
    z = _multiple_shooting(sys, z[None, :], period, SHOOTING_TOLERANCE)

    mono = monodromy(sys, PhasePoint(x=z[0], v=z[1], t=0.0), period)
    if abs(np.linalg.det(mono - np.eye(2))) < 1e-10:
        raise DegenerateOrbitError(
            "I - monodromy is singular at the refined point; the orbit has a "
            "non-hyperbolic direction")
    mults, exponents, hyperbolic, lam = floquet_analysis(mono, period)
    return PeriodicOrbit(x=float(reduce_mod_1(z[0])), v=float(z[1]), period=period,
                         monodromy=mono, multipliers=mults,
                         floquet_exponents=exponents, hyperbolic=hyperbolic,
                         lam=lam)
