"""Euler-Lagrange flow, variational equations, shooting, Floquet data.

Integration is one classical fourth-order Runge-Kutta stepper at a fixed
step over Python floats (``_rk4``), which carries every state with its
2x2 variational matrix: a trajectory seeds the identity and drops the
matrix rows, and the segments of a shooting residual step one after
another in one call, each exactly as its own one-state call would. The
right-hand side reads no time: the stepper tabulates the system's
modulation once per integration at every stage time, and each stage
inlines the float closed form of L_x and L_xx at one phase, about 2 us a
step. The fixed step keeps flows, monodromies, and everything downstream
bit-for-bit reproducible; adaptive stepping would make kernels
run-dependent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConfigurationError, DegenerateOrbitError, NoOrbitError,
                     NotPeriodicError, NumericalError)
from .systems import TWO_PI, PhasePoint, positive_integer, reduce_mod_1

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


def _rk4(sys, y0, t0, t1, n_steps):
    """States at the step times t0 + h*i, i = 0..n_steps, one row each, of
    the Euler-Lagrange flow of ``sys`` and its variational equation.

    A state is the six rows x, v, xi00, xi01, xi10, xi11, where the 2x2
    matrix xi solves xi' = [[0, 1], [a, 0]] xi with a = L_xx / mass; a
    (6, m) state holds m states as columns, with t0 and t1 scalars or
    length-m arrays, each column stepping with its own h = (t1 - t0) /
    n_steps. One ``modulation`` call tabulates the modulation at every
    stage time: t0 + h*i, its midpoint + 0.5*h (k2 and k3) and its end + h.

    A column steps as named Python floats, its four stages written out
    with the float closed forms inlined: the phase 2 pi q (x - floor(x)),
    folded to 0 where it rounds to 1.0 as in ``LagrangianSystem._phase``,
    L_x / mass = sin(phase) (A w m) / mass and L_xx / mass = A w^2
    cos(phase) m / mass, w = 2 pi q. These are the operations of the array
    closed forms and of the same RK4 loop on numpy arrays, in their order
    ((0.5*h)*k and h*k for the stages, (h/6)*(((k1 + 2 k2) + 2 k3) + k4)
    for the step), and math's sin and cos return numpy's values, so no bit
    differs. A step takes about 2 us (2.1 GHz Xeon, Python 3.11); on
    one-element numpy arrays, a call per operation, about 50.

    A position that is not finite cannot fold its phase, nor can the end
    position or velocity: the stepper then raises ``NumericalError``,
    naming the step where the state stopped being finite."""
    sin, cos, floor = math.sin, math.cos, math.floor
    h = (t1 - t0) / n_steps
    t = t0 + np.multiply.outer(np.arange(n_steps), h)
    stages = np.stack((t, t + 0.5 * h, t + h)).reshape(3, n_steps, -1)
    y = np.array(y0, dtype=float)
    cols = y.reshape(6, -1)
    steps = np.broadcast_to(np.ravel(h), cols.shape[1]).tolist()
    tables = np.broadcast_to(sys.modulation(stages), (3, n_steps, cols.shape[1])).T.tolist()
    w = TWO_PI * sys.freq
    aw, aww, mass = sys.amp * w, sys.amp * w * w, sys.mass
    paths = []
    try:
        for z, hj, table in zip(cols.T.tolist(), steps, tables):
            half, sixth = 0.5 * hj, hj / 6.0
            x, v, xi00, xi01, xi10, xi11 = z
            path = [z]
            append = path.append
            for m1, m2, m4 in table:
                ph = x - floor(x)
                if ph == 1.0:
                    ph = 0.0
                ph *= w
                f1 = sin(ph) * (aw * m1) / mass
                a = aww * cos(ph) * m1 / mass
                g1, e1 = a * xi00, a * xi01
                x2, v2 = x + half * v, v + half * f1
                p00, p01 = xi00 + half * xi10, xi01 + half * xi11
                p10, p11 = xi10 + half * g1, xi11 + half * e1

                ph = x2 - floor(x2)
                if ph == 1.0:
                    ph = 0.0
                ph *= w
                f2 = sin(ph) * (aw * m2) / mass
                a = aww * cos(ph) * m2 / mass
                g2, e2 = a * p00, a * p01
                x3, v3 = x + half * v2, v + half * f2
                q00, q01 = xi00 + half * p10, xi01 + half * p11
                q10, q11 = xi10 + half * g2, xi11 + half * e2

                ph = x3 - floor(x3)
                if ph == 1.0:
                    ph = 0.0
                ph *= w
                f3 = sin(ph) * (aw * m2) / mass
                a = aww * cos(ph) * m2 / mass
                g3, e3 = a * q00, a * q01
                x4, v4 = x + hj * v3, v + hj * f3
                r00, r01 = xi00 + hj * q10, xi01 + hj * q11
                r10, r11 = xi10 + hj * g3, xi11 + hj * e3

                ph = x4 - floor(x4)
                if ph == 1.0:
                    ph = 0.0
                ph *= w
                f4 = sin(ph) * (aw * m4) / mass
                a = aww * cos(ph) * m4 / mass
                g4, e4 = a * r00, a * r01

                # each row reads only the old values of the rows after it
                x += sixth * (((v + 2.0 * v2) + 2.0 * v3) + v4)
                v += sixth * (((f1 + 2.0 * f2) + 2.0 * f3) + f4)
                xi00 += sixth * (((xi10 + 2.0 * p10) + 2.0 * q10) + r10)
                xi01 += sixth * (((xi11 + 2.0 * p11) + 2.0 * q11) + r11)
                xi10 += sixth * (((g1 + 2.0 * g2) + 2.0 * g3) + g4)
                xi11 += sixth * (((e1 + 2.0 * e2) + 2.0 * e3) + e4)
                append((x, v, xi00, xi01, xi10, xi11))
            floor(x), floor(v)  # an end state has no next stage to fold it
            paths.append(path)
    except (OverflowError, ValueError):
        # floor of a non-finite position or end velocity, in column len(paths)
        step = next((i for i, state in enumerate(path)
                     if not all(map(math.isfinite, state))), len(path))
        t_step = np.broadcast_to(t0 + h * step, cols.shape[1])[len(paths)]
        raise NumericalError(
            f"the flow of {sys.label()} left the finite floats at step {step} of "
            f"{n_steps} (t = {t_step:g})") from None
    return np.array(paths).transpose(1, 2, 0).reshape((n_steps + 1,) + y.shape)


def flow_trajectory(sys, p: PhasePoint, t1):
    """All RK4 steps of the flow from p to time t1, positions lifted.

    Returns (times, xs, vs) including both endpoints.
    """
    _check_mechanical(sys)
    if not math.isfinite(t1):
        raise ConfigurationError(f"end time must be finite; got {t1}")
    n = _steps_for(t1 - p.t)
    ys = _rk4(sys, [p.x, p.v, 1.0, 0.0, 0.0, 1.0], p.t, t1, n)
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

    y0 = np.empty((6, t0.size))
    y0[0], y0[1], y0[2:] = x0, v0, np.eye(2).reshape(4, 1)
    y = _rk4(sys, y0, t0, t1, n)[-1]
    return y[0], y[1], y[2:].T.reshape(-1, 2, 2)


def monodromy(sys, orbit_seed: PhasePoint, period: int) -> np.ndarray:
    """Derivative of the time-``period`` flow map along a periodic orbit.

    The seed must close up (mod 1 in x) within ``MONODROMY_DEFECT_TOL``,
    and a matrix that is not finite raises ``NumericalError``.
    """
    positive_integer(period, "period")
    x1, v1, mats = _flow_with_variational(sys, [orbit_seed.x], [orbit_seed.v],
                                          [orbit_seed.t], [orbit_seed.t + period])
    if not np.isfinite(mats).all():
        raise NumericalError(
            f"the monodromy matrix of {sys.label()} over period {period} is not "
            f"finite; the variational flow overflows")
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
    the exponents; None when no exponent has positive real part. A
    matrix that is not finite raises ``ConfigurationError``.
    """
    period = positive_integer(period, "period")
    mono = np.asarray(mono, dtype=float)
    if mono.ndim != 2 or mono.shape[0] != mono.shape[1] or mono.shape[0] % 2:
        raise ConfigurationError("monodromy must be a square even-dimensional matrix")
    if not np.isfinite(mono).all():
        raise ConfigurationError("monodromy entries must be finite")
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
        if not (np.isfinite(res).all() and np.isfinite(jac).all()):
            raise NumericalError(
                f"the shooting residual or the segment matrices of {sys.label()} over "
                f"period {period} are not finite; the flow overflows")
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
    ``monodromy`` would integrate a second time. The shooting grid starts
    at t = 0 and the orbit carries no time, so the guess must be at t = 0.
    """
    period = positive_integer(period, "period")
    if guess.t != 0.0:
        raise ConfigurationError(f"the shooting grid starts at t = 0; got a guess at "
                                 f"t = {guess.t:g}")
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
