"""Headline experiments: convergence of the semigroup iteration to its
periodic limit, exponential-rate fits, and dwell-time diagnostics along
long minimizers.

The discrete min-plus iteration converges exactly in finitely many steps,
so the exponential fit uses only the pre-convergence transient window and
the report carries the first exactly-converged step to make the regime
explicit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .action import minimal_action
from .errors import ConfigurationError, InsufficientDataError, WeakKamError
from .flow import PeriodicOrbit, flow_trajectory, refine_periodic_orbit
from .systems import (PhasePoint, midpoint_geometry, positive_integer, reduce_mod_1,
                      torus_distance)
from .tropical import Grid, assemble_kernel, karp_eigenvalue, minplus_apply
from .weak_kam import (BARRIER_HORIZON, BarrierMatrix, aubry_set, check_barrier_horizon,
                       peierls_barrier, semigroup_limit)

EXACT_CONVERGENCE_TOL = 1e-12
FIT_FLOOR_FACTOR = 100.0
R2_THRESHOLD = 0.98
# one unit step contracts by about exp(-lambda), so at desk grid resolutions
# the pre-turnpike transient holds only a few samples; three collinear
# log-points still pin the rate
MIN_FIT_POINTS = 3
ORBIT_DETECTION_TOL = 1e-7

U0_TAGS = ("zero", "spike", "random-seeded")
# unit steps of a convergence experiment at desk scale
K_MAX = 60


@dataclass(frozen=True)
class FitResult:
    mu: float
    prefactor: float
    window: tuple
    r2: float


@dataclass(frozen=True)
class ConvergenceReport:
    system: str
    n: int
    c: float
    u0_tag: str
    tau_frac: float
    errors: np.ndarray
    mu: float | None
    prefactor: float | None
    window: tuple | None
    r2: float | None
    lam: float | None
    ratio: float | None
    kstar: int | None
    verdict: str  # "pass" | "fail" | "trivial" | "converged-no-fit"
    limit: np.ndarray


@dataclass(frozen=True)
class DwellReport:
    horizon: float
    delta: float
    time_outside: float
    longest_stay: float
    longest_stay_orbit: int
    n_hat: float


def _linear_fit(ks, logs):
    ks = np.asarray(ks, dtype=float)
    logs = np.asarray(logs, dtype=float)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - logs.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 and ss_res == 0.0 else (
        0.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot)
    return float(-slope), float(math.exp(intercept)), float(r2)


def fit_exponential_rate(errors, floor) -> FitResult:
    """Least-squares line through (k, log e_k) above the floor.

    The window is the suffix-trimmed run of above-floor points, shrunk
    from the left until the fit determination reaches ``R2_THRESHOLD``
    (the best attempt is returned when nothing does).
    """
    errors = np.asarray(errors, dtype=float)
    usable = np.flatnonzero(errors > floor)
    if usable.size < MIN_FIT_POINTS:
        raise InsufficientDataError(
            f"only {usable.size} points above the floor, need {MIN_FIT_POINTS}")
    best = None
    for start in range(usable.size - MIN_FIT_POINTS + 1):
        idx = usable[start:]
        mu, pref, r2 = _linear_fit(idx, np.log(errors[idx]))
        result = FitResult(mu=mu, prefactor=pref,
                           window=(int(idx[0]), int(idx[-1])), r2=r2)
        if r2 >= R2_THRESHOLD:
            return result
        if best is None or r2 > best.r2:
            best = result
    return best


def _initial_condition(u0_tag: str, n: int, seed: int, spike_index: int) -> np.ndarray:
    """The start named by one of ``U0_TAGS``, which the caller has checked."""
    if u0_tag == "zero":
        return np.zeros(n)
    if u0_tag == "spike":
        # a spike sitting on the Aubry set relaxes in a single step, which
        # leaves no transient to measure; the diagonal-barrier argmax is the
        # most non-Aubry point available
        u0 = np.full(n, 10.0)
        u0[spike_index] = 0.0
        return u0
    return np.random.default_rng(seed).uniform(0.0, 5.0, size=n)


def detect_aubry_orbits(sys, barrier: BarrierMatrix) -> list[PeriodicOrbit]:
    """Refine a period-1 orbit from each diagonal-barrier cluster within
    ``ORBIT_DETECTION_TOL``, seeding the shooting with zero velocity at the
    representative."""
    detected = aubry_set(barrier, ORBIT_DETECTION_TOL)
    orbits = []
    for rep in detected.representatives:
        guess = PhasePoint(x=rep / barrier.grid.n, v=0.0, t=0.0)
        try:
            orbits.append(refine_periodic_orbit(sys, guess, period=1))
        except WeakKamError:
            continue
    return orbits


def run_convergence(sys, grid: Grid, u0_tag: str = "spike", tau_frac: float = 0.0,
                    k_max: int = K_MAX, horizon: int = BARRIER_HORIZON, seed: int = 0,
                    unit_kernel=None, orbits=None, barrier=None) -> ConvergenceReport:
    """Measure e_k = sup |S_{tau+k} u + c (tau+k) - limit| and fit its decay.

    The evolution applies the fractional kernel over [0, tau] once, then
    the unit kernel at offset tau, k times; the reference limit is built
    from the cycle-minimum barrier of the same offset-tau kernel applied
    after the same fractional step, so the two computations share one
    composition order and agree exactly once the iteration reaches its
    finite fixed point. A given ``unit_kernel`` must start at tau, on
    ``grid``. A barrier whose powers found no cycle within ``horizon``
    raises ``NumericalError``: its limit would be wrong. A given
    ``barrier`` is used instead of building one; it must be a stabilized
    barrier of the unit kernel's grid, offset and Karp value, or
    ``ConfigurationError`` is raised. The verdict is ``pass`` only when the
    fitted rate is positive and the last error has reached its floor.
    """
    positive_integer(k_max, "k_max", 8)
    if not 0.0 <= tau_frac < 1.0:
        raise ConfigurationError("tau_frac must lie in [0, 1)")
    if u0_tag not in U0_TAGS:
        raise ConfigurationError(f"unknown initial condition {u0_tag!r}; "
                                 f"choose one of {U0_TAGS}")
    check_barrier_horizon(horizon)
    # a seed is what np.random.default_rng takes: a nonnegative integer
    positive_integer(seed, "seed", 0)
    n = grid.n

    if unit_kernel is None:
        unit_kernel = assemble_kernel(sys, grid, tau_frac, 1.0)
    elif unit_kernel.s != tau_frac:
        raise ConfigurationError(
            f"unit kernel starts at {unit_kernel.s:g}, not at tau_frac {tau_frac:g}")
    elif unit_kernel.grid != grid:
        raise ConfigurationError(
            f"unit kernel is on grid {unit_kernel.grid.n}, not on grid {grid.n}")
    c = karp_eigenvalue(unit_kernel)
    if barrier is None:
        barrier = peierls_barrier(sys, grid, c, horizon, kernel=unit_kernel)
        barrier.require_stabilized(sys.label())
    elif not (barrier.grid == unit_kernel.grid and barrier.c == c
              and barrier.s_frac == barrier.t_frac == unit_kernel.s):
        raise ConfigurationError(
            f"barrier on grid {barrier.grid.n} from offset {barrier.s_frac:g} to "
            f"{barrier.t_frac:g} at c = {barrier.c!r} is not the barrier of the unit "
            f"kernel on grid {unit_kernel.grid.n} at offset {unit_kernel.s:g}, c = {c!r}")
    elif not barrier.stabilized:
        raise ConfigurationError(f"the given barrier of {sys.label()} is not stabilized")
    spike_index = int(np.argmax(np.diag(barrier.values)))
    u0 = _initial_condition(u0_tag, n, seed, spike_index)

    if tau_frac == 0.0:
        w = u0.copy()
        const = 0.0
    else:
        fractional_kernel = assemble_kernel(sys, grid, 0.0, tau_frac)
        w = minplus_apply(fractional_kernel.matrix, u0)
        const = c * tau_frac
    limit = semigroup_limit(w, barrier) + const

    errors = np.empty(k_max + 1)
    errors[0] = float(np.max(np.abs(w + const - limit)))
    for k in range(1, k_max + 1):
        w = minplus_apply(unit_kernel.matrix, w)
        errors[k] = float(np.max(np.abs(w + const + c * k - limit)))

    kstar = None
    below = np.flatnonzero(errors <= EXACT_CONVERGENCE_TOL)
    if below.size:
        kstar = int(below[0])

    if orbits is None:
        try:
            orbits = detect_aubry_orbits(sys, barrier)
        except WeakKamError:
            orbits = []
    lams = [orbit.lam for orbit in orbits if orbit.lam is not None]
    lam = min(lams) if lams else None

    floor = FIT_FLOOR_FACTOR * np.finfo(float).eps * float(np.max(np.abs(limit)))
    floor_tol = max(floor, EXACT_CONVERGENCE_TOL)
    fit = None
    if float(errors.max()) <= floor_tol:
        verdict = "trivial"
    else:
        try:
            fit = fit_exponential_rate(errors, floor)
            verdict = "pass" if fit.mu > 0.0 and errors[-1] <= floor_tol else "fail"
        except InsufficientDataError:
            verdict = "converged-no-fit" if (
                kstar is not None and errors[-1] <= EXACT_CONVERGENCE_TOL) else "fail"
    mu, prefactor, window, r2 = (None,) * 4 if fit is None else (
        fit.mu, fit.prefactor, fit.window, fit.r2)
    ratio = mu / lam if (mu is not None and lam is not None and lam > 0) else None
    return ConvergenceReport(system=sys.label(), n=n, c=c, u0_tag=u0_tag,
                             tau_frac=tau_frac, errors=errors, mu=mu,
                             prefactor=prefactor, window=window, r2=r2, lam=lam,
                             ratio=ratio, kstar=kstar, verdict=verdict, limit=limit)


def _orbit_reference(sys, orbit: PeriodicOrbit, times: np.ndarray):
    """Orbit position and velocity at the requested times (mod its period)."""
    period = float(orbit.period)
    frac = np.mod(times, period)
    ts, xs, vs = flow_trajectory(sys, PhasePoint(x=orbit.x, v=orbit.v, t=0.0),
                                 period)
    x_ref = np.interp(frac, ts, xs)
    v_ref = np.interp(frac, ts, vs)
    return x_ref, v_ref


def check_dwell_window(a, b, delta) -> None:
    """Raise ``ConfigurationError`` unless [a, b] is a finite dwell horizon
    of at least 4 and ``delta`` a finite positive neighborhood radius."""
    if not (math.isfinite(b - a) and b - a >= 4.0):
        raise ConfigurationError("dwell diagnostics need a finite horizon of at least 4")
    if not (math.isfinite(delta) and delta > 0.0):
        raise ConfigurationError("dwell neighborhood radius must be finite and positive")


def dwell_statistics(sys, orbits, x, a, y, b, delta: float = 0.05) -> DwellReport:
    """Time a minimizer spends outside the union of orbit neighborhoods,
    and its longest uninterrupted stay inside a single one.

    Distances are Euclidean in (torus position, velocity); the minimizer
    states are the midpoint states of the discrete minimizer.
    """
    check_dwell_window(a, b, delta)
    if not orbits:
        raise ConfigurationError("dwell diagnostics need at least one refined orbit")
    _, curve = minimal_action(sys, x, a, y, b)
    h = curve.spacing
    tmid = curve.midpoint_times()
    (mid,), (vel,) = midpoint_geometry(curve.samples[None, :], h)
    pos = reduce_mod_1(mid)

    dists = np.empty((len(orbits), tmid.size))
    for i, orbit in enumerate(orbits):
        x_ref, v_ref = _orbit_reference(sys, orbit, tmid)
        dists[i] = np.hypot(torus_distance(pos, x_ref), vel - v_ref)

    inside_any = (dists <= delta).any(axis=0)
    time_outside = h * float(np.sum(~inside_any))

    longest = 0
    longest_orbit = 0
    for i in range(len(orbits)):
        inside = dists[i] <= delta
        run = best = 0
        for flag in inside:
            run = run + 1 if flag else 0
            best = max(best, run)
        if best > longest:
            longest = best
            longest_orbit = i
    longest_stay = h * longest
    horizon = float(b - a)
    n_hat = horizon / (longest_stay + 1.0)
    return DwellReport(horizon=horizon, delta=float(delta),
                       time_outside=time_outside, longest_stay=longest_stay,
                       longest_stay_orbit=longest_orbit, n_hat=n_hat)
