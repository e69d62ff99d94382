import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import weakkam.experiments as experiments
from weakkam import (ConfigurationError, Grid, InsufficientDataError,
                     LagrangianSystem, NumericalError, PhasePoint, assemble_kernel,
                     detect_aubry_orbits, dwell_statistics,
                     fit_exponential_rate, karp_eigenvalue, minplus_apply,
                     peierls_barrier, refine_periodic_orbit, run_convergence)

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")


def test_fit_exact_exponential():
    k = np.arange(25)
    errors = 5.0 * np.exp(-1.3 * k)
    fit = fit_exponential_rate(errors, floor=1e-15)
    assert abs(fit.mu - 1.3) < 1e-9
    assert abs(fit.prefactor - 5.0) < 1e-9
    assert fit.r2 > 1 - 1e-12


def test_fit_with_noise_floor():
    rng = np.random.default_rng(8)
    k = np.arange(21)
    errors = 5.0 * np.exp(-1.3 * k) + 1e-13 * rng.uniform(0.5, 1.0, k.size)
    fit = fit_exponential_rate(errors, floor=1e-11)
    assert abs(fit.mu - 1.3) < 1e-3


def test_fit_constant_sequence_gives_zero_rate():
    fit = fit_exponential_rate(np.full(10, 0.25), floor=1e-15)
    assert abs(fit.mu) < 1e-12
    assert fit.r2 == 0.0  # no decay explained, caller treats as failure


def test_fit_insufficient_data():
    with pytest.raises(InsufficientDataError):
        fit_exponential_rate(np.array([1.0, 0.5, 1e-20, 1e-20]), floor=1e-15)


def test_convergence_free_zero_is_trivial():
    report = run_convergence(FREE, Grid(16), u0_tag="zero", k_max=10,
                             horizon=10, orbits=[])
    assert report.verdict == "trivial"
    assert report.mu is None and report.kstar == 0
    assert float(np.max(report.errors)) <= 1e-12


def test_convergence_small_two_well():
    sys = LagrangianSystem(family="mechanical-cos", freq=2)
    report = run_convergence(sys, Grid(32), u0_tag="spike", k_max=12,
                             horizon=10, orbits=[])
    assert report.errors[-1] <= 1e-9
    assert report.verdict in ("pass", "converged-no-fit")


def test_convergence_random_u0_consistency():
    report = run_convergence(MECH, Grid(32), u0_tag="random-seeded", k_max=12,
                             horizon=10, seed=3, orbits=[])
    assert report.errors[-1] <= 1e-9
    rerun = run_convergence(MECH, Grid(32), u0_tag="random-seeded", k_max=12,
                            horizon=10, seed=3, orbits=[])
    assert np.array_equal(report.errors, rerun.errors)


def test_convergence_fractional_offset():
    sys = LagrangianSystem(family="mechanical-cos", eps=0.1)
    report = run_convergence(sys, Grid(16), u0_tag="spike", tau_frac=0.5,
                             k_max=10, horizon=8, orbits=[])
    assert report.errors[-1] <= 1e-9


def test_convergence_validation():
    with pytest.raises(ConfigurationError):
        run_convergence(MECH, Grid(16), u0_tag="spike", k_max=3)
    with pytest.raises(ConfigurationError):
        run_convergence(MECH, Grid(16), u0_tag="what", k_max=10)
    with pytest.raises(ConfigurationError):
        run_convergence(MECH, Grid(16), tau_frac=1.5, k_max=10)


def test_convergence_checks_its_start_before_it_assembles(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a kernel for a bad start")

    monkeypatch.setattr(experiments, "assemble_kernel", no_assembly)
    with pytest.raises(ConfigurationError, match="unknown initial condition"):
        run_convergence(MECH, Grid(256), u0_tag="what")


def test_convergence_checks_its_horizon_before_it_assembles(monkeypatch):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a kernel for a bad horizon")

    monkeypatch.setattr(experiments, "assemble_kernel", no_assembly)
    with pytest.raises(ConfigurationError, match="barrier horizon"):
        run_convergence(MECH, Grid(256), horizon=1)


def test_convergence_rejects_a_kernel_from_another_offset():
    sys = LagrangianSystem(family="mechanical-cos", eps=0.3)
    kernel = assemble_kernel(sys, Grid(16), 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="not at tau_frac 0.5"):
        run_convergence(sys, Grid(16), tau_frac=0.5, k_max=10, horizon=8,
                        unit_kernel=kernel, orbits=[])


def test_convergence_refuses_an_unstabilized_barrier():
    # amp 0.3 on grid 64 reaches its turnpike at power 5; a barrier cut
    # at power 2 is no barrier, and a limit built from it is wrong
    sys = LagrangianSystem(family="mechanical-cos", amp=0.3)
    with pytest.raises(NumericalError, match="not stabilized at horizon 2"):
        run_convergence(sys, Grid(64), u0_tag="spike", k_max=10, horizon=2,
                        orbits=[])


def test_convergence_reads_a_given_barrier_of_its_kernel():
    kernel = assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    barrier = peierls_barrier(MECH, Grid(16), karp_eigenvalue(kernel), 10, kernel=kernel)
    built = run_convergence(MECH, Grid(16), u0_tag="spike", k_max=10, horizon=10,
                            unit_kernel=kernel, orbits=[])
    given_ = run_convergence(MECH, Grid(16), u0_tag="spike", k_max=10, horizon=10,
                             unit_kernel=kernel, orbits=[], barrier=barrier)
    assert np.array_equal(given_.errors, built.errors)
    assert np.array_equal(given_.limit, built.limit)


def test_convergence_refuses_a_barrier_of_another_kernel():
    kernel = assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    c = karp_eigenvalue(kernel)
    barrier = peierls_barrier(MECH, Grid(16), c, 10, kernel=kernel)
    coarse = assemble_kernel(MECH, Grid(8), 0.0, 1.0)
    others = [peierls_barrier(MECH, Grid(8), karp_eigenvalue(coarse), 10, kernel=coarse),
              dataclasses.replace(barrier, s_frac=0.5),
              dataclasses.replace(barrier, t_frac=0.5),
              dataclasses.replace(barrier, c=c + 1e-3)]
    for other in others:
        with pytest.raises(ConfigurationError, match="is not the barrier of the unit kernel"):
            run_convergence(MECH, Grid(16), k_max=10, horizon=10, unit_kernel=kernel,
                            orbits=[], barrier=other)
    unstabilized = dataclasses.replace(barrier, period=None, turnpike=None)
    with pytest.raises(ConfigurationError, match="not stabilized"):
        run_convergence(MECH, Grid(16), k_max=10, horizon=10, unit_kernel=kernel,
                        orbits=[], barrier=unstabilized)


def test_limits_differ_by_constant_between_initial_conditions():
    kernel = assemble_kernel(MECH, Grid(64), 0.0, 1.0)
    zero = run_convergence(MECH, Grid(64), u0_tag="zero", k_max=10,
                           horizon=20, unit_kernel=kernel, orbits=[])
    spike = run_convergence(MECH, Grid(64), u0_tag="spike", k_max=10,
                            horizon=20, unit_kernel=kernel, orbits=[])
    gap = zero.limit - spike.limit
    assert np.max(gap) - np.min(gap) <= 5e-3


@given(arrays(np.float64, (6, 6), elements=st.integers(-9, 9).map(float)),
       arrays(np.float64, (6,), elements=st.integers(-9, 9).map(float)),
       arrays(np.float64, (6,), elements=st.integers(-9, 9).map(float)))
def test_iteration_contracts_sup_distance(kernel, u, w):
    du_prev = np.max(np.abs(u - w))
    for _ in range(4):
        u = minplus_apply(kernel, u)
        w = minplus_apply(kernel, w)
        du = np.max(np.abs(u - w))
        assert du <= du_prev
        du_prev = du


def test_detect_aubry_orbits():
    kernel = assemble_kernel(MECH, Grid(64), 0.0, 1.0)
    barrier = peierls_barrier(MECH, Grid(64), karp_eigenvalue(kernel),
                              horizon=20, kernel=kernel)
    orbits = detect_aubry_orbits(MECH, barrier)
    assert len(orbits) == 1
    assert abs(orbits[0].lam - 2 * math.pi) < 1e-5


def test_dwell_on_orbit_never_leaves():
    orbit = refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), 1)
    report = dwell_statistics(MECH, [orbit], 0.0, 0.0, 0.0, 4.0, delta=0.05)
    assert report.time_outside <= 1e-12
    assert report.longest_stay >= 3.9


def test_dwell_validation():
    orbit = refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), 1)
    with pytest.raises(ConfigurationError):
        dwell_statistics(MECH, [orbit], 0.0, 0.0, 0.25, 2.0)
    with pytest.raises(ConfigurationError):
        dwell_statistics(MECH, [], 0.0, 0.0, 0.25, 8.0)
