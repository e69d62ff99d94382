"""Full-scale acceptance matrix. Every test prints one pass/fail line and
asserts the criterion at its stated tolerance.

The context is session scoped: kernels, barriers, and orbits are assembled
once and shared by all criteria, as the command line bundle does.
"""
import numpy as np
import pytest

from weakkam import (NumericalError, acceptance, experiments, karp_eigenvalue,
                     peierls_barrier)
from weakkam.acceptance import (AcceptanceContext, AcceptanceScale,
                                CriterionResult,
                                criterion_01_critical_value,
                                criterion_02_barrier_oracle,
                                criterion_03_aubry_detection,
                                criterion_04_floquet,
                                criterion_05_converge_crosscheck,
                                criterion_06_main_theorem,
                                criterion_07_reduction, criterion_08_tilt,
                                criterion_09_tropical_core,
                                criterion_10_connection_graph,
                                criterion_11_dwell,
                                criterion_12_determinism)


@pytest.fixture(scope="module")
def ctx():
    return AcceptanceContext()


def _check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_01_critical_value_oracle(ctx):
    _check(criterion_01_critical_value(ctx))


def test_criterion_02_barrier_oracle(ctx):
    _check(criterion_02_barrier_oracle(ctx))


def test_criterion_03_aubry_detection(ctx):
    _check(criterion_03_aubry_detection(ctx))


def test_criterion_04_floquet_oracle(ctx):
    _check(criterion_04_floquet(ctx))


def test_criterion_05_semigroup_limit_crosscheck(ctx):
    _check(criterion_05_converge_crosscheck(ctx))


def test_criterion_06_main_theorem_experiment(ctx):
    _check(criterion_06_main_theorem(ctx))


def test_criterion_07_reduction_identities(ctx):
    _check(criterion_07_reduction(ctx))


def test_criterion_08_tilt_identities(ctx):
    _check(criterion_08_tilt(ctx))


def test_criterion_09_tropical_core(ctx):
    _check(criterion_09_tropical_core(ctx))


def test_criterion_10_connection_graph(ctx):
    _check(criterion_10_connection_graph(ctx))


def test_criterion_11_dwell_diagnostics(ctx):
    _check(criterion_11_dwell(ctx))


def test_criterion_12_determinism(ctx):
    _check(criterion_12_determinism(ctx))


def test_main_grid_barrier_never_takes_a_drift_of_1e_10_as_a_cycle(ctx):
    # the rounding allowance grows with the grid, so it is largest on the
    # main grid: 1e-10 above c leaves no critical node, and 1e-10 below it
    # every fixed point of the star drifts
    kernel = ctx.kernel(1, 0.0, ctx.scale.n_main)
    c = karp_eigenvalue(kernel)
    with pytest.raises(NumericalError, match="not the critical value"):
        peierls_barrier(None, kernel.grid, c + 1e-10, 8, kernel=kernel)
    barrier = peierls_barrier(None, kernel.grid, c - 1e-10, 8, kernel=kernel)
    assert not barrier.stabilized and barrier.defect >= 0.99e-10


def test_run_all_records_numerical_crashes(monkeypatch):
    def singular(ctx):
        raise np.linalg.LinAlgError("Singular matrix")

    def overflow(ctx):
        raise FloatingPointError("overflow encountered in exp")

    def fine(ctx):
        return CriterionResult(3, "fine", True, {})

    monkeypatch.setattr(acceptance, "CRITERIA", (singular, overflow, fine))
    results = acceptance.run_all(AcceptanceContext(), echo=None)
    assert [r.passed for r in results] == [False, False, True]
    assert results[0].details == {"error": "LinAlgError: Singular matrix"}
    assert results[1].details == {
        "error": "FloatingPointError: overflow encountered in exp"}


def test_criteria_05_and_06_build_one_barrier_per_kernel(monkeypatch):
    built = []

    def counting(sys, grid, c, *args, **kwargs):
        built.append((sys.freq, sys.eps, grid.n))
        return peierls_barrier(sys, grid, c, *args, **kwargs)

    monkeypatch.setattr(acceptance, "peierls_barrier", counting)
    monkeypatch.setattr(experiments, "peierls_barrier", counting)
    ctx = AcceptanceContext(AcceptanceScale(n_main=32, k_max=12))
    criterion_05_converge_crosscheck(ctx)
    criterion_06_main_theorem(ctx)
    assert sorted(built) == [(1, 0.0, 32), (1, 0.1, 32), (2, 0.0, 32), (2, 0.1, 32)]


def test_unstabilized_barrier_raises(monkeypatch):
    # at grid 16 the four-well star rows first repeat at the 4th product,
    # so horizon 4, which allows 3, still drifts
    monkeypatch.setattr(acceptance, "peierls_barrier",
                        lambda *args, **kwargs: peierls_barrier(*args, 4, **kwargs))
    ctx = AcceptanceContext(AcceptanceScale(n_main=16))
    with pytest.raises(NumericalError, match=r"q=4.*grid 16.*horizon 4: defect"):
        ctx.barrier(4, 0.0, 16)
