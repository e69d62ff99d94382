import numpy as np
import pytest

import weakkam.action as action
import weakkam.tropical as tropical
from weakkam import (ConfigurationError, LagrangianSystem, MinimizationError,
                     PhasePoint, curve_action, dwell_statistics, minimal_action,
                     refine_periodic_orbit)

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")


def discrete_el_residual(sys, curve):
    """Sup norm of the discrete action gradient at a curve (its discrete
    Euler-Lagrange residual)."""
    _, g, _, _ = action._evaluate(sys, curve.samples[None, :], curve.spacing,
                                  curve.midpoint_times())
    return float(np.max(np.abs(g))) if g.size else 0.0


def free_oracle(x, y, duration):
    return min((y - x + k) ** 2 / (2.0 * duration) for k in range(-3, 4))


def test_free_short_way():
    value, curve = minimal_action(FREE, 0.0, 0.0, 0.4, 1.0)
    assert abs(value - 0.08) < 1e-12
    assert curve.winding == 0


def test_free_other_way_around():
    value, curve = minimal_action(FREE, 0.0, 0.0, 0.6, 1.0)
    assert abs(value - 0.08) < 1e-12
    assert curve.winding == -1


def test_free_longer_window():
    value, _ = minimal_action(FREE, 0.0, 0.0, 0.4, 2.0)
    assert abs(value - 0.04) < 1e-12


def test_free_tie_prefers_smaller_winding():
    _, curve = minimal_action(FREE, 0.0, 0.0, 0.5, 1.0)
    assert curve.winding == 0


def test_mech_loop_at_maximum():
    value, curve = minimal_action(MECH, 0.0, 0.0, 0.0, 1.0)
    assert value <= -1.0 + 1e-3
    assert abs(value - (-1.0)) < 1e-12


def test_minimizer_contract():
    value, curve = minimal_action(MECH, 0.3, 0.0, 0.8, 1.5)
    assert curve.samples[0] == 0.3
    assert curve.samples[-1] - curve.winding == 0.8
    assert curve_action(MECH, curve) == value
    assert discrete_el_residual(MECH, curve) <= 1e-9


def test_free_oracle_equivalence_grid():
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        x, y = rng.uniform(0, 1, 2)
        for duration in (0.5, 1.0, 2.0):
            value, _ = minimal_action(FREE, x, 0.0, y, duration)
            worst = max(worst, abs(value - free_oracle(x, y, duration)))
    assert worst < 1e-6


def test_subadditivity():
    rng = np.random.default_rng(4)
    for _ in range(12):
        x, y, z = rng.uniform(0, 1, 3)
        whole, _ = minimal_action(MECH, x, 0.0, z, 2.0)
        first, _ = minimal_action(MECH, x, 0.0, y, 1.0)
        second, _ = minimal_action(MECH, y, 1.0, z, 2.0)
        assert whole <= first + second + 1e-8


def test_refinement_is_second_order(monkeypatch):
    values = {}
    for n_seg in (16, 32, 64, 128):
        monkeypatch.setattr(action, "SEGMENTS_PER_UNIT_TIME", n_seg)
        values[n_seg], _ = minimal_action(MECH, 0.1, 0.0, 0.35, 1.0)
    change_coarse = abs(values[32] - values[16])
    change_fine = abs(values[64] - values[32])
    assert 3.0 <= change_coarse / change_fine <= 6.0


def test_settings_validation():
    with pytest.raises(ConfigurationError):
        minimal_action(FREE, 0.0, 1.0, 0.5, 1.0)


def test_unconverged_winner_raises_with_its_iterate(monkeypatch):
    # with a polish budget of 100 steps the winning winding stops with a
    # residual near 7e-5, far above the 1e-9 tolerance; the search must say
    # so instead of returning it
    monkeypatch.setattr(action, "POLISH_BUDGET", 100)
    two_well = LagrangianSystem(family="mechanical-cos", freq=2)
    with pytest.raises(MinimizationError) as info:
        minimal_action(two_well, 0.5, 0.0, 0.95, 2.5)
    err = info.value
    assert err.best_value is not None and np.isfinite(err.best_value)
    assert err.best_curve.samples[0] == 0.5
    assert err.best_curve.samples[-1] - err.best_curve.winding == 0.95
    assert discrete_el_residual(two_well, err.best_curve) > 1e-9


def test_polish_walks_a_long_valley_to_convergence():
    # the winner's Hessian has one soft eigenvalue (1e-4 to 1e-2 against
    # about 5 for the next), so the Newton polish slides down a long curved
    # valley: 0.132 in value over 169 accepted steps
    two_well = LagrangianSystem(family="mechanical-cos", freq=2)
    value, curve = minimal_action(two_well, 0.10439897438197132, 0.0,
                                  0.44241765155908375, 2.5)
    assert discrete_el_residual(two_well, curve) <= 1e-9
    assert value == pytest.approx(-1.9061897611713283, abs=1e-9)


def test_dwell_minimizer_prunes_windings_in_one_batch(monkeypatch):
    # one zero-winding row, and no other: the critical-subsolution bound
    # prunes windings +-1 and +-2 at horizon 8 (the kinetic bound alone
    # keeps all four), so the search runs a single batch
    orbit = refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), 1)
    batches = []
    original = tropical.minimize_straight_batch

    def counting(sys, a, b, n_seg, z0, **kwargs):
        batches.append(z0.shape[0])
        return original(sys, a, b, n_seg, z0, **kwargs)

    monkeypatch.setattr(tropical, "minimize_straight_batch", counting)
    dwell_statistics(MECH, [orbit], 0.25, 0.0, 0.25, 8.0)
    assert batches == [1]


def test_loop_at_potential_minimum_escapes_the_saddle_start():
    # the constant lift at a symmetric potential minimum is a critical
    # point of the discrete action but not a minimum; the minimizer must
    # leave it rather than report it
    two_well = LagrangianSystem(family="mechanical-cos", freq=2)
    value, curve = minimal_action(two_well, 0.25, 0.0, 0.25, 1.0)
    rest_cost = curve_action(two_well, type(curve)(0.0, 1.0,
                                                   np.full(33, 0.25), 0))
    assert value < rest_cost - 1.0  # swinging to a well beats sitting still
    assert np.max(np.abs(curve.samples - 0.25)) > 0.1
    assert value == pytest.approx(-0.3606722128, abs=1e-6)
    # loops at a potential maximum stay exactly at rest
    at_max, _ = minimal_action(MECH, 0.0, 0.0, 0.0, 1.0)
    assert at_max == -1.0


def test_symmetric_pair_escapes_the_saddle_descent_ends_on():
    # the straight lift from 63/256 to 65/256 is symmetric about the well
    # centre 1/4 and descent keeps that symmetry, so it converges to the
    # best symmetric path, a saddle at +0.2539, which the saddle test must
    # catch although the row was not converged at entry
    two_well = LagrangianSystem(family="mechanical-cos", freq=2)
    value, curve = minimal_action(two_well, 63 / 256, 0.0, 65 / 256, 1.0)
    assert value == pytest.approx(-0.360672212811594, abs=1e-12)
    assert curve.winding == 0


def test_batch_returns_the_evaluation_of_its_rows(monkeypatch):
    # all 16 x 16 grid pairs of the two-well system over one unit of time:
    # the batch backtracks, polishes its stalled rows and escapes a saddle
    # start, and the value and gradient sup norm it returns for every row
    # are those of a fresh evaluation
    two_well = LagrangianSystem(family="mechanical-cos", freq=2)
    calls = {"backtrack": 0, "polish": 0, "escape": 0}
    polishing = []
    evaluate, polish = action._evaluate, action._polish_rows
    batch = action.minimize_straight_batch

    def counting_evaluate(*args):
        # outside the polish a batch evaluates its entry rows once, each
        # spectral iteration's first trial once, and each backtracked trial
        calls["backtrack"] += not polishing
        return evaluate(*args)

    def counting_polish(*args):
        calls["polish"] += 1
        polishing.append(True)
        try:
            return polish(*args)
        finally:
            polishing.pop()

    def counting_batch(*args, **kwargs):
        calls["escape"] += kwargs.get("_escape") is False
        result = batch(*args, **kwargs)
        calls["backtrack"] -= 1 + result[4]
        return result

    monkeypatch.setattr(action, "_evaluate", counting_evaluate)
    monkeypatch.setattr(action, "_polish_rows", counting_polish)
    monkeypatch.setattr(action, "minimize_straight_batch", counting_batch)
    pts = np.arange(16) / 16
    starts, ends = (grid.ravel() for grid in np.meshgrid(pts, pts, indexing="ij"))
    n_seg = 32
    z, e_quad, gsup, converged, _ = counting_batch(
        two_well, 0.0, 1.0, n_seg, action._straight_lifts(starts, ends, n_seg))
    assert all(count > 0 for count in calls.values()), calls
    assert converged.all()
    tmid = (np.arange(n_seg) + 0.5) / n_seg
    e, g, _, _ = evaluate(two_well, z, 1.0 / n_seg, tmid)
    assert np.array_equal(e_quad, e)
    assert np.array_equal(gsup, np.max(np.abs(g), axis=1))
