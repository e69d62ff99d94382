import math

import numpy as np
import pytest

from weakkam import (ConfigurationError, DegenerateOrbitError,
                     LagrangianSystem, NotPeriodicError, PhasePoint,
                     floquet_analysis, flow_map, flow_trajectory, monodromy,
                     refine_periodic_orbit, tilt_system, torus_distance)
from weakkam import flow
from weakkam.flow import _el_rhs, _flow_with_variational, _rk4

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")
Q2 = LagrangianSystem(family="mechanical-cos", freq=2)
EPS = LagrangianSystem(family="mechanical-cos", eps=0.1)


def test_free_flow_straight_line_with_winding():
    end = flow_map(FREE, PhasePoint(0.0, 0.5, 0.0), 2.0)
    assert torus_distance(end.x, 0.0) < 1e-9
    assert abs(end.v - 0.5) < 1e-12


def test_equilibria_persist():
    for sys in (MECH, EPS):
        end = flow_map(sys, PhasePoint(0.0, 0.0, 0.0), 1.0)
        assert end.x == 0.0 and end.v == 0.0


def test_monodromy_matches_saddle_linearization():
    mono = monodromy(MECH, PhasePoint(0.0, 0.0, 0.0), 1)
    mults = np.sort(np.linalg.eigvals(mono).real)
    target = np.sort([math.exp(2 * math.pi), math.exp(-2 * math.pi)])
    assert np.max(np.abs(mults - target) / target) < 1e-4


def test_monodromy_free_is_shear():
    mono = monodromy(FREE, PhasePoint(0.3, 0.0, 0.0), 1)
    assert np.allclose(mono, [[1.0, 1.0], [0.0, 1.0]], atol=1e-12)


def test_monodromy_modulated_is_volume_preserving():
    mono = monodromy(EPS, PhasePoint(0.0, 0.0, 0.0), 1)
    mults = np.linalg.eigvals(mono)
    assert np.max(np.abs(mults.imag)) < 1e-12
    assert abs(np.prod(mults).real - 1.0) < 1e-8
    assert abs(np.linalg.det(mono) - 1.0) < 1e-6


def test_monodromy_rejects_nonperiodic_seed():
    with pytest.raises(NotPeriodicError) as info:
        monodromy(MECH, PhasePoint(0.3, 0.5, 0.0), 1)
    assert info.value.defect > 1e-6


def test_refine_finds_saddle_from_nearby_guess():
    orbit = refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), 1)
    assert torus_distance(orbit.x, 0.0) < 1e-10
    assert abs(orbit.v) < 1e-10
    assert orbit.hyperbolic
    assert abs(orbit.lam - 2 * math.pi) < 1e-6


def test_refine_two_wells():
    near_half = refine_periodic_orbit(Q2, PhasePoint(0.48, 0.02, 0.0), 1)
    near_zero = refine_periodic_orbit(Q2, PhasePoint(0.02, -0.01, 0.0), 1)
    assert torus_distance(near_half.x, 0.5) < 1e-9
    assert torus_distance(near_zero.x, 0.0) < 1e-9
    assert near_half.hyperbolic and near_zero.hyperbolic
    assert abs(near_half.lam - 4 * math.pi) < 1e-5


def test_refine_rest_point_of_free_system_is_degenerate():
    with pytest.raises(DegenerateOrbitError):
        refine_periodic_orbit(FREE, PhasePoint(0.3, 0.0, 0.0), 1)


def test_refine_is_idempotent():
    first = refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), 1)
    second = refine_periodic_orbit(MECH, PhasePoint(first.x, first.v, 0.0), 1)
    assert abs(first.x - second.x) < 1e-12 and abs(first.v - second.v) < 1e-12


def test_batched_variational_flow_equals_one_state_calls():
    # the 24 segments of a period-3 shooting residual, from scattered states
    rng = np.random.default_rng(0)
    xs, vs = rng.uniform(0.0, 1.0, 24), rng.uniform(-0.5, 0.5, 24)
    times = 3 / 24 * np.arange(25)
    x1, v1, mats = _flow_with_variational(EPS, xs, vs, times[:-1], times[1:])
    for k in range(24):
        xk, vk, mk = _flow_with_variational(EPS, [xs[k]], [vs[k]], [times[k]],
                                            [times[k + 1]])
        assert np.array_equal(x1[k], xk[0]) and np.array_equal(v1[k], vk[0])
        assert np.array_equal(mats[k], mk[0])


def test_refined_monodromy_is_the_monodromy_at_the_refined_state():
    for sys, x, period in ((MECH, 0.01, 1), (Q2, 0.49, 1), (EPS, 0.01, 3)):
        orbit = refine_periodic_orbit(sys, PhasePoint(x, 0.01, 0.0), period)
        mono = monodromy(sys, PhasePoint(orbit.x, orbit.v, 0.0), period)
        assert np.max(np.abs(orbit.monodromy - mono)) <= 1e-12 * np.max(np.abs(mono))


def test_refinement_integrates_each_residual_once(monkeypatch):
    calls = []

    def counted(sys, x0, v0, t0, t1):
        out = _flow_with_variational(sys, x0, v0, t0, t1)
        calls.append((len(x0), float(x0[0]), float(v0[0]),
                      float(np.sum(np.subtract(t1, t0))), out[2]))
        return out

    monkeypatch.setattr(flow, "_flow_with_variational", counted)
    orbit = refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), 1)
    # one batched call per residual, each covering the period once
    assert {m for m, *_ in calls} == {flow.SHOTS_PER_UNIT_TIME, 1}
    assert all(abs(span - 1.0) < 1e-12 for *_, span, _ in calls)
    # the polish integrates each of its Newton iterates once, and its last
    # integration is the monodromy
    polish = [(x, v) for m, x, v, _, _ in calls if m == 1]
    assert len(set(polish)) == len(polish)
    assert calls[-1][0] == 1 and np.array_equal(orbit.monodromy, calls[-1][4][0])
    assert len(calls) < 6  # periods integrated; the repeated monodromy made six


def test_floquet_examples():
    _, exps, hyperbolic, lam = floquet_analysis(
        np.diag([535.4916555247646, 0.0018674427317079893]), 1)
    assert hyperbolic
    assert abs(exps[0].real - 2 * math.pi) < 1e-12
    assert abs(lam - 2 * math.pi) < 1e-12

    _, _, hyp_shear, lam_shear = floquet_analysis(np.array([[1.0, 1.0], [0.0, 1.0]]), 1)
    assert not hyp_shear and lam_shear is None

    mults2, exps2, hyp2, _ = floquet_analysis(np.diag([2.0, 0.5]), 2)
    assert np.array_equal(mults2, [2.0, 0.5])
    assert hyp2
    assert abs(exps2[0].real - math.log(2) / 2) < 1e-14
    assert abs(exps2[1].real + math.log(2) / 2) < 1e-14


@pytest.mark.parametrize("period", [1.5, 1.0, True, 0])
def test_refinement_period_must_be_a_positive_integer(period):
    with pytest.raises(ConfigurationError, match="positive integer"):
        refine_periodic_orbit(MECH, PhasePoint(0.01, 0.01, 0.0), period)


@pytest.mark.parametrize("period", [1.5, 1.0, True, 0])
def test_monodromy_period_must_be_a_positive_integer(period):
    with pytest.raises(ConfigurationError, match="positive integer"):
        monodromy(MECH, PhasePoint(0.0, 0.0, 0.0), period)


def test_floquet_validates_shape():
    with pytest.raises(ConfigurationError):
        floquet_analysis(np.ones((3, 3)), 1)


def test_flow_composition():
    # at the default 200 steps per unit time the two legs take the same
    # 400 steps as the direct flow
    p0 = PhasePoint(0.2, 0.3, 0.0)
    direct = flow_map(EPS, p0, 2.0)
    half = flow_map(EPS, p0, 1.0)
    two_step = flow_map(EPS, half, 2.0)
    assert torus_distance(direct.x, two_step.x) < 1e-9
    assert abs(direct.v - two_step.v) < 1e-9


def test_fourth_order_step_halving():
    rhs = _el_rhs(EPS)
    ref = _rk4(rhs, [0.2, 0.3], 0.0, 1.0, 2000)[-1]

    def err(n):
        end = _rk4(rhs, [0.2, 0.3], 0.0, 1.0, n)[-1]
        return math.hypot(end[0] - ref[0], end[1] - ref[1])

    ratio = err(200) / err(400)
    assert 8.0 < ratio < 32.0


def test_flow_trajectory_endpoints():
    # RK4 is exact for the free system
    times, xs, vs = flow_trajectory(FREE, PhasePoint(0.1, 1.0, 0.0), 2.0)
    assert times.size == 401 and times[0] == 0.0 and times[-1] == 2.0
    assert xs[0] == 0.1 and vs[-1] == 1.0
    assert abs(xs[-1] - 2.1) < 1e-12  # lifted, no reduction inside


def test_flow_refuses_a_system_without_a_mass():
    # a tilt's L_v couples to x through f_x: it has no constant mass
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    with pytest.raises(ConfigurationError, match="constant mass"):
        flow_map(tilted, PhasePoint(0.2, 0.3, 0.0), 1.0)
