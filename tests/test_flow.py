import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from weakkam import (ConfigurationError, DegenerateOrbitError,
                     LagrangianSystem, NoOrbitError, NotPeriodicError, NumericalError,
                     PhasePoint, floquet_analysis, flow_map, flow_trajectory, monodromy,
                     refine_periodic_orbit, tilt_system, torus_distance)
from weakkam import flow
from weakkam.flow import _flow_with_variational, _rk4

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


def test_monodromy_that_overflows_is_a_numerical_error():
    # the rest point closes up, but its variational matrix overflows
    with pytest.raises(NumericalError, match="monodromy matrix .* is not finite"):
        monodromy(LagrangianSystem(amp=1e160), PhasePoint(0.0, 0.0, 0.0), 1)


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


def test_a_singular_newton_jacobian_is_degenerate():
    # the free flow is a shear: I - monodromy is singular on every orbit
    with pytest.raises(DegenerateOrbitError,
                       match="^I - monodromy is singular; the orbit direction is not hyperbolic$"):
        refine_periodic_orbit(FREE, PhasePoint(0.3, 0.3, 0.0), 1)


def test_a_damped_step_halves_and_still_lands_on_the_saddle(monkeypatch):
    # every residual is one batched flow and every Newton step one solve;
    # each of the two shootings evaluates one residual before its first
    # step, so the calls left over are rejected trial steps
    calls = {"flow": 0, "solve": 0}
    flow_, solve = flow._flow_with_variational, np.linalg.solve

    def counted(name, f):
        def call(*args):
            calls[name] += 1
            return f(*args)
        return call

    monkeypatch.setattr(flow, "_flow_with_variational", counted("flow", flow_))
    monkeypatch.setattr(np.linalg, "solve", counted("solve", solve))
    orbit = refine_periodic_orbit(MECH, PhasePoint(0.15, 0.3, 0.0), 1)
    assert calls["flow"] - 2 - calls["solve"] == 1
    assert torus_distance(orbit.x, 0.0) < 1e-12 and abs(orbit.v) < 1e-12
    assert orbit.hyperbolic


def test_a_rotating_orbit_exhausts_the_newton_budget():
    with pytest.raises(NoOrbitError,
                       match=r"^shooting did not converge; last defect 1\.549e-08$"):
        refine_periodic_orbit(MECH, PhasePoint(0.3, 5.0, 0.0), 1)


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


def _reference_rk4(rhs, y0, t0, t1, n_steps):
    # the stepping of one RK4 whose right-hand side reads the stage time t
    h = (t1 - t0) / n_steps
    ys = [np.array(y0, dtype=float)]
    for i in range(n_steps):
        t, y = t0 + h * i, ys[-1]
        k1 = rhs(t, y)
        k2 = rhs(t + 0.5 * h, y + 0.5 * h * k1)
        k3 = rhs(t + 0.5 * h, y + 0.5 * h * k2)
        k4 = rhs(t + h, y + h * k3)
        ys.append(y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(ys)


def _reference_variational(sys, x0, v0, t0, t1):
    # every stage reads L_x and L_xx from the pointwise closed forms at t:
    # L_x from the minimizer's fused evaluator
    def rhs(t, y):
        ax = sys.lagrangian_xx(y[0], y[1], t) / sys.mass
        dy = np.empty_like(y)
        dy[0], dy[1] = y[1], sys.lagrangian_and_grads(y[0], y[1], t)[1] / sys.mass
        dy[2:4], dy[4:] = y[4:], ax * y[2:4]
        return dy

    y0 = np.empty((6, len(x0)))
    y0[0], y0[1], y0[2:] = x0, v0, np.eye(2).reshape(4, 1)
    y = _reference_rk4(rhs, y0, np.asarray(t0), np.asarray(t1),
                       flow._steps_for(t1[0] - t0[0]))[-1]
    return y[0], y[1], y[2:].T.reshape(-1, 2, 2)


def _reference_trajectory(sys, p, t1):
    def rhs(t, y):
        return np.array([y[1], sys.lagrangian_and_grads(y[0], y[1], t)[1] / sys.mass])

    return _reference_rk4(rhs, [p.x, p.v], p.t, t1, flow._steps_for(t1 - p.t))


@st.composite
def flow_cases(draw):
    """A system, m drawn columns and one at x = -1e-18, v = 0, whose phase
    rounds to 1.0 and folds to 0, each from its own t0, over one duration."""
    sys = LagrangianSystem(
        family="mechanical-cos", freq=draw(st.sampled_from([1, 2, 3])),
        amp=draw(st.one_of(st.just(0.0), st.floats(-2.0, 2.0))),
        eps=draw(st.floats(-0.5, 0.5, exclude_min=True, exclude_max=True)),
        lift=draw(st.sampled_from([1, 2, 3])))
    m = draw(st.integers(1, 3))
    x0 = draw(st.lists(st.floats(-3.0, 3.0), min_size=m, max_size=m)) + [-1e-18]
    v0 = draw(st.lists(st.floats(-2.0, 2.0), min_size=m, max_size=m)) + [0.0]
    t0 = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=m + 1, max_size=m + 1,
                                unique=True)))
    return sys, np.array(x0), np.array(v0), t0, t0 + draw(st.floats(-1.0, 1.0))


@given(flow_cases())
def test_the_stepper_equals_the_stagewise_closed_forms(case):
    # forward and backward, at every amplitude, modulation and lift: the
    # inlined float force, the tabulated modulation and the straight-line
    # stages change no bit of a state, a trajectory or a variational matrix
    sys, x0, v0, t0, t1 = case
    got = _flow_with_variational(sys, x0, v0, t0, t1)
    ref = _reference_variational(sys, x0, v0, t0, t1)
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)
    p = PhasePoint(x0[0], v0[0], t0[0])
    _, xs, vs = flow_trajectory(sys, p, t1[0])
    ref = _reference_trajectory(sys, p, t1[0])
    assert np.array_equal(xs, ref[:, 0]) and np.array_equal(vs, ref[:, 1])


@pytest.mark.parametrize("t1, steps", [(1.0, 200), (0.005, 1)])
def test_an_overflowing_flow_names_the_step_where_it_stopped_being_finite(t1, steps):
    # the first step sums four velocities near 1e308 into x: the next
    # stage cannot fold its phase, and a one-step flow ends there
    with pytest.raises(NumericalError, match=r"^the flow of mechanical-cos\(A=1,q=1,eps=0\) "
                       rf"left the finite floats at step 1 of {steps} \(t = 0\.005\)$"):
        flow_map(MECH, PhasePoint(0.2, 1e308, 0.0), t1)


@pytest.mark.parametrize("sys", [EPS, LagrangianSystem(family="mechanical-cos", eps=0.1,
                                                       lift=2)], ids=lambda s: s.label())
def test_variational_flow_equals_the_stagewise_closed_forms(sys):
    # the 24 segments of a period-3 shooting residual: the tabulated
    # modulation and the one-phase force change no bit
    rng = np.random.default_rng(1)
    xs, vs = rng.uniform(0.0, 1.0, 24), rng.uniform(-0.5, 0.5, 24)
    times = 3 / 24 * np.arange(25)
    got = _flow_with_variational(sys, xs, vs, times[:-1], times[1:])
    ref = _reference_variational(sys, xs, vs, times[:-1], times[1:])
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("t0", [0.0, -0.3])
def test_flow_trajectory_equals_the_stagewise_closed_form(t0):
    def rhs(t, y):
        return np.array([y[1], EPS.lagrangian_and_grads(y[0], y[1], t)[1] / EPS.mass])

    times, xs, vs = flow_trajectory(EPS, PhasePoint(0.2, 0.3, t0), t0 + 2.5)
    ref = _reference_rk4(rhs, [0.2, 0.3], t0, t0 + 2.5, times.size - 1)
    assert times.size == 501
    assert np.array_equal(xs, ref[:, 0]) and np.array_equal(vs, ref[:, 1])


def test_shooting_tabulates_one_modulation_per_integration(monkeypatch):
    # the stepper inlines the force at its own float phase: while shooting,
    # every integration tabulates one modulation and no array closed form
    # of the system is called
    counts = dict.fromkeys(("rk4", "modulation", "_phase", "lagrangian_and_grads",
                            "lagrangian_xx"), 0)
    real_rk4 = flow._rk4

    def counted(name, f):
        def call(*args):
            counts[name] += 1
            return f(*args)
        return call

    for name in ("modulation", "_phase", "lagrangian_and_grads", "lagrangian_xx"):
        monkeypatch.setattr(LagrangianSystem, name,
                            counted(name, getattr(LagrangianSystem, name)))
    monkeypatch.setattr(flow, "_rk4", counted("rk4", real_rk4))
    refine_periodic_orbit(EPS, PhasePoint(0.01, 0.01, 0.0), 2)
    assert counts["rk4"] >= 2 and counts["modulation"] == counts["rk4"]
    assert counts["_phase"] == counts["lagrangian_and_grads"] == counts["lagrangian_xx"] == 0


@pytest.mark.parametrize("t0", [0.0, 0.7])
def test_backward_flows_equal_the_stagewise_closed_forms(t0):
    # t1 < t0: every column steps with a negative h
    def rhs(t, y):
        return np.array([y[1], EPS.lagrangian_and_grads(y[0], y[1], t)[1] / EPS.mass])

    times, xs, vs = flow_trajectory(EPS, PhasePoint(0.2, 0.3, t0), t0 - 2.5)
    ref = _reference_rk4(rhs, [0.2, 0.3], t0, t0 - 2.5, times.size - 1)
    assert times.size == 501
    assert np.array_equal(xs, ref[:, 0]) and np.array_equal(vs, ref[:, 1])

    # the 24 segments of a period-3 residual, each run from its end to its start
    rng = np.random.default_rng(2)
    x0, v0 = rng.uniform(0.0, 1.0, 24), rng.uniform(-0.5, 0.5, 24)
    ends = t0 + 3 / 24 * np.arange(25)
    got = _flow_with_variational(EPS, x0, v0, ends[1:], ends[:-1])
    ref = _reference_variational(EPS, x0, v0, ends[1:], ends[:-1])
    for a, b in zip(got, ref):
        assert np.array_equal(a, b)


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


@pytest.mark.parametrize("t", [0.3, 1.0, -0.5])
def test_refinement_guess_must_start_at_time_zero(t):
    # the shooting grid starts at t = 0 and the orbit carries no time
    with pytest.raises(ConfigurationError, match="t = 0"):
        refine_periodic_orbit(EPS, PhasePoint(0.01, 0.01, t), 1)


@pytest.mark.parametrize("period", [1.5, 1.0, True, 0])
def test_monodromy_period_must_be_a_positive_integer(period):
    with pytest.raises(ConfigurationError, match="positive integer"):
        monodromy(MECH, PhasePoint(0.0, 0.0, 0.0), period)


@pytest.mark.parametrize("period", [0, -1, 2.5, True])
def test_floquet_period_must_be_a_positive_integer(period):
    # an unchecked period 0 divides by zero, and -1 flips the exponents'
    # signs, so that lam reads the stable rate
    with pytest.raises(ConfigurationError, match="^period must be a positive integer$"):
        floquet_analysis(np.diag([2.0, 0.5]), period)


@pytest.mark.parametrize("t1", [math.inf, -math.inf, math.nan])
def test_flows_reject_a_non_finite_end_time(t1):
    p = PhasePoint(0.1, 0.2, 0.0)
    for call in (flow_map, flow_trajectory):
        with pytest.raises(ConfigurationError, match="end time must be finite"):
            call(MECH, p, t1)


def test_floquet_validates_shape():
    with pytest.raises(ConfigurationError):
        floquet_analysis(np.ones((3, 3)), 1)


@pytest.mark.parametrize("entry", [math.inf, -math.inf, math.nan])
def test_floquet_rejects_a_non_finite_matrix(entry):
    mono = np.eye(2)
    mono[0, 1] = entry
    with pytest.raises(ConfigurationError, match="monodromy entries must be finite"):
        floquet_analysis(mono, 1)


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
    y0 = [0.2, 0.3, 1.0, 0.0, 0.0, 1.0]
    ref = _rk4(EPS, y0, 0.0, 1.0, 2000)[-1]

    def err(n):
        end = _rk4(EPS, y0, 0.0, 1.0, n)[-1]
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
