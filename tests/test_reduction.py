import numpy as np
import pytest

from weakkam import (ConfigurationError, DiscretizedCurve,
                     InvalidSubsolutionError, Grid, LagrangianSystem,
                     assemble_kernel, curve_action, karp_eigenvalue, lift_curve,
                     lift_system, minimal_action, subsolution_from_tag,
                     tilt_system)
from weakkam.acceptance import random_curves
from weakkam.flow import _el_rhs, _rk4

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")
EPS = LagrangianSystem(family="mechanical-cos", eps=0.1)


def test_lift_identity_wrapper():
    lifted = lift_system(MECH, 1)
    rng = np.random.default_rng(12)
    x, v, t = rng.uniform(0, 1, 20), rng.uniform(-3, 3, 20), rng.uniform(0, 2, 20)
    assert np.array_equal(lifted.lagrangian(x, v, t), MECH.lagrangian(x, v, t))


def test_lift_free_closed_form():
    lifted = lift_system(FREE, 2)
    assert lifted.lagrangian(0.3, 2.0, 0.1) == 0.5
    assert lifted.lagrangian(0.0, 1.0, 0.0) == 0.125


def test_lift_curve_hand_example():
    curve = DiscretizedCurve(0.0, 2.0, np.linspace(0.0, 2.0, 65), 0)
    lifted_curve = lift_curve(curve, 2)
    lifted_sys = lift_system(FREE, 2)
    assert curve_action(FREE, curve) == pytest.approx(1.0, abs=1e-14)
    assert curve_action(lifted_sys, lifted_curve) == pytest.approx(0.5, abs=1e-14)
    assert lifted_curve.t1 == 1.0


def test_lift_action_identity_random():
    worst = 0.0
    for curve in random_curves(11, 40):
        base = curve_action(EPS, curve)
        for n in (2, 3):
            lifted = curve_action(lift_system(EPS, n), lift_curve(curve, n))
            worst = max(worst, abs(n * lifted - base))
    assert worst <= 1e-10


def test_lift_hamiltonian_exact():
    lifted = lift_system(EPS, 2)
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, p, t = rng.uniform(0, 1), rng.uniform(-3, 3), rng.uniform(0, 1)
        assert lifted.hamiltonian(x, p, t) == EPS.hamiltonian(x, 2 * p, 2 * t)


def test_lift_flow_commutation():
    lifted = lift_system(MECH, 2)
    lifted_end = _rk4(_el_rhs(lifted), [0.2, 0.8], 0.0, 0.5, 400)[-1]
    base_end = _rk4(_el_rhs(MECH), [0.2, 0.4], 0.0, 1.0, 400)[-1]
    assert abs(lifted_end[0] - base_end[0]) < 1e-9
    assert abs(lifted_end[1] - 2.0 * base_end[1]) < 1e-8


def test_lift_validation():
    with pytest.raises(ConfigurationError):
        lift_system(MECH, 0)
    with pytest.raises(ConfigurationError):
        lift_curve(DiscretizedCurve(0.0, 1.0, np.zeros(3), 0), 0)


def test_lifts_are_systems_of_the_family_and_compose():
    lifted = lift_system(lift_system(EPS, 2), 3)
    assert isinstance(lifted, LagrangianSystem)
    assert lifted == lift_system(EPS, 6) and lifted.lift == 6
    assert lifted.mass == 1.0 / 36
    assert lifted.label() == "lift(N=6) of mechanical-cos(A=1,q=1,eps=0.1)"


def test_tilt_zero_and_constant():
    zero_tilt = tilt_system(FREE, "zero", 0.0)
    assert zero_tilt.tilt_minimum >= -1e-12
    rng = np.random.default_rng(14)
    x, v, t = rng.uniform(0, 1, 30), rng.uniform(-2, 2, 30), rng.uniform(0, 1, 30)
    assert np.allclose(zero_tilt.lagrangian(x, v, t), FREE.lagrangian(x, v, t))
    # a constant subsolution tilts by c alone, valid from the critical value 1 on
    const_tilt = tilt_system(MECH, "constant", 1.0, kappa=4.2)
    assert const_tilt.tilt_minimum >= 0.0
    assert np.allclose(const_tilt.lagrangian(x, v, t),
                       MECH.lagrangian(x, v, t) + 1.0)


def test_tilt_maupertuis_nonnegative():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    assert tilted.tilt_minimum >= -1e-6
    wx, wv, _ = tilted.tilt_witness
    assert min(wx, 1 - wx) <= 0.05 and abs(wv) <= 0.25


def test_tilt_rejects_subcritical_constant():
    with pytest.raises(InvalidSubsolutionError):
        tilt_system(MECH, "maupertuis", 0.5)


def test_tilt_tag_compatibility():
    with pytest.raises(ConfigurationError):
        tilt_system(FREE, "maupertuis", 1.0)
    with pytest.raises(ConfigurationError):
        subsolution_from_tag("bogus", MECH)


def test_tilt_action_identity():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    worst = 0.0
    for curve in random_curves(15, 40):
        lhs = curve_action(tilted, curve)
        rhs = (curve_action(MECH, curve) + 1.0 * (curve.t1 - curve.t0)
               + float(tilted.sub.value(curve.start(), curve.t0))
               - float(tilted.sub.value(curve.end(), curve.t1)))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


def test_tilt_subsolution_derivative_consistency():
    sub = subsolution_from_tag("maupertuis", MECH)
    rng = np.random.default_rng(16)
    step = 1e-6
    for _ in range(60):
        x = rng.uniform(0, 1)
        fd = (sub.value(x + step, 0.0) - sub.value(x - step, 0.0)) / (2 * step)
        assert abs(fd - sub.dx(x, 0.0)) < 1e-5


def test_tilt_preserves_minimizers():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    _, base_curve = minimal_action(MECH, 0.3, 0.0, 0.7, 1.0)
    _, tilt_curve = minimal_action(tilted, 0.3, 0.0, 0.7, 1.0)
    assert np.max(np.abs(base_curve.samples - tilt_curve.samples)) <= 1e-6
    assert base_curve.winding == tilt_curve.winding


def test_tilted_kernel_eigenvalue_vanishes():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    kernel = assemble_kernel(tilted, Grid(16), 0.0, 1.0)
    assert abs(karp_eigenvalue(kernel)) <= 2e-2
