import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from weakkam import (ConfigurationError, DiscretizedCurve,
                     InvalidSubsolutionError, Grid, LagrangianSystem,
                     curve_action, karp_eigenvalue, lift_curve, lift_system,
                     minimal_action, tilt_system)
from weakkam.acceptance import legendre_gap, random_curves, tilt_quadrature_gap
from weakkam.flow import _el_rhs, _rk4

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")
EPS = LagrangianSystem(family="mechanical-cos", eps=0.1)
MECH_Q2 = LagrangianSystem(family="mechanical-cos", freq=2)


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


def test_lift_hamiltonian_is_the_legendre_dual_of_its_lagrangian():
    lifted = lift_system(EPS, 2)
    rng = np.random.default_rng(13)
    for _ in range(100):
        x, p, t = rng.uniform(0, 1), rng.uniform(-3, 3), rng.uniform(0, 1)
        assert legendre_gap(lifted, x, p, t) <= 1e-12
    # the base's Hamiltonian against the lift's Lagrangian is no dual pair
    mismatched = SimpleNamespace(mass=lifted.mass, lagrangian=lifted.lagrangian,
                                 hamiltonian=EPS.hamiltonian)
    assert legendre_gap(mismatched, 0.3, 1.5, 0.2) > 1.0


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


def test_tilt_zero():
    zero_tilt = tilt_system(FREE, "zero", 0.0)
    assert zero_tilt.tilt_minimum >= -1e-12
    rng = np.random.default_rng(14)
    x, v, t = rng.uniform(0, 1, 30), rng.uniform(-2, 2, 30), rng.uniform(0, 1, 30)
    assert np.allclose(zero_tilt.lagrangian(x, v, t), FREE.lagrangian(x, v, t))


def test_tilt_maupertuis_nonnegative():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    assert tilted.tilt_minimum >= -1e-6
    wx, wv, _ = tilted.tilt_witness
    assert min(wx, 1 - wx) <= 0.05 and abs(wv) <= 0.25


def test_tilt_rejects_subcritical_constant():
    with pytest.raises(InvalidSubsolutionError):
        tilt_system(MECH, "maupertuis", 0.5)


def test_tilt_tag_compatibility():
    # a time-independent f cannot follow the modulated ceiling of eps != 0
    with pytest.raises(ConfigurationError):
        tilt_system(EPS, "maupertuis", 1.0)
    with pytest.raises(ConfigurationError):
        tilt_system(MECH, "bogus", 1.0)
    with pytest.raises(ConfigurationError):
        tilt_system(MECH, "constant", 1.0)
    # the free family is amplitude 0: its maupertuis subsolution is f = 0
    free = tilt_system(FREE, "maupertuis", 0.0)
    x = np.linspace(0.0, 1.0, 17)
    assert np.all(free.f(x) == 0.0) and np.all(free.f_x(x) == 0.0)


def test_tilt_action_identity():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    worst = 0.0
    for curve in random_curves(15, 40):
        lhs = tilted.curve_action(curve)
        rhs = (curve_action(MECH, curve) + 1.0 * (curve.t1 - curve.t0)
               + float(tilted.f(curve.start())) - float(tilted.f(curve.end())))
        worst = max(worst, abs(lhs - rhs))
    assert worst <= 1e-9


@pytest.mark.parametrize("sys", [MECH, MECH_Q2], ids=["q1", "q2"])
def test_tilt_quadrature_stays_within_its_bound(sys):
    # the pointwise tilted Lagrangian, integrated by the midpoint rule,
    # misses the exact boundary term by at most the derived bound; with
    # the sign of f_x flipped it misses it on most curves
    tilted = tilt_system(sys, "maupertuis", 1.0)
    flipped = dataclasses.replace(tilted, f_x=lambda x: -tilted.f_x(x))
    misses = 0
    for curve in random_curves(15, 40):
        gap, bound = tilt_quadrature_gap(tilted, curve)
        assert gap <= bound
        flipped_gap, _ = tilt_quadrature_gap(flipped, curve)
        misses += flipped_gap > bound
    assert misses >= 30


def test_tilt_subsolution_derivative_consistency():
    rng = np.random.default_rng(16)
    step = 1e-6
    for sys in (MECH, MECH_Q2):
        tilted = tilt_system(sys, "maupertuis", 1.0)
        for _ in range(60):
            x = rng.uniform(0, 1)
            fd = (tilted.f(x + step) - tilted.f(x - step)) / (2 * step)
            assert abs(fd - tilted.f_x(x)) < 1e-5, (sys.label(), x)


def test_tilted_kernel_eigenvalue_vanishes():
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    kernel = tilted.kernel(Grid(16), 0.0, 1.0)
    assert abs(karp_eigenvalue(kernel)) <= 2e-2


def test_tilt_kernel_is_the_base_action_plus_the_boundary_term():
    grid = Grid(16)
    pts = grid.points
    for sys in (MECH, MECH_Q2):
        base = np.array([[minimal_action(sys, x, 0.0, y, 1.0)[0] for y in pts]
                         for x in pts])
        for f_tag in ("maupertuis", "zero"):
            tilted = tilt_system(sys, f_tag, 1.0)
            f = tilted.f(pts)
            expected = base + 1.0 + f[:, None] - f[None, :]
            kernel = tilted.kernel(grid, 0.0, 1.0)
            assert np.max(np.abs(kernel.matrix - expected)) <= 1e-12, (sys.label(), f_tag)
