import dataclasses
import math

import numpy as np
import pytest

import weakkam.systems as systems
from weakkam import (ConfigurationError, DiscretizedCurve, Grid, LagrangianSystem,
                     PhasePoint, assemble_kernel, curve_action, reduce_mod_1,
                     torus_distance)

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")
EPS = LagrangianSystem(family="mechanical-cos", eps=0.1)


def test_eval_free_closed_form():
    x, v, t = 0.3, 2.0, 0.7
    _, lx, lv = FREE.lagrangian_and_grads(x, v, t)
    values = (FREE.lagrangian(x, v, t), lx, lv, FREE.mass)
    assert values == (2.0, 0.0, 2.0, 1.0)


def test_eval_mech_at_rest_on_maximum():
    x, v, t = 0.0, 0.0, 0.37
    assert MECH.lagrangian(x, v, t) == -1.0
    assert MECH.lagrangian_and_grads(x, v, t)[2] == 0.0
    assert MECH.mass == 1.0


@pytest.mark.parametrize("amp, eps", [(1.0, 0.1), (0.3, 0.1)])
def test_one_closed_form_for_l_and_l_x(amp, eps):
    # the pointwise evaluators and the fused one share every rounding, at
    # every amplitude and modulation, and fold a tiny negative x to phase 0
    sys = LagrangianSystem(family="mechanical-cos", amp=amp, eps=eps)
    rng = np.random.default_rng(3)
    x = np.append(rng.uniform(-3.0, 3.0, 3300), -1e-30)
    v = rng.uniform(-3.0, 3.0, x.size)
    t = rng.uniform(-2.0, 2.0, x.size)
    lag, lx, _ = sys.lagrangian_and_grads(x, v, t)
    assert np.array_equal(sys.lagrangian(x, v, t), lag)
    assert lx[-1] == 0.0


# the free family, q in {1, 2, 3} at eps in {0, 0.1, -0.3}, a lift of order
# 2, and an amplitude other than 1, which rounds amp * w * w differently
FORCE_SYSTEMS = [FREE] + [LagrangianSystem(family="mechanical-cos", freq=q, eps=eps)
                          for q in (1, 2, 3) for eps in (0.0, 0.1, -0.3)] + [
    LagrangianSystem(family="mechanical-cos", eps=0.1, lift=2),
    LagrangianSystem(family="mechanical-cos", amp=0.3, freq=3, eps=0.1)]
# integers and half-integers, where the modulation is exactly 1 +- eps
HALF_INTEGERS = np.arange(-6, 6) / 2.0


@pytest.mark.parametrize("sys", FORCE_SYSTEMS, ids=lambda s: s.label())
def test_l_x_and_l_xx_at_floats_equal_the_array_closed_forms(sys):
    # the flow's force and its derivative, L_x of the fused evaluator and
    # L_xx, evaluated at one float point equal their array evaluation bit
    # for bit, and -1e-18 folds to phase 0; the stepper's own bits are
    # checked against these closed forms in the flow tests
    rng = np.random.default_rng(11)
    x = np.concatenate([rng.uniform(-3.0, 3.0, 400), [-1e-18, 0.0, 0.5, -1.0]])
    t = np.concatenate([rng.uniform(-2.0, 2.0, x.size - HALF_INTEGERS.size), HALF_INTEGERS])
    v = rng.uniform(-3.0, 3.0, x.size)
    lx, lxx = sys.lagrangian_and_grads(x, v, t)[1], sys.lagrangian_xx(x, v, t)
    assert lx[400] == 0.0 and lxx[400] == sys.lagrangian_xx(0.0, 0.0, t[400])
    for k in range(x.size):
        xk, vk, tk = float(x[k]), float(v[k]), float(t[k])
        assert sys.lagrangian_and_grads(xk, vk, tk)[1] == lx[k]
        assert sys.lagrangian_xx(xk, vk, tk) == lxx[k]


@pytest.mark.parametrize("sys", FORCE_SYSTEMS, ids=lambda s: s.label())
def test_modulation_is_the_one_the_potential_reads(sys):
    rng = np.random.default_rng(12)
    t = np.concatenate([rng.uniform(-2.0, 2.0, 200), HALF_INTEGERS])
    m = sys.modulation(t)
    if sys.eps == 0.0:
        assert m == 1.0 and np.ndim(m) == 0
    # at the crest x = 0 the phase is 0 and its cosine exactly 1, so a unit
    # amplitude potential is its modulation; the free family is amplitude 0
    unit = dataclasses.replace(sys, family="mechanical-cos", amp=1.0)
    assert np.array_equal(unit.potential(np.zeros_like(t), t), np.broadcast_to(m, t.shape))
    # 1 + eps cos(2 pi N t) at the integers and half-integers
    even = (2 * sys.lift * HALF_INTEGERS) % 2 == 0
    expected = np.where(even, 1.0 + sys.eps, 1.0 - sys.eps)
    assert np.array_equal(np.broadcast_to(m, t.shape)[200:], expected)


def test_eval_mech_quarter_kills_potential():
    assert abs(EPS.lagrangian(0.25, 1.0, 0.0) - 0.5) < 1e-15


def test_unknown_family_rejected():
    with pytest.raises(ConfigurationError):
        LagrangianSystem(family="nope")
    with pytest.raises(ConfigurationError):
        LagrangianSystem(family="mechanical-cos", eps=1.5)
    with pytest.raises(ConfigurationError):
        LagrangianSystem(family="mechanical-cos", freq=0)
    with pytest.raises(ConfigurationError):  # amplitude 0 of the same family
        LagrangianSystem(family="free", freq=0)


@pytest.mark.parametrize("family", ["free", "mechanical-cos"])
@pytest.mark.parametrize("eps", [math.nan, math.inf, -1.0, 1.0])
def test_every_family_checks_its_modulation(family, eps):
    with pytest.raises(ConfigurationError, match=r"\|eps\| < 1"):
        LagrangianSystem(family=family, eps=eps)


def test_the_free_family_is_stored_as_amplitude_0():
    free = LagrangianSystem(family="free", amp=2.5, eps=0.3)
    assert free.amp == 0.0 and free == LagrangianSystem(family="free", eps=0.3)
    assert free.label() == "free"
    with pytest.raises(ConfigurationError, match="amplitude must be finite"):
        LagrangianSystem(family="free", amp=math.nan)
    # the one-step shift is declared from the amplitude, not the tag
    for sys in (free, LagrangianSystem(amp=0.0, freq=4)):
        assert sys.kernel_symmetries(16, 0.0, 1.0)[0] == 1
    assert LagrangianSystem(freq=4).kernel_symmetries(16, 0.0, 1.0)[0] == 4


@pytest.mark.parametrize("value, least, match", [
    (True, 0, "seed must be a nonnegative integer"),
    (-1, 0, "seed must be a nonnegative integer"),
    (0, 1, "seed must be a positive integer"),
    (7, 8, "seed must be an integer of at least 8"),
    (8.0, 8, "seed must be an integer of at least 8")])
def test_positive_integer_names_its_least_value(value, least, match):
    with pytest.raises(ConfigurationError, match=match):
        systems.positive_integer(value, "seed", least)
    assert systems.positive_integer(np.int64(least), "seed", least) == least


@pytest.mark.parametrize("field", ["freq", "lift"])
def test_integer_fields_reject_booleans(field):
    with pytest.raises(ConfigurationError, match="positive integer"):
        LagrangianSystem(**{field: True})


def test_integer_fields_take_any_integer_type():
    numpy_q = LagrangianSystem(freq=np.int64(2), lift=np.int32(1))
    assert type(numpy_q.freq) is int and type(numpy_q.lift) is int
    assert numpy_q.label() == "mechanical-cos(A=1,q=2,eps=0)"
    plain = assemble_kernel(LagrangianSystem(freq=2), Grid(16), 0.0, 1.0)
    assert np.array_equal(assemble_kernel(numpy_q, Grid(16), 0.0, 1.0).matrix, plain.matrix)


def test_legendre_mech_at_maximum():
    assert MECH.hamiltonian(0.0, 0.0, 0.123) == 1.0


def test_legendre_modulated_closed_form():
    # closed form H = p^2/2 + A cos(2 pi q x)(1 + eps cos 2 pi t)
    x, p, t = 0.5, 2.0, 0.25
    oracle = 0.5 * p * p + 1.0 * math.cos(2 * math.pi * x) * (
        1 + 0.1 * math.cos(2 * math.pi * t))
    assert abs(EPS.hamiltonian(x, p, t) - oracle) < 1e-12
    assert abs(oracle - 1.0) < 1e-12


def test_time_periodicity_exact_on_representable_shifts():
    rng = np.random.default_rng(0)
    # dyadic times so that t+1 and x+1 are exactly representable
    t = rng.integers(0, 4096, size=1000) / 4096.0
    x = rng.integers(0, 4096, size=1000) / 4096.0
    v = rng.uniform(-3, 3, size=1000)
    for sys in (MECH, EPS):
        assert np.array_equal(sys.lagrangian(x, v, t + 1.0), sys.lagrangian(x, v, t))
        assert np.array_equal(sys.lagrangian(x + 1.0, v, t), sys.lagrangian(x, v, t))


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(1)
    step = 1e-6
    for sys in (MECH, EPS, FREE):
        for _ in range(40):
            x, v, t = rng.uniform(0, 1), rng.uniform(-2, 2), rng.uniform(0, 1)
            fd_x = (sys.lagrangian(x + step, v, t) - sys.lagrangian(x - step, v, t)) / (2 * step)
            fd_v = (sys.lagrangian(x, v + step, t) - sys.lagrangian(x, v - step, t)) / (2 * step)
            scale = 1.0 + abs(fd_x) + abs(fd_v)
            def l_x(x):
                return sys.lagrangian_and_grads(x, v, t)[1]

            assert abs(fd_x - l_x(x)) / scale < 1e-6
            assert abs(fd_v - sys.lagrangian_and_grads(x, v, t)[2]) / scale < 1e-6
            fd_xx = (l_x(x + step) - l_x(x - step)) / (2 * step)
            assert abs(fd_xx - sys.lagrangian_xx(x, v, t)) / (1 + abs(fd_xx)) < 1e-5


def test_curve_action_examples():
    const = DiscretizedCurve(0.0, 1.0, np.zeros(101), 0)
    assert curve_action(FREE, const) == 0.0
    linear = DiscretizedCurve(0.0, 1.0, 0.4 * np.linspace(0, 1, 101), 0)
    assert abs(curve_action(FREE, linear) - 0.08) < 1e-15
    rest = DiscretizedCurve(0.0, 1.0, np.zeros(101), 0)
    assert abs(curve_action(MECH, rest) - (-1.0)) < 1e-12


def test_curve_action_additive_at_sample_split():
    rng = np.random.default_rng(2)
    samples = rng.normal(0, 0.3, 65).cumsum()
    whole = DiscretizedCurve(0.0, 2.0, samples, 0)
    left = DiscretizedCurve(0.0, 1.0, samples[:33], 0)
    right = DiscretizedCurve(1.0, 2.0, samples[32:], 0)
    total = curve_action(MECH, whole)
    split = curve_action(MECH, left) + curve_action(MECH, right)
    assert abs(total - split) <= 1e-14 * (1 + abs(total))


@pytest.mark.parametrize("block_rows", [16, 37, 999, 1000, 4096])
def test_exact_row_actions_are_per_row_fsums_whatever_the_block(monkeypatch, block_rows):
    rng = np.random.default_rng(5)
    rows = rng.normal(0.0, 0.3, (1000, 33)).cumsum(axis=1)
    h = 1.0 / 32
    tmid = h * (np.arange(32) + 0.5)
    mid, vel = systems.midpoint_geometry(rows, h)
    terms = h * EPS.lagrangian(mid, vel, tmid)
    expected = [math.fsum(row) for row in terms]
    monkeypatch.setattr(systems, "BLOCK_FLOATS", block_rows * 33)
    assert systems.exact_row_actions(EPS, 0.0, 1.0, rows).tolist() == expected


@pytest.mark.parametrize("m, width, count, sizes", [
    (0, 33, 1, {0}), (15, 33, 1, {15}), (992, 33, 1, {992}),  # 992 rows fill 32,768 floats
    (993, 33, 2, {496, 497}), (8192, 33, 9, {910, 911}), (100, 1025, 4, {25}),
    (40, 40_000, 2, {20})],  # no block under 16 rows, even past 32,768 floats
    ids=["empty", "under-the-floor", "one-block", "two", "batch", "long-rows", "floor"])
def test_row_blocks_are_contiguous_near_equal_and_bounded(m, width, count, sizes):
    blocks = systems.row_blocks(m, width)
    assert len(blocks) == count
    assert {block.stop - block.start for block in blocks} == sizes
    assert blocks[0].start == 0 and blocks[-1].stop == m
    assert all(a.stop == b.start for a, b in zip(blocks, blocks[1:]))


@pytest.mark.parametrize("m, workers, count", [
    (15, 2, 1), (40, 16, 2), (273, 16, 16),  # no batch under 16 pairs
    (16513, 1, 2), (16513, 2, 2), (65793, 2, 7), (262657, 16, 27)],
    ids=["under-the-floor", "floor", "per-worker", "grid256-1cpu", "grid256-2cpu",
         "grid512", "grid1024"])
def test_batch_count_is_one_per_worker_within_the_float_budget(m, workers, count):
    width = 99  # floats of one pair with its first shell of windings
    assert systems.batch_count(m, width, workers) == count
    if m >= systems.MIN_BATCH_PAIRS * count:
        assert -(-m // count) * width <= systems.BATCH_FLOATS + width


def test_phase_point_reduces_and_validates():
    p = PhasePoint(1.25, 0.5, 0.0)
    assert p.x == 0.25
    with pytest.raises(ConfigurationError):
        PhasePoint(float("nan"), 0.0, 0.0)


def test_curve_validation():
    with pytest.raises(ConfigurationError):
        DiscretizedCurve(0.0, 1.0, np.array([0.1]), 0)
    with pytest.raises(ConfigurationError):
        DiscretizedCurve(1.0, 1.0, np.array([0.1, 0.2]), 0)


def test_torus_distance_and_reduction():
    assert torus_distance(0.1, 0.9) == pytest.approx(0.2, abs=1e-15)
    assert float(reduce_mod_1(-1e-18)) == 0.0
    assert float(reduce_mod_1(2.25)) == 0.25
