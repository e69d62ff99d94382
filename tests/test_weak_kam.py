import dataclasses
import math

import numpy as np
import pytest

import weakkam.weak_kam as weak_kam
from weakkam import (ConfigurationError, Grid,
                     LagrangianSystem, NumericalError, TropicalKernel, aubry_set,
                     assemble_kernel, connection_graph, karp_eigenvalue,
                     minplus_apply, minplus_matmul, peierls_barrier, run_convergence,
                     semigroup_limit, tilt_system)
from weakkam.tropical import pair_orbits, row_orbits

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")

N = 64


@pytest.fixture(scope="module")
def mech_kernel():
    return assemble_kernel(MECH, Grid(N), 0.0, 1.0)


@pytest.fixture(scope="module")
def mech_barrier(mech_kernel):
    c = karp_eigenvalue(mech_kernel)
    return peierls_barrier(MECH, Grid(N), c, horizon=24, kernel=mech_kernel)


@pytest.fixture(scope="module")
def free_kernel():
    return assemble_kernel(FREE, Grid(N), 0.0, 1.0)


def test_critical_value_free(free_kernel):
    assert abs(karp_eigenvalue(free_kernel)) <= 1e-9


def test_critical_value_mech(mech_kernel):
    assert abs(karp_eigenvalue(mech_kernel) - 1.0) <= 1e-2


def test_barrier_free_dies_out(free_kernel):
    barrier = peierls_barrier(FREE, Grid(N), 0.0, horizon=12, kernel=free_kernel)
    assert np.min(barrier.values) >= -1e-12
    assert np.max(barrier.values) <= 2e-2
    assert not barrier.stabilized  # decays like 1/horizon, never snaps


def test_barrier_oracle_small_grid(mech_barrier):
    oracle = lambda x: (2 / math.pi) * (1 - math.cos(math.pi * x))
    for x in (0.25, 0.5):
        j = int(round(x * N))
        assert abs(mech_barrier.values[0, j] - oracle(x)) < 2e-2
    assert mech_barrier.stabilized and mech_barrier.defect == 0.0


def test_barrier_diagonal_and_triangle(mech_barrier):
    h = mech_barrier.values
    assert np.min(np.diag(h)) >= -1e-9
    assert h[0, 0] == 0.0
    rng = np.random.default_rng(6)
    for _ in range(60):
        i, j, k = rng.integers(0, N, 3)
        assert h[i, k] <= h[i, j] + h[j, k] + 2 * mech_barrier.defect + 1e-9


def test_barrier_monotone_in_horizon_past_turnpike(mech_kernel):
    c = karp_eigenvalue(mech_kernel)
    barriers = [peierls_barrier(MECH, Grid(N), c, horizon=hz, kernel=mech_kernel)
                for hz in (12, 16, 24)]
    for coarse, fine in zip(barriers, barriers[1:]):
        assert np.all(fine.values <= coarse.values + 1e-12)


def _full_loop_barrier(shifted, horizon):
    """The running minimum of the last 4 of all horizon powers, with no
    early stop, and the powers P^1 .. P^horizon themselves."""
    powers = [shifted]
    for _ in range(horizon - 1):
        powers.append(weak_kam.minplus_matmul(powers[-1], shifted))
    return np.minimum.reduce(powers[-4:]), powers


def _cyclic_kernel(length, n=8):
    """Integer kernel whose only zero-weight cycle is 0 -> 1 -> .. -> 0 of
    the given length, so its powers end up periodic with that period."""
    i, j = np.indices((n, n))
    matrix = 1.0 + (i + 2 * j) % 4
    matrix[np.arange(length), (np.arange(length) + 1) % length] = 0.0
    return TropicalKernel(grid=Grid(n), s=0.0, delta=1.0, matrix=matrix)


@pytest.fixture(scope="module")
def barrier_cases(mech_kernel, free_kernel):
    """(kernel, c, period) per case; period None: no repeat within 40 powers."""
    # c = 0.3 is not exact in binary: from P^5 on each power sits 4.4e-16
    # below the one before, so the powers never repeat bit for bit
    rounding = assemble_kernel(LagrangianSystem(family="mechanical-cos", amp=0.3),
                               Grid(N), 0.0, 1.0)
    return {
        "mechanical": (mech_kernel, karp_eigenvalue(mech_kernel), 1),
        "rounding": (rounding, karp_eigenvalue(rounding), 1),
        "free": (free_kernel, 0.0, 1),
        "unshifted": (mech_kernel, 0.0, None),  # powers drift by -c per step
        "cycle-2": (_cyclic_kernel(2), 0.0, 2),
        "cycle-3": (_cyclic_kernel(3), 0.0, 3),
    }


@pytest.mark.parametrize("case", ["mechanical", "free", "unshifted", "cycle-2",
                                  "cycle-3"])
def test_barrier_star_is_the_cycle_minimum_of_the_power_loop(barrier_cases, case):
    # at horizon 40 the star has the values and the period of the power
    # loop's cycle minimum, bit for bit; a smaller horizon only caps the
    # products, so the barrier either is that same barrier or unstabilized,
    # and once stabilized stays so
    kernel, c, period = barrier_cases[case]
    grid = kernel.grid
    values, _, _, loop_period = _unreduced_barrier(kernel, c, 40)
    full = peierls_barrier(None, grid, c, 40, kernel=kernel)
    assert full.period == loop_period == period
    if period is not None:
        assert full.values.tobytes() == values.tobytes() and full.defect == 0.0
    stabilized = []
    for horizon in list(range(2, 13)) + [24]:
        barrier = peierls_barrier(None, grid, c, horizon, kernel=kernel)
        assert barrier.horizon == horizon
        if barrier.stabilized:
            assert barrier.values.tobytes() == full.values.tobytes()
            assert (barrier.period, barrier.defect) == (period, 0.0)
        else:
            assert barrier.period is None and barrier.defect > 0.0
        stabilized.append(barrier.stabilized)
    assert stabilized == sorted(stabilized)
    if period is None:  # the mechanical kernel unshifted drifts by -c per step
        assert full.defect >= 0.99 * barrier_cases["mechanical"][1]


def test_barrier_free_repeats_only_past_half_grid(barrier_cases):
    # unit grid steps reach every point within n / 2 steps, after which no
    # longer walk is cheaper: the star rows first repeat at the 32nd product,
    # and the powers at P^33 == P^32
    kernel, c, _ = barrier_cases["free"]
    assert not peierls_barrier(FREE, Grid(N), c, N // 2, kernel=kernel).stabilized
    assert _unreduced_barrier(kernel, c, N // 2)[3] is None
    barrier = peierls_barrier(FREE, Grid(N), c, N // 2 + 1, kernel=kernel)
    values, _, turnpike, period = _unreduced_barrier(kernel, c, N // 2 + 1)
    assert (turnpike, period) == (N // 2 + 1, 1) and barrier.period == 1
    assert np.array_equal(barrier.values, values)


@pytest.mark.parametrize("case, critical", [
    ("mechanical", 1), ("rounding", 1), ("free", N), ("unshifted", None), ("cycle-2", 2),
    ("cycle-3", 3)])
def test_barrier_multiplies_critical_rows_only(barrier_cases, monkeypatch, case, critical):
    # every product is a star row or column block of the critical nodes,
    # and each of the two fixed points runs at most horizon - 1 products;
    # unshifted, the subeigenvector never arrives, and its tight graph has
    # cycles that are not critical, so only their count is common
    kernel, c, _ = barrier_cases[case]
    rows = []
    real = weak_kam.minplus_matmul

    def recording(a, b):
        rows.append(a.shape[0])
        return real(a, b)

    monkeypatch.setattr(weak_kam, "minplus_matmul", recording)
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    assert len(set(rows)) == 1 and critical in (None, rows[0])
    assert len(rows) <= 2 * (40 - 1)
    if case == "unshifted":  # never arrives, so both run to the cap
        assert len(rows) == 2 * (40 - 1) and not barrier.stabilized
    if case == "mechanical":
        assert len(rows) == 2


def test_barrier_finds_a_cycle_within_rounding(barrier_cases):
    # the powers never repeat bit for bit, yet the star is within rounding
    # of their running minimum
    kernel, c, _ = barrier_cases["rounding"]
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    assert barrier.stabilized and barrier.period == 1 and barrier.defect <= 1e-15
    full, powers = _full_loop_barrier(kernel.matrix + c, 40)
    assert not np.array_equal(powers[-1], powers[-2])
    assert np.max(np.abs(barrier.values - full)) <= 1e-13


def _assert_refuses_a_shift_off_c(kernel, c, horizon=40):
    """1e-10 above c no cycle has the least mean, so no node is critical;
    1e-10 below it every fixed point drifts by 1e-10 per step."""
    with pytest.raises(NumericalError, match="not the critical value"):
        peierls_barrier(None, kernel.grid, c + 1e-10, horizon, kernel=kernel)
    barrier = peierls_barrier(None, kernel.grid, c - 1e-10, horizon, kernel=kernel)
    assert not barrier.stabilized and barrier.period is None
    assert barrier.defect >= 0.99e-10


@pytest.mark.parametrize("case", ["mechanical", "rounding", "cycle-2", "cycle-3"])
def test_barrier_never_takes_a_drift_of_1e_10_as_a_cycle(barrier_cases, case):
    kernel, c, _ = barrier_cases[case]
    _assert_refuses_a_shift_off_c(kernel, c)


@pytest.fixture(scope="module")
def grid32_kernel():
    return assemble_kernel(MECH, Grid(32), 0.0, 1.0)


@pytest.mark.parametrize("horizon", [8, 40, 10**6, 10**18])
def test_barrier_steps_are_capped_at_the_grid_size(grid32_kernel, horizon):
    # every fixed point arrives within n + 1 steps, so a larger horizon caps
    # nothing more: the rounding allowance stays that of horizon n + 2, and
    # a drift of 1e-10 per step is never taken for arrival
    kernel, n = grid32_kernel, 32
    c = karp_eigenvalue(kernel)
    below = peierls_barrier(None, Grid(n), c - 1e-10, horizon, kernel=kernel)
    assert not below.stabilized and below.horizon == horizon
    at = peierls_barrier(None, Grid(n), c, horizon, kernel=kernel)
    assert (at.stabilized, at.period, at.defect, at.horizon) == (True, 1, 0.0, horizon)
    capped = peierls_barrier(None, Grid(n), c, n + 2, kernel=kernel)
    assert at.values.tobytes() == capped.values.tobytes()


def _two_cycle_kernel(n=8):
    """Kernel whose zero-weight cycles are 0 -> 1 -> 0 and 2 -> 3 -> 4 -> 2,
    every other entry in [1.0, 1.4]: its powers end up periodic with period
    lcm(2, 3) = 6."""
    i, j = np.indices((n, n))
    matrix = 1.0 + 0.1 * ((i + 2 * j) % 5)
    for a, b in ((0, 1), (1, 0), (2, 3), (3, 4), (4, 2)):
        matrix[a, b] = 0.0
    return TropicalKernel(grid=Grid(n), s=0.0, delta=1.0, matrix=matrix)


def _shared_node_kernel(n=8):
    """Kernel whose one critical class holds the zero-weight cycles
    0 -> 1 -> 0 and 0 -> 2 -> 3 -> 0, every other entry in [1.0, 1.4]: its
    cycle lengths 2 and 3 have gcd 1, so its powers end up periodic with
    period 1."""
    i, j = np.indices((n, n))
    matrix = 1.0 + 0.1 * ((i + 2 * j) % 5)
    for a, b in ((0, 1), (1, 0), (0, 2), (2, 3), (3, 0)):
        matrix[a, b] = 0.0
    return TropicalKernel(grid=Grid(n), s=0.0, delta=1.0, matrix=matrix)


@pytest.mark.parametrize("make, period", [(_two_cycle_kernel, 6), (_shared_node_kernel, 1)],
                         ids=["two-classes", "one-class"])
def test_barrier_period_is_the_cyclicity_of_the_critical_graph(make, period):
    # the lcm over the classes of the gcd of the cycle lengths within each
    kernel = make()
    c = karp_eigenvalue(kernel)
    assert c == 0.0
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    assert barrier.stabilized and barrier.period == period and barrier.defect == 0.0
    values, defect, _, loop_period = _unreduced_barrier(kernel, c, 40)
    assert loop_period == period and defect == 0.0
    assert np.array_equal(barrier.values, values)


def test_barrier_finds_a_cycle_of_five():
    kernel = _cyclic_kernel(5)
    barrier = peierls_barrier(None, kernel.grid, 0.0, 40, kernel=kernel)
    assert barrier.stabilized and barrier.period == 5 and barrier.defect == 0.0


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf])
def test_barrier_rejects_a_non_finite_shift(mech_kernel, c):
    with pytest.raises(ConfigurationError, match="shift c must be finite"):
        peierls_barrier(MECH, Grid(N), c, horizon=24, kernel=mech_kernel)


@pytest.mark.parametrize("entry, shift", [
    (math.inf, 0.0), (-math.inf, 0.0), (math.nan, 0.0), (1.7e308, 1e308)],
    ids=["inf", "-inf", "nan", "shift-overflows"])
def test_barrier_rejects_a_non_finite_kernel_entry(entry, shift):
    # an inf would make the stop bound inf, so that any change passes as a
    # cycle, and a NaN would make every power NaN
    kernel = assemble_kernel(MECH, Grid(8), 0.0, 1.0)
    matrix = kernel.matrix.copy()
    matrix[2, 5] = matrix[5, 2] = entry
    c = karp_eigenvalue(kernel) + shift
    with pytest.raises(ConfigurationError, match="kernel entries.*must be finite"), \
            np.errstate(over="ignore"):
        peierls_barrier(MECH, Grid(8), c, 40, kernel=dataclasses.replace(kernel, matrix=matrix))


@pytest.mark.parametrize("horizon", [1, 2.5, 3.0, True])
def test_barrier_requires_horizon(mech_kernel, horizon):
    with pytest.raises(ConfigurationError, match="integer of at least 2"):
        peierls_barrier(MECH, Grid(N), 1.0, horizon=horizon, kernel=mech_kernel)


def test_barrier_takes_a_numpy_integer_horizon(mech_barrier, mech_kernel):
    barrier = peierls_barrier(MECH, Grid(N), mech_barrier.c, horizon=np.int64(24),
                              kernel=mech_kernel)
    assert np.array_equal(barrier.values, mech_barrier.values)


def test_barrier_rejects_a_kernel_of_another_grid_or_duration():
    kernel = assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="grid of 32 points"):
        peierls_barrier(MECH, Grid(32), 1.0, horizon=8, kernel=kernel)
    half = assemble_kernel(MECH, Grid(16), 0.0, 0.5)
    with pytest.raises(ConfigurationError, match="unit-time kernel"):
        peierls_barrier(MECH, Grid(16), 1.0, horizon=8, kernel=half)


def test_aubry_detection(mech_barrier):
    detected = aubry_set(mech_barrier)
    assert detected.clusters == mech_barrier.classes == [[0]]
    assert detected.representatives == [0]


def test_aubry_free_all_points(free_kernel):
    # every node of the free kernel carries a zero self-loop and no other
    # tight edge, so each is a critical class of its own
    barrier = peierls_barrier(FREE, Grid(N), 0.0, horizon=12, kernel=free_kernel)
    detected = aubry_set(barrier)
    assert np.array_equal(detected.indices, np.arange(N))
    assert len(detected.clusters) == N


def test_a_period_two_cycle_is_one_class():
    # the only zero cycle of this grid-8 kernel is 0 -> 4 -> 0: one class,
    # though its nodes are not grid neighbours
    i, j = np.indices((8, 8))
    matrix = 1.0 + (i + 2 * j) % 4
    matrix[[0, 4], [4, 0]] = 0.0
    kernel = TropicalKernel(grid=Grid(8), s=0.0, delta=1.0, matrix=matrix)
    barrier = peierls_barrier(None, Grid(8), karp_eigenvalue(kernel), kernel=kernel)
    detected = aubry_set(barrier)
    assert barrier.period == 2
    assert detected.clusters == [[0, 4]] and detected.representatives == [0]


@pytest.mark.parametrize("q, representatives", [
    (1, [0]), (2, [0, 16]), (4, [0, 8, 16, 24])], ids=["q1", "q2", "q4"])
def test_aubry_clusters_are_the_barrier_classes(q, representatives):
    sys = LagrangianSystem(family="mechanical-cos", freq=q)
    kernel = assemble_kernel(sys, Grid(32), 0.0, 1.0)
    barrier = peierls_barrier(sys, Grid(32), karp_eigenvalue(kernel), kernel=kernel)
    detected = aubry_set(barrier)
    assert detected.clusters == barrier.classes
    assert detected.representatives == representatives


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_aubry_and_graph_reject_a_bad_tolerance(mech_barrier, tol):
    with pytest.raises(ConfigurationError, match="graph tolerance"):
        connection_graph(mech_barrier, aubry_set(mech_barrier), 0, tol)


def test_barrier_end_offset_is_a_phase(mech_kernel):
    c = karp_eigenvalue(mech_kernel)
    at_zero, at_one = (peierls_barrier(MECH, Grid(N), c, horizon=24, t_frac=t,
                                       kernel=mech_kernel) for t in (0.0, 1.0))
    assert at_one.t_frac == 0.0 and np.array_equal(at_one.values, at_zero.values)


def test_aubry_requires_equal_offsets(mech_kernel):
    c = karp_eigenvalue(mech_kernel)
    shifted = peierls_barrier(MECH, Grid(N), c, horizon=12, t_frac=0.5,
                              kernel=mech_kernel)
    with pytest.raises(ConfigurationError):
        aubry_set(shifted)


def test_default_aubry_tolerance_scale():
    # the midpoint rule integrates the free kernel's straight minimizers
    # exactly, so the kernel equals its closed form min_k (dx + k)^2 / 2
    # to rounding
    grid = Grid(16)
    kernel = assemble_kernel(FREE, grid, 0.0, 1.0)
    diff = grid.points[None, :] - grid.points[:, None]
    exact = np.minimum.reduce([0.5 * (diff + k) ** 2 for k in (-1, 0, 1)])
    assert np.max(np.abs(kernel.matrix - exact)) <= 1e-13


@pytest.fixture(scope="module")
def two_well_barrier():
    sys = LagrangianSystem(family="mechanical-cos", freq=2)
    kernel = assemble_kernel(sys, Grid(32), 0.0, 1.0)
    return peierls_barrier(sys, Grid(32), karp_eigenvalue(kernel), horizon=24,
                           kernel=kernel)


def test_two_well_graph_roots(two_well_barrier):
    detected = aubry_set(two_well_barrier)
    graph = connection_graph(two_well_barrier, detected,
                             Grid(32).nearest_index(0.25), tol=1e-3)
    assert graph.edges == []
    assert sorted(graph.roots) == [0, 1]
    assert graph.cycles == []


@pytest.mark.parametrize("q, n, target, edges, roots", [
    # four classes: the one at 1/2 reaches 1/8 through 1/4, the one at 3/4
    # through 0
    (4, 64, 1 / 8, [(0.25, 0.5), (0.0, 0.75)], [0.0, 0.25]),
    # three classes: the one at 2/3 reaches 1/6 through 1/3 and through 0,
    # a tie at slack 0
    (3, 48, 1 / 6, [(1 / 3, 2 / 3), (0.0, 2 / 3)], [0.0, 1 / 3])],
    ids=["q4", "q3"])
def test_graph_edges_on_an_assembled_kernel(q, n, target, edges, roots):
    sys = LagrangianSystem(family="mechanical-cos", freq=q)
    kernel = assemble_kernel(sys, Grid(n), 0.0, 1.0)
    barrier = peierls_barrier(sys, Grid(n), karp_eigenvalue(kernel), horizon=24,
                              kernel=kernel)
    graph = connection_graph(barrier, aubry_set(barrier),
                             Grid(n).nearest_index(target), tol=1e-3)
    pos = graph.positions
    assert sorted((pos[a], pos[b]) for a, b, _ in graph.edges) == sorted(edges)
    assert all(slack == 0.0 for _, _, slack in graph.edges)
    assert sorted(pos[r] for r in graph.roots) == roots
    assert graph.cycles == []


def test_zero_slack_cycle_is_reported():
    # Aubry classes at 0, 3/8 and 6/8 of a hand-built grid-8 barrier: each
    # reaches the target 2/8 at cost 1, and the hops 3/8 -> 0, 6/8 -> 3/8
    # and 0 -> 6/8 cost nothing, so each class's barrier to the target
    # decomposes through the next with slack exactly 0 and the edges
    # 0 -> 1 -> 2 -> 0 close a cycle; the reverse hops cost 0.5, no edge
    reps, target = [0, 3, 6], 2
    values = np.ones((8, 8))
    values[reps, reps] = 0.0
    for a, b in ((0, 1), (1, 2), (2, 0)):
        values[reps[b], reps[a]] = 0.0
        values[reps[a], reps[b]] = 0.5
    barrier = weak_kam.BarrierMatrix(grid=Grid(8), s_frac=0.0, t_frac=0.0,
                                     values=values, horizon=2, defect=0.0, c=0.0,
                                     period=1, classes=[[rep] for rep in reps])
    detected = aubry_set(barrier)
    assert detected.representatives == reps
    graph = connection_graph(barrier, detected, target, tol=1e-12)
    assert sorted(graph.edges) == [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)]
    assert graph.roots == []
    assert graph.cycles == [[0, 1, 2]]  # the vertices of the one cyclic class


def test_semigroup_limit_examples(mech_barrier, free_kernel):
    free_barrier = peierls_barrier(FREE, Grid(N), 0.0, horizon=12,
                                   kernel=free_kernel)
    flat = semigroup_limit(np.zeros(N), free_barrier)
    assert np.max(np.abs(flat)) <= 2e-2

    spike = np.full(N, 10.0)
    spike[0] = 0.0
    limit = semigroup_limit(spike, mech_barrier)
    # the barrier row from the Aubry point 0 is a backward weak KAM solution
    assert np.max(np.abs(limit - np.minimum(mech_barrier.values[0], 10.0))) < 1e-12

    const = semigroup_limit(np.full(N, 3.0), mech_barrier)
    base = semigroup_limit(np.zeros(N), mech_barrier)
    assert np.max(np.abs(const - base - 3.0)) < 1e-12


def test_semigroup_limit_matches_iteration(mech_kernel, mech_barrier):
    rng = np.random.default_rng(7)
    u0 = rng.uniform(0, 5, N)
    c = mech_barrier.c
    limit = semigroup_limit(u0, mech_barrier)
    w = u0.copy()
    for k in range(1, 31):
        w = minplus_apply(mech_kernel.matrix, w)
    assert np.max(np.abs(w + c * 30 - limit)) <= 1e-9


def test_connection_graph_single_orbit(mech_barrier):
    detected = aubry_set(mech_barrier)
    graph = connection_graph(mech_barrier, detected, N // 4, tol=1e-3)
    assert graph.vertices == [0]
    assert graph.edges == [] and graph.roots == [0] and graph.cycles == []


def test_connection_graph_requires_equal_offsets(two_well_barrier):
    # h(k, target) = h(k, j) + h(j, target) holds only when every barrier
    # starts and ends at the same offset
    sys = LagrangianSystem(family="mechanical-cos", freq=2)
    kernel = assemble_kernel(sys, Grid(32), 0.0, 1.0)
    shifted = peierls_barrier(sys, Grid(32), two_well_barrier.c, horizon=24, t_frac=0.5,
                              kernel=kernel)
    with pytest.raises(ConfigurationError, match="equal time offsets"):
        connection_graph(shifted, aubry_set(two_well_barrier), 0, tol=1e-3)


@pytest.mark.parametrize("target", [-1, 32, 32.0, True], ids=["-1", "n", "float", "bool"])
def test_connection_graph_rejects_a_target_off_the_grid(two_well_barrier, target):
    # two Aubry representatives, so an index n would reach past the matrix
    detected = aubry_set(two_well_barrier)
    assert len(detected.representatives) == 2
    with pytest.raises(ConfigurationError, match="target index"):
        connection_graph(two_well_barrier, detected, target, tol=1e-3)


@pytest.mark.parametrize("set_grid, barrier_grid", [(32, 16), (16, 32)],
                         ids=["finer-set", "coarser-set"])
def test_connection_graph_rejects_an_aubry_set_of_another_grid(set_grid, barrier_grid):
    # two-well barriers: a finer set indexes past the barrier, and a coarser
    # one would put the wells at 0 and 1/4 of the barrier's grid, not 0 and 1/2
    sys = LagrangianSystem(family="mechanical-cos", freq=2)
    barriers = {}
    for n in (set_grid, barrier_grid):
        kernel = assemble_kernel(sys, Grid(n), 0.0, 1.0)
        barriers[n] = peierls_barrier(sys, Grid(n), karp_eigenvalue(kernel), horizon=24,
                                      kernel=kernel)
    detected = aubry_set(barriers[set_grid])
    with pytest.raises(ConfigurationError, match="Aubry set is on a grid of"):
        connection_graph(barriers[barrier_grid], detected, 0, tol=1e-3)


@pytest.mark.parametrize("call, match", [
    (lambda h: minplus_apply(h.values, np.zeros(N - 1)), "shape mismatch in min-plus apply"),
    (lambda h: minplus_matmul(np.zeros((3, 4)), np.zeros((3, 3))),
     "shape mismatch in min-plus matmul"),
    (lambda h: karp_eigenvalue(np.zeros((3, 4))), "kernel must be square"),
    (lambda h: karp_eigenvalue(np.array([[0.0, np.inf], [1.0, 0.0]])),
     "kernel entries must be finite"),
    (lambda h: semigroup_limit(np.zeros(N + 1), h), "shape mismatch between u0 and barrier"),
    (lambda h: connection_graph(h, dataclasses.replace(aubry_set(h), representatives=[]),
                                0, tol=1e-3), "need at least one Aubry representative")],
    ids=["apply-length", "matmul-inner", "karp-non-square", "karp-non-finite",
         "limit-length", "graph-no-representative"])
def test_malformed_operands_are_configuration_errors(mech_barrier, call, match):
    with pytest.raises(ConfigurationError, match=match):
        call(mech_barrier)


def test_convergence_passes_only_at_its_error_floor():
    # the cycle-2 kernel's corrected semigroup is 2-periodic and never
    # reaches the single limit: its errors level off at 0.144, and that
    # constant window fits a rate of 1.5e-17 > 0 with r2 = 1
    report = run_convergence(MECH, Grid(8), u0_tag="random-seeded", seed=0,
                             k_max=20, horizon=40, unit_kernel=_cyclic_kernel(2),
                             orbits=[])
    assert report.errors[-1] > 0.1
    assert report.verdict == "fail"


def _unreduced_karp(matrix):
    """Karp's DP over every column, with no orbit reduction."""
    n = matrix.shape[0]
    d = np.empty((n + 1, n))
    d[0] = 0.0
    for k in range(1, n + 1):
        d[k] = np.min(d[k - 1][:, None] + matrix, axis=0)
    denom = (n - np.arange(n)).astype(float)
    ratios = (d[n][None, :] - d[:n]) / denom[:, None]
    return -float(np.min(np.max(ratios, axis=0)))


def _unreduced_barrier(kernel, c, horizon):
    """The reference power loop over every row: multiply powers of the
    shifted kernel until P^m repeats some P^(m - p) within the rounding
    bound, and take the minimum over the p powers of the cycle:
    (values, defect, turnpike m, period p), both None if no power repeats
    within the horizon."""
    shifted = kernel.matrix + c
    largest = max(float(np.max(np.abs(kernel.matrix))), float(np.max(np.abs(shifted))))
    held = [shifted]
    m, period = 1, None
    while m < horizon and period is None:
        power = weak_kam.minplus_matmul(held[-1], shifted)
        m += 1
        largest = max(largest, float(np.max(np.abs(power))))
        unit = np.finfo(float).eps * largest
        changes = [float(np.max(np.abs(power - held[-p]))) for p in range(1, m)]
        period = next((p for p, change in enumerate(changes, 1)
                       if change <= (p * (kernel.grid.n + 2) ** 2 / 2 + m) * unit), None)
        held.append(power)
    cycle = period or 1
    return (np.minimum.reduce(held[-cycle:]), changes[cycle - 1],
            None if period is None else m, period)


def _assert_matches_unreduced(kernel):
    """Karp equals its unreduced DP bit for bit; the barrier at the Karp
    value has the values and period of the power loop over every row, and
    1e-10 off it is refused."""
    c = karp_eigenvalue(kernel)
    assert c == _unreduced_karp(kernel.matrix)
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    values, _, _, period = _unreduced_barrier(kernel, c, 40)
    assert np.array_equal(barrier.values, values)
    assert barrier.period == period and barrier.stabilized
    _assert_refuses_a_shift_off_c(kernel, c)


@pytest.fixture(scope="module")
def symmetry_cases(mech_kernel):
    """(kernel, representative rows) per case."""
    rng = np.random.default_rng(11)
    tilted = tilt_system(MECH, "maupertuis", 1.0)
    return {
        "free": (assemble_kernel(FREE, Grid(16), 0.0, 1.0), 1),  # every shift
        "q1": (mech_kernel, N // 2 + 1),  # the reflection
        "q2-eps": (assemble_kernel(LagrangianSystem(family="mechanical-cos", freq=2, eps=0.1),
                                   Grid(N), 0.0, 1.0), N // 4 + 1),  # and the half shift
        "q3": (assemble_kernel(LagrangianSystem(family="mechanical-cos", freq=3),
                               Grid(48), 0.0, 1.0), 9),  # shifts by 16
        "tilt": (tilted.kernel(Grid(32), 0.0, 1.0), 17),
        "random": (TropicalKernel(grid=Grid(12), s=0.0, delta=1.0,
                                  matrix=rng.integers(-9, 10, (12, 12)).astype(float)), 12),
        "cycle-2": (_cyclic_kernel(2), 8),
        "cycle-3": (_cyclic_kernel(3), 8),
    }


@pytest.mark.parametrize("case", ["free", "q1", "q2-eps", "q3", "tilt", "random",
                                  "cycle-2", "cycle-3"])
def test_orbit_reduction_is_bit_for_bit(symmetry_cases, case):
    kernel, n_reps = symmetry_cases[case]
    reps, orbit = row_orbits(kernel.matrix)
    assert reps.size == n_reps
    diag = np.diagonal(kernel.matrix)  # invariant under every row symmetry
    assert np.array_equal(diag[reps][orbit], diag)
    _assert_matches_unreduced(kernel)


@pytest.mark.parametrize("moved, n_reps", [
    ([(3, 5)], N),  # breaks every map
    ([(3, 5), (3 + N // 2, 5 + N // 2)], N // 2)],  # keeps the half shift
    ids=["all", "reflection"])
def test_a_symmetry_one_ulp_off_is_dropped(symmetry_cases, moved, n_reps):
    kernel, _ = symmetry_cases["q2-eps"]
    matrix = kernel.matrix.copy()
    for i, j in moved:
        matrix[i, j] = np.nextafter(matrix[i, j], np.inf)
    assert row_orbits(matrix)[0].size == n_reps
    _assert_matches_unreduced(dataclasses.replace(kernel, matrix=matrix))


@pytest.mark.parametrize("n, shift", [(12, 4), (12, 12), (15, 5), (16, 2)])
@pytest.mark.parametrize("seed", range(4))
def test_karp_on_the_orbit_quotient_is_the_unreduced_dp(n, shift, seed):
    # entries drawn from five floats whose sums round, so there are ties
    # within and across orbits, planted on the pair orbits of the shift
    # by ``shift`` and the reflection
    rng = np.random.default_rng(seed)
    values = rng.choice([-0.7, -0.1, 0.1, 0.3, 1.1 / 3], size=n * n)
    matrix = values[pair_orbits(n, shift, False)].reshape(n, n)
    assert row_orbits(matrix)[0].size <= shift // 2 + 1
    c = karp_eigenvalue(matrix)
    for shifted in (matrix, matrix + c):
        assert karp_eigenvalue(shifted) == _unreduced_karp(shifted)


def test_a_transpose_symmetric_matrix_gets_no_symmetry():
    # min-plus powers of B + B^T are symmetric only up to rounding. A cycle
    # of nearly least mean keeps the powers in their transient up to P^63,
    # past the horizon of 40, while the star arrives within it; the sums of
    # the long walks round differently, so the two agree to rounding
    b = np.random.default_rng(4).normal(size=(16, 16))
    kernel = TropicalKernel(grid=Grid(16), s=0.0, delta=1.0, matrix=b + b.T)
    assert np.array_equal(row_orbits(kernel.matrix)[0], np.arange(16))
    c = karp_eigenvalue(kernel)
    assert c == _unreduced_karp(kernel.matrix)
    assert _unreduced_barrier(kernel, c, 40)[3] is None
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    values, _, turnpike, period = _unreduced_barrier(kernel, c, 100)
    assert (turnpike, period) == (63, 2) and barrier.period == 2
    assert np.max(np.abs(barrier.values - values)) <= 1e-14
    _assert_refuses_a_shift_off_c(kernel, c)


def test_critical_classes_and_cyclicity_match_walk_enumeration():
    # random digraphs of up to 12 nodes, with nodes between cycles and off
    # them: a class is a set of mutually reachable nodes that holds a closed
    # walk, and its cyclicity the gcd of the closed-walk lengths at one node
    rng = np.random.default_rng(3)
    for _ in range(200):
        n = int(rng.integers(1, 13))
        graph = rng.random((n, n)) < rng.uniform(0.02, 0.3)
        walks = [np.eye(n, dtype=bool)]  # walks of 0 .. 2n^2 edges
        for _ in range(2 * n * n):
            walks.append((walks[-1].astype(int) @ graph) > 0)
        reach = np.any(walks[1:n + 1], axis=0)
        expected = {}
        for i in np.flatnonzero(np.diagonal(reach)):
            nodes = tuple(np.flatnonzero(reach[i] & reach[:, i]))
            lengths = [k for k, walk in enumerate(walks) if k and walk[i, i]]
            expected.setdefault(nodes, math.gcd(*lengths))
        got = {tuple(nodes): weak_kam._cyclicity(graph[np.ix_(nodes, nodes)])
               for nodes in weak_kam._critical_classes(graph)}
        assert got == expected
