import dataclasses
import math

import numpy as np
import pytest

import weakkam.weak_kam as weak_kam
from weakkam import (ConfigurationError, EmptyAubrySetError, Grid,
                     LagrangianSystem, TropicalKernel, aubry_set,
                     assemble_kernel, connection_graph, karp_eigenvalue,
                     minplus_apply, peierls_barrier, run_convergence,
                     semigroup_limit)

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
def test_barrier_turnpike_stop_bit_identical(barrier_cases, case):
    # from the turnpike on the barrier is the minimum over the full loop's
    # cycle powers, and once the tail window of 4 lies inside the cycle it
    # is the old tail minimum bit for bit; below it, the last power
    kernel, c, period = barrier_cases[case]
    grid = kernel.grid
    turnpike = peierls_barrier(None, grid, c, 40, kernel=kernel).turnpike
    for horizon in list(range(2, 13)) + [24, 40]:
        barrier = peierls_barrier(None, grid, c, horizon, kernel=kernel)
        tail_min, powers = _full_loop_barrier(kernel.matrix + c, horizon)
        assert barrier.horizon == horizon
        if turnpike is not None and horizon >= turnpike:
            cycle_min = np.minimum.reduce(powers[turnpike - period:turnpike])
            assert barrier.values.tobytes() == cycle_min.tobytes()
            if horizon >= turnpike - period + 4:
                assert barrier.values.tobytes() == tail_min.tobytes()
            assert (barrier.turnpike, barrier.period) == (turnpike, period)
            assert barrier.stabilized and barrier.defect == 0.0
        else:
            assert barrier.values.tobytes() == powers[-1].tobytes()
            assert barrier.defect == float(np.max(np.abs(powers[-1] - powers[-2])))
            assert not barrier.stabilized
            assert barrier.turnpike is None and barrier.period is None
    if period is None:
        assert turnpike is None


def test_barrier_free_repeats_only_past_half_grid(barrier_cases):
    # unit grid steps reach every point within n / 2 steps, after which no
    # longer walk is cheaper: the free powers repeat only from P^33 == P^32
    kernel, c, _ = barrier_cases["free"]
    assert peierls_barrier(FREE, Grid(N), c, 32, kernel=kernel).turnpike is None
    barrier = peierls_barrier(FREE, Grid(N), c, 40, kernel=kernel)
    assert (barrier.turnpike, barrier.period) == (N // 2 + 1, 1)


@pytest.mark.parametrize("case", ["mechanical", "rounding", "free", "unshifted"])
def test_barrier_products_stop_at_turnpike(barrier_cases, monkeypatch, case):
    kernel, c, period = barrier_cases[case]
    calls = []
    real = weak_kam.minplus_matmul

    def counting(a, b):
        calls.append(1)
        return real(a, b)

    monkeypatch.setattr(weak_kam, "minplus_matmul", counting)
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    if period is None:
        assert barrier.turnpike is None and len(calls) == 39
    else:
        assert len(calls) == barrier.turnpike - 1 < 39
    if case == "mechanical":
        assert barrier.turnpike <= 4


def test_barrier_finds_a_cycle_within_rounding(barrier_cases):
    kernel, c, _ = barrier_cases["rounding"]
    barrier = peierls_barrier(None, kernel.grid, c, 40, kernel=kernel)
    assert (barrier.turnpike, barrier.period) == (5, 1)
    assert barrier.stabilized and 0.0 < barrier.defect <= 1e-15
    full, _ = _full_loop_barrier(kernel.matrix + c, 40)
    assert np.max(np.abs(barrier.values - full)) <= 1e-13


@pytest.mark.parametrize("case", ["mechanical", "rounding", "cycle-2", "cycle-3"])
def test_barrier_never_takes_a_drift_of_1e_10_as_a_cycle(barrier_cases, case):
    # off the critical value by 1e-10 every power drifts by 1e-10 per step
    # once its transient is over
    kernel, c, _ = barrier_cases[case]
    barrier = peierls_barrier(None, kernel.grid, c + 1e-10, 40, kernel=kernel)
    assert barrier.turnpike is None and barrier.period is None
    assert not barrier.stabilized
    assert barrier.defect >= 0.99e-10


def test_barrier_requires_horizon(mech_kernel):
    with pytest.raises(ConfigurationError):
        peierls_barrier(MECH, Grid(N), 1.0, horizon=1, kernel=mech_kernel)


def test_barrier_rejects_a_kernel_of_another_grid_or_duration():
    kernel = assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    with pytest.raises(ConfigurationError, match="grid of 32 points"):
        peierls_barrier(MECH, Grid(32), 1.0, horizon=8, kernel=kernel)
    half = assemble_kernel(MECH, Grid(16), 0.0, 0.5)
    with pytest.raises(ConfigurationError, match="unit-time kernel"):
        peierls_barrier(MECH, Grid(16), 1.0, horizon=8, kernel=half)


def test_aubry_detection(mech_barrier):
    detected = aubry_set(mech_barrier, 2e-2)
    assert len(detected.clusters) == 1
    assert detected.representatives == [0]
    tight = aubry_set(mech_barrier, 1e-9)
    assert tight.representatives == [0]


def test_aubry_free_all_points(free_kernel):
    barrier = peierls_barrier(FREE, Grid(N), 0.0, horizon=12, kernel=free_kernel)
    detected = aubry_set(barrier, 1e-2)
    assert detected.indices.size == N
    assert len(detected.clusters) == 1


def test_aubry_empty_raises(mech_barrier):
    # a barrier lifted by 1 has no vanishing diagonal entry
    lifted = dataclasses.replace(mech_barrier, values=mech_barrier.values + 1.0)
    with pytest.raises(EmptyAubrySetError):
        aubry_set(lifted, 1e-2)


@pytest.mark.parametrize("tol", [-1.0, math.nan, math.inf])
def test_aubry_and_graph_reject_a_bad_tolerance(mech_barrier, tol):
    with pytest.raises(ConfigurationError, match="Aubry tolerance"):
        aubry_set(mech_barrier, tol)
    with pytest.raises(ConfigurationError, match="graph tolerance"):
        connection_graph(mech_barrier, aubry_set(mech_barrier, 1e-2), 0, tol)


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
        aubry_set(shifted, 1e-2)


def test_default_aubry_tolerance_scale():
    # the default tolerance sits a decade above the free kernel's error
    # against its closed form min_k (dx + k)^2 / 2
    grid = Grid(16)
    kernel = assemble_kernel(FREE, grid, 0.0, 1.0)
    diff = grid.points[None, :] - grid.points[:, None]
    exact = np.minimum.reduce([0.5 * (diff + k) ** 2 for k in (-1, 0, 1)])
    assert np.max(np.abs(kernel.matrix - exact)) <= 0.1 * weak_kam.AUBRY_TOLERANCE


@pytest.fixture(scope="module")
def two_well_barrier():
    sys = LagrangianSystem(family="mechanical-cos", freq=2)
    kernel = assemble_kernel(sys, Grid(32), 0.0, 1.0)
    return peierls_barrier(sys, Grid(32), karp_eigenvalue(kernel), horizon=24,
                           kernel=kernel)


def test_two_well_graph_roots(two_well_barrier):
    detected = aubry_set(two_well_barrier, 1e-9)
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
    graph = connection_graph(barrier, aubry_set(barrier, 2e-2),
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
                                     turnpike=2, period=1)
    detected = aubry_set(barrier, 1e-12)
    assert detected.representatives == reps
    graph = connection_graph(barrier, detected, target, tol=1e-12)
    assert sorted(graph.edges) == [(0, 1, 0.0), (1, 2, 0.0), (2, 0, 0.0)]
    assert graph.roots == []
    assert graph.cycles == [[0, 1, 2, 0]]


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
    detected = aubry_set(mech_barrier, 1e-9)
    graph = connection_graph(mech_barrier, detected, N // 4, tol=1e-3)
    assert graph.vertices == [0]
    assert graph.edges == [] and graph.roots == [0] and graph.cycles == []


def test_convergence_passes_only_at_its_error_floor():
    # the cycle-2 kernel's corrected semigroup is 2-periodic and never
    # reaches the single limit: its errors level off at 0.144, and that
    # constant window fits a rate of 1.5e-17 > 0 with r2 = 1
    report = run_convergence(MECH, Grid(8), u0_tag="random-seeded", seed=0,
                             k_max=20, horizon=40, unit_kernel=_cyclic_kernel(2),
                             orbits=[])
    assert report.errors[-1] > 0.1
    assert report.verdict == "fail"
