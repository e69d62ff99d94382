import math
import multiprocessing
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import weakkam.systems as systems
import weakkam.tropical as tropical
from weakkam import (ConfigurationError, Grid, LagrangianSystem,
                     MinimizationError, NumericalError,
                     assemble_kernel, karp_eigenvalue, lift_system,
                     minimal_action, minplus_apply, minplus_matmul)
from weakkam.action import (_straight_lifts, minimize_straight_batch,
                            segments_for, winding_candidates)
from weakkam.systems import exact_row_actions
from weakkam.tropical import pair_orbits, winding_search

FREE = LagrangianSystem(family="free")
MECH = LagrangianSystem(family="mechanical-cos")
MECH_Q2 = LagrangianSystem(family="mechanical-cos", freq=2)
MECH_EPS = LagrangianSystem(family="mechanical-cos", eps=0.1)
MECH_Q2_EPS = LagrangianSystem(family="mechanical-cos", freq=2, eps=0.1)

# the systems the winding bound is checked on: free, q in {1, 2, 3} times
# eps in {0, 0.3} times A in {0.3, 16}, a negative amplitude and a lift
BOUND_SYSTEMS = [FREE] + [
    LagrangianSystem(family="mechanical-cos", amp=amp, freq=q, eps=eps)
    for q in (1, 2, 3) for eps in (0.0, 0.3) for amp in (0.3, 16.0)] + [
    LagrangianSystem(family="mechanical-cos", amp=-1.0, eps=0.3),
    lift_system(MECH_EPS, 2)]
BOUND_IDS = [sys.label() for sys in BOUND_SYSTEMS]

int_kernels = arrays(np.float64, (6, 6),
                     elements=st.integers(-9, 9).map(float))
int_vectors = arrays(np.float64, (6,), elements=st.integers(-9, 9).map(float))


@pytest.fixture(scope="module")
def free_kernel():
    return assemble_kernel(FREE, Grid(8), 0.0, 1.0)


def test_grid_validation():
    with pytest.raises(ConfigurationError):
        Grid(4)
    grid = Grid(8)
    assert grid.nearest_index(0.26) == 2
    assert Grid(np.int64(16)).nearest_index(0.5) == 8
    # a position is reduced mod 1 before it is scaled: 1e308 * 8 overflows
    assert grid.nearest_index(1e308) == 0 and grid.nearest_index(-1e308) == 0
    assert [grid.nearest_index(i / 8) for i in range(8)] == list(range(8))
    assert grid.nearest_index(0.99) == 0 and grid.nearest_index(2.26) == 2


@pytest.mark.parametrize("n", [16.5, 16.0, True, "16"])
def test_grid_size_must_be_an_integer(n):
    with pytest.raises(ConfigurationError, match="integer"):
        Grid(n)


def test_free_kernel_closed_form(free_kernel):
    pts = Grid(8).points
    diff = pts[None, :] - pts[:, None]
    exact = np.minimum.reduce([0.5 * (diff + k) ** 2 for k in (-1, 0, 1)])
    assert np.max(np.abs(free_kernel.matrix - exact)) < 1e-12
    assert free_kernel.matrix[0, 2] == pytest.approx(0.03125, abs=1e-12)


def test_free_kernel_symmetric_circulant(free_kernel):
    mat = free_kernel.matrix
    assert np.max(np.abs(mat - mat.T)) < 1e-10
    rolled = np.array([np.roll(mat[i], -i) for i in range(mat.shape[0])])
    assert np.max(np.abs(rolled - rolled[0])) < 1e-10


def test_kernel_independent_of_integer_start_shift():
    eps_sys = LagrangianSystem(family="mechanical-cos", eps=0.1)
    k0 = assemble_kernel(eps_sys, Grid(16), 0.0, 1.0)
    k1 = assemble_kernel(eps_sys, Grid(16), 1.0, 1.0)
    assert np.array_equal(k0.matrix, k1.matrix)


class MissingBound:
    """A system whose quadrature side lacks one of the two bounds."""

    def __init__(self, base, missing):
        self.base = base
        self.missing = missing

    def __getattr__(self, name):
        if name == self.missing:
            raise AttributeError(name)
        return getattr(self.base, name)


def assembled_with_rows(monkeypatch, sys):
    """The grid-32 unit kernel of ``sys`` and the lifted rows that
    ``winding_search`` returned for every pair it solved (the orbit
    representatives and the symmetry sample), keyed by (start, end). One
    CPU, so that every search runs in this process."""
    rows = {}

    def recording(sys, a, b, starts, ends):
        values, found, windings = winding_search(sys, a, b, starts, ends)
        rows.update(zip(zip(starts.tolist(), ends.tolist()), found))
        return values, found, windings

    use_cpus(monkeypatch, 1)
    monkeypatch.setattr(tropical, "winding_search", recording)
    return assemble_kernel(sys, Grid(32), 0.0, 1.0).matrix, rows


def assert_same_assembly(got, reference, label):
    # a converged row's fsum value can stay put while its samples move, so
    # the rows are compared too: to rounding, since a row left alone in a
    # descent step takes BLAS's one-row product (3.5e-18 at q=1, batches of
    # 17 pairs), while a block-wide nonmonotone reference moves one by 5e-11
    assert np.array_equal(got[0], reference[0]), label
    assert got[1].keys() == reference[1].keys(), label
    for key, row in reference[1].items():
        assert np.max(np.abs(got[1][key] - row)) <= 1e-14, (label, key)


@pytest.mark.parametrize("sys", [MECH, MECH_Q2, MECH_EPS], ids=["q1", "q2", "eps"])
def test_kernel_bits_independent_of_batch_size(monkeypatch, sys):
    # one batch per CPU at 16 CPUs (17 or 18 pairs at q=1), and batches of at
    # most 32 and 97 pairs under a float budget at one CPU; every batch is
    # solved in this process, in order, so that no worker is forked
    reference = assembled_with_rows(monkeypatch, sys)
    label = pair_orbits(32, *sys.kernel_symmetries(32, 0.0, 1.0))
    reps = np.count_nonzero(label == np.arange(32 * 32))
    # floats of one pair with its first shell of windings
    pair_floats = len(winding_candidates()) * (segments_for(1.0) + 1)
    batches = []

    def solve_in_order(solve, jobs, workers):
        batches.append([len(job) for job in jobs[:-1]])  # the last is the sample
        return [solve(job) for job in jobs]

    monkeypatch.setattr(tropical, "_solve_jobs", solve_in_order)
    monkeypatch.setattr(tropical, "_worker_count", lambda: 16)
    assert_same_assembly(assembled_with_rows(monkeypatch, sys), reference, 16)
    assert len(batches[-1]) == min(16, reps // systems.MIN_BATCH_PAIRS)
    monkeypatch.setattr(tropical, "_worker_count", lambda: 1)
    for step in (32, 97):
        monkeypatch.setattr(systems, "BATCH_FLOATS", step * pair_floats)
        assert_same_assembly(assembled_with_rows(monkeypatch, sys), reference, step)
        assert max(batches[-1]) <= step and len(batches[-1]) == -(-reps // step)
    assert all(min(sizes) >= systems.MIN_BATCH_PAIRS for sizes in batches)


@pytest.mark.parametrize("sys", [MECH, MECH_Q2, MECH_EPS, MECH_Q2_EPS, lift_system(MECH, 2)],
                         ids=["q1", "q2", "eps", "q2-eps", "lift"])
def test_kernel_bits_independent_of_block_size(monkeypatch, sys):
    reference = assembled_with_rows(monkeypatch, sys)
    for rows in (16, 17, 97):
        monkeypatch.setattr(systems, "BLOCK_FLOATS", rows * (segments_for(1.0) + 1))
        assert_same_assembly(assembled_with_rows(monkeypatch, sys), reference, rows)


def use_cpus(monkeypatch, cpus):
    """Make assembly read an affinity of ``cpus`` CPUs."""
    monkeypatch.setattr(tropical.os, "sched_getaffinity", lambda pid: set(range(cpus)))


@pytest.mark.parametrize("sys, n", [
    (MECH, 32), (MECH_Q2, 32), (MECH_EPS, 32), (lift_system(MECH_EPS, 2), 32),
    (MECH_Q2_EPS, 32), (MECH_Q2_EPS, 8)],
    ids=["q1", "q2", "eps", "lift", "q2-eps", "q2-eps-grid8"])
def test_kernel_bits_independent_of_the_cpu_count(monkeypatch, sys, n):
    # grid 8 of q=2, eps=0.1 has 13 representatives: split over processes
    # they would make batches under 16 pairs, which round differently
    kernels = []
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        kernels.append(assemble_kernel(sys, Grid(n), 0.0, 1.0).matrix)
    assert np.array_equal(kernels[1], kernels[0])
    assert np.array_equal(kernels[2], kernels[0])


def test_shares_are_strides_of_the_representatives(monkeypatch):
    n = 16
    label = pair_orbits(n, *MECH.kernel_symmetries(n, 0.0, 1.0))
    reps = np.flatnonzero(label == np.arange(n * n))
    given = []
    original = tropical._solve_jobs

    def recording(solve, jobs, workers):
        given.append((list(jobs), workers))
        return original(solve, jobs, workers)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(tropical, "_solve_jobs", recording)
    assemble_kernel(MECH, Grid(n), 0.0, 1.0)
    [(jobs, workers)] = given
    shares = jobs[:-1]  # the last job is the symmetry sample
    assert workers == 2 and len(shares) == 2  # one share per CPU
    for k, job in enumerate(shares):
        assert np.array_equal(job, reps[k::len(shares)])
    assert np.array_equal(np.sort(np.concatenate(shares)), reps)


def fail_on_representative(monkeypatch, index, fail):
    """Make ``winding_search`` call ``fail()`` on the batch holding the
    ``index``-th representative pair of the grid-16 pendulum kernel. With
    two CPUs the shares are strides of the representatives, so the first
    is in the caller's share and the second in the worker's."""
    n = 16
    label = pair_orbits(n, *MECH.kernel_symmetries(n, 0.0, 1.0))
    i, j = divmod(int(np.flatnonzero(label == np.arange(n * n))[index]), n)
    x, y = i / n, j / n
    original = tropical.winding_search

    def failing(sys, a, b, starts, ends):
        if np.any((starts == x) & (ends == y)):
            fail()
        return original(sys, a, b, starts, ends)

    use_cpus(monkeypatch, 2)
    monkeypatch.setattr(tropical, "winding_search", failing)


@pytest.mark.parametrize("index", [0, 1], ids=["caller", "worker"])
def test_an_error_in_either_share_reaches_the_caller_and_no_worker_outlives_it(
        monkeypatch, index):
    def stall():
        raise MinimizationError(f"stalled in process {os.getpid()}", best_value=-0.5)

    fail_on_representative(monkeypatch, index, stall)
    with pytest.raises(MinimizationError, match=r"^stalled in process \d+$") as info:
        assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    assert (str(info.value) == f"stalled in process {os.getpid()}") == (index == 0)
    assert info.value.best_value == -0.5
    assert multiprocessing.active_children() == []

    monkeypatch.setattr(tropical, "winding_search", winding_search)
    assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    assert multiprocessing.active_children() == []


def test_a_worker_that_dies_raises(monkeypatch):
    fail_on_representative(monkeypatch, 1, lambda: os._exit(3))
    with pytest.raises(ChildProcessError, match="exited with code 3"):
        assemble_kernel(MECH, Grid(16), 0.0, 1.0)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("sys, s, delta", [
    (MECH, 0.0, 1.0), (MECH_Q2, 0.0, 1.0), (MECH_EPS, 0.0, 1.0),
    (MECH_Q2_EPS, 0.0, 1.0), (MECH_EPS, 0.25, 1.0), (MECH, 0.3, 0.45)],
    ids=["q1", "q2", "eps", "q2-eps", "eps-shifted", "fractional"])
def test_symmetric_kernel_matches_direct_solves(sys, s, delta):
    grid = Grid(12)
    kernel = assemble_kernel(sys, grid, s, delta)
    direct = np.array([[minimal_action(sys, x, s, y, s + delta)[0]
                        for y in grid.points] for x in grid.points])
    assert np.max(np.abs(kernel.matrix - direct)) <= 1e-12


def test_transpose_needs_an_even_modulation():
    assert MECH_EPS.kernel_symmetries(12, 0.25, 1.0) == (12, False)
    assert MECH_EPS.kernel_symmetries(12, 0.0, 1.0) == (12, True)


def test_half_period_shift_needs_an_even_grid():
    # the orbit of (0, 0) holds (n/2, n/2) exactly when the shift is declared
    assert MECH_Q2.kernel_symmetries(9, 0.0, 1.0) == (9, True)
    assert MECH_Q2.kernel_symmetries(8, 0.0, 1.0) == (4, True)
    assert np.flatnonzero(pair_orbits(8, 4, True) == 0).tolist() == [0, 4 * 8 + 4]


def brute_force_orbits(n, shift, reverses):
    """Least flat index over the images of every pair under every group
    element, each applied explicitly: a shift by a multiple of ``shift``
    after the identity, the reflection and, when ``reverses`` holds, the
    transpose and the transposed reflection."""
    label = np.empty(n * n, dtype=int)
    for i in range(n):
        for j in range(n):
            images = [(i, j), (-i % n, -j % n)]
            if reverses:
                images += [(j, i), (-j % n, -i % n)]
            label[i * n + j] = min((a + k) % n * n + (b + k) % n
                                   for a, b in images for k in range(0, n, shift))
    return label


@pytest.mark.parametrize("reverses", [False, True])
@pytest.mark.parametrize("n", [8, 9, 12])
def test_pair_orbits_match_a_brute_force_enumeration(n, reverses):
    for shift in (d for d in range(1, n + 1) if n % d == 0):
        assert np.array_equal(pair_orbits(n, shift, reverses),
                              brute_force_orbits(n, shift, reverses)), shift


def mech_eps(q):
    return LagrangianSystem(family="mechanical-cos", freq=q, eps=0.1)


# (system, n, s, delta, declared symmetries, representatives); in the last
# three q does not divide n, and the least shift is n / gcd(n, q)
@pytest.mark.parametrize("sys, n, s, delta, symmetries, n_reps", [
    (MECH_EPS, 12, 0.0, 1.0, (12, True), 43),
    (MECH_Q2_EPS, 12, 0.25, 1.0, (6, False), 38),
    (lift_system(MECH_EPS, 2), 16, 0.0, 0.5, (16, True), 73),
    (mech_eps(4), 10, 0.0, 1.0, (5, True), 18),
    (mech_eps(8), 12, 0.0, 1.0, (3, True), 14),
    (mech_eps(4), 30, 0.0, 1.0, (15, True), 128)],
    ids=["eps", "q2-eps-shifted", "lift", "q4-grid10", "q8-grid12", "q4-grid30"])
def test_representatives_match_the_unreduced_kernel_bit_for_bit(sys, n, s, delta,
                                                                symmetries, n_reps):
    # one direct search over all n^2 pairs, no symmetry used
    kernel = assemble_kernel(sys, Grid(n), s, delta)
    pts = Grid(n).points
    plain, _, _ = winding_search(sys, s, s + delta, np.repeat(pts, n), np.tile(pts, n))
    assert sys.kernel_symmetries(n, s, delta) == symmetries
    reps = np.flatnonzero(pair_orbits(n, *symmetries) == np.arange(n * n))
    assert reps.size == n_reps
    assert np.array_equal(kernel.matrix.flat[reps], plain[reps])
    assert np.max(np.abs(kernel.matrix.ravel() - plain)) <= 1e-12


def test_symmetric_trap_entry_is_a_minimum():
    # K[1][31] on grid 64 joins points symmetric about the well centre 1/4,
    # so descent from the straight lift ends on a saddle, at -0.35803
    kernel = assemble_kernel(MECH_Q2, Grid(64), 0.0, 1.0)
    assert kernel.matrix[1, 31] == pytest.approx(-0.360672212775904, abs=1e-12)


def test_a_lift_declares_the_time_reversal_its_base_lacks():
    # over [0, 1/2] the base modulation cos(2 pi t) is not even about the
    # window's middle, the order-2 lift's cos(4 pi t) is; the lift's
    # kernel there is checked against direct solves above
    assert MECH_EPS.kernel_symmetries(16, 0.0, 0.5) == (16, False)
    assert lift_system(MECH_EPS, 2).kernel_symmetries(16, 0.0, 0.5) == (16, True)


class Reversing(LagrangianSystem):
    """A built-in system that declares a time reversal in every window."""

    def kernel_symmetries(self, n, s, delta):
        return n, True


def test_false_symmetry_declaration_raises():
    # the modulation of eps = 0.1 is not even about the middle of [0.25, 1.25]
    wrong = Reversing(family="mechanical-cos", eps=0.1)
    with pytest.raises(NumericalError, match="symmetry fails at K"):
        assemble_kernel(wrong, Grid(12), 0.25, 1.0)


@pytest.mark.parametrize("missing", ["potential_upper_bound", "lagrangian_xx_bound",
                                     "critical_subsolution"])
def test_missing_bound_raises(missing):
    with pytest.raises(AttributeError, match=missing):
        assemble_kernel(MissingBound(MECH, missing), Grid(8), 0.0, 1.0)


def test_mech_kernel_rest_loop():
    kernel = assemble_kernel(MECH, Grid(64), 0.0, 1.0)
    assert abs(kernel.matrix[0, 0] - (-1.0)) < 2e-2
    assert kernel.matrix[0, 0] == pytest.approx(-1.0, abs=1e-12)


def test_kernel_duration_validation():
    with pytest.raises(ConfigurationError):
        assemble_kernel(FREE, Grid(8), 0.0, 1.5)


def test_kernel_window_must_keep_its_duration():
    # 1e15 + 0.3 - 1e15 is 0.25: the window would be a quarter, not 0.3
    with pytest.raises(ConfigurationError, match="0.25 long"):
        assemble_kernel(LagrangianSystem(), Grid(8), 1e15, 0.3)


def test_minplus_apply_examples():
    kernel = np.array([[0.0, 3.0], [1.0, 5.0]])
    out = minplus_apply(kernel, np.zeros(2))
    assert np.array_equal(out, [0.0, 3.0])
    out = minplus_apply(kernel, np.array([10.0, 0.0]))
    assert np.array_equal(out, [1.0, 5.0])
    identity_like = np.array([[0.0, np.inf], [np.inf, 0.0]])
    u = np.array([2.5, -1.0])
    out = minplus_apply(identity_like, u)
    assert np.array_equal(out, u)


def test_karp_examples():
    assert karp_eigenvalue(np.array([[0.0, 3.0], [1.0, 5.0]])) == 0.0
    assert karp_eigenvalue(np.array([[2.0, 1.0], [4.0, 3.0]])) == -2.0


def test_karp_and_minplus_matmul_reject_malformed_operands():
    with pytest.raises(ConfigurationError, match="at least one entry"):
        karp_eigenvalue(np.empty((0, 0)))
    with pytest.raises(ConfigurationError, match="2-D"):
        minplus_matmul(np.zeros(3), np.zeros((3, 3)))
    with pytest.raises(ConfigurationError, match="2-D"):
        minplus_matmul(np.zeros((3, 3)), np.zeros((3, 3, 1)))


@pytest.mark.parametrize("kernel", [np.array([1.0, 2.0, 3.0]), np.zeros((3, 3, 2))],
                         ids=["1-D", "3-D"])
def test_minplus_apply_rejects_a_kernel_that_is_not_2d(kernel):
    with pytest.raises(ConfigurationError, match="2-D"):
        minplus_apply(kernel, np.zeros(3))


def test_karp_free_kernel(free_kernel):
    assert abs(karp_eigenvalue(free_kernel)) < 1e-12


@given(int_kernels, st.integers(-5, 5))
def test_karp_shift_equivariance(kernel, shift):
    # the cycle-mean division rounds, so exactness holds only to an ulp
    assert -karp_eigenvalue(kernel + shift) == pytest.approx(
        -karp_eigenvalue(kernel) + shift, abs=1e-12)


@given(int_kernels)
def test_karp_matches_enumeration(kernel):
    import itertools
    n = kernel.shape[0]
    best = math.inf
    for length in range(1, n + 1):
        for nodes in itertools.permutations(range(n), length):
            if nodes[0] != min(nodes):
                continue
            weight = sum(kernel[nodes[i], nodes[(i + 1) % length]]
                         for i in range(length))
            best = min(best, weight / length)
    assert -karp_eigenvalue(kernel) == best


@given(int_kernels, int_vectors)
def test_minplus_associativity(kernel, u):
    left = minplus_apply(minplus_matmul(kernel, kernel), u)
    right = minplus_apply(kernel, minplus_apply(kernel, u))
    assert np.array_equal(left, right)


@given(int_kernels, int_vectors, int_vectors)
def test_minplus_monotone_and_nonexpansive(kernel, u, w):
    if np.all(u <= w):
        assert np.all(minplus_apply(kernel, u) <= minplus_apply(kernel, w))
    du = minplus_apply(kernel, u) - minplus_apply(kernel, w)
    assert np.max(np.abs(du)) <= np.max(np.abs(u - w))


def test_minplus_matmul_matches_repeated_apply():
    rng = np.random.default_rng(5)
    kernel = rng.integers(-5, 6, size=(7, 7)).astype(float)
    u = rng.integers(-5, 6, size=7).astype(float)
    cubed = minplus_matmul(minplus_matmul(kernel, kernel), kernel)
    stepped = u.copy()
    for _ in range(3):
        stepped = minplus_apply(kernel, stepped)
    assert np.array_equal(minplus_apply(cubed, u), stepped)


@pytest.mark.parametrize("m, k, n", [(1, 1, 1), (3, 5, 7), (64, 64, 64)])
def test_minplus_matmul_matches_broadcast_min(m, k, n):
    rng = np.random.default_rng(m * k * n)
    # small positive integers, so many sums tie and no minimum is zero
    a = rng.integers(1, 5, size=(m, k)).astype(float)
    b = rng.integers(1, 5, size=(k, n)).astype(float)
    expected = np.min(a[:, :, None] + b[None], axis=1)
    assert minplus_matmul(a, b).tobytes() == expected.tobytes()


def _broadcast_minplus(a, b, rows=16):
    # the broadcast reference, taken 16 rows at a time so a 256-row operand
    # needs no 128 MB temporary
    return np.concatenate([np.min(a[i:i + rows, :, None] + b[None], axis=1)
                           for i in range(0, a.shape[0], rows)])


@pytest.mark.parametrize("m", [1, 65, 256])
def test_minplus_matmul_is_bit_identical_on_real_valued_operands(m):
    rng = np.random.default_rng(m)
    a = rng.standard_normal((m, 256)) * 10.0
    b = rng.standard_normal((256, 256)) * 10.0
    assert np.array_equal(minplus_matmul(a, b), _broadcast_minplus(a, b))


def test_minplus_matmul_over_no_inner_index_is_the_tropical_zero():
    assert np.array_equal(minplus_matmul(np.zeros((2, 0)), np.zeros((0, 3))),
                          np.full((2, 3), np.inf))


def test_minplus_matmul_is_bit_identical_on_an_assembled_kernel():
    kmat = assemble_kernel(MECH, Grid(16), 0.0, 1.0).matrix
    squared = minplus_matmul(kmat, kmat)
    assert np.array_equal(squared, _broadcast_minplus(kmat, kmat))
    assert np.array_equal(minplus_matmul(squared, kmat), _broadcast_minplus(squared, kmat))


def _assert_same_product(got, want):
    """Equal entries with NaN at the same places, and the same bits where
    ``want`` is neither NaN nor zero: a NaN's payload and the sign of a
    zero that ties +0 with -0 follow the order of the reduction (numpy's
    min returns the later of two equal operands)."""
    assert np.array_equal(got, want, equal_nan=True)
    plain = ~np.isnan(want) & (want != 0.0)
    assert np.array_equal(got[plain].view(np.int64), want[plain].view(np.int64))


# few distinct values, so sums tie, with both infinities,
# overflowing sums, NaN and both zeros
special_floats = st.sampled_from([-2.5, -1.0, -0.0, 0.0, 0.5, 1.0, 1e308, -1e308,
                                  math.inf, -math.inf, math.nan])


@given(st.sampled_from([1, 2, 17]), st.sampled_from([1, 31, 32, 33, 65]),
       st.sampled_from([1, 3, 40]), st.data())
def test_minplus_matmul_matches_the_broadcast_reference_on_special_values(
        rows, inner, cols, data):
    # NaN, inf - inf and overflowing sums reach the minimum as they do in
    # the broadcast reference, whatever the block of rows
    a = data.draw(arrays(np.float64, (rows, inner), elements=special_floats))
    b = data.draw(arrays(np.float64, (inner, cols), elements=special_floats))
    with np.errstate(invalid="ignore", over="ignore"):
        got, want = minplus_matmul(a, b), _broadcast_minplus(a, b)
        applied = minplus_apply(b, a[0])
    _assert_same_product(got, want)
    _assert_same_product(applied, want[0])


@pytest.fixture(scope="module")
def shifted_kernels():
    """The c-shifted grid-64 unit kernels of q in {1, 2, 4} and eps in {0, 0.1}."""
    out = {}
    for q in (1, 2, 4):
        for eps in (0.0, 0.1):
            kernel = assemble_kernel(LagrangianSystem(family="mechanical-cos", freq=q, eps=eps),
                                     Grid(64), 0.0, 1.0)
            out[q, eps] = kernel.matrix + karp_eigenvalue(kernel)
    return out


@pytest.mark.parametrize("q", [1, 2, 4])
@pytest.mark.parametrize("eps", [0.0, 0.1])
def test_minplus_powers_of_shifted_kernels_are_bit_identical(shifted_kernels, q, eps):
    # one, two and four wells: the minimizers gather at one grid point, at
    # a few, or spread over the grid
    shifted = shifted_kernels[q, eps]
    power = shifted
    for _ in range(3):  # the 2nd to 4th powers
        expected = _broadcast_minplus(power, shifted)
        power = minplus_matmul(power, shifted)
        assert power.tobytes() == expected.tobytes()
    for row in (shifted[0], power[17]):
        assert minplus_apply(shifted, row).tobytes() == minplus_matmul(row[None, :], shifted).tobytes()



@given(arrays(np.float64, (5, 5), elements=st.integers(-6, 6).map(float)))
def test_normalized_iteration_eventually_periodic(kernel):
    u = np.zeros(5)
    seen = {}
    for step in range(500):
        key = tuple(u)
        if key in seen:
            return
        seen[key] = step
        u = minplus_apply(kernel, u)
        u -= u.min()
    pytest.fail("no periodicity within 500 sweeps")


@pytest.mark.parametrize("sys", BOUND_SYSTEMS, ids=BOUND_IDS)
@given(z=st.floats(-3.0, 3.0), t=st.floats(0.0, 1.0),
       h=st.sampled_from([1 / 64, 1 / 32, 0.45 / 14, 1 / 8]))
def test_subsolution_bound_holds_on_every_segment(sys, z, t, h):
    # h (L(m, D/h, t) + c'(t)) >= s |u(m + D/2) - u(m - D/2)| on every
    # segment, the inequality that winding_search sums into its bound;
    # checked on a lattice of midpoints m over a period from z and of
    # velocities D/h up to twice the escape speed
    ceiling, u, _, lip = sys.critical_subsolution()
    r = lip * h / (4.0 * sys.mass)
    s = math.sqrt(1.0 + r * r) - r
    speed = 2.0 * math.sqrt(2.0 * sys.potential_upper_bound() / sys.mass) + 1.0
    mid = z + np.arange(64)[:, None] / 64
    vel = speed * np.linspace(-1.0, 1.0, 81)[None, :]
    c = ceiling(t)
    lhs = h * (sys.lagrangian(mid, vel, t) + c)
    rise = np.abs(u(mid + 0.5 * h * vel) - u(mid - 0.5 * h * vel))
    allowance = 1e-13 * (1.0 + np.abs(mid)) * (np.abs(lhs) + h * abs(c) + np.abs(u(mid)))
    assert np.all(lhs >= s * rise - allowance)


@pytest.mark.parametrize("sys", BOUND_SYSTEMS, ids=BOUND_IDS)
def test_subsolution_slope_is_the_derivative_of_u_and_subcritical(sys):
    # p = u' to the central difference's error, which the Lipschitz
    # constant of p bounds across the kinks of p at its zeros, and
    # H(x, p(x), t) <= c'(t) on a lattice of lifted x and of t
    ceiling, u, p, lip = sys.critical_subsolution()
    z = np.linspace(-3.0, 3.0, 601) + 1.0 / 7.0
    step = 1e-6
    fd = (u(z + step) - u(z - step)) / (2.0 * step)
    assert np.all(np.abs(fd - p(z)) <= lip * step + 1e-8 * (1.0 + np.abs(u(z))))
    t = np.arange(16)[:, None] / 16
    gap = sys.hamiltonian(z[None, :], p(z)[None, :], t) - ceiling(t)
    assert np.all(gap <= 1e-12 * (1.0 + lip))


def unpruned_minimum(sys, a, b, starts, ends, windings):
    """Least midpoint-rule action over the given windings, each solved for
    every pair with nothing pruned, and the winding that attains it: on a
    tie, the first in the given order."""
    n_seg = segments_for(b - a)
    lifted = np.concatenate([ends + k for k in windings])
    rows = minimize_straight_batch(sys, a, b, n_seg, _straight_lifts(
        np.tile(starts, len(windings)), lifted, n_seg))[0]
    values = exact_row_actions(sys, a, b, rows).reshape(len(windings), -1)
    best = np.argmin(values, axis=0)
    return values[best, np.arange(len(starts))], np.asarray(windings)[best]


@pytest.mark.parametrize("sys, s, delta", [(sys, 0.0, 1.0) for sys in BOUND_SYSTEMS]
                         + [(MECH, 0.1, 0.45)], ids=BOUND_IDS + ["window"])
def test_pruned_windings_never_win(sys, s, delta):
    pts = Grid(16).points
    starts, ends = np.repeat(pts, 16), np.tile(pts, 16)
    values, _, _ = winding_search(sys, s, s + delta, starts, ends)
    unpruned, _ = unpruned_minimum(sys, s, s + delta, starts, ends, winding_candidates())
    assert np.max(np.abs(values - unpruned)) <= 1e-12


def test_windings_beyond_the_range_are_solved_where_the_bound_fails():
    # the pendulum's action from 0.05 to 0.95 over unit time is -0.984 at
    # winding -1, the nearest lift; a search of winding 0 alone would
    # return 0.265
    value, curve = minimal_action(MECH, 0.05, 0.0, 0.95, 1.0)
    assert curve.winding == -1
    assert value == pytest.approx(-0.98426617, abs=1e-6)


@pytest.mark.parametrize("duration", [2.5, 6.0])
@pytest.mark.parametrize("sys", [MECH, MECH_Q2], ids=["q1", "q2"])
def test_long_searches_need_no_winding_cap(sys, duration):
    # past unit time the search still bounds one first shell and walks
    # outward until the bound clears; it finds the least action over
    # windings -8..8 solved unpruned, at the same winding
    rng = np.random.default_rng(0)
    starts, ends = rng.uniform(0.0, 1.0, 6), rng.uniform(0.0, 1.0, 6)
    values, _, windings = winding_search(sys, 0.3, 0.3 + duration, starts, ends)
    unpruned, winners = unpruned_minimum(sys, 0.3, 0.3 + duration, starts, ends,
                                         sorted(range(-8, 9), key=lambda k: (abs(k), k)))
    assert np.max(np.abs(values - unpruned)) <= 1e-12
    assert windings.tolist() == winners.tolist()


def test_a_winding_zero_the_bound_clears_is_never_minimized(monkeypatch):
    # pairs more than half a turn apart start at their nearest lift, winding
    # +-1; where the bound at winding 0 clears that value, the long way
    # round is never minimized at all
    pts = Grid(16).points
    starts, ends = np.repeat(pts, 16), np.tile(pts, 16)
    lifts, first = [], []
    original = tropical.minimize_straight_batch

    def recording(sys, a, b, n_seg, z0, **kwargs):
        out = original(sys, a, b, n_seg, z0, **kwargs)
        lifts.extend(zip(z0[:, 0].tolist(), z0[:, -1].tolist()))
        first.append(out[1])
        return out

    monkeypatch.setattr(tropical, "minimize_straight_batch", recording)
    winding_search(MECH_Q2, 0.0, 1.0, starts, ends)
    far = np.abs(ends - starts) > 0.5
    n_seg = segments_for(1.0)
    clears = tropical._bound_gap(MECH_Q2, 0.0, 1.0, n_seg, starts, ends, first[0]) > 0.0
    pruned = np.flatnonzero(far & clears)
    assert pruned.size > 0
    solved = set(lifts)
    assert not any((starts[p], ends[p]) in solved for p in pruned)


def search_with_mocked_values(monkeypatch, starts, plain, exact):
    """The windings ``winding_search`` picks from each start to 0 when the
    minimizer returns its start rows, converged, with the plain sum
    ``plain(k)`` at winding k, and ``exact_row_actions`` gives them the
    fsum ``exact(k)``."""
    def values(rows, value):
        return np.array([value(k) for k in np.rint(rows[:, -1]).astype(int).tolist()])

    def batch(sys, a, b, n_seg, z0, **kwargs):
        return z0, values(z0, plain), np.zeros(len(z0)), np.ones(len(z0), dtype=bool), 0

    monkeypatch.setattr(tropical, "minimize_straight_batch", batch)
    monkeypatch.setattr(tropical, "exact_row_actions", lambda sys, a, b, rows: values(rows, exact))
    return winding_search(MECH, 0.0, 1.0, np.asarray(starts), np.zeros(len(starts)))[2].tolist()


@pytest.mark.parametrize("tied, winner", [((-1, 1), -1), ((-1, 0, 1), 0)],
                         ids=["plus-minus-one", "all-three"])
def test_a_tie_goes_to_the_smaller_winding_whichever_batch_found_it(
        monkeypatch, tied, winner):
    # every row of a tied winding gets the value 10 and every other row
    # 11; the pair from 0.75 to 0 starts at winding 1, the pair from 0 to 0
    # at winding 0, and either way the tie goes to the smaller (|k|, k)
    def tied_values(k):
        return 10.0 if k in tied else 11.0

    windings = search_with_mocked_values(monkeypatch, [0.75, 0.0], tied_values, tied_values)
    assert windings == [winner, winner]


def test_windings_are_ranked_by_the_values_the_search_returns(monkeypatch):
    # the plain sums favour winding 1 and the fsums winding 0: the winner is
    # the least value returned, so the kernel's tie policy holds on it
    def plain(k):
        return {0: 10.0, 1: 9.0}.get(k, 11.0)

    def exact(k):
        return {0: 9.0, 1: 10.0}.get(k, 11.0)

    assert search_with_mocked_values(monkeypatch, [0.0], plain, exact) == [0]


@pytest.mark.parametrize("amp, freq, x, y", [(-1.0, 1, 0.9375, 0.0), (16.0, 2, 0.8125, 0.3125)])
def test_windings_past_the_cap_are_solved_where_the_bound_misses(monkeypatch, amp, freq, x, y):
    # at eps = 0.3 the bound at winding 2 does not clear these pairs' best
    # energy over the first shell, so winding 2 is minimized in a third
    # batch; the value is still the least over windings -3..3 solved
    # unpruned
    sys = LagrangianSystem(family="mechanical-cos", amp=amp, freq=freq, eps=0.3)
    batches = []
    original = tropical.minimize_straight_batch

    def counting(sys, a, b, n_seg, z0, **kwargs):
        batches.append(z0.shape[0])
        return original(sys, a, b, n_seg, z0, **kwargs)

    monkeypatch.setattr(tropical, "minimize_straight_batch", counting)
    starts, ends = np.array([x]), np.array([y])
    values, _, _ = winding_search(sys, 0.0, 1.0, starts, ends)
    assert len(batches) == 3
    monkeypatch.undo()
    unpruned, _ = unpruned_minimum(sys, 0.0, 1.0, starts, ends, range(-3, 4))
    assert values[0] == pytest.approx(unpruned[0], abs=1e-12)
