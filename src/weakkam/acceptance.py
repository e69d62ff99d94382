"""The acceptance matrix: every exit check the project must pass, runnable
both from the test suite and from the command line bundle.

Each criterion function takes a shared context (which caches kernels,
barriers, and orbits so expensive objects are assembled once) and returns
a CriterionResult with a pass flag, a details mapping for the summary, and
optional CSV rows.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import WeakKamError
from .experiments import dwell_statistics, run_convergence
from .flow import PeriodicOrbit, flow_map, refine_periodic_orbit
from .reduction import lift_curve, lift_system, tilt_system
from .systems import (DiscretizedCurve, LagrangianSystem, PhasePoint,
                      curve_action, exact_row_actions, torus_distance)
from .tropical import (Grid, assemble_kernel, karp_eigenvalue,
                       minplus_apply, minplus_matmul)
from .weak_kam import aubry_set, connection_graph, peierls_barrier

ORACLE_C = 1.0  # max of the potential for the built-in amplitude
# seconds criterion 01 allows for the main-grid kernels and their Karp
# eigenvalues: a gate, never loosened
RUNTIME_BUDGET = 60.0
DWELL_HORIZONS = (8.0, 16.0, 32.0)


@dataclass(frozen=True)
class AcceptanceScale:
    """Knobs for the acceptance matrix; defaults are the stated desk scale."""

    n_main: int = 256
    n_confirm: int = 512
    n_small: int = 64
    horizon: int = 40
    k_max: int = 60


@dataclass
class CriterionResult:
    cid: int
    name: str
    passed: bool
    details: dict
    rows: list = field(default_factory=list)
    header: tuple = ()

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        info = " ".join(f"{k}={v}" for k, v in self.details.items())
        return f"ACCEPTANCE {self.cid:02d} {mark} {self.name}: {info}"


def random_curves(seed: int, count: int):
    """``count`` seeded 64-segment curves over [0, T], T in {1, 2, 3}: a
    random start and drift plus three random sine modes, the test curves
    of the lift and tilt identities."""
    rng = np.random.default_rng(seed)
    frac = np.linspace(0.0, 1.0, 65)
    for _ in range(count):
        duration = float(rng.integers(1, 4))
        samples = rng.uniform(0.0, 1.0) + rng.normal(0.0, 0.5) * frac
        for mode in (1, 2, 3):
            samples = samples + rng.normal(0.0, 0.2 / mode) * np.sin(np.pi * mode * frac)
        yield DiscretizedCurve(0.0, duration, samples, 0)


def legendre_gap(sys, x, p, t) -> float:
    """|p v* - L(x, v*, t) - H(x, p, t)| at v* = p / mass, where the
    Legendre transform sup_v (p v - L) is attained: the system's
    Hamiltonian checked against its own Lagrangian."""
    v_star = p / sys.mass
    return abs(float(p * v_star - sys.lagrangian(x, v_star, t) - sys.hamiltonian(x, p, t)))


def tilt_quadrature_gap(tilted, curve):
    """(gap, bound): the gap between ``tilted.curve_action(curve)``, the
    base's midpoint rule plus the exact boundary term, and an fsum midpoint
    rule of the tilt's pointwise Lagrangian L - f_x v + c along the curve,
    with a bound on that gap for the maupertuis tilt.

    The two differ only by the midpoint rule's error on the exact
    differential f_x dz. On a segment of length D with midpoint m it is at
    most the integral of |f_x(z) - f_x(m)| over the segment. f_x = +-p is
    Lipschitz with p's constant Lambda except at the corners
    x0 + (k + 1/2)/q, where it jumps by 2 p(corner). So a segment costs at
    most Lambda D^2 / 4, plus p(corner) |D| for each corner it holds, since
    at most half of it lies past the corner. The bound sums these and adds
    the 1e-9 rounding allowance of the action identity.
    """
    base = tilted.base
    _, _, p, lip = base.critical_subsolution()
    corner_p = float(p(base.crest + 0.5 / base.freq))
    z = curve.samples
    d = np.diff(z)
    corners = np.abs(np.diff(np.floor(base.freq * (z - base.crest) - 0.5)))
    bound = math.fsum(lip * d * d / 4.0 + corner_p * np.abs(d) * corners) + 1e-9
    quadrature = float(exact_row_actions(tilted, curve.t0, curve.t1, z[None, :])[0])
    return abs(quadrature - tilted.curve_action(curve)), bound


def lift_identity_gaps(sys, n: int, seed: int, count: int):
    """(worst action gap, worst Legendre gap) of the order-n lift of sys:
    |n A_lift - A| over ``count`` ``random_curves(seed)`` and their lifts,
    and ``legendre_gap`` of the lift at 100 points drawn with seed + 1."""
    lifted = lift_system(sys, n)
    worst_action = max(abs(n * curve_action(lifted, lift_curve(curve, n))
                           - curve_action(sys, curve)) for curve in random_curves(seed, count))
    rng = np.random.default_rng(seed + 1)
    worst_legendre = max(legendre_gap(lifted, rng.uniform(0, 1), rng.uniform(-3, 3),
                                      rng.uniform(0, 1)) for _ in range(100))
    return worst_action, worst_legendre


class AcceptanceContext:
    """Caches the expensive shared objects of the acceptance matrix."""

    def __init__(self, scale: AcceptanceScale | None = None, seed: int = 0):
        self.scale = scale or AcceptanceScale()
        self.seed = int(seed)
        self._kernels = {}
        self._barriers = {}
        self._orbits = {}
        self.assembly_seconds = {}

    def system(self, freq: int = 1, eps: float = 0.0) -> LagrangianSystem:
        return LagrangianSystem(family="mechanical-cos", amp=1.0, freq=freq, eps=eps)

    def kernel(self, freq: int, eps: float, n: int):
        key = (freq, eps, n)
        if key not in self._kernels:
            start = time.perf_counter()
            self._kernels[key] = assemble_kernel(self.system(freq, eps), Grid(n),
                                                 0.0, 1.0)
            self.assembly_seconds[key] = time.perf_counter() - start
        return self._kernels[key]

    def critical_value(self, freq: int, eps: float, n: int) -> float:
        return karp_eigenvalue(self.kernel(freq, eps, n))

    def barrier(self, freq: int, eps: float, n: int):
        key = (freq, eps, n)
        if key not in self._barriers:
            kernel = self.kernel(freq, eps, n)
            c = karp_eigenvalue(kernel)
            sys = self.system(freq, eps)
            barrier = peierls_barrier(sys, Grid(n), c, self.scale.horizon,
                                      kernel=kernel)
            barrier.require_stabilized(sys.label())
            self._barriers[key] = barrier
        return self._barriers[key]

    def orbit(self, freq: int, eps: float, guess_x: float) -> PeriodicOrbit:
        key = (freq, eps, round(guess_x, 6))
        if key not in self._orbits:
            self._orbits[key] = refine_periodic_orbit(
                self.system(freq, eps), PhasePoint(x=guess_x, v=0.01, t=0.0), 1)
        return self._orbits[key]


def criterion_01_critical_value(ctx: AcceptanceContext) -> CriterionResult:
    """Critical value oracle c = max potential, with finer-grid Karp confirm."""
    rows = []
    worst = 0.0
    karp_seconds = 0.0
    for freq in (1, 2):
        kernel = ctx.kernel(freq, 0.0, ctx.scale.n_main)  # assembly timed by ctx
        start = time.perf_counter()
        c_main = karp_eigenvalue(kernel)
        karp_seconds += time.perf_counter() - start
        err = abs(c_main - ORACLE_C)
        worst = max(worst, err)
        c_confirm = ctx.critical_value(freq, 0.0, ctx.scale.n_confirm)
        agree = abs(c_main - c_confirm)
        rows.append((freq, ctx.scale.n_main, c_main, err, ctx.scale.n_confirm,
                     c_confirm, agree))
    timed = karp_seconds + sum(
        ctx.assembly_seconds.get((freq, 0.0, ctx.scale.n_main), 0.0)
        for freq in (1, 2))
    agree_worst = max(row[6] for row in rows)
    passed = (worst <= 1e-2 and agree_worst <= 3e-3
              and timed <= RUNTIME_BUDGET)
    return CriterionResult(
        1, "critical value oracle", passed,
        {"worst_error": f"{worst:.3e}", "confirm_gap": f"{agree_worst:.3e}",
         "main_grid_seconds": f"{timed:.1f}"},
        rows, ("freq", "n", "c", "oracle_error", "n_confirm", "c_confirm", "gap"))


def criterion_02_barrier_oracle(ctx: AcceptanceContext) -> CriterionResult:
    """Barrier from the saddle matches the critical-speed primitive."""
    barrier = ctx.barrier(1, 0.0, ctx.scale.n_main)
    n = ctx.scale.n_main
    rows = []
    worst = 0.0
    for x in (0.125, 0.25, 0.375, 0.5):
        j = int(round(x * n))
        value = barrier.values[0, j]
        oracle = (2.0 / math.pi) * (1.0 - math.cos(math.pi * x))
        err = abs(value - oracle)
        worst = max(worst, err)
        rows.append((x, value, oracle, err))
    return CriterionResult(
        2, "barrier oracle", bool(worst <= 2e-2),
        {"worst_error": f"{worst:.3e}"},
        rows, ("x", "barrier", "oracle", "error"))


def criterion_03_aubry_detection(ctx: AcceptanceContext) -> CriterionResult:
    """One cluster at the saddle for q=1; two clusters for q=2."""
    n = ctx.scale.n_main
    cell = 1.0 / n
    a1 = aubry_set(ctx.barrier(1, 0.0, n), 2e-2)
    a2 = aubry_set(ctx.barrier(2, 0.0, n), 2e-2)
    ok1 = len(a1.clusters) == 1 and torus_distance(a1.points[0], 0.0) <= cell
    d2 = sorted(float(torus_distance(p, t)) for p, t in
                zip(sorted(a2.points), (0.0, 0.5)))
    ok2 = len(a2.clusters) == 2 and max(d2, default=1.0) <= cell
    rows = [(1, len(a1.clusters), ";".join(fmt_pt(p) for p in a1.points)),
            (2, len(a2.clusters), ";".join(fmt_pt(p) for p in a2.points))]
    return CriterionResult(
        3, "Aubry detection", bool(ok1 and ok2),
        {"q1_clusters": len(a1.clusters), "q2_clusters": len(a2.clusters)},
        rows, ("freq", "clusters", "representatives"))


def fmt_pt(p: float) -> str:
    return "%.6f" % p


def criterion_04_floquet(ctx: AcceptanceContext) -> CriterionResult:
    """Floquet oracle at the saddle and the modulated saddle."""
    sys0 = ctx.system(1, 0.0)
    orbit0 = ctx.orbit(1, 0.0, 0.01)
    mults = np.sort(orbit0.multipliers.real)
    target = np.sort([math.exp(-2.0 * math.pi), math.exp(2.0 * math.pi)])
    rel = float(np.max(np.abs(mults - target) / target))
    end0 = flow_map(sys0, PhasePoint(orbit0.x, orbit0.v, 0.0), float(orbit0.period))
    defect0 = float(np.hypot(torus_distance(end0.x, orbit0.x), end0.v - orbit0.v))

    orbit_eps = ctx.orbit(1, 0.1, 0.01)
    meps = orbit_eps.multipliers
    imag = float(np.max(np.abs(meps.imag)))
    prod_err = abs(float(np.prod(meps).real) - 1.0)
    sys_eps = ctx.system(1, 0.1)
    end1 = flow_map(sys_eps, PhasePoint(orbit_eps.x, orbit_eps.v, 0.0),
                    float(orbit_eps.period))
    defect1 = float(np.hypot(torus_distance(end1.x, orbit_eps.x), end1.v - orbit_eps.v))

    passed = (rel <= 1e-4 and imag <= 1e-12 and prod_err <= 1e-8
              and max(defect0, defect1) <= 1e-10)
    rows = [(0.0, mults[1], mults[0], rel, defect0),
            (0.1, float(np.max(meps.real)), float(np.min(meps.real)), prod_err, defect1)]
    return CriterionResult(
        4, "Floquet oracle", bool(passed),
        {"multiplier_rel_error": f"{rel:.2e}", "eps_product_error": f"{prod_err:.2e}",
         "orbit_defect": f"{max(defect0, defect1):.2e}"},
        rows, ("eps", "multiplier_large", "multiplier_small", "error", "defect"))


def criterion_05_converge_crosscheck(ctx: AcceptanceContext) -> CriterionResult:
    """Iterated semigroup limit equals the barrier-generated limit. Both
    read one unit kernel, so this cannot see a wrong kernel entry."""
    rows = []
    worst = 0.0
    for freq, eps, u0_tag in itertools.product((1, 2), (0.0, 0.1), ("zero", "spike")):
        report = run_convergence(
            ctx.system(freq, eps), Grid(ctx.scale.n_main), u0_tag=u0_tag,
            k_max=ctx.scale.k_max, horizon=ctx.scale.horizon, seed=ctx.seed,
            unit_kernel=ctx.kernel(freq, eps, ctx.scale.n_main),
            orbits=[], barrier=ctx.barrier(freq, eps, ctx.scale.n_main))
        final = float(report.errors[-1])
        worst = max(worst, final)
        rows.append((freq, eps, u0_tag, final))
    return CriterionResult(
        5, "semigroup limit cross-check", bool(worst <= 1e-9),
        {"worst_final_error": f"{worst:.3e}"},
        rows, ("freq", "eps", "u0", "final_error"))


def criterion_06_main_theorem(ctx: AcceptanceContext) -> CriterionResult:
    """Exponential-shape fit of the transient with positive rate."""
    rows = []
    passed = True
    details = {}
    for eps in (0.0, 0.1):
        orbit = ctx.orbit(1, eps, 0.01)
        report = run_convergence(
            ctx.system(1, eps), Grid(ctx.scale.n_main), u0_tag="spike",
            k_max=ctx.scale.k_max, horizon=ctx.scale.horizon, seed=ctx.seed,
            unit_kernel=ctx.kernel(1, eps, ctx.scale.n_main), orbits=[orbit],
            barrier=ctx.barrier(1, eps, ctx.scale.n_main))
        ok = (report.verdict == "pass" and report.mu is not None
              and report.mu > 0.0 and report.r2 is not None
              and report.r2 >= 0.98 and report.ratio is not None)
        passed = passed and ok
        rows.append((eps, report.mu, report.prefactor, report.r2,
                     report.lam, report.ratio, report.kstar))
        details[f"eps{eps:g}_mu"] = "none" if report.mu is None else f"{report.mu:.3f}"
        details[f"eps{eps:g}_r2"] = "none" if report.r2 is None else f"{report.r2:.4f}"
    return CriterionResult(
        6, "main theorem experiment", bool(passed), details,
        rows, ("eps", "mu", "prefactor", "r2", "lambda", "mu_over_lambda", "kstar"))


def criterion_07_reduction(ctx: AcceptanceContext) -> CriterionResult:
    """Period-lift identities for actions and Hamiltonians."""
    sys = ctx.system(1, 0.1)
    worst_action, worst_legendre = lift_identity_gaps(sys, 2, ctx.seed, 200)
    worst_action = max(worst_action, lift_identity_gaps(sys, 3, ctx.seed, 200)[0])
    passed = worst_action <= 1e-10 and worst_legendre <= 1e-12
    return CriterionResult(
        7, "reduction identities", bool(passed),
        {"worst_action_gap": f"{worst_action:.3e}",
         "hamiltonian_legendre_gap": f"{worst_legendre:.3e}"},
        [(worst_action, worst_legendre)], ("worst_action_gap", "hamiltonian_legendre_gap"))


def criterion_08_tilt(ctx: AcceptanceContext) -> CriterionResult:
    """Tilt identities: exact differential, nonnegativity, zero eigenvalue."""
    sys = ctx.system(1, 0.0)
    tilted = tilt_system(sys, "maupertuis", ORACLE_C)
    worst = worst_quadrature = 0.0
    within_bound = True
    for curve in random_curves(ctx.seed, 200):
        lhs = tilted.curve_action(curve)
        rhs = (curve_action(sys, curve) + ORACLE_C * (curve.t1 - curve.t0)
               + float(tilted.f(curve.start())) - float(tilted.f(curve.end())))
        worst = max(worst, abs(lhs - rhs))
        gap, bound = tilt_quadrature_gap(tilted, curve)
        worst_quadrature = max(worst_quadrature, gap)
        within_bound = within_bound and gap <= bound
    lattice_min = tilted.tilt_minimum
    kernel = tilted.kernel(Grid(ctx.scale.n_small), 0.0, 1.0)
    karp = karp_eigenvalue(kernel)
    passed = (worst <= 1e-9 and within_bound and lattice_min >= -1e-6
              and abs(karp) <= 2e-2)
    return CriterionResult(
        8, "tilt identities", bool(passed),
        {"worst_identity_gap": f"{worst:.3e}",
         "worst_quadrature_gap": f"{worst_quadrature:.3e}",
         "lattice_min": f"{lattice_min:.3e}", "tilted_karp": f"{karp:.3e}"},
        [(worst, worst_quadrature, lattice_min, karp)],
        ("worst_identity_gap", "worst_quadrature_gap", "lattice_min", "tilted_karp"))


def _brute_force_cycle_mean(matrix: np.ndarray) -> float:
    n = matrix.shape[0]
    best = math.inf
    for length in range(1, n + 1):
        for nodes in itertools.permutations(range(n), length):
            if nodes[0] != min(nodes):
                continue  # one rotation per cycle is enough
            weight = sum(matrix[nodes[i], nodes[(i + 1) % length]]
                         for i in range(length))
            best = min(best, weight / length)
    return best


def criterion_09_tropical_core(ctx: AcceptanceContext) -> CriterionResult:
    """Karp vs enumeration; associativity; nonexpansiveness; all exact."""
    rng = np.random.default_rng(ctx.seed + 2)
    karp_exact = True
    for _ in range(100):
        n = int(rng.integers(2, 8))
        mat = rng.integers(-9, 10, size=(n, n)).astype(float)
        karp_exact = karp_exact and (-karp_eigenvalue(mat)
                                     == _brute_force_cycle_mean(mat))
    assoc_exact = True
    mono_exact = True
    for _ in range(50):
        kmat = rng.integers(-9, 10, size=(8, 8)).astype(float)
        u = rng.integers(-9, 10, size=8).astype(float)
        w = rng.integers(-9, 10, size=8).astype(float)
        left = minplus_apply(minplus_matmul(kmat, kmat), u)
        right = minplus_apply(kmat, minplus_apply(kmat, u))
        assoc_exact = assoc_exact and bool(np.array_equal(left, right))
        du = minplus_apply(kmat, u) - minplus_apply(kmat, w)
        mono_exact = mono_exact and bool(np.max(np.abs(du)) <= np.max(np.abs(u - w)))
    passed = karp_exact and assoc_exact and mono_exact
    return CriterionResult(
        9, "tropical core", bool(passed),
        {"karp_vs_enumeration": karp_exact, "associativity": assoc_exact,
         "nonexpansive": mono_exact},
        [(karp_exact, assoc_exact, mono_exact)],
        ("karp_vs_enumeration", "associativity", "nonexpansive"))


def criterion_10_connection_graph(ctx: AcceptanceContext) -> CriterionResult:
    """Two-well graph is acyclic with barrier values at the oracle; the
    four-well graph has the edges and roots its geometry gives."""
    n = ctx.scale.n_main
    at = Grid(n).nearest_index
    barrier = ctx.barrier(2, 0.0, n)
    aubry = aubry_set(barrier, 2e-2)
    graph = connection_graph(barrier, aubry, at(0.25), tol=1e-3)
    i0 = at(0.0)
    ihalf = at(0.5)
    oracle = 2.0 / math.pi
    e1 = abs(barrier.values[i0, ihalf] - oracle)
    e2 = abs(barrier.values[ihalf, i0] - oracle)
    # wells at k/4 and a target at 1/8, between the classes at 0 and 1/4:
    # those two are roots, the class at 1/2 reaches the target through 1/4
    # and the class at 3/4 through 0; edges and roots compare by position
    barrier4 = ctx.barrier(4, 0.0, n)
    graph4 = connection_graph(barrier4, aubry_set(barrier4, 2e-2), at(0.125), tol=1e-3)

    def arrows(edges):
        return ";".join(sorted(f"{fmt_pt(j / n)}>{fmt_pt(k / n)}" for j, k in edges))

    v = graph4.vertices
    edges4 = arrows((v[j], v[k]) for j, k, _ in graph4.edges)
    oracle_edges = arrows([(at(0.25), at(0.5)), (at(0.0), at(0.75))])
    roots4 = ";".join(sorted(fmt_pt(v[r] / n) for r in graph4.roots))
    oracle_roots = ";".join(fmt_pt(at(x) / n) for x in (0.0, 0.25))
    slack4 = max((abs(slack) for _, _, slack in graph4.edges), default=0.0)
    passed = ((not graph.cycles) and max(e1, e2) <= 2e-2 and not graph4.cycles
              and edges4 == oracle_edges and roots4 == oracle_roots)
    rows = [("h(0,1/2)", barrier.values[i0, ihalf], oracle, e1),
            ("h(1/2,0)", barrier.values[ihalf, i0], oracle, e2),
            ("edges", len(graph.edges), "", ""),
            ("roots", len(graph.roots), "", ""),
            ("cycles", len(graph.cycles), "", ""),
            ("q4 edges", edges4, oracle_edges, slack4),
            ("q4 roots", roots4, oracle_roots, ""),
            ("q4 cycles", len(graph4.cycles), "", "")]
    return CriterionResult(
        10, "connection graph", bool(passed),
        {"cycles": len(graph.cycles), "barrier_error": f"{max(e1, e2):.3e}",
         "roots": len(graph.roots), "edges": len(graph.edges),
         "q4_edges": len(graph4.edges), "q4_cycles": len(graph4.cycles)},
        rows, ("quantity", "value", "oracle", "error"))


def criterion_11_dwell(ctx: AcceptanceContext) -> CriterionResult:
    """Horizon-independent outside time; linear growth of the longest stay."""
    orbit = ctx.orbit(1, 0.0, 0.01)
    sys = ctx.system(1, 0.0)
    reports = [dwell_statistics(sys, [orbit], 0.25, 0.0, 0.25, horizon, delta=0.05)
               for horizon in DWELL_HORIZONS]
    out = [r.time_outside for r in reports]
    stay = [r.longest_stay for r in reports]
    hz = list(DWELL_HORIZONS)
    union_ok = abs(out[0] - out[1]) <= 0.25 * max(out[0], out[1])
    slope = np.polyfit(hz, stay, 1)[0]
    single_ok = slope >= 0.8 and all(b > a for a, b in zip(stay, stay[1:]))
    rows = [(h, r.time_outside, r.longest_stay, r.n_hat)
            for h, r in zip(hz, reports)]
    return CriterionResult(
        11, "dwell diagnostics", bool(union_ok and single_ok),
        {"outside_times": ";".join(f"{v:.3f}" for v in out),
         "stay_slope": f"{slope:.3f}"},
        rows, ("horizon", "time_outside", "longest_stay", "n_hat"))


def criterion_12_determinism(ctx: AcceptanceContext) -> CriterionResult:
    """Byte-identical reruns of the seeded pipeline pieces."""
    from .reporting import csv_text

    def probe() -> bytes:
        n = ctx.scale.n_small
        sys = ctx.system(1, 0.1)
        kernel = assemble_kernel(sys, Grid(n), 0.0, 1.0)
        report = run_convergence(sys, Grid(n), u0_tag="random-seeded",
                                 k_max=max(8, ctx.scale.k_max // 4), horizon=12,
                                 seed=ctx.seed, unit_kernel=kernel, orbits=[])
        orbit = refine_periodic_orbit(sys, PhasePoint(0.01, 0.01, 0.0), 1)
        chunks = [csv_text(("i", "j", "value"),
                           [(i, j, kernel.matrix[i, j]) for i in range(0, n, 7)
                            for j in range(0, n, 7)]),
                  csv_text(("k", "error"), list(enumerate(report.errors))),
                  csv_text(("x", "v", "lam"), [(orbit.x, orbit.v, orbit.lam)])]
        return "".join(chunks).encode()

    first = probe()
    second = probe()
    passed = first == second
    return CriterionResult(
        12, "determinism", bool(passed),
        {"identical_bytes": passed, "probe_bytes": len(first)},
        [(passed, len(first))], ("identical_bytes", "probe_bytes"))


CRITERIA = (
    criterion_01_critical_value,
    criterion_02_barrier_oracle,
    criterion_03_aubry_detection,
    criterion_04_floquet,
    criterion_05_converge_crosscheck,
    criterion_06_main_theorem,
    criterion_07_reduction,
    criterion_08_tilt,
    criterion_09_tropical_core,
    criterion_10_connection_graph,
    criterion_11_dwell,
    criterion_12_determinism,
)


def run_all(ctx: AcceptanceContext | None = None, out_dir=None, echo=print):
    """Run every criterion in order, optionally writing one CSV per
    criterion plus a summary; returns the list of results.

    A criterion that raises a toolkit error or a numerical crash (a
    singular LAPACK solve, a trapped floating-point fault) is recorded as
    failed with the exception type and message, and the remaining criteria
    still run, so partial results survive a hard failure."""
    import os

    ctx = ctx or AcceptanceContext()
    results = []
    for cid, criterion in enumerate(CRITERIA, start=1):
        try:
            result = criterion(ctx)
        except (WeakKamError, np.linalg.LinAlgError, FloatingPointError) as exc:
            result = CriterionResult(cid, criterion.__name__, False,
                                     {"error": f"{type(exc).__name__}: {exc}"})
        results.append(result)
        if echo:
            echo(result.line())
    if out_dir is not None:
        from .reporting import write_csv
        os.makedirs(out_dir, exist_ok=True)
        for result in results:
            if result.rows:
                write_csv(os.path.join(out_dir, f"criterion_{result.cid:02d}.csv"),
                          result.header, result.rows)
        write_csv(os.path.join(out_dir, "summary.csv"),
                  ("id", "name", "passed"),
                  [(r.cid, r.name, r.passed) for r in results])
    return results
