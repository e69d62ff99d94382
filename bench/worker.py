"""One run of one benchmark workload, in one process.

Each workload is a closed loop with a single client: every call starts
when the previous one has returned. ``run.py`` starts this script with
the BLAS/OpenMP thread variables pinned to 1 and reads two lines from its
standard output: ``READY`` once set-up is done, then ``RESULT <json>``.

A run repeats whole timed passes while another one still fits in
``--seconds``, and makes at least one. The outputs of every pass are
checked against the paper's oracles outside the timed region. With
``--trace 1`` the first pass is untraced and the rest, at least two, are
traced: they give the per-layer numbers and must repeat each other's
counts, and their difference from the untraced pass is the tracing
overhead.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing
import weakkam
from weakkam import action, experiments, flow, tropical, weak_kam
from weakkam.systems import LagrangianSystem, PhasePoint, torus_distance
from weakkam.tropical import Grid

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class Scale:
    grid: int
    horizon: int
    k_max: int
    dwell_horizons: tuple
    probes: int


# "full" is the paper's desk scale; "small" only serves the self-test
SCALES = {
    "full": Scale(grid=256, horizon=40, k_max=60, dwell_horizons=(8.0, 16.0, 32.0),
                  probes=16),
    "small": Scale(grid=32, horizon=8, k_max=12, dwell_horizons=(4.0, 6.0, 8.0),
                   probes=4),
}


def mech(freq: int, eps: float) -> LagrangianSystem:
    return LagrangianSystem(family="mechanical-cos", amp=1.0, freq=freq, eps=eps)


class Checks:
    """Oracle checks of one run; every failure counts into the error rate."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, name: str, ok, value=None):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name} (value {value!r})")


# -- critical-value ------------------------------------------------------

class CriticalValue:
    """Unit kernels at grid 256 and their Karp eigenvalue, for three
    systems: the assembly cost that dominates the paper suite."""

    def __init__(self, scale: Scale, seed: int):
        self.grid = Grid(scale.grid)
        self.systems = [mech(1, 0.0), mech(2, 0.0), mech(1, 0.1)]
        rng = np.random.default_rng(seed)
        self.probes = [rng.integers(0, self.grid.n, size=(scale.probes, 2))
                       for _ in self.systems]
        self.entries = len(self.systems) * self.grid.n ** 2

    def run(self):
        out = []
        for sys_ in self.systems:
            kernel = tropical.assemble_kernel(sys_, self.grid, 0.0, 1.0)
            out.append((kernel, tropical.karp_eigenvalue(kernel)))
        return out

    def check(self, out, checks: Checks):
        pts = self.grid.points
        for sys_, (kernel, c), pairs in zip(self.systems, out, self.probes):
            label = sys_.label()
            checks.check(f"{label}: |c - 1| <= 1e-2", abs(c - 1.0) <= 1e-2, c)
            for i, j in pairs:
                value, _ = action.minimal_action(sys_, pts[i], 0.0, pts[j], 1.0)
                gap = abs(value - kernel.matrix[i, j])
                checks.check(f"{label}: minimal_action matches K[{i}][{j}]",
                             gap <= 1e-12, gap)

    def entry_rate(self, wall: float) -> float:
        return self.entries / wall


# -- weak-kam-stack ------------------------------------------------------

class OrbitsAndDwell:
    """Shooting and Floquet data for seven hyperbolic orbits, then three
    long dwell minimizers: few rows with many segments and windings, and
    the only real load on the scalar RK4 of ``flow``."""

    # (freq, eps, guess x, period); the guess velocity is 0.01 for all
    ORBITS = ((1, 0.0, 0.01, 1), (1, 0.1, 0.01, 1), (1, 0.1, 0.01, 2),
              (1, 0.1, 0.01, 3), (2, 0.0, 0.01, 1), (2, 0.0, 0.49, 1),
              (2, 0.1, 0.01, 1))

    def __init__(self, scale: Scale, seed: int):
        self.horizons = scale.dwell_horizons
        # the orbit list is fixed by the acceptance criteria, so the seed
        # only sets the order in which the orbits are refined
        self.order = [int(k) for k in np.random.default_rng(seed).permutation(
            len(self.ORBITS))]

    def run(self):
        orbits = {}
        for k in self.order:
            q, eps, x, period = self.ORBITS[k]
            orbits[k] = flow.refine_periodic_orbit(mech(q, eps), PhasePoint(x, 0.01, 0.0),
                                                   period)
        dwell = [experiments.dwell_statistics(mech(1, 0.0), [orbits[0]], 0.25, 0.0,
                                              0.25, horizon, delta=0.05)
                 for horizon in self.horizons]
        return orbits, dwell

    def check(self, out, checks: Checks):
        orbits, dwell = out
        for k, (q, eps, x, period) in enumerate(self.ORBITS):
            orbit, sys_ = orbits[k], mech(q, eps)
            label = f"{sys_.label()} orbit x0={x} period {period}"
            end = flow.flow_map(sys_, PhasePoint(orbit.x, orbit.v, 0.0), float(period))
            defect = float(np.hypot(torus_distance(end.x, orbit.x), end.v - orbit.v))
            checks.check(f"{label}: closing defect <= 1e-10", defect <= 1e-10, defect)
            checks.check(f"{label}: hyperbolic", orbit.hyperbolic, orbit.multipliers)
            # criterion 04 holds the period-1 saddles of q=1 to 1e-8; the
            # other orbits have multipliers of 3e5 to 2e8, so their 2x2
            # determinant is exact only to rounding, of order eps |M|^2
            det = abs(float(np.linalg.det(orbit.monodromy)) - 1.0)
            tol = 1e-8 if (q, period) == (1, 1) else \
                64 * np.finfo(float).eps * float(np.sum(orbit.monodromy ** 2))
            checks.check(f"{label}: |det monodromy - 1| <= {tol:.1e}", det <= tol, det)
            if q == 1 and eps == 0.0:
                target = np.array([math.exp(2 * math.pi), math.exp(-2 * math.pi)])
                mults = np.sort(orbit.multipliers.real)[::-1]
                rel = float(np.max(np.abs(mults - target) / target))
                checks.check(f"{label}: multipliers e^(+-2 pi) to 1e-4", rel <= 1e-4, rel)
        stays = [r.longest_stay for r in dwell]
        slope = float(np.polyfit(list(self.horizons), stays, 1)[0])
        checks.check("dwell longest stay rises with slope >= 0.8",
                     slope >= 0.8 and all(b > a for a, b in zip(stays, stays[1:])),
                     stays)


class WeakKamStack:
    """Everything downstream of assembly. Barrier, Aubry set, connection
    graph and convergence on kernels assembled in set-up (min-plus algebra
    with no assembly), then the orbits and dwell minimizers."""

    # (freq, eps, Aubry clusters expected)
    SYSTEMS = ((2, 0.0, 2), (1, 0.1, 1))

    def __init__(self, scale: Scale, seed: int):
        self.scale = scale
        self.seed = seed
        self.grid = Grid(scale.grid)
        self.systems = [mech(q, eps) for q, eps, _ in self.SYSTEMS]
        self.orbits = OrbitsAndDwell(scale, seed)
        start = time.perf_counter()
        self.kernels = [tropical.assemble_kernel(s, self.grid, 0.0, 1.0)
                        for s in self.systems]
        self.assembly_s = time.perf_counter() - start

    def run(self):
        grid, scale = self.grid, self.scale
        out = []
        for sys_, kernel in zip(self.systems, self.kernels):
            c = tropical.karp_eigenvalue(kernel)
            barrier = weak_kam.peierls_barrier(sys_, grid, c, scale.horizon,
                                               kernel=kernel)
            aubry = weak_kam.aubry_set(barrier, 2e-2)
            graph = weak_kam.connection_graph(barrier, aubry,
                                              grid.nearest_index(0.25), tol=1e-3)
            reports = [experiments.run_convergence(
                sys_, grid, u0_tag=tag, k_max=scale.k_max, horizon=scale.horizon,
                seed=self.seed, unit_kernel=kernel, orbits=[])
                for tag in ("spike", "random-seeded")]
            out.append((barrier, aubry, graph, reports))
        return out, self.orbits.run()

    def check(self, out, checks: Checks):
        stack, orbits = out
        grid = self.grid
        oracle = 2.0 / math.pi
        for (q, eps, clusters), (barrier, aubry, graph, reports) in zip(self.SYSTEMS, stack):
            label = mech(q, eps).label()
            checks.check(f"{label}: barrier stabilized", barrier.stabilized,
                         barrier.defect)
            checks.check(f"{label}: {clusters} Aubry clusters",
                         len(aubry.clusters) == clusters, len(aubry.clusters))
            checks.check(f"{label}: connection graph acyclic", not graph.cycles,
                         graph.cycles)
            for report in reports:
                final = float(report.errors[-1])
                checks.check(f"{label}: {report.u0_tag} final error <= 1e-9",
                             final <= 1e-9, final)
            if q == 2 and eps == 0.0:
                i0, ihalf = grid.nearest_index(0.0), grid.nearest_index(0.5)
                for i, j in ((i0, ihalf), (ihalf, i0)):
                    value = float(barrier.values[i, j])
                    checks.check(f"{label}: h({i},{j}) within 2e-2 of 2/pi",
                                 abs(value - oracle) <= 2e-2, value)
        self.orbits.check(orbits, checks)

    def entry_rate(self, wall: float) -> float:
        # this workload assembles its kernels in set-up only
        return len(self.kernels) * self.grid.n ** 2 / self.assembly_s


WORKLOADS = {"critical-value": CriticalValue, "weak-kam-stack": WeakKamStack}


# -- per-layer metrics ---------------------------------------------------

# span name -> (metric suffix, field of tracing.layer_totals). A span's
# self time is reported as a share of the traced unit of work, so a layer
# a workload never calls reads a share of 0, never a constant time; the
# seconds are that share of ``trace.unit_s``. Units live in BENCHMARK.json.
S = ("self_pct", "self_s")
CALLS = ("calls", "calls")
ROWS = ("rows", "rows")
POINTS = ("points", "points")
ITERATIONS = ("iterations", "iterations")
LAYERS = {
    "systems.lagrangian_and_grads": (S, CALLS, POINTS),
    "systems.lagrangian": (S, CALLS, POINTS),
    tracing.ZERO: (S, ROWS, ITERATIONS),
    tracing.OTHER: (S, ROWS),
    tracing.ESCAPE: (S, ROWS),
    "action.minimize_straight_batch": (S, ROWS, ITERATIONS),
    "action.exact_row_actions": (S, ROWS),
    "action.minimal_action": (S, CALLS, ("segments", "segments")),
    "tropical.assemble_kernel": (S, CALLS, ("entries", "entries")),
    "tropical.minplus_matmul": (S, CALLS, ("ops_computed", "ops_computed"),
                                ("bytes_computed", "bytes_computed")),
    "tropical.minplus_apply": (S, CALLS),
    "tropical.karp_eigenvalue": (S, CALLS),
    "weak_kam.peierls_barrier": (S, CALLS, ("powers", "powers"),
                                 ("defect_max", "defect_max"),
                                 ("unstabilized", "unstabilized")),
    "weak_kam.aubry_set": (S,),
    "weak_kam.connection_graph": (S,),
    "experiments.run_convergence": (S, CALLS, ("kstar_max", "kstar")),
    "experiments.dwell_statistics": (S,),
    "flow.refine_periodic_orbit": (S, CALLS),
    "flow.monodromy": (S,),
    "flow.flow_trajectory": (S,),
}


def layer_metrics(totals: dict, unit_s: float) -> dict:
    """Per-layer values of one unit of work (set-up plus one traced pass)
    that took ``unit_s`` seconds; a layer the workload never calls reads 0."""
    out = {"trace.unit_s": unit_s}
    for span, fields in LAYERS.items():
        row = totals.get(span, {})
        for suffix, field in fields:
            value = row.get(field, 0)
            out[f"{span}.{suffix}"] = 100.0 * value / unit_s if suffix == "self_pct" \
                else value
    descended = totals.get(tracing.OTHER, {}).get("rows", 0)
    candidates = totals.get("tropical.assemble_kernel", {}).get("candidate_rows", 0)
    pruned = candidates - descended
    out[tracing.OTHER + ".rows_pruned"] = pruned
    out["action.winding_prune_ratio"] = pruned / candidates if candidates else 0.0
    return out


def deterministic(metrics: dict) -> dict:
    """The per-layer values that must repeat exactly: all but the times."""
    return {k: v for k, v in metrics.items() if not _timed(k)}


def _timed(name: str) -> bool:
    return name.endswith(".self_pct") or name.startswith("trace.")


# -- environment ---------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "weakkam").glob("*.py")) + \
            sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def git_commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, scale: str) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "threads": {var: os.environ.get(var) for var in THREAD_VARS},
            "commit": git_commit(), "source_sha256": source_digest(),
            "seed": seed, "scale": scale}


# -- main ----------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=sorted(SCALES), required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--spans", type=Path, default=None,
                        help="file the traced spans are dumped to at exit")
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(weakkam.__file__).resolve().parents:
        raise SystemExit(f"weakkam imported from {weakkam.__file__}, not from {src}")
    for var in THREAD_VARS:
        if os.environ.get(var) != "1":
            raise SystemExit(f"{var} must be pinned to 1")

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    with tracer.root("setup") if tracer else nullcontext():
        work = WORKLOADS[args.workload](SCALES[args.scale], args.seed)
    if tracer:
        tracer.uninstall()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    checks = Checks()
    walls = {False: [], True: []}
    pass_roots = []
    start = time.perf_counter()
    while True:
        traced = bool(tracer) and bool(walls[False])
        if traced:
            tracer.install()
        t0 = time.perf_counter()
        with tracer.root("pass") if traced else nullcontext() as idx:
            out = work.run()
        wall = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
            pass_roots.append(idx)
        walls[traced].append(wall)
        work.check(out, checks)
        # stop before a pass of typical length would overrun the budget
        typical = statistics.median(walls[False] + walls[True])
        full = time.perf_counter() - start + typical > args.seconds
        if full and (not tracer or len(walls[True]) >= 2):
            break

    result = {"attempted": checks.attempted, "failures": checks.failures,
              "wall_s": walls[False], "traced_wall_s": walls[True],
              "kernel_entries_per_s": work.entry_rate(statistics.median(walls[False])),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
              "env": environment(args.seed, args.scale)}
    if tracer:
        spans = tracer.spans
        setup_root = [0]  # the set-up span is the first one opened
        per_pass = [layer_metrics(tracing.layer_totals(spans, setup_root + [r]),
                                  sum(spans[i][2] - spans[i][1] for i in setup_root + [r]))
                    for r in pass_roots]
        counts = [deterministic(m) for m in per_pass]
        for k, other in enumerate(counts[1:], start=2):
            checks.check(f"traced pass {k} repeats the counts of traced pass 1",
                         other == counts[0], other)
        layers = {name: statistics.median(m[name] for m in per_pass)
                  if _timed(name) else per_pass[0][name]
                  for name in per_pass[0]}
        layers["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        table = tracing.layer_totals(spans, setup_root + pass_roots[:1])
        result.update(attempted=checks.attempted, failures=checks.failures,
                      layers=layers, counts=counts[0], table=table)
        if args.spans:
            args.spans.parent.mkdir(parents=True, exist_ok=True)
            args.spans.write_text(json.dumps(tracer.dump()))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
