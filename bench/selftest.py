"""Fast self-test of the benchmark at reduced scale (grid 32, short
horizons); about half a minute.

    python3 bench/selftest.py

Runs every workload once untraced and twice traced, and fails unless each
run passes all its oracle checks, emits exactly the metrics BENCHMARK.json
names, ran the expected number of checks, saw each layer it exercises,
and repeated its traced counts. It also runs the benchmark in a directory
without the weakkam sources, where it must fail without a result.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SEED = 3
N = 32  # grid of the small scale

# oracle checks per timed pass at the small scale
CHECKS_PER_PASS = {"critical-value": 3 + 3 * 4, "weak-kam-stack": 12 + 23}
# per-layer values each traced run must show (set-up plus one traced pass)
EXPECTED = {
    "critical-value": {
        "tropical.assemble_kernel.calls": 3,
        "tropical.assemble_kernel.entries": 3 * N * N,
        "action.minimize_straight_batch.zero_winding.rows": 3 * N * N,
        "action.exact_row_actions.rows": 3 * N * N,
        "tropical.karp_eigenvalue.calls": 3,
        "flow.refine_periodic_orbit.calls": 0,
    },
    "weak-kam-stack": {
        "tropical.assemble_kernel.calls": 2,
        "weak_kam.peierls_barrier.calls": 6,
        "weak_kam.peierls_barrier.powers": 6 * 8,
        "weak_kam.peierls_barrier.unstabilized": 0,
        "tropical.minplus_matmul.calls": 6 * 7,
        "experiments.run_convergence.calls": 4,
        "tropical.karp_eigenvalue.calls": 6,
        "flow.refine_periodic_orbit.calls": 7,
        "action.minimal_action.calls": 3,
    },
}
NONZERO = {
    "critical-value": ["systems.lagrangian_and_grads.self_pct", "systems.lagrangian.points",
                       "action.minimize_straight_batch.other_windings.rows",
                       "action.minimize_straight_batch.other_windings.rows_pruned",
                       "action.minimize_straight_batch.zero_winding.iterations"],
    "weak-kam-stack": ["tropical.minplus_matmul.self_pct", "tropical.minplus_apply.calls",
                       "weak_kam.aubry_set.self_pct",
                       "weak_kam.connection_graph.self_pct",
                       "experiments.run_convergence.kstar_max",
                       "flow.monodromy.self_pct", "flow.flow_trajectory.self_pct",
                       "experiments.dwell_statistics.self_pct",
                       "action.minimal_action.segments",
                       "action.minimize_straight_batch.rows"],
}


def run(workload: str, trace: int, cwd: Path = ROOT):
    proc = subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", str(trace),
         "--scale", "small"], cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    return proc, result


def main() -> int:
    problems = []
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    for path in (ROOT / ".bench_out").glob(f"counts-*-small-seed{SEED}.json"):
        path.unlink()

    for workload in CHECKS_PER_PASS:
        for trace, repeat in ((0, 1), (1, 1), (1, 2)):
            where = f"{workload} trace={trace} run {repeat}"
            proc, result = run(workload, trace)
            if proc.returncode != 0 or result is None:
                problems.append(f"{where}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
                continue
            metrics = {k: v["value"] for k, v in result["metrics"].items()}
            if set(metrics) != declared[trace]:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(metrics) ^ declared[trace])}")
            # --seconds 0 makes one untraced pass, or one untraced and two
            # traced ones that compare their counts; the second traced run
            # also compares its counts with the first run's
            passes = 1 + 2 * trace
            expected = passes * CHECKS_PER_PASS[workload] + trace + (repeat == 2)
            if not result["correct"] or result["failed"] or result["attempted"] != expected:
                problems.append(f"{where}: correct={result['correct']} attempted="
                                f"{result['attempted']} (expected {expected}) "
                                f"failed={result['failed']}\n{proc.stdout[-3000:]}")
            if trace:
                for name, value in EXPECTED[workload].items():
                    if metrics.get(name) != value:
                        problems.append(f"{where}: {name} = {metrics.get(name)}, "
                                        f"expected {value}")
                for name in NONZERO[workload]:
                    if not metrics.get(name):
                        problems.append(f"{where}: {name} is zero")
            elif any(not value > 0 for value in metrics.values()):
                problems.append(f"{where}: an end-to-end metric is not positive: {metrics}")

    with tempfile.TemporaryDirectory(dir=ROOT / ".bench_out") as tmp:
        bare = Path(tmp)
        shutil.copytree(BENCH, bare / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc, result = run("critical-value", 0, cwd=bare)
        if proc.returncode == 0 or result is not None:
            problems.append("the benchmark must fail without the weakkam sources")

    for problem in problems:
        print("PROBLEM", problem)
    print("selftest", "FAILED" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
