"""Benchmark of the weakkam pipeline; see bench/README.md.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree that holds ``src/weakkam``. The run
itself happens in ``worker.py``, started with BLAS/OpenMP threads pinned
to 1; this parent times the worker's set-up from process start, repeats
cheap set-ups to report their median, checks that traced counts repeat
across runs, prints every metric by name and unit, and ends with one JSON
line: ``{"correct", "attempted", "failed", "metrics"}``. It exits 0 only
when every oracle check passed.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# a run must end within 180 s; the worker is killed before that
DEADLINE_S = 170.0
# set-ups timed per untraced run; weak-kam-stack assembles two grid-256
# kernels in set-up, which is long enough to be steady when timed once
SETUP_REPEATS = {"critical-value": 9, "weak-kam-stack": 1}


def worker_env() -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_worker(argv: list, deadline: float):
    """Start the worker; return (set-up seconds, RESULT payload or None).

    Set-up time runs from just before the process is started to its
    READY line, so it includes interpreter start and imports.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")] + argv,
                            cwd=ROOT, env=worker_env(), stdin=subprocess.DEVNULL,
                            stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(1.0, deadline - time.perf_counter()), proc.kill)
    timer.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if ready.strip() != "READY" or code != 0:
        raise SystemExit(f"worker failed (exit code {code})")
    payload = None
    for line in rest.splitlines():
        if line.startswith("RESULT "):
            payload = json.loads(line[len("RESULT "):])
    return setup_s, payload


def check_counts(workload: str, scale: str, seed: int, result: dict):
    """Traced counts must repeat exactly across runs of the same source on
    the same inputs. Compares with the last such run in this tree, if any;
    returns (compared, failure message or None)."""
    path = OUT / f"counts-{workload}-{scale}-seed{seed}.json"
    record = {"source_sha256": result["env"]["source_sha256"], "counts": result["counts"]}
    previous = json.loads(path.read_text()) if path.is_file() else None
    path.write_text(json.dumps(record, indent=1, sort_keys=True))
    if previous is None or previous["source_sha256"] != record["source_sha256"]:
        return False, None
    changed = sorted(k for k in record["counts"]
                     if previous["counts"].get(k) != record["counts"][k])
    return True, (f"traced counts differ from the previous run: {changed}"
                  if changed else None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="weakkam benchmark")
    parser.add_argument("--workload", choices=sorted(SETUP_REPEATS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="'small' is the reduced scale of the self-test")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "weakkam" / "__init__.py").is_file():
        print(f"no weakkam sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    OUT.mkdir(exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", args.scale]
    spans = OUT / f"spans-{args.workload}-{args.scale}-seed{args.seed}.json"
    setup_s, result = run_worker(
        common + ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        + (["--spans", str(spans)] if args.trace else []), deadline)
    if result is None:
        raise SystemExit("worker printed no result")
    failures = list(result["failures"])
    attempted = result["attempted"]

    if args.trace:
        compared, failure = check_counts(args.workload, args.scale, args.seed, result)
        attempted += compared
        if failure:
            failures.append(failure)
        metrics = result["layers"]
        print(f"{'span':52s} {'calls':>8s} {'incl_s':>10s} {'self_s':>10s}")
        for name, row in sorted(result["table"].items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:52s} {row['calls']:8d} {row['incl_s']:10.4f} "
                  f"{row['self_s']:10.4f}")
        print(f"spans written to {spans.relative_to(ROOT)}")
    else:
        setups = [setup_s]
        for _ in range(SETUP_REPEATS[args.workload] - 1):
            setups.append(run_worker(common + ["--seconds", "0", "--trace", "0",
                                               "--setup-only"], deadline)[0])
        metrics = {"setup_s": statistics.median(setups),
                   "wall_s": statistics.median(result["wall_s"]),
                   "kernel_entries_per_s": result["kernel_entries_per_s"],
                   "peak_rss_mb": result["peak_rss_mb"]}
        print(f"setups_s {setups}")
        print(f"pass walls_s {result['wall_s']}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if set(units) != set(metrics):
        raise SystemExit("metrics differ from BENCHMARK.json: "
                         f"{sorted(set(units) ^ set(metrics))}")
    for name, value in metrics.items():
        print(f"metric {name} = {value!r} {units[name]}")
    failed = len(failures)
    for failure in failures:
        print(f"FAILED CHECK {failure}")
    print(f"checks attempted={attempted} failed={failed} "
          f"error_rate={failed / attempted!r}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {name: {"value": value, "unit": units[name]}
                                  for name, value in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    raise SystemExit(main())
