"""The benchmark's workloads call the toolkit through its public signatures;
one small-scale pass of each must run and pass every oracle check, so a
signature change that breaks the benchmark fails here."""
import importlib.util
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.fixture(scope="module")
def worker():
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(BENCH))  # the worker imports its sibling tracer
        spec = importlib.util.spec_from_file_location("bench_worker",
                                                      BENCH / "worker.py")
        module = importlib.util.module_from_spec(spec)
        mp.setitem(sys.modules, spec.name, module)  # dataclasses look it up
        spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ["critical-value", "weak-kam-stack"])
def test_small_workload_passes_its_oracles(worker, name):
    work = worker.WORKLOADS[name](worker.SCALES["small"], 0)
    checks = worker.Checks()
    work.check(work.run(), checks)
    assert checks.attempted > 0
    assert checks.failures == []


def test_full_scale_dwell_pass_passes_its_oracles(worker):
    # the full scale's T = 32 horizon is the one place the benchmark builds
    # the 1023-sample preconditioner; the small scale stops at 255
    work = worker.OrbitsAndDwell(worker.SCALES["full"], 0)
    checks = worker.Checks()
    work.check(work.run(), checks)
    assert checks.attempted > 0
    assert checks.failures == []
