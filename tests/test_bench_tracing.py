"""The benchmark's tracer patches toolkit functions by module attribute name;
a rename in the package must fail here, not only in a traced bench run."""
import importlib.util
from pathlib import Path

import weakkam.tropical as tropical
from weakkam import Grid, LagrangianSystem

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_install_patches_and_uninstall_restores():
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        patches = list(tracer._patches)
        assert patches
        for owner, attr, original in patches:
            assert getattr(owner, attr) is not original
    finally:
        tracer.uninstall()
    for owner, attr, original in patches:
        assert getattr(owner, attr) is original, f"{owner.__name__}.{attr}"


def test_traced_assembly_records_its_counts():
    # the counts are computed from the wrapped call's arguments and result,
    # so a signature the tracer no longer matches fails here
    tracer = _load_tracing().Tracer()
    tracer.install()
    try:
        tropical.assemble_kernel(LagrangianSystem(), Grid(8), 0, 1)
    finally:
        tracer.uninstall()
    [counts] = [span["counts"] for span in tracer.dump()
                if span["name"] == "tropical.assemble_kernel"]
    assert counts == {"entries": 64, "candidate_rows": 128}
