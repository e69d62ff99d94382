import math

import pytest

from weakkam.cli import dispatch


def run_cli(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_critical_value_free(capsys):
    code, out, _ = run_cli(capsys, "critical-value", "--system", "free",
                           "--grid", "64")
    assert code == 0
    tag, value = out.strip().split(",")
    assert tag == "c" and abs(float(value)) <= 1e-9


def test_action_prints_value_and_curve(tmp_path, capsys):
    curve_file = tmp_path / "curve.csv"
    code, out, _ = run_cli(capsys, "action", "--system", "free",
                           "--from", "0", "--to", "0.4", "--bt", "1",
                           "--out", str(curve_file))
    assert code == 0
    lines = dict(line.split(",") for line in out.strip().splitlines())
    assert abs(float(lines["value"]) - 0.08) < 1e-12
    assert lines["winding"] == "0"
    text = curve_file.read_text()
    assert text.splitlines()[0] == "tau,x_lifted"
    assert text.endswith("\n") and "\r" not in text


def test_kernel_export_and_determinism(tmp_path, capsys):
    paths = [tmp_path / "k1.csv", tmp_path / "k2.csv"]
    for path in paths:
        code, _, _ = run_cli(capsys, "kernel", "--system", "mechanical-cos",
                             "--grid", "16", "--out", str(path))
        assert code == 0
    first, second = (p.read_bytes() for p in paths)
    assert first == second
    lines = first.decode().splitlines()
    assert lines[0] == "i,j,value"
    assert len(lines) == 1 + 16 * 16


def test_barrier_and_aubry(tmp_path, capsys):
    out_file = tmp_path / "h.csv"
    code, out, _ = run_cli(capsys, "barrier", "--grid", "16", "--horizon", "12",
                           "--out", str(out_file))
    assert code == 0
    assert "c," in out and "stabilized,true" in out
    lines = out.splitlines()
    assert lines[lines.index("stabilized,true") + 1:] == ["turnpike,3", "period,1"]
    code, out, err = run_cli(capsys, "aubry", "--grid", "16", "--horizon", "12",
                             "--tol", "1e-6")
    assert code == 0 and err == ""
    assert "clusters,1" in out
    assert "representatives,0" in out


@pytest.mark.parametrize("argv, clusters, representatives", [
    (("--grid", "16"), "clusters,1", "representatives,0"),
    (("--grid", "64", "--freq", "2"), "clusters,2", "representatives,0;0.5")],
    ids=["q1", "q2"])
def test_aubry_default_tolerance(capsys, argv, clusters, representatives):
    code, out, err = run_cli(capsys, "aubry", *argv)
    assert code == 0 and err == ""
    assert out.splitlines()[-2:] == [clusters, representatives]


def test_unstabilized_barrier_warns(capsys):
    code, out, err = run_cli(capsys, "barrier", "--system", "free", "--grid", "16",
                             "--horizon", "4")
    assert code == 0
    assert "stabilized,false" in out and "turnpike,\nperiod,\n" in out
    assert err.startswith("warning: barrier not stabilized (defect ")
    assert len(err.splitlines()) == 1


def test_graph_two_wells(capsys):
    code, out, _ = run_cli(capsys, "graph", "--grid", "16", "--freq", "2",
                           "--horizon", "12", "--target", "0.25")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "kind,j,k,slack"
    roots = [ln for ln in lines if ln.startswith("root,")]
    assert len(roots) == 2
    assert "cycles,0" in out


def test_orbit_row(capsys):
    code, out, _ = run_cli(capsys, "orbit", "--guess-x", "0.01",
                           "--guess-v", "0.01", "--period", "1")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "x,v,period,multiplier_1,multiplier_2,lambda,hyperbolic"
    fields = row.split(",")
    assert abs(float(fields[4]) - math.exp(-2 * math.pi)) < 1e-4
    assert fields[6] == "true"


def test_reduce_and_tilt(capsys):
    code, out, _ = run_cli(capsys, "reduce", "--n", "2")
    assert code == 0
    values = dict(line.split(",") for line in out.strip().splitlines())
    assert float(values["action_identity_residual"]) <= 1e-10
    assert float(values["hamiltonian_legendre_residual"]) <= 1e-12

    code, out, _ = run_cli(capsys, "tilt", "--f", "maupertuis", "--c", "1")
    assert code == 0
    values = dict(line.split(",", 1) for line in out.strip().splitlines())
    assert float(values["tilt_minimum"]) >= -1e-6


def test_convergence_trivial_exit(capsys):
    code, out, _ = run_cli(capsys, "convergence", "--system", "free",
                           "--grid", "16", "--u0", "zero", "--kmax", "8",
                           "--horizon", "10")
    assert code == 0
    assert "verdict,trivial" in out


def test_convergence_file_summary(tmp_path, capsys):
    out_file = tmp_path / "conv.csv"
    code, _, _ = run_cli(capsys, "convergence", "--grid", "32", "--kmax", "10",
                         "--horizon", "10", "--out", str(out_file))
    assert code == 0
    text = out_file.read_text()
    assert text.splitlines()[0] == "k,error,log_error"
    assert "summary," in text and "kstar," in text


def test_dwell_csv(capsys):
    code, out, _ = run_cli(capsys, "dwell", "--grid", "32", "--from", "0.25",
                           "--to", "0.25", "--horizon", "8", "--delta", "0.05")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "horizon,delta,time_outside,longest_stay,n_hat"
    fields = [float(v) for v in row.split(",")]
    assert fields[0] == 8.0 and fields[2] < 4.0


def test_unknown_flags_exit_2(capsys):
    with pytest.raises(SystemExit) as info:
        dispatch(["critical-value", "--nope"])
    assert info.value.code == 2
    with pytest.raises(SystemExit) as info:
        dispatch(["not-a-command"])
    assert info.value.code == 2


def test_subcommands_reject_flags_they_do_not_read(capsys):
    # the tilt sweep runs on a fixed lattice and assembles no kernel
    with pytest.raises(SystemExit) as info:
        dispatch(["tilt", "--f", "maupertuis", "--c", "1", "--grid", "16"])
    assert info.value.code == 2


def test_config_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "critical-value", "--grid", "4")
    assert code == 2 and "configuration error" in err


def test_kernel_requires_out(capsys):
    code, _, err = run_cli(capsys, "kernel", "--grid", "16")
    assert code == 2


def test_paper_suite_rerun_is_byte_identical(tmp_path, capsys):
    digests = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        dispatch(["paper-suite", "--out-dir", str(out_dir), "--grid", "16",
                  "--confirm-grid", "32", "--small-grid", "16",
                  "--horizon", "10", "--kmax", "8", "--seed", "0"])
        capsys.readouterr()
        bundle = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        digests.append(bundle)
    assert digests[0].keys() == digests[1].keys()
    assert set(digests[0]) >= {"summary.csv", "criterion_01.csv"}
    for name in digests[0]:
        assert digests[0][name] == digests[1][name], name
