import argparse
import math

import pytest

import weakkam.cli as cli
import weakkam.experiments as experiments
from weakkam.cli import build_parser, dispatch


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
    for argv in (
            # the tilt sweep runs on a fixed lattice and assembles no kernel
            ["tilt", "--f", "maupertuis", "--c", "1", "--grid", "16"],
            # a constant subsolution tilts like the zero one: no kappa, no tag
            ["tilt", "--f", "zero", "--c", "1", "--kappa", "2"],
            ["tilt", "--f", "constant", "--c", "1"],
            # the action bound, not a flag, decides which windings are solved
            ["kernel", "--windings", "1", "--grid", "16"],
            # the midpoint resolution is fixed
            ["kernel", "--segments", "64", "--grid", "16"]):
        with pytest.raises(SystemExit) as info:
            dispatch(argv)
        assert info.value.code == 2, argv


def test_no_subcommand_takes_a_segment_count():
    [commands] = [action.choices for action in build_parser()._actions
                  if isinstance(action.choices, dict)]
    assert len(commands) == 12
    for name, parser in commands.items():
        assert "--segments" not in parser._option_string_actions, name


def test_config_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "critical-value", "--grid", "4")
    assert code == 2 and "configuration error" in err


@pytest.mark.parametrize("c", ["nan", "inf"])
def test_tilt_rejects_a_non_finite_critical_value(capsys, c):
    code, out, err = run_cli(capsys, "tilt", "--f", "zero", "--c", c)
    assert code == 2 and "configuration error" in err and out == ""


def test_kernel_rejects_a_non_finite_amplitude(tmp_path, capsys):
    out_file = tmp_path / "k.csv"
    code, _, err = run_cli(capsys, "kernel", "--amp", "nan", "--grid", "8",
                           "--out", str(out_file))
    assert code == 2 and "configuration error" in err
    assert not out_file.exists()


# a valid command line on grid 8 for every subcommand with a float flag
_CHEAP_ARGV = {
    "action": ["--from", "0.1", "--to", "0.2", "--bt", "1"],
    "kernel": ["--grid", "8", "--out", "{out}"],
    "critical-value": ["--grid", "8"],
    "barrier": ["--grid", "8", "--horizon", "10"],
    "aubry": ["--grid", "8", "--horizon", "10"],
    "graph": ["--grid", "8", "--horizon", "10", "--target", "0.25"],
    "orbit": ["--guess-x", "0.01", "--guess-v", "0.01"],
    "reduce": ["--n", "2"],
    "tilt": ["--f", "maupertuis", "--c", "1"],
    "convergence": ["--grid", "8", "--kmax", "8", "--horizon", "10"],
    "dwell": ["--grid", "8", "--from", "0.25", "--to", "0.25"],
}


def _float_flags():
    """(subcommand, flag) for every float-valued flag of the parser."""
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return [(name, action.option_strings[0])
            for name, parser in sub.choices.items()
            for action in parser._actions if action.type is float]


@pytest.mark.parametrize("command, flag", _float_flags())
def test_non_finite_float_flags_are_configuration_errors(tmp_path, capsys, command, flag):
    base = [arg.format(out=tmp_path / "k.csv") for arg in _CHEAP_ARGV[command]]
    for value in ("nan", "inf"):
        code, out, err = run_cli(capsys, command, *base, flag, value)
        assert code == 2 and err.startswith("configuration error:"), (flag, value, err)
        assert out == "", (flag, value)
    assert not (tmp_path / "k.csv").exists()


@pytest.mark.parametrize("argv", [
    # s + delta rounds to s
    ["kernel", "--grid", "8", "--delta", "0.5", "--start", "1e300", "--out", "k.csv"],
    ["aubry", "--grid", "8", "--horizon", "10", "--tol", "-1"],
    ["graph", "--grid", "8", "--horizon", "10", "--target", "0", "--aubry-tol", "-1"],
    ["graph", "--grid", "8", "--horizon", "10", "--target", "0", "--tol", "-1"],
    ["dwell", "--grid", "8", "--from", "0.25", "--to", "0.25", "--delta", "0"]],
    ids=["kernel-window", "aubry-tol", "graph-aubry-tol", "graph-tol", "dwell-delta"])
def test_out_of_range_values_are_configuration_errors(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("configuration error:") and out == ""


@pytest.mark.parametrize("argv", [
    ["convergence", "--horizon", "1"],
    ["barrier", "--horizon", "1"],
    ["aubry", "--horizon", "1"],
    ["dwell", "--from", "0.25", "--to", "0.25", "--horizon", "2"],
    ["dwell", "--from", "0.25", "--to", "0.25", "--delta", "nan"],
    ["dwell", "--from", "nan", "--to", "0.25"],
    ["dwell", "--from", "0.25", "--to", "nan"],
    ["graph", "--target", "nan"],
    ["graph", "--target", "0", "--tol", "nan"],
    ["graph", "--target", "0", "--aubry-tol", "nan"],
    ["aubry", "--tol", "nan"],
    ["barrier", "--tfrac", "nan"]],
    ids=["convergence", "barrier", "aubry", "dwell-horizon", "dwell-delta",
         "dwell-from", "dwell-to", "graph-target", "graph-tol", "graph-aubry-tol",
         "aubry-tol", "barrier-tfrac"])
def test_bad_input_is_rejected_before_assembly(monkeypatch, capsys, argv):
    def no_assembly(*args, **kwargs):
        raise AssertionError("assembled a kernel for bad input")

    monkeypatch.setattr(cli, "assemble_kernel", no_assembly)
    monkeypatch.setattr(experiments, "assemble_kernel", no_assembly)
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("configuration error:")


def test_barrier_end_offset_one_is_offset_zero(tmp_path, capsys):
    runs = []
    for tfrac in ("0", "1"):
        path = tmp_path / f"h{tfrac}.csv"
        code, out, _ = run_cli(capsys, "barrier", "--grid", "8", "--horizon", "10",
                               "--tfrac", tfrac, "--out", str(path))
        assert code == 0
        runs.append((out, path.read_bytes()))
    assert runs[0] == runs[1]


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
