"""Command-line interface: one executable exposing every operation.

Exit codes: 0 success, 2 configuration error (including bad flags),
1 failed verdict or numerical failure. All CSV output is deterministic
for a fixed command line (17 significant digits, LF endings).
"""
from __future__ import annotations

import argparse
import math
import sys as _sys

import numpy as np

from .acceptance import (AcceptanceContext, AcceptanceScale, lift_identity_gaps,
                         run_all)
from .action import check_endpoints, minimal_action
from .errors import ConfigurationError, WeakKamError
from .experiments import (check_dwell_window, detect_aubry_orbits, dwell_statistics,
                          run_convergence)
from .flow import refine_periodic_orbit
from .reduction import SUBSOLUTION_TAGS, tilt_system
from .systems import LagrangianSystem, PhasePoint
from .tropical import Grid, assemble_kernel, karp_eigenvalue
from .weak_kam import (AUBRY_TOLERANCE, aubry_set, check_barrier_horizon,
                       check_tolerance, connection_graph, peierls_barrier)
from .reporting import fmt, write_csv


def _add_system_flags(parser):
    parser.add_argument("--system", choices=("free", "mechanical-cos"),
                        default="mechanical-cos")
    parser.add_argument("--amp", type=float, default=1.0)
    parser.add_argument("--freq", type=int, default=1)
    parser.add_argument("--eps", type=float, default=0.0)


_SHARED_FLAGS = {
    "grid": dict(type=int, default=256),
    "seed": dict(type=int, default=0),
    "out": dict(default=None),
}
# horizon of the barrier that locates the orbits for ``dwell``
DWELL_BARRIER_HORIZON = 40


def _add_shared_flags(parser, *names):
    """Add the named shared flags; a subcommand takes only those its
    handler reads."""
    for name in names:
        parser.add_argument(f"--{name}", **_SHARED_FLAGS[name])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="weakkam",
        description="weak KAM numerics: action kernels, critical values, "
                    "Peierls barriers, Aubry sets, Floquet data, convergence "
                    "experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("action", help="fixed-endpoint minimal action")
    _add_system_flags(p)
    _add_shared_flags(p, "out")
    p.add_argument("--from", dest="x_from", type=float, required=True)
    p.add_argument("--at", dest="t_from", type=float, default=0.0)
    p.add_argument("--to", dest="x_to", type=float, required=True)
    p.add_argument("--bt", dest="t_to", type=float, required=True)

    p = sub.add_parser("kernel", help="assemble and export the action kernel")
    _add_system_flags(p)
    _add_shared_flags(p, "grid", "out")
    p.add_argument("--start", type=float, default=0.0)
    p.add_argument("--delta", type=float, default=1.0)

    p = sub.add_parser("critical-value", help="tropical eigenvalue of the unit kernel")
    _add_system_flags(p)
    _add_shared_flags(p, "grid")

    p = sub.add_parser("barrier", help="Peierls barrier matrix")
    _add_system_flags(p)
    _add_shared_flags(p, "grid", "out")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--tfrac", type=float, default=0.0)

    p = sub.add_parser("aubry", help="diagonal-barrier Aubry detection")
    _add_system_flags(p)
    _add_shared_flags(p, "grid", "out")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--tol", type=float, default=None)

    p = sub.add_parser("graph", help="connection graph between Aubry classes")
    _add_system_flags(p)
    _add_shared_flags(p, "grid", "out")
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--target", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-3)
    p.add_argument("--aubry-tol", type=float, default=2e-2)

    p = sub.add_parser("orbit", help="refine a periodic orbit by shooting")
    _add_system_flags(p)
    _add_shared_flags(p, "out")
    p.add_argument("--guess-x", type=float, required=True)
    p.add_argument("--guess-v", type=float, required=True)
    p.add_argument("--period", type=int, default=1)

    p = sub.add_parser("reduce", help="check the period-lift identities")
    _add_system_flags(p)
    _add_shared_flags(p, "seed")
    p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("tilt", help="build a tilted Lagrangian and validate it")
    _add_system_flags(p)
    p.add_argument("--f", dest="f_tag", required=True, choices=SUBSOLUTION_TAGS)
    p.add_argument("--c", dest="c_value", type=float, required=True)

    p = sub.add_parser("convergence", help="semigroup convergence experiment")
    _add_system_flags(p)
    _add_shared_flags(p, "grid", "seed", "out")
    p.add_argument("--u0", choices=("zero", "spike", "random-seeded"),
                   default="spike")
    p.add_argument("--tau", type=float, default=0.0)
    p.add_argument("--kmax", type=int, default=60)
    p.add_argument("--horizon", type=int, default=40)

    p = sub.add_parser("dwell", help="dwell-time diagnostics along a minimizer")
    _add_system_flags(p)
    _add_shared_flags(p, "grid", "out")
    p.add_argument("--from", dest="x_from", type=float, required=True)
    p.add_argument("--to", dest="x_to", type=float, required=True)
    p.add_argument("--horizon", type=float, default=8.0)
    p.add_argument("--delta", type=float, default=0.05)

    p = sub.add_parser("paper-suite", help="run the full acceptance matrix")
    p.add_argument("--out-dir", required=True)
    _add_shared_flags(p, "grid", "seed")
    p.add_argument("--confirm-grid", type=int, default=512)
    p.add_argument("--small-grid", type=int, default=64)
    p.add_argument("--horizon", type=int, default=40)
    p.add_argument("--kmax", type=int, default=60)

    return parser


def _system(args) -> LagrangianSystem:
    return LagrangianSystem(family=args.system, amp=args.amp, freq=args.freq,
                            eps=args.eps)


def _emit(path, header, rows):
    if path is None:
        from .reporting import csv_text
        _sys.stdout.write(csv_text(header, rows))
    else:
        write_csv(path, header, rows)


def _cmd_action(args) -> int:
    value, curve = minimal_action(_system(args), args.x_from, args.t_from,
                                  args.x_to, args.t_to)
    print(f"value,{fmt(value)}")
    print(f"winding,{curve.winding}")
    if args.out:
        times = curve.times()
        write_csv(args.out, ("tau", "x_lifted"),
                  list(zip(times, curve.samples)))
    return 0


def _cmd_kernel(args) -> int:
    if args.out is None:
        raise ConfigurationError("kernel export needs --out FILE")
    kernel = assemble_kernel(_system(args), Grid(args.grid), args.start, args.delta)
    from .reporting import matrix_rows
    write_csv(args.out, ("i", "j", "value"), matrix_rows(kernel.matrix))
    return 0


def _cmd_critical_value(args) -> int:
    kernel = assemble_kernel(_system(args), Grid(args.grid), 0.0, 1.0)
    print(f"c,{fmt(karp_eigenvalue(kernel))}")
    return 0


def _barrier_for(args, horizon, t_frac=0.0):
    """Barrier from the unit kernel at offset 0; warns on stderr when its
    powers found no cycle within the horizon."""
    check_barrier_horizon(horizon, t_frac)
    sys = _system(args)
    grid = Grid(args.grid)
    kernel = assemble_kernel(sys, grid, 0.0, 1.0)
    c = karp_eigenvalue(kernel)
    barrier = peierls_barrier(sys, grid, c, horizon, t_frac=t_frac, kernel=kernel)
    if not barrier.stabilized:
        print(f"warning: barrier not stabilized (defect {fmt(barrier.defect)})",
              file=_sys.stderr)
    return sys, grid, c, barrier


def _cmd_barrier(args) -> int:
    _, _, c, barrier = _barrier_for(args, args.horizon, t_frac=args.tfrac)
    from .reporting import matrix_rows
    _emit(args.out, ("i", "j", "h"), matrix_rows(barrier.values))
    print(f"c,{fmt(c)}")
    print(f"defect,{fmt(barrier.defect)}")
    print(f"stabilized,{fmt(barrier.stabilized)}")
    print(f"turnpike,{fmt(barrier.turnpike)}")
    print(f"period,{fmt(barrier.period)}")
    return 0


def _cmd_aubry(args) -> int:
    tol = AUBRY_TOLERANCE if args.tol is None else args.tol
    check_tolerance(tol, "Aubry")
    _, grid, _, barrier = _barrier_for(args, args.horizon)
    detected = aubry_set(barrier, tol)
    diag = np.diag(barrier.values)
    _emit(args.out, ("x", "h_diag"),
          [(idx / grid.n, diag[idx]) for idx in detected.indices])
    print(f"clusters,{len(detected.clusters)}")
    print("representatives," + ";".join(fmt(p) for p in detected.points))
    return 0


def _cmd_graph(args) -> int:
    target = Grid(args.grid).nearest_index(args.target)
    check_tolerance(args.aubry_tol, "Aubry")
    check_tolerance(args.tol, "graph")
    _, _, _, barrier = _barrier_for(args, args.horizon)
    detected = aubry_set(barrier, args.aubry_tol)
    graph = connection_graph(barrier, detected, target, args.tol)
    rows = [("edge", graph.vertices[j], graph.vertices[k], slack)
            for j, k, slack in graph.edges]
    rows += [("root", graph.vertices[r], "", "") for r in graph.roots]
    _emit(args.out, ("kind", "j", "k", "slack"), rows)
    print(f"cycles,{len(graph.cycles)}")
    return 0


def _cmd_orbit(args) -> int:
    orbit = refine_periodic_orbit(_system(args),
                                  PhasePoint(args.guess_x, args.guess_v, 0.0),
                                  args.period)
    header = ["x", "v", "period"]
    row = [orbit.x, orbit.v, orbit.period]
    for k, mult in enumerate(orbit.multipliers, start=1):
        header.append(f"multiplier_{k}")
        row.append(mult if abs(mult.imag) > 0 else mult.real)
    header += ["lambda", "hyperbolic"]
    row += [orbit.lam, orbit.hyperbolic]
    _emit(args.out, tuple(header), [tuple(row)])
    return 0


def _cmd_reduce(args) -> int:
    worst_action, worst_h = lift_identity_gaps(_system(args), args.n, args.seed, 50)
    print(f"action_identity_residual,{fmt(worst_action)}")
    print(f"hamiltonian_legendre_residual,{fmt(worst_h)}")
    return 0


def _cmd_tilt(args) -> int:
    tilted = tilt_system(_system(args), args.f_tag, args.c_value)
    print(f"tilt_minimum,{fmt(tilted.tilt_minimum)}")
    wx, wv, wt = tilted.tilt_witness
    print(f"witness,{fmt(wx)};{fmt(wv)};{fmt(wt)}")
    return 0


def _cmd_convergence(args) -> int:
    report = run_convergence(_system(args), Grid(args.grid), u0_tag=args.u0,
                             tau_frac=args.tau, k_max=args.kmax,
                             horizon=args.horizon, seed=args.seed)
    rows = [(k, e, math.log(e) if e > 0 else -math.inf)
            for k, e in enumerate(report.errors)]
    rows.append(("summary", "", ""))
    rows.append(("mu", fmt(report.mu), ""))
    rows.append(("K", fmt(report.prefactor), ""))
    rows.append(("r2", fmt(report.r2), ""))
    rows.append(("lambda", fmt(report.lam), ""))
    rows.append(("ratio", fmt(report.ratio), ""))
    rows.append(("kstar", fmt(report.kstar), ""))
    _emit(args.out, ("k", "error", "log_error"), rows)
    print(f"verdict,{report.verdict}")
    return 0 if report.verdict in ("pass", "trivial", "converged-no-fit") else 1


def _cmd_dwell(args) -> int:
    check_dwell_window(0.0, args.horizon, args.delta)
    check_endpoints(args.x_from, 0.0, args.x_to, args.horizon)
    sys, _, _, barrier = _barrier_for(args, DWELL_BARRIER_HORIZON)
    orbits = detect_aubry_orbits(sys, barrier)
    report = dwell_statistics(sys, orbits, args.x_from, 0.0, args.x_to,
                              args.horizon, delta=args.delta)
    _emit(args.out,
          ("horizon", "delta", "time_outside", "longest_stay", "n_hat"),
          [(report.horizon, report.delta, report.time_outside,
            report.longest_stay, report.n_hat)])
    return 0


def _cmd_paper_suite(args) -> int:
    scale = AcceptanceScale(n_main=args.grid, n_confirm=args.confirm_grid,
                            n_small=args.small_grid, horizon=args.horizon,
                            k_max=args.kmax)
    ctx = AcceptanceContext(scale=scale, seed=args.seed)
    results = run_all(ctx, out_dir=args.out_dir)
    return 0 if all(r.passed for r in results) else 1


_HANDLERS = {
    "action": _cmd_action,
    "kernel": _cmd_kernel,
    "critical-value": _cmd_critical_value,
    "barrier": _cmd_barrier,
    "aubry": _cmd_aubry,
    "graph": _cmd_graph,
    "orbit": _cmd_orbit,
    "reduce": _cmd_reduce,
    "tilt": _cmd_tilt,
    "convergence": _cmd_convergence,
    "dwell": _cmd_dwell,
    "paper-suite": _cmd_paper_suite,
}


def dispatch(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=_sys.stderr)
        return 2
    except WeakKamError as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return 1


def main(argv=None) -> None:
    raise SystemExit(dispatch(argv))


if __name__ == "__main__":
    main()
