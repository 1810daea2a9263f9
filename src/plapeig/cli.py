"""Command-line front end.

Subcommands: `run` drives the full adaptive eigenvalue loop, `mesh`
generates and saves a domain mesh, `solve-plap` solves the p-Laplacian
source problem with unit load, `estimate` performs one solve-and-estimate
pass and prints the indicator summary.  Exit codes: 0 success, 1 usage
error (out of memory included), 2 solver failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from dataclasses import fields

import numpy as np

from . import driver, estimator, fem, io, plap
from .driver import AfemConfig
from .mesh import edge_table, refine_uniform


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; route everything through
    # UsageError so the CLI contract (usage errors exit 1) holds.
    def error(self, message):
        raise UsageError(message)


def _add_domain_flags(p: argparse.ArgumentParser):
    p.add_argument("--domain", required=True,
                   help="square | lshape | disk | file:<path>")
    p.add_argument("--resolution", type=int,
                   help="cells per unit length (square/lshape) or bisection "
                        "rounds (disk); ignored for file meshes")


def _add_solver_flags(p: argparse.ArgumentParser, with_eigen: bool):
    p.add_argument("--p", type=float,
                   help="exponent of the p-Laplacian (> 1)")
    p.add_argument("--eps-n", type=float,
                   help="tolerance of the splitting solver on the relative "
                        "change of u in the lumped-mass L2 norm")
    p.add_argument("--max-dc", type=int,
                   help="iteration cap of the splitting solver")
    p.add_argument("--seed", type=int,
                   help="seed of the random initial fields")
    if with_eigen:
        p.add_argument("--eps-m", type=float,
                       help="relative eigenvalue-change tolerance of the "
                            "inverse iteration; run: of the final level, "
                            "earlier levels stop at the balanced one")
        p.add_argument("--max-iiss", type=int,
                       help="cap on inverse-iteration sweeps")


def build_parser() -> _Parser:
    """The setting flags have no defaults: a flag that is not given is
    absent from the namespace, and AfemConfig supplies its value."""
    parser = _Parser(prog="plapeig",
                     description="First eigenpair of the Dirichlet "
                                 "p-Laplacian by adaptive P1 elements")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, argument_default=argparse.SUPPRESS,
                              **kwargs)

    run = add("run", help="adaptive eigenvalue loop")
    _add_domain_flags(run)
    _add_solver_flags(run, with_eigen=True)
    run.add_argument("--theta", type=float,
                     help="bulk marking fraction in (0, 1]")
    run.add_argument("--eps-k", type=float,
                     help="relative eigenvalue-change stopping tolerance of "
                          "the adaptive loop")
    run.add_argument("--max-loops", type=int,
                     help="cap on adaptive loops")
    run.add_argument("--out", required=True, dest="out_dir",
                     help="output directory (convergence.csv, mesh_<k>.vtk, "
                          "eigenfunction.vtk)")

    meshcmd = add("mesh", help="generate and save a mesh")
    _add_domain_flags(meshcmd)
    meshcmd.add_argument("--uniform-refine", type=int, default=0,
                         help="extra rounds of all-element refinement")
    meshcmd.add_argument("--format", choices=("ascii", "vtk"), default="ascii")
    meshcmd.add_argument("--out", required=True, help="output file")

    solve = add("solve-plap", help="solve -div(|grad u|^{p-2} grad u) = 1")
    _add_domain_flags(solve)
    _add_solver_flags(solve, with_eigen=False)
    solve.add_argument("--out", default=None,
                       help="optional VTK output of the solution")

    est = add("estimate", help="one solve-and-estimate pass on a fixed mesh")
    _add_domain_flags(est)
    _add_solver_flags(est, with_eigen=True)
    est.add_argument("--theta", type=float,
                     help="bulk fraction used to report the marked-set size")
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse, and check the settings by building args.config; raises
    UsageError naming the offending flag."""
    args = build_parser().parse_args(argv)
    given = {f.name: getattr(args, f.name) for f in fields(AfemConfig)
             if hasattr(args, f.name)}
    try:
        args.config = AfemConfig(**given)
    except ValueError as err:
        # AfemConfig's messages start with the field name
        name, _, rest = str(err).partition(" ")
        raise UsageError(f"--{name.replace('_', '-')} {rest}") from None
    return args


def _cmd_run(args) -> int:
    log = driver.run_afem(args.config)
    for r in log.rows:
        print(f"k={r.k} vertices={r.vertices} mu={r.mu:.8g} eta={r.eta:.4g} "
              f"marked={r.marked}")
    print(f"stop: {log.stop_reason} -> {args.out_dir}/convergence.csv")
    if log.stop_reason.startswith("error"):
        return 2
    return 0


def _cmd_mesh(args) -> int:
    mesh = refine_uniform(driver.initial_mesh(args.config),
                          args.uniform_refine)
    if args.format == "ascii":
        io.save_mesh(mesh, args.out)
    else:
        io.write_vtk(mesh, None, args.out)
    print(f"{mesh.num_vertices} vertices, {mesh.num_triangles} triangles "
          f"-> {args.out}")
    return 0


def _cmd_solve_plap(args) -> int:
    cfg = args.config
    mesh = driver.initial_mesh(cfg)
    u, report = plap.dc_solve(mesh, 1.0, cfg.p, eps_n=cfg.eps_n,
                              max_iter=cfg.max_dc, seed=cfg.seed)
    if not report.converged:
        raise report.stalled(f"torsion solve did not converge within "
                             f"{cfg.max_dc} sweeps")
    print(f"sweeps={report.iterations} max(u)={np.max(u.coeffs):.8g} "
          f"consistency={plap.consistency(u, report.w, cfg.p):.3e}")
    if args.out:
        io.write_vtk(mesh, u, args.out)
        print(f"solution -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    cfg = args.config
    mesh = driver.initial_mesh(cfg)
    res = driver.eigensolve(cfg, mesh, cfg.eps_m)
    edges = edge_table(mesh)
    ind = estimator.estimate_all(mesh, edges, res.mu_rayleigh, res.u_lp,
                                 cfg.p)
    marked = estimator.dorfler_mark(ind, cfg.theta)
    print(f"vertices={mesh.num_vertices} mu={res.mu_rayleigh:.8g} "
          f"lambda={res.lambda_iiss:.8g} eta={ind.total_eta:.6g} "
          f"argmax={ind.argmax_element} marked={len(marked)}")
    return 0


_COMMANDS = {
    "run": _cmd_run,
    "mesh": _cmd_mesh,
    "solve-plap": _cmd_solve_plap,
    "estimate": _cmd_estimate,
}


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(level=logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        args = parse_cli(list(sys.argv[1:] if argv is None else argv))
    except UsageError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    try:
        return _COMMANDS[args.subcommand](args)
    except (ValueError, OSError, MemoryError) as err:
        oom = "out of memory: " * isinstance(err, MemoryError)
        print(f"usage error: {oom}{err}", file=sys.stderr)
        return 1
    except fem.SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
