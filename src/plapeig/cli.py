"""Command-line front end.

Subcommands: `run` drives the full adaptive eigenvalue loop, `mesh`
generates and saves a domain mesh, `solve-plap` solves the p-Laplacian
source problem with unit load, `estimate` performs one solve-and-estimate
pass and prints the indicator summary.  Exit codes: 0 success, 1 usage
error, 2 solver failure.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys

import numpy as np

from . import driver, eigen, estimator, fem, io
from .driver import AfemConfig
from .mesh import edge_table
from .plap import DEFAULT_SEED


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
    p.add_argument("--resolution", type=int, default=13,
                   help="cells per unit length (square/lshape) or bisection "
                        "rounds (disk); ignored for file meshes")


def _add_solver_flags(p: argparse.ArgumentParser, with_eigen: bool):
    p.add_argument("--p", type=float, default=2.0, dest="p_exp",
                   help="exponent of the p-Laplacian (> 1)")
    p.add_argument("--eps-n", type=float, default=1e-5,
                   help="relative L2 tolerance of the splitting solver")
    p.add_argument("--max-dc", type=int, default=500,
                   help="iteration cap of the splitting solver")
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help="seed of the random initial fields")
    if with_eigen:
        p.add_argument("--eps-m", type=float, default=1e-5,
                       help="relative eigenvalue-change tolerance")
        p.add_argument("--max-iiss", type=int, default=200,
                       help="cap on inverse-iteration sweeps")


def build_parser() -> _Parser:
    parser = _Parser(prog="plapeig",
                     description="First eigenpair of the Dirichlet "
                                 "p-Laplacian by adaptive P1 elements")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    run = sub.add_parser("run", help="adaptive eigenvalue loop")
    _add_domain_flags(run)
    _add_solver_flags(run, with_eigen=True)
    run.add_argument("--theta", type=float, default=0.6,
                     help="bulk marking fraction in (0, 1]")
    run.add_argument("--eps-k", type=float, default=1e-4,
                     help="relative eigenvalue-change stopping tolerance of "
                          "the adaptive loop")
    run.add_argument("--max-loops", type=int, default=30,
                     help="cap on adaptive loops")
    run.add_argument("--out", required=True,
                     help="output directory (convergence.csv, mesh_<k>.vtk, "
                          "eigenfunction.vtk)")

    meshcmd = sub.add_parser("mesh", help="generate and save a mesh")
    _add_domain_flags(meshcmd)
    meshcmd.add_argument("--uniform-refine", type=int, default=0,
                         help="extra rounds of all-element refinement")
    meshcmd.add_argument("--format", choices=("ascii", "vtk"), default="ascii")
    meshcmd.add_argument("--out", required=True, help="output file")

    solve = sub.add_parser("solve-plap",
                           help="solve -div(|grad u|^{p-2} grad u) = 1")
    _add_domain_flags(solve)
    _add_solver_flags(solve, with_eigen=False)
    solve.add_argument("--out", help="optional VTK output of the solution")

    est = sub.add_parser("estimate",
                         help="one solve-and-estimate pass on a fixed mesh")
    _add_domain_flags(est)
    _add_solver_flags(est, with_eigen=True)
    est.add_argument("--theta", type=float, default=0.6,
                     help="bulk fraction used to report the marked-set size")
    return parser


def parse_cli(argv: list[str]) -> argparse.Namespace:
    """Parse and validate; raises UsageError naming the offending flag."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "p_exp") and not 1 < args.p_exp < math.inf:
        raise UsageError("--p must be finite and exceed 1")
    if hasattr(args, "theta") and not 0.0 < args.theta <= 1.0:
        raise UsageError("--theta must lie in (0, 1]")
    for flag in ("eps_n", "eps_m", "eps_k"):
        if not 0 < getattr(args, flag, 1.0) < math.inf:
            raise UsageError(f"--{flag.replace('_', '-')} must be finite "
                             f"and positive")
    for flag in ("max_dc", "max_iiss", "max_loops"):
        if getattr(args, flag, 1) < 1:
            raise UsageError(f"--{flag.replace('_', '-')} must be at least 1")
    return args


def _mesh_from_args(args) -> "driver.Mesh":
    cfg = AfemConfig(domain=args.domain, resolution=args.resolution,
                     p=getattr(args, "p_exp", 2.0))
    return driver.initial_mesh(cfg)


def _cmd_run(args) -> int:
    config = AfemConfig(
        domain=args.domain, resolution=args.resolution, p=args.p_exp,
        theta=args.theta, eps_k=args.eps_k, eps_m=args.eps_m,
        eps_n=args.eps_n, max_loops=args.max_loops, max_iiss=args.max_iiss,
        max_dc=args.max_dc, seed=args.seed, out_dir=args.out)
    log = driver.run_afem(config)
    for r in log.rows:
        print(f"k={r.k} vertices={r.vertices} mu={r.mu:.8g} eta={r.eta:.4g} "
              f"marked={r.marked}")
    print(f"stop: {log.stop_reason} -> {args.out}/convergence.csv")
    if log.stop_reason.startswith("error"):
        return 2
    return 0


def _cmd_mesh(args) -> int:
    from .mesh import refine_uniform
    mesh = _mesh_from_args(args)
    if args.uniform_refine:
        mesh = refine_uniform(mesh, args.uniform_refine)
    if args.format == "ascii":
        io.save_mesh(mesh, args.out)
    else:
        io.write_vtk(mesh, None, args.out)
    print(f"{mesh.num_vertices} vertices, {mesh.num_triangles} triangles "
          f"-> {args.out}")
    return 0


def _cmd_solve_plap(args) -> int:
    mesh = _mesh_from_args(args)
    u, report = eigen.torsion(mesh, args.p_exp, eps_n=args.eps_n,
                              seed=args.seed, max_dc=args.max_dc)
    print(f"sweeps={report.iterations} max(u)={np.max(u.coeffs):.8g} "
          f"consistency={report.consistency:.3e}")
    if args.out:
        io.write_vtk(mesh, u, args.out)
        print(f"solution -> {args.out}")
    return 0


def _cmd_estimate(args) -> int:
    mesh = _mesh_from_args(args)
    res = eigen.iiss(mesh, args.p_exp, eps_m=args.eps_m, max_m=args.max_iiss,
                     eps_n=args.eps_n, seed=args.seed, max_dc=args.max_dc)
    if not res.converged:
        raise fem.SolverError(f"inverse iteration did not converge within "
                              f"{args.max_iiss} sweeps")
    edges = edge_table(mesh)
    ind = estimator.estimate_all(mesh, edges, res.mu_rayleigh, res.u_lp,
                                 args.p_exp)
    marked = estimator.dorfler_mark(ind, args.theta)
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
    except (ValueError, OSError) as err:
        print(f"usage error: {err}", file=sys.stderr)
        return 1
    except fem.SolverError as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entry()
