"""Adaptive loop: solve, estimate, mark, refine, with logging and stopping.

Each loop solves the eigenvalue problem on the current mesh, computes the
residual indicators, checks the eigenvalue-change stopping rule (so the
final logged row always carries a matching estimator value), then marks a
bulk set and refines.  On polygonal domains the trial spaces are nested and
the eigenvalue column decreases monotonically; disk meshes snap new boundary
vertices to the circle, which trades nestedness for geometric fidelity.

The inverse iteration of a level is balanced against the discretisation
error (Carstensen & Gedicke, SIAM J. Numer. Anal. 50, 2012): a level k > 0
that is not the last stops once its relative eigenvalue change is below
max(eps_m, BALANCE * eta_{k-1}^q / mu_{k-1}), q = p / (p - 1), from the
previous row; the next refinement discards the accuracy beyond that.
Level 0 and a level that stops by max_loops run at eps_m.  A level that
stops by eps_k is known only after its loose solve: the iteration then
continues from its iterate, eigenvalue and fields to eps_m, on the same LU
factor, and the row reports the finished eigenpair.  So eps_m is the
tolerance of the final level, and lambda_iiss on earlier rows is a loose
estimate; mu is the Rayleigh quotient of the returned iterate on every row.
"""

from __future__ import annotations

import logging
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from . import eigen, estimator, fem, io
from .fem import P1Function
from .io import LogRow
from .mesh import Mesh, edge_table, generate_disk, generate_lshape, \
    generate_unit_square, prolong_vertex_values, refine
from .plap import DCWorkspace, DEFAULT_SEED

log = logging.getLogger(__name__)

_DOMAINS = ("square", "lshape", "disk")

#: Share of the previous level's eta^q / mu that a level which is not the
#: last may leave as the relative eigenvalue change of its inverse
#: iteration (see the module docstring).  0 runs every level at eps_m.
BALANCE = 0.1


@dataclass
class AfemConfig:
    """Parameters of an adaptive run.

    domain is one of square | lshape | disk | file:<path>; resolution is the
    cells-per-unit-length of the structured generators (bisection rounds for
    the disk) and is ignored for file meshes.  seed draws the random
    auxiliary fields of the level-0 torsion start; every later level starts
    from the previous level's eigenfunction, eigenvalue and splitting state
    w.  eps_m is the inverse iteration's tolerance on the final level;
    earlier levels of run_afem stop at the balanced tolerance of the module
    docstring, which is never tighter.
    """

    domain: str
    resolution: int = 13
    p: float = 2.0
    theta: float = 0.6
    eps_k: float = 1e-4
    eps_m: float = 1e-5
    eps_n: float = 1e-5
    max_loops: int = 30
    max_iiss: int = 200
    max_dc: int = 500
    seed: int = DEFAULT_SEED
    out_dir: str | None = None

    def __post_init__(self):
        if not (self.domain in _DOMAINS or self.domain.startswith("file:")):
            raise ValueError(f"domain must be one of {_DOMAINS} or "
                             f"'file:<path>', got {self.domain!r}")
        if not 1 < self.p < math.inf:
            raise ValueError("p must be finite and exceed 1")
        if not 0.0 < self.theta <= 1.0:
            raise ValueError("theta must lie in (0, 1]")
        for name in ("eps_k", "eps_m", "eps_n"):
            if not 0 < getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be finite and positive")
        if self.resolution < 0 or (self.domain in ("square", "lshape")
                                   and self.resolution < 1):
            raise ValueError("resolution must be positive (nonnegative for "
                             "the disk)")
        for name in ("max_loops", "max_iiss", "max_dc"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")


@dataclass
class ConvergenceLog:
    rows: list[LogRow] = field(default_factory=list)
    stop_reason: str = ""

    def column(self, name: str) -> np.ndarray:
        if name not in {f.name for f in fields(LogRow)}:
            raise KeyError(name)
        return np.array([getattr(r, name) for r in self.rows])


def initial_mesh(config: AfemConfig) -> Mesh:
    """Construct the starting mesh for a configuration."""
    if config.domain == "square":
        return generate_unit_square(config.resolution)
    if config.domain == "lshape":
        return generate_lshape(config.resolution)
    if config.domain == "disk":
        return generate_disk(config.resolution)
    return io.load_mesh(config.domain[len("file:"):])


def eigensolve(config: AfemConfig, mesh: Mesh, eps_m: float,
               **warm) -> eigen.EigenResult:
    """`eigen.iiss` on mesh to eps_m, with the other tolerances, the caps
    and the seed of config, from warm (iiss's u0, lambda0, w0 and
    workspace, or nothing); raises SolverError unless the inverse iteration
    converged."""
    res = eigen.iiss(mesh, config.p, eps_m=eps_m,
                     max_m=config.max_iiss, eps_n=config.eps_n,
                     seed=config.seed, max_dc=config.max_dc, **warm)
    if not res.converged:
        raise fem.SolverError(f"inverse iteration did not converge "
                              f"within {config.max_iiss} sweeps")
    return res


def run_afem(config: AfemConfig) -> ConvergenceLog:
    """Run the adaptive loop until the eigenvalue stabilizes or the loop cap
    is reached; returns the per-loop convergence log.  A SolverError, which
    includes an inverse iteration that does not converge within max_iiss
    sweeps, ends the log with a NaN row and a stop_reason starting with
    "error:".

    When config.out_dir is set, every loop's mesh is written as mesh_<k>.vtk
    and the run finishes with eigenfunction.vtk and convergence.csv in that
    directory (also on solver failure, with the partial log).  Of level k,
    only the eigenfunction's arrays outlive its `_loop`."""
    mesh = initial_mesh(config)
    result = ConvergenceLog()
    vtk_blocks = {}  # write_vtk's text reuse, for this run only
    warm, final = {}, None

    k = 0
    try:
        while True:
            final, child = _loop(config, k, mesh, warm, result, vtk_blocks)
            if child is None:
                break
            mesh, warm = child
            k += 1
    except fem.SolverError as err:
        log.error("adaptive loop aborted at level %d: %s", k, err)
        result.rows.append(LogRow(
            k=k, vertices=mesh.num_vertices, elements=mesh.num_triangles,
            mu=float("nan"), lambda_iiss=float("nan"), eta=float("nan"),
            iiss_iters=0, dc_iters=0, marked=0, seconds=0.0))
        result.stop_reason = f"error: {err}"

    if config.out_dir is not None:
        if final is not None:
            vertices, triangles, coeffs = final
            grid = Mesh(vertices, triangles)
            io.write_vtk(grid, P1Function(grid, coeffs),
                         f"{config.out_dir}/eigenfunction.vtk", vtk_blocks)
        io.write_convergence_csv(result, f"{config.out_dir}/convergence.csv")
    return result


def _loop(config: AfemConfig, k: int, mesh: Mesh, warm: dict,
          result: ConvergenceLog, vtk_blocks: dict):
    """Loop k of run_afem on mesh, from warm (iiss's u0, lambda0 and w0;
    empty at level 0): solve to the level's tolerance (finished at
    eps_m if the run stops by eps_k), estimate, log, write mesh_<k>.vtk,
    and unless the run stops, mark and refine.  Returns the eigenfunction
    as (vertices, triangles, coefficients) and None if the run stops, else
    the refined mesh and its warm start."""
    t0 = time.perf_counter()
    prev = result.rows[-1] if result.rows else None
    eps_m = config.eps_m
    if prev is not None and k < config.max_loops:
        q = config.p / (config.p - 1.0)
        eps_m = max(eps_m, BALANCE * prev.eta ** q / prev.mu)
    ws = DCWorkspace(mesh)
    res = eigensolve(config, mesh, eps_m, workspace=ws, **warm)
    iters, dc_iters = res.iiss_iterations, res.dc_iterations_total

    stop = None
    if prev is not None and (abs(prev.mu - res.mu_rayleigh) / prev.mu
                             < config.eps_k):
        stop = "eps_k"
        if eps_m > config.eps_m:  # the last level: finish it at eps_m
            res = eigensolve(config, mesh, config.eps_m, workspace=ws,
                             u0=res.u_sup, lambda0=res.lambda_iiss,
                             w0=res.w)
            iters += res.iiss_iterations
            dc_iters += res.dc_iterations_total
    elif k >= config.max_loops:
        stop = "max_loops"
    del ws  # the LU factor dies before the estimator runs

    ind = estimator.estimate_all(mesh, edge_table(mesh), res.mu_rayleigh,
                                 res.u_lp, config.p)
    final = (mesh.vertices, mesh.triangles, res.u_sup.coeffs)

    marked = (np.array([], dtype=np.int64) if stop
              else estimator.dorfler_mark(ind, config.theta))
    row = LogRow(
        k=k, vertices=mesh.num_vertices, elements=mesh.num_triangles,
        mu=res.mu_rayleigh, lambda_iiss=res.lambda_iiss,
        eta=ind.total_eta, iiss_iters=iters, dc_iters=dc_iters,
        marked=len(marked),
        seconds=time.perf_counter() - t0)
    result.rows.append(row)
    log.info("loop %d: vertices=%d mu=%.8g eta=%.4g marked=%d",
             k, row.vertices, row.mu, row.eta, row.marked)
    if config.out_dir is not None:
        # created at the first write, so that a mesh the solver rejects
        # leaves no directory behind
        os.makedirs(config.out_dir, exist_ok=True)
        io.write_vtk(mesh, None, f"{config.out_dir}/mesh_{k}.vtk",
                     vtk_blocks)
    if stop:
        result.stop_reason = stop
        return final, None

    fine = refine(mesh, marked)
    # piecewise constants transfer exactly to nested children
    return final, (fine, dict(
        u0=P1Function(fine, prolong_vertex_values(fine, res.u_sup.coeffs)),
        lambda0=res.lambda_iiss, w0=np.take(res.w, fine.parent, axis=0)))
