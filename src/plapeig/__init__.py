"""Adaptive P1 finite elements for the first Dirichlet p-Laplacian eigenpair.

The package is organized bottom-up: `mesh` (triangulations, bisection
refinement and per-mesh geometry), `fem` (P1 assembly, the factorized
Dirichlet solve, norms), `plap` (the splitting solver for the quasilinear
source problem), `eigen` (inverse power iteration for the first eigenpair,
started from the torsion function), `estimator` (residual indicators and
bulk marking), `driver` (the adaptive loop), and `io`/`cli` (file formats
and the command-line front end; `python -m plapeig` runs the latter).
"""

from .mesh import (Mesh, EdgeTable, MeshConformityError, check_conforming,
                   edge_table, generate_disk, generate_lshape,
                   generate_unit_square, prolong_vertex_values, refine,
                   refine_uniform)
from .fem import (DirichletFactor, P1Function, SolverError, assemble_rhs,
                  grad, lp_norm, p_flux, rayleigh, sup_norm, w1p_seminorm_p)
from .plap import (DCReport, DCWorkspace, consistency, dc_solve, nu_update,
                   random_fields, resolvent_many)
from .eigen import EigenResult, iiss
from .estimator import IndicatorSet, dorfler_mark, estimate_all
from .driver import AfemConfig, ConvergenceLog, initial_mesh, run_afem
from .io import (LogRow, MeshFormatError, load_mesh, save_mesh,
                 write_convergence_csv, write_vtk)

__version__ = "0.1.0"

__all__ = [
    "Mesh", "EdgeTable", "MeshConformityError", "check_conforming",
    "edge_table", "generate_disk", "generate_lshape", "generate_unit_square",
    "prolong_vertex_values", "refine", "refine_uniform",
    "DirichletFactor", "P1Function", "SolverError", "assemble_rhs", "grad",
    "lp_norm", "p_flux", "rayleigh", "sup_norm", "w1p_seminorm_p",
    "DCReport", "DCWorkspace", "consistency", "dc_solve", "nu_update",
    "random_fields", "resolvent_many",
    "EigenResult", "iiss",
    "IndicatorSet", "dorfler_mark", "estimate_all",
    "AfemConfig", "ConvergenceLog", "initial_mesh", "run_afem",
    "LogRow", "MeshFormatError", "load_mesh", "save_mesh",
    "write_convergence_csv", "write_vtk",
    "__version__",
]
