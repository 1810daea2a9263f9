"""First Dirichlet eigenpair of the p-Laplacian by normalized inverse iteration.

Each sweep solves the quasilinear problem -div(|grad u|^{p-2} grad u) = f
with right-hand side f = (max(u, 0) / ||u||_inf)^{p-1} built from the
previous iterate and reads off the eigenvalue estimate 1 / ||u||_inf^{p-1}.
From no iterate the right-hand side is 1, so a cold start's first sweep
solves for the torsion function; each later inner solve starts from the
splitting state w of the one before.  The iteration stops once the
relative eigenvalue change drops below a tolerance.  The headline eigenvalue
reported alongside is the Rayleigh quotient of the L^p-normalized iterate,
which bounds the continuous first eigenvalue from above on conforming
meshes.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field

import numpy as np

from . import fem, plap
from .fem import P1Function, SolverError
from .mesh import Mesh
from .plap import DCWorkspace, DEFAULT_SEED

log = logging.getLogger(__name__)

#: Vertex values of eigenfunction iterates are allowed to undershoot zero by
#: this much before the final result is considered defective.
NEGATIVITY_TOL = 1e-10


@dataclass
class EigenResult:
    """First-eigenpair approximation on a fixed mesh.

    lambda_iiss         eigenvalue from the sup-norm normalization
    u_sup               eigenfunction scaled to unit sup norm
    u_lp                eigenfunction scaled to unit L^p norm
    mu_rayleigh         Rayleigh quotient of u_lp (the certified upper bound)
    iiss_iterations     inverse-iteration sweeps performed, a cold
                        start's torsion sweep included
    dc_iterations_total all inner splitting sweeps
    converged           eigenvalue change fell below tolerance
    lambda_history      lambda0 if given, then lambda after every sweep
    min_vertex_value    most negative vertex value seen across iterates
    w                   splitting state of the last inner solve, (nt, 2);
                        mapped through Mesh.parent it warm-starts the first
                        inner solve on a refinement
    """

    lambda_iiss: float
    u_sup: P1Function
    u_lp: P1Function
    mu_rayleigh: float
    iiss_iterations: int
    dc_iterations_total: int
    converged: bool
    lambda_history: list = field(default_factory=list)
    min_vertex_value: float = 0.0
    w: np.ndarray | None = None


def iiss(mesh: Mesh, p: float, eps_m: float = 1e-5, max_m: int = 200,
         eps_n: float = 1e-5, seed: int = DEFAULT_SEED, max_dc: int = 500,
         u0: P1Function | None = None, lambda0: float | None = None,
         w0: np.ndarray | None = None,
         workspace: DCWorkspace | None = None) -> EigenResult:
    """Inverse power iteration for the first eigenpair.

    Each sweep solves the load (max(u, 0) / ||u||_inf)^{p-1} of the last
    iterate u.  A cold start (no u0) has no iterate, so its first sweep
    solves the load 1: the torsion start.  With u0 the iteration proceeds
    from u0, which needs a positive vertex value (else SolverError); this
    is how the adaptive driver warm-starts on refined meshes.  lambda0,
    the eigenvalue of u0 (ValueError without u0), seeds the stopping test;
    without it the first sweep cannot stop.  The first inner solve starts
    from the splitting state w0, an (nt, 2) field, or else from the random
    fields drawn from seed; every later inner solve starts from the
    previous solve's state.  All solves of a call share one DCWorkspace of
    the mesh: workspace if given, else one built here.  A caller that keeps
    workspace can continue the iteration from the result (u0=u_sup,
    lambda0=lambda_iiss, w0=w) at a tighter eps_m on the same LU factor.
    """
    if not 0 < eps_m < math.inf:
        raise ValueError("eps_m must be finite and positive")
    if max_m < 1:
        raise ValueError("max_m must be at least 1")
    if lambda0 is not None and not 0 < lambda0 < math.inf:
        raise ValueError("lambda0 must be finite and positive")
    if lambda0 is not None and u0 is None:
        raise ValueError("lambda0 is the eigenvalue of u0 and needs it")
    u, min_vertex = u0, math.inf
    if u0 is not None:
        if u0.mesh is not mesh:
            raise ValueError("u0 must live on the given mesh")
        # the first load (max(u0, 0) / ||u0||_inf)^{p-1} would vanish
        if u0.coeffs.max() <= 0.0:
            raise SolverError("starting iterate has no positive vertex value")
        min_vertex = float(u0.coeffs.min())
    ws = workspace if workspace is not None else DCWorkspace(mesh)

    # NaN, no eigenvalue yet, fails the stopping test
    lam = math.nan if lambda0 is None else float(lambda0)
    history = [] if lambda0 is None else [lam]
    dc_total = 0
    warm = w0
    converged = False
    for m in range(1, max_m + 1):
        u, report = plap.dc_solve(
            mesh, 1.0 if u is None else fem.inverse_load(u, p), p,
            eps_n=eps_n, max_iter=max_dc, init=warm, seed=seed, workspace=ws)
        dc_total += report.iterations
        if not report.converged:
            raise report.stalled(
                f"torsion start did not converge within {max_dc} sweeps"
                if m == 1 and u0 is None else
                f"inner splitting solve stalled at sweep m={m}, "
                f"lambda={lam:.8g}")
        warm = report.w
        min_vertex = min(min_vertex, float(u.coeffs.min()))
        lam_prev, lam = lam, 1.0 / fem.sup_norm(u) ** (p - 1.0)
        history.append(float(lam))
        if abs(lam - lam_prev) / abs(lam_prev) < eps_m:
            converged = True
            break

    if min_vertex < -NEGATIVITY_TOL:
        log.warning("eigenfunction iterates undershot zero by %.3e", -min_vertex)

    # the LU factor and operators, unless the caller keeps them: the
    # normalization needs neither
    del ws
    s = fem.sup_norm(u)
    u_sup = P1Function(mesh, u.coeffs / s)
    lpn = fem.lp_norm(u_sup, p)
    u_lp = P1Function(mesh, u_sup.coeffs / lpn)
    mu = fem.rayleigh(u_lp, p)
    return EigenResult(
        lambda_iiss=float(lam), u_sup=u_sup, u_lp=u_lp, mu_rayleigh=float(mu),
        iiss_iterations=m, dc_iterations_total=dc_total, converged=converged,
        lambda_history=history, min_vertex_value=min_vertex, w=warm)
