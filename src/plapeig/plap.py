"""Splitting solver for the Dirichlet p-Laplacian problem.

Solves -div(|grad u|^{p-2} grad u) = f with u = 0 on the boundary by a
decomposition-coordination iteration: each sweep performs one linear Poisson
solve, a pointwise scalar resolvent that recovers the auxiliary flux, and a
multiplier-style correction of the coordination field.  The auxiliary fields
live in the space of piecewise-constant vectors, matching the gradients of
P1 trial functions.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import DirichletFactor, P1Function, SolverError
from .mesh import Mesh

log = logging.getLogger(__name__)

#: Default seed of the PCG64 generator drawing the random initial fields.
DEFAULT_SEED = 42


def resolvent_many(s: np.ndarray, p: float) -> np.ndarray:
    """Unique nonnegative roots r of r^{p-1} + r = s, entrywise.

    The left-hand side is strictly increasing on r >= 0, so the root exists
    and is unique for every s >= 0.  Each result satisfies
    |r^{p-1} + r - s| <= 1e-13 * max(1, s); an entry that misses this
    raises SolverError (e.g. for p close to 1, where the root of a tiny s
    underflows).

    Three exponents have an exact root: r = s/2 at p = 2, the root t of the
    quadratic t^2 + t = s at p = 3, and t^2 at p = 3/2 (substitute
    t = sqrt(r)).  Every other p runs _resolvent_newton.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    s = np.asarray(s, dtype=np.float64)
    if np.any(s < 0) or not np.all(np.isfinite(s)):
        raise ValueError("s must be finite and nonnegative")
    if p == 2.0:
        return 0.5 * s
    if p == 3.0:
        return _quadratic_root(s)
    if p == 1.5:
        t = _quadratic_root(s)
        return t * t
    return _resolvent_newton(s, p)


def _quadratic_root(s: np.ndarray) -> np.ndarray:
    """Nonnegative root t of t^2 + t = s, entrywise.

    s / (1/2 + sqrt(s + 1/4)) has no cancellation and no intermediate
    overflow.  Near the top of the range it can round one unit above
    sqrt(s), which bounds the root; clipping there keeps t^2 finite.
    """
    t = s / (0.5 + np.sqrt(s + 0.25))
    return np.minimum(t, np.sqrt(s), out=t)


def _resolvent_newton(s: np.ndarray, p: float) -> np.ndarray:
    """Roots of r^{p-1} + r = s for finite s >= 0, under the residual
    contract of resolvent_many.

    Safeguarded Newton with a bisection fallback.  The root is bracketed in
    [0, min(s, s^{1/(p-1)})] (both bounds dominate it; the min avoids
    overflow for p close to 1).  For p < 2 the derivative blows up at 0, so
    iterations start at s/2 and the bracket keeps Newton away from the
    singularity.
    """
    r = np.zeros_like(s)
    active = s > 0.0
    if not active.any():
        return r
    sv = s[active]
    hi = np.minimum(sv, sv ** (1.0 / (p - 1.0)))
    lo = np.zeros_like(sv)
    rr = np.minimum(0.5 * sv, hi)
    tol = 1e-13 * np.maximum(1.0, sv)
    done = np.zeros(sv.shape, dtype=bool)
    for _ in range(120):
        phi = rr ** (p - 1.0) + rr - sv
        done |= np.abs(phi) <= 0.25 * tol
        if done.all():
            break
        above = phi >= 0.0
        hi = np.where(~done & above, rr, hi)
        lo = np.where(~done & ~above, rr, lo)
        with np.errstate(divide="ignore"):  # rr = 0 for p < 2: bisect
            dphi = (p - 1.0) * rr ** (p - 2.0) + 1.0
        step = rr - phi / dphi
        bad = ~np.isfinite(step) | (step <= lo) | (step >= hi)
        rr = np.where(done, rr, np.where(bad, 0.5 * (lo + hi), step))
    residual = np.abs(rr ** (p - 1.0) + rr - sv)
    if np.any(residual > tol):
        worst = float(residual.max())
        raise SolverError(f"resolvent iteration failed to converge "
                          f"(worst residual {worst:.3e})", residual=worst)
    r[active] = rr
    return r


def nu_update(w: np.ndarray, p: float) -> np.ndarray:
    """Solve |nu|^{p-2} nu + nu = w rowwise for the flux field nu.

    By radial symmetry nu is parallel to w with magnitude
    resolvent_many(|w|, p); zero rows stay zero.
    """
    w = np.asarray(w, dtype=np.float64)
    n = np.linalg.norm(w, axis=-1)
    r = resolvent_many(n, p)
    scale = np.zeros_like(n)
    nz = n > 0.0
    scale[nz] = r[nz] / n[nz]
    return scale[..., None] * w


@dataclass
class DCReport:
    """Diagnostics of a decomposition-coordination run.

    consistency is the elementwise L^q mismatch between the coordination
    field xi and the flux |grad u|^{p-2} grad u of the final iterate,
    computed once after the last sweep; at the fixed point it vanishes.
    xi and nu are the final auxiliary fields, reusable as a warm start for
    a follow-up solve on the same mesh.
    """

    iterations: int
    rel_change: float
    consistency: float
    converged: bool
    xi: np.ndarray
    nu: np.ndarray


class DCWorkspace:
    """Per-mesh cache for repeated p-Laplacian solves.

    Holds the factorized interior block of the stiffness matrix, the mass
    matrix behind the L2 norm of the stopping test, and the scatter operator
    mapping a piecewise-constant vector field g to the load contribution
    -sum_T |T| g . grad(phi_i).  Every solve path builds one, so it is where
    a mesh without interior vertices (a trivial trial space) is rejected.
    """

    def __init__(self, mesh: Mesh):
        if mesh.boundary_vertex.all():
            raise ValueError("mesh has no interior vertices; the trial space "
                             "is trivial")
        self.mesh = mesh
        stiffness = fem.assemble_stiffness(mesh)
        self.factor = DirichletFactor(stiffness, mesh.boundary_vertex)
        self.mass = fem.assemble_mass(mesh)
        nt = mesh.num_triangles
        # Column 2 t + d holds |T| times component d of grad(phi_i) in the
        # rows of the three vertices i of T.
        data = mesh.areas[:, None, None] * mesh.basis_gradients
        self._div = sp.csc_matrix(
            (data.transpose(0, 2, 1).ravel(),
             np.repeat(mesh.triangles, 2, axis=0).ravel(),
             np.arange(0, 6 * nt + 1, 3)),
            shape=(mesh.num_vertices, 2 * nt))

    def g_load(self, g: np.ndarray) -> np.ndarray:
        """Load vector of the field term: -sum_T |T| g_T . grad(phi_i)."""
        return -(self._div @ g.ravel())

    def l2_norm(self, coeffs: np.ndarray) -> float:
        """L2 norm of the P1 function with the given coefficients (exact)."""
        return float(np.sqrt(coeffs @ (self.mass @ coeffs)))


def random_fields(mesh: Mesh, seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """Initial auxiliary fields: every component i.i.d. uniform on (0, 0.5),
    drawn from a PCG64 generator with the given seed (xi first, then nu)."""
    rng = np.random.default_rng(seed)
    nt = mesh.num_triangles
    xi = rng.uniform(0.0, 0.5, size=(nt, 2))
    nu = rng.uniform(0.0, 0.5, size=(nt, 2))
    return xi, nu


def dc_solve(mesh: Mesh, f, p: float, eps_n: float = 1e-5, max_iter: int = 500,
             init: tuple[np.ndarray, np.ndarray] | None = None,
             seed: int = DEFAULT_SEED,
             workspace: DCWorkspace | None = None) -> tuple[P1Function, DCReport]:
    """Decomposition-coordination solve of the p-Laplacian Dirichlet problem.

    Iterates until the relative L2 change of the solution drops below eps_n
    (checked from the second sweep on; the change is taken as absolute if the
    previous iterate vanishes).  Hitting max_iter returns a report with
    converged=False rather than raising; the caller decides.  The report's
    consistency residual belongs to the final iterate and is computed once,
    after the last sweep.

    init supplies the starting fields (xi, nu); by default they are drawn
    from the seeded generator of random_fields.
    """
    if p <= 1:
        raise ValueError("p must exceed 1")
    if not 0 < eps_n < math.inf:
        raise ValueError("eps_n must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    ws = workspace if workspace is not None else DCWorkspace(mesh)
    nt = mesh.num_triangles

    if init is None:
        xi, nu = random_fields(mesh, seed)
    else:
        xi, nu = (np.array(init[0], dtype=np.float64),
                  np.array(init[1], dtype=np.float64))
        if xi.shape != (nt, 2) or nu.shape != (nt, 2):
            raise ValueError("init fields must have one 2-vector per triangle")

    b_f = fem.assemble_rhs(mesh, f)
    u = P1Function(mesh, np.zeros(mesh.num_vertices))
    n = 0
    rel_change = np.inf
    converged = False
    while n < max_iter:
        prev_coeffs = u.coeffs
        n += 1
        b = b_f + ws.g_load(xi - nu)
        u = P1Function(mesh, ws.factor.solve(b))
        gu = fem.grad(u)
        w = xi + gu
        nu = nu_update(w, p)
        xi = w - nu
        if n >= 2:
            diff = ws.l2_norm(u.coeffs - prev_coeffs)
            base = ws.l2_norm(prev_coeffs)
            rel_change = diff / base if base > 0.0 else diff
            if rel_change < eps_n:
                converged = True
                break

    if not converged:
        log.warning("dc_solve hit max_iter=%d at relative change %.3e",
                    max_iter, rel_change)

    q = p / (p - 1.0)
    mismatch = np.linalg.norm(xi - fem.p_flux(gu, p), axis=1)
    consistency = float(np.dot(mesh.areas, mismatch ** q) ** (1.0 / q))
    report = DCReport(iterations=n, rel_change=float(rel_change),
                      consistency=consistency, converged=converged,
                      xi=xi, nu=nu)
    return u, report
