"""Splitting solver for the Dirichlet p-Laplacian problem.

Solves -div(|grad u|^{p-2} grad u) = f with u = 0 on the boundary by a
decomposition-coordination iteration: each sweep performs one linear Poisson
solve, a pointwise scalar resolvent that recovers the auxiliary flux, and a
multiplier-style correction of the coordination field.  The auxiliary fields
live in the space of piecewise-constant vectors, matching the gradients of
P1 trial functions.

After a sweep the state is the single field w = xi + grad u (nu = R(w) by
the resolvent and xi = w - nu), so the iteration is a fixed-point map
w -> T(w), and w is all that one solve hands the next as its start.
dc_solve accelerates it with type-II Anderson acceleration
(Walker & Ni, SIAM J. Numer. Anal. 2011) over the last ANDERSON_MEMORY
sweeps, falling back to the plain sweep whenever the least-squares problem
is singular.  Sweeps work in interior-vertex coordinates with the factor
that DCWorkspace builds once per mesh and the mesh's own `Mesh.gradient`,
and a solve stops on the relative change of u in the lumped-mass L2 norm.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

from . import fem
from .fem import DirichletFactor, P1Function, SolverError
from .mesh import Mesh

log = logging.getLogger(__name__)

#: Default seed of the PCG64 generator drawing the random initial fields.
DEFAULT_SEED = 42

#: Number of past sweep differences the Anderson extrapolation combines.
ANDERSON_MEMORY = 3

#: Smallest pivot of the unit-diagonal Gram matrix's Cholesky factor (the
#: sine of the angle between a residual difference and the span of the
#: others) that the Anderson extrapolation accepts.
ANDERSON_PIVOT_TOL = 1e-6


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
    if not 1 < p < math.inf:
        raise ValueError("p must exceed 1 and be finite")
    s = np.asarray(s, dtype=np.float64)
    # two reductions; a NaN fails both comparisons
    if s.size and not (s.min() >= 0.0 and s.max() < math.inf):
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
    t = s + 0.25
    np.sqrt(t, out=t)
    t += 0.5
    np.divide(s, t, out=t)
    return np.minimum(t, np.sqrt(s), out=t)


def _resolvent_newton(s: np.ndarray, p: float) -> np.ndarray:
    """Roots of r^{p-1} + r = s for finite s >= 0, under the residual
    contract of resolvent_many.

    Safeguarded Newton with a bisection fallback.  The root is bracketed in
    [0, min(s, s^{1/(p-1)})] (both bounds dominate it).  The power is only
    taken where it is the smaller bound, s < 1 exactly when p < 2, so it
    cannot overflow, and the bisection midpoint lo + (hi - lo)/2 stays below
    hi <= s.  For p < 2 the derivative blows up at 0, so iterations start at
    s/2 and the bracket keeps Newton away from the singularity.
    """
    r = np.zeros_like(s)
    active = s > 0.0
    sv = s[active]
    hi = sv.copy()
    np.power(sv, 1.0 / (p - 1.0), out=hi, where=(sv < 1.0) == (p < 2.0))
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
        rr = np.where(done, rr, np.where(bad, lo + 0.5 * (hi - lo), step))
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
    resolvent_many(|w|, p); zero rows stay zero.  nu has the shape and
    memory layout of w.
    """
    w = np.asarray(w, dtype=np.float64)
    x, y = w[..., 0], w[..., 1]
    n = np.sqrt(x * x + y * y)
    # the root of s = 0 is 0, so a zero row keeps scale 0
    scale = resolvent_many(n, p)
    np.divide(scale, n, out=scale, where=n > 0.0)
    return np.multiply(w, scale[..., None], out=np.empty_like(w))


@dataclass
class DCReport:
    """Diagnostics of a decomposition-coordination run.

    w is the splitting state of the last plain image T(w), an (nt, 2)
    field: the start of a follow-up solve on the same mesh, or, through
    Mesh.parent, on a refinement; consistency(u, w, p) measures it against
    the returned solution u.
    """

    iterations: int
    rel_change: float
    converged: bool
    w: np.ndarray

    def stalled(self, what: str) -> SolverError:
        """The error of this solve having missed eps_n, what it was for
        first."""
        return SolverError(f"{what} (relative change {self.rel_change:.3e})",
                           residual=self.rel_change)


class DCWorkspace:
    """Per-mesh operators of the splitting sweep, in interior-vertex
    coordinates.

    Trial functions vanish on the boundary, so a sweep needs only their
    interior coefficients, in the order of `factor.idx`.  The workspace
    holds factor, the factorized interior block of the stiffness matrix,
    whose `solve` is the one linear solve of every sweep, and weights, the
    lumped mass int phi_i of every interior vertex, behind the stopping
    test's L2 norm sqrt(sum_i weights_i x_i^2).  `grad` and g_load apply
    `Mesh.gradient` and its transpose through a vertex buffer whose
    boundary entries stay zero; fields are flat, stored component by
    component to match its rows.

    A workspace serves only the mesh it was built on.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.factor = DirichletFactor(fem.interior_stiffness(mesh),
                                      mesh.boundary_vertex)
        self.weights = fem.assemble_rhs(mesh, 1.0)[self.factor.idx]
        self._vertex_values = np.zeros(mesh.num_vertices)
        self._interior = ~mesh.boundary_vertex  # the vertices of factor.idx
        self._div = mesh.gradient.T  # a view; forming one per call is slow

    def grad(self, x: np.ndarray) -> np.ndarray:
        """Elementwise gradient of the trial function with interior
        coefficients x, a flat field of length 2 nt stored component by
        component."""
        self._vertex_values[self._interior] = x
        return self.mesh.gradient @ self._vertex_values

    def g_load(self, g: np.ndarray) -> np.ndarray:
        """Load vector of the field term on the interior vertices:
        -sum_T |T| g_T . grad(phi_i), for a flat field g of length 2 nt
        stored component by component, as the sweep keeps them."""
        weighted = (g.reshape(2, -1) * self.mesh.areas).ravel()
        return -(self._div @ weighted)[self._interior]


def random_fields(mesh: Mesh, seed: int = DEFAULT_SEED) -> tuple[np.ndarray, np.ndarray]:
    """Initial auxiliary fields: every component i.i.d. uniform on (0, 0.5),
    drawn from a PCG64 generator with the given seed (xi first, then nu)."""
    rng = np.random.default_rng(seed)
    nt = mesh.num_triangles
    xi = rng.uniform(0.0, 0.5, size=(nt, 2))
    nu = rng.uniform(0.0, 0.5, size=(nt, 2))
    return xi, nu


def dc_solve(mesh: Mesh, f, p: float, eps_n: float = 1e-5, max_iter: int = 500,
             init: np.ndarray | None = None, seed: int = DEFAULT_SEED,
             workspace: DCWorkspace | None = None) -> tuple[P1Function, DCReport]:
    """Decomposition-coordination solve of the p-Laplacian Dirichlet problem.

    Iterates until the relative change of the solution in the lumped-mass L2
    norm sqrt(sum_i m_i x_i^2), m_i = int phi_i, drops below eps_n (checked
    from the second sweep on; the change is taken as absolute if the
    previous iterate vanishes).  For P1 elements the lumped norm lies
    within a factor 2 of the L2 norm.  Hitting max_iter returns a report with
    converged=False rather than raising; the caller decides.

    f is the load: a constant, or the load vector b_i = int f phi_i on all
    vertices as `fem.assemble_rhs` returns it; a load that is not finite
    raises ValueError before any solve.  init is the starting state w, an
    (nt, 2) field, such as the w of an earlier report: the first sweep
    forms nu = R(w) and xi = w - nu from it.  Without init the first sweep
    starts from the fields (xi, nu) of random_fields, drawn from seed.

    Sweeps 1 to 3 are plain; from then on each sweep starts from the
    Anderson extrapolate of the earlier images T(w) (see _Anderson), so a
    solve that stops within three sweeps, such as every solve at p = 2, is
    the plain iteration.  One sweep costs one resolvent, one triangular
    solve with its residual check, one product each with `Mesh.gradient`
    and its transpose, and a few inner products.  A sweep whose load
    repeats the last one bit for bit (every sweep after the first at
    p = 2) reuses the last solution instead of solving.  Nothing is
    evaluated after the last sweep.
    """
    if not 1 < p < math.inf:
        raise ValueError("p must exceed 1 and be finite")
    if not 0 < eps_n < math.inf:
        raise ValueError("eps_n must be finite and positive")
    if max_iter < 1:
        raise ValueError("max_iter must be at least 1")
    if workspace is not None and workspace.mesh is not mesh:
        raise ValueError("workspace must belong to the given mesh")
    f = np.asarray(f, dtype=np.float64)
    if not np.isfinite(f).all():
        raise ValueError("load must be finite")
    if f.ndim == 0:
        f = fem.assemble_rhs(mesh, float(f))
    elif f.shape != (mesh.num_vertices,):
        raise ValueError("load vector must have one entry per vertex")
    ws = workspace if workspace is not None else DCWorkspace(mesh)
    nt = mesh.num_triangles

    # Fields are flat vectors of length 2 nt stored component by component,
    # the row order of mesh.gradient; v.reshape(2, nt).T is their (nt, 2)
    # view, in Fortran order.  Every field operation of a sweep runs over
    # contiguous memory and copies no layout.
    if init is None:
        xi, nu = (a.T.ravel() for a in random_fields(mesh, seed))
        w = None
    else:
        w = np.asarray(init, dtype=np.float64)
        if w.shape != (nt, 2):
            raise ValueError("init must have one 2-vector per triangle")
        w = w.T.ravel()

    b_f = f[ws.factor.idx]
    accel = _Anderson(mesh.areas)
    x = load = None
    n = 0
    rel_change = np.inf
    converged = False
    while n < max_iter:
        n += 1
        if w is not None:
            nu = nu_update(w.reshape(2, nt).T, p).T.ravel()
            xi = w - nu
        new_load = b_f + ws.g_load(xi - nu)
        # At p = 2 the resolvent halves w, so xi - nu vanishes after every
        # sweep and the next load repeats the last one bit for bit; its
        # solution and gradient are then those of the last sweep.
        if load is None or not np.array_equal(new_load.view(np.int64),
                                              load.view(np.int64)):
            load = new_load
            x_new = ws.factor.solve(load)
            gu = ws.grad(x_new)
        tw = xi + gu
        if n >= 2:
            d = x_new - x
            diff = math.sqrt(d @ (ws.weights * d))
            base = math.sqrt(x @ (ws.weights * x))
            rel_change = diff / base if base > 0.0 else diff
            if rel_change < eps_n:
                converged = True
                break
        x = x_new
        # the history starts at sweep 2, also from a given start
        w = tw if n == 1 else accel.step(tw, tw - w)

    if not converged:
        log.warning("dc_solve hit max_iter=%d at relative change %.3e",
                    max_iter, rel_change)

    coeffs = np.zeros(mesh.num_vertices)
    coeffs[ws.factor.idx] = x_new
    report = DCReport(iterations=n, rel_change=float(rel_change),
                      converged=converged, w=tw.reshape(2, nt).T)
    return P1Function(mesh, coeffs), report


def consistency(u: P1Function, w: np.ndarray, p: float) -> float:
    """Elementwise L^q mismatch, q = p / (p - 1), between the coordination
    field xi = w - R(w) and the flux |grad u|^{p-2} grad u, for the solution
    u and state w of one dc_solve; it vanishes at the fixed point.  It
    measures how far xi lags behind the flux, not the error of u: at p = 2
    u is exact from the second sweep on, while the lag halves per sweep."""
    if np.shape(w) != (u.mesh.num_triangles, 2):
        raise ValueError("w must have one 2-vector per triangle")
    e = w - nu_update(w, p) - fem.p_flux(fem.grad(u), p)
    ex, ey = e[:, 0], e[:, 1]
    mismatch = np.sqrt(ex * ex + ey * ey)
    q = p / (p - 1.0)
    return float(np.dot(u.mesh.areas, mismatch ** q) ** (1.0 / q))


class _Anderson:
    """Type-II Anderson acceleration of the sweep map w -> T(w).

    step(g, f) takes g = T(w) and the residual f = g - w of the latest sweep,
    flat fields stored component by component, and returns the next w:
    g - dG gamma, where the columns of dF and dG are the last
    ANDERSON_MEMORY differences of consecutive residuals and images, and
    gamma minimizes |f - dF gamma| in the area-weighted inner product
    sum_T |T| a_T . b_T.  The weighted differences W dF and dG live in
    buffers allocated at the first difference, and the Gram matrix
    dF^T W dF in an ANDERSON_MEMORY x ANDERSON_MEMORY array whose row and
    column of the newest difference are rewritten per step (see
    _gram_solve).  If it is numerically singular or the extrapolate is
    not finite, step returns g and clears the differences.
    """

    def __init__(self, areas: np.ndarray):
        self._areas = areas
        self._wdf = self._dg = None  # allocated at the first difference
        self._gram = np.zeros((ANDERSON_MEMORY, ANDERSON_MEMORY))
        self.depth = 0
        self._slot = 0
        self._last = None

    def step(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        if self._last is not None:
            self._add_differences(g, f)
        self._last = (g, f)
        return self._extrapolate(g, f) if self.depth else g

    def _add_differences(self, g: np.ndarray, f: np.ndarray) -> None:
        if self._wdf is None:
            self._wdf, self._dg = np.empty((2, ANDERSON_MEMORY, len(f)))
        j = self._slot
        df = f - self._last[1]
        np.multiply(df.reshape(2, -1), self._areas,
                    out=self._wdf[j].reshape(2, -1))
        np.subtract(g, self._last[0], out=self._dg[j])
        self.depth = min(self.depth + 1, ANDERSON_MEMORY)
        self._slot = (j + 1) % ANDERSON_MEMORY
        k = self.depth
        self._gram[j, :k] = self._gram[:k, j] = self._wdf[:k] @ df

    def _extrapolate(self, g: np.ndarray, f: np.ndarray) -> np.ndarray:
        k = self.depth
        gamma = _gram_solve(self._gram, self._wdf[:k] @ f)
        if gamma is not None:
            with np.errstate(all="ignore"):
                w = g - np.dot(gamma, self._dg[:k])
            if np.isfinite(w).all():
                return w
        self.depth = 0
        self._slot = 0
        return g


def _gram_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray | None:
    """Solution gamma of the leading k x k block of gram times gamma = rhs,
    k = len(rhs) <= ANDERSON_MEMORY; None if the block is numerically
    singular.

    The block is scaled to a unit diagonal and factored by LAPACK's
    Cholesky; it is singular if a pivot of that factor (the sine of the
    angle between a difference and the span of the earlier ones) is not
    above ANDERSON_PIVOT_TOL, or if a diagonal entry is not positive and
    finite; a NaN entry fails one of the two.
    """
    k = len(rhs)
    block = np.asarray(gram, dtype=np.float64)[:k, :k]
    d = block.diagonal()
    if not (d.min() > 0.0 and d.max() < math.inf):
        return None
    scale = np.sqrt(d)
    chol, info = dpotrf(block / np.outer(scale, scale), lower=1)
    if info or not chol.diagonal().min() > ANDERSON_PIVOT_TOL:
        return None
    y, info = dpotrs(chol, np.asarray(rhs) / scale, lower=1)
    return None if info else y / scale
