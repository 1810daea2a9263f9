"""P1 finite-element primitives on triangle meshes.

Covers the quadrature rule on the reference triangle, stiffness and load
assembly, the factorized homogeneous-Dirichlet solve, elementwise gradients,
and the p-dependent norms building the Rayleigh quotient.  Every element
integral uses the degree-5 symmetric rule DEGREE5_POINTS, DEGREE5_WEIGHTS,
exact for polynomials of degree at most 5, QUAD_BLOCK triangles at a time:
no array holds the (nt, nq) values of a whole mesh.  The one integrand that
is no such polynomial in general, |u|^p, is integrated by `element_lp`
alone, the one approximate integral: the L^p norm, the Rayleigh quotient
and the estimator's element term read it.

The stiffness matrix, or its interior block, is assembled in edge form (see
`_edge_form`).  No mass matrix is assembled: the splitting solver's stop
reads the lumped mass int phi_i, the load vector of f = 1.  Vector fields
constant per triangle (gradients, fluxes, the splitting solver's auxiliary
fields) are plain (nt, 2) arrays, one 2-vector per triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import INDEX, Mesh


class SolverError(RuntimeError):
    """Linear solve failed to reach its residual tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


# Symmetric 7-point rule on the reference triangle, exact for polynomials of
# degree 5: barycentric points (nq, 3) and weights (nq,) summing to one, so
# an integral over a triangle T is |T| * sum(w_q * f(x_q)).
_S15 = np.sqrt(15.0)
_A1, _B1 = (9.0 + 2.0 * _S15) / 21.0, (6.0 - _S15) / 21.0
_A2, _B2 = (9.0 - 2.0 * _S15) / 21.0, (6.0 + _S15) / 21.0
_W1, _W2 = (155.0 - _S15) / 1200.0, (155.0 + _S15) / 1200.0
DEGREE5_POINTS = np.array([
    [1 / 3, 1 / 3, 1 / 3],
    [_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
    [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2],
])
DEGREE5_WEIGHTS = np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2])
DEGREE5_POINTS.setflags(write=False)
DEGREE5_WEIGHTS.setflags(write=False)

#: Triangles per block of every quadrature: one (QUAD_BLOCK, nq) array of
#: values is 0.46 MB.
QUAD_BLOCK = 8192


@dataclass(frozen=True)
class P1Function:
    """Continuous piecewise-linear function: one coefficient per vertex."""

    mesh: Mesh
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coeffs, dtype=np.float64)
        if c.shape != (self.mesh.num_vertices,):
            raise ValueError("coefficient count must match the vertex count")
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def _at_quad(mesh: Mesh, values):
    """Yields (s, f) per block s of QUAD_BLOCK triangles, f a fresh (len, nq)
    array of the constant or P1 vertex values at their quadrature points.
    A lone last triangle joins the block before: NumPy hands a one-row
    product to BLAS's vector path, whose sums can differ in the last bit."""
    nt, start = mesh.num_triangles, 0
    while start < nt:
        stop = start + QUAD_BLOCK if nt - start > QUAD_BLOCK + 1 else nt
        s, start = slice(start, stop), stop
        yield s, (np.take(values, mesh.triangles[s]) @ DEGREE5_POINTS.T
                  if np.ndim(values) else
                  np.full((stop - s.start, len(DEGREE5_WEIGHTS)), values))


def _load(mesh: Mesh, values, fmap=lambda f: None) -> np.ndarray:
    """Load vector b_i = sum_T int_T f phi_i, f the values of `_at_quad`
    mapped in place by fmap block by block."""
    phi = DEGREE5_POINTS * DEGREE5_WEIGHTS[:, None]  # w_q phi_i(x_q), (nq, 3)
    contrib = np.empty((mesh.num_triangles, 3))
    for s, fq in _at_quad(mesh, values):
        fmap(fq)
        np.matmul(fq, phi, out=contrib[s])
    fq = None  # the last block dies before the scatter
    contrib *= mesh.areas[:, None]
    # np.add.at sums in the order of np.bincount, but reads the read-only
    # mesh arrays where np.bincount would copy them
    b = np.zeros(mesh.num_vertices)
    np.add.at(b, mesh.triangles.ravel(), contrib.ravel())
    return b


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix K_ij = sum_T |T| grad(phi_i) . grad(phi_j): symmetric
    with zero row sums (constants lie in the kernel), positive definite once
    boundary rows/columns are eliminated."""
    return _edge_form(mesh, np.ones(mesh.num_vertices, dtype=bool))


def interior_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Interior block of the stiffness matrix: its rows and columns of the
    vertices off the boundary, in ascending vertex order."""
    return _edge_form(mesh, ~mesh.boundary_vertex)


def _edge_form(mesh: Mesh, keep: np.ndarray) -> sp.csr_matrix:
    """Stiffness matrix restricted to the rows and columns of the vertices
    flagged in keep, renumbered in ascending order.

    The pattern is the kept diagonal plus both entries of every edge with
    two kept endpoints; entries that sum to zero stay stored.  The edge
    codes ascend, so listing the lower entries, the diagonal and the upper
    entries in that order already puts the columns of every row in
    ascending order: the conversion to CSR buckets the entries by row and
    neither sorts columns nor sums duplicates.
    """
    areas = mesh.areas[:, None]  # raises on degenerate triangles
    gx, gy = mesh.basis_gradients.transpose(2, 0, 1)
    # The edge opposite local vertex j joins local vertices j+1 and j+2.
    nxt, prv = [1, 2, 0], [2, 0, 1]
    diag = areas * (gx * gx + gy * gy)
    off = areas * (gx[:, nxt] * gx[:, prv] + gy[:, nxt] * gy[:, prv])
    nv = mesh.num_vertices
    codes, edge_id, _ = mesh.edge_numbering
    lo, hi = np.divmod(codes, nv)
    kept = keep[lo] & keep[hi]
    number = np.cumsum(keep, dtype=INDEX) - 1
    n = int(np.count_nonzero(keep))
    a, b = number[lo[kept]], number[hi[kept]]
    r = np.arange(n, dtype=INDEX)
    e, d = np.zeros(len(codes)), np.zeros(nv)  # summed as in `_load`
    np.add.at(e, edge_id.ravel(), off.ravel())
    np.add.at(d, mesh.triangles.ravel(), diag.ravel())
    e, d = e[kept], d[keep]
    return sp.csr_matrix((np.concatenate((e, d, e)),
                          (np.concatenate((b, r, a)),
                           np.concatenate((a, r, b)))), shape=(n, n))


def assemble_rhs(mesh: Mesh, f: float) -> np.ndarray:
    """Load vector b_i = sum_T int_T f phi_i of a constant f, block by block;
    f = 1 gives the lumped mass int phi_i."""
    if not np.isscalar(f):
        raise ValueError("load must be a constant")
    return _load(mesh, float(f))


def inverse_load(u: P1Function, p: float) -> np.ndarray:
    """Load vector of (max(u, 0) / ||u||_inf)^{p-1}, the load of an
    inverse-iteration sweep, mapped in place block by block."""
    sup = sup_norm(u)

    def fmap(f):
        np.maximum(f, 0.0, out=f)
        f /= sup
        f **= p - 1.0
    return _load(u.mesh, u.coeffs, fmap)


#: Relative residual every solve of the splitting sweep is checked against
#: (see `plap.DCWorkspace.solve`).
SOLVE_RTOL = 1e-10


class DirichletFactor:
    """Cached sparse LU factorization of the interior stiffness block.

    Solves K u = b on interior vertices with u = 0 on boundary vertices:
    one factorization per mesh, then one cheap triangular solve per
    right-hand side.  Its load and solution live on the interior vertices,
    in the order of idx, the ascending INDEX numbers of the vertices off
    the boundary, so a caller holding vertex values gathers and scatters
    them itself.  The factor keeps idx and SuperLU's factors, not
    the matrix: `solve` is the bare triangular solve, and
    `plap.DCWorkspace.solve`, the one solve path of the splitting sweep,
    checks each solution against SOLVE_RTOL through the gradient it takes
    anyway (K = G^T |T| G on the interior vertices).

    The interior block is symmetric positive definite, so SuperLU runs in
    symmetric mode: a minimum-degree ordering of A^T + A and pivots taken
    from the diagonal, which keeps the fill of L + U well below that of the
    default column ordering.

    Relaxed supernodes are off (relax=1) and panels are one column wide
    (panel_size=1): refinement appends vertex numbers, and on such graded
    meshes SuperLU's defaults slow the factorization without saving fill.
    Over the 14 levels of the L-shape run at p = 2 (seed 7, one core of a
    2-core host; 62,033 unknowns and 3,116,334 nonzeros in L + U on the
    last), the factorizations took 1.45 s with the defaults, 0.84-0.94 s
    with relax=1 and 0.63-0.75 s with panel_size=1 as well, for the same
    fill.  relax=2 and relax=4 were far slower (18 s and 4.8 s on the last
    level alone), and panels of 3 or 5 columns no faster than one.  On
    uniform meshes the settings are neutral.
    """

    def __init__(self, A: sp.spmatrix, boundary: np.ndarray):
        """A is the symmetric interior block, its rows and columns those of
        the vertices not flagged in boundary, in ascending order (see
        `interior_stiffness`); a mesh without interior vertices, whose trial
        space is trivial, is rejected here.  No reference to A outlives the
        factorization."""
        boundary = np.asarray(boundary, dtype=bool)
        self.idx = np.arange(len(boundary), dtype=INDEX)[~boundary]
        if not len(self.idx):
            raise ValueError("mesh has no interior vertices; the trial space "
                             "is trivial")
        if A.shape != (len(self.idx), len(self.idx)):
            raise ValueError("matrix size must match the interior vertex "
                             "count")
        A = sp.csr_matrix(A)
        # A is symmetric, so its CSR arrays are those of its CSC form:
        # SuperLU gets them without a copy.
        self._lu = spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr),
                                           shape=A.shape),
                             permc_spec="MMD_AT_PLUS_A",
                             diag_pivot_thresh=0.0, relax=1, panel_size=1,
                             options=dict(SymmetricMode=True))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Interior solution, in the order of idx, for the interior load b;
        unchecked (see the class docstring)."""
        if len(b) != len(self.idx):
            raise ValueError("load length must match the interior vertex "
                             "count")
        return self._lu.solve(np.asarray(b, dtype=np.float64))


def grad(u: P1Function) -> np.ndarray:
    """Elementwise gradient of a P1 function, (nt, 2), in Fortran order:
    the product of `Mesh.gradient` with the coefficients, each component
    summing its three vertex terms in local order."""
    return (u.mesh.gradient @ u.coeffs).reshape(2, -1).T


def p_flux(field: np.ndarray, p: float) -> np.ndarray:
    """Nonlinear flux |w|^{p-2} w of a piecewise-constant vector field; zero
    rows map to zero (for p < 2 the singular factor is not evaluated)."""
    w = np.asarray(field, dtype=np.float64)
    x, y = w[..., 0], w[..., 1]
    n = np.sqrt(x * x + y * y)
    fac = np.zeros_like(n)
    nz = n > 0.0
    fac[nz] = n[nz] ** (p - 2.0)
    return fac[..., None] * w


def element_lp(u: P1Function, p: float) -> np.ndarray:
    """int_T |u|^p per triangle, (nt,), by the degree-5 rule, in blocks."""
    if not 1 < p < np.inf:
        raise ValueError("p must exceed 1 and be finite")
    out = np.empty(u.mesh.num_triangles)
    for s, vals in _at_quad(u.mesh, u.coeffs):
        np.abs(vals, out=vals)
        vals **= p
        out[s] = u.mesh.areas[s] * (vals @ DEGREE5_WEIGHTS)
    return out


def lp_norm(u: P1Function, p: float) -> float:
    """L^p norm of u by elementwise quadrature."""
    return float(element_lp(u, p).sum()) ** (1.0 / p)


def sup_norm(u: P1Function) -> float:
    """Max-norm of u; for P1 functions the maximum sits at a vertex."""
    return float(np.max(np.abs(u.coeffs))) if len(u.coeffs) else 0.0


def w1p_seminorm_p(u: P1Function, p: float) -> float:
    """The p-th power of the W^{1,p} seminorm: sum_T |T| |grad u|_T|^p (exact)."""
    if not 1 < p < np.inf:
        raise ValueError("p must exceed 1 and be finite")
    g = grad(u)
    x, y = g[:, 0], g[:, 1]
    return float(np.dot(u.mesh.areas, np.sqrt(x * x + y * y) ** p))


def rayleigh(u: P1Function, p: float) -> float:
    """Rayleigh quotient int |grad u|^p / int |u|^p."""
    denom = float(element_lp(u, p).sum())
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero function")
    return w1p_seminorm_p(u, p) / denom
