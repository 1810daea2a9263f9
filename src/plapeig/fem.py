"""P1 finite-element primitives on triangle meshes.

Covers the quadrature rule on the reference triangle, stiffness and load
assembly, the factorized homogeneous-Dirichlet solve, elementwise gradients,
and the p-dependent norms building the Rayleigh quotient.  Every element
integral uses the degree-5 symmetric rule DEGREE5, exact for polynomials of
degree at most 5.  The one integrand that is no such polynomial in general,
|u|^p, is integrated by `element_lp` alone, the one approximate integral:
the L^p norm, the Rayleigh quotient and the estimator's element term read it.

The stiffness and mass matrices are assembled in edge form: the element
matrices' diagonal entries are summed per vertex and their off-diagonal
entries per edge of `Mesh.edge_numbering`, with no sort of the 9 nt
element entries.  The same code builds the interior blocks of the
Dirichlet problem directly, on one CSR pattern, without the full matrices.

Piecewise-constant vector fields (gradients, fluxes, the splitting solver's
auxiliary fields) are plain (nt, 2) arrays, one 2-vector per triangle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .mesh import Mesh


class SolverError(RuntimeError):
    """Linear solve failed to reach its residual tolerance."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


@dataclass(frozen=True)
class QuadRule:
    """Quadrature on the reference triangle in barycentric coordinates.

    Weights sum to one; an integral over a physical triangle T is
    |T| * sum(w_q * f(x_q)).
    """

    points: np.ndarray   # (nq, 3) barycentric
    weights: np.ndarray  # (nq,)

    def __post_init__(self):
        pts = np.ascontiguousarray(self.points, dtype=np.float64)
        w = np.ascontiguousarray(self.weights, dtype=np.float64)
        pts.setflags(write=False)
        w.setflags(write=False)
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "weights", w)


# Symmetric 7-point rule, exact for polynomials of degree 5.
_S15 = np.sqrt(15.0)
_A1, _B1 = (9.0 + 2.0 * _S15) / 21.0, (6.0 - _S15) / 21.0
_A2, _B2 = (9.0 - 2.0 * _S15) / 21.0, (6.0 + _S15) / 21.0
_W1, _W2 = (155.0 - _S15) / 1200.0, (155.0 + _S15) / 1200.0
DEGREE5 = QuadRule(
    points=np.array([
        [1 / 3, 1 / 3, 1 / 3],
        [_A1, _B1, _B1], [_B1, _A1, _B1], [_B1, _B1, _A1],
        [_A2, _B2, _B2], [_B2, _A2, _B2], [_B2, _B2, _A2],
    ]),
    weights=np.array([9.0 / 40.0, _W1, _W1, _W1, _W2, _W2, _W2]))


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


def p1_at_quad(u: P1Function) -> np.ndarray:
    """Values of u at the quadrature points of every triangle, (nt, nq)."""
    nodal = u.coeffs[u.mesh.triangles]            # (nt, 3)
    return nodal @ DEGREE5.points.T


def assemble_stiffness(mesh: Mesh) -> sp.csr_matrix:
    """Stiffness matrix K_ij = sum_T |T| grad(phi_i) . grad(phi_j).

    Symmetric with zero row sums (constants lie in the kernel); positive
    definite once boundary rows/columns are eliminated.
    """
    return _edge_form(mesh, np.ones(mesh.num_vertices, dtype=bool),
                      _stiffness_entries)[0]


def assemble_mass(mesh: Mesh) -> sp.csr_matrix:
    """Mass matrix M_ij = sum_T int_T phi_i phi_j, elementwise
    |T|/12 (1 + delta_ij); c^T M c is the squared L2 norm of the P1
    function with coefficients c."""
    return _edge_form(mesh, np.ones(mesh.num_vertices, dtype=bool),
                      _mass_entries)[0]


def interior_blocks(mesh: Mesh) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """Interior blocks of the stiffness and mass matrices: their rows and
    columns of the vertices off the boundary, in ascending vertex order.
    The two share one CSR pattern: their index arrays are the same memory.
    """
    return tuple(_edge_form(mesh, ~mesh.boundary_vertex, _stiffness_entries,
                            _mass_entries))


def _stiffness_entries(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    areas = mesh.areas[:, None]  # raises on degenerate triangles
    g = mesh.basis_gradients
    gx, gy = g[:, :, 0], g[:, :, 1]
    # The edge opposite local vertex j joins local vertices j+1 and j+2.
    nxt, prv = [1, 2, 0], [2, 0, 1]
    return (areas * (gx * gx + gy * gy),
            areas * (gx[:, nxt] * gx[:, prv] + gy[:, nxt] * gy[:, prv]))


def _mass_entries(mesh: Mesh) -> tuple[np.ndarray, np.ndarray]:
    local = np.repeat(mesh.areas / 12.0, 3).reshape(-1, 3)
    return 2.0 * local, local


def _edge_form(mesh: Mesh, keep: np.ndarray,
               *element_entries) -> list[sp.csr_matrix]:
    """Symmetric matrices summing element matrices, one per item of
    element_entries, restricted to the rows and columns of the vertices
    flagged in keep (renumbered in ascending order), on one CSR pattern.

    An item maps the mesh to (diag, off), two (nt, 3) arrays: diag[t, i]
    at vertex triangles[t, i] and off[t, j] on the edge opposite local
    vertex j, summed per vertex and per edge of `mesh.edge_numbering`.

    The pattern is the kept diagonal plus both entries of every edge with
    two kept endpoints; entries that sum to zero stay stored.  The edge
    codes ascend, so listing the lower entries, the diagonal and the upper
    entries in that order already puts the columns of every row in
    ascending order, and the conversion to CSR sorts and sums nothing.  It
    runs once, on the entries' numbers, and leaves each where its entry
    belongs.
    """
    nv = mesh.num_vertices
    codes, edge_id, _, _ = mesh.edge_numbering
    lo, hi = np.divmod(codes, nv)
    kept = keep[lo] & keep[hi]
    number = np.cumsum(keep, dtype=np.int32) - 1
    n = int(np.count_nonzero(keep))
    a, b = number[lo[kept]], number[hi[kept]]
    r = np.arange(n, dtype=np.int32)
    pattern = sp.csr_matrix((np.arange(n + 2 * len(a)),
                             (np.concatenate((b, r, a)),
                              np.concatenate((a, r, b)))), shape=(n, n))
    matrices = []
    for entries in element_entries:
        diag, off = entries(mesh)
        e = np.bincount(edge_id.ravel(), weights=off.ravel(),
                        minlength=len(codes))[kept]
        d = np.bincount(mesh.triangles.ravel(), weights=diag.ravel(),
                        minlength=nv)[keep]
        matrices.append(sp.csr_matrix(
            (np.concatenate((e, d, e))[pattern.data], pattern.indices,
             pattern.indptr), shape=(n, n)))
    return matrices


def assemble_rhs(mesh: Mesh, f) -> np.ndarray:
    """Load vector b_i = sum_T int_T f phi_i.

    f is a constant or its values at the quadrature points, (nt, nq).
    """
    nt, nq = mesh.num_triangles, len(DEGREE5.weights)
    if np.isscalar(f):
        fq = np.full((nt, nq), float(f))
    else:
        fq = np.asarray(f, dtype=np.float64)
        if fq.shape != (nt, nq):
            raise ValueError(f"cannot interpret field of shape {fq.shape}; "
                             f"expected scalar or ({nt}, {nq})")
    # int_T f phi_i by quadrature; phi_i at a quad point is its barycentric
    # coordinate.  A matrix product is several times faster here than a
    # three-operand einsum.
    contrib = ((fq @ (DEGREE5.points * DEGREE5.weights[:, None]))
               * mesh.areas[:, None])
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)


#: Relative residual every factorized solve is checked against.
SOLVE_RTOL = 1e-10


class DirichletFactor:
    """Cached sparse LU factorization of the interior stiffness block.

    Solves K u = b on interior vertices with u = 0 on boundary vertices:
    one factorization per mesh, then one cheap triangular solve per
    right-hand side.  The interior block is symmetric positive definite, so
    SuperLU runs in symmetric mode: a minimum-degree ordering of A^T + A
    and pivots taken from the diagonal, which keeps the fill of L + U well
    below that of the default column ordering.

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

    Every solve guarantees a relative residual of at most SOLVE_RTOL on the
    interior block or raises SolverError carrying the achieved residual.
    """

    def __init__(self, A: sp.spmatrix, boundary: np.ndarray):
        """A is the symmetric interior block, its rows and columns those of
        the vertices not flagged in boundary, in ascending order (see
        `interior_blocks`)."""
        boundary = np.asarray(boundary, dtype=bool)
        self.idx = np.nonzero(~boundary)[0]
        if A.shape != (len(self.idx), len(self.idx)):
            raise ValueError("matrix size must match the interior vertex "
                             "count")
        self._A = A = sp.csr_matrix(A)
        self.n = len(boundary)
        # A is symmetric, so its CSR arrays are those of its CSC form:
        # SuperLU gets them without a copy.
        self._lu = (spla.splu(sp.csc_matrix((A.data, A.indices, A.indptr),
                                            shape=A.shape),
                              permc_spec="MMD_AT_PLUS_A",
                              diag_pivot_thresh=0.0, relax=1, panel_size=1,
                              options=dict(SymmetricMode=True))
                    if len(self.idx) else None)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solution on all vertices for a load b on all vertices."""
        u = np.zeros(self.n)
        u[self.idx] = self.solve_interior(np.asarray(b, dtype=np.float64)
                                          [self.idx])
        return u

    def solve_interior(self, b: np.ndarray) -> np.ndarray:
        """Solution on the interior vertices (in the order of idx) for a load
        b given on the interior vertices; a mesh without interior vertices
        has an empty, hence zero, load."""
        bnorm = np.linalg.norm(b)
        if bnorm == 0.0:
            return np.zeros(len(self.idx))
        x = self._lu.solve(b)
        res = np.linalg.norm(b - self._A @ x) / bnorm
        if res > SOLVE_RTOL:
            raise SolverError(f"factorized solve exceeded residual tolerance: "
                              f"{res:.3e}", residual=res)
        return x


def grad(u: P1Function) -> np.ndarray:
    """Elementwise gradient of a P1 function, (nt, 2)."""
    nodal = u.coeffs[u.mesh.triangles]
    return np.einsum("ti,tid->td", nodal, u.mesh.basis_gradients)


def p_flux(field: np.ndarray, p: float) -> np.ndarray:
    """Nonlinear flux |w|^{p-2} w of a piecewise-constant vector field.

    Zero rows map to zero for every p > 1 (the singular factor for p < 2 is
    never evaluated at zero).
    """
    w = np.asarray(field, dtype=np.float64)
    n = np.linalg.norm(w, axis=-1)
    fac = np.zeros_like(n)
    nz = n > 0.0
    fac[nz] = n[nz] ** (p - 2.0)
    return fac[..., None] * w


def element_lp(u: P1Function, p: float) -> np.ndarray:
    """int_T |u|^p for every triangle, (nt,), by the degree-5 rule."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    vals = p1_at_quad(u)
    np.abs(vals, out=vals)
    vals **= p
    return u.mesh.areas * (vals @ DEGREE5.weights)


def lp_norm(u: P1Function, p: float) -> float:
    """L^p norm of u by elementwise quadrature."""
    return float(element_lp(u, p).sum()) ** (1.0 / p)


def sup_norm(u: P1Function) -> float:
    """Max-norm of u; for P1 functions the maximum sits at a vertex."""
    return float(np.max(np.abs(u.coeffs))) if len(u.coeffs) else 0.0


def w1p_seminorm_p(u: P1Function, p: float) -> float:
    """The p-th power of the W^{1,p} seminorm: sum_T |T| |grad u|_T|^p (exact)."""
    if p <= 1:
        raise ValueError("p must exceed 1")
    gn = np.linalg.norm(grad(u), axis=1)
    return float(np.dot(u.mesh.areas, gn ** p))


def rayleigh(u: P1Function, p: float) -> float:
    """Rayleigh quotient int |grad u|^p / int |u|^p."""
    denom = float(element_lp(u, p).sum())
    if denom == 0.0:
        raise ValueError("Rayleigh quotient undefined for the zero function")
    return w1p_seminorm_p(u, p) / denom
