"""Independent reference computations used to check the package.

Everything here is deliberately written from first principles (exact
monomial integrals, Fourier series, closed-form radial profiles, exhaustive
subset search, tensorized Gauss rules) so the checks do not share code with
the implementation under test.
"""

import itertools
from dataclasses import fields
from math import factorial

import numpy as np
import scipy.sparse as sp
from scipy.optimize import minimize

from plapeig import fem, plap
from plapeig.driver import ConvergenceLog, LogRow
from plapeig.io import CSV_HEADER


def monomial_integral(a: int, b: int) -> float:
    """int over the reference triangle {(x,y): x,y >= 0, x + y <= 1} of
    x^a y^b = a! b! / (a + b + 2)!."""
    return factorial(a) * factorial(b) / factorial(a + b + 2)


def gauss_duffy_rule(m: int):
    """Tensorized Gauss-Legendre rule on the reference triangle via the
    collapsed-square map (x, y) = (s, t (1 - s)).

    Exact for all polynomials of total degree <= 2 m - 2; m = 6 integrates
    degree 10.  Returns (points (m*m, 2), weights) with weights summing to
    the triangle area 1/2.
    """
    nodes, weights = np.polynomial.legendre.leggauss(m)
    s = 0.5 * (nodes + 1.0)  # map [-1, 1] -> [0, 1]
    w = 0.5 * weights
    pts, ww = [], []
    for i in range(m):
        for j in range(m):
            x = s[i]
            y = s[j] * (1.0 - s[i])
            pts.append((x, y))
            ww.append(w[i] * w[j] * (1.0 - s[i]))  # Jacobian of the collapse
    return np.array(pts), np.array(ww)


def integrate_triangle(f, v0, v1, v2, m: int = 6) -> float:
    """Integrate f(x, y) over an arbitrary triangle with the Duffy rule."""
    ref_pts, ref_w = gauss_duffy_rule(m)
    v0, v1, v2 = (np.asarray(v) for v in (v0, v1, v2))
    jac = abs((v1[0] - v0[0]) * (v2[1] - v0[1])
              - (v2[0] - v0[0]) * (v1[1] - v0[1]))
    pts = v0 + ref_pts[:, :1] * (v1 - v0) + ref_pts[:, 1:] * (v2 - v0)
    # reference weights already carry the factor 1/2; jac is twice the area
    return float(jac * np.dot(ref_w, f(pts[:, 0], pts[:, 1])))


def quad_values_one_shot(u) -> np.ndarray:
    """Values of the P1 function u at the degree-5 quadrature points of
    every triangle, (nt, nq), in one product over all triangles: the
    reference the blocked quadrature of `fem` must equal bit for bit."""
    return np.take(u.coeffs, u.mesh.triangles) @ fem.DEGREE5_POINTS.T


def load_one_shot(mesh, fq) -> np.ndarray:
    """Load vector b_i = sum_T int_T f phi_i from the (nt, nq) values fq of
    f at the quadrature points, in one product over all triangles."""
    contrib = fq @ (fem.DEGREE5_POINTS * fem.DEGREE5_WEIGHTS[:, None])
    contrib *= mesh.areas[:, None]
    return np.bincount(mesh.triangles.ravel(), weights=contrib.ravel(),
                       minlength=mesh.num_vertices)


def constant_load_one_shot(mesh, f: float) -> np.ndarray:
    """Load vector of the constant f from an (nt, nq) array filled with f."""
    fq = np.full((mesh.num_triangles, len(fem.DEGREE5_WEIGHTS)), float(f))
    return load_one_shot(mesh, fq)


def inverse_load_one_shot(u, p: float) -> np.ndarray:
    """Load vector of (max(u, 0) / ||u||_inf)^{p-1} from u's (nt, nq)
    quadrature values, mapped in place."""
    f = quad_values_one_shot(u)
    np.maximum(f, 0.0, out=f)
    f /= np.max(np.abs(u.coeffs))
    f **= p - 1.0
    return load_one_shot(u.mesh, f)


def element_lp_one_shot(u, p: float) -> np.ndarray:
    """int_T |u|^p for every triangle, (nt,), from u's (nt, nq) quadrature
    values."""
    vals = quad_values_one_shot(u)
    np.abs(vals, out=vals)
    vals **= p
    return u.mesh.areas * (vals @ fem.DEGREE5_WEIGHTS)


def solve_dirichlet_dense(K, b, boundary) -> np.ndarray:
    """Solution of K u = b with u = 0 at the flagged boundary vertices, by a
    dense direct solve of the interior block (small meshes only)."""
    inner = np.nonzero(~np.asarray(boundary, dtype=bool))[0]
    u = np.zeros(len(boundary))
    if len(inner):
        A = K.toarray()[np.ix_(inner, inner)]
        u[inner] = np.linalg.solve(A, np.asarray(b, dtype=float)[inner])
    return u


def grid_corners_loop(cells: int, h: float, keep) -> np.ndarray:
    """Corner coordinates (nt, 3, 2) of a structured grid mesh by a loop over
    the cells in scan order (rows upward, each left to right): a cell whose
    centre passes keep(cx, cy) gives (se, ne, sw) and (nw, sw, ne), with
    the corner of grid index (i, j) at (i * h, j * h)."""
    out = []
    for j in range(cells):
        for i in range(cells):
            if keep((i + 0.5) * h, (j + 0.5) * h):
                sw, se = (i * h, j * h), ((i + 1) * h, j * h)
                ne, nw = ((i + 1) * h, (j + 1) * h), (i * h, (j + 1) * h)
                out += [(se, ne, sw), (nw, sw, ne)]
    return np.array(out)


def min_angle(mesh) -> float:
    """Smallest interior angle over all triangles of a mesh, in radians, from
    the law of cosines on the three side lengths."""
    corners = mesh.vertices[mesh.triangles]  # (nt, 3, 2)
    sides = np.stack([np.linalg.norm(corners[:, (i + 1) % 3]
                                     - corners[:, (i + 2) % 3], axis=1)
                      for i in range(3)], axis=1)  # side opposite corner i
    worst = np.inf
    for i in range(3):
        a, b, c = sides[:, i], sides[:, (i + 1) % 3], sides[:, (i + 2) % 3]
        cos = np.clip((b * b + c * c - a * a) / (2.0 * b * c), -1.0, 1.0)
        worst = min(worst, float(np.arccos(cos).min()))
    return worst


def square_torsion_center(terms: int = 99) -> float:
    """Value at (1/2, 1/2) of the solution of -lap u = 1 on the unit square
    with zero boundary values, from the double sine series."""
    total = 0.0
    for mm in range(1, terms + 1, 2):
        for nn in range(1, terms + 1, 2):
            sign = (-1) ** ((mm - 1) // 2 + (nn - 1) // 2)
            total += sign / (mm * nn * (mm * mm + nn * nn))
    return 16.0 / np.pi ** 4 * total


def disk_torsion(r, p: float):
    """Radial solution of -div(|grad u|^{p-2} grad u) = 1 on the unit disk:
    u(r) = (p-1)/p (1/2)^{1/(p-1)} (1 - r^{p/(p-1)})."""
    r = np.asarray(r, dtype=float)
    e = 1.0 / (p - 1.0)
    return (p - 1.0) / p * 0.5 ** e * (1.0 - r ** (p / (p - 1.0)))


def min_bulk_subset_size(values: np.ndarray, target: float) -> int:
    """Smallest cardinality of a subset with sum >= target, by exhaustive
    search (use only for short vectors)."""
    n = len(values)
    if target <= 0.0:
        return 0
    best = None
    for k in range(1, n + 1):
        for combo in itertools.combinations(range(n), k):
            if values[list(combo)].sum() >= target:
                best = k
                break
        if best is not None:
            break
    return best if best is not None else n + 1


# Degree-5 symmetric triangle rule, written out independently of the
# package (exact rational/surd constants).
def degree5_rule():
    s15 = 15.0 ** 0.5
    pts = [(1 / 3.0, 1 / 3.0)]
    wts = [9 / 40.0]
    a, b = (9.0 + 2.0 * s15) / 21.0, (6.0 - s15) / 21.0
    w = (155.0 - s15) / 1200.0
    pts += [(a, b), (b, a), (b, b)]
    wts += [w, w, w]
    a, b = (9.0 - 2.0 * s15) / 21.0, (6.0 + s15) / 21.0
    w = (155.0 + s15) / 1200.0
    pts += [(a, b), (b, a), (b, b)]
    wts += [w, w, w]
    return np.array(pts), np.array(wts)  # barycentric lambda_1, lambda_2


def residual_q_power_direct(mesh_pts, tri, coeffs, mu: float, p: float,
                            element: int) -> float:
    """Direct quadrature of h_T^q int_T |mu |u|^{p-2} u|^q without using the
    exponent identity (p-1) q = p: evaluate the residual via |u|^{p-1} and
    raise it to q afterwards."""
    q = p / (p - 1.0)
    i0, i1, i2 = tri[element]
    v0, v1, v2 = mesh_pts[i0], mesh_pts[i1], mesh_pts[i2]
    area = 0.5 * abs((v1[0] - v0[0]) * (v2[1] - v0[1])
                     - (v2[0] - v0[0]) * (v1[1] - v0[1]))
    lam, w = degree5_rule()
    u_vals = (coeffs[i0] * (1.0 - lam[:, 0] - lam[:, 1])
              + coeffs[i1] * lam[:, 0] + coeffs[i2] * lam[:, 1])
    residual = abs(mu) * np.abs(u_vals) ** (p - 1.0)
    integral = area * np.dot(w, residual ** q)
    h_t = area ** 0.5
    return h_t ** q * integral


def read_convergence_csv(path: str) -> ConvergenceLog:
    """Parse a convergence CSV back into a ConvergenceLog (stop_reason is
    not stored in the file and comes back empty)."""
    with open(path, "r", encoding="ascii") as fp:
        raw = fp.read().splitlines()
    if not raw or raw[0] != CSV_HEADER:
        raise ValueError("unrecognized convergence CSV header")
    out = ConvergenceLog()
    types = [int, int, int, float, float, float, int, int, int, float]
    names = [f.name for f in fields(LogRow)]
    for line in raw[1:]:
        parts = line.split(",")
        if len(parts) != len(types):
            raise ValueError(f"malformed CSV row: {line!r}")
        out.rows.append(LogRow(**{n: t(s) for n, t, s
                                  in zip(names, types, parts)}))
    return out


def row_by_row_vtk(mesh, u):
    """The legacy VTK text of write_vtk, formatted one row at a time from
    NumPy scalars."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    lines = (["# vtk DataFile Version 3.0", "plapeig mesh", "ASCII",
              "DATASET UNSTRUCTURED_GRID", f"POINTS {nv} double"]
             + [f"{x:.17g} {y:.17g} 0" for x, y in mesh.vertices]
             + [f"CELLS {nt} {4 * nt}"]
             + [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
             + [f"CELL_TYPES {nt}"] + ["5"] * nt)
    if u is not None:
        lines += ([f"POINT_DATA {nv}", "SCALARS u double 1",
                   "LOOKUP_TABLE default"]
                  + [f"{v:.17g}" for v in u.coeffs])
    return "\n".join(lines) + "\n"


def row_by_row_mesh(mesh):
    """The text of save_mesh, formatted one row at a time from NumPy
    scalars."""
    lines = [f"{mesh.num_vertices} {mesh.num_triangles}"]
    lines += [f"{x:.17g} {y:.17g} {int(b)}"
              for (x, y), b in zip(mesh.vertices, mesh.boundary_vertex)]
    lines += [f"{i} {j} {k}" for i, j, k in mesh.triangles]
    return "\n".join(lines) + "\n"


def scatter_assembly(mesh, local):
    """Global (nv, nv) CSR matrix summing the (nt, 3, 3) element matrices,
    by a COO scatter of all 9 nt entries and the duplicate-summing
    conversion to CSR."""
    tri = mesh.triangles
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    nv = mesh.num_vertices
    return sp.coo_matrix((np.asarray(local).ravel(), (rows, cols)),
                         shape=(nv, nv)).tocsr()


def assemble_mass(mesh):
    """Mass matrix M_ij = sum_T int_T phi_i phi_j, elementwise
    |T|/12 (1 + delta_ij), on all vertices, by the scatter assembly;
    c^T M c is the squared L2 norm of the P1 function with coefficients
    c."""
    return scatter_assembly(mesh, mass_local(mesh))


def interior_blocks(mesh):
    """(stiffness, mass) interior blocks, the full matrices sliced to the
    rows and then the columns of the vertices off the boundary."""
    idx = np.nonzero(~mesh.boundary_vertex)[0]
    return tuple(A[idx][:, idx] for A in (fem.assemble_stiffness(mesh),
                                          assemble_mass(mesh)))


def stiffness_local(mesh):
    """(nt, 3, 3) element stiffness matrices |T| grad(phi_i) . grad(phi_j),
    from the edge vectors: grad(phi_i) is the edge opposite vertex i turned
    by 90 degrees and divided by 2 |T|."""
    pts = mesh.vertices[mesh.triangles]
    edges = np.stack([pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
                      for i in range(3)], axis=1)  # (nt, 3, 2)
    area = 0.5 * (edges[:, 2, 0] * edges[:, 0, 1]
                  - edges[:, 2, 1] * edges[:, 0, 0])
    dots = np.einsum("tid,tjd->tij", edges, edges)
    return dots / (4.0 * area)[:, None, None]


def mass_local(mesh):
    """(nt, 3, 3) element mass matrices |T|/12 (1 + delta_ij)."""
    return mesh.areas[:, None, None] / 12.0 * (1.0 + np.eye(3))


def grad_take_loop(u):
    """Elementwise gradient of a P1 function, (nt, 2), from gathered vertex
    values: per component, c0 g0 + c1 g1, then + c2 g2, in local order."""
    c0, c1, c2 = np.take(u.coeffs, u.mesh.triangles.T)
    out = np.empty((2, len(c0)))
    for d in range(2):
        g = u.mesh.basis_gradients[..., d]
        np.add(c0 * g[:, 0], c1 * g[:, 1], out=out[d])
        out[d] += c2 * g[:, 2]
    return out.T


def field_load_loop(mesh, g):
    """-sum_T |T| g_T . grad(phi_i), one triangle at a time."""
    out = np.zeros(mesh.num_vertices)
    for t, (i0, i1, i2) in enumerate(mesh.triangles):
        p = mesh.vertices[[i0, i1, i2]]
        area = 0.5 * ((p[1, 0] - p[0, 0]) * (p[2, 1] - p[0, 1])
                      - (p[2, 0] - p[0, 0]) * (p[1, 1] - p[0, 1]))
        for k, i in enumerate((i0, i1, i2)):
            e = p[(k + 2) % 3] - p[(k + 1) % 3]
            grad_phi = np.array([-e[1], e[0]]) / (2.0 * area)
            out[i] -= area * (g[t, 0] * grad_phi[0] + g[t, 1] * grad_phi[1])
    return out


def edge_numbering_unique(mesh):
    """(codes, edge_id, counts) of the edges by np.unique over the vertex
    pairs, smaller index first, of the edge opposite each local vertex.  The
    codes are formed in int64 whatever the index type of the mesh: in int32
    they would wrap once nv > 46,340."""
    tri = mesh.triangles.astype(np.int64)
    a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]
    flat = np.minimum(a, b) * mesh.num_vertices + np.maximum(a, b)
    codes, inverse, counts = np.unique(flat.ravel(), return_inverse=True,
                                       return_counts=True)
    return codes, inverse.reshape(tri.shape), counts


def interior_edges_two_sorts(mesh):
    """(int_vertices, int_tri_plus, int_tri_minus, int_normals,
    int_lengths) of the interior edges: a second stable sort of the edge
    numbers of np.unique groups the occurrences of each edge in triangle
    order, and the first occurrence is the plus side."""
    _, edge_id, counts = edge_numbering_unique(mesh)
    tri = mesh.triangles
    a, b = tri[:, [1, 2, 0]], tri[:, [2, 0, 1]]
    order = np.argsort(edge_id.ravel(), kind="stable")
    first = np.concatenate(([0], np.cumsum(counts)[:-1]))[counts == 2]
    t_plus, j_plus = np.divmod(order[first], 3)
    t_minus = order[first + 1] // 3
    va, vb = a[t_plus, j_plus], b[t_plus, j_plus]
    evec = mesh.vertices[vb] - mesh.vertices[va]
    lengths = np.sqrt((evec * evec).sum(axis=1))
    normals = np.column_stack((evec[:, 1], -evec[:, 0])) / lengths[:, None]
    return np.column_stack((va, vb)), t_plus, t_minus, normals, lengths


def dc_sweep_plain(mesh, f, p: float, eps_n: float, max_iter: int,
                   seed: int = plap.DEFAULT_SEED, init=None):
    """The decomposition-coordination iteration without acceleration, on
    full vertex vectors, from the state init = w (nu = nu_update(w, p),
    xi = w - nu) or else the seeded random fields (xi, nu); returns
    (vertex values, sweeps) at the first sweep whose relative change of u
    in the lumped-mass L2 norm is below eps_n (None for the values if
    max_iter is reached).  Every sweep solves.

    Each sweep solves K u = b_f - div(xi - nu) with the package's
    factorization, then sets w = xi + grad u, nu = nu_update(w, p),
    xi = w - nu.  The field load is scattered triangle by triangle and the
    lumped mass of a vertex is |T|/3 summed over its triangles; the solve's
    interior load and solution are gathered from and scattered to the
    vertex vectors here."""
    factor = fem.DirichletFactor(interior_blocks(mesh)[0],
                                 mesh.boundary_vertex)
    lumped = np.bincount(mesh.triangles.ravel(),
                         weights=np.repeat(mesh.areas / 3.0, 3),
                         minlength=mesh.num_vertices)
    weighted = mesh.areas[:, None, None] * mesh.basis_gradients  # (nt, 3, 2)
    b_f = fem.assemble_rhs(mesh, f)
    if init is None:
        xi, nu = plap.random_fields(mesh, seed)
    else:
        nu = plap.nu_update(init, p)
        xi = init - nu
    u_prev = None
    for n in range(1, max_iter + 1):
        b = b_f.copy()
        np.add.at(b, mesh.triangles,
                  -np.einsum("tid,td->ti", weighted, xi - nu))
        u = np.zeros(mesh.num_vertices)
        u[factor.idx] = factor.solve(b[factor.idx])
        w = xi + fem.grad(fem.P1Function(mesh, u))
        nu = plap.nu_update(w, p)
        xi = w - nu
        if u_prev is not None:
            d = u - u_prev
            base = np.sqrt(u_prev @ (lumped * u_prev))
            if np.sqrt(d @ (lumped * d)) < eps_n * base:
                return u, n
        u_prev = u
    return None, max_iter


def square_cheeger_bound(p: float) -> float:
    """Cheeger's lower bound (h / p)^p on the first Dirichlet eigenvalue of
    the p-Laplacian on the unit square.  The Cheeger set is the square with
    its corners rounded by circular arcs of radius r = 1 / h; its area
    1 - (4 - pi) r^2 equals r times its perimeter 4 - (8 - 2 pi) r, so r is
    the smaller root of (4 - pi) r^2 - 4 r + 1 = 0."""
    a = 4.0 - np.pi
    r = min(np.roots([a, -4.0, 1.0]).real)
    return (1.0 / (r * p)) ** p


def rayleigh_minimum(mesh, p: float) -> float:
    """Minimum of the package's discrete Rayleigh quotient over the P1
    functions that vanish on the boundary: the discrete first eigenvalue,
    computed with no solver code.

    R(c) = sum_T |T| |grad u|^p / sum_T |T| sum_q w_q |u(x_q)|^p on the
    interior coefficients c, with the degree-5 rule fem.DEGREE5_POINTS and
    DEGREE5_WEIGHTS that fem.element_lp uses.  Its gradient is exact:
    p |T| |grad u|^{p-2} grad u . grad(phi_i) for the numerator and
    p |T| sum_q w_q |u_q|^{p-2} u_q phi_i(x_q) for the denominator.
    L-BFGS-B (maxcor 30, ftol 1e-16, gtol 1e-12) starts from 1 on every
    interior vertex.  Gradients of the hat functions come from the edge
    vectors, as in stiffness_local."""
    tri = mesh.triangles
    pts = mesh.vertices[tri]
    edges = np.stack([pts[:, (i + 2) % 3] - pts[:, (i + 1) % 3]
                      for i in range(3)], axis=1)  # (nt, 3, 2)
    area2 = edges[:, 2, 0] * edges[:, 0, 1] - edges[:, 2, 1] * edges[:, 0, 0]
    hat = np.stack((-edges[..., 1], edges[..., 0]), axis=-1) \
        / area2[:, None, None]  # grad(phi_i), (nt, 3, 2)
    area = 0.5 * area2
    bary, weights = fem.DEGREE5_POINTS, fem.DEGREE5_WEIGHTS
    interior = np.nonzero(~mesh.boundary_vertex)[0]
    nv = mesh.num_vertices

    def quotient(c):
        u = np.zeros(nv)
        u[interior] = c
        ut = u[tri]  # (nt, 3)
        g = np.einsum("ti,tid->td", ut, hat)
        gn = np.sqrt((g * g).sum(axis=1))
        vals = ut @ bary.T  # (nt, nq)
        av = np.abs(vals)
        num = float(area @ gn ** p)
        den = float(area @ (av ** p @ weights))
        # |g|^{p-2} g and |v|^{p-2} v, zero where g or v vanishes
        gs = np.zeros_like(gn)
        np.power(gn, p - 2.0, out=gs, where=gn > 0.0)
        dnum = p * np.einsum("t,td,tid->ti", area * gs, g, hat)
        vs = np.sign(vals) * av ** (p - 1.0)
        dden = p * area[:, None] * ((vs * weights) @ bary)  # (nt, 3)
        grad = np.bincount(tri.ravel(), weights=(dnum - num / den * dden)
                           .ravel(), minlength=nv) / den
        return num / den, grad[interior]

    res = minimize(quotient, np.ones(len(interior)), jac=True,
                   method="L-BFGS-B",
                   options={"maxcor": 30, "ftol": 1e-16, "gtol": 1e-12,
                            "maxiter": 15000, "maxfun": 30000})
    return float(res.fun)


#: mu of `iiss` on generate_unit_square(8) with the default seed, converged
#: tightly: iiss(generate_unit_square(8), p, eps_m=1e-11, eps_n=1e-11,
#: max_m=1000, max_dc=20000).mu_rayleigh (16 inverse sweeps and 289 DC
#: sweeps at p = 3; 15 and 1,501 at p = 8).
SQUARE8_TIGHT_MU = {3.0: 67.48228923944153, 8.0: 10075.7640766391}


#: The discrete first eigenvalue at p = 1.2, the minimum of the discrete
#: Rayleigh quotient, by mesh: rayleigh_minimum(mesh, 1.2) rounded to 12
#: decimals, for generate_unit_square(8), generate_unit_square(16) and
#: generate_lshape(4).  L-BFGS-B reached the same minimum from the interior
#: indicator, from sin(pi x) sin(pi y) and from the iiss iterate, and iiss
#: run tight (eps_m = eps_n = 1e-11, up to 50,000 DC sweeps) reaches it to
#: -5.8e-14 on the 8 x 8 square, 7.0e-14 on the 16 x 16 square and 0 on
#: the L-shape.
DISCRETE_MIN_MU = {"square8": 6.463601454827, "square16": 6.271596667541,
                   "lshape4": 4.351853330394}


#: The first Dirichlet eigenvalue of the Laplacian on the L-shape of
#: `generate_lshape`, three unit squares (area 3): 9.6397238440219
#: (Trefethen & Betcke, "Computed eigenmodes of planar regions", Contemp.
#: Math. 412, 2006).
LSHAPE_LAMBDA_REF = 9.6397238440219


#: Counterclockwise triangulations that are not conforming 2-manifolds, one
#: defect each: kind -> (vertices, triangles, part of the message of the
#: MeshConformityError that check_conforming raises).
NONCONFORMING = {
    # the diagonal midpoint of the unit square hangs on one side
    "hanging_node": ([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                      [0.5, 0.5]],
                     [[1, 2, 0], [4, 3, 0], [2, 3, 4]],
                     "not a closed polygonal curve"),
    # edge (0, 1) is held by one triangle below it and two above it
    "overshared_edge": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, -1.0],
                         [0.5, 2.0]],
                        [[0, 1, 2], [1, 0, 3], [0, 1, 4]],
                        "more than two triangles"),
    # two overlapping triangles both run along edge (0, 1) from 0 to 1
    "same_direction": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]],
                       [[0, 1, 2], [0, 1, 3]],
                       "in the same direction"),
    # two triangles that meet only at vertex 0
    "pinched_vertex": ([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0],
                        [0.0, -1.0]],
                       [[0, 1, 2], [0, 3, 4]],
                       "not a closed polygonal curve"),
}
