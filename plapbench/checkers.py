"""Independent checks of plapeig outputs.

Nothing here imports plapeig.  Every check works on plain arrays (vertex
coordinates, triangle indices, vertex values) or on the files the CLI
writes, and recomputes what it needs from first principles: its own P1
gradients, a collapsed-square (Duffy) Gauss rule, its own stiffness and
consistent mass matrices, and its own edge counting.

Each check returns a `Check(name, ok, detail)`; callers collect them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

#: First Dirichlet eigenvalue of the Laplacian on the L-shape (0,2)^2 minus
#: the top-right unit square (Trefethen & Betcke's reference value).
LSHAPE_LAMBDA = 9.6397238440219

#: Cheeger constant of the unit square, (4 - pi) / (2 - sqrt(pi)).
SQUARE_CHEEGER = (4.0 - math.pi) / (2.0 - math.sqrt(math.pi))

#: Polygons (counterclockwise corner lists) of the polygonal domains.
DOMAIN_CORNERS = {
    "square": [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)],
    "lshape": [(0.0, 0.0), (2.0, 0.0), (2.0, 1.0), (1.0, 1.0), (1.0, 2.0),
               (0.0, 2.0)],
}

#: Vertex values of an eigenfunction may undershoot zero by at most this.
UNDERSHOOT_TOL = 1e-10

#: Relative gap allowed between the reported mu and the Rayleigh quotient
#: recomputed here.  Where the program's degree-5 rule integrates |u|^p
#: exactly (integer p <= 5, u >= 0 per element) the two agree to roundoff.
#: Otherwise the gap is the program's own quadrature error for |u|^p.
RQ_TOL_EXACT = 1e-9
RQ_TOL_INEXACT = 1e-4

#: Relative gap allowed between mu at p = 2 and the smallest eigenvalue of
#: the discrete generalized eigenproblem K x = lambda M x on the same mesh.
EIGSH_TOL = 1e-8

#: Nested meshes: mu may not grow between levels by more than this share.
MONOTONE_TOL = 1e-10


@dataclass
class Check:
    name: str
    ok: bool
    detail: str = ""


# --------------------------------------------------------------- readers


def read_vtk(path: str) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Parse a legacy ASCII VTK unstructured grid of triangles.

    Returns (vertices (nv, 2), triangles (nt, 3), vertex scalars or None).
    """
    with open(path, "r", encoding="ascii") as fp:
        tokens = fp.read().split()
    pos = tokens.index("POINTS")
    nv = int(tokens[pos + 1])
    start = pos + 3
    xyz = np.array(tokens[start:start + 3 * nv], dtype=np.float64)
    vertices = xyz.reshape(nv, 3)[:, :2].copy()
    pos = tokens.index("CELLS", start + 3 * nv)
    nt = int(tokens[pos + 1])
    start = pos + 3
    cells = np.array(tokens[start:start + 4 * nt], dtype=np.int64).reshape(nt, 4)
    if np.any(cells[:, 0] != 3):
        raise ValueError("VTK cell that is not a triangle")
    triangles = cells[:, 1:].copy()
    pos = tokens.index("CELL_TYPES", start + 4 * nt)
    types = np.array(tokens[pos + 2:pos + 2 + nt], dtype=np.int64)
    if np.any(types != 5):
        raise ValueError("VTK cell type other than VTK_TRIANGLE")
    values = None
    if "POINT_DATA" in tokens[pos:]:
        pos = tokens.index("LOOKUP_TABLE", pos)
        values = np.array(tokens[pos + 2:pos + 2 + nv], dtype=np.float64)
        if len(values) != nv:
            raise ValueError("VTK point data shorter than the point list")
    return vertices, triangles, values


CSV_COLUMNS = ("k", "vertices", "elements", "mu", "lambda_iiss", "eta",
               "iiss_iters", "dc_iters", "marked", "seconds")


def read_convergence_csv(path: str) -> dict[str, np.ndarray]:
    """Parse convergence.csv into one float array per column."""
    with open(path, "r", encoding="ascii") as fp:
        lines = fp.read().splitlines()
    if not lines or tuple(lines[0].split(",")) != CSV_COLUMNS:
        raise ValueError("unexpected convergence.csv header")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    if not rows or any(len(r) != len(CSV_COLUMNS) for r in rows):
        raise ValueError("convergence.csv has no rows or a ragged row")
    table = np.array(rows)
    return {name: table[:, j] for j, name in enumerate(CSV_COLUMNS)}


# ------------------------------------------------------ P1 calculus


def _signed_areas(vertices: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    p0, p1, p2 = (vertices[triangles[:, i]] for i in range(3))
    e1, e2 = p1 - p0, p2 - p0
    return 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])


def _local_gradients(vertices: np.ndarray, triangles: np.ndarray,
                     local: np.ndarray) -> np.ndarray:
    """Elementwise gradient of the linear function taking the values
    local (nt, 3) at the corners: solve J g = du, where the rows of J are
    the two edges leaving local vertex 0."""
    p0, p1, p2 = (vertices[triangles[:, i]] for i in range(3))
    jac = np.stack((p1 - p0, p2 - p0), axis=1)
    du = np.stack((local[:, 1] - local[:, 0], local[:, 2] - local[:, 0]),
                  axis=1)
    return np.linalg.solve(jac, du[..., None])[..., 0]


def duffy_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre tensor rule on the reference triangle through the
    collapse lambda = (1 - s, s (1 - t), s t) of the unit square.

    Returns barycentric points (n*n, 3) and weights summing to one; exact
    for polynomials of total degree <= 2 n - 2.
    """
    x, w = np.polynomial.legendre.leggauss(n)
    x = 0.5 * (x + 1.0)
    w = 0.5 * w
    s, t = np.meshgrid(x, x, indexing="ij")
    ws = np.outer(w, w) * s * 2.0      # Jacobian 2 s of the collapse
    bary = np.column_stack(((1.0 - s).ravel(), (s * (1.0 - t)).ravel(),
                            (s * t).ravel()))
    return bary, ws.ravel()


def rayleigh_quotient(vertices: np.ndarray, triangles: np.ndarray,
                      values: np.ndarray, p: float, n: int = 10) -> float:
    """int |grad u|^p / int |u|^p of the P1 interpolant of `values`.

    The gradient term is exact (the gradient is constant per element); the
    denominator uses the 10 x 10 Duffy rule, exact for |u|^p = u^p with
    integer p <= 18 on elements where u keeps its sign.
    """
    areas = np.abs(_signed_areas(vertices, triangles))
    g = _local_gradients(vertices, triangles, values[triangles])
    num = float(np.dot(areas, np.hypot(g[:, 0], g[:, 1]) ** p))
    bary, w = duffy_rule(n)
    at_q = values[triangles] @ bary.T                    # (nt, nq)
    den = float(np.dot(areas, np.abs(at_q) ** p @ w))
    return num / den


def stiffness_mass(vertices: np.ndarray, triangles: np.ndarray):
    """P1 stiffness and consistent mass matrices (CSR)."""
    areas = np.abs(_signed_areas(vertices, triangles))
    nt = len(triangles)
    hats = np.stack([_local_gradients(vertices, triangles,
                                      np.tile(np.eye(3)[j], (nt, 1)))
                     for j in range(3)], axis=1)           # (nt, 3, 2)
    k_loc = np.einsum("tid,tjd->tij", hats, hats) * areas[:, None, None]
    m_loc = (np.eye(3) + 1.0)[None] * (areas / 12.0)[:, None, None]
    rows = np.repeat(triangles, 3, axis=1).ravel()
    cols = np.tile(triangles, (1, 3)).ravel()
    nv = len(vertices)
    k = sp.csr_matrix((k_loc.ravel(), (rows, cols)), shape=(nv, nv))
    m = sp.csr_matrix((m_loc.ravel(), (rows, cols)), shape=(nv, nv))
    return k, m


def boundary_vertices(triangles: np.ndarray, nv: int) -> np.ndarray:
    """Vertices on edges that belong to exactly one triangle."""
    edges = np.sort(np.concatenate((triangles[:, [0, 1]], triangles[:, [1, 2]],
                                    triangles[:, [2, 0]])), axis=1)
    uniq, counts = np.unique(edges, axis=0, return_counts=True)
    flags = np.zeros(nv, dtype=bool)
    flags[uniq[counts == 1].ravel()] = True
    return flags


def smallest_eigenvalue_p2(vertices: np.ndarray,
                           triangles: np.ndarray) -> float:
    """Smallest eigenvalue of K x = lambda M x on the interior vertices
    (shift-invert Lanczos about zero)."""
    k, m = stiffness_mass(vertices, triangles)
    interior = np.nonzero(~boundary_vertices(triangles, len(vertices)))[0]
    ki = k[interior][:, interior].tocsc()
    mi = m[interior][:, interior].tocsc()
    vals = spla.eigsh(ki, k=1, M=mi, sigma=0.0, which="LM", tol=1e-14,
                      return_eigenvectors=False)
    return float(vals[0])


# ------------------------------------------------------------- checks


def check_rayleigh(vertices, triangles, values, p: float, mu: float,
                   label: str = "") -> Check:
    """The reported mu equals the Rayleigh quotient of the eigenfunction."""
    rq = rayleigh_quotient(vertices, triangles, values, p)
    exact = float(p).is_integer() and p <= 5
    tol = RQ_TOL_EXACT if exact else RQ_TOL_INEXACT
    gap = abs(mu - rq) / rq
    return Check(f"{label}mu equals the Rayleigh quotient", gap <= tol,
                 f"mu={mu:.12g} rq={rq:.12g} gap={gap:.1e} tol={tol:.0e}")


def check_p2_eigenproblem(vertices, triangles, mu: float,
                          label: str = "") -> Check:
    """At p = 2, mu is the smallest discrete eigenvalue."""
    lam = smallest_eigenvalue_p2(vertices, triangles)
    gap = (mu - lam) / lam
    ok = -EIGSH_TOL <= gap <= EIGSH_TOL
    return Check(f"{label}p=2 mu equals the generalized eigenproblem", ok,
                 f"mu={mu:.12g} eigsh={lam:.12g} gap={gap:.1e}")


def check_nonnegative(values, label: str = "") -> Check:
    low = float(np.min(values))
    return Check(f"{label}eigenfunction >= -{UNDERSHOOT_TOL:g}",
                 low >= -UNDERSHOOT_TOL, f"min vertex value {low:.3e}")


def check_cheeger_square(mu: float, p: float, label: str = "") -> Check:
    """Cheeger's inequality on the unit square: mu >= (h / p)^p."""
    bound = (SQUARE_CHEEGER / p) ** p
    return Check(f"{label}mu >= Cheeger bound", mu >= bound,
                 f"mu={mu:.8g} bound={bound:.6g}")


def check_monotone(mu_column: np.ndarray, label: str = "") -> Check:
    """mu is non-increasing along nested meshes."""
    mu = np.asarray(mu_column, dtype=np.float64)
    rise = float(np.max(np.diff(mu) / mu[:-1])) if len(mu) > 1 else -np.inf
    ok = bool(np.all(np.isfinite(mu))) and rise <= MONOTONE_TOL
    return Check(f"{label}mu column non-increasing", ok,
                 f"{len(mu)} levels, largest relative rise {rise:.1e}")


def check_lshape_reference(mu: float, vertices: int, full_size: bool,
                           label: str = "") -> Check:
    """mu bounds the L-shape eigenvalue from above; at full size it is
    within 1e-3 of it on at least 50,000 vertices."""
    rel = (mu - LSHAPE_LAMBDA) / LSHAPE_LAMBDA
    ok = mu >= LSHAPE_LAMBDA
    if full_size:
        ok = ok and rel <= 1e-3 and vertices >= 50_000
    return Check(f"{label}L-shape mu vs reference {LSHAPE_LAMBDA}", ok,
                 f"mu={mu:.10g} rel={rel:.2e} vertices={vertices}")


def _on_boundary(points: np.ndarray, corners) -> np.ndarray:
    """Whether each point lies on a side of the polygon."""
    on = np.zeros(len(points), dtype=bool)
    c = np.asarray(corners, dtype=np.float64)
    for i in range(len(c)):
        a, b = c[i], c[(i + 1) % len(c)]
        d = b - a
        rel = points - a
        cross = rel[:, 0] * d[1] - rel[:, 1] * d[0]
        along = (rel @ d) / (d @ d)
        on |= (np.abs(cross) <= 1e-12) & (along >= -1e-12) & (along <= 1 + 1e-12)
    return on


def mesh_checks(vertices: np.ndarray, triangles: np.ndarray, domain: str,
                label: str = "") -> list[Check]:
    """Conformity, Euler characteristic, orientation, area and angles of a
    newest-vertex-bisection mesh of a polygonal domain."""
    out = []
    nv, nt = len(vertices), len(triangles)
    # Directed edges: a conforming orientable mesh uses each interior edge
    # once in each direction and each boundary edge once.
    directed = np.concatenate((triangles[:, [1, 2]], triangles[:, [2, 0]],
                               triangles[:, [0, 1]]))
    code = directed[:, 0] * nv + directed[:, 1]
    rev = directed[:, 1] * nv + directed[:, 0]
    repeated = len(np.unique(code)) != len(code)
    has_twin = np.isin(code, rev)
    lone = directed[~has_twin]
    und = np.unique(np.sort(directed, axis=1), axis=0)
    n_edges = len(und)
    corners = DOMAIN_CORNERS[domain]
    lone_ok = np.all(
        _on_boundary(vertices[lone[:, 0]], corners)
        & _on_boundary(vertices[lone[:, 1]], corners)
        & _on_boundary(0.5 * (vertices[lone[:, 0]] + vertices[lone[:, 1]]),
                       corners))
    out.append(Check(f"{label}conforming edges",
                     not repeated and bool(lone_ok),
                     f"{n_edges} edges, {len(lone)} boundary, "
                     f"duplicated directed edge={repeated}"))
    euler = nv - n_edges + nt
    out.append(Check(f"{label}Euler V-E+T=1", euler == 1,
                     f"V={nv} E={n_edges} T={nt} -> {euler}"))
    sa_all = _signed_areas(vertices, triangles)
    out.append(Check(f"{label}positive signed areas", bool(np.all(sa_all > 0)),
                     f"min signed area {float(sa_all.min()):.3e}"))
    corners_arr = np.asarray(corners)
    x, y = corners_arr[:, 0], corners_arr[:, 1]
    poly_area = 0.5 * float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))
    area = float(np.abs(sa_all).sum())
    rel = abs(area - poly_area) / poly_area
    out.append(Check(f"{label}total area {poly_area:g}", rel <= 1e-12,
                     f"relative error {rel:.1e}"))
    pts = vertices[triangles]
    angles = []
    for i in range(3):
        a = pts[:, (i + 1) % 3] - pts[:, i]
        b = pts[:, (i + 2) % 3] - pts[:, i]
        cos = np.einsum("td,td->t", a, b) / (np.linalg.norm(a, axis=1)
                                             * np.linalg.norm(b, axis=1))
        angles.append(np.degrees(np.arccos(np.clip(cos, -1.0, 1.0))))
    min_angle = float(np.min(angles))
    out.append(Check(f"{label}minimum angle >= 45 deg",
                     min_angle >= 45.0 - 1e-7, f"{min_angle:.6f} deg"))
    return out
