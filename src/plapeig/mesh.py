"""Conforming 2-D triangle meshes with newest-vertex bisection.

A triangle is stored as three vertex indices ordered so that the edge
opposite the local vertex 0 is its refinement edge.  Bisection inserts the
midpoint of that edge; the two children take the midpoint as local vertex 0,
so their refinement edges are the two remaining edges of the parent.  The
unit square and the L-shape are cell masks over one structured grid, with
vertices numbered row by row; each kept cell is split along its SW-NE
diagonal, the refinement edge of both halves, which makes the assignment
globally compatible and keeps the number of triangle similarity classes
finite under repeated refinement.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp


#: The one index type of the mesh layer: vertex, triangle and edge numbers,
#: in the fields of `Mesh`, its gradient and edge numbering, `EdgeTable`,
#: and fem's interior numbering (`DirichletFactor.idx`, the stiffness
#: block).  int32 addresses every mesh that fits in memory at half the
#: bytes of int64.  The edge codes lo * nv + hi of `Mesh.edge_numbering`
#: stay int64: they pass 2**31 once nv > 46,340.
INDEX = np.dtype(np.int32)
_INDEX_MAX = int(np.iinfo(INDEX).max)


class MeshConformityError(ValueError):
    """Raised when a triangulation is not a conforming 2-manifold mesh."""


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation; per-mesh data is derived on first use.

    vertices        (nv, 2) float64 coordinates
    triangles       (nt, 3) INDEX, counterclockwise, refinement edge opposite
                    local vertex 0
    parent          (nt,) INDEX index of the ancestor triangle in the mesh
                    that was refined to produce this one; -1 (the default)
                    for root meshes
    snap_to_unit_circle  boundary vertices created by refinement are pushed
                    radially onto the unit circle (disk meshes)
    vertex_parents  (nv, 2) INDEX endpoint indices of the edge whose midpoint
                    created each vertex; (-1, -1) (the default) for original
                    vertices

    The index fields may be given in any integer type: each is checked
    against its range in that type, so no entry wraps when it is stored as
    INDEX, and a mesh whose counts INDEX cannot address is rejected.
    Areas, basis gradients and the gradient operator, the edge numbering
    and the boundary flags are cached read-only properties of these fields.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    parent: np.ndarray = None  # type: ignore[assignment]
    snap_to_unit_circle: bool = False
    vertex_parents: np.ndarray = field(default=None, repr=False)  # type: ignore[assignment]

    def __post_init__(self):
        # shapes and ranges are checked in the given types, before any copy
        v, t = np.asarray(self.vertices), np.asarray(self.triangles)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError("vertices must have shape (nv, 2)")
        if t.ndim != 2 or t.shape[1] != 3:
            raise ValueError("triangles must have shape (nt, 3)")
        nv, nt = len(v), len(t)
        # the 6 nt entries of `gradient` are the longest index range; the
        # 3 nt edge occurrences and at most 3 nt edges come below
        if nv > _INDEX_MAX or 6 * nt > _INDEX_MAX:
            raise ValueError(f"{nv} vertices and {nt} triangles exceed the "
                             f"{INDEX} index range of a mesh")
        p, vp = self.parent, self.vertex_parents
        p = np.full(nt, -1, dtype=INDEX) if p is None else np.asarray(p)
        vp = (np.full((nv, 2), -1, dtype=INDEX) if vp is None
              else np.asarray(vp))
        if p.shape != (nt,):
            raise ValueError("parent length must match triangle count")
        if vp.shape != (nv, 2):
            raise ValueError("vertex_parents must have shape (nv, 2)")
        # phrased so that a NaN fails
        for arr, lo, hi, what in ((t, 0, nv - 1, "triangle vertex index"),
                                  (p, -1, _INDEX_MAX, "parent index"),
                                  (vp, -1, nv - 1, "vertex_parents entry")):
            if arr.size and not (arr.min() >= lo and arr.max() <= hi):
                raise ValueError(f"{what} out of range [{lo}, {hi}]")
        for arr, name, dtype in ((v, "vertices", np.float64),
                                 (t, "triangles", INDEX), (p, "parent", INDEX),
                                 (vp, "vertex_parents", INDEX)):
            arr = np.ascontiguousarray(arr, dtype=dtype)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @cached_property
    def areas(self) -> np.ndarray:
        """Area per triangle; raises MeshConformityError unless every
        triangle is counterclockwise with finite positive area."""
        p0, p1, p2 = (np.take(self.vertices, self.triangles[:, i], axis=0)
                      for i in range(3))
        e1 = p1 - p0
        e2 = p2 - p0
        with np.errstate(invalid="ignore"):  # inf * 0 gives NaN, rejected
            a = 0.5 * (e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0])
        if not np.all((a > 0.0) & (a < np.inf)):  # NaN fails both
            raise MeshConformityError("triangle with non-finite or "
                                      "non-positive signed area")
        a.setflags(write=False)
        return a

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """Gradients of the three nodal P1 basis functions per triangle,
        (nt, 3, 2); raises like `areas` on degenerate triangles.  The array
        is a view of component-major (2, nt, 3) memory: component d of
        every gradient, `[..., d]`, is contiguous."""
        tail, head = _edge_arrays(self.triangles)
        x, y = self.vertices.T
        # The edge opposite vertex i runs from tail to head; rotated by +90
        # degrees, (-dy, dx), and divided by 2 |T|, it is the gradient of
        # phi_i.  The sign goes on the divisor: an edge with dy = 0 gives
        # the -0.0 of -dy.
        g = np.empty((2,) + tail.shape)
        np.subtract(np.take(y, head), np.take(y, tail), out=g[0])
        np.subtract(np.take(x, head), np.take(x, tail), out=g[1])
        two_area = (2.0 * self.areas)[:, None]
        g[0] /= -two_area
        g[1] /= two_area
        g.setflags(write=False)
        return g.transpose(1, 2, 0)

    @cached_property
    def gradient(self) -> sp.csr_matrix:
        """Elementwise gradient of P1 functions, a (2 nt, nv) CSR matrix
        whose row d nt + t holds component d of the basis gradients of
        triangle t in local vertex order: its product with vertex values
        lists the gradient component by component.  Its data is the memory
        of `basis_gradients`, not a copy."""
        nt = self.num_triangles
        return sp.csr_matrix(
            (self.basis_gradients.transpose(2, 0, 1).ravel(),
             np.tile(self.triangles.ravel(), 2),
             np.arange(0, 6 * nt + 1, 3, dtype=INDEX)),
            shape=(2 * nt, self.num_vertices))

    @cached_property
    def edge_numbering(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Global edge numbers: (codes (ne,) int64, edge_id (nt, 3) INDEX,
        counts (ne,) INDEX).

        Edge e joins vertices codes[e] // nv and codes[e] % nv (smaller index
        first), and codes ascend; they are int64, as lo * nv + hi outgrows
        INDEX once nv > 46,340.  edge_id[t, j] numbers the edge of triangle
        t opposite its local vertex j; counts[e] is how many triangles hold
        edge e (1 on the boundary).  edge_table, check_conforming, refine,
        boundary_vertex and the matrix assembly of fem all read this.
        """
        nv = self.num_vertices
        a, b = _edge_arrays(self.triangles)
        flat = np.minimum(a, b).astype(np.int64).ravel()  # outgrows INDEX
        flat *= nv
        flat += np.maximum(a, b).ravel()
        # One stable sort yields the codes and the grouped occurrences.
        order, ordered = _stable_sort(flat, nv * nv)
        new = np.empty(len(ordered), dtype=bool)
        new[:1] = True
        np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
        codes = ordered[new]
        start = np.flatnonzero(np.append(new, True))
        counts = np.subtract(start[1:], start[:-1], dtype=INDEX,
                             casting="same_kind")
        edge_id = np.empty(len(ordered), dtype=INDEX)
        edge_id[order] = np.cumsum(new, dtype=INDEX) - 1
        edge_id = edge_id.reshape(a.shape)
        for arr in (codes, edge_id, counts):
            arr.setflags(write=False)
        return codes, edge_id, counts

    @cached_property
    def boundary_vertex(self) -> np.ndarray:
        """(nv,) bool: the vertex lies on an edge that only one triangle has."""
        codes, _, counts = self.edge_numbering
        bnd = codes[counts == 1]
        flags = np.zeros(self.num_vertices, dtype=bool)
        flags[bnd // self.num_vertices] = True
        flags[bnd % self.num_vertices] = True
        flags.setflags(write=False)
        return flags


@dataclass(frozen=True)
class EdgeTable:
    """Interior edges of a conforming mesh.

    Interior edge i is held by triangles int_tri_plus[i] and
    int_tri_minus[i], INDEX triangle numbers; int_normals[i] is its unit
    normal pointing from the plus triangle into the minus one, and
    int_lengths[i] its length.
    """

    int_tri_plus: np.ndarray   # (ne_i,) INDEX
    int_tri_minus: np.ndarray  # (ne_i,) INDEX
    int_normals: np.ndarray    # (ne_i, 2) float
    int_lengths: np.ndarray    # (ne_i,) float


def _edge_arrays(triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Tail and head vertex of local edge j (opposite local vertex j)."""
    a = triangles[:, [1, 2, 0]]
    b = triangles[:, [2, 0, 1]]
    return a, b


def _stable_sort(x: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """(order, x[order]) with order the stable ascending argsort of the
    nonnegative integers x, all below bound."""
    n = len(x)
    if bound * n <= np.iinfo(np.int64).max:
        # x * n + index is distinct for every entry, so sorting these keys
        # is stable, and a plain sort of values beats a stable argsort.
        ordered, order = np.divmod(np.sort(x * n + np.arange(n)), n)
        return order, ordered
    order = np.argsort(x, kind="stable")
    return order, x[order]


def check_conforming(mesh: Mesh) -> None:
    """Raise MeshConformityError unless `mesh` is a conforming 2-manifold.

    Rejects, in this order: a clockwise or degenerate triangle (through
    `mesh.areas`), an edge shared by more than two triangles, two triangles
    that traverse their shared edge in the same direction, and a boundary
    that is not a 1-manifold (hanging nodes, pinched vertices).  The
    generators and `refine` make conforming meshes by construction;
    `load_mesh` checks every file it reads.
    """
    mesh.areas
    nv = mesh.num_vertices
    codes, edge_id, counts = mesh.edge_numbering
    if np.any(counts > 2):
        raise MeshConformityError("an edge is shared by more than two triangles")

    # Of two triangles holding an edge, one runs it from low to high index.
    a, b = _edge_arrays(mesh.triangles)
    forward = np.bincount(edge_id.ravel(), (a < b).ravel(), len(codes))
    if np.any(forward[counts == 2] != 1):
        raise MeshConformityError("adjacent triangles traverse a shared edge "
                                  "in the same direction")

    # Boundary must be a 1-manifold: exactly two boundary edges per boundary
    # vertex.  A hanging node leaves its host edge unmatched and shows up here.
    bnd = codes[counts == 1]
    bnd_valence = np.bincount(np.concatenate((bnd // nv, bnd % nv)),
                              minlength=nv)
    if np.any(bnd_valence[bnd_valence > 0] != 2):
        raise MeshConformityError("boundary is not a closed polygonal curve "
                                  "(hanging node or pinched vertex)")


def edge_table(mesh: Mesh) -> EdgeTable:
    """Read the interior edges off `mesh.edge_numbering`.

    Assumes a conforming mesh (see `check_conforming`).  The two sides of an
    interior edge are its occurrences 3 t + j in `edge_id`: the plus side is
    the first, the minus side the last.
    """
    _, edge_id, counts = mesh.edge_numbering
    occurrence = np.arange(edge_id.size, dtype=INDEX)
    first = np.full(len(counts), edge_id.size, dtype=INDEX)
    last = np.full(len(counts), -1, dtype=INDEX)
    np.minimum.at(first, edge_id.ravel(), occurrence)
    np.maximum.at(last, edge_id.ravel(), occurrence)
    inner = counts == 2
    t_plus, j_plus = np.divmod(first[inner], 3)
    # local vertices j + 1 and j + 2 of t, as flat indices into triangles
    tail, head = (np.take(mesh.triangles, 3 * t_plus + (j_plus + k) % 3)
                  for k in (1, 2))
    evec = (np.take(mesh.vertices, head, axis=0)
            - np.take(mesh.vertices, tail, axis=0))
    ex, ey = evec[:, 0], evec[:, 1]
    lengths = np.sqrt(ex * ex + ey * ey)
    # Outward normal of the plus triangle: edge vector rotated by -90 degrees.
    normals = np.column_stack((ey, -ex)) / lengths[:, None]
    return EdgeTable(int_tri_plus=t_plus, int_tri_minus=last[inner] // 3,
                     int_normals=normals, int_lengths=lengths)


def _grid(cells: int, extent: float, keep) -> Mesh:
    """Mesh of the cells of a cells x cells grid on [0, extent]^2 whose
    centres pass keep(x, y), an elementwise test.  Each kept cell, in scan
    order (ascending y, then x), gives (se, ne, sw) and (nw, sw, ne), whose
    refinement edge is its SW-NE diagonal.  The corners in use are numbered
    row by row; every coordinate is a linspace entry, so the far sides lie
    at extent exactly."""
    ticks = np.linspace(0.0, extent, cells + 1)
    centres = 0.5 * (ticks[:-1] + ticks[1:])
    kept = np.broadcast_to(keep(centres, centres[:, None]), (cells, cells))
    row, col = np.nonzero(kept)
    sw = row * (cells + 1) + col
    nw = sw + cells + 1
    corners = np.column_stack((sw + 1, nw + 1, sw, nw, sw, nw + 1))
    used = np.zeros((cells + 1) ** 2, dtype=bool)
    used[corners] = True
    number = np.cumsum(used, dtype=INDEX) - 1
    row, col = np.divmod(np.flatnonzero(used), cells + 1)
    return Mesh(np.column_stack((ticks[col], ticks[row])),
                number[corners].reshape(-1, 3))


def generate_unit_square(n: int) -> Mesh:
    """Structured mesh of (0,1)^2 with (n+1)^2 vertices and 2 n^2 triangles:
    every cell of an n x n grid."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _grid(n, 1.0, lambda x, y: True)


def generate_lshape(n: int) -> Mesh:
    """Structured mesh of the L-shape (0,2)^2 minus the closed top-right
    unit square, with n cells per unit length (area 3 exactly): the cells
    of a 2n x 2n grid outside that square."""
    if n < 1:
        raise ValueError("n must be a positive integer")
    return _grid(2 * n, 2.0, lambda x, y: (x < 1.0) | (y < 1.0))


def generate_disk(levels: int) -> Mesh:
    """Fan of 6 triangles around the origin, uniformly bisected `levels`
    rounds, with boundary vertices kept on the unit circle."""
    if levels < 0:
        raise ValueError("levels must be nonnegative")
    ang = np.arange(6) * (np.pi / 3.0)
    vertices = np.vstack(([0.0, 0.0], np.column_stack((np.cos(ang), np.sin(ang)))))
    tris = np.array([(0, 1 + k, 1 + (k + 1) % 6) for k in range(6)],
                    dtype=INDEX)  # chord opposite center
    return refine_uniform(Mesh(vertices, tris, snap_to_unit_circle=True),
                          levels)


def refine(mesh: Mesh, marked) -> Mesh:
    """Bisect every marked triangle, then close the mesh to conformity.

    Marked triangles have their refinement edge split; conformity closure
    extends the split set so that any triangle touching a split edge also
    splits its own refinement edge (recursively).  Each triangle is bisected
    once or twice depending on how many of its edges end up split.  New
    boundary vertices of disk meshes are projected onto the unit circle.
    `marked` holds triangle indices; a boolean mask or floats raise
    ValueError.
    """
    marked = np.unique(marked if isinstance(marked, np.ndarray)
                       else list(marked))
    nt = mesh.num_triangles
    nv = mesh.num_vertices
    if marked.size == 0:
        raise ValueError("marked set must be nonempty")
    if marked.dtype.kind not in "iu":
        raise ValueError(f"marked set must hold triangle indices, not "
                         f"{marked.dtype} values")
    if marked.min() < 0 or marked.max() >= nt:
        raise ValueError(f"marked triangle index out of range [0, {nt})")

    codes, edge_id, counts = mesh.edge_numbering
    n_edges = len(codes)

    # Closure fixpoint over split edges: refinement edge is local edge 0.
    split = np.zeros(n_edges, dtype=bool)
    split[edge_id[marked, 0]] = True
    e0, e1, e2 = edge_id.T
    while True:
        s0 = split[e0]
        need = (split[e1] | split[e2]) & ~s0
        if not need.any():
            break
        split[e0[need]] = True

    split_ids = np.nonzero(split)[0]
    if nv + len(split_ids) > _INDEX_MAX:  # before numbering the midpoints
        raise ValueError(f"refinement would make {nv + len(split_ids)} "
                         f"vertices, beyond the {INDEX} index range")
    midpoint_of = np.full(n_edges, -1, dtype=INDEX)
    midpoint_of[split_ids] = np.arange(nv, nv + len(split_ids), dtype=INDEX)

    ea, eb = np.divmod(codes[split_ids], nv)
    new_pts = 0.5 * (np.take(mesh.vertices, ea, axis=0)
                     + np.take(mesh.vertices, eb, axis=0))
    new_bnd = counts[split_ids] == 1  # midpoints of boundary edges
    if mesh.snap_to_unit_circle and new_bnd.any():
        x, y = new_pts[new_bnd].T
        new_pts[new_bnd] /= np.sqrt(x * x + y * y)[:, None]

    vertices = np.vstack((mesh.vertices, new_pts))
    vertex_parents = np.vstack((mesh.vertex_parents,
                                np.column_stack((ea, eb))), dtype=INDEX)

    tri = mesh.triangles
    v0, v1, v2 = tri[:, 0], tri[:, 1], tri[:, 2]
    m0 = midpoint_of[edge_id[:, 0]]  # midpoint of (v1, v2)
    m1 = midpoint_of[edge_id[:, 1]]  # midpoint of (v2, v0)
    m2 = midpoint_of[edge_id[:, 2]]  # midpoint of (v0, v1)
    s0, s1, s2 = m0 >= 0, m1 >= 0, m2 >= 0
    if np.any((s1 | s2) & ~s0):
        raise AssertionError("closure failed to split a refinement edge")

    anc = np.arange(nt, dtype=INDEX)

    chunks_tri, chunks_par = [], []

    def emit(mask, cols):
        if not mask.any():
            return
        chunks_tri.append(np.column_stack([c[mask] for c in cols]))
        chunks_par.append(anc[mask])

    emit(~s0, (v0, v1, v2))

    # First bisection at m0: children (m0, v0, v1) and (m0, v2, v0); the
    # child holding edge (v0, v1) resp. (v2, v0) is bisected again at m2
    # resp. m1 when that edge is split.
    emit(s0 & ~s2, (m0, v0, v1))
    emit(s0 & s2, (m2, m0, v0))
    emit(s0 & s2, (m2, v1, m0))
    emit(s0 & ~s1, (m0, v2, v0))
    emit(s0 & s1, (m1, m0, v2))
    emit(s0 & s1, (m1, v0, m0))

    return Mesh(
        vertices=vertices,
        triangles=np.vstack(chunks_tri),
        parent=np.concatenate(chunks_par),
        snap_to_unit_circle=mesh.snap_to_unit_circle,
        vertex_parents=vertex_parents,
    )


def refine_uniform(mesh: Mesh, rounds: int = 1) -> Mesh:
    """Refine with all triangles marked, `rounds` times."""
    if rounds < 0:
        raise ValueError(f"rounds must be nonnegative, got {rounds}")
    for _ in range(rounds):
        mesh = refine(mesh, np.arange(mesh.num_triangles))
    return mesh


def prolong_vertex_values(fine: Mesh, coarse_values: np.ndarray) -> np.ndarray:
    """Transfer piecewise-linear vertex values from a mesh to its refinement
    by one `refine`: the leading vertices of the fine mesh are the coarse
    ones, and every later vertex is the midpoint of a coarse edge."""
    c = np.asarray(coarse_values, dtype=np.float64)
    if len(c) > fine.num_vertices:
        raise ValueError("fine mesh has fewer vertices than the source values")
    parents = fine.vertex_parents[len(c):]
    bad = np.nonzero((parents.min(axis=1) < 0)
                     | (parents.max(axis=1) >= len(c)))[0]
    if bad.size:
        raise ValueError(f"vertex {len(c) + bad[0]} is not the midpoint of "
                         f"an edge between coarse vertices")
    a, b = parents.T
    return np.concatenate((c, 0.5 * (c[a] + c[b])))
