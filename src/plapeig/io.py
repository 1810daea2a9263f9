"""File formats: ASCII meshes, legacy VTK output, and convergence CSV.

The mesh format is line-oriented: a header `nv nt`, then nv vertex lines
`x y b` with b in {0, 1} flagging boundary vertices, then nt triangle lines
`i0 i1 i2` of 0-based vertex indices with the refinement edge opposite i0.
Floats are written with 17 significant digits, which round-trips IEEE
doubles exactly.

Float blocks are formatted by one % over the Python floats of tolist():
far faster than a format call per row, and %.17g gives the digits of
{:.17g} for every double (-0, nan and inf included).  Integer blocks are
built as bytes by one NumPy kernel, `_int_rows`, which prints what % of
"%d" prints.
"""

from __future__ import annotations

import os
from dataclasses import astuple, dataclass, fields

import numpy as np

from .mesh import INDEX, Mesh, check_conforming
from .fem import P1Function


class MeshFormatError(ValueError):
    """Malformed mesh file; carries the 1-based offending line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _int_rows(a: np.ndarray, prefix: bytes) -> bytes:
    """The bytes of (prefix + "%d " * (k - 1) + "%d\n") * n % tuple(
    a.ravel().tolist()) for a non-negative (n, k) int array a.  A table
    holds the label of each number up to a.max(): its digits right-aligned
    after NUL padding to the width w of the largest, then a space.  The
    rows gather their labels, the last space of a line becomes the newline,
    and the padding is dropped."""
    n, k = a.shape
    q = np.arange(int(a.max(initial=0)) + 1)
    w = len(str(q[-1]))
    lab = np.zeros((len(q), w + 1), dtype=np.uint8)
    lab[:, w] = ord(" ")
    for j in range(w):  # the digit of 10**j
        lab[:, w - 1 - j] = 48 + q % 10
        q //= 10
    for j in range(1, w):  # numbers below 10**j have no such digit
        lab[:10 ** j, w - 1 - j] = 0
    p = len(prefix)
    buf = np.empty((n, p + k * (w + 1)), dtype=np.uint8)
    buf[:, :p] = np.frombuffer(prefix, dtype=np.uint8)
    buf[:, p:] = np.take(lab, a, axis=0).reshape(n, k * (w + 1))
    buf[:, -1] = ord("\n")
    flat = buf.ravel()
    return flat[flat != 0].tobytes()


def save_mesh(mesh: Mesh, path: str) -> None:
    """Write a mesh in the ASCII format (exact decimal round-trip).  The
    vertex rows are one % over tolist(), the flags b riding in the float
    rows and printing through %d; the triangle rows are `_int_rows`."""
    nv, nt = mesh.num_vertices, mesh.num_triangles
    rows = np.column_stack((mesh.vertices, mesh.boundary_vertex))
    with open(path, "wb") as fp:
        fp.writelines([
            b"%d %d\n" % (nv, nt),
            b"%.17g %.17g %d\n" * nv % tuple(rows.ravel().tolist()),
            _int_rows(mesh.triangles, b""),
        ])


def load_mesh(path: str) -> Mesh:
    """Read a mesh written by save_mesh.

    Raises MeshFormatError with the offending line number on malformed
    input, on a non-blank line after the last triangle, on a non-finite
    coordinate, on a vertex that no triangle uses and on a b flag that
    disagrees with the topology; MeshConformityError
    from `check_conforming`, the one conformity check of a run, on a
    clockwise or degenerate triangle or a non-conforming mesh."""
    with open(path, "r", encoding="ascii") as fp:
        raw = fp.read().splitlines()

    if not raw:
        raise MeshFormatError("unexpected end of file", 1)
    head = raw[0].split()
    if len(head) != 2:
        raise MeshFormatError("expected header 'nv nt'", 1)
    try:
        nv, nt = int(head[0]), int(head[1])
    except ValueError:
        raise MeshFormatError("header counts must be integers", 1) from None
    if nv < 3 or nt < 1:
        raise MeshFormatError("mesh must have at least 3 vertices and 1 "
                              "triangle", 1)
    if len(raw) < 1 + nv + nt:  # before allocating for the header's counts
        raise MeshFormatError("unexpected end of file", len(raw) + 1)

    vertices = np.empty((nv, 2))
    boundary = np.empty(nv, dtype=bool)
    for i in range(nv):
        lineno = 2 + i
        parts = raw[lineno - 1].split()
        if len(parts) != 3:
            raise MeshFormatError("expected 'x y b'", lineno)
        try:
            vertices[i] = (float(parts[0]), float(parts[1]))
        except ValueError:
            raise MeshFormatError("bad coordinate", lineno) from None
        if not np.all(np.isfinite(vertices[i])):
            raise MeshFormatError("coordinate must be finite", lineno)
        if parts[2] not in ("0", "1"):
            raise MeshFormatError("boundary flag must be 0 or 1", lineno)
        boundary[i] = parts[2] == "1"

    triangles = np.empty((nt, 3), dtype=INDEX)
    for i in range(nt):
        lineno = 2 + nv + i
        parts = raw[lineno - 1].split()
        if len(parts) != 3:
            raise MeshFormatError("expected 'i0 i1 i2'", lineno)
        try:
            idx = [int(s) for s in parts]
        except ValueError:
            raise MeshFormatError("bad vertex index", lineno) from None
        if any(j < 0 or j >= nv for j in idx):
            raise MeshFormatError(f"vertex index out of range [0, {nv})",
                                  lineno)
        triangles[i] = idx
    for lineno in range(2 + nv + nt, len(raw) + 1):
        if raw[lineno - 1].strip():
            raise MeshFormatError("content after the last triangle", lineno)

    unused = np.nonzero(np.bincount(triangles.ravel(), minlength=nv) == 0)[0]
    if unused.size:
        raise MeshFormatError("vertex is used by no triangle",
                              int(2 + unused[0]))
    mesh = Mesh(vertices=vertices, triangles=triangles)
    check_conforming(mesh)
    wrong = np.nonzero(boundary != mesh.boundary_vertex)[0]
    if wrong.size:
        raise MeshFormatError("boundary flag disagrees with the mesh topology",
                              int(2 + wrong[0]))
    return mesh


def write_vtk(mesh: Mesh, u: P1Function | None, path: str,
              blocks: dict | None = None) -> None:
    """Write a legacy ASCII VTK unstructured grid, optionally with a vertex
    scalar field named u, which must live on mesh.

    The POINTS and field blocks are one %.17g % over tolist(), the CELLS
    block is `_int_rows`.  blocks, a dict that the caller keeps across the
    writes of one run, carries the vertices and POINTS text of the last
    call, under "last", to the next.  refine appends vertices, so the
    POINTS block of a refined mesh starts with that of its parent: when the
    vertices extend the last ones, only the new rows are formatted.  The
    output is the same as formatting every row afresh.
    """
    nv, nt = mesh.num_vertices, mesh.num_triangles
    if u is not None and u.mesh is not mesh:
        raise ValueError("u must live on the given mesh")
    vertices = mesh.vertices
    done, points = 0, b""
    if blocks:
        old_vertices, old_points = blocks["last"]
        n = len(old_vertices)
        # Compare bit patterns: -0.0 == 0.0, but they print differently.
        if n <= nv and np.array_equal(vertices[:n].view(np.int64),
                                      old_vertices.view(np.int64)):
            done, points = n, old_points
    points += (b"%.17g %.17g 0\n" * (nv - done)
               % tuple(vertices[done:].ravel().tolist()))
    if blocks is not None:
        blocks["last"] = (vertices, points)
    parts = [
        b"# vtk DataFile Version 3.0\nplapeig mesh\nASCII\n"
        b"DATASET UNSTRUCTURED_GRID\nPOINTS %d double\n" % nv,
        points,
        b"CELLS %d %d\n" % (nt, 4 * nt),
        _int_rows(mesh.triangles, b"3 "),
        b"CELL_TYPES %d\n" % nt,
        b"5\n" * nt,
    ]
    if u is not None:
        parts.append(b"POINT_DATA %d\nSCALARS u double 1\n"
                     b"LOOKUP_TABLE default\n" % nv)
        parts.append(b"%.17g\n" * nv % tuple(u.coeffs.tolist()))
    with open(path, "wb") as fp:
        fp.writelines(parts)


@dataclass
class LogRow:
    """One adaptive loop: mesh size, eigenvalue estimates, estimator,
    iteration counts, marked-set size, and wall time."""

    k: int
    vertices: int
    elements: int
    mu: float
    lambda_iiss: float
    eta: float
    iiss_iters: int
    dc_iters: int
    marked: int
    seconds: float


#: The first line of convergence.csv: the fields of LogRow, in order.
CSV_HEADER = ",".join(f.name for f in fields(LogRow))


def write_convergence_csv(log, path: str) -> None:
    """Write a convergence log; floats use 17 significant digits so parsing
    the file reproduces them bit-exactly."""
    lines = [CSV_HEADER]
    for r in log.rows:
        lines.append(",".join(_fmt(x) if isinstance(x, float) else str(x)
                              for x in astuple(r)))
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="ascii") as fp:
        fp.write("\n".join(lines) + "\n")
