import numpy as np
import pytest

from plapeig import io
from plapeig.driver import ConvergenceLog, LogRow
from plapeig.fem import P1Function
from plapeig.io import MeshFormatError, load_mesh, save_mesh, write_vtk
from plapeig.mesh import Mesh, MeshConformityError, check_conforming, \
    generate_disk, generate_unit_square, refine, refine_uniform

import oracles


class TestMeshRoundTrip:
    def test_square_identity(self, tmp_path):
        m = generate_unit_square(2)
        path = str(tmp_path / "m.txt")
        save_mesh(m, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)
        assert np.array_equal(back.boundary_vertex, m.boundary_vertex)

    def test_disk_identity_bit_exact(self, tmp_path):
        # irrational coordinates exercise the 17-digit round-trip
        m = refine_uniform(generate_disk(3), 1)
        path = str(tmp_path / "d.txt")
        save_mesh(m, path)
        back = load_mesh(path)
        assert np.array_equal(back.vertices, m.vertices)
        check_conforming(back)

    def test_text_matches_rowwise_formatting(self, tmp_path):
        # the block templates print what {:.17g} prints row by row, signed
        # zeros and extreme exponents included
        m = generate_unit_square(2)
        vertices = m.vertices.copy()
        vertices[:3] = [(-0.0, 1e-300), (-2.5e17, 0.1), (1.0 / 3.0, -0.0)]
        m = Mesh(vertices=vertices, triangles=m.triangles)
        path = tmp_path / "m.txt"
        save_mesh(m, str(path))
        ref = [f"{m.num_vertices} {m.num_triangles}"]
        ref += [f"{x:.17g} {y:.17g} {int(b)}"
                for (x, y), b in zip(m.vertices, m.boundary_vertex)]
        ref += [f"{i} {j} {k}" for i, j, k in m.triangles]
        assert path.read_text() == "\n".join(ref) + "\n"

    def test_truncated_file(self, tmp_path):
        m = generate_unit_square(2)
        path = tmp_path / "m.txt"
        save_mesh(m, str(path))
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:5]) + "\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(str(path))
        assert err.value.line == 6

    @pytest.mark.parametrize("kind", sorted(oracles.NONCONFORMING))
    def test_nonconforming_file_rejected(self, kind, tmp_path):
        vertices, triangles, message = oracles.NONCONFORMING[kind]
        path = str(tmp_path / "bad.txt")
        save_mesh(Mesh(vertices=vertices, triangles=triangles), path)
        with pytest.raises(MeshConformityError, match=message):
            load_mesh(path)

    def test_trailing_blank_lines_allowed(self, tmp_path):
        path = tmp_path / "m.txt"
        m = generate_unit_square(2)
        save_mesh(m, str(path))
        path.write_text(path.read_text() + "\n  \n\t\n")
        back = load_mesh(str(path))
        assert np.array_equal(back.vertices, m.vertices)
        assert np.array_equal(back.triangles, m.triangles)

    def test_negative_vertex_index(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 -1\n")
        with pytest.raises(MeshFormatError) as err:
            load_mesh(str(path))
        assert err.value.line == 5

    @pytest.mark.parametrize("content,line", [
        ("junk\n", 1),
        ("3 1\n0 0 2\n1 0 1\n0 1 1\n0 1 2\n", 2),
        ("3 1\n0 0 1\nx 0 1\n0 1 1\n0 1 2\n", 3),
        # vertex 1 is used by no triangle
        ("4 1\n0 0 1\n9 9 0\n1 0 1\n0 1 1\n0 2 3\n", 3),
        # vertex 1 is a corner of the only triangle but flagged interior
        ("3 1\n0 0 1\n1 0 0\n0 1 1\n0 1 2\n", 3),
        # non-finite coordinates
        ("3 1\n0 0 1\nnan 0 1\n0 1 1\n0 1 2\n", 3),
        ("3 1\n0 0 1\n1 0 1\n0 inf 1\n0 1 2\n", 4),
        # a header that promises more lines than the file has
        ("1000000000000000 1\n0 0 1\n", 3),
        # content after the last triangle that the header declares
        ("3 1\n0 0 1\n1 0 1\n0 1 1\n0 1 2\n\ngarbage here\n1 2 3\n", 7),
    ])
    def test_malformed_lines(self, tmp_path, content, line):
        path = tmp_path / "bad.txt"
        path.write_text(content)
        with pytest.raises(MeshFormatError) as err:
            load_mesh(str(path))
        assert err.value.line == line


def parse_legacy_vtk(text: str):
    """Strict reader for the legacy-VTK subset the writer emits, kept
    independent of the package code."""
    lines = text.splitlines()
    assert lines[0] == "# vtk DataFile Version 3.0"
    assert lines[2] == "ASCII"
    assert lines[3] == "DATASET UNSTRUCTURED_GRID"
    assert lines[4].startswith("POINTS ")
    _, n_pts_s, dtype = lines[4].split()
    assert dtype == "double"
    n_pts = int(n_pts_s)
    pos = 5
    points = []
    for i in range(n_pts):
        x, y, z = (float(s) for s in lines[pos + i].split())
        assert z == 0.0
        points.append((x, y))
    pos += n_pts
    tag, n_cells_s, total_s = lines[pos].split()
    assert tag == "CELLS"
    n_cells = int(n_cells_s)
    assert int(total_s) == 4 * n_cells
    pos += 1
    cells = []
    for i in range(n_cells):
        parts = [int(s) for s in lines[pos + i].split()]
        assert parts[0] == 3 and len(parts) == 4
        cells.append(tuple(parts[1:]))
    pos += n_cells
    assert lines[pos] == f"CELL_TYPES {n_cells}"
    pos += 1
    for i in range(n_cells):
        assert lines[pos + i] == "5"
    pos += n_cells
    field = None
    if pos < len(lines) and lines[pos].startswith("POINT_DATA"):
        assert lines[pos] == f"POINT_DATA {n_pts}"
        assert lines[pos + 1] == "SCALARS u double 1"
        assert lines[pos + 2] == "LOOKUP_TABLE default"
        field = [float(s) for s in lines[pos + 3:pos + 3 + n_pts]]
        pos += 3 + n_pts
    assert all(not l for l in lines[pos:])  # nothing after the data
    return np.array(points), np.array(cells), field


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


class TestVtk:
    def test_full_round_trip_through_independent_parser(self, tmp_path):
        m = refine_uniform(generate_disk(2), 1)
        u = P1Function(m, np.linspace(-1.0, 1.0, m.num_vertices))
        path = tmp_path / "rt.vtk"
        write_vtk(m, u, str(path))
        points, cells, field = parse_legacy_vtk(path.read_text())
        assert np.array_equal(points, m.vertices)
        assert np.array_equal(cells, m.triangles)
        assert np.array_equal(field, u.coeffs)

    def test_mesh_without_field(self, tmp_path):
        m = generate_unit_square(1)
        path = tmp_path / "m.vtk"
        write_vtk(m, None, str(path))
        text = path.read_text()
        lines = text.splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert "ASCII" in lines
        assert "DATASET UNSTRUCTURED_GRID" in lines
        assert "POINTS 4 double" in lines
        assert "CELLS 2 8" in lines
        assert "CELL_TYPES 2" in lines
        assert "POINT_DATA" not in text
        assert text.endswith("\n")
        # every point line carries z = 0
        at = lines.index("POINTS 4 double")
        for row in lines[at + 1:at + 5]:
            assert row.split()[2] == "0"

    def test_mesh_with_field(self, tmp_path):
        m = generate_unit_square(1)
        u = P1Function(m, np.array([0.0, 0.25, 0.5, 1.0]))
        path = tmp_path / "u.vtk"
        write_vtk(m, u, str(path))
        lines = path.read_text().splitlines()
        at = lines.index("POINT_DATA 4")
        assert lines[at + 1] == "SCALARS u double 1"
        assert lines[at + 2] == "LOOKUP_TABLE default"
        vals = [float(s) for s in lines[at + 3:at + 7]]
        assert vals == [0.0, 0.25, 0.5, 1.0]

    def test_text_matches_row_by_row_format(self, tmp_path, rng):
        # the writer formats whole blocks from Python floats and ints; the
        # same rows formatted from NumPy scalars, one by one, must give the
        # same bytes, special values included
        m = refine_uniform(generate_disk(2), 1)
        nv = m.num_vertices
        vals = (rng.standard_normal(nv)
                * 10.0 ** rng.integers(-300, 300, nv))
        vals[:5] = [-0.0, np.nan, np.inf, -np.inf, 5e-324]
        u = P1Function(m, vals)
        assert row_by_row_vtk(m, u).splitlines()[-nv:][:5] == [
            "-0", "nan", "inf", "-inf", "4.9406564584124654e-324"]
        path = tmp_path / "u.vtk"
        for f in (u, None):
            write_vtk(m, f, str(path))
            text = path.read_text()
            assert text.endswith("\n") and not text.endswith("\n\n")
            assert text == row_by_row_vtk(m, f)

    def test_reused_blocks_match_fresh_text(self, tmp_path):
        # the writer keeps the text of the last POINTS and CELLS blocks; a
        # refinement extends the vertices, the eigenfunction repeats the
        # mesh, and a mesh with as many vertices but other coordinates (or
        # only -0.0 in place of 0.0) or a coarser mesh must not reuse it
        coarse = generate_disk(2)
        fine = refine(coarse, [0, 3, 11])
        u = P1Function(fine, np.linspace(-1.0, 1.0, fine.num_vertices))
        other = Mesh(0.5 * fine.vertices, fine.triangles[:, [1, 2, 0]])
        signed_zeros = Mesh(np.where(fine.vertices == 0.0, -0.0,
                                     fine.vertices), fine.triangles)
        blocks = {}
        for i, (mesh, f) in enumerate([(coarse, None), (fine, None),
                                       (fine, u), (other, None),
                                       (signed_zeros, None), (fine, None),
                                       (coarse, None)]):
            path = tmp_path / f"m{i}.vtk"
            write_vtk(mesh, f, str(path), blocks)
            assert path.read_text() == row_by_row_vtk(mesh, f)
            assert blocks["last"][0] is mesh.vertices

    def test_field_size_checked(self, tmp_path):
        m = generate_unit_square(1)
        other = generate_unit_square(2)
        u = P1Function(other, np.zeros(other.num_vertices))
        with pytest.raises(ValueError):
            write_vtk(m, u, str(tmp_path / "x.vtk"))


def make_log(n_rows):
    log = ConvergenceLog(stop_reason="eps_k")
    for k in range(n_rows):
        log.rows.append(LogRow(
            k=k, vertices=100 + k, elements=180 + 2 * k,
            mu=19.7392088 + 1.0 / (k + 3.0), lambda_iiss=19.7 + 0.1 * k,
            eta=2.0 / (k + 1.0) ** 0.5, iiss_iters=5 + k, dc_iters=15 + k,
            marked=40 + k, seconds=0.01 * (k + 1) / 3.0))
    return log


class TestConvergenceCsv:
    def test_empty_log_header_only(self, tmp_path):
        path = tmp_path / "c.csv"
        io.write_convergence_csv(ConvergenceLog(), str(path))
        assert path.read_text() == io.CSV_HEADER + "\n"

    def test_three_rows_four_lines(self, tmp_path):
        path = tmp_path / "c.csv"
        io.write_convergence_csv(make_log(3), str(path))
        lines = path.read_text().splitlines()
        assert len(lines) == 4
        assert lines[0] == io.CSV_HEADER

    def test_round_trip_bit_exact(self, tmp_path):
        path = tmp_path / "c.csv"
        log = make_log(5)
        io.write_convergence_csv(log, str(path))
        back = oracles.read_convergence_csv(str(path))
        for a, b in zip(log.rows, back.rows):
            assert a == b  # dataclass equality: ints and floats bit-exact

    def test_reader_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "c.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            oracles.read_convergence_csv(str(path))
