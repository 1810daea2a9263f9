import numpy as np
import pytest

from plapeig.mesh import (Mesh, MeshConformityError, _stable_sort,
                          check_conforming, edge_table, generate_disk,
                          generate_lshape, generate_unit_square,
                          prolong_vertex_values, refine, refine_uniform)

import oracles


def interior_edge_ends(mesh, et):
    """The (tail, head) vertices of each interior edge as its plus triangle
    runs it, from the oracle, once the four arrays of `et` match the
    oracle's bit for bit."""
    ends, *want = oracles.interior_edges_two_sorts(mesh)
    got = (et.int_tri_plus, et.int_tri_minus, et.int_normals, et.int_lengths)
    for g, w in zip(got, want):
        assert np.array_equal(g, w)
    return ends


def euler_characteristic(mesh):
    et = edge_table(mesh)
    num_boundary = np.count_nonzero(mesh.edge_numbering[2] == 1)
    return mesh.num_vertices - (len(et.int_tri_plus) + num_boundary) \
        + mesh.num_triangles


class TestGenerators:
    @pytest.mark.parametrize("n,nv,nt", [(1, 4, 2), (2, 9, 8), (13, 196, 338)])
    def test_square_counts(self, n, nv, nt):
        m = generate_unit_square(n)
        assert (m.num_vertices, m.num_triangles) == (nv, nt)

    def test_square_area_and_orientation(self):
        m = generate_unit_square(4)
        assert np.all(m.areas > 0)
        assert m.areas.sum() == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("n,nv,nt", [(1, 8, 6), (2, 21, 24)])
    def test_lshape_counts(self, n, nv, nt):
        m = generate_lshape(n)
        assert (m.num_vertices, m.num_triangles) == (nv, nt)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_lshape_area(self, n):
        assert generate_lshape(n).areas.sum() == pytest.approx(3.0, abs=1e-12)

    def test_disk_level0(self):
        m = generate_disk(0)
        assert (m.num_vertices, m.num_triangles) == (7, 6)
        radii = np.linalg.norm(m.vertices[m.boundary_vertex], axis=1)
        assert len(radii) == 6
        assert np.max(np.abs(radii - 1.0)) < 1e-12

    def test_disk_boundary_on_circle_and_doubling(self):
        counts = []
        for lv in range(7):
            m = generate_disk(lv)
            radii = np.linalg.norm(m.vertices[m.boundary_vertex], axis=1)
            assert np.max(np.abs(radii - 1.0)) < 1e-12
            counts.append(int(m.boundary_vertex.sum()))
        # one full boundary pass takes two bisection rounds
        for lv, c in enumerate(counts):
            assert c == 6 * 2 ** ((lv + 1) // 2)

    def test_disk_area_monotone_to_pi(self):
        areas = [generate_disk(lv).areas.sum() for lv in range(10)]
        assert all(b >= a - 1e-13 for a, b in zip(areas, areas[1:]))
        assert all(a < np.pi for a in areas)
        assert abs(areas[-1] - np.pi) < 1e-3

    @pytest.mark.parametrize("gen", [generate_unit_square, generate_lshape])
    def test_generator_rejects_bad_n(self, gen):
        with pytest.raises(ValueError):
            gen(0)

    def test_disk_rejects_negative(self):
        with pytest.raises(ValueError):
            generate_disk(-1)

    @pytest.mark.parametrize("gen,arg", [(generate_unit_square, 3),
                                         (generate_lshape, 2),
                                         (generate_disk, 3)])
    def test_generators_conforming(self, gen, arg):
        check_conforming(gen(arg))


class TestRefine:
    def test_shared_refinement_edge_forces_both(self):
        m = generate_unit_square(1)
        r = refine(m, [0])
        assert (r.num_vertices, r.num_triangles) == (5, 4)
        check_conforming(r)

    def test_mark_all_square2(self):
        m = generate_unit_square(2)
        r = refine(m, np.arange(8))
        assert (r.num_vertices, r.num_triangles) == (13, 16)
        assert euler_characteristic(r) == 1

    def test_area_preserved_polygonal(self):
        m = generate_lshape(2)
        rng = np.random.default_rng(5)
        for _ in range(15):
            marked = rng.choice(m.num_triangles,
                                size=rng.integers(1, 4), replace=False)
            m = refine(m, marked)
            assert abs(m.areas.sum() - 3.0) / 3.0 < 1e-12
        check_conforming(m)

    def test_min_angle_stabilizes_square(self):
        m = generate_unit_square(1)
        angles = []
        for _ in range(6):
            m = refine_uniform(m)
            angles.append(oracles.min_angle(m))
        # right isoceles triangles reproduce themselves: constant 45 degrees
        assert all(abs(a - np.pi / 4) < 1e-12 for a in angles)

    def test_min_angle_stabilizes_lshape(self):
        m = generate_lshape(1)
        for _ in range(6):
            m = refine_uniform(m)
            assert abs(oracles.min_angle(m) - np.pi / 4) < 1e-12

    def test_min_angle_floor_disk(self):
        # boundary snapping perturbs the similarity classes; the angle still
        # settles well above a fixed floor
        m = generate_disk(8)
        assert oracles.min_angle(m) > np.radians(18.0)

    def test_generation_and_parent(self):
        m = generate_unit_square(2)
        r = refine(m, [3])
        assert np.all((0 <= r.parent) & (r.parent < m.num_triangles))
        # one or two bisections halve or quarter the ancestor's area
        ratio = m.areas[r.parent] / r.areas
        assert np.all(np.isclose(ratio, 1.0) | np.isclose(ratio, 2.0)
                      | np.isclose(ratio, 4.0))
        bisected = ~np.isclose(ratio, 1.0)
        assert bisected.any()
        # the marked element is gone and has at least two descendants
        descendants = np.nonzero((r.parent == 3) & bisected)[0]
        assert len(descendants) >= 2

    def test_nested_vertices_polygonal(self):
        m = generate_unit_square(3)
        r = refine(m, [0, 5, 7])
        assert np.array_equal(r.vertices[:m.num_vertices], m.vertices)
        assert np.array_equal(r.boundary_vertex[:m.num_vertices],
                              m.boundary_vertex)

    def test_refine_validates_input(self):
        m = generate_unit_square(2)
        with pytest.raises(ValueError):
            refine(m, [])
        with pytest.raises(ValueError):
            refine(m, [99])
        with pytest.raises(ValueError):
            refine(m, [-1])

    def test_refine_uniform_rejects_negative_rounds(self):
        with pytest.raises(ValueError, match="rounds must be nonnegative"):
            refine_uniform(generate_unit_square(2), -3)

    def test_closure_no_hanging_nodes(self):
        m = generate_lshape(1)
        rng = np.random.default_rng(11)
        for _ in range(25):
            m = refine(m, [int(rng.integers(m.num_triangles))])
        check_conforming(m)
        assert np.all(m.areas > 0)

    def test_disk_refine_projects_new_boundary(self):
        m = generate_disk(2)
        r = refine(m, np.arange(m.num_triangles))
        radii = np.linalg.norm(r.vertices[r.boundary_vertex], axis=1)
        assert np.max(np.abs(radii - 1.0)) < 1e-12


class TestEdgeTable:
    def test_two_triangle_square(self):
        m = generate_unit_square(1)
        et = edge_table(m)
        assert len(et.int_tri_plus) == 1
        assert np.count_nonzero(m.edge_numbering[2] == 1) == 4

    def test_square2_interior_count(self):
        # Euler: V=9, T=8 -> E=16, of which 8 on the boundary
        et = edge_table(generate_unit_square(2))
        assert len(et.int_tri_plus) == 8

    def test_normals_unit_and_orthogonal(self):
        m = generate_disk(3)
        et = edge_table(m)
        ends = interior_edge_ends(m, et)
        norms = np.linalg.norm(et.int_normals, axis=1)
        assert np.max(np.abs(norms - 1.0)) < 1e-12
        evec = m.vertices[ends[:, 1]] - m.vertices[ends[:, 0]]
        dots = np.einsum("ed,ed->e", et.int_normals, evec)
        assert np.max(np.abs(dots)) < 1e-12

    def test_normal_points_from_plus_to_minus(self):
        m = generate_unit_square(3)
        et = edge_table(m)
        ends = interior_edge_ends(m, et)
        centroids = m.vertices[m.triangles].mean(axis=1)
        mid = 0.5 * (m.vertices[ends[:, 0]] + m.vertices[ends[:, 1]])
        toward_minus = centroids[et.int_tri_minus] - mid
        dots = np.einsum("ed,ed->e", et.int_normals, toward_minus)
        assert np.all(dots > 0)

    def test_hanging_node_detected(self):
        # unit square: one big triangle below the diagonal, two small ones
        # above it sharing the diagonal midpoint -> hanging node
        vertices, triangles, message = oracles.NONCONFORMING["hanging_node"]
        with pytest.raises(MeshConformityError, match=message):
            check_conforming(Mesh(vertices=vertices, triangles=triangles))

    @pytest.mark.parametrize("kind", ["same_direction", "pinched_vertex"])
    def test_other_defects_detected(self, kind):
        vertices, triangles, message = oracles.NONCONFORMING[kind]
        with pytest.raises(MeshConformityError, match=message):
            check_conforming(Mesh(vertices=vertices, triangles=triangles))

    @pytest.mark.parametrize("mesh", [
        refine(refine_uniform(generate_unit_square(3), 1), [0, 7, 20]),
        refine(refine(generate_lshape(2), [3, 11]), [0, 2, 20]),
        refine(generate_disk(2), [1, 4, 9, 20]),
    ])
    def test_one_sort_matches_unique_and_two_sorts(self, mesh):
        codes, edge_id, counts, order = mesh.edge_numbering
        ref = oracles.edge_numbering_unique(mesh)
        for got, want in zip((codes, edge_id, counts), ref):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        assert np.array_equal(order, np.argsort(edge_id.ravel(),
                                                kind="stable"))
        et = edge_table(mesh)
        got = (et.int_tri_plus, et.int_tri_minus, et.int_normals,
               et.int_lengths)
        for g, want in zip(got, oracles.interior_edges_two_sorts(mesh)[1:]):
            assert g.dtype == want.dtype
            assert np.array_equal(g, want)

    def test_stable_sort_either_way(self, rng):
        # sorting x * n + index and the stable argsort (taken when those
        # keys could overflow int64) give the same grouping
        x = rng.integers(0, 50, size=300)
        want = np.argsort(x, kind="stable")
        for bound in (50, 2 ** 62):
            order, ordered = _stable_sort(x, bound)
            assert np.array_equal(order, want)
            assert np.array_equal(ordered, x[want])

    @pytest.mark.parametrize("x", [np.nan, pytest.param(
        np.inf, marks=pytest.mark.filterwarnings("ignore:invalid value"))])
    def test_non_finite_vertex_detected(self, x):
        m = generate_unit_square(4)
        vertices = m.vertices.copy()
        vertices[12] = (x, 0.5)
        with pytest.raises(MeshConformityError,
                           match="non-positive signed area"):
            check_conforming(Mesh(vertices=vertices, triangles=m.triangles))

    def test_overshared_edge_detected(self):
        vertices, triangles, message = oracles.NONCONFORMING["overshared_edge"]
        with pytest.raises(MeshConformityError, match=message):
            check_conforming(Mesh(vertices=vertices, triangles=triangles))


class TestSizesAndProlongation:
    def test_reference_triangle_ht(self, ref_triangle):
        h_t = np.sqrt(ref_triangle.areas)
        assert h_t[0] == pytest.approx(np.sqrt(0.5), abs=1e-15)

    def test_unit_length_edge(self):
        # interior vertical edge of the L-shape at n=1 has length 1
        m = generate_lshape(1)
        h_f = edge_table(m).int_lengths
        assert np.any(np.abs(h_f - 1.0) < 1e-14)

    def test_bisection_halves_area(self):
        m = generate_unit_square(1)
        h0 = np.sqrt(m.areas)
        r = refine(m, [0])
        h1 = np.sqrt(r.areas)
        assert np.allclose(h1, h0[0] / np.sqrt(2.0))

    def test_prolongation_reproduces_linears(self):
        m = generate_unit_square(3)
        values = 2.0 * m.vertices[:, 0] - 0.7 * m.vertices[:, 1] + 0.3
        r = refine(m, [1, 4, 9])
        fine = prolong_vertex_values(r, values)
        expected = 2.0 * r.vertices[:, 0] - 0.7 * r.vertices[:, 1] + 0.3
        assert np.max(np.abs(fine - expected)) < 1e-14

    @pytest.mark.parametrize("uniform_rounds", [1, 2])
    def test_prolongation_across_refines(self, uniform_rounds):
        # one refine at a time through the intermediate meshes; with two
        # uniform rounds, midpoints of one step are parents in the next
        m = generate_unit_square(3)
        values = 2.0 * m.vertices[:, 0] - 0.7 * m.vertices[:, 1] + 0.3
        r = refine(m, [1, 4, 9])
        fine = prolong_vertex_values(r, values)
        for _ in range(uniform_rounds):
            r = refine_uniform(r)
            fine = prolong_vertex_values(r, fine)
        expected = 2.0 * r.vertices[:, 0] - 0.7 * r.vertices[:, 1] + 0.3
        assert np.max(np.abs(fine - expected)) < 1e-14
        # the same values as averaging the parent edge vertex by vertex
        loop = np.empty(r.num_vertices)
        loop[:m.num_vertices] = values
        for i in range(m.num_vertices, r.num_vertices):
            a, b = r.vertex_parents[i]
            loop[i] = 0.5 * (loop[a] + loop[b])
        assert np.array_equal(fine, loop)

    def test_prolongation_needs_parent_edges(self):
        m = generate_unit_square(2)
        grown = Mesh(vertices=np.vstack((m.vertices, [[0.5, 0.5]])),
                     triangles=m.triangles)
        with pytest.raises(ValueError, match="vertex 9 is not the midpoint "
                                             "of an edge between coarse"):
            prolong_vertex_values(grown, np.zeros(m.num_vertices))
        # a parent edge ending at a new vertex spans more than one refine
        two = Mesh(vertices=np.vstack((m.vertices, [[0.5, 0.5], [0.25, 0.5]])),
                   triangles=m.triangles,
                   vertex_parents=np.vstack((m.vertex_parents,
                                             [[0, 4], [0, 9]])))
        with pytest.raises(ValueError, match="vertex 10 is not the midpoint"):
            prolong_vertex_values(two, np.zeros(m.num_vertices))

    def test_vertex_parents_shape_checked(self):
        m = generate_unit_square(2)
        for shape in ((3, 2), (m.num_vertices, 3), (m.num_vertices,)):
            with pytest.raises(ValueError, match="vertex_parents"):
                Mesh(m.vertices, m.triangles, vertex_parents=np.zeros(shape))
