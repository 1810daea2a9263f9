import numpy as np
import pytest

from plapeig import fem, plap
from plapeig.fem import DEGREE5_POINTS, DEGREE5_WEIGHTS, P1Function
from plapeig.mesh import generate_disk, generate_lshape, generate_unit_square, \
    refine

import oracles


def p1(mesh, coeffs):
    return P1Function(mesh, np.asarray(coeffs, dtype=float))


class TestQuadrature:
    def test_weights_sum_to_one(self):
        assert DEGREE5_WEIGHTS.sum() == pytest.approx(1.0, abs=1e-15)
        # the rule is shared module state: read-only
        assert not DEGREE5_WEIGHTS.flags.writeable
        assert not DEGREE5_POINTS.flags.writeable

    def test_degree5_exactness(self):
        # all monomials x^a y^b with a + b <= 5 against the closed form
        x = DEGREE5_POINTS[:, 1]
        y = DEGREE5_POINTS[:, 2]
        for a in range(6):
            for b in range(6 - a):
                exact = oracles.monomial_integral(a, b)
                approx = 0.5 * np.dot(DEGREE5_WEIGHTS, x ** a * y ** b)
                assert approx == pytest.approx(exact, rel=1e-13)

    def test_duffy_oracle_is_degree10(self):
        pts, w = oracles.gauss_duffy_rule(6)
        for a in range(11):
            for b in range(11 - a):
                exact = oracles.monomial_integral(a, b)
                approx = np.dot(w, pts[:, 0] ** a * pts[:, 1] ** b)
                assert approx == pytest.approx(exact, rel=1e-12)


class TestStiffness:
    def test_reference_local_matrix(self, ref_triangle):
        K = fem.assemble_stiffness(ref_triangle).toarray()
        expected = 0.5 * np.array([[2.0, -1.0, -1.0],
                                   [-1.0, 1.0, 0.0],
                                   [-1.0, 0.0, 1.0]])
        assert np.allclose(K, expected, atol=1e-14)

    def test_constants_in_kernel(self):
        m = generate_unit_square(5)
        K = fem.assemble_stiffness(m)
        assert np.max(np.abs(K @ np.ones(m.num_vertices))) < 1e-12

    def test_symmetry(self):
        m = generate_unit_square(4)
        K = fem.assemble_stiffness(m)
        assert abs(K - K.T).max() < 1e-12

    def test_center_diagonal_five_point(self):
        m = generate_unit_square(2)
        K = fem.assemble_stiffness(m)
        c = int(np.argmin(np.linalg.norm(m.vertices - 0.5, axis=1)))
        assert K[c, c] == pytest.approx(4.0, abs=1e-13)

    def test_interior_block_positive_definite(self):
        m = generate_unit_square(4)
        K = fem.assemble_stiffness(m)
        idx = np.nonzero(~m.boundary_vertex)[0]
        A = K.toarray()[np.ix_(idx, idx)]
        assert np.linalg.eigvalsh(A).min() > 0


def corner_graded_lshape():
    """generate_lshape(4) after 5 rounds of refinement at the re-entrant
    corner: the appended vertex numbers leave the matrices far from banded."""
    m = generate_lshape(4)
    for _ in range(5):
        corner = m.vertices[m.triangles].mean(axis=1) - 1.0
        m = refine(m, np.nonzero(np.linalg.norm(corner, axis=1) < 0.3)[0])
    return m


class TestEdgeFormAssembly:
    @pytest.mark.parametrize("make", [corner_graded_lshape,
                                      lambda: generate_disk(2)],
                             ids=["graded_lshape", "disk"])
    @pytest.mark.parametrize("assemble,local", [
        (fem.assemble_stiffness, oracles.stiffness_local)],
        ids=["stiffness"])
    def test_matches_scatter_oracle(self, make, assemble, local):
        m = make()
        A = assemble(m)
        ref = oracles.scatter_assembly(m, local(m))
        ne = len(m.edge_numbering[0])
        assert A.nnz == ref.nnz == m.num_vertices + 2 * ne
        assert A.has_canonical_format
        assert np.array_equal(A.indptr, ref.indptr)
        assert np.array_equal(A.indices, ref.indices)
        # entrywise, relative to sqrt(A_ii A_jj), which bounds |A_ij|
        rows = np.repeat(np.arange(m.num_vertices), np.diff(ref.indptr))
        d = ref.diagonal()
        scale = np.sqrt(d[rows] * d[ref.indices])
        assert np.all(np.abs(A.data - ref.data) <= 1e-14 * scale)


class TestRhs:
    def test_constant_load_reference(self, ref_triangle):
        b = fem.assemble_rhs(ref_triangle, 1.0)
        assert np.allclose(b, 1.0 / 6.0, atol=1e-15)

    def test_linear_load_reference(self, ref_triangle):
        fx = oracles.values_at_points(ref_triangle.vertices,
                                      ref_triangle.triangles, DEGREE5_POINTS,
                                      lambda x, y: x)
        b = fem.assemble_rhs(ref_triangle, fx)
        # int x phi_0 = int x (1 - x - y) from exact monomial integrals
        exact = (oracles.monomial_integral(1, 0)
                 - oracles.monomial_integral(2, 0)
                 - oracles.monomial_integral(1, 1))
        assert b[0] == pytest.approx(exact, rel=1e-13)
        assert exact == pytest.approx(1.0 / 24.0, rel=1e-15)

    def test_constant_field_total_is_zero(self):
        # partition of unity: sum_i grad(phi_i) = 0, so a pure field load
        # sums to zero over all vertices
        m = generate_unit_square(3)
        g = np.tile([0.3, -1.2], (m.num_triangles, 1))
        b = plap.DCWorkspace(m).g_load(g)
        assert abs(b.sum()) < 1e-13

    def test_field_size_mismatch(self, ref_triangle):
        for bad in (np.zeros(9), np.zeros(1), np.zeros((1, 3))):
            with pytest.raises(ValueError):
                fem.assemble_rhs(ref_triangle, bad)


class TestDirichletSolve:
    @staticmethod
    def _factor(m):
        return fem.DirichletFactor(fem.interior_stiffness(m),
                                   m.boundary_vertex)

    @staticmethod
    def _solve(fac, b):
        """Vertex values of the Dirichlet solution for a load b on all
        vertices: the factor solves on the interior ones."""
        u = np.zeros(len(b))
        u[fac.idx] = fac.solve(b[fac.idx])
        return u

    def test_zero_rhs(self):
        m = generate_unit_square(4)
        fac = self._factor(m)
        u = fac.solve(np.zeros(len(fac.idx)))
        assert u.shape == fac.idx.shape and np.all(u == 0.0)
        # a load on all vertices is no interior load, zero or not
        for b in (np.zeros(m.num_vertices), fem.assemble_rhs(m, 1.0)):
            with pytest.raises(ValueError, match="interior vertex count"):
                fac.solve(b)

    def test_single_unknown(self):
        m = generate_unit_square(2)
        K = fem.assemble_stiffness(m)
        b = fem.assemble_rhs(m, 1.0)
        u = self._solve(self._factor(m), b)
        c = int(np.nonzero(~m.boundary_vertex)[0][0])
        assert u[c] == pytest.approx(b[c] / K[c, c], rel=1e-12)
        assert np.all(u[m.boundary_vertex] == 0.0)

    def test_factorized_matches_dense(self):
        m = generate_unit_square(6)
        K = fem.assemble_stiffness(m)
        b = fem.assemble_rhs(m, 1.0)
        u = self._solve(self._factor(m), b)
        u_dense = oracles.solve_dirichlet_dense(K, b, m.boundary_vertex)
        assert np.max(np.abs(u - u_dense)) < 1e-12

    def test_factorized_matches_dense_on_graded_mesh(self, rng):
        # refinement appends the new vertices, so the interior block of an
        # adaptively graded mesh is far from banded; the factorization must
        # still agree with a dense solve
        m = corner_graded_lshape()
        assert m.num_vertices > 2 * generate_lshape(4).num_vertices
        K = fem.assemble_stiffness(m)
        fac = self._factor(m)
        for b in (fem.assemble_rhs(m, 1.0),
                  rng.standard_normal(m.num_vertices)):
            u = self._solve(fac, b)
            u_dense = oracles.solve_dirichlet_dense(K, b, m.boundary_vertex)
            err = np.linalg.norm(u - u_dense) / np.linalg.norm(u_dense)
            assert err < 1e-10

    def test_residual_contract(self):
        m = generate_unit_square(10)
        K = fem.assemble_stiffness(m)
        b = fem.assemble_rhs(m, 1.0)
        u = self._solve(self._factor(m), b)
        idx = ~m.boundary_vertex
        A = K.tocsr()[np.nonzero(idx)[0]][:, np.nonzero(idx)[0]]
        res = np.linalg.norm(A @ u[idx] - b[idx]) / np.linalg.norm(b[idx])
        assert res <= 1e-10

    def test_full_matrix_rejected(self):
        m = generate_unit_square(3)
        with pytest.raises(ValueError, match="interior vertex count"):
            fem.DirichletFactor(fem.assemble_stiffness(m), m.boundary_vertex)

    def test_no_interior_vertices_rejected(self):
        m = generate_unit_square(1)
        with pytest.raises(ValueError, match="no interior vertices"):
            fem.DirichletFactor(fem.interior_stiffness(m),
                                m.boundary_vertex)

    def test_torsion_center_value_fourier(self):
        # -lap u = 1 on the unit square against the series oracle, at a
        # vertex count beyond ten thousand
        exact = oracles.square_torsion_center()
        assert exact == pytest.approx(0.0736713, abs=5e-7)
        m = generate_unit_square(100)
        assert m.num_vertices >= 10_000
        u = self._solve(self._factor(m), fem.assemble_rhs(m, 1.0))
        c = int(np.argmin(np.linalg.norm(m.vertices - 0.5, axis=1)))
        assert abs(u[c] - exact) / exact < 0.01

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_load_is_solver_error(self, bad):
        # a NaN residual fails the tolerance test: no NaN or inf returned
        fac = self._factor(generate_unit_square(6))
        for b in (np.full(len(fac.idx), bad),
                  np.where(np.arange(len(fac.idx)) == 3, bad, 1.0)):
            with pytest.raises(fem.SolverError, match="residual tolerance"):
                fac.solve(b)

    def test_degenerate_triangle_rejected(self):
        from plapeig.mesh import Mesh, MeshConformityError
        bad = Mesh(vertices=np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
                   triangles=np.array([[0, 1, 2]]))
        with pytest.raises(MeshConformityError):
            fem.assemble_stiffness(bad)


class TestGradAndNorms:
    def test_grad_linear(self, ref_triangle):
        u = p1(ref_triangle, ref_triangle.vertices[:, 0])
        assert np.allclose(fem.grad(u), [[1.0, 0.0]], atol=1e-14)

    def test_grad_constant(self):
        m = generate_unit_square(3)
        u = p1(m, np.full(m.num_vertices, 7.5))
        assert np.max(np.abs(fem.grad(u))) < 1e-13

    def test_grad_affine(self):
        m = generate_unit_square(3)
        u = p1(m, 3.0 * m.vertices[:, 0] + 2.0 * m.vertices[:, 1] - 1.0)
        assert np.allclose(fem.grad(u), [3.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize("mesh", [
        generate_unit_square(9),
        generate_lshape(5),
        refine(generate_disk(3), [0, 5, 17]),
    ], ids=["square", "lshape", "disk"])
    def test_grad_matches_take_loop_bit_for_bit(self, mesh, rng):
        # signed zeros included, for trial functions as the solver makes
        # them: +0.0 on the boundary
        coeffs = rng.standard_normal(mesh.num_vertices)
        coeffs[mesh.boundary_vertex] = 0.0
        for c in (coeffs, np.zeros(mesh.num_vertices)):
            got = fem.grad(p1(mesh, c))
            ref = oracles.grad_take_loop(p1(mesh, c))
            assert got.shape == ref.shape and got.flags.f_contiguous
            assert np.array_equal(got.view(np.int64), ref.view(np.int64))
        # -0.0 coefficients can leave three -0.0 terms, which the loop sums
        # to -0.0 and the sparse product, whose sum starts at +0.0, to +0.0
        coeffs = coeffs.copy()
        coeffs[np.nonzero(mesh.boundary_vertex)[0][::2]] = -0.0
        got = fem.grad(p1(mesh, coeffs))
        ref = oracles.grad_take_loop(p1(mesh, coeffs))
        differ = got.view(np.int64) != ref.view(np.int64)
        assert np.array_equal(got, ref) and np.all(got[differ] == 0.0)

    def test_gradient_operator_shares_basis_gradients(self):
        m = refine(generate_lshape(3), [0, 7, 30])
        G = m.gradient
        assert G is m.gradient  # cached
        assert G.shape == (2 * m.num_triangles, m.num_vertices)
        assert np.shares_memory(G.data, m.basis_gradients)
        assert G.indices.dtype == G.indptr.dtype == np.int32

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
    def test_lp_norm_constant_one(self, p):
        m = generate_unit_square(3)
        u = p1(m, np.ones(m.num_vertices))
        assert fem.lp_norm(u, p) == pytest.approx(1.0, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_lp_norm_homogeneity(self, p, rng):
        m = generate_unit_square(3)
        u = p1(m, rng.standard_normal(m.num_vertices))
        c = -2.3
        cu = p1(m, c * u.coeffs)
        assert fem.lp_norm(cu, p) == pytest.approx(abs(c) * fem.lp_norm(u, p),
                                                   rel=1e-13)

    def test_lp_norm_linear_exact(self, ref_triangle):
        u = p1(ref_triangle, ref_triangle.vertices[:, 0])
        assert fem.lp_norm(u, 2.0) == pytest.approx(np.sqrt(1.0 / 12.0),
                                                    rel=1e-14)

    @staticmethod
    def _oracle_element_lp(m, u, p):
        """int_T |u|^p per triangle by the 8 x 8 Duffy rule (degree 14)."""
        out = np.empty(m.num_triangles)
        for t, tri in enumerate(m.triangles):
            v = m.vertices[tri]
            c = u.coeffs[tri]

            def f(x, y, v=v, c=c):
                # invert the affine map to barycentric coordinates
                mat = np.array([[v[1, 0] - v[0, 0], v[2, 0] - v[0, 0]],
                                [v[1, 1] - v[0, 1], v[2, 1] - v[0, 1]]])
                inv = np.linalg.inv(mat)
                lam1 = inv[0, 0] * (x - v[0, 0]) + inv[0, 1] * (y - v[0, 1])
                lam2 = inv[1, 0] * (x - v[0, 0]) + inv[1, 1] * (y - v[0, 1])
                vals = c[0] * (1 - lam1 - lam2) + c[1] * lam1 + c[2] * lam2
                return np.abs(vals) ** p

            out[t] = oracles.integrate_triangle(f, v[0], v[1], v[2], m=8)
        return out

    def _oracle_lp(self, m, u, p):
        return self._oracle_element_lp(m, u, p).sum() ** (1.0 / p)

    @pytest.mark.parametrize("p", [2.0, 4.0])
    def test_element_lp_vs_duffy_oracle(self, p, rng):
        # |u|^p is a polynomial of degree p <= 4 here: the degree-5 rule is
        # exact, so only round-off separates the two rules on each element
        m = refine(generate_unit_square(3), [0, 5, 11])
        for _ in range(3):
            u = p1(m, rng.uniform(0.5, 2.0, m.num_vertices))
            got = fem.element_lp(u, p)
            assert got.shape == (m.num_triangles,)
            np.testing.assert_allclose(
                got, self._oracle_element_lp(m, u, p), rtol=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.7])
    def test_element_lp_sums_to_lp_norm_and_rayleigh(self, p, rng):
        m = generate_lshape(3)
        u = p1(m, rng.standard_normal(m.num_vertices))
        total = fem.element_lp(u, p).sum()
        assert total == pytest.approx(fem.lp_norm(u, p) ** p, rel=1e-14)
        assert fem.rayleigh(u, p) == fem.w1p_seminorm_p(u, p) / total

    @pytest.mark.parametrize("p", [1.1, 1.5, 3.0, 4.7])
    def test_lp_norm_vs_degree10_oracle(self, p, rng):
        # sign-definite samples: |u|^p is then smooth per element and the
        # two rules must agree tightly (the eigenfunction use case)
        m = generate_unit_square(3)
        for _ in range(5):
            u = p1(m, rng.uniform(0.5, 2.0, m.num_vertices))
            assert fem.lp_norm(u, p) == pytest.approx(self._oracle_lp(m, u, p),
                                                      rel=1e-6)

    @pytest.mark.parametrize("p", [1.5, 4.7])
    def test_lp_norm_sign_changing(self, p, rng):
        # |u|^p has a kink inside sign-changing elements; agreement is then
        # limited by quadrature error, not implementation error
        m = generate_unit_square(3)
        u = p1(m, rng.standard_normal(m.num_vertices))
        assert fem.lp_norm(u, p) == pytest.approx(self._oracle_lp(m, u, p),
                                                  rel=5e-3)

    def test_sup_norm(self):
        m = generate_unit_square(1)
        assert fem.sup_norm(p1(m, [0.0, 0.0, 0.0, 0.0])) == 0.0
        assert fem.sup_norm(p1(m, [-3.0, 2.0, 0.0, 1.0])) == 3.0
        u = p1(m, [0.5, -1.5, 2.0, 0.0])
        cu = p1(m, -4.0 * u.coeffs)
        assert fem.sup_norm(cu) == pytest.approx(4.0 * fem.sup_norm(u))

    def test_w1p_seminorm(self):
        m = generate_unit_square(4)
        u = p1(m, m.vertices[:, 0])
        assert fem.w1p_seminorm_p(u, 2.0) == pytest.approx(1.0, rel=1e-13)
        const = p1(m, np.full(m.num_vertices, 3.0))
        assert fem.w1p_seminorm_p(const, 2.5) == pytest.approx(0.0, abs=1e-20)
        cu = p1(m, -2.0 * u.coeffs)
        assert fem.w1p_seminorm_p(cu, 3.0) == pytest.approx(
            2.0 ** 3 * fem.w1p_seminorm_p(u, 3.0), rel=1e-13)

    def test_rayleigh_reference(self, ref_triangle):
        u = p1(ref_triangle, ref_triangle.vertices[:, 0])
        assert fem.rayleigh(u, 2.0) == pytest.approx(6.0, rel=1e-13)

    def test_rayleigh_scale_invariant(self, rng):
        m = generate_unit_square(3)
        u = p1(m, rng.standard_normal(m.num_vertices))
        for c in (0.1, -5.0, 1e4):
            cu = p1(m, c * u.coeffs)
            assert fem.rayleigh(cu, 2.5) == pytest.approx(
                fem.rayleigh(u, 2.5), rel=1e-12)

    def test_parameter_validation(self, ref_triangle):
        u = p1(ref_triangle, [1.0, 0.0, 0.0])
        for p in (1.0, 0.5, np.nan, np.inf):
            for fn in (fem.element_lp, fem.lp_norm, fem.rayleigh,
                       fem.w1p_seminorm_p):
                with pytest.raises(ValueError, match="p must exceed 1"):
                    fn(u, p)
        zero = p1(ref_triangle, [0.0, 0.0, 0.0])
        with pytest.raises(ValueError):
            fem.rayleigh(zero, 2.0)

    def test_p_flux_zero_rows_safe(self):
        field = np.array([[0.0, 0.0], [3.0, 4.0]])
        out = fem.p_flux(field, 1.5)
        assert np.all(np.isfinite(out))
        assert np.allclose(out[0], 0.0)
        assert np.allclose(out[1], np.array([3.0, 4.0]) / np.sqrt(5.0))
