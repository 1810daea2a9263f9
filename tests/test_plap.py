import tracemalloc
import weakref

import numpy as np
import pytest

from plapeig import fem, plap
from plapeig.fem import SolverError
from plapeig.mesh import Mesh, edge_table, generate_disk, generate_lshape, \
    generate_unit_square, refine

import oracles


class TestResolvent:
    @pytest.mark.parametrize("s,p,root", [
        (0.0, 3.0, 0.0),
        (1.0, 2.0, 0.5),
        (2.0, 3.0, 1.0),
        (2.0, 1.5, 1.0),
    ])
    def test_known_roots(self, s, p, root):
        r = plap.resolvent_many(np.array([s]), p)
        assert r[0] == pytest.approx(root, abs=1e-13)

    def test_residual_contract(self, rng):
        for _ in range(50):
            p = float(rng.uniform(1.05, 40.0))
            s = rng.uniform(0.0, 1e6, size=40)
            r = plap.resolvent_many(s, p)
            res = np.abs(r ** (p - 1.0) + r - s)
            assert np.all(res <= 1e-13 * np.maximum(1.0, s))

    @staticmethod
    def wide_s(rng):
        """Extremes of s from zero to the largest double, and a seeded
        batch spread over 40 decades."""
        extremes = [0.0, 5e-324, 1e-300, 1e-12, 1.0, 1e6, 1e12, 1e300,
                    np.finfo(float).max]
        return np.concatenate((extremes,
                               10.0 ** rng.uniform(-20.0, 20.0, size=400)))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_closed_forms_meet_contract(self, p, rng):
        s = self.wide_s(rng)
        r = plap.resolvent_many(s, p)
        assert np.all(np.isfinite(r))
        res = np.abs(r ** (p - 1.0) + r - s)
        assert np.all(res <= 1e-13 * np.maximum(1.0, s))

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_closed_forms_match_newton(self, p, rng):
        s = self.wide_s(rng)
        r = plap.resolvent_many(s, p)
        ref = plap._resolvent_newton(s, p)
        assert np.all(np.abs(r - ref) <= 1e-13 * np.maximum(1.0, s))

    @pytest.mark.parametrize("p", [1.1, 1.7, 1.9])
    def test_newton_near_largest_double(self, p):
        s = np.array([1e300, 1e308, np.finfo(float).max])
        with np.errstate(over="raise"):
            r = plap.resolvent_many(s, p)
        assert np.all(np.isfinite(r))
        res = np.abs(r ** (p - 1.0) + r - s)
        assert np.all(res <= 1e-13 * s)

    def test_p2_is_bit_identical_to_newton(self, rng):
        s = self.wide_s(rng)
        assert np.array_equal(plap.resolvent_many(s, 2.0),
                              plap._resolvent_newton(s, 2.0))

    @pytest.mark.parametrize("p", [1.1, 2.0, 7.0, 35.0])
    def test_strictly_increasing_in_s(self, p, rng):
        s = np.sort(rng.uniform(0.0, 1e5, size=300))
        r = plap.resolvent_many(s, p)
        assert np.all(np.diff(r) >= 0.0)
        distinct = np.diff(s) > 1e-8 * np.maximum(1.0, s[:-1])
        assert np.all(np.diff(r)[distinct] > 0.0)

    def test_continuous_at_zero(self):
        small = np.array([0.0, 1e-14, 1e-10, 1e-6])
        r = plap.resolvent_many(small, 1.7)
        assert r[0] == 0.0
        assert np.all(np.diff(r) >= 0.0)
        assert r[-1] < 1e-5

    @pytest.mark.parametrize("s,p", [(1e-12, 1.01), (0.5, 1.0000001)])
    def test_underflowing_root_is_solver_error(self, s, p):
        # the root lies below the smallest double, so the residual contract
        # cannot be met
        with pytest.raises(SolverError, match="resolvent iteration failed"):
            plap.resolvent_many(np.array([s]), p)

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            plap.resolvent_many(np.array([-1.0]), 2.0)
        for p in (1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="p must exceed 1"):
                plap.resolvent_many(np.array([0.5, 2.0]), p)
        with pytest.raises(ValueError):
            plap.resolvent_many(np.array([np.inf]), 2.0)
        # every exact root and the Newton path check s the same way
        for p in (1.5, 2.0, 3.0, 7.0):
            empty = plap.resolvent_many(np.array([]), p)
            assert empty.shape == (0,) and empty.dtype == np.float64
            for bad in (np.nan, np.inf, -np.inf, -1e-300):
                for s in ([bad], [0.5, bad, 2.0], [bad, 0.0], [3.0, bad]):
                    with pytest.raises(ValueError, match="finite and "
                                                         "nonnegative"):
                        plap.resolvent_many(np.array(s), p)


class TestNuUpdate:
    def test_zero_input(self):
        out = plap.nu_update(np.zeros((3, 2)), 2.7)
        assert np.all(out == 0.0)

    def test_p2_halves(self):
        out = plap.nu_update(np.array([[3.0, 4.0]]), 2.0)
        assert np.allclose(out, [[1.5, 2.0]], atol=1e-15)

    @pytest.mark.parametrize("p", [1.3, 2.0, 4.0, 11.0])
    def test_defining_equation_and_alignment(self, p, rng):
        w = rng.standard_normal((60, 2)) * 10.0
        nu = plap.nu_update(w, p)
        n_nu = np.linalg.norm(nu, axis=1)
        n_w = np.linalg.norm(w, axis=1)
        assert np.all(np.abs(n_nu ** (p - 1.0) + n_nu - n_w)
                      <= 1e-12 * np.maximum(1.0, n_w))
        cross = nu[:, 0] * w[:, 1] - nu[:, 1] * w[:, 0]
        assert np.max(np.abs(cross)) < 1e-12 * np.max(n_w) ** 2


class TestDCSolve:
    def test_p2_degenerates_to_poisson(self):
        m = generate_unit_square(8)
        K = fem.assemble_stiffness(m)
        b = fem.assemble_rhs(m, 1.0)
        u_ref = oracles.solve_dirichlet_dense(K, b, m.boundary_vertex)
        for seed in (0, 1, 2, 3, 4):
            u, rep = plap.dc_solve(m, 1.0, 2.0, seed=seed)
            assert rep.converged
            assert rep.iterations == 3
            assert np.max(np.abs(u.coeffs - u_ref)) < 1e-8

    def test_disk_torsion_p2(self):
        d = generate_disk(9)
        u, rep = plap.dc_solve(d, 1.0, 2.0)
        assert rep.converged
        assert abs(np.max(u.coeffs) - 0.25) / 0.25 < 0.01

    @pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
    def test_disk_torsion_general_p(self, p):
        d = generate_disk(8)
        u, rep = plap.dc_solve(d, 1.0, p)
        assert rep.converged
        center = float(u.coeffs[0])  # the origin is vertex 0 of the fan
        exact = float(oracles.disk_torsion(0.0, p))
        assert abs(center - exact) / exact < 0.02

    def test_deterministic(self):
        m = generate_unit_square(5)
        u1, r1 = plap.dc_solve(m, 1.0, 3.0, seed=77)
        u2, r2 = plap.dc_solve(m, 1.0, 3.0, seed=77)
        assert np.array_equal(u1.coeffs, u2.coeffs)
        assert np.array_equal(r1.w, r2.w)
        assert r1.iterations == r2.iterations
        assert r1.w.flags.owndata and r1.w.shape == (m.num_triangles, 2)

    def test_seed_changes_trajectory_not_limit(self):
        m = generate_unit_square(6)
        u1, _ = plap.dc_solve(m, 1.0, 1.5, seed=1, eps_n=1e-9)
        u2, _ = plap.dc_solve(m, 1.0, 1.5, seed=2, eps_n=1e-9)
        assert np.max(np.abs(u1.coeffs - u2.coeffs)) < 1e-6

    def test_non_convergence_reported(self):
        m = generate_unit_square(6)
        u, rep = plap.dc_solve(m, 1.0, 3.0, max_iter=2)
        assert not rep.converged
        assert rep.iterations == 2
        assert rep.rel_change > 0.0

    def test_consistency_residual_decreases(self):
        d = generate_disk(6)
        u, rep = plap.dc_solve(d, 1.0, 1.5, eps_n=1e-7)
        n = rep.iterations
        tail = [plap.consistency(uk, rk.w, 1.5) for uk, rk in
                (plap.dc_solve(d, 1.0, 1.5, eps_n=1e-7, max_iter=k)
                 for k in (n - 2, n - 1, n))]
        assert tail[0] >= tail[1] >= tail[2]
        assert plap.consistency(u, rep.w, 1.5) == tail[-1]

    def test_consistency_rejects_misshapen_state(self):
        # a state of one row would broadcast against every triangle
        m = generate_unit_square(4)
        u, rep = plap.dc_solve(m, 1.0, 1.5)
        for w in (rep.w[:1], rep.w[:, :1], rep.w.T):
            with pytest.raises(ValueError, match="one 2-vector per triangle"):
                plap.consistency(u, w, 1.5)

    @pytest.mark.parametrize("p", [1.5, 3.0, 8.0])
    def test_accelerated_sweep_reaches_plain_limit_sooner(self, p):
        m = generate_unit_square(6)
        u_ref, n_ref = oracles.dc_sweep_plain(m, 1.0, p, 1e-10, 5000)
        u, rep = plap.dc_solve(m, 1.0, p, eps_n=1e-10, max_iter=5000)
        assert u_ref is not None and rep.converged
        assert np.max(np.abs(u.coeffs - u_ref)) <= 1e-8 * np.max(u_ref)
        assert rep.iterations < n_ref

    def test_p2_is_bit_identical_to_plain_sweep(self):
        m = generate_unit_square(7)
        u_ref, n_ref = oracles.dc_sweep_plain(m, 1.0, 2.0, 1e-5, 500)
        u, rep = plap.dc_solve(m, 1.0, 2.0)
        assert rep.iterations == n_ref == 3
        assert np.array_equal(u.coeffs, u_ref)

    def test_p2_warm_start_solves_once(self, monkeypatch):
        # at p = 2, xi - nu vanishes after a sweep, so a solve started from
        # the state of an earlier one meets the same load in its first two
        # sweeps: the second reuses the first one's solution, and the
        # result is that of the plain sweep, which solves both
        m = generate_unit_square(7)
        ws = plap.DCWorkspace(m)
        _, first = plap.dc_solve(m, 1.0, 2.0, workspace=ws)
        init = first.w
        solves = []
        solve = ws.factor.solve
        monkeypatch.setattr(ws.factor, "solve",
                            lambda b: solves.append(b) or solve(b))
        u, rep = plap.dc_solve(m, 1.0, 2.0, init=init, workspace=ws)
        assert len(solves) == 1
        u_ref, n_ref = oracles.dc_sweep_plain(m, 1.0, 2.0, 1e-5, 500,
                                              init=init)
        assert rep.converged and rep.iterations == n_ref == 2
        assert rep.rel_change == 0.0
        assert np.array_equal(u.coeffs, u_ref)
        # sweep 1 gives w = xi(w0) + grad u, sweep 2 (the reuse)
        # xi(w) + grad u
        gu = fem.grad(u)
        w = init - plap.nu_update(init, 2.0) + gu
        w = w - plap.nu_update(w, 2.0) + gu
        nu = plap.nu_update(w, 2.0)
        xi = w - nu
        scale = np.abs(xi).max()
        rep_nu = plap.nu_update(rep.w, 2.0)
        assert np.max(np.abs(rep.w - rep_nu - xi)) <= 1e-14 * scale
        assert np.max(np.abs(rep_nu - nu)) <= 1e-14 * scale
        consistency = np.sqrt(m.areas @ ((xi - gu) ** 2).sum(axis=1))
        assert plap.consistency(u, rep.w, 2.0) == pytest.approx(consistency,
                                                                rel=1e-12)

    def test_every_sweep_solves_through_the_factor(self, monkeypatch):
        # away from p = 2 no load repeats, so each sweep makes one call of
        # the class's solve, with a load on the interior vertices
        loads = []
        solve = fem.DirichletFactor.solve
        monkeypatch.setattr(fem.DirichletFactor, "solve",
                            lambda self, b: loads.append(len(b))
                            or solve(self, b))
        m = generate_unit_square(6)
        _, rep = plap.dc_solve(m, 1.0, 3.0)
        assert rep.converged and rep.iterations > 3
        assert loads == [np.count_nonzero(~m.boundary_vertex)] * \
            rep.iterations

    def test_singular_history_takes_plain_step(self, rng):
        # fields are flat, component by component: 2 x 20 triangles
        accel = plap._Anderson(rng.uniform(0.5, 1.0, size=20))
        g = rng.standard_normal((4, 40))
        f = rng.standard_normal(40)
        assert np.array_equal(accel.step(g[0], f), g[0])
        # residuals f and 2 f: the least-squares weight of the difference
        # is 2, which extrapolates to where the residual vanishes
        w = accel.step(g[1], 2.0 * f)
        assert accel.depth == 1
        assert np.allclose(w, g[1] - 2.0 * (g[1] - g[0]), rtol=0, atol=1e-12)
        # the next difference repeats the last one: the Gram matrix of the
        # two is singular, so the step is plain and the history is cleared
        w = accel.step(g[2], 3.0 * f)
        assert accel.depth == 0 and np.array_equal(w, g[2])
        accel.step(g[3], 5.0 * f)
        assert accel.depth == 1

    def test_extrapolate_matches_least_squares_after_wrap(self, rng):
        # non-uniform areas; ten steps wrap the difference slots twice past
        # ANDERSON_MEMORY, so the Gram matrix is updated in place
        areas = rng.uniform(0.1, 2.0, size=20)
        root_w = np.sqrt(np.tile(areas, 2))
        accel = plap._Anderson(areas)
        gs, fs = [], []
        for n in range(10):
            g, f = rng.standard_normal((2, 40))
            gs.append(g)
            fs.append(f)
            w = accel.step(g, f)
            k = min(n, plap.ANDERSON_MEMORY)
            assert accel.depth == k
            ref = g
            if k:
                df = np.diff(fs[-k - 1:], axis=0).T
                dg = np.diff(gs[-k - 1:], axis=0).T
                gamma = np.linalg.lstsq(root_w[:, None] * df, root_w * f,
                                        rcond=None)[0]
                ref = g - dg @ gamma
            assert np.max(np.abs(w - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_gram_solve_matches_lapack(self, k, rng):
        # unit-diagonal Gram matrices of k random directions, then the same
        # systems rescaled as the unscaled Gram matrices the sweep builds
        for _ in range(200):
            a = rng.standard_normal((12, k))
            a /= np.sqrt((a * a).sum(axis=0))
            gram, rhs = a.T @ a, rng.standard_normal(k)
            np.fill_diagonal(gram, 1.0)
            ref = np.linalg.solve(gram, rhs)
            got = plap._gram_solve(gram.tolist(), rhs.tolist())
            assert np.max(np.abs(np.subtract(got, ref))) <= \
                1e-13 * np.max(np.abs(ref))
            d = rng.uniform(1e-3, 1e3, size=k)
            ref = np.linalg.solve(gram * np.outer(d, d), rhs)
            got = plap._gram_solve((gram * np.outer(d, d)).tolist(),
                                   rhs.tolist())
            assert np.max(np.abs(np.subtract(got, ref))) <= \
                1e-13 * np.max(np.abs(ref))

    def test_gram_solve_rejects_singular_blocks(self):
        # two parallel differences, of any lengths
        for gram in ([[1.0, 1.0], [1.0, 1.0]], [[4.0, -2.0], [-2.0, 1.0]],
                     [[1.0, 0.5, 1.0], [0.5, 1.0, 0.5], [1.0, 0.5, 1.0]]):
            assert plap._gram_solve(gram, [1.0] * len(gram)) is None
        # a pivot just above and just below the tolerance
        for sine, ok in ((2e-6, True), (5e-7, False)):
            c = float(np.sqrt(1.0 - sine ** 2))
            got = plap._gram_solve([[1.0, c], [c, 1.0]], [1.0, 0.0])
            assert (got is not None) == ok
        # a zero or non-finite diagonal, a NaN off the diagonal
        for gram in ([[0.0]], [[np.inf]], [[np.nan]],
                     [[1.0, np.nan], [np.nan, 1.0]]):
            assert plap._gram_solve(gram, [1.0] * len(gram)) is None
        # only the leading k x k block is read
        assert plap._gram_solve([[4.0, np.nan], [np.nan, np.nan]],
                                [1.0]) == [0.25]

    def test_nonfinite_extrapolate_takes_plain_step(self, rng):
        accel = plap._Anderson(np.ones(5))
        f0, f1 = rng.standard_normal((2, 10))
        accel.step(np.zeros(10), f0)
        g = np.full(10, np.inf)
        w = accel.step(g, f1)
        assert accel.depth == 0 and np.all(w == np.inf)

    def test_explicit_init_used(self):
        m = generate_unit_square(4)
        u, rep = plap.dc_solve(m, 1.0, 2.0,
                               init=np.zeros((m.num_triangles, 2)))
        assert rep.converged
        # from w = 0 the very first sweep is already the Poisson solve
        K = fem.assemble_stiffness(m)
        b = fem.assemble_rhs(m, 1.0)
        u_ref = oracles.solve_dirichlet_dense(K, b, m.boundary_vertex)
        assert np.max(np.abs(u.coeffs - u_ref)) < 1e-9

    def test_rejects_bad_arguments(self):
        m = generate_unit_square(3)
        for p in (1.0, np.nan, np.inf):
            with pytest.raises(ValueError, match="p must exceed 1"):
                plap.dc_solve(m, 1.0, p)
        for eps_n in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps_n"):
                plap.dc_solve(m, 1.0, 2.0, eps_n=eps_n)
        with pytest.raises(ValueError, match="max_iter must be at least 1"):
            plap.dc_solve(m, 1.0, 2.0, max_iter=0)
        for shape in ((2, 2), (m.num_triangles, 3), (2, m.num_triangles)):
            with pytest.raises(ValueError, match="one 2-vector per triangle"):
                plap.dc_solve(m, 1.0, 2.0, init=np.zeros(shape))
        with pytest.raises(ValueError, match="one entry per vertex"):
            plap.dc_solve(m, np.ones((m.num_triangles, 7)), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_load_rejected_before_solving(self, bad, monkeypatch):
        m = generate_unit_square(6)
        calls = []
        monkeypatch.setattr(fem.DirichletFactor, "solve",
                            lambda *args: calls.append(args))
        vector = fem.assemble_rhs(m, 1.0)
        vector[np.nonzero(~m.boundary_vertex)[0][2]] = bad
        for f in (bad, vector):
            with pytest.raises(ValueError, match="load must be finite"):
                plap.dc_solve(m, f, 3.0)
        assert not calls

    def test_workspace_reuse_matches(self):
        m = generate_unit_square(5)
        ws = plap.DCWorkspace(m)
        u1, _ = plap.dc_solve(m, 1.0, 2.5, workspace=ws)
        u2, _ = plap.dc_solve(m, 1.0, 2.5)
        assert np.max(np.abs(u1.coeffs - u2.coeffs)) < 1e-14

    def test_workspace_of_another_mesh_rejected(self):
        # the unit square scaled by 2: with the 8 x 8 unit square's
        # operators max u came out 0.368 instead of 0.521
        square = generate_unit_square(8)
        big = Mesh(vertices=2.0 * square.vertices, triangles=square.triangles)
        with pytest.raises(ValueError, match="workspace"):
            plap.dc_solve(big, 1.0, 3.0, workspace=plap.DCWorkspace(square))

    def test_random_fields_range_and_reproducibility(self):
        m = generate_unit_square(4)
        xi1, nu1 = plap.random_fields(m, seed=9)
        xi2, nu2 = plap.random_fields(m, seed=9)
        assert np.array_equal(xi1, xi2) and np.array_equal(nu1, nu2)
        for arr in (xi1, nu1):
            assert arr.shape == (m.num_triangles, 2)
            assert np.all((arr >= 0.0) & (arr < 0.5))


class TestDCWorkspace:
    @pytest.mark.parametrize("mesh", [
        generate_unit_square(5),
        refine(generate_disk(3), [0, 5, 17]),
    ])
    def test_weights_are_mass_row_sums(self, mesh):
        # the stopping test's lumped mass: the row sums of the mass matrix,
        # over all its columns, on the rows of the interior vertices
        ws = plap.DCWorkspace(mesh)
        ref = oracles.assemble_mass(mesh)[ws.factor.idx].sum(axis=1).A1
        assert np.max(np.abs(ws.weights - ref)) <= 1e-14 * np.max(ref)

    @pytest.mark.parametrize("mesh", [
        generate_unit_square(3),
        refine(generate_disk(2), [0, 5, 17]),
    ])
    def test_g_load_matches_triangle_loop(self, mesh, rng):
        # g_load gives the interior rows of the load, from the flat field
        # the sweep holds: component by component
        ws = plap.DCWorkspace(mesh)
        g = rng.standard_normal((mesh.num_triangles, 2))
        ref = oracles.field_load_loop(mesh, g)[ws.factor.idx]
        assert np.max(np.abs(ws.g_load(g.T.ravel()) - ref)) <= \
            1e-13 * np.max(np.abs(ref))

    def test_grad_matches_elementwise_gradient(self, rng):
        # bit for bit: the sweep's gradient is fem.grad's, so that
        # consistency() evaluates the state of a solve as the sweep left it
        for mesh in (generate_unit_square(9), generate_lshape(5),
                     refine(generate_disk(2), [0, 5, 17])):
            ws = plap.DCWorkspace(mesh)
            coeffs = np.zeros(mesh.num_vertices)
            coeffs[ws.factor.idx] = rng.standard_normal(len(ws.factor.idx))
            ref = fem.grad(fem.P1Function(mesh, coeffs))
            got = ws.grad(coeffs[ws.factor.idx]).reshape(2, -1).T
            assert np.array_equal(got, ref)

    @pytest.mark.parametrize("mesh", [
        generate_unit_square(6),
        refine(generate_lshape(3), [0, 7, 30]),
        refine(generate_disk(3), [0, 5, 17]),
    ], ids=["square", "lshape", "disk"])
    def test_blocks_match_sliced_full_matrices(self, mesh, monkeypatch):
        # the interior stiffness block, assembled directly, is bit for bit
        # the slice of the full matrix, SuperLU gets its CSR arrays as the
        # arrays of its CSC form, and the block dies with the factorization
        assembled, handed = [], []
        interior_stiffness, splu = fem.interior_stiffness, fem.spla.splu

        def assemble(m):
            A = interior_stiffness(m)
            assembled.append((weakref.ref(A), A.format,
                              [getattr(A, name).__array_interface__["data"]
                               for name in ("data", "indices", "indptr")]))
            return A
        monkeypatch.setattr(fem, "interior_stiffness", assemble)
        monkeypatch.setattr(fem.spla, "splu",
                            lambda A, **kw: handed.append(A) or splu(A, **kw))
        ws = plap.DCWorkspace(mesh)
        stiffness, _ = oracles.interior_blocks(mesh)
        ((block, block_format, block_memory),) = assembled
        (lu_input,) = handed
        assert block() is None and ws.factor._lu is not None
        assert block_format == stiffness.format
        ref = stiffness.tocsc()
        assert lu_input.format == ref.format
        assert np.array_equal(lu_input.data.view(np.int64),
                              ref.data.view(np.int64))
        assert np.array_equal(lu_input.indices, ref.indices)
        assert np.array_equal(lu_input.indptr, ref.indptr)
        # the CSC arrays are those of the slice of the full matrix, and no
        # copy of the assembled block's: the same memory
        assert np.array_equal(lu_input.data.view(np.int64),
                              stiffness.data.view(np.int64))
        assert np.array_equal(lu_input.indices, stiffness.indices)
        assert np.array_equal(lu_input.indptr, stiffness.indptr)
        assert block_memory == [getattr(lu_input, name)
                                .__array_interface__["data"]
                                for name in ("data", "indices", "indptr")]

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_load_is_solver_error(self, bad):
        # a NaN residual fails the tolerance test: no NaN or inf returned
        ws = plap.DCWorkspace(generate_unit_square(6))
        n = len(ws.factor.idx)
        for b in (np.full(n, bad), np.where(np.arange(n) == 3, bad, 1.0)):
            with pytest.raises(SolverError, match="residual tolerance"):
                ws.solve(b)

    def test_residual_check_is_live(self, monkeypatch):
        # the check reads the solution through the sweep's gradient: a
        # factor whose solve is off by a relative 1e-8 is caught
        m = generate_unit_square(8)
        ws = plap.DCWorkspace(m)
        load = fem.assemble_rhs(m, 1.0)[ws.factor.idx]
        x, gu = ws.solve(load)
        assert np.array_equal(gu, ws.grad(x))
        solve = fem.DirichletFactor.solve
        monkeypatch.setattr(fem.DirichletFactor, "solve",
                            lambda self, b: solve(self, b) * (1.0 + 1e-8))
        with pytest.raises(SolverError, match="residual tolerance") as err:
            ws.solve(load)
        assert 1e-9 < err.value.residual < 1e-7
        with pytest.raises(SolverError, match="residual tolerance"):
            plap.dc_solve(m, 1.0, 3.0, workspace=ws)

    def test_retained_memory_per_triangle(self):
        # what a level keeps while its factor lives, beyond SuperLU's own
        # factors (allocated outside Python's tracer): the mesh's cached
        # arrays, the workspace and the edge table, 177 bytes per triangle
        # (209 with int64 index arrays); a copy of the stiffness block or
        # the sorted occurrences of the edges would add 43 and 24
        m = generate_unit_square(256)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            ws, et = plap.DCWorkspace(m), edge_table(m)
            kept = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert ws.factor is not None and len(et.int_lengths)
        assert kept < 185 * m.num_triangles

    def test_no_interior_vertices_rejected(self):
        with pytest.raises(ValueError, match="no interior vertices"):
            plap.DCWorkspace(generate_unit_square(1))
