import numpy as np
import pytest
import scipy.linalg

from plapeig import eigen, fem, plap
from plapeig.fem import P1Function, SolverError
from plapeig.mesh import (Mesh, MeshConformityError, generate_disk,
                          generate_lshape, generate_unit_square,
                          prolong_vertex_values, refine_uniform)

import oracles

TWO_PI_SQ = 2.0 * np.pi ** 2


class TestTorsion:
    def test_square_p2_max(self):
        m = generate_unit_square(40)
        u, _ = plap.dc_solve(m, 1.0, 2.0)
        exact = oracles.square_torsion_center()
        assert abs(np.max(u.coeffs) - exact) / exact < 0.01

    def test_disk_p2_max(self):
        d = generate_disk(9)
        u, rep = plap.dc_solve(d, 1.0, 2.0)
        assert rep.converged and rep.iterations == 3
        assert abs(np.max(u.coeffs) - 0.25) / 0.25 < 0.01

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_nonnegative_vertices(self, p):
        d = generate_disk(6)
        u, _ = plap.dc_solve(d, 1.0, p)
        assert np.min(u.coeffs) >= -1e-10

    def test_nonconvergence_raises(self):
        m = generate_unit_square(6)
        with pytest.raises(SolverError,
                           match="^torsion start did not converge"):
            eigen.iiss(m, 3.0, max_dc=2)


class TestIISS:
    def test_single_unknown_closed_form(self):
        # one interior vertex: the trial space is the span of its hat
        # function; mu = K_cc / int(phi^2) with K_cc = 4 (five-point stencil)
        # and int(phi^2) = 6 elements * (|T|/6) = 1/8
        m = generate_unit_square(2)
        res = eigen.iiss(m, 2.0)
        expected = 4.0 / (1.0 / 8.0)
        assert res.mu_rayleigh == pytest.approx(expected, rel=1e-9)
        assert res.lambda_iiss == pytest.approx(expected, rel=1e-9)
        assert res.converged

    def test_square_p2_decreasing_upper_bounds(self):
        mus = []
        for n in (4, 8, 16):
            res = eigen.iiss(generate_unit_square(n), 2.0)
            assert res.mu_rayleigh >= TWO_PI_SQ - 1e-9
            mus.append(res.mu_rayleigh)
        assert mus[0] > mus[1] > mus[2]
        assert mus[-1] == pytest.approx(TWO_PI_SQ, rel=0.02)

    def test_disk_p2_value(self):
        res = eigen.iiss(generate_disk(8), 2.0)
        assert abs(res.mu_rayleigh - 5.783) / 5.783 < 0.005
        # inscribed polygons contain the trial space of a smaller domain,
        # so the value stays above the disk eigenvalue
        assert res.mu_rayleigh >= 5.78

    def test_result_invariants(self):
        m = generate_unit_square(8)
        res = eigen.iiss(m, 2.5)
        assert abs(fem.sup_norm(res.u_sup) - 1.0) < 1e-12
        assert abs(fem.lp_norm(res.u_lp, 2.5) - 1.0) < 1e-10
        assert np.min(res.u_lp.coeffs) >= -1e-10
        assert res.mu_rayleigh > 0.0
        # scale consistency of the Rayleigh quotient
        assert fem.rayleigh(res.u_sup, 2.5) == pytest.approx(
            fem.rayleigh(res.u_lp, 2.5), rel=1e-12)
        # the quotient of the normalized iterate is its seminorm power
        assert res.mu_rayleigh == pytest.approx(
            fem.w1p_seminorm_p(res.u_lp, 2.5), rel=1e-9)

    def test_stopping_rule_sanity(self):
        eps_m = 1e-5
        res = eigen.iiss(generate_unit_square(10), 2.0, eps_m=eps_m)
        assert res.converged
        lams = np.array(res.lambda_history[-3:])
        rel = np.abs(np.diff(lams)) / lams[:-1]
        assert np.all(rel < 10 * eps_m)

    def test_warm_start_agrees_with_cold(self):
        coarse = generate_unit_square(8)
        res_c = eigen.iiss(coarse, 2.0)
        fine = refine_uniform(coarse)
        cold = eigen.iiss(fine, 2.0)
        u0 = P1Function(fine, prolong_vertex_values(fine, res_c.u_sup.coeffs))
        warm = eigen.iiss(fine, 2.0, u0=u0, lambda0=res_c.lambda_iiss)
        assert warm.mu_rayleigh == pytest.approx(cold.mu_rayleigh, rel=1e-6)
        # cold counts its torsion sweep, which the warm start skips
        assert warm.iiss_iterations <= cold.iiss_iterations - 1

    def test_fields_are_last_auxiliary_fields(self):
        m = generate_unit_square(6)
        res = eigen.iiss(m, 3.0)
        assert res.w.shape == (m.num_triangles, 2)
        # no view of the splitting solve's buffers, which die with the call
        assert res.w.flags.owndata

    def test_coarse_fields_warm_start_the_refined_solve(self):
        coarse = generate_unit_square(8)
        res_c = eigen.iiss(coarse, 3.0)
        fine = refine_uniform(coarse)
        u0 = P1Function(fine, prolong_vertex_values(fine, res_c.u_sup.coeffs))
        plain = eigen.iiss(fine, 3.0, u0=u0, lambda0=res_c.lambda_iiss)
        carried = eigen.iiss(fine, 3.0, u0=u0, lambda0=res_c.lambda_iiss,
                             w0=res_c.w[fine.parent])
        assert carried.converged and plain.converged
        assert carried.dc_iterations_total < plain.dc_iterations_total
        assert carried.mu_rayleigh == pytest.approx(plain.mu_rayleigh,
                                                    rel=1e-6)

    def test_fields0_checked(self):
        m = generate_unit_square(4)
        u0 = P1Function(m, plap.dc_solve(m, 1.0, 3.0)[0].coeffs)
        nt = m.num_triangles
        bad = np.zeros((nt - 1, 2))
        with pytest.raises(ValueError):
            eigen.iiss(m, 3.0, u0=u0, w0=bad)
        good = np.zeros((nt, 2))
        with pytest.raises(ValueError):
            eigen.iiss(m, 3.0, w0=bad)
        # without u0, w0 starts the torsion sweep
        seeded = eigen.iiss(m, 3.0, w0=good, max_m=1)
        u, rep = plap.dc_solve(m, 1.0, 3.0, init=good)
        assert seeded.dc_iterations_total == rep.iterations
        assert np.array_equal(seeded.u_sup.coeffs,
                              u.coeffs / fem.sup_norm(u))
        assert not np.array_equal(
            seeded.u_sup.coeffs, eigen.iiss(m, 3.0, max_m=1).u_sup.coeffs)

    def test_cold_first_sweep_is_the_torsion_solve(self):
        m = generate_unit_square(6)
        p = 3.0
        res = eigen.iiss(m, p, max_m=1)
        u, rep = plap.dc_solve(m, 1.0, p)
        s = fem.sup_norm(u)
        assert res.iiss_iterations == 1 and not res.converged
        assert res.dc_iterations_total == rep.iterations
        assert np.array_equal(res.u_sup.coeffs, u.coeffs / s)
        assert res.lambda_history == [1.0 / s ** (p - 1.0)]

    def test_dc_counters_accumulate(self):
        res = eigen.iiss(generate_unit_square(6), 2.0)
        # the torsion sweep takes 3 splitting sweeps, every later one 2+
        assert res.dc_iterations_total >= res.iiss_iterations * 2 + 1

    def test_max_m_reached_flagged(self):
        res = eigen.iiss(generate_unit_square(8), 2.0, eps_m=1e-14, max_m=3)
        assert not res.converged
        assert res.iiss_iterations == 3

    def test_inner_failure_carries_context(self):
        with pytest.raises(SolverError) as err:
            eigen.iiss(generate_unit_square(8), 3.0, max_dc=4)
        assert "m=" in str(err.value) or "torsion" in str(err.value)

    def test_rejects_bad_arguments(self):
        m = generate_unit_square(4)
        for eps_m in (0.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="eps_m"):
                eigen.iiss(m, 2.0, eps_m=eps_m)
        with pytest.raises(ValueError):
            eigen.iiss(m, 2.0, max_m=0)
        with pytest.raises(ValueError):
            eigen.iiss(generate_unit_square(1), 2.0)  # no interior vertex
        u0 = eigen.iiss(m, 2.0).u_sup
        for lambda0 in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda0"):
                eigen.iiss(m, 2.0, u0=u0, lambda0=lambda0)
        # a cold start has no iterate for lambda0 to belong to; set to the
        # torsion solve's eigenvalue, it would let that first sweep stop
        with pytest.raises(ValueError, match="lambda0 .* needs it"):
            eigen.iiss(m, 2.0, lambda0=1.0)
        # no positive vertex value: the first load would vanish (at p = 2
        # this was a ZeroDivisionError, at p = 3 a 500-sweep stall)
        for coeffs in (-u0.coeffs, np.zeros(m.num_vertices)):
            for p in (2.0, 3.0):
                with pytest.raises(SolverError, match="no positive vertex"):
                    eigen.iiss(m, p, u0=P1Function(m, coeffs))

    def test_workspace_of_another_mesh_rejected(self):
        # the 2 x 1 rectangle on the triangles of the unit square: with the
        # square's operators mu came out 36.593 instead of 36.207
        square = generate_unit_square(8)
        rect = Mesh(vertices=square.vertices * [2.0, 1.0],
                    triangles=square.triangles)
        with pytest.raises(ValueError, match="workspace"):
            eigen.iiss(rect, 3.0, workspace=plap.DCWorkspace(square))

    def test_non_finite_vertex_is_a_mesh_error(self):
        m = generate_unit_square(4)
        vertices = m.vertices.copy()
        vertices[12] = (np.nan, 0.5)
        with pytest.raises(MeshConformityError):
            eigen.iiss(Mesh(vertices=vertices, triangles=m.triangles), 2.0)

    def test_u0_must_live_on_mesh(self):
        m1 = generate_unit_square(4)
        m2 = generate_unit_square(4)
        u0 = P1Function(m2, np.ones(m2.num_vertices))
        with pytest.raises(ValueError):
            eigen.iiss(m1, 2.0, u0=u0)

    def test_deterministic(self):
        m = generate_unit_square(6)
        r1 = eigen.iiss(m, 1.5, seed=5)
        r2 = eigen.iiss(m, 1.5, seed=5)
        assert np.array_equal(r1.u_lp.coeffs, r2.u_lp.coeffs)
        assert r1.lambda_history == r2.lambda_history


class TestExponentRange:
    @pytest.mark.parametrize("p", [1.2, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0])
    def test_default_caps_converge_above_cheeger_bound(self, p):
        res = eigen.iiss(generate_unit_square(8), p)
        assert res.converged
        assert res.mu_rayleigh >= oracles.square_cheeger_bound(p)

    @pytest.mark.parametrize("p,rel", [(3.0, 1e-9), (8.0, 2e-6)])
    def test_default_tolerances_near_tight_mu(self, p, rel):
        res = eigen.iiss(generate_unit_square(8), p)
        tight = oracles.SQUARE8_TIGHT_MU[p]
        assert abs(res.mu_rayleigh - tight) <= rel * tight


class TestDiscreteMinimum:
    """iiss against the minimum of the discrete Rayleigh quotient, which
    oracles.rayleigh_minimum computes without the package's solvers."""

    @pytest.mark.parametrize("p", [3.0, 8.0])
    def test_oracle_reproduces_tight_mu(self, p):
        mn = oracles.rayleigh_minimum(generate_unit_square(8), p)
        tight = oracles.SQUARE8_TIGHT_MU[p]
        assert abs(mn - tight) <= 1e-12 * tight

    def test_oracle_is_the_dense_eigenvalue_at_p2(self):
        m = generate_unit_square(8)
        stiffness, mass = oracles.interior_blocks(m)
        lam = scipy.linalg.eigh(stiffness.toarray(), mass.toarray(),
                                eigvals_only=True)[0]
        assert abs(oracles.rayleigh_minimum(m, 2.0) - lam) <= 1e-12 * lam

    # measured gaps (mu - min) / min at the default seed: 2.7e-12, 1.2e-13,
    # 3.6e-11 and 6.0e-7
    @pytest.mark.parametrize("p,rel", [(1.5, 1e-11), (2.0, 1e-12),
                                       (3.0, 2e-10), (8.0, 2e-6)])
    def test_default_tolerances_near_minimum(self, p, rel):
        m = generate_unit_square(8)
        mn = oracles.rayleigh_minimum(m, p)
        mu = eigen.iiss(m, p).mu_rayleigh
        assert mn <= mu <= mn * (1.0 + rel)

    MESHES_P12 = {"square8": lambda: generate_unit_square(8),
                  "square16": lambda: generate_unit_square(16),
                  "lshape4": lambda: generate_lshape(4)}

    @pytest.mark.parametrize("name", sorted(MESHES_P12))
    def test_oracle_reproduces_stored_minimum_p12(self, name):
        # measured: within 6.1e-14 relative on all three meshes
        mn = oracles.rayleigh_minimum(self.MESHES_P12[name](), 1.2)
        stored = oracles.DISCRETE_MIN_MU[name]
        assert abs(mn - stored) <= 1e-13 * stored

    # The bounds were set from the gaps (mu - min) / min at seeds 7 and 42
    # when the splitting stop read the consistent mass matrix: 2.4e-6 and
    # 1.3e-5 on the 8 x 8 square, 2.1e-5 and 2.8e-5 on the 16 x 16 square,
    # 3.1e-6 and 1.1e-6 on the L-shape.  With the lumped-mass stop they are
    # 4.0e-6 and 1.2e-5, 2.1e-5 and 2.7e-5, 2.1e-6 and 1.3e-6.
    @pytest.mark.parametrize("seed", [7, 42])
    @pytest.mark.parametrize("name,rel", [("square8", 3e-5),
                                          ("square16", 6e-5),
                                          ("lshape4", 1e-5)])
    def test_default_tolerances_near_stored_minimum_p12(self, name, rel,
                                                       seed):
        mn = oracles.DISCRETE_MIN_MU[name]
        mu = eigen.iiss(self.MESHES_P12[name](), 1.2, seed=seed).mu_rayleigh
        assert mn <= mu <= mn * (1.0 + rel)
