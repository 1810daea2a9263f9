import numpy as np
import pytest

from plapeig import eigen, estimator, fem
from plapeig.estimator import IndicatorSet, dorfler_mark, estimate_all
from plapeig.fem import P1Function
from plapeig.mesh import Mesh, edge_table, generate_unit_square, refine_uniform

import oracles


def p1(mesh, coeffs):
    return P1Function(mesh, np.asarray(coeffs, dtype=float))


class TestElementIndicator:
    def test_single_reference_triangle(self, ref_triangle):
        et = edge_table(ref_triangle)
        u = p1(ref_triangle, [0.0, 1.0, 0.0])  # u = x
        val = estimate_all(ref_triangle, et, 1.0, u, 2.0).eta_q[0]
        # h_T^2 * mu^2 * int x^2 = (1/2) * 1 * (1/12); no interior edges
        assert val == pytest.approx(1.0 / 24.0, rel=1e-14)

    def test_globally_linear_zero_mu(self):
        m = generate_unit_square(3)
        et = edge_table(m)
        u = p1(m, 2.0 * m.vertices[:, 0] - m.vertices[:, 1])
        ind = estimate_all(m, et, 0.0, u, 2.0)
        assert np.max(ind.eta_q) < 1e-28

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 4.0])
    def test_identity_matches_direct_quadrature(self, p, rng):
        m = generate_unit_square(3)
        mu = 1.7
        for _ in range(5):
            u = p1(m, rng.standard_normal(m.num_vertices))
            ours = estimator._element_terms(m, mu, u, p)
            for t in range(m.num_triangles):
                direct = oracles.residual_q_power_direct(
                    m.vertices, m.triangles, u.coeffs, mu, p, t)
                assert ours[t] == pytest.approx(direct, rel=1e-8)

    def test_two_triangle_hand_values(self):
        # unit square split along its diagonal; u is the hat of vertex
        # (1, 0) and mu = 2, p = 2.  On the triangle containing (1, 0):
        # grad u = (1, -1), on the other grad u = 0; the diagonal has
        # length sqrt(2) and unit normal (1, -1)/sqrt(2), so |jump| =
        # sqrt(2) and the edge term is sqrt(2) * 2 * sqrt(2) = 4.  The
        # element term is (1/2) * 4 * (1/12) = 1/6 where int phi^2 = |T|/6.
        m = generate_unit_square(1)
        et = edge_table(m)
        u = p1(m, [0.0, 1.0, 0.0, 0.0])
        ind = estimate_all(m, et, 2.0, u, 2.0)
        hat_tri = [t for t in range(2) if 1 in m.triangles[t]]
        assert len(hat_tri) == 1
        expected = np.full(2, 4.0)
        expected[hat_tri[0]] += 1.0 / 6.0
        assert np.allclose(ind.eta_q, expected, rtol=1e-13)
        assert ind.total_eta == pytest.approx(np.sqrt(49.0 / 6.0), rel=1e-13)
        assert ind.argmax_element == hat_tri[0]

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_mu_scaling_of_residual_term(self, p, rng):
        m = generate_unit_square(2)
        et = edge_table(m)
        u = p1(m, rng.standard_normal(m.num_vertices))
        q = p / (p - 1.0)
        base = estimate_all(m, et, 0.0, u, p).eta_q
        one = estimate_all(m, et, 1.0, u, p).eta_q
        two = estimate_all(m, et, 2.0, u, p).eta_q
        assert np.allclose(two - base, (one - base) * 2.0 ** q, rtol=1e-12)

    def test_each_interior_edge_counted_twice(self, rng):
        m = generate_unit_square(3)
        et = edge_table(m)
        u = p1(m, rng.standard_normal(m.num_vertices))
        p = 2.5
        q = p / (p - 1.0)
        total = estimate_all(m, et, 0.0, u, p).eta_q.sum()
        # independent edge sum
        sigma = fem.p_flux(fem.grad(u), p)
        acc = 0.0
        for e in range(len(et.int_tri_plus)):
            jump = float(np.dot(sigma[et.int_tri_plus[e]]
                                - sigma[et.int_tri_minus[e]],
                                et.int_normals[e]))
            length = float(et.int_lengths[e])
            acc += length * abs(jump) ** q * length
        assert total == pytest.approx(2.0 * acc, rel=1e-12)

    def test_rigid_motion_invariance(self, rng):
        m = generate_unit_square(3)
        coeffs = rng.standard_normal(m.num_vertices)
        ind0 = estimate_all(m, edge_table(m), 1.3, p1(m, coeffs), 2.5)
        ang = 0.7
        rot = np.array([[np.cos(ang), -np.sin(ang)],
                        [np.sin(ang), np.cos(ang)]])
        moved = Mesh(vertices=m.vertices @ rot.T + np.array([2.0, -1.0]),
                     triangles=m.triangles, parent=m.parent)
        ind1 = estimate_all(moved, edge_table(moved), 1.3,
                            p1(moved, coeffs), 2.5)
        assert np.allclose(ind0.eta_q, ind1.eta_q, rtol=1e-10)

    def test_uniform_refinement_decreases_total(self):
        m = generate_unit_square(4)
        res = eigen.iiss(m, 2.0)
        eta0 = estimate_all(m, edge_table(m), res.mu_rayleigh, res.u_lp,
                            2.0).total_eta
        fine = refine_uniform(m)
        res1 = eigen.iiss(fine, 2.0)
        eta1 = estimate_all(fine, edge_table(fine), res1.mu_rayleigh,
                            res1.u_lp, 2.0).total_eta
        assert eta1 < eta0

    def test_element_value_is_own_term_plus_own_edges(self, rng):
        m = generate_unit_square(2)
        et = edge_table(m)
        u = p1(m, rng.standard_normal(m.num_vertices))
        p, mu = 3.0, 0.8
        ind = estimate_all(m, et, mu, u, p)
        own = estimator._element_terms(m, mu, u, p)
        edge_sum = np.zeros(m.num_triangles)
        q = p / (p - 1.0)
        sigma = fem.p_flux(fem.grad(u), p)
        for e in range(len(et.int_tri_plus)):
            plus, minus = et.int_tri_plus[e], et.int_tri_minus[e]
            jump = float(np.dot(sigma[plus] - sigma[minus], et.int_normals[e]))
            term = float(et.int_lengths[e]) ** 2 * abs(jump) ** q
            edge_sum[plus] += term
            edge_sum[minus] += term
        assert np.allclose(ind.eta_q, own + edge_sum, rtol=1e-13)

    def test_validation(self, ref_triangle):
        et = edge_table(ref_triangle)
        u = p1(ref_triangle, [0.0, 1.0, 0.0])
        for p in (1.0, 0.5, np.nan, np.inf):
            with pytest.raises(ValueError, match="p must exceed 1"):
                estimate_all(ref_triangle, et, 1.0, u, p)

    def test_u_of_another_mesh_rejected(self):
        # the 6 x 6 unit square scaled by 2: at p = 3 the total estimator
        # came out 103.87 against 41.95 on the square itself
        square = generate_unit_square(6)
        big = Mesh(vertices=2.0 * square.vertices, triangles=square.triangles)
        res = eigen.iiss(square, 3.0)
        with pytest.raises(ValueError, match="u must live on the given mesh"):
            estimate_all(big, edge_table(big), res.mu_rayleigh, res.u_lp, 3.0)


def make_indicator(values, q=2.0):
    values = np.asarray(values, dtype=float)
    return IndicatorSet(eta_q=values, q=q)


class TestDorflerMark:
    def test_spec_example(self):
        # theta chosen so that theta^q = 0.6 with q = 2
        ind = make_indicator([5.0, 3.0, 1.0, 1.0])
        marked = dorfler_mark(ind, np.sqrt(0.6))
        assert set(marked.tolist()) == {0, 1}

    def test_theta_one_marks_all_positive(self):
        ind = make_indicator([4.0, 0.0, 1.0, 0.0, 2.0])
        marked = dorfler_mark(ind, 1.0)
        assert set(marked.tolist()) == {0, 2, 4}

    def test_argmax_always_included(self, rng):
        for _ in range(50):
            vals = rng.uniform(0.0, 1.0, size=rng.integers(1, 30))
            ind = make_indicator(vals, q=1.8)
            theta = float(rng.uniform(0.05, 1.0))
            marked = dorfler_mark(ind, theta)
            assert ind.argmax_element in marked

    def test_all_zero_returns_argmax(self):
        ind = make_indicator([0.0, 0.0, 0.0])
        marked = dorfler_mark(ind, 0.5)
        assert marked.tolist() == [0]

    def test_bulk_property(self, rng):
        for _ in range(100):
            q = float(rng.uniform(1.2, 3.0))
            vals = rng.uniform(0.0, 5.0, size=rng.integers(2, 40))
            ind = make_indicator(vals, q=q)
            theta = float(rng.uniform(0.1, 1.0))
            marked = dorfler_mark(ind, theta)
            assert (vals[marked].sum()) ** (1.0 / q) >= \
                theta * ind.total_eta - 1e-12

    def test_tie_break_ascending_index(self):
        ind = make_indicator([2.0, 2.0, 2.0, 2.0])
        marked = dorfler_mark(ind, np.sqrt(0.45))  # target 3.6 of total 8
        assert marked.tolist() == [0, 1]

    @pytest.mark.parametrize("swap", [False, True])
    def test_round_off_twins_mark_lower_index(self, swap):
        # two indicators one ulp apart straddle the cut: the lower index is
        # marked whichever of the two carries the larger value
        lo, hi = 1.0, np.nextafter(1.0, 2.0)
        vals = [4.0, lo, 0.5, hi, 0.25]
        if swap:
            vals[1], vals[3] = hi, lo
        ind = make_indicator(vals)
        marked = dorfler_mark(ind, np.sqrt(4.5 / sum(vals)))
        assert marked.tolist() == [0, 1]

    def test_greedy_minimality_bruteforce(self, rng):
        for _ in range(40):
            vals = rng.uniform(0.0, 3.0, size=rng.integers(2, 10))
            q = 2.0
            ind = make_indicator(vals, q=q)
            theta = float(rng.uniform(0.2, 0.95))
            marked = dorfler_mark(ind, theta)
            target = theta ** q * vals.sum()
            assert len(marked) == oracles.min_bulk_subset_size(vals, target)

    def test_theta_validation(self):
        ind = make_indicator([1.0, 2.0])
        for theta in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                dorfler_mark(ind, theta)
