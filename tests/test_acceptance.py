"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines.  The adaptive runs use fixed seeds and finish in a few minutes
total; the stated wall-clock budgets are asserted.
"""

import time

import numpy as np
import pytest

from plapeig import cli, estimator, fem, plap
from plapeig.driver import AfemConfig, run_afem
from plapeig.estimator import IndicatorSet, dorfler_mark
from plapeig.fem import P1Function
from plapeig.mesh import check_conforming, generate_disk, generate_lshape, \
    generate_unit_square, refine

import oracles

TWO_PI_SQ = 2.0 * np.pi ** 2


def report(name: str, ok: bool, detail: str = ""):
    print(f"{'PASS' if ok else 'FAIL'}: {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def square_p2_run(tmp_path_factory):
    """Criterion 1 run, executed through the CLI exactly as specified."""
    out = tmp_path_factory.mktemp("sq_p2")
    t0 = time.perf_counter()
    code = cli.main([
        "run", "--domain", "square", "--p", "2", "--theta", "0.6",
        "--eps-k", "1e-4", "--max-loops", "12", "--resolution", "13",
        "--seed", "42", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    assert code == 0
    log = oracles.read_convergence_csv(str(out / "convergence.csv"))
    return log, elapsed


def test_criterion_01_unit_square_p2(square_p2_run):
    log, elapsed = square_p2_run
    mu = log.rows[-1].mu
    ok = 19.7392 <= mu <= 19.80 and elapsed < 180.0
    report("criterion 1: unit square p=2 final eigenvalue", ok,
           f"mu={mu:.6f}, {elapsed:.1f}s, {log.rows[-1].vertices} vertices")


def test_criterion_02_unit_disk_p2():
    t0 = time.perf_counter()
    log = run_afem(AfemConfig(domain="disk", resolution=4, p=2.0, theta=0.6,
                              eps_k=1e-5, max_loops=16, seed=42))
    elapsed = time.perf_counter() - t0
    mu = log.rows[-1].mu
    rel = abs(mu - 5.78319) / 5.78319
    ok = rel < 0.005 and elapsed < 180.0
    report("criterion 2: unit disk p=2 final eigenvalue", ok,
           f"mu={mu:.6f}, relerr={rel:.2e}, {elapsed:.1f}s")


def test_criterion_03_unit_square_p15():
    log = run_afem(AfemConfig(domain="square", resolution=13, p=1.5,
                              theta=0.6, eps_k=1e-4, max_loops=12, seed=42))
    mu = log.rows[-1].mu
    rel = abs(mu - 10.0723) / 10.0723
    report("criterion 3: unit square p=1.5 final eigenvalue", rel < 0.01,
           f"mu={mu:.5f}, relerr={rel:.2e}")


def test_criterion_04_lshape_p2():
    t0 = time.perf_counter()
    log = run_afem(AfemConfig(domain="lshape", resolution=15, p=2.0,
                              theta=0.8, eps_k=1e-5, max_loops=13, seed=42))
    elapsed = time.perf_counter() - t0
    row = log.rows[-1]
    lam = oracles.LSHAPE_LAMBDA_REF
    rel = (row.mu - lam) / lam  # mu bounds lambda_1 from above
    ok = 0.0 <= rel < 2e-4 and row.vertices >= 50_000 and elapsed < 600.0
    report("criterion 4: L-shape p=2 final eigenvalue", ok,
           f"mu={row.mu:.5f}, relerr={rel:.2e}, vertices={row.vertices}, "
           f"{elapsed:.1f}s")


def test_criterion_05_monotonicity_suite():
    worst = -np.inf
    for domain, res in (("square", 8), ("lshape", 6)):
        for p in (1.5, 2.0, 3.0):
            log = run_afem(AfemConfig(domain=domain, resolution=res, p=p,
                                      theta=0.6, eps_k=1e-6, max_loops=9,
                                      seed=42))
            mu = log.column("mu")
            assert len(mu) >= 5
            worst = max(worst, float(np.diff(mu).max()))
    report("criterion 5: eigenvalue monotonicity on nested domains",
           worst <= 1e-10, f"largest increment {worst:.2e}")


def test_criterion_06_p2_degeneration():
    t0 = time.perf_counter()
    m = generate_unit_square(8)
    K = fem.assemble_stiffness(m)
    b = fem.assemble_rhs(m, 1.0)
    u_ref = oracles.solve_dirichlet_dense(K, b, m.boundary_vertex)
    worst = 0.0
    for seed in range(5):
        u, rep = plap.dc_solve(m, 1.0, 2.0, seed=seed)
        assert rep.converged and rep.iterations == 3
        worst = max(worst, float(np.max(np.abs(u.coeffs - u_ref))))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-8 and elapsed < 10.0
    report("criterion 6: p=2 degeneration to the Poisson solve", ok,
           f"worst sup diff {worst:.2e}, {elapsed:.2f}s")


def test_criterion_07_resolvent_suite():
    t0 = time.perf_counter()
    rng = np.random.default_rng(123)
    s_all = rng.uniform(0.0, 1e6, size=10_000)
    p_all = rng.uniform(1.05, 40.0, size=10_000)
    p_all[p_all <= 1.05] = 1.0500001
    worst = 0.0
    for s, p in zip(s_all, p_all):
        r = float(plap.resolvent_many(np.array([s]), float(p))[0])
        worst = max(worst, abs(r ** (p - 1.0) + r - s) / max(1.0, s))
    monotone = True
    for p in rng.uniform(1.05, 40.0, size=20):
        s = np.sort(rng.uniform(0.0, 1e6, size=500))
        monotone &= bool(np.all(np.diff(plap.resolvent_many(s, float(p))) >= 0.0))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-13 and monotone and elapsed < 5.0
    report("criterion 7: resolvent residual and monotonicity", ok,
           f"worst residual {worst:.2e}, monotone={monotone}, {elapsed:.2f}s")


def test_criterion_08_estimator_identity():
    rng = np.random.default_rng(7)
    m = generate_unit_square(3)
    mu = 2.3
    worst = 0.0
    for p in (1.5, 2.0, 3.0, 4.0):
        for _ in range(25):
            u = P1Function(m, rng.standard_normal(m.num_vertices))
            # the estimator's element-residual path (exponent identity)
            ours = estimator._element_terms(m, mu, u, p)
            for t in range(m.num_triangles):
                direct = oracles.residual_q_power_direct(
                    m.vertices, m.triangles, u.coeffs, mu, p, t)
                worst = max(worst, abs(ours[t] - direct) / direct)
    report("criterion 8: residual identity vs direct quadrature",
           worst < 1e-8, f"worst relative gap {worst:.2e} over 100 samples")


def test_criterion_09_dorfler_suite():
    rng = np.random.default_rng(99)
    ok_bulk = ok_max = True
    for _ in range(1000):
        n = int(rng.integers(1, 60))
        vals = rng.uniform(0.0, 10.0, size=n)
        if rng.random() < 0.2:
            vals[rng.random(n) < 0.5] = 0.0
        q = float(rng.uniform(1.1, 4.0))
        ind = IndicatorSet(eta_q=vals, q=q)
        theta = float(rng.uniform(0.05, 1.0))
        marked = dorfler_mark(ind, theta)
        ok_max &= ind.argmax_element in marked
        ok_bulk &= (vals[marked].sum()) ** (1 / q) >= theta * ind.total_eta - 1e-12
    ok_minimal = True
    for _ in range(60):
        n = int(rng.integers(2, 13))
        vals = rng.uniform(0.0, 3.0, size=n)
        q = 2.0
        ind = IndicatorSet(eta_q=vals, q=q)
        theta = float(rng.uniform(0.2, 0.95))
        marked = dorfler_mark(ind, theta)
        target = theta ** q * vals.sum()
        ok_minimal &= len(marked) == oracles.min_bulk_subset_size(vals, target)
    ok = ok_bulk and ok_max and ok_minimal
    report("criterion 9: bulk marking properties and greedy minimality", ok,
           f"bulk={ok_bulk}, max-element={ok_max}, minimal={ok_minimal}")


def test_criterion_10_torsion_analytics():
    checks = []
    d = generate_disk(9)
    u, _ = plap.dc_solve(d, 1.0, 2.0)
    rel = abs(np.max(u.coeffs) - 0.25) / 0.25
    checks.append(("disk p=2 max", rel, 0.01))
    for p in (1.5, 3.0):
        u, _ = plap.dc_solve(d, 1.0, p)
        exact = float(oracles.disk_torsion(0.0, p))
        rel = abs(float(u.coeffs[0]) - exact) / exact
        checks.append((f"disk p={p} center", rel, 0.02))
    sq = generate_unit_square(40)
    u, _ = plap.dc_solve(sq, 1.0, 2.0)
    series = oracles.square_torsion_center()
    assert abs(series - 0.0736713) < 5e-7
    rel = abs(np.max(u.coeffs) - 0.0736713) / 0.0736713
    checks.append(("square p=2 max", rel, 0.01))
    ok = all(r < tol for _, r, tol in checks)
    report("criterion 10: torsion analytic checks", ok,
           "; ".join(f"{n} relerr={r:.1e}" for n, r, _ in checks))


@pytest.mark.slow
def test_criterion_11_mesh_soak():
    rng = np.random.default_rng(2024)
    mesh = generate_lshape(1)
    min_angle_floor = np.pi / 4 - 1e-9
    rounds = 10_000
    ok_angle = True
    for i in range(rounds):
        mesh = refine(mesh, [int(rng.integers(mesh.num_triangles))])
        if (i + 1) % 500 == 0 or i == rounds - 1:
            check_conforming(mesh)
            assert abs(mesh.areas.sum() - 3.0) / 3.0 < 1e-12
            ok_angle &= oracles.min_angle(mesh) >= min_angle_floor
    check_conforming(mesh)
    area_ok = abs(mesh.areas.sum() - 3.0) / 3.0 < 1e-12
    ok = ok_angle and area_ok
    report("criterion 11: mesh soak (conformity, angles, area)", ok,
           f"{rounds} rounds, final {mesh.num_triangles} elements, "
           f"min angle {np.degrees(oracles.min_angle(mesh)):.2f} deg")
