import gc
import weakref

import numpy as np
import pytest

from plapeig import driver, eigen, fem, io, plap
from plapeig.driver import AfemConfig, ConvergenceLog, initial_mesh, run_afem
from plapeig.fem import P1Function, SolverError
from plapeig.mesh import generate_unit_square, prolong_vertex_values

import oracles

TWO_PI_SQ = 2.0 * np.pi ** 2


class TestConfig:
    def test_valid(self):
        AfemConfig(domain="square", resolution=4)
        AfemConfig(domain="disk", resolution=0)
        AfemConfig(domain="file:/tmp/foo.txt")

    @pytest.mark.parametrize("kwargs", [
        dict(domain="hexagon"),
        dict(domain="square", p=1.0),
        dict(domain="square", theta=0.0),
        dict(domain="square", theta=1.2),
        dict(domain="square", eps_k=0.0),
        dict(domain="square", eps_m=-1e-5),
        dict(domain="square", eps_n=0.0),
        dict(domain="square", resolution=0),
        dict(domain="square", max_loops=0),
        dict(domain="square", max_iiss=0),
        dict(domain="square", max_dc=0),
        dict(domain="square", p=float("nan")),
        dict(domain="square", p=float("inf")),
        dict(domain="square", theta=float("nan")),
        dict(domain="square", eps_k=float("nan")),
        dict(domain="square", eps_m=float("inf")),
        dict(domain="square", eps_n=float("nan")),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            AfemConfig(**kwargs)

    def test_initial_mesh_from_file(self, tmp_path):
        path = tmp_path / "m.txt"
        io.save_mesh(generate_unit_square(3), str(path))
        mesh = initial_mesh(AfemConfig(domain=f"file:{path}"))
        assert mesh.num_vertices == 16


class TestRunAfem:
    def test_square_run_log_invariants(self):
        cfg = AfemConfig(domain="square", resolution=5, p=2.0,
                         eps_k=1e-3, max_loops=8)
        log = run_afem(cfg)
        v = log.column("vertices")
        mu = log.column("mu")
        marked = log.column("marked")
        assert log.stop_reason in ("eps_k", "max_loops")
        assert np.all(np.diff(v) > 0)
        assert np.all(mu > 0)
        assert np.all(mu >= TWO_PI_SQ - 1e-9)
        assert np.all(np.diff(mu) <= 1e-10)
        assert np.all(marked[:-1] >= 1)
        assert marked[-1] == 0  # the final row is estimated but not marked
        assert np.all(log.column("eta") > 0)

    def test_eps_k_stop(self):
        cfg = AfemConfig(domain="square", resolution=5, p=2.0,
                         eps_k=0.5, max_loops=10)
        log = run_afem(cfg)
        assert log.stop_reason == "eps_k"
        assert len(log.rows) == 2  # triggers at the first comparison

    def test_outputs_written(self, tmp_path):
        out = tmp_path / "results"
        cfg = AfemConfig(domain="square", resolution=4, eps_k=1e-3,
                         max_loops=3, out_dir=str(out))
        log = run_afem(cfg)
        for k in range(len(log.rows)):
            assert (out / f"mesh_{k}.vtk").exists()
        assert (out / "eigenfunction.vtk").exists()
        csv = out / "convergence.csv"
        assert csv.exists()
        back = oracles.read_convergence_csv(str(csv))
        assert [r.mu for r in back.rows] == [r.mu for r in log.rows]
        assert [r.vertices for r in back.rows] == [r.vertices for r in log.rows]

    def test_vtk_files_match_row_by_row_text(self, tmp_path, monkeypatch):
        # the levels share the writer's POINTS reuse, and the eigenfunction
        # repeats the last mesh: each file must still hold the text of the
        # mesh and field it was written for, formatted row by row
        written = []
        write_vtk = io.write_vtk

        def record(mesh, u, path, blocks=None):
            written.append((mesh, u, path))
            write_vtk(mesh, u, path, blocks)

        monkeypatch.setattr(io, "write_vtk", record)
        out = tmp_path / "results"
        log = run_afem(AfemConfig(domain="square", resolution=3,
                                  max_loops=3, out_dir=str(out)))
        assert len(log.rows) == 4
        assert [path for _, _, path in written] == (
            [f"{out}/mesh_{k}.vtk" for k in range(4)]
            + [f"{out}/eigenfunction.vtk"])
        assert written[-1][1] is not None
        for mesh, u, path in written:
            with open(path, encoding="ascii") as fp:
                assert fp.read() == oracles.row_by_row_vtk(mesh, u)

    def test_eigenfunction_grid_matches_last_mesh(self, tmp_path):
        out = tmp_path / "results"
        cfg = AfemConfig(domain="lshape", resolution=2, eps_k=1e-12,
                         max_loops=1, out_dir=str(out))
        log = run_afem(cfg)
        assert len(log.rows) == 2

        def grid(path):
            text = path.read_text()
            return text[text.index("POINTS"):text.index("CELL_TYPES")]

        last = grid(out / f"mesh_{len(log.rows) - 1}.vtk")
        assert "CELLS" in last
        assert grid(out / "eigenfunction.vtk") == last

    def test_disk_p15_reference_value(self):
        log = run_afem(AfemConfig(domain="disk", resolution=5, p=1.5,
                                  theta=0.6, eps_k=1e-5, max_loops=12,
                                  seed=42))
        mu = log.rows[-1].mu
        assert abs(mu - 4.01790) / 4.01790 < 0.01
        # logged for the disk but not asserted: boundary snapping breaks
        # nestedness, so strict monotonicity is not guaranteed

    def test_square_p3_reference_value(self):
        log = run_afem(AfemConfig(domain="square", resolution=13, p=3.0,
                                  theta=0.6, eps_k=1e-4, max_loops=12,
                                  seed=42))
        mu = log.rows[-1].mu
        assert abs(mu - 62.7522) / 62.7522 < 0.01

    def test_disk_p3_reference_value(self):
        log = run_afem(AfemConfig(domain="disk", resolution=5, p=3.0,
                                  theta=0.6, eps_k=1e-4, max_loops=12,
                                  seed=42))
        mu = log.rows[-1].mu
        assert abs(mu - 9.83481) / 9.83481 < 0.01

    def test_lshape_p15_reference_value(self):
        log = run_afem(AfemConfig(domain="lshape", resolution=8, p=1.5,
                                  theta=0.6, eps_k=1e-5, max_loops=10,
                                  seed=42))
        mu = log.rows[-1].mu
        assert abs(mu - 5.683402) / 5.683402 < 0.01

    def test_large_p_smoke(self):
        # the splitting solver needs a raised sweep cap for p this degenerate;
        # the eigenvalue must still fall monotonically toward the fine-mesh
        # scale (about 3.6e4)
        log = run_afem(AfemConfig(domain="square", resolution=13, p=10.0,
                                  theta=0.6, eps_k=1e-4, eps_m=5e-5,
                                  max_dc=3000, max_loops=6, seed=42))
        mu = log.column("mu")
        assert log.stop_reason == "max_loops"
        assert np.all(np.diff(mu) < 0)
        assert 3.5e4 < mu[-1] < 4.0e4

    def test_solver_failure_partial_log(self, tmp_path):
        out = tmp_path / "fail"
        cfg = AfemConfig(domain="square", resolution=5, p=3.0, max_dc=3,
                         max_loops=4, out_dir=str(out))
        log = run_afem(cfg)
        assert log.stop_reason.startswith("error")
        assert np.isnan(log.rows[-1].mu)
        assert (out / "convergence.csv").exists()

    def test_failure_at_level_one_writes_level_zero_eigenfunction(
            self, tmp_path, monkeypatch):
        solved = []
        iiss = eigen.iiss

        def fail_second(*args, **kwargs):
            if solved:
                raise SolverError("injected at level 1")
            solved.append(iiss(*args, **kwargs))
            return solved[-1]

        monkeypatch.setattr(eigen, "iiss", fail_second)
        out = tmp_path / "fail"
        log = run_afem(AfemConfig(domain="lshape", resolution=3,
                                  eps_k=1e-12, max_loops=3,
                                  out_dir=str(out)))
        assert log.stop_reason == "error: injected at level 1"
        assert [r.k for r in log.rows] == [0, 1]
        assert np.isnan(log.rows[1].mu)
        text = (out / "eigenfunction.vtk").read_text()
        grid = (out / "mesh_0.vtk").read_text()
        assert text.startswith(grid)
        head = (f"POINT_DATA {solved[0].u_sup.mesh.num_vertices}\n"
                "SCALARS u double 1\nLOOKUP_TABLE default\n")
        assert text[len(grid):].startswith(head)
        values = np.array(text[len(grid) + len(head):].split(), dtype=float)
        assert np.array_equal(values, solved[0].u_sup.coeffs)

    def test_column_rejects_unknown(self):
        log = ConvergenceLog()
        with pytest.raises(KeyError):
            log.column("nope")


class TestLevelLifetimes:
    """A level's data die at their last use: once the refined mesh and the
    warm start exist, nothing of level k is kept but the eigenfunction's
    arrays, and nothing of a run outlives it."""

    @staticmethod
    def watch_meshes(monkeypatch, check):
        """Weak references to the mesh of every iiss call; check(refs) runs
        after a collection at the start of each call, before its mesh is
        added."""
        refs = []
        iiss = eigen.iiss

        def watched(mesh, *args, **kwargs):
            gc.collect()
            check(refs)
            refs.append((weakref.ref(mesh), weakref.ref(mesh.vertices)))
            return iiss(mesh, *args, **kwargs)

        monkeypatch.setattr(eigen, "iiss", watched)
        return refs

    def test_previous_mesh_dies_before_next_solve(self, tmp_path,
                                                  monkeypatch):
        def check(refs):
            assert all(mesh() is None for mesh, _ in refs)

        refs = self.watch_meshes(monkeypatch, check)
        log = run_afem(AfemConfig(domain="lshape", resolution=3,
                                  eps_k=1e-12, max_loops=3,
                                  out_dir=str(tmp_path / "out")))
        assert len(refs) == len(log.rows) == 4

    def test_nothing_of_a_run_outlives_it(self, tmp_path, monkeypatch):
        refs = self.watch_meshes(monkeypatch, lambda refs: None)
        log = run_afem(AfemConfig(domain="lshape", resolution=3,
                                  eps_k=1e-12, max_loops=2,
                                  out_dir=str(tmp_path / "out")))
        assert len(refs) == 3
        del log
        gc.collect()
        # the arrays too: the VTK writer's reuse of the last grid's text
        # lasts one run
        assert all(mesh() is None and vertices() is None
                   for mesh, vertices in refs)


class TestBalancedStop:
    """A level that is not the last stops its inverse iteration at the
    balanced tolerance max(eps_m, BALANCE eta^q / mu) of the previous row;
    BALANCE = 0 runs every level at eps_m."""

    @staticmethod
    def run_square(monkeypatch, balance):
        """The p = 3 square run from resolution 4 with driver.BALANCE set to
        balance; returns its log and its final mesh."""
        final = []
        iiss = eigen.iiss

        def watched(mesh, *args, **kwargs):
            final[:] = [mesh]
            return iiss(mesh, *args, **kwargs)

        monkeypatch.setattr(eigen, "iiss", watched)
        monkeypatch.setattr(driver, "BALANCE", balance)
        log = run_afem(AfemConfig(domain="square", resolution=4, p=3.0,
                                  theta=0.6, eps_k=1e-12, max_loops=8))
        assert log.stop_reason == "max_loops"
        return log, final[0]

    def test_fewer_sweeps_same_final_mu(self, monkeypatch):
        balanced, final = self.run_square(monkeypatch, driver.BALANCE)
        unbalanced, _ = self.run_square(monkeypatch, 0.0)
        # 54 -> 23 inverse and 303 -> 167 DC sweeps
        assert (balanced.column("iiss_iters").sum()
                < unbalanced.column("iiss_iters").sum())
        assert (balanced.column("dc_iters").sum()
                <= 0.6 * unbalanced.column("dc_iters").sum())
        # the last level runs at eps_m: its mu is as near the tightly
        # converged one as test_default_tolerances_near_tight_mu asks at
        # p = 3 (the meshes of the two runs may differ, so the unbalanced
        # mu is no reference)
        tight = eigen.iiss(final, 3.0, eps_m=1e-10).mu_rayleigh
        assert abs(balanced.rows[-1].mu - tight) <= 1e-9 * tight

    def test_eps_k_stop_finishes_on_the_same_factor(self, monkeypatch):
        factors, results = [], []
        factor, iiss = plap.DirichletFactor, eigen.iiss

        def counted(*args, **kwargs):
            factors.append(None)
            return factor(*args, **kwargs)

        def watched(*args, **kwargs):
            results.append(iiss(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(plap, "DirichletFactor", counted)
        monkeypatch.setattr(eigen, "iiss", watched)
        cfg = AfemConfig(domain="lshape", resolution=4, p=2.0, eps_k=1e-3)
        log = run_afem(cfg)
        assert log.stop_reason == "eps_k"
        assert len(factors) == len(log.rows)
        # the last level ran a loose solve and its finish
        assert len(results) == len(log.rows) + 1
        loose, finish = results[-2:]
        history = finish.lambda_history
        assert abs(history[-1] - history[-2]) / history[-2] < cfg.eps_m
        last = log.rows[-1]
        assert (last.mu, last.lambda_iiss) == (finish.mu_rayleigh,
                                               finish.lambda_iiss)
        assert last.iiss_iters == (loose.iiss_iterations
                                   + finish.iiss_iterations)
        assert last.dc_iters == (loose.dc_iterations_total
                                 + finish.dc_iterations_total)


def lshape_p2_errors(theta: float, max_loops: int):
    """(vertices, mu - lambda_ref, eta) per level of an adaptive L-shape run
    at p = 2 from resolution 4 that stops only at max_loops."""
    log = run_afem(AfemConfig(domain="lshape", resolution=4, p=2.0,
                              theta=theta, eps_k=1e-12, max_loops=max_loops))
    assert len(log.rows) == max_loops + 1
    err = log.column("mu") - oracles.LSHAPE_LAMBDA_REF
    return log.column("vertices"), err, log.column("eta")


def loglog_slope(x, y) -> float:
    """Least-squares slope of log y against log x."""
    return float(np.polyfit(np.log(x), np.log(y), 1)[0])


class TestLshapeRate:
    """The paper's claim that the adaptive mu_k converge to lambda_1 at the
    optimal rate N^-1 of P1 elements (N vertices), with the estimator eta
    tied to the error, on the L-shape, whose reentrant corner keeps uniform
    refinement from that rate."""

    def test_adaptive_rate_is_optimal(self):
        vertices, err, eta = lshape_p2_errors(theta=0.8, max_loops=12)
        assert vertices[-1] > 5000  # 65 -> 5,918 vertices
        assert np.all(err > 0.0)  # mu bounds lambda_1 from above
        assert loglog_slope(vertices[-8:], err[-8:]) <= -0.9
        ratio = err / eta ** 2
        assert np.all((0.03 <= ratio) & (ratio <= 0.05))

    def test_uniform_refinement_is_slower(self):
        # theta = 1 marks every element: the rate tends to N^-2/3
        vertices, err, _ = lshape_p2_errors(theta=1.0, max_loops=8)
        assert vertices[-1] > 12000  # 65 -> 12,545 vertices
        assert loglog_slope(vertices[-4:], err[-4:]) >= -0.85


class TestLshapeEigenfunction:
    """The paper's claim that the discrete eigenfunctions converge in
    W^{1,p}, as a checked number.  The meshes are nested, so each level's
    u_lp carries exactly to the final mesh, where the relative distance
    d_k = |grad(u_k - u_L)|_p / |grad u_L|_p is exact; d_k falls like the
    estimator eta_k until u_L's own error shows.  The bands and slopes are
    those of the runs at seeds 1, 7 and 42 (identical to the digits shown),
    widened by about 5 %: d/eta in [0.0593, 0.0658], [0.0175, 0.0204] and
    [0.1595, 0.1739]; slopes of d and eta -0.581/-0.559, -0.556/-0.564 and
    -0.866/-0.872."""

    @pytest.mark.parametrize("p, theta, max_loops, band", [
        (2.0, 0.8, 12, (0.056, 0.069)),
        (3.0, 0.6, 20, (0.0166, 0.0215)),
        (1.5, 0.6, 20, (0.152, 0.183)),
    ])
    def test_distance_follows_the_estimator(self, monkeypatch, p, theta,
                                            max_loops, band):
        levels = []  # (mesh, u_lp coefficients) of every iiss call
        iiss = eigen.iiss

        def watched(mesh, *args, **kwargs):
            res = iiss(mesh, *args, **kwargs)
            levels.append((mesh, res.u_lp.coeffs))
            return res

        monkeypatch.setattr(eigen, "iiss", watched)
        log = run_afem(AfemConfig(domain="lshape", resolution=4, p=p,
                                  theta=theta, eps_k=1e-12,
                                  max_loops=max_loops))
        assert len(levels) == len(log.rows) == max_loops + 1

        final, u_final = levels[-1]
        norm = fem.w1p_seminorm_p(P1Function(final, u_final), p)
        d = []
        for k, (_, u) in enumerate(levels[:-1]):
            for finer, _ in levels[k + 1:]:
                u = prolong_vertex_values(finer, u)
            diff = P1Function(final, u - u_final)
            d.append((fem.w1p_seminorm_p(diff, p) / norm) ** (1.0 / p))
        d = np.array(d)
        vertices = log.column("vertices")[:-1]
        eta = log.column("eta")[:-1]

        assert np.all(np.diff(d) < 0.0)
        early = vertices <= final.num_vertices / 4
        assert early.sum() >= 8
        ratio = d[early] / eta[early]
        assert np.all((band[0] <= ratio) & (ratio <= band[1]))
        slope_d = loglog_slope(vertices[early], d[early])
        slope_eta = loglog_slope(vertices[early], eta[early])
        assert slope_d < -0.5
        assert abs(slope_d - slope_eta) <= 0.05
