"""Tests of the benchmark itself: the checkers reject corrupted outputs, the
tracer reaches every wrapped call, and a reduced-size pass of every
workload runs to its end.

    python3 -m pytest plapbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import plapeig  # noqa: E402
from plapeig import eigen, io, mesh  # noqa: E402
from plapeig.fem import P1Function  # noqa: E402

import checkers as ck  # noqa: E402
import run as bench_run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _arrays(m):
    return np.array(m.vertices), np.array(m.triangles)


@pytest.fixture(scope="module")
def square_pair():
    """Eigenpairs at p = 2 and p = 3 on a 6 x 6 square."""
    m = mesh.generate_unit_square(6)
    return m, {p: eigen.iiss(m, p) for p in (2.0, 3.0)}


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_rayleigh_check_rejects_mu_raised_by_1e6(square_pair, p):
    m, results = square_pair
    v, t = _arrays(m)
    res = results[p]
    assert ck.check_rayleigh(v, t, res.u_lp.coeffs, p, res.mu_rayleigh).ok
    assert not ck.check_rayleigh(v, t, res.u_lp.coeffs, p,
                                 res.mu_rayleigh * (1 + 1e-6)).ok


def test_eigenproblem_check_rejects_mu_raised_by_1e6(square_pair):
    m, results = square_pair
    v, t = _arrays(m)
    mu = results[2.0].mu_rayleigh
    assert ck.check_p2_eigenproblem(v, t, mu).ok
    assert not ck.check_p2_eigenproblem(v, t, mu * (1 + 1e-6)).ok
    assert not ck.check_p2_eigenproblem(v, t, mu * (1 - 1e-6)).ok


def test_monotone_check_rejects_a_rise():
    assert ck.check_monotone([20.0, 19.9, 19.8]).ok
    assert not ck.check_monotone([20.0, 19.8, 19.9]).ok
    assert not ck.check_monotone([20.0, float("nan")]).ok


def test_value_checks_reject_out_of_range_values():
    assert not ck.check_nonnegative(np.array([1.0, 0.0, -1e-9])).ok
    assert ck.check_nonnegative(np.array([1.0, 0.0, -1e-11])).ok
    assert not ck.check_cheeger_square(1.0, 2.0).ok
    assert not ck.check_lshape_reference(ck.LSHAPE_LAMBDA * (1 - 1e-9),
                                         60_000, True).ok
    assert not ck.check_lshape_reference(ck.LSHAPE_LAMBDA * (1 + 2e-3),
                                         60_000, True).ok
    assert not ck.check_lshape_reference(ck.LSHAPE_LAMBDA * (1 + 1e-4),
                                         40_000, True).ok
    assert ck.check_lshape_reference(ck.LSHAPE_LAMBDA * (1 + 1e-4),
                                     60_000, True).ok


def _failed(checks):
    return {c.name for c in checks if not c.ok}


def test_mesh_checks_accept_refined_meshes():
    m = mesh.refine(mesh.generate_lshape(2), [0, 5, 17])
    assert not _failed(ck.mesh_checks(*_arrays(m), "lshape"))


def test_mesh_checks_reject_a_flipped_triangle():
    v, t = _arrays(mesh.generate_lshape(2))
    t[3, [1, 2]] = t[3, [2, 1]]
    failed = _failed(ck.mesh_checks(v, t, "lshape"))
    assert "positive signed areas" in failed
    assert "conforming edges" in failed


def test_mesh_checks_reject_a_hanging_node():
    m = mesh.generate_unit_square(4)
    v, t = _arrays(m)
    # Bisect one interior triangle on its refinement edge and leave the
    # neighbour across that edge untouched.
    k = next(i for i in range(len(t))
             if not m.boundary_vertex[t[i, 1]] or not m.boundary_vertex[t[i, 2]])
    v0, v1, v2 = t[k]
    v = np.vstack((v, 0.5 * (v[v1] + v[v2])))
    mid = len(v) - 1
    t = np.vstack((np.delete(t, k, axis=0), [[mid, v0, v1], [mid, v2, v0]]))
    failed = _failed(ck.mesh_checks(v, t, "square"))
    assert "conforming edges" in failed
    assert "Euler V-E+T=1" in failed


def test_readers_match_the_program_writers(tmp_path):
    m = mesh.generate_lshape(2)
    u = P1Function(m, np.linspace(0.0, 1.0, m.num_vertices) ** 3)
    io.write_vtk(m, u, str(tmp_path / "u.vtk"))
    v, t, vals = ck.read_vtk(str(tmp_path / "u.vtk"))
    assert np.array_equal(v, m.vertices) and np.array_equal(t, m.triangles)
    assert np.array_equal(vals, u.coeffs)
    log = plapeig.run_afem(plapeig.AfemConfig(domain="square", resolution=3,
                                              max_loops=2, out_dir=str(tmp_path)))
    table = ck.read_convergence_csv(str(tmp_path / "convergence.csv"))
    assert np.array_equal(table["mu"], log.column("mu"))


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_reduced_pass_runs_to_its_end(name, tmp_path):
    build, run, check = workloads.WORKLOADS[name]
    inputs = build(3, small=True)
    records, failures = [], []
    for k in range(2):
        attempted, failed, record = run(inputs, str(tmp_path / f"p{k}"), k == 0)
        assert attempted >= 1
        failures += failed
        records.append(record)
    assert all(f.startswith(bench_run.KNOWN_FAILURE[0]) for f in failures)
    assert len(failures) == (2 if name == "psweep-square16" else 0)
    checks = check(inputs, records)
    assert checks and not _failed(checks)


def test_tracer_reaches_every_binding_and_adds_up(tmp_path):
    build, run, _ = workloads.WORKLOADS["afem-lshape-p2"]
    tracer = spans.Tracer()
    originals = {(mod, attr): getattr(sys.modules[mod], attr)
                 for mod, attr in spans.IMPORTED_BINDINGS}
    tracer.install()
    try:
        for (mod, attr), fn in originals.items():
            assert getattr(sys.modules[mod], attr).__wrapped__ is fn
        mark = tracer.mark()
        run(build(1, small=True), str(tmp_path), True)
    finally:
        tracer.uninstall()
    for (mod, attr), fn in originals.items():
        assert getattr(sys.modules[mod], attr) is fn
    summary = tracer.summary(mark)
    self_total = sum(v for k, v in summary.items() if k.endswith("_s")
                     and k != "outer_s")
    assert self_total == pytest.approx(summary["outer_s"], rel=1e-9)
    for key in ("cli.main.self_s", "driver.run_afem.self_s",
                "fem.DirichletFactor.factor_s", "plap.DCWorkspace.self_s",
                "mesh.prolong_vertex_values.self_s", "io.write_vtk.self_s"):
        assert summary[key] > 0, key
    assert summary["mesh.refine.calls"] >= 2
    assert summary["driver.levels"] == 4
    assert summary["plap.dc_solve.sweeps"] >= summary["plap.dc_solve.calls"]


def test_benchmark_json_lists_the_traced_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fp:
        spec = json.load(fp)
    produced = (set(spans.TIME_METRIC.values()) | set(spans.COUNT_METRICS)
                | {"trace.wall_s", "trace.unwrapped_s", "trace.overhead_s"})
    assert {m["name"] for m in spec["per_layer"]} == produced
    assert {w["name"] for w in spec["workloads"]} <= set(bench_run.WORKLOADS)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "plapbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "plapbench/run.py", "--workload", "refine-local",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_run_s_sums_the_fastest_time_of_each_segment():
    assert bench_run.fastest_segments([[1.0, 2.0], [2.0, 1.5]]) == (2, 2.5)
    # Passes cut at different marks do not match: the fastest whole pass.
    assert bench_run.fastest_segments([[1.0, 2.0], [2.5]]) == (1, 2.5)
