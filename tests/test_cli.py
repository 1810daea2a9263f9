import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import plapeig
from plapeig import driver, io, plap
from plapeig.cli import UsageError, main, parse_cli
from plapeig.driver import AfemConfig
from plapeig.mesh import Mesh, generate_unit_square

import oracles


def write_bad_mesh_file(kind: str, path: Path) -> None:
    """Write a mesh file of the given kind that load_mesh must reject."""
    m = generate_unit_square(3)
    if kind == "clockwise":
        tri = m.triangles.copy()
        tri[4] = tri[4, [0, 2, 1]]
        m = Mesh(vertices=m.vertices, triangles=tri)
    elif kind in oracles.NONCONFORMING:
        vertices, triangles, _ = oracles.NONCONFORMING[kind]
        m = Mesh(vertices=vertices, triangles=triangles)
    elif kind == "no_interior":
        m = Mesh(vertices=[[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
                 triangles=[[0, 1, 2]])
    io.save_mesh(m, str(path))
    lines = path.read_text().splitlines()
    nv, nt = (int(s) for s in lines[0].split())
    if kind == "wrong_flag":
        lines[1] = lines[1][:-1] + "0"  # vertex 0 is a corner
    elif kind == "orphan_vertex":
        lines[0] = f"{nv + 1} {nt}"
        lines.insert(1 + nv, "0.5 0.5 0")
    elif kind == "trailing_content":
        lines += ["garbage here", "1 2 3"]
    path.write_text("\n".join(lines) + "\n")


class TestParse:
    def test_run_flag_mapping(self):
        a = parse_cli(["run", "--domain", "square", "--p", "2",
                       "--theta", "0.6", "--eps-k", "1e-4",
                       "--max-loops", "10", "--seed", "42",
                       "--out", "results/"])
        assert a.subcommand == "run"
        assert a.domain == "square" and a.config.p == 2.0
        assert a.theta == 0.6 and a.eps_k == 1e-4
        assert a.max_loops == 10 and a.seed == 42 and a.out_dir == "results/"

    def test_defaults_come_from_afem_config(self):
        a = parse_cli(["run", "--domain", "square", "--out", "o"])
        assert a.config == AfemConfig(domain="square", out_dir="o")

    def test_large_p_is_valid(self):
        a = parse_cli(["run", "--domain", "disk", "--p", "30",
                       "--theta", "0.6", "--max-loops", "9",
                       "--out", "o/"])
        assert a.config.p == 30.0

    def test_p_below_one_rejected(self):
        with pytest.raises(UsageError, match="--p"):
            parse_cli(["run", "--p", "0.9", "--domain", "square",
                       "--out", "o/"])

    def test_theta_out_of_range(self):
        with pytest.raises(UsageError, match="theta"):
            parse_cli(["run", "--domain", "square", "--theta", "1.5",
                       "--out", "o/"])

    def test_missing_domain(self):
        with pytest.raises(UsageError, match="domain"):
            parse_cli(["run", "--out", "o/"])

    @pytest.mark.parametrize("flag", ["--p", "--theta", "--eps-k", "--eps-m",
                                      "--eps-n"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_flag_is_usage_error(self, flag, value, tmp_path,
                                            capsys):
        out = tmp_path / "o"
        assert main(["run", "--domain", "square", "--resolution", "3",
                     flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {flag} must" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-1"), ("--max-dc", "0"), ("--max-iiss", "0"),
        ("--max-loops", "0"), ("--resolution", "0")])
    def test_bad_run_setting_is_usage_error(self, flag, value, tmp_path,
                                            capsys):
        out = tmp_path / "o"
        assert main(["run", "--domain", "square", "--resolution", "3",
                     flag, value, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"usage error: {flag} must" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv,flag", [
        (["estimate", "--domain", "square", "--theta", "0"], "--theta"),
        (["solve-plap", "--domain", "square", "--seed", "-1", "--out"],
         "--seed"),
        (["mesh", "--domain", "square", "--resolution", "0", "--out"],
         "--resolution"),
    ], ids=["estimate", "solve-plap", "mesh"])
    def test_every_subcommand_checks_settings(self, argv, flag, tmp_path,
                                              capsys):
        out = tmp_path / "out"
        if argv[-1] == "--out":
            argv = argv + [str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"usage error: {flag} must" in err and "Traceback" not in err
        assert not out.exists()

    def test_unknown_flag_named(self):
        with pytest.raises(UsageError, match="--frobnicate"):
            parse_cli(["run", "--domain", "square", "--out", "o/",
                       "--frobnicate", "1"])


class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["run", "--p", "0.5", "--domain", "square",
                     "--out", "o/"]) == 1
        assert "--p" in capsys.readouterr().err

    def test_out_of_memory_is_usage_error(self, tmp_path, capsys,
                                          monkeypatch):
        # what NumPy raises for a --resolution whose grid cannot be held
        def huge(n):
            raise MemoryError(f"Unable to allocate 149. GiB for n={n}")

        monkeypatch.setattr(driver, "generate_unit_square", huge)
        code = main(["run", "--domain", "square", "--resolution", "100000",
                     "--out", str(tmp_path / "o")])
        assert code == 1
        err = capsys.readouterr().err
        assert "usage error: out of memory: Unable to allocate 149. GiB" in err
        assert "Traceback" not in err

    def test_bad_domain_exit_code(self, tmp_path, capsys):
        assert main(["run", "--domain", "blob",
                     "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("kind", ["clockwise", "wrong_flag",
                                      "orphan_vertex", "no_interior",
                                      "trailing_content",
                                      *sorted(oracles.NONCONFORMING)])
    def test_bad_mesh_file_is_usage_error(self, kind, tmp_path, capsys):
        path = tmp_path / "bad.txt"
        write_bad_mesh_file(kind, path)
        out = tmp_path / "o"
        assert main(["run", "--domain", f"file:{path}",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error:" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("subcommand", ["solve-plap", "estimate", "run"])
    def test_no_interior_mesh_is_usage_error(self, subcommand, tmp_path,
                                             capsys):
        out = tmp_path / "o"
        argv = [subcommand, "--domain", "square", "--resolution", "1"]
        if subcommand != "estimate":
            argv += ["--out", str(out)]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert "usage error: mesh has no interior vertices" in err
        assert "Traceback" not in err
        assert not out.exists()

    def test_negative_uniform_refine_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "m.txt"
        assert main(["mesh", "--domain", "square", "--resolution", "2",
                     "--uniform-refine", "-3", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "usage error:" in err and "Traceback" not in err
        assert not out.exists()

    def test_solver_failure_exit_code(self, capsys):
        # an iteration cap this low cannot satisfy the tolerance for p != 2
        code = main(["solve-plap", "--domain", "square", "--resolution", "6",
                     "--p", "3", "--max-dc", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert ("solver failure: torsion solve did not converge within 2 "
                "sweeps") in err
        assert "Traceback" not in err

    def test_unconverged_inverse_iteration_exit_code(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["run", "--domain", "square", "--resolution", "4",
                     "--max-iiss", "1", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert ("stop: error: inverse iteration did not converge within 1 "
                "sweeps") in captured.out
        assert "Traceback" not in captured.err
        rows = oracles.read_convergence_csv(str(out / "convergence.csv")).rows
        assert len(rows) == 1 and math.isnan(rows[0].mu)

    def test_unconverged_estimate_exit_code(self, capsys):
        code = main(["estimate", "--domain", "square", "--resolution", "6",
                     "--p", "3", "--max-iiss", "1"])
        assert code == 2
        captured = capsys.readouterr()
        assert "mu=" not in captured.out
        assert ("solver failure: inverse iteration did not converge within 1 "
                "sweeps") in captured.err
        assert "Traceback" not in captured.err

    def test_resolvent_failure_exit_code(self, tmp_path, capsys, monkeypatch):
        # every magnitude goes to the real resolvent with an exponent whose
        # roots underflow, so the splitting solve fails inside nu_update
        real = plap.resolvent_many
        monkeypatch.setattr(plap, "resolvent_many",
                            lambda s, p: real(np.full_like(s, 0.5), 1.0000001))
        out = tmp_path / "o"
        code = main(["run", "--domain", "square", "--resolution", "4",
                     "--p", "3", "--out", str(out)])
        assert code == 2
        captured = capsys.readouterr()
        assert "stop: error: resolvent iteration failed" in captured.out
        assert "Traceback" not in captured.err
        assert (out / "convergence.csv").exists()

    def test_run_and_mesh_and_estimate(self, tmp_path, capsys):
        out = tmp_path / "res"
        code = main(["run", "--domain", "square", "--resolution", "4",
                     "--eps-k", "1e-3", "--max-loops", "3",
                     "--out", str(out)])
        assert code == 0
        assert (out / "convergence.csv").exists()
        assert (out / "eigenfunction.vtk").exists()

        meshfile = tmp_path / "m.txt"
        assert main(["mesh", "--domain", "lshape", "--resolution", "2",
                     "--out", str(meshfile)]) == 0
        assert meshfile.exists()

        code = main(["run", "--domain", f"file:{meshfile}",
                     "--eps-k", "1e-2", "--max-loops", "2",
                     "--out", str(tmp_path / "res2")])
        assert code == 0

        assert main(["estimate", "--domain", "square",
                     "--resolution", "4"]) == 0
        assert "mu=" in capsys.readouterr().out

    def test_solve_plap_writes_vtk(self, tmp_path):
        out = tmp_path / "u.vtk"
        assert main(["solve-plap", "--domain", "disk", "--resolution", "4",
                     "--p", "1.5", "--out", str(out)]) == 0
        assert out.read_text().startswith("# vtk DataFile Version 3.0")

    def test_byte_identical_reruns_except_seconds(self, tmp_path):
        args = ["run", "--domain", "square", "--resolution", "4",
                "--eps-k", "1e-3", "--max-loops", "3", "--seed", "7"]
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(args + ["--out", str(out)]) == 0
            outs.append((out / "convergence.csv").read_text().splitlines())
        a, b = outs
        assert len(a) == len(b)
        for la, lb in zip(a, b):
            pa, pb = la.split(","), lb.split(",")
            assert pa[:-1] == pb[:-1]  # everything but the seconds column

    @pytest.mark.parametrize("module", ["plapeig", "plapeig.cli"])
    def test_python_dash_m_runs(self, module, tmp_path):
        src = str(Path(plapeig.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        out = tmp_path / "o"
        proc = subprocess.run(
            [sys.executable, "-m", module, "run", "--domain", "square",
             "--resolution", "3", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert (out / "convergence.csv").exists()
