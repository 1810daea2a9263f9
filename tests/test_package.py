import ast
import importlib
import importlib.util
import json
import re
from collections import defaultdict
from pathlib import Path

import numpy as np

import plapeig
from plapeig import cli

ROOT = Path(__file__).resolve().parents[1]


def test_exports_resolve_without_duplicates():
    names = plapeig.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(plapeig, name)  # AttributeError names a stale export


def test_console_script_target_resolves():
    text = (ROOT / "pyproject.toml").read_text()
    scripts = re.search(r"^\[project\.scripts\]\n(.*?)(?:^\[|\Z)", text,
                        re.M | re.S).group(1)
    targets = re.findall(r'^\s*[\w-]+\s*=\s*"([\w.]+):(\w+)"', scripts, re.M)
    assert ("plapeig.cli", "entry") in targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr))


#: Each module may import only from modules earlier in this list.
LAYERS = ["mesh", "fem", "plap", "eigen", "estimator", "io", "driver", "cli"]


def test_modules_import_only_lower_layers():
    package = Path(plapeig.__file__).resolve().parent
    for rank, name in enumerate(LAYERS):
        tree = ast.parse((package / f"{name}.py").read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level == 0:
                continue
            targets = ([node.module.split(".")[0]] if node.module
                       else [alias.name for alias in node.names])
            for target in targets:
                assert LAYERS.index(target) < rank, \
                    f"{name} imports {target}, which is not below it"


def test_every_import_is_read():
    """Each name that a module of the package imports is read in that
    module: a binding left behind by a simplification does not linger, not
    even for the benchmark's tracer to patch.  `__init__.py`, whose imports
    are re-exports, and `from __future__` are exempt."""
    package = Path(plapeig.__file__).resolve().parent
    unread = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound.update(alias.asname or alias.name.split(".")[0]
                             for alias in node.names)
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                bound.update(alias.asname or alias.name
                             for alias in node.names)
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)}
        unread.update(f"{path.stem}.{name}" for name in bound - read)
    assert not unread, f"imported but never read: {unread}"


def test_only_fem_reads_the_quadrature_rule():
    """The DEGREE5* arrays are read, as bare names or attributes, by `fem`
    alone: how an element integral is taken, |u|^p in `fem.element_lp`
    above all, is decided in one module."""
    package = Path(plapeig.__file__).resolve().parent
    for path in package.glob("*.py"):
        if path.stem == "fem":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else "")
            assert not name.startswith("DEGREE5"), \
                f"{path.stem} reads {name}"


def _row_norm_calls(path: Path) -> set[str]:
    """Functions of a module that call `linalg.norm` with an axis, by
    keyword or as its third positional argument."""
    found = set()
    for func in ast.walk(ast.parse(path.read_text())):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(func):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "norm"
                    and isinstance(node.func.value, ast.Attribute)
                    and node.func.value.attr == "linalg"
                    and (len(node.args) > 2
                         or any(k.arg == "axis" for k in node.keywords))):
                found.add(f"{path.stem}.{func.name}")
    return found


def test_no_row_norms_through_linalg():
    """Row norms of (n, 2) fields are sqrt(x * x + y * y): the same bits as
    `np.linalg.norm(..., axis=1)`, which sums the two squares in the same
    order, without its per-call overhead and temporaries."""
    package = Path(plapeig.__file__).resolve().parent
    found = set().union(*map(_row_norm_calls, package.glob("*.py")))
    assert not found, f"row norms through np.linalg.norm: {sorted(found)}"


def _benchmark_module(name: str):
    """plapbench/<name>.py, loaded from its file."""
    path = ROOT / "plapbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"plapbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_gated_workloads_parse(tmp_path):
    # Each workload that BENCHMARK.json gates passes its flags to the CLI;
    # a retired flag would otherwise only show as a benchmark run exiting 1.
    gated = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    workloads = _benchmark_module("workloads")
    for name in gated:
        build = workloads.WORKLOADS[name][0]
        cli.parse_cli(build(1)["argv"] + ["--out", str(tmp_path)])


def test_benchmark_hooks_resolve():
    # The benchmark's tracer patches these names from outside the package;
    # a rename here would otherwise only show when the benchmark runs.
    spans = _benchmark_module("spans")
    targets = set()
    for _, module, attr in spans.FUNCTIONS:
        fn = getattr(importlib.import_module(module), attr)
        assert callable(fn), f"{module}.{attr}"
        targets.add(fn)
    for _, module, cls_name, method in spans.METHODS:
        cls = getattr(importlib.import_module(module), cls_name)
        assert callable(cls.__dict__[method]), f"{cls_name}.{method}"
    for module, attr in spans.IMPORTED_BINDINGS:
        assert getattr(importlib.import_module(module), attr) in targets, \
            f"{module}.{attr}"


def test_benchmark_counters_read_real_results(tmp_path):
    # The tracer's work counters read fields of what the package returns;
    # fed real results, every counter fills.  A renamed report field would
    # otherwise only show when the benchmark runs.
    spans = _benchmark_module("spans")
    counts = defaultdict(int)

    def feed(name, fn, *args, **kwargs):
        result = fn(*args, **kwargs)
        spans._count(counts, name, args, kwargs, result, None)
        return result

    m = feed("mesh.refine", plapeig.refine,
             plapeig.generate_unit_square(4), [0, 1])
    ws = plapeig.DCWorkspace(m)
    factor = ws.factor
    spans._count(counts, "fem.DirichletFactor.factor", (factor,), {}, None,
                 None)
    feed("fem.DirichletFactor.solve", factor.solve, np.ones(len(factor.idx)))
    u, rep = feed("plap.dc_solve", plapeig.dc_solve, m, 1.0, 3.0,
                  workspace=ws)
    _, stalled = feed("plap.dc_solve", plapeig.dc_solve, m, 1.0, 3.0,
                      max_iter=1, workspace=ws)
    feed("fem.grad", plapeig.grad, u)
    feed("plap.resolvent_many", plapeig.resolvent_many, np.ones(5), 3.0)
    res = feed("eigen.iiss", plapeig.iiss, m, 3.0, workspace=ws)
    feed("eigen.iiss", plapeig.iiss, m, 3.0, max_m=1, workspace=ws)
    run = feed("driver.run_afem", plapeig.run_afem, plapeig.AfemConfig(
        domain="square", resolution=3, max_loops=1))
    path = str(tmp_path / "mesh.vtk")
    feed("io.write_vtk", plapeig.write_vtk, m, None, path)
    assert rep.converged and not stalled.converged and res.converged
    assert dict(counts) == {
        "mesh.refine.calls": 1,
        "fem.DirichletFactor.unknowns": len(factor.idx),
        "fem.DirichletFactor.solves": 1,
        "plap.dc_solve.calls": 2,
        "plap.dc_solve.sweeps": rep.iterations + 1,
        "plap.dc_solve.unconverged": 1,
        "fem.grad.calls": 1,
        "plap.resolvent_many.entries": 5,
        "eigen.iiss.sweeps": res.iiss_iterations + 1,
        "eigen.iiss.unconverged": 1,
        "driver.levels": len(run.rows),
        "io.write_vtk.bytes": Path(path).stat().st_size,
    }
    assert set(counts) == set(spans.COUNT_METRICS)
    assert all(counts.values())


def _package_reads() -> set[str]:
    """Every name that a module of the package other than `__init__.py`
    reads, as a bare name or as an attribute."""
    package = Path(plapeig.__file__).resolve().parent
    loaded = set()
    for path in package.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loaded.add(node.id)
            elif (isinstance(node, ast.Attribute)
                  and isinstance(node.ctx, ast.Load)):
                loaded.add(node.attr)
    return loaded


def test_every_export_has_a_reader_in_the_package():
    """Each public name is read by some module of the package other than
    `__init__.py`, as a bare name or as an attribute: an export that only
    tests read belongs in tests/oracles.py.  Methods and fields of the
    exported classes are out of its reach."""
    unread = set(plapeig.__all__) - {"__version__"} - _package_reads()
    assert not unread, f"exported but read by no package module: {unread}"


def _public_definitions(node: ast.stmt) -> list[str]:
    """Public names that a module-level statement defines: a function, a
    class, or the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, ast.Assign):
        names = [n.id for t in node.targets for n in ast.walk(t)
                 if isinstance(n, ast.Name)]
    elif isinstance(node, ast.AnnAssign):
        names = [node.target.id]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_definition_has_a_reader_in_the_package():
    """Each public module-level function, class and assigned name, exported
    or not, is read by package code or is a name the benchmark's tracer
    patches (`FUNCTIONS` and `METHODS` of plapbench/spans.py): one that only
    tests read belongs in tests/oracles.py."""
    spans = _benchmark_module("spans")
    hooks = ({(module, attr) for _, module, attr in spans.FUNCTIONS}
             | {(module, cls) for _, module, cls, _ in spans.METHODS})
    loaded = _package_reads()
    package = Path(plapeig.__file__).resolve().parent
    unread = set()
    for path in package.glob("*.py"):
        module = f"plapeig.{path.stem}"
        for node in ast.parse(path.read_text()).body:
            unread.update(f"{path.stem}.{name}"
                          for name in _public_definitions(node)
                          if name not in loaded
                          and (module, name) not in hooks)
    assert not unread, f"defined but read by no package module: {unread}"
