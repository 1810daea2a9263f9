import ast
import importlib
import importlib.util
import re
from pathlib import Path

import plapeig


def test_exports_resolve_without_duplicates():
    names = plapeig.__all__
    assert len(names) == len(set(names))
    for name in names:
        getattr(plapeig, name)  # AttributeError names a stale export


def test_console_script_target_resolves():
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
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


def test_only_fem_reads_the_quadrature_rule():
    """DEGREE5 is read, as a bare name or an attribute, by `fem` alone: how
    an element integral is taken, |u|^p in `fem.element_lp` above all, is
    decided in one module.  `__init__.py` only re-exports the name."""
    package = Path(plapeig.__file__).resolve().parent
    for path in package.glob("*.py"):
        if path.stem == "fem":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            read = ((isinstance(node, ast.Name) and node.id == "DEGREE5")
                    or (isinstance(node, ast.Attribute)
                        and node.attr == "DEGREE5"))
            assert not read, f"{path.stem} reads DEGREE5"


def test_benchmark_hooks_resolve():
    # The benchmark's tracer patches these names from outside the package;
    # a rename here would otherwise only show when the benchmark runs.
    path = Path(__file__).resolve().parents[1] / "plapbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("plapbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
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


def test_every_export_has_a_reader_in_the_package():
    """Each public name is read by some module of the package other than
    `__init__.py`, as a bare name or as an attribute: an export that only
    tests read belongs in tests/oracles.py.  Methods and fields of the
    exported classes are out of its reach."""
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
    unread = set(plapeig.__all__) - {"__version__"} - loaded
    assert not unread, f"exported but read by no package module: {unread}"
