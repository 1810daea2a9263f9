import importlib
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
