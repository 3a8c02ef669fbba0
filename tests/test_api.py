"""The package namespace is the API that the README and the demos use;
the benchmark imports building blocks from their own modules."""

import ast
import importlib
import re
from pathlib import Path

import qfridge

ROOT = Path(__file__).resolve().parents[1]


def _imports(source):
    """(module, name) of every `from <module> import <name>` in source."""
    return [(node.module, alias.name)
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names]


def test_readme_and_demo_imports_are_the_public_api():
    sources = [p.read_text() for p in sorted(ROOT.glob("demos/*.py"))]
    sources += re.findall(r"```python\n(.*?)```",
                          (ROOT / "README.md").read_text(), re.S)
    used = {name for src in sources for module, name in _imports(src)
            if module == "qfridge"}
    assert len(sources) >= 6 and used
    assert not used - set(qfridge.__all__)
    assert all(hasattr(qfridge, name) for name in qfridge.__all__)


def test_bench_module_imports_resolve():
    found = [(path.name, module, name)
             for path in sorted(ROOT.glob("bench/*.py"))
             for module, name in _imports(path.read_text())
             if module.startswith("qfridge.")]
    assert found
    missing = [f"{f}: from {m} import {n}" for f, m, n in found
               if not hasattr(importlib.import_module(m), n)]
    assert not missing
