"""The package namespace is the API that the README and the demos use;
the benchmark imports building blocks from their own modules."""

import ast
import importlib
import pkgutil
import re
import types
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


def _bench_layers():
    """The LAYERS tuple of bench/tracer.py, read from its source."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    return next(ast.literal_eval(node.value) for node in tree.body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["LAYERS"])


def test_traced_layers_have_public_functions_and_no_stale_bindings():
    # the traced bench wraps every public function a layer module defines
    # and rebinds it under every top-level name that holds it; one held
    # inside a top-level tuple, list or dict stays unwrapped, a stale
    # binding, and a layer with no public function has no spans
    public = {}
    for layer in _bench_layers():
        mod = importlib.import_module(f"qfridge.{layer}")
        found = {id(obj): f"{layer}.{name}"
                 for name, obj in vars(mod).items()
                 if not name.startswith("_")
                 and isinstance(obj, types.FunctionType)
                 and obj.__module__ == mod.__name__}
        assert found, f"qfridge.{layer} defines no public function"
        public.update(found)
    modules = [qfridge] + [importlib.import_module(info.name) for info in
                           pkgutil.iter_modules(qfridge.__path__, "qfridge.")]
    stale = [f"{mod.__name__}.{attr} -> {public[id(item)]}"
             for mod in modules for attr, obj in vars(mod).items()
             if isinstance(obj, (tuple, list, dict))
             for item in (obj.values() if isinstance(obj, dict) else obj)
             if id(item) in public]
    assert not stale
