"""Package-wide guards: no private helper is left without a caller, every
exported name resolves, and the benchmark's tracer can still patch the
names it wraps."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import qem_mix

PACKAGE = Path(qem_mix.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
MODULES = sorted(PACKAGE.glob("*.py"))


def _defined(node):
    """The names a module-level statement defines: a function's or a
    class's, or every name an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [name.id for target in node.targets for name in ast.walk(target)
                if isinstance(name, ast.Name)]
    return []


def test_every_private_helper_is_named_elsewhere():
    # a name counts where code uses it: a load, an attribute or an import,
    # never a docstring, a comment or its own definition; helpers are
    # module-level private functions, classes and constants
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in MODULES}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used.update(alias.name for alias in node.names)
    unused = [
        f"{name}: {defined}"
        for name, tree in trees.items()
        for node in tree.body
        for defined in _defined(node)
        if defined.startswith("_") and not defined.startswith("__") and defined not in used
    ]
    assert unused == []


def test_every_exported_name_resolves():
    modules = [qem_mix] + [importlib.import_module(f"qem_mix.{path.stem}")
                           for path in MODULES if path.stem != "__init__"]
    missing = [f"{module.__name__}.{name}" for module in modules
               for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
    assert missing == []


def test_tracer_installs():
    # perfbench/tracer.py patches qem_mix names by hand; a deletion that
    # removes one must fail here, not only in the slow benchmark smoke test
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")]))
    done = subprocess.run(
        [sys.executable, "-c", 'import os, tracer; tracer.install(os.devnull, "t")'],
        env=env, cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
