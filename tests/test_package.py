"""The package surface: a removed export must not leave a dangling name,
and a helper whose last caller goes must go with it."""

import ast
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import kvertex

ROOT = Path(__file__).resolve().parent.parent
# Defined in src/ but named only by tests, each for a reason on record.
UNCALLED = {
    "dt_side_check",  # the DT-side relation that ROADMAP N5 is to close
}


def test_exported_names_resolve():
    assert len(set(kvertex.__all__)) == len(kvertex.__all__)
    missing = [name for name in kvertex.__all__ if not hasattr(kvertex, name)]
    assert not missing


def _names(tree):
    """Every name that tree uses: names, attributes, imports, and the
    dot-separated parts of string constants (perfbench wraps functions by
    their dotted names)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name.split(".")[-1]
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield from node.value.split(".")


def test_every_helper_has_a_caller():
    # Every function, method and class of src/kvertex that is not a dunder
    # is named in src/ or perfbench/ outside its own definition.
    trees = {path: ast.parse(path.read_text(), str(path))
             for path in sorted((ROOT / "src" / "kvertex").glob("*.py"))
             + sorted((ROOT / "perfbench").glob("*.py"))}
    named = Counter(name for tree in trees.values() for name in _names(tree))
    dead = []
    for path, tree in trees.items():
        if path.parent.name != "kvertex":
            continue
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            inside = sum(1 for x in _names(node) if x == name)
            if named[name] == inside and name not in UNCALLED:
                dead.append("%s:%d %s" % (path.name, node.lineno, name))
    assert not dead
    # the allowlist holds only names that really are uncalled
    assert all(named[name] == 0 for name in UNCALLED)


def test_import_leaves_multiprocessing_out():
    # vertexk imports multiprocessing only for a run with jobs > 1
    code = "import sys, kvertex, kvertex.cli; print('multiprocessing' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True)
    assert out.stdout.strip() == "False"
