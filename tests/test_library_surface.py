"""Every name that ``src/qcx`` defines has a caller outside the test suite.

A module-level function or class, public or private, or a public method,
must be named somewhere in ``src/qcx``, ``demos/`` or ``bench/`` besides its
own definition. A name that only tests call is a test-side reference and
lives next to the test that uses it. Names count as they appear in code: as a
name, an attribute, an import, or a word of a string constant (the traced
benchmark declares its spans as strings); docstrings do not count.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "qcx"


def definitions() -> list[str]:
    """``module:name`` for every module-level function and class of the
    package, and ``module:Class.method`` for every public method."""
    found = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            found.append(f"{path.stem}:{node.name}")
            if isinstance(node, ast.ClassDef):
                found += [f"{path.stem}:{node.name}.{sub.name}"
                          for sub in node.body
                          if isinstance(sub, ast.FunctionDef)
                          and not sub.name.startswith("_")]
    return found


def _docstrings(tree: ast.AST) -> set[int]:
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef))
            and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def used_names() -> set[str]:
    """Every identifier that the package, the demos and the benchmark use."""
    used = set()
    paths = [*SRC.glob("*.py"), *(ROOT / "demos").rglob("*.py"),
             *(ROOT / "bench").rglob("*.py")]
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        docs = _docstrings(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias):
                used.add(node.name.rpartition(".")[2])
            elif (isinstance(node, ast.Constant)
                  and isinstance(node.value, str) and id(node) not in docs):
                used.update(re.findall(r"[A-Za-z_]\w*", node.value))
    return used


def unused(private: bool) -> list[str]:
    """The definitions, private or public, that nothing outside the tests
    names."""
    used = used_names()
    names = [(d, d.partition(":")[2].rpartition(".")[2])
             for d in definitions()]
    return [d for d, name in names
            if name.startswith("_") == private and name not in used]


def test_every_public_name_has_a_caller_outside_tests():
    assert unused(private=False) == []


def test_every_private_name_has_a_caller_outside_tests():
    assert unused(private=True) == []
