"""``src/`` holds only what a run executes.

Every public module-level function and class of the package, and every
public method of a public class, must be referenced (as a name or an
attribute) somewhere in the package's modules other than ``__init__.py``,
whose re-exports would count every exported name.  A name that only tests
reach belongs in ``tests/``, unless it is listed below with its reason.
"""

import ast
from pathlib import Path

import midistill

SRC = Path(midistill.__file__).parent

ALLOWED = {
    "infotheory.mutual_information": "row-level estimator the benchmark's tracer wraps",
    "infotheory.conditional_mutual_information":
        "row-level estimator the benchmark's tracer wraps",
    "infotheory.joint_entropy": "row-level estimator the benchmark's tracer wraps",
    "infotheory.pair_column": "the joint variable of the row-level estimators",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"))
            for p in sorted(SRC.glob("*.py")) if p.name != "__init__.py"}


def _public_definitions(modules):
    for module, tree in modules.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield f"{module}.{node.name}.{item.name}", item.name


def _references(modules):
    names = set()
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_public_name_is_used_in_src():
    modules = _modules()
    used = _references(modules)
    unused = [qualified for qualified, name in _public_definitions(modules)
              if name not in used and qualified not in ALLOWED]
    assert unused == []


def test_every_allowed_name_exists():
    defined = {qualified for qualified, _ in _public_definitions(_modules())}
    assert sorted(set(ALLOWED) - defined) == []
