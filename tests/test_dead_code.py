"""Every function, class and method in the package is used somewhere.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/, tests/ or bench/ other
than at the definition itself.  Dunder methods are called by the
interpreter and are exempt.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lfunclab")
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]


def python_files(top: str):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parse(path: str) -> ast.AST:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def referenced_names() -> set[str]:
    names: set[str] = set()
    for top in SEARCHED:
        for path in python_files(top):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Name):
                    names.add(node.id)
                elif isinstance(node, ast.Attribute):
                    names.add(node.attr)
                elif isinstance(node, ast.alias):
                    names.add(node.name.split(".")[-1])
    return names


def package_definitions() -> dict[str, str]:
    """name -> 'module:line' for every def and class in the package."""
    defs: dict[str, str] = {}
    for path in python_files(PACKAGE):
        for node in ast.walk(parse(path)):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    defs.setdefault(node.name, f"{os.path.basename(path)}:{node.lineno}")
    return defs


def test_no_unreferenced_definitions():
    used = referenced_names()
    unused = {name: where for name, where in package_definitions().items() if name not in used}
    assert unused == {}
