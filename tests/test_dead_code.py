"""Every function, class and method in the package is used somewhere,
and every option it declares is set somewhere.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/, tests/ or bench/ other
than at the definition itself.  A defaulted parameter of a top-level
function or method counts as set when some call of that name in those
trees passes it by keyword or by position; a value no caller changes
belongs in a constant.  Nested functions are exempt, because their
defaults bind local values.  Dunder methods are called by the
interpreter and are exempt from both rules, except that __init__ is
called through its class name.
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
                if not is_dunder(node.name):
                    defs.setdefault(node.name, f"{os.path.basename(path)}:{node.lineno}")
    return defs


def test_no_unreferenced_definitions():
    used = referenced_names()
    unused = {name: where for name, where in package_definitions().items() if name not in used}
    assert unused == {}


def is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defaulted(fn: ast.FunctionDef, skipped: int) -> list[tuple[str, int | None]]:
    """(parameter, index among a call's positional arguments, or None when
    keyword-only) for each parameter of fn that has a default; skipped is
    the number of leading parameters a call does not pass (self, cls)."""
    positional = fn.args.posonlyargs + fn.args.args
    first = len(positional) - len(fn.args.defaults)
    out = [(arg.arg, i - skipped) for i, arg in enumerate(positional) if i >= first]
    out += [
        (arg.arg, None)
        for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if default is not None
    ]
    return out


def package_options() -> list[tuple[str, str, int | None, str]]:
    """(called name, parameter, positional index, 'module:line') for every
    defaulted parameter of a top-level function or method in the package."""
    options = []
    for path in python_files(PACKAGE):
        module = os.path.basename(path)
        for node in parse(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for param, index in defaulted(node, 0):
                    options.append((node.name, param, index, f"{module}:{node.lineno}"))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        continue
                    if is_dunder(item.name) and item.name != "__init__":
                        continue
                    static = any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in item.decorator_list
                    )
                    called = node.name if item.name == "__init__" else item.name
                    for param, index in defaulted(item, 0 if static else 1):
                        options.append((called, param, index, f"{module}:{item.lineno}"))
    return options


def calls_by_name() -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for top in SEARCHED:
        for path in python_files(top):
            for node in ast.walk(parse(path)):
                if isinstance(node, ast.Call):
                    func = node.func
                    if isinstance(func, ast.Name):
                        calls.setdefault(func.id, []).append(node)
                    elif isinstance(func, ast.Attribute):
                        calls.setdefault(func.attr, []).append(node)
    return calls


def sets(call: ast.Call, param: str, index: int | None) -> bool:
    if any(kw.arg in (param, None) for kw in call.keywords):  # None: **mapping
        return True
    if index is None:
        return False
    return len(call.args) > index or any(isinstance(a, ast.Starred) for a in call.args)


def test_every_option_is_set_by_a_caller():
    calls = calls_by_name()
    never_set = sorted(
        f"{where} {name}({param})"
        for name, param, index, where in package_options()
        if not any(sets(call, param, index) for call in calls.get(name, []))
    )
    assert never_set == []
