"""Every function, class and method in the package is used somewhere,
every option it declares is set somewhere, and src/ holds only what a
subcommand runs.

A definition counts as used when its name appears as a name, an
attribute or an imported name anywhere in src/, tests/ or bench/ other
than at the definition itself.  A defaulted parameter of a top-level
function or method counts as set when some call of that name in those
trees passes it by keyword or by position; a value no caller changes
belongs in a constant.  Nested functions are exempt, because their
defaults bind local values.  Dunder methods are called by the
interpreter and are exempt from both rules, except that __init__ is
called through its class name.

Reachability walks by name: from the CLI's entry code, its COMMANDS
handlers, every module's selftest() and bench/traced.py, each referenced
name reaches every package definition of that name.  A reached class
reaches its class body and its dunder methods.  Code that runs at import
(module-level statements other than imports and definitions) is walked
too; the package's re-exports are not, as importing a name runs nothing.
"""

import ast
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "lfunclab")
SEARCHED = [os.path.join(ROOT, d) for d in ("src", "tests", "bench")]
TESTS = os.path.join(ROOT, "tests")
TRACED = os.path.join(ROOT, "bench", "traced.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def python_files(top: str):
    for dirpath, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                yield os.path.join(dirpath, name)


def parse(path: str) -> ast.AST:
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def names_in(tree: ast.AST) -> set[str]:
    """Every name, attribute and imported name referenced in the tree."""
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.split(".")[-1])
    return names


def referenced_names() -> set[str]:
    names: set[str] = set()
    for top in SEARCHED:
        for path in python_files(top):
            names |= names_in(parse(path))
    return names


def package_definitions() -> dict[str, str]:
    """name -> 'module:line' for every def and class in the package."""
    defs: dict[str, str] = {}
    for path in python_files(PACKAGE):
        for node in ast.walk(parse(path)):
            if isinstance(node, FUNCTIONS + (ast.ClassDef,)):
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
            if isinstance(node, FUNCTIONS):
                for param, index in defaulted(node, 0):
                    options.append((node.name, param, index, f"{module}:{node.lineno}"))
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if not isinstance(item, FUNCTIONS):
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


def calls_by_name(tops=SEARCHED) -> dict[str, list[ast.Call]]:
    calls: dict[str, list[ast.Call]] = {}
    for top in tops:
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


def test_options_set_only_by_the_tests():
    """Defaulted parameters that only tests/ set, and why they stay.

    The pi0 options carry the paper's L(s, pi x pi0) families, which no
    CLI flag reaches yet.  sieve_constant(kind) and cover_ops(b, z) serve
    what only the tests run: other series kinds, and the add, mul and scale
    operations.  The rest let the tests plant what the pipelines fix:
    weights, a k range, an ideal ceiling, the N_eta window edge and a
    tolerance.  A new option that only the tests set fails here until it
    is recorded.
    """
    program_calls = calls_by_name([top for top in SEARCHED if top != TESTS])
    test_only = {
        f"{where.split(':')[0]} {name}({param})"
        for name, param, index, where in package_options()
        if not any(sets(call, param, index) for call in program_calls.get(name, []))
    }
    assert test_only == {
        "covers.py coefficient_matrix(pi0)",
        "sieve.py sieve_constant(pi0)",
        "sieve.py sieve_constant(kind)",
        "sieve.py bound_table(pi0)",
        "sieve.py sifted_sum_check(weights)",
        "detect.py high_derivative(log_n_eta)",
        "ideals.py enumerate_ideals(max_count)",
        "detect.py jk_tail_bounds_check(k_values)",
        "covers.py cover_ops(b)",
        "covers.py cover_ops(z)",
        "covers.py verify(tol)",
        "sieve.py verify(tol)",
    }


def package_index() -> tuple[dict[str, list[ast.AST]], list[tuple[str, ast.AST]], list[ast.AST]]:
    """(name -> the nodes a reference to that name reaches; (qualified name,
    node) of every top-level function and non-dunder method; the module-level
    statements that run at import)."""
    index: dict[str, list[ast.AST]] = {}
    functions: list[tuple[str, ast.AST]] = []
    at_import: list[ast.AST] = []
    for path in python_files(PACKAGE):
        module = os.path.splitext(os.path.basename(path))[0]
        for node in parse(path).body:
            if isinstance(node, FUNCTIONS):
                index.setdefault(node.name, []).append(node)
                functions.append((f"{module}.{node.name}", node))
            elif isinstance(node, ast.ClassDef):
                shell = index.setdefault(node.name, [])
                shell += node.decorator_list + node.bases + node.keywords
                for item in node.body:
                    if not isinstance(item, FUNCTIONS) or is_dunder(item.name):
                        shell.append(item)
                    else:
                        index.setdefault(item.name, []).append(item)
                        functions.append((f"{module}.{node.name}.{item.name}", item))
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                at_import.append(node)
    return index, functions, at_import


def unreached_functions() -> list[str]:
    from lfunclab import cli

    index, functions, at_import = package_index()
    roots = at_import + [parse(TRACED)]
    roots += index["selftest"]
    roots += [node for handler, _ in cli.COMMANDS.values() for node in index[handler.__name__]]
    seen: set[int] = set()
    while roots:
        node = roots.pop()
        if id(node) not in seen:
            seen.add(id(node))
            for name in names_in(node):
                roots.extend(index.get(name, ()))
    return sorted(name for name, node in functions if id(node) not in seen)


def test_every_function_is_reached_from_a_subcommand():
    assert unreached_functions() == []
