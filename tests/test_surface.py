"""Every top-level function and class of ``src/bem``, public or private, and
every method, class method and property of its classes, is used by
``src/bem`` code: a name that only tests call belongs in ``tests/`` (as the
per-pair oracle does) or behind the code it wraps."""
import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "bem"
TREES = [ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _on_numpy(node):
    """Whether an attribute chain starts at ``np`` (``np.zeros``, ``np.random.x``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


def _split(scope):
    """``(outer, inner)``: the children of a function, lambda or comprehension
    that run in the enclosing scope (decorators, defaults, annotations, the
    first iterable) and those that run in its own."""
    if isinstance(scope, COMPREHENSIONS):
        first = scope.generators[0]
        inner = [c for c in ast.iter_child_nodes(scope) if c is not first]
        return [first.iter], inner + [first.target, *first.ifs]
    inner = [scope.body] if isinstance(scope, ast.Lambda) else scope.body
    return [c for c in ast.iter_child_nodes(scope) if c not in inner], inner


def _binds(scope, inner):
    """The names a function, lambda or comprehension binds itself: parameters,
    assignment, loop and comprehension targets, imports, except names and
    nested definitions (not what the scopes nested in it bind)."""
    bound = set()
    if isinstance(scope, FUNCTIONS):
        a = scope.args
        bound |= {arg.arg for arg in [*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg]
                  if arg is not None}
    stack = list(inner)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Load):
            bound.add(node.id)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ExceptHandler) and node.name:
            bound.add(node.name)
        if not isinstance(node, (*FUNCTIONS, *COMPREHENSIONS, ast.ClassDef)):
            stack.extend(ast.iter_child_nodes(node))
    return bound


def _module_loads(node, local=frozenset()):
    """Names loaded at or under ``node`` that no enclosing function, lambda or
    comprehension binds: the loads that resolve to a module-level binding."""
    if isinstance(node, ast.Name):
        return {node.id} - local if isinstance(node.ctx, ast.Load) else set()
    if isinstance(node, (*FUNCTIONS, *COMPREHENSIONS)):
        outer, inner = _split(node)
        inner_local = local | _binds(node, inner)
        return set().union(*(_module_loads(c, local) for c in outer),
                           *(_module_loads(c, inner_local) for c in inner))
    return set().union(*(_module_loads(c, local) for c in ast.iter_child_nodes(node)))


def unreferenced_definitions(trees):
    """Top-level functions and classes of ``trees`` that none of them uses
    through a module-level load, an import or an attribute access."""
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = set().union(*(_module_loads(tree) for tree in trees))
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                used |= {alias.name for alias in node.names}
    return sorted(defined - used)


def test_every_public_definition_is_referenced_in_src():
    unused = unreferenced_definitions(TREES)
    assert not unused, f"defined but never referenced in src/bem: {unused}"


@pytest.mark.parametrize("use, flagged", [
    ("def f(rows):\n    return [row for row in rows]", True),
    ("def f(row):\n    return row", True),
    ("def f():\n    row = 1\n    return row", True),
    ("def f():\n    for row in range(3):\n        print(row)", True),
    ("f = lambda row: row", True),
    ("def f():\n    return row()", False),
    ("def f():\n    return [r for r in row()]", False),
    ("def f(rows):\n    return [row(r) for r in rows]", False),
    ("def f(row=row):\n    return row", False),
    ("from m import row", False),
    ("def f(obj):\n    return obj.row", False),
], ids=["comprehension-target", "parameter", "assignment", "loop-target", "lambda-parameter",
        "load-in-function", "first-iterable", "load-in-comprehension", "default-value",
        "import", "attribute"])
def test_only_loads_of_the_module_binding_count(use, flagged):
    # ``row`` is defined at the top level; ``use`` is the rest of the module.
    tree = ast.parse(f"def row():\n    pass\n\n{use}\n")
    assert ("row" in unreferenced_definitions([tree])) == flagged


def test_every_method_is_referenced_in_src():
    # A method is reached through an attribute; ``np.zeros`` does not use
    # ``DiffNet.zeros``, so attributes of numpy do not count.
    methods = {f"{cls.name}.{node.name}": node.name
               for tree in TREES for cls in tree.body if isinstance(cls, ast.ClassDef)
               for node in cls.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not node.name.startswith("__")}
    used = {node.attr for tree in TREES for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and not _on_numpy(node)}
    unused = sorted(qualified for qualified, name in methods.items() if name not in used)
    assert not unused, f"methods never referenced in src/bem: {unused}"


def test_package_top_level_imports_nothing():
    # Callers import submodules (``from bem import cli``); the package file
    # holds only its docstring and ``__version__``.
    tree = ast.parse((SRC / "__init__.py").read_text(encoding="utf-8"))
    imports = [node for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert not imports, f"src/bem/__init__.py imports again: {[ast.unparse(n) for n in imports]}"
