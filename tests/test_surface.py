"""Every top-level function and class of ``src/bem``, public or private, and
every method, class method and property of its classes, is used by
``src/bem`` code: a name that only tests call belongs in ``tests/`` (as the
per-pair oracle does) or behind the code it wraps."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bem"
TREES = [ast.parse(path.read_text(encoding="utf-8"))
         for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]


def _on_numpy(node):
    """Whether an attribute chain starts at ``np`` (``np.zeros``, ``np.random.x``)."""
    while isinstance(node, ast.Attribute):
        node = node.value
    return isinstance(node, ast.Name) and node.id == "np"


def test_every_public_definition_is_referenced_in_src():
    defined = {node.name for tree in TREES for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in TREES for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(defined - used)
    assert not unused, f"defined but never referenced in src/bem: {unused}"


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
