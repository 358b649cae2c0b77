"""Every public top-level function and class of ``src/bem`` is used by
``src/bem`` code: a name that only tests call belongs in ``tests/`` or behind
the code it wraps."""
import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "bem"


def test_every_public_definition_is_referenced_in_src():
    trees = [ast.parse(path.read_text(encoding="utf-8"))
             for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"]
    defined = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
               and not node.name.startswith("_")}
    used = {node.id if isinstance(node, ast.Name) else node.attr
            for tree in trees for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))}
    unused = sorted(defined - used)
    assert not unused, f"public but never referenced in src/bem: {unused}"
