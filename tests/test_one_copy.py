"""One implementation per primitive: no two function bodies in the package
are the same code.

Two bodies count as the same when their ASTs match once the docstring is
dropped and the parameters are renamed by position, so a copy that only
renames its arguments is caught.  Bodies whose AST dump is shorter than
``_MIN_DUMP`` characters (a bare ``return x``, a one-call wrapper) are too
small to be worth sharing and are skipped.
"""

import ast
import copy
from collections import defaultdict
from pathlib import Path

import rsmoments

_MIN_DUMP = 120


class _RenameParams(ast.NodeTransformer):
    def __init__(self, names):
        self.names = names

    def visit_Name(self, node):
        if node.id in self.names:
            return ast.copy_location(ast.Name(id=self.names[node.id], ctx=node.ctx), node)
        return node


def _normalised_body(fn) -> str:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            body = body[1:]
    a = fn.args
    params = a.posonlyargs + a.args + ([a.vararg] if a.vararg else []) + a.kwonlyargs
    params += [a.kwarg] if a.kwarg else []
    renamer = _RenameParams({p.arg: f"_p{i}" for i, p in enumerate(params)})
    return "".join(ast.dump(renamer.visit(copy.deepcopy(stmt))) for stmt in body)


def duplicate_bodies(package_dir: Path) -> list:
    """Groups of ``module:function`` names whose normalised bodies coincide."""
    seen = defaultdict(list)
    for path in sorted(package_dir.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                key = _normalised_body(node)
                if len(key) >= _MIN_DUMP:
                    seen[key].append(f"{path.stem}:{node.name}")
    return [names for names in seen.values() if len(names) > 1]


def test_no_duplicate_function_bodies():
    assert duplicate_bodies(Path(rsmoments.__file__).parent) == []


def test_guard_catches_a_renamed_copy(tmp_path):
    body = "    total = 0.0\n    for j in range(n):\n        total += x ** j / (j + 1.0)\n    return total\n"
    (tmp_path / "one.py").write_text(f"def series(x, n):\n    '''Doc.'''\n{body}")
    (tmp_path / "two.py").write_text(
        "def other(y, m):\n" + body.replace("x", "y").replace("(n)", "(m)")
    )
    assert duplicate_bodies(tmp_path) == [["one:series", "two:other"]]
