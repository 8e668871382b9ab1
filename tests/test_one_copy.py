"""One implementation per primitive: no two function bodies in the package
are the same code, and no module keeps a hand-rolled memo.

Two bodies count as the same when their ASTs match once the docstring is
dropped and the parameters are renamed by position, so a copy that only
renames its arguments is caught.  Bodies whose AST dump is shorter than
``_MIN_DUMP`` characters (a bare ``return x``, a one-call wrapper) are too
small to be worth sharing and are skipped.

Memos are ``functools.lru_cache`` (or a field of the object they belong
to), so a module-level name bound to an empty ``{}`` is a second memo idiom.

A scalar complex power b^x is ``arith._pp(b, x)``, so a function that writes
``np.exp(x * math.log(b))`` itself keeps a private copy of it.
"""

import ast
import copy
from collections import defaultdict
from pathlib import Path

import rsmoments

_MIN_DUMP = 120

# module-level empty dicts that are not memos.  _CONTOURS is a growing
# table: a contour's E widens by doubling its columns, which a memo keyed
# by length would keep once per length
_MODULE_DICTS = {"lseries:_CONTOURS"}

# functions that may write np.exp(x * math.log(b)) themselves
_COMPLEX_POWERS = {
    # the primitive itself
    "arith:_pp",
    # s is an array there, and _pp takes a scalar exponent
    "lseries:_smoothed_afe",
    # numpy divides that complex scalar by the real rad through 1/rad, and
    # test_sigma_twisted_array_bits_pinned pins those bits
    "arith:sigma_twisted_array",
}


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


def module_level_empty_dicts(package_dir: Path) -> list:
    """``module:name`` for every module-level name bound to an empty ``{}``."""
    found = []
    for path in sorted(package_dir.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if isinstance(node, ast.Assign):
                targets, value = node.targets, node.value
            elif isinstance(node, ast.AnnAssign):
                targets, value = [node.target], node.value
            else:
                continue
            if isinstance(value, ast.Dict) and not value.keys:
                found += [f"{path.stem}:{t.id}" for t in targets if isinstance(t, ast.Name)]
    return found


def test_no_hand_rolled_memos():
    found = module_level_empty_dicts(Path(rsmoments.__file__).parent)
    assert sorted(set(found) - _MODULE_DICTS) == []


def test_guard_catches_a_module_level_memo(tmp_path):
    (tmp_path / "one.py").write_text(
        "_CACHE: dict = {}\n_TABLE = {1: 2}\n\n\ndef f():\n    local = {}\n    return local\n"
    )
    (tmp_path / "two.py").write_text("_A = _B = {}\n")
    assert module_level_empty_dicts(tmp_path) == ["one:_CACHE", "two:_A", "two:_B"]


def _is_call(node, module: str, name: str) -> bool:
    f = getattr(node, "func", None)
    return (
        isinstance(node, ast.Call)
        and isinstance(f, ast.Attribute)
        and f.attr == name
        and isinstance(f.value, ast.Name)
        and f.value.id == module
    )


def _factors(node) -> list:
    """The factors of a product ``a * b * ...``, at any nesting."""
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult):
        return _factors(node.left) + _factors(node.right)
    return [node]


def private_complex_powers(package_dir: Path) -> list:
    """``module:function`` for every function with an ``np.exp(x * math.log(y))``,
    whichever factor of the product the log is."""
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            for node in ast.walk(fn):
                if _is_call(node, "np", "exp") and node.args:
                    factors = _factors(node.args[0])
                    if len(factors) > 1 and any(_is_call(x, "math", "log") for x in factors):
                        found.add(f"{path.stem}:{fn.name}")
    return sorted(found)


def test_no_private_complex_powers():
    found = private_complex_powers(Path(rsmoments.__file__).parent)
    assert sorted(set(found) - _COMPLEX_POWERS) == []


def test_guard_catches_a_private_complex_power(tmp_path):
    (tmp_path / "one.py").write_text(
        "def power(b, x):\n    return complex(np.exp(x * math.log(b)))\n\n\n"
        "def term(s, t):\n    def inner(N):\n        return np.exp((1 - 2 * s) * math.log(N)) * t\n"
        "    return inner(2)\n\n\n"
        "def fine(s, x):\n    return np.exp(s * np.log(x)) + math.log(x) * np.exp(s)\n"
    )
    (tmp_path / "two.py").write_text("def left(N, t):\n    return np.exp(math.log(N) * -2j * t)\n")
    assert private_complex_powers(tmp_path) == ["one:inner", "one:power", "one:term", "two:left"]
