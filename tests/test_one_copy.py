"""One implementation per primitive: no two function bodies in the package
are the same code, and no module keeps a hand-rolled memo.

Two bodies count as the same when their ASTs match once the docstring is
dropped and the parameters are renamed by position, so a copy that only
renames its arguments is caught.  Bodies whose AST dump is shorter than
``_MIN_DUMP`` characters (a bare ``return x``, a one-call wrapper) are too
small to be worth sharing and are skipped.

A copy can also hide inside bodies that differ elsewhere, so a run of
``_MIN_RUN`` or more consecutive statements of one block that appears in two
functions, after the same parameter renaming, is flagged too when its AST
dump is at least ``_MIN_RUN_DUMP`` characters long.  A function's runs stop
at its nested functions, which are functions of their own.

Memos are ``functools.lru_cache`` (or a field of the object they belong
to), so a module-level name bound to an empty ``{}`` is a second memo idiom.

A scalar complex power b^x is ``arith._pp(b, x)``, so a function that writes
``np.exp(x * math.log(b))`` itself keeps a private copy of it.

log m over m = 1..n is ``arith.log_table(n)``, so a function outside
``arith`` that calls ``np.log`` on an ``np.arange(...)``, or on a name it
binds to one, builds a private log table.
"""

import ast
import copy
from collections import defaultdict
from pathlib import Path

import rsmoments

_MIN_DUMP = 120
_MIN_RUN = 3
_MIN_RUN_DUMP = 500

# functions that may write np.exp(x * math.log(b)) themselves
_COMPLEX_POWERS = {
    # the primitive itself
    "arith:_pp",
    # s is an array there, and _pp takes a scalar exponent
    "lseries:_smoothed_afe",
}


class _RenameParams(ast.NodeTransformer):
    def __init__(self, names):
        self.names = names

    def visit_Name(self, node):
        if node.id in self.names:
            return ast.copy_location(ast.Name(id=self.names[node.id], ctx=node.ctx), node)
        return node


def _renamer(fn) -> _RenameParams:
    a = fn.args
    params = a.posonlyargs + a.args + ([a.vararg] if a.vararg else []) + a.kwonlyargs
    params += [a.kwarg] if a.kwarg else []
    return _RenameParams({p.arg: f"_p{i}" for i, p in enumerate(params)})


def _normalised_body(fn) -> str:
    body = fn.body
    if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        if isinstance(body[0].value.value, str):
            body = body[1:]
    renamer = _renamer(fn)
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


_NESTED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)


def _blocks(node):
    """The statement lists under ``node``, not entering nested functions or
    classes."""
    for field in ("body", "orelse", "finalbody"):
        block = getattr(node, field, None)
        if isinstance(block, list) and block and isinstance(block[0], ast.stmt):
            yield block
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, _NESTED):
            yield from _blocks(child)


def repeated_statement_runs(package_dir: Path) -> list:
    """Groups of ``module:function`` names that share a run of at least
    ``_MIN_RUN`` consecutive statements of one block, parameters renamed by
    position, whose AST dump has at least ``_MIN_RUN_DUMP`` characters."""
    seen = defaultdict(set)
    for path in sorted(package_dir.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            renamer = _renamer(fn)
            for block in _blocks(fn):
                dumps = [ast.dump(renamer.visit(copy.deepcopy(stmt))) for stmt in block]
                for lo in range(len(dumps)):
                    for hi in range(lo + _MIN_RUN, len(dumps) + 1):
                        run = "".join(dumps[lo:hi])
                        if len(run) >= _MIN_RUN_DUMP:
                            seen[run].add(f"{path.stem}:{fn.name}")
    return sorted({tuple(sorted(names)) for names in seen.values() if len(names) > 1})


def test_no_repeated_statement_runs():
    assert repeated_statement_runs(Path(rsmoments.__file__).parent) == []


_RUN = """\
total = 0.0 + 0.0j
for j in range(1, {n} + 1):
    total += weights[j - 1] * j ** (-{x})
if abs(total) > 1e300:
    raise OverflowError("the series overflows at n = " + str({n}))
scale = math.exp(-{x} * math.log({n} + 1.0)) / ({x} - 1.0)
"""


def _indented(text: str, depth: int) -> str:
    return "".join("    " * depth + line + "\n" for line in text.splitlines())


def test_guard_catches_a_repeated_run(tmp_path):
    run = _RUN.format(x="x", n="n")
    (tmp_path / "one.py").write_text(
        "def first(x, n, weights):\n    '''Doc.'''\n    n = n + 1\n"
        + _indented(run, 1) + "    return total, scale\n\n\n"
        "def nested(x):\n    def inner(x, n, weights):\n"
        + _indented(run, 2) + "        return total\n"
        "    return inner(x, 3, [1.0] * 4)\n"
    )
    # the same run inside an if block of a function whose parameters have
    # other names; a run of two statements, or a short one, is not flagged
    (tmp_path / "two.py").write_text(
        "def second(y, m, weights):\n    if y > 1.0:\n        m += 1\n"
        + _indented(_RUN.format(x="y", n="m"), 2) + "    return 0.0\n\n\n"
        "def pair(x, n, weights):\n" + _indented("\n".join(run.splitlines()[-3:]), 1)
        + "    return scale\n\n\n"
        "def short(x, n, weights):\n    a = x\n    b = n\n    c = weights\n    return a, b, c\n\n\n"
        "def short_copy(x, n, weights):\n    a = x\n    b = n\n    c = weights\n    return a\n"
    )
    assert repeated_statement_runs(tmp_path) == [("one:first", "one:inner", "two:second")]


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
    assert module_level_empty_dicts(Path(rsmoments.__file__).parent) == []


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


def _unwrap_astype(node):
    """``x`` for ``x.astype(...)``, else the node itself."""
    f = getattr(node, "func", None)
    if isinstance(node, ast.Call) and isinstance(f, ast.Attribute) and f.attr == "astype":
        return f.value
    return node


def private_log_tables(package_dir: Path) -> list:
    """``module:function`` for every function outside ``arith`` that calls
    ``np.log`` on an ``np.arange(...)`` or on a name bound to one in that
    function.  A scaled or shifted range (``scale * np.arange(...)``) is not
    one."""
    found = set()
    for path in sorted(package_dir.glob("*.py")):
        if path.stem == "arith":
            continue
        for fn in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            ranges = {
                t.id
                for node in ast.walk(fn)
                if isinstance(node, ast.Assign) and _is_call(_unwrap_astype(node.value), "np", "arange")
                for t in node.targets
                if isinstance(t, ast.Name)
            }
            for node in ast.walk(fn):
                if _is_call(node, "np", "log") and node.args:
                    arg = _unwrap_astype(node.args[0])
                    if _is_call(arg, "np", "arange") or (isinstance(arg, ast.Name) and arg.id in ranges):
                        found.add(f"{path.stem}:{fn.name}")
    return sorted(found)


def test_no_private_log_tables():
    assert private_log_tables(Path(rsmoments.__file__).parent) == []


def test_guard_catches_a_private_log_table(tmp_path):
    (tmp_path / "one.py").write_text(
        "def direct(n):\n    return np.log(np.arange(1, n + 1))\n\n\n"
        "def bound(n, s):\n    m = np.arange(1, n + 1, dtype=float)\n    return np.exp(-s * np.log(m))\n\n\n"
        "def cast(n):\n    return np.log(np.arange(1, n + 1).astype(float))\n\n\n"
        "def scaled(n, scale):\n    return np.log(scale * np.arange(1, n + 1))\n\n\n"
        "def shifted(n, a):\n    x = np.arange(n, dtype=float) + a\n    return np.log(x)\n\n\n"
        "def elsewhere(m):\n    return np.log(m)\n"
    )
    # arith builds the one table
    (tmp_path / "arith.py").write_text("def log_table(n):\n    return np.log(np.arange(1, n + 1))\n")
    assert private_log_tables(tmp_path) == ["one:bound", "one:cast", "one:direct"]
