"""Each module imports only modules earlier in the layer order

    specfun -> arith -> eisenstein -> lseries -> kernels -> moments
            -> shifted -> verify -> cli

so special functions never reach into arithmetic, arithmetic never into the
L-series layer, and so on.  Function-local imports count as well.  And every
module-level import has a reader, so no module claims a dependency it lacks,
and every public name outside the roots ``verify`` and ``cli`` has a reader in
the package or a stated reason to stay.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

import rsmoments

ORDER = ["specfun", "arith", "eisenstein", "lseries", "kernels", "moments",
         "shifted", "verify", "cli"]
PACKAGE = Path(rsmoments.__file__).parent


def imported_modules(path: Path) -> set:
    """The package modules that ``path`` imports, at any nesting depth."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if module != "rsmoments" and not module.startswith("rsmoments."):
                    continue
                module = module.partition(".")[2]
            if module:
                out.add(module.partition(".")[0])
            else:
                out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("rsmoments."):
                    out.add(alias.name.split(".")[1])
    return out


def test_every_module_has_a_layer():
    assert sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__") == sorted(ORDER)


@pytest.mark.parametrize("module", ORDER)
def test_imports_follow_layer_order(module):
    earlier = set(ORDER[: ORDER.index(module)])
    assert imported_modules(PACKAGE / f"{module}.py") <= earlier


def test_guard_sees_every_import_form(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from .arith import factorize\n"
        "def f():\n"
        "    from . import verify, cli\n"
        "    import rsmoments.shifted\n"
        "    from rsmoments.kernels import H0\n"
        "    from rsmoments import lseries\n"
        "    import numpy\n"
    )
    assert imported_modules(path) == {"arith", "verify", "cli", "shifted", "kernels", "lseries"}


def unread_imports(path: Path) -> set:
    """Names that module-level imports of ``path`` bind and nothing reads.

    A read is a load of the bare name anywhere in the module; a name listed
    in ``__all__`` counts as read, as it is exported.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound, read = set(), set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    read.update(n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))
    return bound - read


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_every_import_has_a_reader(module):
    assert unread_imports(PACKAGE / f"{module}.py") == set()


def test_reader_guard_sees_unread_names(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(
        "from __future__ import annotations\n"
        "import os, numpy as np\n"
        "from .arith import factorize, divisors as dv\n"
        "from .kernels import H0\n"
        "__all__ = ['factorize']\n"
        "class C:\n"
        "    def H0(self):\n"
        "        return os.sep\n"
    )
    assert unread_imports(path) == {"np", "dv", "H0"}


# the roots: their public names are commands and checks, read by no module
ROOTS = {"verify", "cli"}

# public names that no module reads, each kept for the reason given
UNREAD_PUBLIC = {
    "eisenstein:eisenstein_oracle": "the lattice route to E_a(z, s), checked in the tests",
    "eisenstein:eisenstein_constant_term": "the x-average of that route, checked against tau",
    "eisenstein:tau_cusp_array": "tau_cusp_blocks in one block, whose bits the tests pin by SHA-256",
    "shifted:shifted_D": "the one-row D(w; m), whose criterion-11 values the tests pin",
    "shifted:shifted_inner_lower": "the one-row lower-shifted series, pinned the same way",
    "lseries:synthetic_maass_form": "the Maass form data the Maass-side tests are built on",
    "lseries:rankin_selberg_L": "the direct L(s, f x g~) at Re s > 1, held against the divisor "
                                "models' closed form in the tests; bench/spans.py wraps it by name",
    "lseries:curly_L_maass_direct": "one of the two Maass twisted-series routes the tests compare",
    "lseries:curly_L_maass_factored": "the other of those two routes",
    "lseries:rankin_selberg_maass": "the direct L(s, f x u) of the discrete-moment tests",
    "moments:first_moment_pieces": "read by bench/ only, the first-moment-oracle workload",
    "moments:error_exponent": "the paper's piecewise error exponent, pinned by the tests",
}


def unread_public_names(paths, roots=ROOTS) -> set:
    """``module:name`` of each module-level function or class without a
    leading underscore, outside ``roots``, that nothing in ``paths`` reads.

    A read is a load of the bare name or an attribute of that name, anywhere
    but inside the definition itself; ``__all__`` is not a read.
    """
    defined, readers = set(), defaultdict(set)  # name -> {(module, enclosing definition)}
    for path in paths:
        tree = ast.parse(path.read_text(), filename=str(path))
        owner = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                if path.stem not in roots and not node.name.startswith("_"):
                    defined.add((path.stem, node.name))
                owner.update((id(sub), node.name) for sub in ast.walk(node))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                readers[node.id].add((path.stem, owner.get(id(node))))
            elif isinstance(node, ast.Attribute):
                readers[node.attr].add((path.stem, owner.get(id(node))))
    return {f"{module}:{name}" for module, name in defined if not readers[name] - {(module, name)}}


def test_every_public_name_has_a_reader():
    assert unread_public_names(sorted(PACKAGE.glob("*.py"))) == set(UNREAD_PUBLIC)


def test_public_reader_guard_sees_unread_names(tmp_path):
    (tmp_path / "lib.py").write_text(
        "__all__ = ['unused']\n"
        "def used():\n"
        "    return 1\n"
        "def unused():\n"
        "    return unused()\n"
        "def _private():\n"
        "    return 2\n"
        "class Shape:\n"
        "    pass\n"
        "class Orphan:\n"
        "    def area(self):\n"
        "        return Orphan\n"
    )
    (tmp_path / "app.py").write_text(
        "from . import lib\n"
        "from .lib import Shape\n"
        "def main():\n"
        "    return lib.used(), Shape()\n"
    )
    paths = sorted(tmp_path.glob("*.py"))
    assert unread_public_names(paths, roots={"app"}) == {"lib:unused", "lib:Orphan"}
    assert unread_public_names(paths, roots=set()) == {"lib:unused", "lib:Orphan", "app:main"}
