"""Each module imports only modules earlier in the layer order

    specfun -> arith -> eisenstein -> lseries -> kernels -> moments
            -> shifted -> verify -> cli

so special functions never reach into arithmetic, arithmetic never into the
L-series layer, and so on.  Function-local imports count as well.  And every
module-level import has a reader, so no module claims a dependency it lacks.
"""

import ast
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
