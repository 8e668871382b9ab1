"""Each module imports only modules earlier in the layer order

    specfun -> arith -> eisenstein -> lseries -> kernels -> moments
            -> shifted -> verify -> cli

so special functions never reach into arithmetic, arithmetic never into the
L-series layer, and so on.  Function-local imports count as well.  And every
module-level import has a reader, so no module claims a dependency it lacks,
and every public name outside the roots ``verify`` and ``cli`` has a reader in
the package or a stated reason to stay.  Those names are the one declaration
of the public surface: no module keeps an ``__all__`` list beside them.  Every
parameter with a default there has a stated reason too: who passes it a second
value.  The third-party modules the package imports are the runtime dependencies that
``pyproject.toml`` declares, no more and no fewer.
"""

import ast
import re
import sys
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

    A read is a load of the bare name anywhere in the module.
    """
    tree = ast.parse(path.read_text(), filename=str(path))
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
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
        "class C:\n"
        "    def H0(self):\n"
        "        return os.sep, factorize\n"
    )
    assert unread_imports(path) == {"np", "dv", "H0"}


# the roots: their public names are commands and checks, read by no module
ROOTS = {"verify", "cli"}

# public names that no module reads, each kept for the reason given
UNREAD_PUBLIC = {
    "eisenstein:eisenstein_oracle": "the lattice route to E_a(z, s), checked in the tests",
    "eisenstein:eisenstein_constant_term": "the x-average of that route, checked against tau",
    "arith:sigma_twisted_N": "sigma_{-2it}(m; N) one m at a time from the definition, the "
                             "tests' reference route to sigma_twisted_array",
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


# every parameter with a default, of a module-level function or method
# outside the roots, and who passes it a second value
OPTIONS = {
    "arith:multiplicative_array(dtype)": "arith's own Mobius and Euler phi tables pass np.int64",
    "arith:sigma_complex(N)": "sigma_twisted_N passes the level",
    "kernels:h_eval(enforce_strip)": "L^- and L^+ evaluate h off the strip on their u-lines",
    "lseries:NewformData.A(m_max)": "the Rankin-Selberg series and criterion 12 pass a cut",
    "lseries:delta_newform(m_max)": "the CLI's --horizon, bench/ and the tests pass their horizons",
    "lseries:synthetic_maass_form(seed)": "the Maass-side tests draw several forms",
    "lseries:rankin_selberg_L(m_max)": "the tests compare two truncations",
    "lseries:holo_L(method)": "bench/ and continuous_part pass 'afe'",
    "lseries:curly_L_eisenstein_direct(m_max)": "criterion 4 and bench/ pass 100,000",
    "moments:main_term(pole_guard)": "criterion 9 and bench/ set it",
    "moments:main_term_t0_limit(which)": "bench/ and the tests pass 'feq_plus'",
    "moments:main_term_t0_limit(t_nodes)": "the tests hold two node sets against each other",
    "moments:continuous_part(points_per_unit)": "the CLI's --points-per-unit and bench/ pass it",
    "moments:continuous_part(half_line)": "the CLI and bench/ take the half line",
    "moments:first_moment_pieces(sigma_u)": "an independent route in the tests: another u-contour",
    "moments:first_moment_pieces(sigma_0)": "an independent route in the tests: another L^- contour",
    "moments:first_moment_pieces(m_inner)": "an independent route in the tests: another inner cut",
    "moments:first_moment_pieces(inner_panels)": "bench/ passes 24, and the tests other panel counts",
    "moments:error_exponent(delta)": "the paper's delta; the tests pass one off alpha - (2 beta - 1)",
    "specfun:NonConvergenceError.__init__(value)": "the quadratures pass their last value",
    "specfun:NonConvergenceError.__init__(error)": "the quadratures pass their last error",
    "specfun:zeta_laurent(order)": "riemann_zeta's value and derivative pass orders 0 and 1",
    "specfun:bessel_K(rel_tol)": "an independent route in the tests: a tighter mesh",
    "specfun:integrate_aligned_lattice(pole)": "L^+ subtracts its Gamma poles",
}


def defaulted_parameters(paths, roots=ROOTS) -> set:
    """``module:function(parameter)``, or ``module:Class.method(parameter)``,
    of each parameter with a default of a module-level function or of a
    method of a module-level class, outside ``roots``."""
    out = set()
    for path in paths:
        if path.stem in roots:
            continue
        tree = ast.parse(path.read_text(), filename=str(path))
        functions = []
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                functions.append((node.name, node))
            elif isinstance(node, ast.ClassDef):
                functions += [(f"{node.name}.{sub.name}", sub) for sub in node.body
                              if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
        for name, fn in functions:
            args = fn.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            out.update(f"{path.stem}:{name}({a.arg})" for a in defaulted)
    return out


def test_every_option_has_a_reason():
    assert defaulted_parameters(sorted(PACKAGE.glob("*.py"))) == set(OPTIONS)


def test_option_guard_sees_every_default(tmp_path):
    (tmp_path / "lib.py").write_text(
        "def f(a, b=1, *, c, d=2):\n"
        "    def inner(e=3):\n"
        "        return e\n"
        "    return inner()\n"
        "def _g(x, /, y=None):\n"
        "    return x\n"
        "class K:\n"
        "    def m(self, z=0.5):\n"
        "        return z\n"
        "    def n(self, w):\n"
        "        return w\n"
    )
    (tmp_path / "app.py").write_text("def main(argv=None):\n    return argv\n")
    paths = sorted(tmp_path.glob("*.py"))
    assert defaulted_parameters(paths, roots={"app"}) == {"lib:f(b)", "lib:f(d)", "lib:_g(y)", "lib:K.m(z)"}
    assert "app:main(argv)" in defaulted_parameters(paths, roots=set())


def declares_all(path: Path) -> bool:
    """Whether ``path`` binds the name ``__all__`` anywhere."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return any(isinstance(n, ast.Name) and n.id == "__all__" and isinstance(n.ctx, ast.Store)
               for n in ast.walk(tree))


@pytest.mark.parametrize("module", ORDER + ["__init__"])
def test_no_module_declares_all(module):
    assert not declares_all(PACKAGE / f"{module}.py")


def test_all_guard_sees_each_binding(tmp_path):
    texts = ("__all__ = ['f']\n", "__all__: list = []\n", "__all__ += ['g']\n",
             '"""No __all__ here."""\nprint(__all__)\n')
    for i, text in enumerate(texts):
        path = tmp_path / f"m{i}.py"
        path.write_text(text)
        assert declares_all(path) == (i < 3)


def third_party_imports(paths) -> set:
    """Top-level names of the modules that ``paths`` import at any nesting
    depth, leaving out the standard library, relative imports and rsmoments."""
    out = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                out.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                out.add(node.module.partition(".")[0])
    return out - set(sys.stdlib_module_names) - {"rsmoments"}


def runtime_dependencies(pyproject: Path) -> set:
    """The distribution names in ``[project] dependencies`` of ``pyproject``."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    deps = tomllib.loads(pyproject.read_text())["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", dep).group().lower() for dep in deps}


def test_runtime_dependencies_are_the_imports():
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    assert third_party_imports(sorted(PACKAGE.glob("*.py"))) == runtime_dependencies(pyproject)


def test_dependency_guard_sees_a_test_only_import(tmp_path):
    (tmp_path / "lib.py").write_text(
        "import os.path\n"
        "import numpy as np\n"
        "from scipy.special import kv\n"
        "from . import arith\n"
        "from rsmoments import lseries\n"
        "def f():\n"
        "    import mpmath\n"
    )
    (tmp_path / "pyproject.toml").write_text(
        '[project]\nname = "lib"\ndependencies = ["NumPy>=1.24", "scipy >= 1.10"]\n'
    )
    imports = third_party_imports([tmp_path / "lib.py"])
    assert imports == {"numpy", "scipy", "mpmath"}
    assert imports != runtime_dependencies(tmp_path / "pyproject.toml") == {"numpy", "scipy"}
