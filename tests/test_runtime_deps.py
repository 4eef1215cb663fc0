"""The package imports only the standard library, mpmath and itself, so an
installed package such as numpy or gmpy2 never becomes a dependency; sympy,
hypothesis and pytest, in particular, are test-only, so the program runs
without them.  No module uses `mp.matrix` or mpmath's own solvers: a 2x2
matrix is a 4-tuple, a chain matrix is a row list, and chain ranks and
kernels come from `mplinalg`'s one elimination.  `numfield` decides
membership by an exact factorization and solves no linear system, so it
imports no `mplinalg`.  `polys` is the only module that reads or builds the
packed monomial keys of a polynomial's terms.  The free group of
`words` needs only the standard library, `records` parses without the numeric
engine, and only the entry points `cli` and `verify`, and the modules that
work at digits they are given, name mpmath's working precision.  The exact
layer (`polys`, `words`, `charvar` and `records`) imports no mpmath, since
its hint checks are exact, and `charvar` imports none of the numeric modules
`numfield`, `mplinalg` and `torsion_num`; loading any of the four, with all
it imports in turn, loads none of the numeric engine.  Only `mplinalg`
assigns attributes of mpmath's modules: it rebinds four exact integer
primitives to builtins, once, on import.  Only `mplinalg` names mpmath's
libmp arithmetic (`mpf_*`, `mpc_*`) or its `_prec_rounding`: its helpers
make the calls of mpmath's `fdot` and operators, and the rest of the package
calls them."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "torsionpoly"
TEST_ONLY = {"sympy", "hypothesis", "pytest"}


def imported_modules(path):
    """Each module an import in path names; a relative one keeps its dots."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module:
                yield dots + node.module
            else:
                yield from (dots + alias.name for alias in node.names)


def imported_roots(path):
    for name in imported_modules(path):
        if not name.startswith("."):
            yield name.split(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_no_test_only_package(path):
    assert not TEST_ONLY & set(imported_roots(path))


def test_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os, sympy.core\nfrom hypothesis import given\n"
                     "from . import polys\ndef f():\n    import pytest\n")
    assert set(imported_roots(probe)) == {"os", "sympy", "hypothesis", "pytest"}


# mpmath's matrix class and its LU, QR and Cholesky solvers
MATRIX_NAMES = {"matrix", "LU_decomp", "L_solve", "U_solve", "lu_solve",
                "qr_solve", "cholesky_solve"}


def matrix_references(path):
    """Lines that name mpmath's matrix class or one of its solvers: any
    `<name>.<one of MATRIX_NAMES>` attribute, or one imported from mpmath."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute) and node.attr in MATRIX_NAMES:
            yield node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "mpmath" \
                and any(alias.name in MATRIX_NAMES for alias in node.names):
            yield node.lineno


def test_only_numfield_uses_mp_matrix():
    users = {path.name for path in PACKAGE.rglob("*.py")
             if any(matrix_references(path))}
    assert users == set()


def test_matrix_guard_sees_every_reference_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import mpmath as mp\nfrom mpmath import matrix\n"
                     "M = mp.matrix(2)\nN = mpmath.matrices.matrix\n"
                     "doc = 'mp.matrix'\n"
                     "LU, p = mp.mp.LU_decomp(M)\n"
                     "y = mp.mp.U_solve(LU, mp.mp.L_solve(LU, b, p))\n"
                     "from mpmath import lu_solve, qr_solve\n"
                     "x = mp.cholesky_solve(M, b)\n"
                     "doc = 'mp.lu_solve'\n")
    assert sorted(set(matrix_references(probe))) == [2, 3, 4, 6, 7, 8, 9]


# the names in `polys` that make, take apart or move packed monomial keys
KEY_HELPERS = {"_make", "_pack", "_unpack", "_unit", "_guards", "_FIELD",
               "_MASK", "_add_product", "_reindex"}


def monomial_key_uses(path):
    """Lines that index, unpack or build monomial keys: a polynomial's
    `terms` used other than as `.terms.values()`, or a key helper named."""
    tree = ast.parse(path.read_text(), str(path))
    parent = {child: node for node in ast.walk(tree)
              for child in ast.iter_child_nodes(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr == "terms":
            up = parent[node]
            if not (isinstance(up, ast.Attribute) and up.attr == "values"
                    and isinstance(parent[up], ast.Call) and parent[up].func is up):
                yield node.lineno
        elif isinstance(node, ast.Attribute) and node.attr in KEY_HELPERS \
                or isinstance(node, ast.Name) and node.id in KEY_HELPERS \
                or isinstance(node, ast.ImportFrom) \
                and any(alias.name in KEY_HELPERS for alias in node.names):
            yield node.lineno


def test_only_polys_touches_monomial_keys():
    users = {path.name for path in PACKAGE.rglob("*.py")
             if any(monomial_key_uses(path))}
    assert users <= {"polys.py"}


def test_key_guard_sees_every_key_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .polys import MultiPoly, _pack\n"
                     "scale = max(p.terms.values())\n"
                     "low = min(m[0] for m in p.terms)\n"
                     "c = p.terms[(1, 0)]\n"
                     "for m, c in p.terms.items():\n    pass\n"
                     "q = MultiPoly._make(p.vars, p.terms)\n"
                     "k = polys._unpack(key, 2)\n"
                     "n = len(p.terms)\n"
                     "doc = 'p.terms[m]'\n")
    assert sorted(set(monomial_key_uses(probe))) == [1, 3, 4, 5, 7, 8, 9]


def non_stdlib_imports(path):
    return [name for name in imported_modules(path)
            if name.split(".")[0] not in sys.stdlib_module_names]


RUNTIME_ROOTS = {"mpmath", "torsionpoly"}


def foreign_imports(path):
    """The imports in path whose root is neither in the standard library,
    nor mpmath, nor the package itself (by name or relative)."""
    return [name for name in imported_modules(path)
            if not name.startswith(".") and name.split(".")[0] not in
            sys.stdlib_module_names | RUNTIME_ROOTS]


@pytest.mark.parametrize("path", sorted(PACKAGE.rglob("*.py")), ids=lambda p: p.name)
def test_module_imports_only_the_runtime_allowlist(path):
    # numpy is installed but unused, and gmpy2 would change mpmath's backend
    assert foreign_imports(path) == []


def test_allowlist_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import math, mpmath.libmp\nfrom . import polys\n"
                     "from .words import Word\nimport torsionpoly.cli\n"
                     "import numpy as np\nfrom gmpy2 import mpz\n"
                     "def f():\n    import sympy.core\n")
    assert foreign_imports(probe) == ["numpy", "gmpy2", "sympy.core"]


def test_words_imports_only_the_standard_library():
    assert non_stdlib_imports(PACKAGE / "words.py") == []


def test_stdlib_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport math, mpmath\n"
                     "from typing import Dict\nfrom . import polys\n"
                     "from .torsion_num import Rep\nimport mpmath.libmp as lm\n")
    assert non_stdlib_imports(probe) == ["mpmath", ".polys", ".torsion_num",
                                         "mpmath.libmp"]


def package_modules(path):
    """The modules an import in path names, package-relative ones by their
    own name (`.torsion_num` and `torsionpoly.torsion_num` as
    `torsion_num`), the rest by their root."""
    for name in imported_modules(path):
        if name.startswith("torsionpoly."):
            name = name[len("torsionpoly."):]
        yield name.lstrip(".").split(".")[0]


def test_records_imports_no_numeric_engine():
    assert not {"mpmath", "torsion_num", "mplinalg"} \
        & set(package_modules(PACKAGE / "records.py"))


# the exact layer reads no working precision; charvar makes no numeric step
NO_NUMERICS = {
    "polys.py": {"mpmath"},
    "words.py": {"mpmath"},
    "charvar.py": {"mpmath", "numfield", "mplinalg", "torsion_num"},
    "records.py": {"mpmath"},
}


@pytest.mark.parametrize("name", sorted(NO_NUMERICS))
def test_exact_layer_imports_no_numerics(name):
    assert not NO_NUMERICS[name] & set(package_modules(PACKAGE / name))


def test_numfield_imports_no_mplinalg():
    assert "mplinalg" not in set(package_modules(PACKAGE / "numfield.py"))


@pytest.mark.parametrize("name", ["polys", "words", "charvar", "records"])
def test_exact_layer_loads_no_numerics(name):
    """Followed through every import, not only the module's own: a fresh
    interpreter that imports an exact-layer module has loaded none of the
    numeric engine."""
    numeric = ["mpmath", "torsionpoly.numfield", "torsionpoly.mplinalg",
               "torsionpoly.torsion_num", "torsionpoly.torsion_sym"]
    probe = (f"import sys, torsionpoly.{name}\n"
             f"print(sorted(set({numeric!r}) & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(PACKAGE.parent)),
                          timeout=120)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_numerics_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from mpmath import mpf\nfrom . import numfield, polys\n"
                     "def f():\n    from .torsion_num import Rep\n"
                     "    import torsionpoly.mplinalg as la\n")
    assert NO_NUMERICS["charvar.py"] & set(package_modules(probe)) \
        == {"mpmath", "numfield", "mplinalg", "torsion_num"}


def test_package_guard_sees_every_import_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import mpmath as mp\nfrom .torsion_num import Rep\n"
                     "from . import mplinalg as la\nimport torsionpoly.numfield\n"
                     "from torsionpoly.polys import MultiPoly\n")
    assert set(package_modules(probe)) \
        == {"mpmath", "torsion_num", "mplinalg", "numfield", "polys"}


def mpmath_bindings(tree):
    """The names an import in tree binds to mpmath or a name from it."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names
                         if alias.name.split(".")[0] == "mpmath")
        elif isinstance(node, ast.ImportFrom) and node.module \
                and node.module.split(".")[0] == "mpmath":
            names.update(alias.asname or alias.name for alias in node.names)
    return names


def mpmath_assignments(path):
    """Lines that can assign an attribute of an mpmath module: a `setattr`
    or `delattr` call, an item stored into `vars(...)` or a `__dict__`, and
    an attribute stored or deleted off a name imported from mpmath."""
    tree = ast.parse(path.read_text(), str(path))
    names = mpmath_bindings(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("setattr", "delattr"):
            yield node.lineno
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load) \
                and (isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                     and node.value.func.id == "vars"
                     or isinstance(node.value, ast.Attribute)
                     and node.value.attr == "__dict__"):
            yield node.lineno
        elif isinstance(node, ast.Attribute) and not isinstance(node.ctx, ast.Load):
            root = node
            while isinstance(root, ast.Attribute):
                root = root.value
            if isinstance(root, ast.Name) and root.id in names:
                yield node.lineno


def test_only_mplinalg_assigns_mpmath_attributes():
    """mplinalg rebinds mpmath's exact integer primitives, once; no other
    module changes mpmath's modules."""
    users = {path.name for path in PACKAGE.rglob("*.py")
             if any(mpmath_assignments(path))}
    assert users == {"mplinalg.py"}


def test_assignment_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import mpmath as mp\nfrom mpmath.libmp import libmpf\n"
                     "mp.libmp.bitcount = int.bit_length\n"
                     "libmpf.isqrt, x = None, 1\n"
                     "setattr(module, 'sqrtrem', f)\n"
                     "vars(libmpf)['bitcount'] = f\n"
                     "del mp.libmp.libintmath.isqrt\n"
                     "libmpf.__dict__['isqrt'] = f\n"
                     "y = mp.libmp.bitcount\nother.bitcount = f\n"
                     "doc = 'mp.bitcount = f'\nimport mpmath.libmp\n"
                     "mpmath.libmp.sqrtrem = f\n")
    assert sorted(set(mpmath_assignments(probe))) == [3, 4, 5, 6, 7, 8, 13]


LIBMP_NAME = re.compile(r"(mpf|mpc)_\w+|_prec_rounding")


def libmp_references(path):
    """Lines that name a libmp arithmetic function (`mpf_*`, `mpc_*`) or
    mpmath's `_prec_rounding`: as a name, an attribute, an import or a
    string that is the whole name (a `getattr`)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Name) and LIBMP_NAME.fullmatch(node.id) \
                or isinstance(node, ast.Attribute) \
                and LIBMP_NAME.fullmatch(node.attr) \
                or isinstance(node, ast.ImportFrom) \
                and any(LIBMP_NAME.fullmatch(alias.name) for alias in node.names) \
                or isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and LIBMP_NAME.fullmatch(node.value):
            yield node.lineno


def test_only_mplinalg_names_libmp_arithmetic():
    users = {path.name for path in PACKAGE.rglob("*.py")
             if any(libmp_references(path))}
    assert users == {"mplinalg.py"}


def test_libmp_guard_sees_every_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import mpmath as mp\nfrom mpmath.libmp import fzero, mpf_add\n"
                     "v = mp.libmp.mpc_mul(a, b, 53)\n"
                     "prec, rnd = mp.mp._prec_rounding\n"
                     "f = getattr(mp.libmp, 'mpf_sum')\n"
                     "s = x._mpf_ + y._mpc_\ndoc = 'calls mpf_mul'\n"
                     "mpc_sub(z, w)\nhasattr(x, '_mpc_')\n")
    assert sorted(set(libmp_references(probe))) == [2, 3, 4, 5, 8]


PRECISION_NAMES = {"workdps", "workprec"}
# the entry points, and the modules that work at the digits they are given
PRECISION_MODULES = {"cli.py", "verify.py", "numfield.py", "torsion_num.py",
                     "torsion_sym.py"}


def precision_references(path):
    """Lines that name mpmath's working precision: `workdps` or `workprec`
    as an attribute, a name or an import, or `dps` or `prec` read off `mp`
    (the module or its context)."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Attribute):
            owner = node.value
            if node.attr in PRECISION_NAMES or node.attr in ("dps", "prec") \
                    and (isinstance(owner, ast.Name) and owner.id == "mp"
                         or isinstance(owner, ast.Attribute) and owner.attr == "mp"):
                yield node.lineno
        elif isinstance(node, ast.Name) and node.id in PRECISION_NAMES \
                or isinstance(node, ast.ImportFrom) \
                and any(alias.name in PRECISION_NAMES for alias in node.names):
            yield node.lineno


def test_only_entry_points_set_the_precision():
    users = {path.name for path in PACKAGE.rglob("*.py")
             if any(precision_references(path))}
    assert users <= PRECISION_MODULES


def test_precision_guard_sees_every_reference_form(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import mpmath as mp\nwith mp.workdps(40):\n    pass\n"
                     "p = mp.mp.prec\nd = mp.dps\nfrom mpmath import workprec\n"
                     "with workprec(53):\n    pass\nctx.prec = 3\n"
                     "doc = 'mp.dps'\nn = mpmath.mp.dps\n")
    assert sorted(set(precision_references(probe))) == [2, 4, 5, 6, 7, 11]
