"""Every name a module imports is used, and every private name is read.

No linter ships with the package's dependencies, so these are small stdlib
``ast`` checks.  The import check runs over the package sources
(``__init__.py`` re-exports are skipped) and over the test modules; a name
counts as used when it is read anywhere in the module or listed in its
``__all__``.  The private-name check runs over the package sources: a
module-level name with one leading underscore must be read in its own
module or imported by another package module; an import by a test does not
count, so no private name is kept for the tests alone.  The last checks run
in a fresh interpreter: none of the three optimizers imports
``scipy.optimize``, and importing the package and building a tomography
problem imports no ``scipy.spatial``.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(
    p for p in (ROOT / "src" / "hypermarg").glob("*.py") if p.name != "__init__.py"
)
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source):
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return sorted((line, name) for name, line in imported.items() if name not in used)


def from_imported_names(source):
    """Every name a module takes with ``from ... import``."""
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def unread_private_names(source, imported_elsewhere=frozenset()):
    tree = ast.parse(source)
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                defined[name] = node.lineno
    read = {
        n.id
        for n in ast.walk(tree)
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
    }
    return sorted(
        (line, name)
        for name, line in defined.items()
        if name not in read and name not in imported_elsewhere
    )


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_private_names(path):
    others = [p for p in PACKAGE if p != path]
    others.append(ROOT / "src" / "hypermarg" / "__init__.py")
    imported = set().union(*(from_imported_names(p.read_text()) for p in others))
    assert unread_private_names(path.read_text(), imported) == []


def test_checker_flags_an_unused_name():
    source = "import os\nfrom math import pi, tau\nprint(pi)\n"
    assert unused_imports(source) == [(1, "os"), (2, "tau")]


def test_checker_flags_an_unread_private_name():
    source = (
        "_A = 1\n_B = _A\n_C: int = 2\n__all__ = []\n"
        "def _f():\n    _local = 3\nclass _K:\n    pass\nPUBLIC = 4\n"
    )
    assert unread_private_names(source) == [(2, "_B"), (3, "_C"), (5, "_f"), (7, "_K")]
    assert unread_private_names(source, {"_B", "_K"}) == [(3, "_C"), (5, "_f")]


def modules_after(script, prefix):
    """Names of the loaded modules under ``prefix`` after ``script``, in a fresh interpreter."""
    script += f"\nprint(sorted(m for m in sys.modules if m.startswith({prefix!r})))\n"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_optimizers_do_not_import_scipy_optimize():
    # Importing scipy.optimize alone adds about 6 MB to a run's peak RSS.
    script = """
import sys
from hypermarg import tomo_problem
from hypermarg.mm import m3c_optimize, mm_optimize_exact
from hypermarg.saa import saa_optimize
problem = tomo_problem(s=4, n_src=3, n_rec=5, seed=0)
m3c_optimize(problem, outer_iters=2, n_probes=4, seed=0)
saa_optimize(problem, n_probes=4, k_steps=8, seed=0, max_iters=3)
mm_optimize_exact(problem, outer_iters=2)
"""
    assert modules_after(script, "scipy.optimize") == "[]"


def test_package_and_tomo_build_do_not_import_scipy_spatial():
    # scipy.spatial, and scipy.special with it, lengthen every run's start-up
    script = """
import sys
import hypermarg
hypermarg.tomo_problem(s=8, n_src=8, n_rec=9, seed=0)
"""
    assert modules_after(script, "scipy.spatial") == "[]"
