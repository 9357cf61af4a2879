"""Every imported name is used, and every private and public name is read.

No linter ships with the package's dependencies, so these are small stdlib
``ast`` checks.  The import check runs over the package sources
(``__init__.py`` re-exports are skipped) and over the test modules; a name
counts as used when it is read anywhere in the module or listed in its
``__all__``.  The private-name check runs over the package sources: a
module-level name with one leading underscore must be read in its own
module or imported by another package module; an import by a test does not
count, so no private name is kept for the tests alone.  The public-name
check runs over the package sources too: a name in a module's ``__all__``
must be read by package, demo or benchmark code, or be named in the README;
its own definition, its ``__all__`` entry and the ``__init__.py`` re-export
do not count, and an allowlist names the few kept public for the tests'
sake, each with its reason.  The last checks run in a fresh interpreter:
none of the three optimizers imports ``scipy.optimize``, and importing the
package and building a tomography problem imports no ``scipy.spatial``.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(
    p for p in (ROOT / "src" / "hypermarg").glob("*.py") if p.name != "__init__.py"
)
SOURCES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
READERS = (
    PACKAGE + sorted((ROOT / "demos").glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
)

# public names that no package, demo or benchmark code reads, kept on purpose
NO_READER_NEEDED = {
    "grad_F_exact": "the dense reference gradient that tests compare others against",
    "strip_timing": "the documented way to compare the artifacts of two reruns",
}


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


def names_read(node, skip=None):
    """Names read in ``node`` as a variable or an attribute, outside ``skip``."""
    if node is skip:
        return set()
    read = set()
    if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
        read.add(node.id)
    elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
        read.add(node.attr)
    for child in ast.iter_child_nodes(node):
        read |= names_read(child, skip)
    return read


def unread_public_names(source, readers=(), text=""):
    """Names in ``__all__`` that no reader source reads and ``text`` never names.

    In ``source`` itself a read counts unless it lies inside the name's own
    top-level definition.
    """
    tree = ast.parse(source)
    public, defined = [], {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = [e.value for e in node.value.elts if isinstance(e, ast.Constant)]
    read = set().union(*(names_read(ast.parse(r)) for r in readers))
    return [
        name
        for name in public
        if name not in read
        and not re.search(rf"\b{re.escape(name)}\b", text)
        and name not in names_read(tree, skip=defined.get(name))
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unread_private_names(path):
    others = [p for p in PACKAGE if p != path]
    others.append(ROOT / "src" / "hypermarg" / "__init__.py")
    imported = set().union(*(from_imported_names(p.read_text()) for p in others))
    assert unread_private_names(path.read_text(), imported) == []


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_public_name_has_a_reader(path):
    readers = [p.read_text() for p in READERS if p != path]
    readme = (ROOT / "README.md").read_text()
    unread = unread_public_names(path.read_text(), readers, readme)
    assert [name for name in unread if name not in NO_READER_NEEDED] == []


def test_every_allowlisted_public_name_still_lacks_a_reader():
    readme = (ROOT / "README.md").read_text()
    unread = set()
    for path in PACKAGE:
        readers = [p.read_text() for p in READERS if p != path]
        unread.update(unread_public_names(path.read_text(), readers, readme))
    assert unread == set(NO_READER_NEEDED)


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


def test_checker_flags_a_public_name_without_a_reader():
    source = (
        '__all__ = ["f", "g", "h", "K", "L"]\n'
        "def f():\n    return f\n"
        "def g():\n    pass\n"
        "def h():\n    pass\n"
        "class K:\n    pass\n"
        "class L:\n    pass\n"
        "def run():\n    return K()\n"
    )
    assert unread_public_names(source) == ["f", "g", "h", "L"]
    reader = "import mod\nmod.g()\n"
    assert unread_public_names(source, [reader], "call `h` first") == ["f", "L"]


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
