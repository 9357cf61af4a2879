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
sake, each with its reason.  The parameter check runs over the same public
surface: every parameter with a default, of a function in ``__all__`` or of
a public method or ``__init__`` of a class there, must be set by package,
demo or benchmark code, by keyword or by position in a call to a callee of
its name, or as a string key of a dict display there (a config schema, a
``**kwargs`` dict); so no option is kept that only tests set, and the
allowlist names each exception with its reason.  The field check runs over
the same surface: every field of a dataclass named in ``__all__`` must be
read by package, demo or benchmark code, as an attribute of that name or
through ``getattr``, so no field is kept that only tests read or that only
repeats another; its allowlist names the exceptions.  ``mm.py`` and
``saa.py`` call neither ``tobytes`` nor ``array_equal``: the optimizers carry
evaluated points, so no cache there is keyed by theta.  No package module
defines, imports or calls ``grad_fd``: saa's gradient is exact, and finite
differences live in the tests alone (``tests/fd.py``).  ``nystrom.py`` must
not use ``scipy.linalg``, so the preconditioner build stays in numpy's BLAS.
``NumericalError`` is caught only at the few sites that own a failure rule,
so a bad trial point is handled in one place for every optimizer.  The last
checks run in a fresh interpreter: none of the three optimizers imports
``scipy.optimize``, and importing the package and building a tomography
problem imports no ``scipy.spatial``.
"""

import ast
import math
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

# optional parameters that no package, demo or benchmark code sets, kept on purpose
NO_SETTER_NEEDED = {
    ("main", "argv"): "tests drive the command line in process",
}

# public dataclass fields that no package, demo or benchmark code reads, kept on purpose
NO_FIELD_READER_NEEDED = {
    ("ObjectiveEval", "misfit"): "a reference of the SLQ-against-exact checks in test_objective.py",
    ("ObjectiveEval", "logdet_part"): "the SLQ-against-exact log-det reference in test_objective.py",
    ("ObjectiveEval", "prior_part"): "a reference of the SLQ-against-exact checks in test_objective.py",
    ("LogdetMatrix", "log_mat"): "the oracle log(M) in test_randmat.py",
    ("OuterRecord", "inner_stop"): "tests read it until metrics.csv has an inner_stop column",
}

# the only functions that catch NumericalError, each once, with what it does
NUMERICAL_ERROR_HANDLERS = {
    ("mm.py", "projected_gradient_min"): "backtracks from a trial point that raises",
    ("mm.py", "_mm_chain"): "rejects a proposal the audit cannot evaluate",
    ("cli.py", "main"): "exits with status 3",
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


def optional_parameters(source):
    """``(callee, parameter, position)`` for each defaulted parameter on the public surface.

    The surface is every function named in ``__all__`` and every public
    method and ``__init__`` of a class named there.  A class's ``__init__``
    is called by the class's name; a method's positions count after
    ``self`` (or ``cls``), and a keyword-only parameter has position None.
    """
    tree = ast.parse(source)
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}

    def defaulted(callee, args, skip):
        positional = args.posonlyargs + args.args
        first = len(positional) - len(args.defaults)
        found = [(callee, a.arg, i - skip) for i, a in enumerate(positional) if i >= first]
        found += [
            (callee, a.arg, None)
            for a, d in zip(args.kwonlyargs, args.kw_defaults)
            if d is not None
        ]
        return found

    params = []
    for node in tree.body:
        if getattr(node, "name", None) not in public:
            continue
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            params += defaulted(node.name, node.args, 0)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                if item.name != "__init__" and item.name.startswith("_"):
                    continue
                static = any(
                    isinstance(d, ast.Name) and d.id == "staticmethod"
                    for d in item.decorator_list
                )
                callee = node.name if item.name == "__init__" else item.name
                params += defaulted(callee, item.args, 0 if static else 1)
    return params


def callee_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def parameter_setters(sources, factories=()):
    """What ``sources`` set: ``(keywords, positions, keys)``.

    ``keywords[name]`` holds the keywords of the calls to a callee of that
    name, and ``positions[name]`` their largest count of positional
    arguments (inf after a ``*args``).  ``super().__init__`` inside a class
    counts as a call to each base class, and a keyword passed to
    ``make_test_problem`` as one to each of ``factories``.  ``keys`` holds
    the string keys of dict displays and the keywords of ``dict()`` calls,
    which is how config schemas and ``**kwargs`` dicts name what they set.
    """
    keywords, positions, keys = {}, {}, set()

    def note(name, call):
        keywords.setdefault(name, set()).update(k.arg for k in call.keywords if k.arg)
        count = len(call.args)
        if any(isinstance(a, ast.Starred) for a in call.args):
            count = math.inf
        positions[name] = max(positions.get(name, 0), count)

    for source in sources:
        tree = ast.parse(source)
        for node in ast.walk(tree):
            if isinstance(node, ast.Dict):
                keys.update(
                    k.value for k in node.keys
                    if isinstance(k, ast.Constant) and isinstance(k.value, str)
                )
            elif isinstance(node, ast.Call):
                name = callee_name(node.func)
                if name == "dict":
                    keys.update(k.arg for k in node.keywords if k.arg)
                if name == "make_test_problem":
                    for factory in factories:
                        keywords.setdefault(factory, set()).update(
                            k.arg for k in node.keywords if k.arg
                        )
                if name is not None:
                    note(name, node)
            elif isinstance(node, ast.ClassDef):
                bases = [callee_name(b) for b in node.bases]
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and call.func.attr == "__init__"
                        and isinstance(call.func.value, ast.Call)
                        and callee_name(call.func.value.func) == "super"
                    ):
                        for base in filter(None, bases):
                            note(base, call)
    return keywords, positions, keys


def unset_parameters(source, setters):
    """``(callee, parameter)`` for each optional parameter of ``source`` that nothing sets."""
    keywords, positions, keys = setters
    return [
        (callee, name)
        for callee, name, position in optional_parameters(source)
        if name not in keywords.get(callee, ())
        and not (position is not None and positions.get(callee, 0) > position)
        and name not in keys
    ]


def problem_factories():
    """The factories ``make_test_problem`` dispatches to, by name."""
    tree = ast.parse((ROOT / "src" / "hypermarg" / "problems.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == "make_test_problem":
            return {
                v.id
                for d in ast.walk(node)
                if isinstance(d, ast.Dict)
                for v in d.values
                if isinstance(v, ast.Name)
            }
    return set()


def unset_package_parameters():
    setters = parameter_setters([p.read_text() for p in READERS], problem_factories())
    return {
        (path.name, *param): param
        for path in PACKAGE
        for param in unset_parameters(path.read_text(), setters)
    }


def test_every_optional_parameter_has_a_setter():
    unset = unset_package_parameters()
    assert sorted(k for k, v in unset.items() if v not in NO_SETTER_NEEDED) == []


def test_every_allowlisted_parameter_still_lacks_a_setter():
    assert set(unset_package_parameters().values()) == set(NO_SETTER_NEEDED)


def test_checker_flags_an_optional_parameter_without_a_setter():
    source = (
        '__all__ = ["f", "K", "Sub", "make_test_problem"]\n'
        "def f(a, b=1, c=2, *, d=3, e=4):\n    pass\n"
        "def _private(x=1):\n    pass\n"
        "class K:\n"
        "    def __init__(self, u=1, v=2):\n        pass\n"
        "    def meth(self, s=1, t=2):\n        pass\n"
        "    def _hidden(self, h=1):\n        pass\n"
        "    @staticmethod\n"
        "    def stat(z=1):\n        pass\n"
        "class Sub(K):\n"
        "    def __init__(self, w=1):\n        super().__init__(u=w)\n"
        "def make_test_problem(kind, **kw):\n    return {'toy': toy}[kind](**kw)\n"
        "def toy(size=1, grain=2):\n    pass\n"
    )
    assert optional_parameters(source) == [
        ("f", "b", 1), ("f", "c", 2), ("f", "d", None), ("f", "e", None),
        ("K", "u", 0), ("K", "v", 1), ("meth", "s", 0), ("meth", "t", 1),
        ("stat", "z", 0), ("Sub", "w", 0),
    ]
    toy = (
        '__all__ = ["toy"]\n'
        "def toy(size=1, grain=2):\n    pass\n"
    )
    caller = (
        "f(0, 5, e=6)\n"
        "obj.meth(*args)\n"
        "Sub()\n"
        "cfg = {'v': 1}\n"
        "make_test_problem('toy', size=3)\n"
    )
    setters = parameter_setters([source, caller], {"toy"})
    assert unset_parameters(source, setters) == [
        ("f", "c"), ("f", "d"), ("stat", "z"), ("Sub", "w"),
    ]
    assert unset_parameters(toy, setters) == [("toy", "grain")]
    setters = parameter_setters([caller])
    assert unset_parameters(toy, setters) == [("toy", "size"), ("toy", "grain")]


def public_dataclass_fields(source):
    """``(class, field)`` for each public field of a dataclass named in ``__all__``."""
    tree = ast.parse(source)
    public = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            public = {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [
        (node.name, item.target.id)
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        and node.name in public
        and any(
            callee_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
            for d in node.decorator_list
        )
        for item in node.body
        if isinstance(item, ast.AnnAssign)
        and isinstance(item.target, ast.Name)
        and not item.target.id.startswith("_")
    ]


def fields_read(sources):
    """Attribute names ``sources`` read, and the string names they pass to ``getattr``."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif (
                isinstance(node, ast.Call)
                and callee_name(node.func) == "getattr"
                and len(node.args) > 1
                and isinstance(node.args[1], ast.Constant)
            ):
                read.add(node.args[1].value)
    return read


def unread_package_fields():
    read = fields_read(p.read_text() for p in READERS)
    return {
        field
        for path in PACKAGE
        for field in public_dataclass_fields(path.read_text())
        if field[1] not in read
    }


def test_every_public_dataclass_field_has_a_reader():
    assert sorted(unread_package_fields() - set(NO_FIELD_READER_NEEDED)) == []


def test_every_allowlisted_field_still_lacks_a_reader():
    assert unread_package_fields() == set(NO_FIELD_READER_NEEDED)


def test_checker_flags_a_dataclass_field_without_a_reader():
    source = (
        '__all__ = ["Rec", "Frozen", "Plain"]\n'
        "@dataclass\nclass Rec:\n    a: int\n    b: int = 0\n    _c: int = 0\n    d = 1\n"
        "@dataclass(frozen=True)\nclass Frozen:\n    e: float\n"
        "class Plain:\n    f: int\n"
        "@dataclass\nclass Hidden:\n    g: int\n"
    )
    assert public_dataclass_fields(source) == [("Rec", "a"), ("Rec", "b"), ("Frozen", "e")]
    reader = "rec.a\nrec.b = 1\ngetattr(obj, 'e', None)\n"
    assert fields_read([reader]) == {"a", "e"}


def theta_key_uses(source):
    """Lines where ``source`` calls ``tobytes`` or ``array_equal``, as a theta-keyed cache does."""
    return sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and callee_name(node.func) in ("tobytes", "array_equal")
    )


@pytest.mark.parametrize("name", ["mm.py", "saa.py"])
def test_optimizers_keep_no_theta_keyed_cache(name):
    assert theta_key_uses((ROOT / "src" / "hypermarg" / name).read_text()) == []


def test_checker_flags_theta_keys():
    source = (
        "seen = {}\nseen[th.tobytes()] = 1\n"
        "if np.array_equal(held.theta, th):\n    pass\n"
        "same = array_equal(a, b)\nkey = th.tobytes\n"
    )
    assert theta_key_uses(source) == [2, 3, 5]


def finite_difference_uses(source):
    """Lines where ``source`` defines, imports or calls a function named ``grad_fd``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            hit = node.name == "grad_fd"
        elif isinstance(node, ast.ImportFrom):
            hit = any(alias.name == "grad_fd" for alias in node.names)
        else:
            hit = isinstance(node, ast.Call) and callee_name(node.func) == "grad_fd"
        if hit:
            lines.append(node.lineno)
    return sorted(lines)


def test_package_takes_no_finite_differences():
    modules = sorted((ROOT / "src" / "hypermarg").glob("*.py"))
    found = {p.name: finite_difference_uses(p.read_text()) for p in modules}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_checker_flags_finite_differences():
    source = (
        "from .objective import eval_F_slq, grad_fd\n"
        "def grad_fd(f, theta):\n    return theta\n"
        "g = objective.grad_fd(f, theta)\nh = grad_fd\ngrad_fd_central(f, theta)\n"
    )
    assert finite_difference_uses(source) == [1, 2, 4]


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


def numerical_error_handlers(source):
    """Qualified names of the functions whose ``except`` clauses name ``NumericalError``.

    One entry per clause, in source order; ``<module>`` for a clause outside
    any function or class.
    """
    sites = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, scope + [child.name])
                continue
            if (
                isinstance(child, ast.ExceptHandler)
                and child.type is not None
                and "NumericalError" in names_read(child.type)
            ):
                sites.append(".".join(scope) or "<module>")
            visit(child, scope)

    visit(ast.parse(source), [])
    return sites


def test_numerical_error_is_caught_only_where_a_failure_rule_lives():
    found = [(p.name, site) for p in PACKAGE for site in numerical_error_handlers(p.read_text())]
    assert sorted(found) == sorted(NUMERICAL_ERROR_HANDLERS)


def test_checker_finds_every_numerical_error_handler():
    source = (
        "def f():\n    try:\n        pass\n    except NumericalError:\n        pass\n"
        "class K:\n    def g(self):\n        def h():\n            try:\n"
        "                pass\n            except (ValueError, ops.NumericalError):\n"
        "                pass\n"
        "try:\n    pass\nexcept ValueError:\n    pass\n"
        "try:\n    pass\nexcept NumericalError as exc:\n    pass\n"
    )
    assert numerical_error_handlers(source) == ["f", "K.g.h", "<module>"]


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


def scipy_linalg_uses(source):
    """Line numbers where ``source`` imports ``scipy.linalg`` or reads ``scipy.linalg``."""
    lines = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            names = [node.module] + [f"{node.module}.{alias.name}" for alias in node.names]
        elif (
            isinstance(node, ast.Attribute)
            and node.attr == "linalg"
            and isinstance(node.value, ast.Name)
            and node.value.id == "scipy"
        ):
            names = ["scipy.linalg"]
        else:
            continue
        if any(n == "scipy.linalg" or n.startswith("scipy.linalg.") for n in names):
            lines.append(node.lineno)
    return lines


def test_nystrom_build_uses_numpy_blas_only():
    # scipy bundles an OpenBLAS of its own: a scipy.linalg call between
    # numpy's products makes two BLAS thread pools contend for the same
    # cores, which made the sketch's triangular solve several times slower
    source = (ROOT / "src" / "hypermarg" / "nystrom.py").read_text()
    assert scipy_linalg_uses(source) == []


def test_checker_flags_every_form_of_scipy_linalg():
    source = (
        "import scipy.linalg\n"
        "from scipy import linalg\n"
        "from scipy.linalg import solve_triangular\n"
        "import scipy\n"
        "scipy.linalg.cholesky\n"
        "import numpy.linalg\n"
    )
    assert scipy_linalg_uses(source) == [1, 2, 3, 5]
