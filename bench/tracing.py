"""In-memory span recorder wrapped around hypermarg's public API.

``Tracer.install`` replaces every public function and every public method of
the ``hypermarg`` modules with a wrapper that records one span per call: its
name, start, end and the span that was open when it was called (its parent).
The program's source is untouched; the wrappers are set on the loaded module
and class objects and ``uninstall`` puts the originals back.

Spans live in flat ``array`` buffers (28 bytes each), so the millions of
operator applications of a tomography run fit in tens of megabytes, and are
written out once, by ``save``, when the run ends.

A method span is named after the class of the instance it ran on, not the
class that defines the method, so ``SymOp.matvec`` run on a Psi operator is
recorded as ``model.PsiOperator.matvec``.  A few calls also record a count
taken from their return value (``EXTRA``): PCG iterations, Lanczos steps,
and the inner-loop gradient evaluations of ``projected_gradient_min``.
"""

import contextlib
import functools
import inspect
import sys
import time
from array import array

import numpy as np

# Counters recorded per call; they are read off the returned object.
EXTRA = {
    "pcg_solve": lambda out: out.iterations,
    "lanczos_decompose": lambda out: out.k_eff,
    "projected_gradient_min": lambda out: out.grad_evals,
}

# Per-application bookkeeping of the ledger itself: a span there would double
# the trace without naming a layer.
SKIP_CLASSES = {"MatvecCounter"}

# Return values kept for the workload's own accounting (optimizer results
# and problems built inside a harness call).
KEEP = {"make_test_problem", "saa_optimize", "m3c_optimize", "mm_optimize_exact"}


class Tracer:
    def __init__(self):
        self.clock = time.perf_counter
        self.names = []
        self.classes = {}  # span name -> class of the instance, for methods
        self._ids = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.extra = array("q")
        self.stack = [-1]
        self.kept = []  # (function name, span index, return value)
        self._undo = []

    # ------------------------------------------------------------------
    # recording

    def _name_id(self, label, cls=None):
        nid = self._ids.get(label)
        if nid is None:
            nid = len(self.names)
            self._ids[label] = nid
            self.names.append(label)
            if cls is not None:
                self.classes[label] = cls
        return nid

    def _open(self, nid):
        idx = len(self.start)
        self.start.append(self.clock())
        self.end.append(0.0)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.extra.append(0)
        self.stack.append(idx)
        return idx

    def _close(self, idx):
        self.stack.pop()
        self.end[idx] = self.clock()

    @contextlib.contextmanager
    def span(self, label):
        """A span opened by the benchmark itself around one of its calls."""
        idx = self._open(self._name_id(label))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap_function(self, fn, label):
        nid = self._name_id(label)
        extra = EXTRA.get(fn.__name__)
        keep = fn.__name__ in KEEP
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra is not None:
                tracer.extra[idx] = int(extra(out))
            if keep:
                tracer.kept.append((fn.__name__, idx, out))
            return out

        return traced

    def _wrap_method(self, fn, method):
        tracer = self
        ids = {}

        @functools.wraps(fn)
        def traced(obj, *args, **kwargs):
            cls = type(obj)
            nid = ids.get(cls)
            if nid is None:
                label = f"{cls.__module__.rsplit('.', 1)[-1]}.{cls.__name__}.{method}"
                nid = ids[cls] = tracer._name_id(label, cls)
            idx = tracer._open(nid)
            try:
                return fn(obj, *args, **kwargs)
            finally:
                tracer._close(idx)

        return traced

    # ------------------------------------------------------------------
    # installing

    def install(self, package="hypermarg"):
        """Wrap the public functions and methods of every loaded module."""
        modules = [
            mod for name, mod in sorted(sys.modules.items())
            if mod is not None and (name == package or name.startswith(package + "."))
        ]
        replaced = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for attr, value in list(vars(mod).items()):
                if attr.startswith("_") or getattr(value, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(value):
                    replaced[value] = self._wrap_function(value, f"{short}.{attr}")
                elif inspect.isclass(value) and value.__name__ not in SKIP_CLASSES:
                    self._wrap_class(value)
        # a function imported by name into other modules is replaced there too
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in replaced:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, replaced[value])

    def _wrap_class(self, cls):
        for attr, value in list(vars(cls).items()):
            if attr.startswith("_") or not inspect.isfunction(value):
                continue
            self._undo.append((cls, attr, value))
            setattr(cls, attr, self._wrap_method(value, attr))

    def uninstall(self):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # ------------------------------------------------------------------
    # reading

    def arrays(self):
        """The spans as numpy arrays: start, end, name id, parent index, extra."""
        return (
            np.frombuffer(self.start, dtype=float).copy(),
            np.frombuffer(self.end, dtype=float).copy(),
            np.frombuffer(self.name, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.extra, dtype=np.int64).copy(),
        )

    def save(self, path):
        start, end, name, parent, extra = self.arrays()
        np.savez(
            path,
            start=start,
            end=end,
            name=name,
            parent=parent,
            extra=extra,
            names=np.array(self.names),
        )


class SpanTable:
    """Queries over a finished trace: counts, inclusive and self times."""

    def __init__(self, tracer, first=0, last=None):
        start, end, name, parent, extra = tracer.arrays()
        last = len(start) if last is None else last
        self.names = tracer.names
        self.classes = tracer.classes
        self.dur = end - start
        self.name = name
        self.parent = parent
        self.extra = extra
        child = np.zeros(len(start))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], self.dur[has_parent])
        self.self_time = self.dur - child
        self.window = np.zeros(len(start), dtype=bool)
        self.window[first:last] = True

    def ids(self, predicate):
        return {i for i, label in enumerate(self.names) if predicate(label)}

    def _mask(self, ids, parents=None):
        mask = self.window & np.isin(self.name, list(ids))
        if parents is not None:
            has_parent = self.parent >= 0
            parent_name = np.where(has_parent, self.name[np.maximum(self.parent, 0)], -1)
            mask &= has_parent & np.isin(parent_name, list(parents))
        return mask

    def count(self, ids, parents=None):
        return int(np.count_nonzero(self._mask(ids, parents)))

    def extra_sum(self, ids, parents=None):
        return int(self.extra[self._mask(ids, parents)].sum())

    def self_s(self, ids):
        return float(self.self_time[self._mask(ids)].sum())

    def inclusive_s(self, ids, parents=None):
        """Wall time inside spans of ``ids``, counting nested ones once.

        With ``parents``, only spans whose direct parent is one of those
        names count.
        """
        ids = set(ids)
        total = 0.0
        for i in np.flatnonzero(self._mask(ids, parents)):
            p = self.parent[i]
            while p >= 0 and self.name[p] not in ids:
                p = self.parent[p]
            if p < 0:
                total += self.dur[i]
        return float(total)
