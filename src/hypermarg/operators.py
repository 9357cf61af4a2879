"""Linear operators with thread-safe application counters.

Everything upstream (trace estimators, solvers, optimizers) talks to matrices
only through the operator classes here, so the per-run cost ledger is exact by
construction: each symmetric operator application and each rectangular
operator application (forward or adjoint) bumps a counter.  Counters may be
shared between operators — a forward map and its derivative built for the same
problem can report into one ledger or into separate ones, at the builder's
choice.  A composite operator may run its parts through their uncounted
``_apply``/``_apply_t`` and charge their counters itself: ``model.PsiOperator``
charges A, Q and R per column, in one call each, the same counts their counted
applies would have made.

Every operator applies to a vector or to a block of columns through one
``_apply``; symmetric operators also give the dense oracle two uncounted
reductions, ``_pair`` and ``_take``, which a scaled identity computes
without forming a product.  Every forward map is a :class:`SparseLinOp`, one CSR matrix per
value of its parameters, so a block of columns costs one sparse product.  The
noise covariance sigma^2 I is the :class:`ScaledIdentityOp` that
``ProblemSpec.build_r`` makes, and prior covariances are :class:`DenseSymOp`
or :class:`ScaledIdentityOp`.

``SparseLinOp.dense`` materializes a forward map for the dense oracle
(``objective.dense_objective_pieces``) and never touches the counters.
"""

import functools
import threading

import numpy as np

__all__ = [
    "DENSE_LIMIT",
    "NumericalError",
    "MatvecCounter",
    "SymOp",
    "DenseSymOp",
    "ScaledIdentityOp",
    "LinOp",
    "SparseLinOp",
]

# Largest dimension for which dense materialization / dense factorizations
# are considered acceptable.
DENSE_LIMIT = 2048


class NumericalError(RuntimeError):
    """A numerical operation failed (non-PD pivot, non-PD Ritz value, ...).

    Distinct from ``ValueError``, which signals a caller mistake; this one
    signals that the math went bad at runtime.  The command-line driver maps
    it to exit code 3.
    """


class MatvecCounter:
    """Thread-safe event counter shared between operators."""

    __slots__ = ("_count", "_lock")

    def __init__(self):
        self._count = 0
        self._lock = threading.Lock()

    def increment(self, k=1):
        with self._lock:
            self._count += k

    @property
    def count(self):
        return self._count

    def __repr__(self):
        return f"MatvecCounter({self._count})"


def _as_vector(v, n, name="v"):
    v = np.asarray(v, dtype=float)
    if v.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {v.shape}")
    return v


def _as_block(v, n, name="V"):
    v = np.asarray(v, dtype=float)
    if v.ndim != 2 or v.shape[0] != n:
        raise ValueError(f"{name} must have shape ({n}, k), got {v.shape}")
    return v


class SymOp:
    """Symmetric linear operator on R^m.

    Subclasses implement ``_apply`` for a vector or a block of columns;
    ``matvec`` and ``matmat`` wrap it with counting, one application per
    column.
    """

    def __init__(self, m, counter=None):
        if m < 1:
            raise ValueError("operator dimension must be positive")
        self.m = int(m)
        self.counter = counter if counter is not None else MatvecCounter()

    @property
    def shape(self):
        return (self.m, self.m)

    def matvec(self, v):
        self.counter.increment()
        return self._apply(_as_vector(v, self.m))

    def matmat(self, V):
        """Apply to each column of ``V`` (counts one matvec per column)."""
        V = _as_block(V, self.m)
        self.counter.increment(V.shape[1])
        return self._apply(V)

    def _apply(self, v):
        raise NotImplementedError

    def _pair(self, u, v):
        """Uncounted sum over all entries of u * (v S), with S this operator.

        ``u`` and ``v`` are vectors of length m, or equal-shape blocks whose
        rows have length m.
        """
        return float(np.vdot(u, self._apply(v.T).T))

    def _take(self, b, positions):
        """Uncounted entries of b S at each array of row-major flat positions.

        ``b`` is a block whose rows have length m; ``positions`` is an
        iterable of index arrays, and b S is formed once for all of them.
        """
        product = self._apply(b.T).T.reshape(-1)
        return [product[p] for p in positions]

    @property
    def matvec_count(self):
        return self.counter.count


class DenseSymOp(SymOp):
    """Symmetric operator backed by an explicit array."""

    def __init__(self, mat, counter=None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        with np.errstate(invalid="ignore"):  # inf - inf where an inf meets its mirror
            diff = mat - mat.T
        # all zero exactly when M is symmetric and finite (an inf or a NaN
        # entry leaves an inf or a NaN): then 0.5 (M + M^T) is M itself, and
        # M is copied
        exact = not diff.any()
        if not exact:
            atol = 1e-12 * max(1.0, np.abs(mat).max())
            # a NaN anywhere makes the comparison false
            if not np.abs(diff).max() <= atol:
                raise ValueError("matrix must be symmetric")
        super().__init__(mat.shape[0], counter)
        self.mat = mat.copy() if exact else 0.5 * (mat + mat.T)

    def _apply(self, v):
        return self.mat @ v


class ScaledIdentityOp(SymOp):
    """c * I on R^m."""

    def __init__(self, scale, m, counter=None):
        super().__init__(m, counter)
        self.scale = float(scale)

    def _apply(self, v):
        return self.scale * v

    # c I needs no product: the pairing and the entries are those of v and b, scaled
    def _pair(self, u, v):
        return self.scale * float(np.vdot(u, v))

    def _take(self, b, positions):
        flat = b.reshape(-1)
        entries = [flat[p] for p in positions]
        for e in entries:
            e *= self.scale
        return entries


class LinOp:
    """Rectangular operator R^n -> R^m with adjoint.

    Subclasses implement ``_apply`` and ``_apply_t`` for a vector or a block
    of columns.  Forward and adjoint applications increment the same counter:
    the cost ledger tracks "applications of the map or its transpose", one per
    column of a block.
    """

    def __init__(self, m, n, counter=None):
        if m < 1 or n < 1:
            raise ValueError("operator dimensions must be positive")
        self.m = int(m)
        self.n = int(n)
        self.counter = counter if counter is not None else MatvecCounter()

    @property
    def shape(self):
        return (self.m, self.n)

    def matvec(self, x):
        self.counter.increment()
        return self._apply(_as_vector(x, self.n, "x"))

    def rmatvec(self, y):
        self.counter.increment()
        return self._apply_t(_as_vector(y, self.m, "y"))

    def matmat(self, X):
        """Apply to each column of ``X`` (counts one application per column)."""
        X = _as_block(X, self.n, "X")
        self.counter.increment(X.shape[1])
        return self._apply(X)

    def rmatmat(self, Y):
        """Apply the adjoint to each column of ``Y`` (counted per column)."""
        Y = _as_block(Y, self.m, "Y")
        self.counter.increment(Y.shape[1])
        return self._apply_t(Y)

    def _apply(self, x):
        raise NotImplementedError

    def _apply_t(self, y):
        raise NotImplementedError

    @property
    def matvec_count(self):
        return self.counter.count


class SparseLinOp(LinOp):
    """CSR-backed map; its CSR transpose is built on the first adjoint and kept.

    Building the transpose lazily keeps construction cheap for the maps that
    are only ever materialized by ``dense()`` or read entry by entry
    (every dense-oracle evaluation builds its forward map and derivatives
    afresh); ``flat_positions`` is likewise computed on first use, unless a
    subclass that shares one structure between instances supplies it.
    """

    def __init__(self, mat, counter=None):
        super().__init__(mat.shape[0], mat.shape[1], counter)
        self.mat = mat.tocsr()

    @functools.cached_property
    def mat_t(self):
        return self.mat.T.tocsr()

    @functools.cached_property
    def flat_positions(self):
        """Row-major position of each stored entry in the dense m x n matrix."""
        mat = self.mat
        return np.repeat(np.arange(self.m) * self.n, np.diff(mat.indptr)) + mat.indices

    def _apply(self, x):
        return np.asarray(self.mat @ x)

    def _apply_t(self, y):
        return np.asarray(self.mat_t @ y)

    def dense(self):
        # toarray adds into its output; on np.zeros' untouched pages that read
        # faults each page in twice, so the zeros are written first
        return self.mat.toarray(out=np.full(self.shape, 0.0))

