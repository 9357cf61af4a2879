"""Linear operators with thread-safe application counters.

Everything upstream (trace estimators, solvers, optimizers) talks to matrices
only through the operator classes here, so the per-run cost ledger is exact by
construction: each symmetric operator application and each rectangular
operator application (forward or adjoint) bumps a counter.  Counters may be
shared between operators — a forward map and its derivative built for the same
problem can report into one ledger or into separate ones, at the builder's
choice.

Every operator applies to a vector or to a block of columns through one
``_apply``.  Every forward map of the test problems is a :class:`SparseLinOp`,
one CSR matrix per value of its parameters, so a block of columns costs one
sparse product; :class:`DenseLinOp` serves small hand-built maps.  Every noise
covariance is a :class:`ScaledIdentityOp`, and prior covariances are
:class:`DenseSymOp` or :class:`ScaledIdentityOp`.

Dense materialization (``dense()``) is an oracle path for small problems and
never touches the counters.
"""

import functools
import threading

import numpy as np
import scipy.linalg

__all__ = [
    "DENSE_LIMIT",
    "NumericalError",
    "MatvecCounter",
    "SymOp",
    "DenseSymOp",
    "ScaledIdentityOp",
    "LinOp",
    "DenseLinOp",
    "SparseLinOp",
    "dense_logdet",
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

    def dense(self):
        """Exact dense materialization (oracle path; does not count)."""
        raise NotImplementedError(f"{type(self).__name__} has no dense form")

    @property
    def matvec_count(self):
        return self.counter.count


class DenseSymOp(SymOp):
    """Symmetric operator backed by an explicit array."""

    def __init__(self, mat, counter=None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError("matrix must be square")
        atol = 1e-12 * max(1.0, np.abs(mat).max())
        # a NaN anywhere makes the comparison false
        if not np.abs(mat - mat.T).max() <= atol:
            raise ValueError("matrix must be symmetric")
        super().__init__(mat.shape[0], counter)
        self.mat = 0.5 * (mat + mat.T)

    def _apply(self, v):
        return self.mat @ v

    def dense(self):
        return self.mat.copy()


class ScaledIdentityOp(SymOp):
    """c * I on R^m."""

    def __init__(self, scale, m, counter=None):
        super().__init__(m, counter)
        self.scale = float(scale)

    def _apply(self, v):
        return self.scale * v

    def dense(self):
        return self.scale * np.eye(self.m)


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

    def dense(self):
        raise NotImplementedError(f"{type(self).__name__} has no dense form")

    @property
    def matvec_count(self):
        return self.counter.count


class DenseLinOp(LinOp):
    def __init__(self, mat, counter=None):
        mat = np.asarray(mat, dtype=float)
        if mat.ndim != 2:
            raise ValueError("matrix must be two-dimensional")
        super().__init__(mat.shape[0], mat.shape[1], counter)
        self.mat = mat.copy()

    def _apply(self, x):
        return self.mat @ x

    def _apply_t(self, y):
        return self.mat.T @ y

    def dense(self):
        return self.mat.copy()


class SparseLinOp(LinOp):
    """CSR-backed map; its CSR transpose is built on the first adjoint and kept.

    Building the transpose lazily keeps construction cheap for the maps that
    are only ever materialized by ``dense()`` (every dense-oracle evaluation
    builds its forward map and derivatives afresh).
    """

    def __init__(self, mat, counter=None):
        super().__init__(mat.shape[0], mat.shape[1], counter)
        self.mat = mat.tocsr()

    @functools.cached_property
    def mat_t(self):
        return self.mat.T.tocsr()

    def _apply(self, x):
        return np.asarray(self.mat @ x)

    def _apply_t(self, y):
        return np.asarray(self.mat_t @ y)

    def dense(self):
        # toarray adds into its output; on np.zeros' untouched pages that read
        # faults each page in twice, so the zeros are written first
        return self.mat.toarray(out=np.full(self.shape, 0.0))


def dense_logdet(mat):
    """log det of a dense SPD matrix via Cholesky (LAPACK ``dpotrf``).

    Raises
    ------
    NumericalError
        If the factorization fails; the message names the failed pivot
        index (1-based, as reported by LAPACK).
    ValueError
        If the matrix is not square or exceeds the dense limit.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("matrix must be square")
    if mat.shape[0] > DENSE_LIMIT:
        raise ValueError(f"matrix order {mat.shape[0]} exceeds dense limit {DENSE_LIMIT}")
    chol, info = scipy.linalg.lapack.dpotrf(mat, lower=1)
    if info > 0:
        raise NumericalError(
            f"Cholesky factorization failed: leading minor of order {info} "
            f"is not positive definite (pivot {info})"
        )
    if info < 0:
        raise ValueError(f"illegal argument {-info} to dpotrf")
    return 2.0 * float(np.sum(np.log(np.diag(chol))))
