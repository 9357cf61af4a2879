"""Matern covariance kernels at the half-integer orders with closed forms.

Only nu in {1/2, 3/2, 5/2} is supported; these are the orders with elementary
closed-form expressions, and their lengthscale derivatives are implemented
analytically alongside the kernels so covariance derivative operators need no
finite differencing.

Conventions: ``amplitude`` is the marginal standard deviation (the kernel
carries amplitude**2), ``lengthscale`` the correlation length.
"""

import numpy as np

__all__ = [
    "matern_kernel",
    "matern_dlengthscale",
    "matern_covariance",
    "pairwise_distances",
    "MATERN_JITTER",
]

# Relative diagonal jitter applied when a Matern matrix is assembled as a
# covariance (keeps Cholesky factorizations of near-rank-deficient kernels
# alive without visibly perturbing the model).
MATERN_JITTER = 1e-10

_SUPPORTED = (0.5, 1.5, 2.5)


def _check_nu(nu):
    if nu not in _SUPPORTED:
        raise ValueError(f"nu must be one of {_SUPPORTED}, got {nu}")


def pairwise_distances(points):
    """Euclidean distance matrix for an (n, d) point array.

    The squared coordinate differences are summed one coordinate at a time,
    in coordinate order, so only n x n arrays are formed and no (n, n, d)
    one.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    total = np.zeros((points.shape[0], points.shape[0]))
    for coord in points.T:
        diff = np.subtract.outer(coord, coord)
        diff *= diff
        total += diff
    return np.sqrt(total, out=total)


def matern_kernel(dists, amplitude, lengthscale, nu=0.5):
    """Matern kernel values for a (pre-computed) distance array."""
    _check_nu(nu)
    if amplitude <= 0.0 or lengthscale <= 0.0:
        raise ValueError("amplitude and lengthscale must be positive")
    d = np.asarray(dists, dtype=float)
    a2 = amplitude**2
    if nu == 0.5:
        return a2 * np.exp(-d / lengthscale)
    if nu == 1.5:
        s = np.sqrt(3.0) * d / lengthscale
        return a2 * (1.0 + s) * np.exp(-s)
    s = np.sqrt(5.0) * d / lengthscale
    return a2 * (1.0 + s + s**2 / 3.0) * np.exp(-s)


def matern_dlengthscale(dists, amplitude, lengthscale, nu=0.5):
    """d kernel / d lengthscale, elementwise closed forms."""
    _check_nu(nu)
    if amplitude <= 0.0 or lengthscale <= 0.0:
        raise ValueError("amplitude and lengthscale must be positive")
    d = np.asarray(dists, dtype=float)
    a2 = amplitude**2
    if nu == 0.5:
        return a2 * np.exp(-d / lengthscale) * d / lengthscale**2
    if nu == 1.5:
        s = np.sqrt(3.0) * d / lengthscale
        return a2 * (s**2 / lengthscale) * np.exp(-s)
    s = np.sqrt(5.0) * d / lengthscale
    return a2 * (s**2 * (1.0 + s) / (3.0 * lengthscale)) * np.exp(-s)


def matern_covariance(dists, amplitude, lengthscale, nu=0.5):
    """Dense Matern covariance matrix with the diagonal jitter ``MATERN_JITTER``."""
    mat = matern_kernel(dists, amplitude, lengthscale, nu)
    # onto the fresh kernel's diagonal in place, through its flat stride
    mat.flat[:: mat.shape[0] + 1] += MATERN_JITTER * amplitude**2
    return mat
