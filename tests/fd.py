"""The tests' references for analytic gradients: central finite differences
and the dense Daleckii-Krein derivative of a log quadratic form."""

import numpy as np


def grad_fd_central(f, theta, box, eps_rel=1e-6):
    """Central-difference gradient of a scalar function, bound-aware.

    Step size h_j = eps_rel * max(1, |theta_j|).  Second-order differences
    wherever both sides of the box have room for the step; a forward or
    backward step, into whichever side has more room, near a bound.
    """
    theta = np.asarray(theta, dtype=float)
    p = theta.shape[0]
    h = eps_rel * np.maximum(1.0, np.abs(theta))
    f0 = None
    grad = np.zeros(p)
    for j in range(p):
        step = np.zeros(p)
        room_up = box.upper[j] - theta[j]
        room_dn = theta[j] - box.lower[j]
        if room_up >= h[j] and room_dn >= h[j]:
            step[j] = h[j]
            grad[j] = (f(theta + step) - f(theta - step)) / (2.0 * h[j])
            continue
        if f0 is None:
            f0 = f(theta)
        sign = 1.0 if room_up >= room_dn else -1.0
        step[j] = sign * h[j]
        grad[j] = sign * (f(theta + step) - f0) / h[j]
    return grad


def grad_fd_five_point(f, theta, eps_rel=1e-3):
    """Fourth-order central differences (the five-point stencil), interior points only.

    Step size h_j = eps_rel * max(1, |theta_j|); f must be smooth over
    theta +- 2 h_j in every coordinate.  The truncation error is O(h^4), so
    a step of 1e-3 resolves a gradient to about 1e-8 where f carries
    roundoff of 1e-13 relative.
    """
    theta = np.asarray(theta, dtype=float)
    h = eps_rel * np.maximum(1.0, np.abs(theta))
    grad = np.zeros(theta.shape[0])
    for j in range(theta.shape[0]):
        e = np.zeros_like(theta)
        e[j] = h[j]
        near = f(theta + e) - f(theta - e)
        far = f(theta + 2.0 * e) - f(theta - 2.0 * e)
        grad[j] = (8.0 * near - far) / (12.0 * h[j])
    return grad


def daleckii_krein(mat, w, weights):
    """d/dM of sum_j weights_j w_j^T log(M) w_j, dense, from M's eigendecomposition."""
    lam, vec = np.linalg.eigh(mat)
    diff = lam[:, None] - lam[None, :]
    close = np.abs(diff) <= 1e-13 * lam[None, :]
    divided = np.where(close, 1.0 / lam[None, :], np.log(lam[:, None] / lam[None, :]) / np.where(close, 1.0, diff))
    proj = vec.T @ w
    return vec @ ((proj * weights) @ proj.T * divided) @ vec.T
