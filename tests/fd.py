"""Central finite differences, the tests' reference for analytic gradients."""

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
