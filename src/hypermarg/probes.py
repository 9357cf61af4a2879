"""Probe vectors for stochastic trace estimation, as plain ``(m, N)`` arrays."""

import numpy as np

from .rng import stream

__all__ = ["rademacher_probes", "canonical_probes"]


def rademacher_probes(m, n_probes, seed, *tags):
    """Draw an m x n_probes block of i.i.d. Rademacher (+-1) probes.

    Each entry is the sign of one uniform draw from the ``(seed, "probes",
    *tags)`` stream, so the block is reproducible across platforms and any
    two blocks with different seeds or tags are independent.  Extra ``tags``
    let one base seed spawn distinct blocks, e.g. one per outer iteration.
    """
    if m < 1 or n_probes < 1:
        raise ValueError("m and n_probes must be positive")
    rng = stream(seed, "probes", *tags)
    u = rng.random((int(m), int(n_probes)))
    return np.where(u < 0.5, -1.0, 1.0)


def canonical_probes(m):
    """All m scaled coordinate probes sqrt(m) * e_i, as the columns of an m x m array.

    Averaging the quadratic forms w_i^T B w_i over this set reproduces
    trace(B) exactly, which makes stochastic estimators testable against
    their deterministic limits.
    """
    if m < 1:
        raise ValueError("m must be positive")
    return np.sqrt(float(m)) * np.eye(int(m))
