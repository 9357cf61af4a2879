"""Probe vectors for stochastic trace estimation."""

from dataclasses import dataclass

import numpy as np

from .rng import stream

__all__ = ["ProbeSet", "rademacher_probes", "canonical_probes"]


@dataclass
class ProbeSet:
    """A fixed block of probe vectors (columns of ``W``).

    ``kind`` records how the probes were drawn: ``"rademacher"`` probes are
    i.i.d. sign vectors (the workhorse); ``"canonical"`` probes are the scaled
    coordinate vectors ``sqrt(m) * e_i``, which turn empirical means over the
    full set into exact traces — the exhaustive oracle used by tests.
    """

    w: np.ndarray
    seed: int
    kind: str = "rademacher"

    @property
    def m(self):
        return self.w.shape[0]

    @property
    def n_probes(self):
        return self.w.shape[1]


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
    w = np.where(u < 0.5, -1.0, 1.0)
    return ProbeSet(w=w, seed=int(seed), kind="rademacher")


def canonical_probes(m):
    """All m scaled coordinate probes sqrt(m) * e_i.

    Averaging the quadratic forms w_i^T B w_i over this set reproduces
    trace(B) exactly, which makes stochastic estimators testable against
    their deterministic limits.
    """
    if m < 1:
        raise ValueError("m must be positive")
    w = np.sqrt(float(m)) * np.eye(int(m))
    return ProbeSet(w=w, seed=-1, kind="canonical")
