import numpy as np
import pytest

from hypermarg import canonical_probes, rademacher_probes
from hypermarg.rng import stream


def test_rademacher_entries_are_signs():
    probes = rademacher_probes(17, 33, seed=4)
    assert probes.w.shape == (17, 33)
    assert np.all(np.abs(probes.w) == 1.0)
    assert probes.kind == "rademacher"


def test_rademacher_reproducible_and_seed_sensitive():
    a = rademacher_probes(20, 10, seed=7)
    b = rademacher_probes(20, 10, seed=7)
    c = rademacher_probes(20, 10, seed=8)
    assert np.array_equal(a.w, b.w)
    assert not np.array_equal(a.w, c.w)


def test_rademacher_rejects_bad_sizes():
    with pytest.raises(ValueError):
        rademacher_probes(0, 5, seed=0)
    with pytest.raises(ValueError):
        rademacher_probes(5, 0, seed=0)


def test_canonical_probes_give_exact_trace():
    rng = stream(3, "canonical-test")
    a = rng.standard_normal((9, 9))
    mat = a + a.T
    probes = canonical_probes(9)
    quadforms = np.array(
        [probes.w[:, i] @ mat @ probes.w[:, i] for i in range(probes.n_probes)]
    )
    assert np.mean(quadforms) == pytest.approx(np.trace(mat), abs=1e-12)


def test_stream_independence_across_tags():
    a = stream(5, "probes").random(8)
    b = stream(5, "noise").random(8)
    assert not np.allclose(a, b)
