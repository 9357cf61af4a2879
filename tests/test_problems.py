import numpy as np
import pytest
import scipy.signal

from hypermarg import (
    ConvolutionOp,
    SuperresOp,
    phantom_image,
    psf_stencil,
    ray_matrix,
    superres_problem,
)
from hypermarg.operators import SparseLinOp
from hypermarg.problems import SuperresDerivOp, _psf_quadform_parts, psf_stencil_derivative
from hypermarg.rng import stream


def test_psf_center_weight_is_one():
    p = psf_stencil([1.0, 0.3, 0.8], halfwidth=3)
    assert p.shape == (7, 7)
    assert p[3, 3] == 1.0
    assert np.all(p > 0.0) and np.all(p <= 1.0)


def test_psf_collapses_to_identity_at_large_widths():
    p = psf_stencil([25.0, 0.0, 25.0], halfwidth=3)
    delta = np.zeros((7, 7))
    delta[3, 3] = 1.0
    assert np.abs(p - delta).max() < 1e-30

    op = ConvolutionOp(p, 8)
    x = phantom_image(8).ravel()
    assert np.allclose(op.matvec(x), x, atol=1e-12)


def test_psf_stencil_derivative_matches_fd():
    y = np.array([1.1, 0.4, 0.7])
    h = 1e-7
    for j in range(3):
        ej = np.zeros(3)
        ej[j] = h
        fd = (psf_stencil(y + ej) - psf_stencil(y - ej)) / (2.0 * h)
        assert np.abs(psf_stencil_derivative(y, j) - fd).max() <= 1e-8


def test_psf_grids_are_cached_read_only_and_stencils_are_fresh():
    di, dj = _psf_quadform_parts(3)
    assert _psf_quadform_parts(3)[0] is di
    for grid in (di, dj):
        assert not grid.flags.writeable
        with pytest.raises(ValueError):
            grid[0, 0] = 0.0
    y = [1.0, 0.3, 0.8]
    first = psf_stencil(y)
    assert first.flags.writeable
    first[0, 0] = -1.0
    assert psf_stencil(y)[0, 0] > 0.0
    assert psf_stencil_derivative(y, 1).flags.writeable


def test_psf_stencil_derivative_rejects_bad_index():
    with pytest.raises(ValueError, match="0, 1 or 2"):
        psf_stencil_derivative([1.0, 0.3, 0.8], 3)


@pytest.mark.parametrize("s, halfwidth", [(6, 1), (8, 3), (5, 3)])
def test_convolution_shared_positions_match_its_csr(s, halfwidth):
    stencil = stream(9, "conv-pos").standard_normal((2 * halfwidth + 1,) * 2)
    op = ConvolutionOp(stencil, s)
    generic = SparseLinOp(op.mat).flat_positions
    assert np.array_equal(op.flat_positions, generic)
    assert np.array_equal(op.dense().ravel()[op.flat_positions], op.mat.data)
    # every stencil of one (s, halfwidth) reads the same read-only positions
    assert ConvolutionOp(2.0 * stencil, s).flat_positions is op.flat_positions
    assert not op.flat_positions.flags.writeable


def test_convolution_adjoint_identity():
    rng = stream(7, "conv-adj")
    stencil = rng.standard_normal((5, 5))
    op = ConvolutionOp(stencil, 10)
    x = rng.standard_normal(100)
    y = rng.standard_normal(100)
    assert np.dot(op.matvec(x), y) == pytest.approx(np.dot(x, op.rmatvec(y)), rel=1e-12)


def test_convolution_matches_correlate2d():
    # deblur's 7x7 stencil on and wider than the image, a 3x3 stencil and one
    # with zero taps, against an independent zero-padded correlation
    rng = stream(8, "conv-dense")
    small = rng.standard_normal((3, 3))
    wide = rng.standard_normal((7, 7))
    holed = wide.copy()
    holed[0, :] = 0.0
    holed[::2, 5] = 0.0
    holed[3, 3] = 0.0
    for stencil, s in ((wide, 16), (wide, 8), (wide, 3), (small, 6), (holed, 5)):
        op = ConvolutionOp(stencil, s)

        def correlate(x):
            return scipy.signal.correlate2d(x.reshape(s, s), stencil, mode="same").ravel()

        # the whole matrix: each column is the stencil response to one pixel
        columns = np.column_stack([correlate(e) for e in np.eye(s * s)])
        np.testing.assert_array_equal(op.dense(), columns)
        images = rng.standard_normal((s * s, 3))
        expected = np.column_stack([correlate(x) for x in images.T])
        np.testing.assert_allclose(op.matmat(images), expected, rtol=0, atol=1e-13)
        np.testing.assert_allclose(op.matvec(images[:, 0]), expected[:, 0], rtol=0, atol=1e-13)


def test_ray_matrix_row_sums_are_ray_lengths():
    s, n_src, n_rec = 8, 8, 9
    mat = ray_matrix(s, n_src, n_rec)
    assert mat.shape == (72, 64)
    assert mat.min() >= 0.0
    sums = np.asarray(mat.sum(axis=1)).ravel()
    k = 0
    for si in range(n_src):
        ys = (si + 0.5) / n_src
        for rj in range(n_rec):
            yr = (rj + 0.5) / n_rec
            assert sums[k] == pytest.approx(np.hypot(1.0, yr - ys), abs=1e-12)
            k += 1


def test_ray_matrix_straight_horizontal_ray():
    # a source/receiver pair at the same height crosses every column once
    mat = ray_matrix(4, 2, 2).toarray()
    # source 0 at y=0.25, receiver 0 at y=0.25: horizontal ray of length 1
    row = mat[0]
    nonzero = row[row > 0.0]
    assert nonzero.size == 4
    assert np.allclose(nonzero, 0.25, atol=1e-12)


def test_superres_zero_shift_is_identity():
    s, d = 8, 2
    op = SuperresOp(s, d, [(0.0, 0.0), (0.0, 0.0)])
    x = phantom_image(s).ravel()
    out = op.matvec(x)
    cs2 = (s // d) ** 2
    blocks = out.reshape(3, cs2)
    assert np.allclose(blocks[0], blocks[1], atol=1e-14)
    assert np.allclose(blocks[0], blocks[2], atol=1e-14)


def test_superres_adjoint_identity():
    rng = stream(9, "sr-adj")
    op = SuperresOp(8, 2, [(0.13, -0.07)])
    x = rng.standard_normal(64)
    y = rng.standard_normal(op.m)
    assert np.dot(op.matvec(x), y) == pytest.approx(np.dot(x, op.rmatvec(y)), rel=1e-12)


def test_superres_affine_adjoint_identity():
    rng = stream(10, "sr-affine")
    op = SuperresOp(8, 2, [(0.1, -0.05, 0.02, -0.01, 0.015, -0.02)], affine=True)
    x = rng.standard_normal(64)
    y = rng.standard_normal(op.m)
    assert np.dot(op.matvec(x), y) == pytest.approx(np.dot(x, op.rmatvec(y)), rel=1e-12)


def test_superres_integer_shifts_match_slicing():
    s, d = 8, 2
    shifts = [(1, 0), (0, -2)]  # (tx, ty): frame pixel (r, c) samples x(r - ty, c - tx)
    op = SuperresOp(s, d, [(float(tx), float(ty)) for tx, ty in shifts])

    def block_mean(img):
        return img.reshape(s // d, d, s // d, d).mean(axis=(1, 3)).ravel()

    def observe(x):
        img = x.reshape(s, s)
        parts = [block_mean(img)]
        for tx, ty in shifts:
            moved = np.zeros_like(img)
            moved[max(ty, 0) : s + min(ty, 0), max(tx, 0) : s + min(tx, 0)] = img[
                max(-ty, 0) : s + min(-ty, 0), max(-tx, 0) : s + min(-tx, 0)
            ]
            parts.append(block_mean(moved))
        return np.concatenate(parts)

    images = stream(11, "sr-dense").standard_normal((s * s, 3))
    expected = np.column_stack([observe(x) for x in images.T])
    np.testing.assert_allclose(op.dense() @ images, expected, rtol=0, atol=1e-15)
    np.testing.assert_allclose(op.matmat(images), expected, rtol=0, atol=1e-15)


@pytest.mark.parametrize("affine", [False, True])
def test_superres_derivative_matches_operator_fd(affine):
    s, d = 8, 2
    if affine:
        params = np.array([0.11, -0.06, 0.03, -0.02, 0.01, 0.02])
    else:
        params = np.array([0.11, -0.06])
    n_par = params.size
    x = phantom_image(s).ravel()
    h = 1e-6
    for j in range(n_par):
        base = SuperresOp(s, d, [params], affine=affine)
        deriv = SuperresDerivOp(base, 0, j)
        ej = np.zeros(n_par)
        ej[j] = h
        op_plus = SuperresOp(s, d, [params + ej], affine=affine)
        op_minus = SuperresOp(s, d, [params - ej], affine=affine)
        fd = (op_plus.matvec(x) - op_minus.matvec(x)) / (2.0 * h)
        assert np.abs(deriv.matvec(x) - fd).max() <= 1e-6


def test_superres_problem_affine_parameter_count():
    problem = superres_problem(s=8, decim=2, frames=2, affine=True)
    assert problem.ell == 12
    assert problem.p == 12
    assert problem.theta_true.shape == (12,)


def test_superres_untouched_frame_derivative_is_zero():
    base = SuperresOp(8, 2, [(0.1, 0.0), (0.0, 0.1)])
    deriv = SuperresDerivOp(base, 1, 0)
    x = phantom_image(8).ravel()
    out = deriv.matvec(x)
    cs2 = 16
    assert np.allclose(out[:2 * cs2], 0.0)
    assert np.abs(out[2 * cs2 :]).max() > 0.0
