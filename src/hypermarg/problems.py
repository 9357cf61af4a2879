"""Desk-scale test problems: deblurring, ray tomography, super-resolution.

Each factory returns a fully wired :class:`~hypermarg.model.ProblemSpec` with
synthetic data drawn from the model itself at a known ``theta_true``, so
estimator output can be scored against ground truth.  All three fit the same
template — only which pieces depend on which hyperparameters changes:

==============  =======================  =========================  =========
problem         noise / prior (psi)      forward map (y)            p
==============  =======================  =========================  =========
deblur          R = psi1 I, Q = psi2 I   parametric PSF (3 params)  5
tomo            R = th1 I, Matern Q      fixed ray sums             3
superres        fixed R, fixed Q         per-frame shifts           2*frames
==============  =======================  =========================  =========

Every forward map is a :class:`~hypermarg.operators.SparseLinOp`: one CSR
matrix per value of the forward-map parameters y (PSF shape, frame warps), so the
solvers apply a whole probe block in one sparse product and the dense oracle
paths take ``dense()`` from the same matrix.
"""

import functools

import numpy as np
import scipy.sparse

from .kernels import matern_covariance, matern_dlengthscale, pairwise_distances
from .model import Box, CounterLedger, HyperPrior, ProblemSpec, synthesize_data
from .operators import (
    DenseSymOp,
    ScaledIdentityOp,
    SparseLinOp,
)
from .rng import stream

__all__ = [
    "phantom_image",
    "psf_stencil",
    "psf_stencil_derivative",
    "ConvolutionOp",
    "ray_matrix",
    "identity_problem",
    "deblur_problem",
    "tomo_problem",
    "superres_problem",
    "make_test_problem",
]


def phantom_image(s):
    """Smooth test image on an s x s grid, values O(1)."""
    u = (np.arange(s) + 0.5) / s
    uu, vv = np.meshgrid(u, u, indexing="ij")
    img = (
        1.2 * np.exp(-((uu - 0.35) ** 2 + (vv - 0.4) ** 2) / 0.03)
        + 0.8 * np.exp(-((uu - 0.72) ** 2 + (vv - 0.68) ** 2) / 0.015)
        + 0.45 * np.exp(-((uu - 0.25) ** 2 + (vv - 0.78) ** 2) / 0.02)
    )
    return img


# ---------------------------------------------------------------------------
# deblurring: parametric anisotropic Gaussian PSF
# ---------------------------------------------------------------------------


# The tap offsets (di, dj) of a PSF depend only on its halfwidth, so they are
# built once per halfwidth and shared read-only by every stencil and stencil
# derivative; the exact MM chain evaluates thousands of them.
@functools.lru_cache(maxsize=None)
def _psf_quadform_parts(halfwidth):
    off = np.arange(-halfwidth, halfwidth + 1).astype(float)
    di, dj = np.meshgrid(off, off, indexing="ij")
    for grid in (di, dj):
        grid.setflags(write=False)
    return di, dj


def _psf_weights(y, halfwidth):
    """The offset grids, the shear term l1 di + l2 dj and the PSF weights."""
    l1, l2, l3 = (float(v) for v in y)
    di, dj = _psf_quadform_parts(halfwidth)
    shear = l1 * di + l2 * dj
    return di, dj, shear, np.exp(-0.5 * (shear**2 + (l3 * dj) ** 2))


def psf_stencil(y, halfwidth=3):
    """PSF weights p(di, dj) = exp(-(1/2) [(l1 di + l2 dj)^2 + (l3 dj)^2]).

    Unnormalized — the center weight is always 1, so large l1, l3 collapse
    the stencil to the identity.
    """
    return _psf_weights(y, halfwidth)[3]


def psf_stencil_derivative(y, j, halfwidth=3):
    """d stencil / d y_j for j in {0: l1, 1: l2, 2: l3}."""
    if j not in (0, 1, 2):
        raise ValueError(f"PSF parameter index must be 0, 1 or 2, got {j}")
    di, dj, shear, p = _psf_weights(y, halfwidth)
    if j == 0:
        dquad = 2.0 * shear * di
    elif j == 1:
        dquad = 2.0 * shear * dj
    else:
        dquad = 2.0 * float(y[2]) * dj**2
    return -0.5 * dquad * p


class ConvolutionOp(SparseLinOp):
    """Zero-padded stencil correlation on s x s images (square, n = s^2).

    Forward: out(i,j) = sum_{di,dj} stencil(di,dj) x(i+di, j+dj).  All
    stencils of one (s, halfwidth) share one CSR structure, and with it the
    flat positions of its entries; a stencil only gathers its taps into the
    stored values.
    """

    def __init__(self, stencil, s, counter=None):
        stencil = np.asarray(stencil, dtype=float)
        if stencil.ndim != 2 or stencil.shape[0] != stencil.shape[1] or stencil.shape[0] % 2 == 0:
            raise ValueError("stencil must be square with odd side")
        n = int(s) ** 2
        indptr, indices, taps, flat = _convolution_pattern(int(s), stencil.shape[0] // 2)
        mat = scipy.sparse.csr_matrix((stencil.ravel()[taps], indices, indptr), shape=(n, n))
        super().__init__(mat, counter)
        self.flat_positions = flat


@functools.lru_cache(maxsize=None)
def _convolution_pattern(s, halfwidth):
    """CSR structure of an s x s stencil correlation, shared by all stencils.

    Returns ``(indptr, indices, taps, flat)``: the CSR row pointers and
    column indices of every in-range entry, for each stored entry the index
    of the stencil tap (row-major over the ``(2 halfwidth + 1)^2`` taps) that
    supplies its value, and its row-major position in the dense s^2 x s^2
    matrix.  Each entry has its own tap, and within a row the columns ascend
    with the tap index, so the structure is canonical.
    """
    side = 2 * halfwidth + 1
    off = np.arange(side) - halfwidth
    i, j = np.divmod(np.arange(s * s), s)
    rows = i[:, None, None] + off[None, :, None]
    cols = j[:, None, None] + off[None, None, :]
    valid = (rows >= 0) & (rows < s) & (cols >= 0) & (cols < s)
    columns = (rows * s + cols)[valid]
    indices = columns.astype(np.int32)
    taps = np.broadcast_to(np.arange(side * side).reshape(side, side), valid.shape)[valid]
    counts = valid.sum(axis=(1, 2))
    indptr = np.concatenate([[0], np.cumsum(counts)]).astype(np.int32)
    flat = np.repeat(np.arange(s * s) * (s * s), counts) + columns
    for arr in (indptr, indices, taps, flat):
        arr.setflags(write=False)
    return indptr, indices, taps, flat


def deblur_problem(
    s=16,
    noise_level=0.05,
    seed=0,
    halfwidth=3,
    box=None,
):
    """Image deblurring with unknown noise/prior variances and PSF shape.

    theta = (psi1, psi2, l1, l2, l3):  R = psi1 I,  Q = psi2 I,  A = A(l).
    """
    n = m = s * s
    x_true = phantom_image(s).ravel()
    y_true = np.array([1.0, 0.3, 0.8])

    ledger = CounterLedger()

    def make_a(y, counter=None):
        return ConvolutionOp(psf_stencil(y, halfwidth), s, counter)

    a_true = make_a(y_true)
    b, noise_var = synthesize_data(a_true, x_true, noise_level, seed)
    theta_true = np.concatenate([[noise_var, 1.0], y_true])

    if box is None:
        box = Box(
            lower=np.array([1e-6, 1e-2, 0.3, -1.0, 0.3]),
            upper=np.array([1.0, 10.0, 2.5, 1.0, 2.5]),
        )

    prior = HyperPrior(
        (("gamma", 1e-4), ("gamma", 1e-4), ("uniform",), ("uniform",), ("uniform",))
    )

    def a_builder(y):
        return make_a(y, ledger.a)

    def q_builder(psi):
        return ScaledIdentityOp(psi[1], n, ledger.q)

    def dq_dpsi2(psi):
        return ScaledIdentityOp(1.0, n)

    def make_da(j):
        def da(y):
            return ConvolutionOp(psf_stencil_derivative(y, j, halfwidth), s)

        return da

    return ProblemSpec(
        name="deblur",
        n=n,
        m=m,
        q_dim=2,
        ell=3,
        mu_x=np.zeros(n),
        b=b,
        box=box,
        prior=prior,
        a_builder=a_builder,
        q_builder=q_builder,
        da_builders=tuple(make_da(j) for j in range(3)),
        dq_builders=(None, dq_dpsi2),
        noise_index=0,
        x_true=x_true,
        theta_true=theta_true,
        counters=ledger,
        meta={"s": s, "halfwidth": halfwidth, "noise_level": noise_level, "seed": seed},
    )


# ---------------------------------------------------------------------------
# tomography: fixed straight rays through a unit-square pixel grid
# ---------------------------------------------------------------------------


def ray_matrix(s, n_src, n_rec):
    """Sparse ray-sum matrix: sources on the left edge, receivers on the right.

    Entry (ray, cell) is the length of the intersection of the straight ray
    with the cell, so each row sums to the total ray length.
    Cells are indexed ix * s + iy with center ((ix+0.5)/s, (iy+0.5)/s).
    """
    rows, cols, vals = [], [], []
    for si in range(n_src):
        ys = (si + 0.5) / n_src
        for rj in range(n_rec):
            yr = (rj + 0.5) / n_rec
            dy = yr - ys
            # ray point at parameter t: (t, ys + t * dy), t in [0, 1]
            crossings = {0.0, 1.0}
            crossings.update(i / s for i in range(1, s))
            if dy != 0.0:
                for j in range(1, s):
                    t = (j / s - ys) / dy
                    if 0.0 < t < 1.0:
                        crossings.add(t)
            ts = sorted(crossings)
            length = float(np.hypot(1.0, dy))
            ray = si * n_rec + rj
            for t0, t1 in zip(ts[:-1], ts[1:]):
                if t1 - t0 <= 1e-14:
                    continue
                tm = 0.5 * (t0 + t1)
                ix = min(int(tm * s), s - 1)
                iy = min(int((ys + tm * dy) * s), s - 1)
                rows.append(ray)
                cols.append(ix * s + iy)
                vals.append((t1 - t0) * length)
    return scipy.sparse.csr_matrix(
        (vals, (rows, cols)), shape=(n_src * n_rec, s * s)
    )


def tomo_problem(
    s=8,
    n_src=8,
    n_rec=9,
    noise_level=0.05,
    seed=0,
    nu=0.5,
    box=None,
):
    """Ray tomography with unknown noise variance and Matern prior parameters.

    theta = (th1, th2, th3):  R = th1 I,  Q = Matern(amplitude th2,
    lengthscale th3),  A fixed.  The ground-truth field is drawn from the
    Matern prior at (th2, th3)_true, and th1_true is the synthetic noise
    variance, so theta_true is exactly the parameter the model "should" find.
    """
    n = s * s
    m = n_src * n_rec
    amp_true, len_true = 0.8, 0.25

    centers = np.array([((i + 0.5) / s, (j + 0.5) / s) for i in range(s) for j in range(s)])
    dists = pairwise_distances(centers)

    cov_true = matern_covariance(dists, amp_true, len_true, nu)
    chol = np.linalg.cholesky(cov_true)
    x_true = chol @ stream(seed, "xtrue").standard_normal(n)

    ledger = CounterLedger()
    a_mat = ray_matrix(s, n_src, n_rec)
    a_quiet = SparseLinOp(a_mat)
    b, noise_var = synthesize_data(a_quiet, x_true, noise_level, seed)
    theta_true = np.array([noise_var, amp_true, len_true])

    if box is None:
        box = Box(
            lower=np.array([1e-5, 0.05, 0.05]),
            upper=np.array([1.0, 2.0, 1.0]),
        )

    a_shared = SparseLinOp(a_mat, ledger.a)

    def a_builder(y):
        return a_shared

    @functools.lru_cache(maxsize=1)
    def covariance(amplitude, lengthscale):
        # Q and dQ/dth2 at the same (th2, th3) read one kernel evaluation
        cov = matern_covariance(dists, amplitude, lengthscale, nu)
        cov.flags.writeable = False
        return cov

    def q_builder(psi):
        return DenseSymOp(covariance(psi[1], psi[2]), ledger.q)

    def dq_dth2(psi):
        # Q scales as th2^2 (jitter included), so dQ/dth2 = 2 Q / th2
        return DenseSymOp((2.0 / psi[1]) * covariance(psi[1], psi[2]))

    def dq_dth3(psi):
        return DenseSymOp(matern_dlengthscale(dists, psi[1], psi[2], nu))

    return ProblemSpec(
        name="tomo",
        n=n,
        m=m,
        q_dim=3,
        ell=0,
        mu_x=np.zeros(n),
        b=b,
        box=box,
        prior=HyperPrior.gamma(1e-4, 3),
        a_builder=a_builder,
        q_builder=q_builder,
        da_builders=(),
        dq_builders=(None, dq_dth2, dq_dth3),
        noise_index=0,
        x_true=x_true,
        theta_true=theta_true,
        counters=ledger,
        meta={
            "s": s,
            "n_src": n_src,
            "n_rec": n_rec,
            "nu": nu,
            "noise_level": noise_level,
            "seed": seed,
            "centers": centers,
        },
    )


# ---------------------------------------------------------------------------
# super-resolution: decimated, translated frames of one image
# ---------------------------------------------------------------------------


class _GatherTables:
    """Bilinear interpolation taps for fixed sample positions (zero outside).

    One entry per tap that falls inside the image: ``rows`` (output pixel),
    ``cols`` (source pixel), the weight ``w`` and its derivatives ``dw_r`` and
    ``dw_c`` in the sample position's row and column.
    """

    def __init__(self, pos_r, pos_c, s):
        pos_r, pos_c = pos_r.ravel(), pos_c.ravel()
        r0 = np.floor(pos_r).astype(int)
        c0 = np.floor(pos_c).astype(int)
        fr = pos_r - r0
        fc = pos_c - c0
        out = np.arange(s * s)
        rows, cols, w, dw_r, dw_c = [], [], [], [], []
        for a, (war, dwar) in enumerate(((1.0 - fr, -1.0), (fr, 1.0))):
            for b, (wbc, dwbc) in enumerate(((1.0 - fc, -1.0), (fc, 1.0))):
                src_r, src_c = r0 + a, c0 + b
                valid = (src_r >= 0) & (src_r < s) & (src_c >= 0) & (src_c < s)
                rows.append(out[valid])
                cols.append((src_r * s + src_c)[valid])
                w.append((war * wbc)[valid])
                dw_r.append((dwar * wbc)[valid])
                dw_c.append((war * dwbc)[valid])
        self.rows, self.cols, self.w, self.dw_r, self.dw_c = (
            np.concatenate(v) for v in (rows, cols, w, dw_r, dw_c)
        )


def _frame_positions(s, params, affine):
    """Sample-position fields (pos_r, pos_c) for one frame's warp.

    Translation: pos = pixel - (ty, tx).  Affine adds a linear distortion
    about the image center: pos = ctr + (I + A)(pixel - ctr) - (ty, tx) with
    params (tx, ty, a11, a12, a21, a22).
    """
    r = np.arange(s, dtype=float)
    rr, cc = np.meshgrid(r, r, indexing="ij")
    if not affine:
        tx, ty = params
        return rr - ty, cc - tx
    tx, ty, a11, a12, a21, a22 = params
    ctr = 0.5 * (s - 1)
    dr, dc = rr - ctr, cc - ctr
    pos_r = ctr + (1.0 + a11) * dr + a12 * dc - ty
    pos_c = ctr + a21 * dr + (1.0 + a22) * dc - tx
    return pos_r, pos_c


def _position_sensitivity(s, j_local, affine):
    """(d pos_r / d param, d pos_c / d param) fields for one frame parameter."""
    shape = (s, s)
    zeros = np.zeros(shape)
    if j_local == 0:  # tx
        return zeros, np.full(shape, -1.0)
    if j_local == 1:  # ty
        return np.full(shape, -1.0), zeros
    if not affine:
        raise ValueError("translation frames have two parameters")
    r = np.arange(s, dtype=float)
    rr, cc = np.meshgrid(r, r, indexing="ij")
    ctr = 0.5 * (s - 1)
    dr, dc = rr - ctr, cc - ctr
    if j_local == 2:  # a11
        return dr, zeros
    if j_local == 3:  # a12
        return dc, zeros
    if j_local == 4:  # a21
        return zeros, dr
    if j_local == 5:  # a22
        return zeros, dc
    raise ValueError(f"bad frame-parameter index {j_local}")


def _coarse_index(s, d, pixels):
    """Pixel of the image decimated by d that each fine pixel averages into."""
    r, c = np.divmod(pixels, s)
    return (r // d) * (s // d) + c // d


class SuperresOp(SparseLinOp):
    """Stacked observation operator [D; D S(t_1); ...; D S(t_F)].

    D is block-average decimation by factor d; S(t) is a zero-padded bilinear
    warp (pure translation by default, optionally affine).  S(0) = I exactly.
    Row k of D S(t) averages the taps of the d x d fine pixels of coarse
    pixel k, so the whole stack is one coordinate list whose repeated
    entries the CSR conversion sums.
    """

    def __init__(self, s, d, frame_params, affine=False, counter=None):
        if s % d != 0:
            raise ValueError("decimation must divide the image side")
        self.s, self.d = s, d
        self.affine = bool(affine)
        self.tables = [
            _GatherTables(*_frame_positions(s, np.asarray(p, dtype=float), self.affine), s)
            for p in frame_params
        ]
        cs2 = (s // d) ** 2
        pixels = np.arange(s * s)
        rows, cols, vals = [_coarse_index(s, d, pixels)], [pixels], [np.ones(s * s)]
        for f, tab in enumerate(self.tables, start=1):
            rows.append(f * cs2 + _coarse_index(s, d, tab.rows))
            cols.append(tab.cols)
            vals.append(tab.w)
        mat = scipy.sparse.csr_matrix(
            (np.concatenate(vals) / d**2, (np.concatenate(rows), np.concatenate(cols))),
            shape=((len(self.tables) + 1) * cs2, s * s),
        )
        super().__init__(mat, counter)


class SuperresDerivOp(SparseLinOp):
    """Derivative of :class:`SuperresOp` with respect to one warp parameter.

    Chain rule through the sample positions: in the owning frame's rows it is
    D (diag(d pos_r/d param) W_r + diag(d pos_c/d param) W_c), where W_r and
    W_c carry the derivatives of the bilinear weights in the sample row and
    column; all other rows are zero.  Only that frame's block is built, from
    ``base``'s gather tables.
    """

    def __init__(self, base, frame, j_local, counter=None):
        s, d = base.s, base.d
        tab = base.tables[frame]
        g_r, g_c = (f.ravel()[tab.rows] for f in _position_sensitivity(s, j_local, base.affine))
        rows = (frame + 1) * (s // d) ** 2 + _coarse_index(s, d, tab.rows)
        vals = (g_r * tab.dw_r + g_c * tab.dw_c) / d**2
        mat = scipy.sparse.csr_matrix((vals, (rows, tab.cols)), shape=base.shape)
        super().__init__(mat, counter)


def superres_problem(
    s=16,
    decim=2,
    frames=2,
    noise_level=0.05,
    seed=0,
    shift_max=0.2,
    prior_var=1.0,
    affine=False,
    box=None,
):
    """Multi-frame super-resolution with unknown inter-frame motion.

    theta stacks per-frame warp parameters — (tx, ty) per frame by default,
    (tx, ty, a11, a12, a21, a22) with ``affine=True``.  Q = prior_var * I and
    R (the true synthetic noise variance) are fixed, so only the forward map
    varies with theta.
    """
    n = s * s
    per_frame = 6 if affine else 2
    ell = per_frame * frames

    rng = stream(seed, "shifts")
    theta_true = 0.7 * shift_max * (2.0 * rng.random(ell) - 1.0)
    if affine:
        # keep linear-distortion entries an order smaller than the shifts
        for f in range(frames):
            theta_true[per_frame * f + 2 : per_frame * (f + 1)] *= 0.25

    x_true = phantom_image(s).ravel()
    ledger = CounterLedger()

    def make_a(y, counter=None):
        params = [y[per_frame * f : per_frame * (f + 1)] for f in range(frames)]
        return SuperresOp(s, decim, params, affine=affine, counter=counter)

    a_true = make_a(theta_true)
    b, noise_var = synthesize_data(a_true, x_true, noise_level, seed)
    m = a_true.m

    if box is None:
        bound = np.full(ell, shift_max)
        if affine:
            for f in range(frames):
                bound[per_frame * f + 2 : per_frame * (f + 1)] = 0.5 * shift_max
        box = Box(lower=-bound, upper=bound)

    # The forward map at the last y: the ell derivatives built at one y share
    # its gather tables instead of each building every frame again.
    last = {}

    def a_builder(y):
        key = np.asarray(y, dtype=float).tobytes()
        if key not in last:
            last.clear()
            last[key] = make_a(y, ledger.a)
        return last[key]

    def q_builder(psi):
        return ScaledIdentityOp(prior_var, n, ledger.q)

    def make_da(j):
        frame, j_local = divmod(j, per_frame)

        def da(y):
            return SuperresDerivOp(a_builder(y), frame, j_local)

        return da

    return ProblemSpec(
        name="superres",
        n=n,
        m=m,
        q_dim=0,
        ell=ell,
        mu_x=np.zeros(n),
        b=b,
        box=box,
        prior=HyperPrior.gaussian(0.0, 1.0, ell),
        a_builder=a_builder,
        q_builder=q_builder,
        da_builders=tuple(make_da(j) for j in range(ell)),
        dq_builders=(),
        noise_var=noise_var,
        x_true=x_true,
        theta_true=theta_true,
        counters=ledger,
        meta={
            "s": s,
            "decim": decim,
            "frames": frames,
            "affine": affine,
            "noise_level": noise_level,
            "seed": seed,
            "prior_var": prior_var,
            "noise_var": noise_var,
        },
    )


def identity_problem(m=64, noise_level=0.05, seed=0, box=None):
    """Direct observation of a white field with unknown noise variance.

    A = I, Q = I fixed, R = th1 I, so Psi = (1 + th1) I and the marginal
    objective has the closed-form minimizer th1* = ||b||^2/m - 1 (up to the
    weak gamma prior).  The synthesized data are rescaled so that equality
    ||b||^2/m = 1 + noise_var holds exactly, which puts the minimizer on
    top of theta_true: starting an optimizer there must terminate almost
    immediately.  The smallest smoke test for the optimize/report pipeline.
    """
    n = m
    x_true = stream(seed, "xtrue").standard_normal(n)

    ledger = CounterLedger()
    eye = scipy.sparse.identity(m, format="csr")
    a_quiet = SparseLinOp(eye)
    b, noise_var = synthesize_data(a_quiet, x_true, noise_level, seed)
    b *= np.sqrt((1.0 + noise_var) * m) / np.linalg.norm(b)
    theta_true = np.array([noise_var])

    if box is None:
        box = Box(lower=np.array([1e-6]), upper=np.array([1.0]))

    a_shared = SparseLinOp(eye, ledger.a)

    def a_builder(y):
        return a_shared

    def q_builder(psi):
        return ScaledIdentityOp(1.0, n, ledger.q)

    return ProblemSpec(
        name="identity",
        n=n,
        m=m,
        q_dim=1,
        ell=0,
        mu_x=np.zeros(n),
        b=b,
        box=box,
        prior=HyperPrior.gamma(1e-4, 1),
        a_builder=a_builder,
        q_builder=q_builder,
        da_builders=(),
        dq_builders=(None,),
        noise_index=0,
        x_true=x_true,
        theta_true=theta_true,
        counters=ledger,
        meta={"noise_level": noise_level, "seed": seed},
    )


def make_test_problem(kind, **kwargs):
    """Build one of the named desk-scale problems."""
    factories = {
        "identity": identity_problem,
        "deblur": deblur_problem,
        "tomo": tomo_problem,
        "superres": superres_problem,
    }
    if kind not in factories:
        raise ValueError(f"unknown problem kind {kind!r}; options: {sorted(factories)}")
    return factories[kind](**kwargs)
