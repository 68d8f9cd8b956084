"""Dense tensor kernels: multi-channel convolution, filter composition,
centered zero padding, and the least-squares factor solve.

Conventions used throughout the package:

* A filter is a rank-4 float64 array of shape (c_out, c_in, k, k) with a
  square, odd kernel.
* A blob is a rank-3 float64 array of shape (c, h, w).
* "Convolution" means cross-correlation (no kernel flip), the usual
  deep-learning orientation.  Filter composition below is defined with
  the matching orientation, so stacking two convolutions equals a single
  convolution with the composed filter (up to the image border).
"""

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import ShapeError

__all__ = [
    "as_blob",
    "as_filter",
    "conv_mc",
    "conv_batch",
    "conv_batch_grads",
    "compose_filters",
    "pad_filter",
    "crop_filter",
    "lstsq_factor_step",
    "identity_filter",
]


def as_blob(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"blob must be rank-3 (c, h, w), got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ShapeError("blob contains non-finite entries")
    return x


def as_filter(f) -> np.ndarray:
    f = np.asarray(f, dtype=np.float64)
    if f.ndim != 4:
        raise ShapeError(f"filter must be rank-4 (c_out, c_in, k, k), got shape {f.shape}")
    if f.shape[2] != f.shape[3]:
        raise ShapeError(f"filter kernel must be square, got {f.shape[2]}x{f.shape[3]}")
    if not np.all(np.isfinite(f)):
        raise ShapeError("filter contains non-finite entries")
    return f


def conv_mc(x, f, pad: int = 0) -> np.ndarray:
    """Multi-channel 2-D convolution (cross-correlation), stride 1.

    out[co, y, x] = sum_ci sum_{u,v} in[ci, y+u-pad, x+v-pad] * f[co, ci, u, v]
    with out-of-range input treated as zero.  Output spatial size is
    (h + 2*pad - k + 1, w + 2*pad - k + 1).  This is the checked
    single-blob entry to ``conv_batch``.
    """
    x = as_blob(x)
    f = as_filter(f)
    c, h, w = x.shape
    c_out, c_in, k, _ = f.shape
    if c_in != c:
        raise ShapeError(f"filter expects {c_in} input channels, blob has {c}")
    if k % 2 == 0:
        raise ShapeError(f"kernel size must be odd, got {k}")
    if pad < 0:
        raise ShapeError("pad must be non-negative")
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"non-positive output size {oh}x{ow} for input {h}x{w}, kernel {k}, pad {pad}")
    return conv_batch(x[None], f, pad)[0]


def _columns(x, k: int, pad: int) -> np.ndarray:
    """Channel-major columns of the batch x: the (c*k*k, n*oh*ow) matrix of its
    zero-padded k x k windows, rows ordered like a filter's (c_in, k, k) axes."""
    c = x.shape[1]
    if k == 1 and pad == 0:
        return x.transpose(1, 0, 2, 3).reshape(c, -1)  # a view when h = w = 1 or n = 1
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    win = sliding_window_view(xp, (k, k), axis=(2, 3))  # (n, c, oh, ow, k, k)
    return win.transpose(1, 4, 5, 0, 2, 3).reshape(c * k * k, -1)


def conv_batch(x, f, pad: int) -> np.ndarray:
    """``conv_mc`` over a batch x of shape (n, c, h, w), without input checks.

    One matrix product of the filter with the channel-major columns; for a
    1x1 kernel that is a plain matrix product over the channel axis.
    """
    n, _, h, w = x.shape
    c_out, k = f.shape[0], f.shape[2]
    out = f.reshape(c_out, -1) @ _columns(x, k, pad)
    return out.reshape(c_out, n, h + 2 * pad - k + 1, w + 2 * pad - k + 1).transpose(1, 0, 2, 3)


def conv_batch_grads(x, f, pad: int, dy):
    """Gradients (dx, df) of sum(dy * conv_batch(x, f, pad)), for pad <= k-1.

    dx is the adjoint convolution: ``conv_batch`` of dy with the filter
    flipped in space and transposed in channels, padded by k-1-pad.
    """
    c_out, k = f.shape[0], f.shape[2]
    df = dy.transpose(1, 0, 2, 3).reshape(c_out, -1) @ _columns(x, k, pad).T
    dx = conv_batch(dy, f[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), k - 1 - pad)
    return dx, df.reshape(f.shape)


def compose_filters(f_lo, f_hi) -> np.ndarray:
    """Compose two filters into the single filter equivalent to applying
    ``f_lo`` first and ``f_hi`` second.

    Result shape: (f_hi.c_out, f_lo.c_in, k1+k2-1, k1+k2-1).  With both
    kernels 1x1 this reduces to the matrix product f_hi @ f_lo over the
    channel axes.
    """
    f_lo = as_filter(f_lo)
    f_hi = as_filter(f_hi)
    c_mid, c_in, k1, _ = f_lo.shape
    c_out, c_mid2, k2, _ = f_hi.shape
    if c_mid2 != c_mid:
        raise ShapeError(f"channel mismatch: f_lo has {c_mid} outputs, f_hi expects {c_mid2} inputs")
    kc = k1 + k2 - 1
    out = np.zeros((c_out, c_in, kc, kc))
    for u1 in range(k2):
        for u2 in range(k2):
            # (c_out, c_mid) @ (c_mid, c_in*k1*k1)
            mix = f_hi[:, :, u1, u2] @ f_lo.reshape(c_mid, -1)
            out[:, :, u1 : u1 + k1, u2 : u2 + k1] += mix.reshape(c_out, c_in, k1, k1)
    return out


def pad_filter(g, k_target: int) -> np.ndarray:
    """Zero-pad a filter's kernel to ``k_target`` symmetrically."""
    g = as_filter(g)
    k = g.shape[2]
    if k_target < k:
        raise ShapeError(f"cannot shrink kernel {k} to {k_target}")
    if (k_target - k) % 2 != 0:
        raise ShapeError(f"kernel growth {k}->{k_target} is not symmetric (parity mismatch)")
    m = (k_target - k) // 2
    if m == 0:
        return g.copy()
    return np.pad(g, ((0, 0), (0, 0), (m, m), (m, m)))


def crop_filter(g, k_target: int) -> np.ndarray:
    """Centered crop of a filter's kernel to ``k_target`` (inverse of pad_filter)."""
    g = as_filter(g)
    k = g.shape[2]
    if k_target > k:
        raise ShapeError(f"cannot crop kernel {k} to larger {k_target}")
    if (k - k_target) % 2 != 0:
        raise ShapeError(f"kernel crop {k}->{k_target} parity mismatch")
    m = (k - k_target) // 2
    return g[:, :, m : k - m, m : k - m].copy()


def identity_filter(c: int, k: int) -> np.ndarray:
    """Channel-identity filter: delta at the kernel center, per channel."""
    f = np.zeros((c, c, k, k))
    f[np.arange(c), np.arange(c), k // 2, k // 2] = 1.0
    return f


def _upper_system_matrix(f_lo, k_tilde: int, k2: int) -> np.ndarray:
    """Matrix B with B @ vec(f_hi[c2]) = vec(compose(f_lo, f_hi)[c2]).

    Rows are indexed (c_in, s1, s2) row-major, columns (c_mid, u1, u2).
    The same matrix serves every output channel c2.
    """
    c_mid, c_in, k1, _ = f_lo.shape
    b = np.zeros((c_in, k_tilde, k_tilde, c_mid, k2, k2))
    lo_t = f_lo.transpose(1, 2, 3, 0)  # (c_in, k1, k1, c_mid)
    for u1 in range(k2):
        for u2 in range(k2):
            b[:, u1 : u1 + k1, u2 : u2 + k1, :, u1, u2] = lo_t
    return b.reshape(c_in * k_tilde * k_tilde, c_mid * k2 * k2)


def _lower_system_matrix(f_hi, k_tilde: int, k1: int) -> np.ndarray:
    """Matrix M with M @ vec(f_lo[:, c0]) = vec(compose(f_lo, f_hi)[:, c0]).

    Rows are indexed (c_out, s1, s2) row-major, columns (c_mid, v1, v2).
    The same matrix serves every input channel c0.
    """
    c_out, c_mid, k2, _ = f_hi.shape
    m = np.zeros((c_out, k_tilde, k_tilde, c_mid, k1, k1))
    hi_t = f_hi.transpose(0, 2, 3, 1)  # (c_out, k2, k2, c_mid)
    for v1 in range(k1):
        for v2 in range(k1):
            m[:, v1 : v1 + k2, v2 : v2 + k2, :, v1, v2] = hi_t
    return m.reshape(c_out * k_tilde * k_tilde, c_mid * k1 * k1)


def lstsq_factor_step(g_tilde, fixed, solve_side: str):
    """Solve one factor of ``compose_filters(f_lo, f_hi) ~= g_tilde`` in the
    least-squares sense, with the other factor fixed.

    solve_side="upper": ``fixed`` is f_lo, the returned tensor is the
    minimizing f_hi.  solve_side="lower": ``fixed`` is f_hi, the returned
    tensor is the minimizing f_lo.  Rank-deficient systems yield the
    minimum-norm solution (SVD-backed lstsq).

    Returns (solved, residual) with residual = ||g_tilde - compose||_F.
    """
    g_tilde = as_filter(g_tilde)
    fixed = as_filter(fixed)
    c_out, c_in, kt, _ = g_tilde.shape
    if solve_side == "upper":
        c_mid, c_in_f, k1, _ = fixed.shape
        if c_in_f != c_in:
            raise ShapeError(f"fixed lower factor has {c_in_f} input channels, target has {c_in}")
        k2 = kt - k1 + 1
        if k2 < 1:
            raise ShapeError(f"fixed kernel {k1} exceeds target kernel {kt}")
        bmat = _upper_system_matrix(fixed, kt, k2)
        rhs = g_tilde.reshape(c_out, -1).T  # (c_in*kt*kt, c_out)
        sol, *_ = np.linalg.lstsq(bmat, rhs, rcond=None)
        solved = sol.T.reshape(c_out, c_mid, k2, k2)
        f_lo, f_hi = fixed, solved
    elif solve_side == "lower":
        c_out_f, c_mid, k2, _ = fixed.shape
        if c_out_f != c_out:
            raise ShapeError(f"fixed upper factor has {c_out_f} output channels, target has {c_out}")
        k1 = kt - k2 + 1
        if k1 < 1:
            raise ShapeError(f"fixed kernel {k2} exceeds target kernel {kt}")
        mmat = _lower_system_matrix(fixed, kt, k1)
        rhs = g_tilde.transpose(0, 2, 3, 1).reshape(c_out * kt * kt, c_in)
        sol, *_ = np.linalg.lstsq(mmat, rhs, rcond=None)
        solved = sol.reshape(c_mid, k1, k1, c_in).transpose(0, 3, 1, 2).copy()
        f_lo, f_hi = solved, fixed
    else:
        raise ValueError(f"solve_side must be 'lower' or 'upper', got {solve_side!r}")
    residual = float(np.linalg.norm(g_tilde - compose_filters(f_lo, f_hi)))
    return solved, residual
