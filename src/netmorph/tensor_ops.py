"""Dense tensor kernels: multi-channel convolution, filter composition,
centered zero padding, the channel-identity filter, and the least-squares
factor solve.

Conventions used throughout the package:

* A filter is a rank-4 float64 array of shape (c_out, c_in, k, k) with a
  square, odd kernel.
* A blob is a rank-3 float64 array of shape (c, h, w).
* "Convolution" means cross-correlation (no kernel flip), the usual
  deep-learning orientation.  Filter composition below is defined with
  the matching orientation, so stacking two convolutions equals a single
  convolution with the composed filter, exactly when the first pads the
  input and the second pads nothing: only a zero-padded intermediate blob
  breaks the composition at the image border.

Every convolution runs through one kernel, ``conv_batch``, which takes
one of three routes by c_in, c_out and k alone.  A conv that at least
halves the channels (2*c_out <= c_in, k > 1) multiplies the filter's rows
with the raw input and folds the c_out-channel product into the output by
k*k shifted adds (``_fold``).  A balanced one (c_in < 2*c_out <
2*(k-1)*c_in) multiplies the filter's k*c_out rows with the input lowered
along kernel columns only (``_lowered``, c_in*k rows) and folds the k
planes of that product by whole output rows (``_row_fold``): its
k*(c_in + c_out) rows are fewer than the columns' c_in*k*k there.  Every
other conv multiplies the filter with the channel-major columns of the
input (``_columns``, c_in*k*k rows).  All of them read the window bounds
from one helper (``_spans``), and a negative pad there crops the input.
Filter composition is that kernel applied to the lower factor's input
channels as a batch, and the input gradient is that kernel applied with
the adjoint filter at pad k-1-pad, which crops when pad > k-1.

The least-squares factor solve (``lstsq_factor_step``) has one rule: when
either factor is 1x1 its system matrix is the fixed factor's channel
matrix, and otherwise the fixed factor's columns, transposed.  Either is
solved through its smaller Gram matrix by a blocked Cholesky factor when
that matrix is well conditioned (``_gram_factor``), and by the SVD-backed
``np.linalg.lstsq`` otherwise.  A conv system's Gram matrices, its A^T y
and its residual all come from the fixed factor itself, so its columns
are built only for that fallback.
"""

import functools

import numpy as np

from .errors import ShapeError, _index, _odd_kernel

__all__ = [
    "as_blob",
    "as_filter",
    "conv_mc",
    "conv_batch",
    "conv_filter_grad",
    "conv_input_grad",
    "compose_filters",
    "pad_filter",
    "lstsq_factor_step",
    "identity_filter",
]

# Smallest ratio lambda_min/mu of a Gram matrix, of a channel system or of
# conv columns alike, that the factor solve solves directly (see
# ``_gram_factor``).  Solving the normal equations costs about eps/GRAM_TAU
# ~ 2e-11 in relative accuracy, far inside the 1e-9 the dense-oracle tests
# allow and the 1e-8 morph tolerance; below it the solve falls back to lstsq.
GRAM_TAU = 1e-5


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
    _odd_kernel(k, "kernel size")
    if _index(pad, "pad") < 0:
        raise ShapeError("pad must be non-negative")
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    if oh <= 0 or ow <= 0:
        raise ShapeError(f"non-positive output size {oh}x{ow} for input {h}x{w}, kernel {k}, pad {pad}")
    return conv_batch(x[None], f, pad)[0]


@functools.cache
def _spans(size: int, k: int, pad: int) -> tuple:
    """The in-range part of each kernel offset of a k-wide conv at ``pad``
    along one axis of length ``size``, as a tuple of (u, out, inp): at
    offset u the outputs ``out`` read the inputs ``inp`` (two slices),
    output y reading input y + u - pad.  The rest of the output reads zero
    padding there, and offsets that reach no input are left out.  A
    negative pad crops -pad entries off both ends of the input."""
    n_out = size + 2 * pad - k + 1
    spans = []
    for u in range(k):
        o0, o1 = max(0, pad - u), min(n_out, size + pad - u)
        if o0 < o1:
            spans.append((u, slice(o0, o1), slice(o0 + u - pad, o1 + u - pad)))
    return tuple(spans)


def _columns(x, k: int, pad: int) -> np.ndarray:
    """Channel-major columns of the batch x: the (c*k*k, n*oh*ow) matrix of its
    zero-padded k x k windows, rows ordered like a filter's (c_in, k, k) axes.

    Each kernel offset copies the in-range part of x straight into its rows.
    A padded copy of x is never made: it would be one more input-sized
    allocation per call, and such copies stayed resident in the heap and
    raised peak memory.
    """
    n, c, h, w = x.shape
    if k == 1 and pad == 0:
        return x.transpose(1, 0, 2, 3).reshape(c, -1)  # a view when h = w = 1 or n = 1
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    cols = np.zeros((c, k, k, n, oh, ow))
    xt = x.transpose(1, 0, 2, 3)
    for u, oy, iy in _spans(h, k, pad):
        for v, ox, ix in _spans(w, k, pad):
            cols[:, u, v, :, oy, ox] = xt[:, :, iy, ix]
    return cols.reshape(c * k * k, -1)


def _fold(x, f, pad: int) -> np.ndarray:
    """The conv of the batch x with f as (c_out, n, oh, ow), by the adjoint of
    ``_columns``: one product of the filter's (c_out*k*k, c_in) rows with
    the raw input, then each kernel offset's plane of that product added,
    shifted, into the in-range part of the output."""
    n, c_in, h, w = x.shape
    c_out, k = f.shape[0], f.shape[2]
    rows = f.transpose(0, 2, 3, 1).reshape(c_out * k * k, c_in)
    prod = (rows @ x.transpose(1, 0, 2, 3).reshape(c_in, -1)).reshape(c_out, k, k, n, h, w)
    out = np.zeros((c_out, n, h + 2 * pad - k + 1, w + 2 * pad - k + 1))
    for u, oy, iy in _spans(h, k, pad):
        for v, ox, ix in _spans(w, k, pad):
            out[:, :, oy, ox] += prod[:, u, v, :, iy, ix]
    return out


def _lowered(x, k: int, pad: int) -> np.ndarray:
    """The batch x lowered along kernel columns only: the (c*k, h*n*ow)
    matrix whose row (c, v) holds, at column (y, b, x'), input row y of
    sample b read at x' + v - pad, zero where that falls in the padding.
    Rows are ordered like a filter's (c_in, k) axes, and one input row of
    the whole batch is a contiguous run of n*ow columns."""
    n, c, h, w = x.shape
    ow = w + 2 * pad - k + 1
    low = np.zeros((c, k, h, n, ow))
    xt = x.transpose(1, 2, 0, 3)
    for v, ox, ix in _spans(w, k, pad):
        low[:, v, :, :, ox] = xt[:, :, :, ix]
    return low.reshape(c * k, -1)


def _row_fold(x, f, pad: int) -> np.ndarray:
    """The conv of the batch x with f as (c_out, oh, n, ow), by folding
    kernel rows over ``_lowered``: one product of the filter's (k*c_out,
    c_in*k) rows with the lowered input gives one c_out-channel plane per
    kernel row u, and output row y adds input row y + u - pad of plane u.
    Rows of the batch are contiguous runs there, so each kernel row's add
    is one flat slice.  Padding rows are never built: an input row out of
    range adds nothing."""
    n, c_in, h, w = x.shape
    c_out, k = f.shape[0], f.shape[2]
    oh, ow = h + 2 * pad - k + 1, w + 2 * pad - k + 1
    run = n * ow
    rows = f.transpose(2, 0, 1, 3).reshape(k * c_out, c_in * k)
    prod = (rows @ _lowered(x, k, pad)).reshape(k, c_out, -1)
    out = np.zeros((c_out, oh * run))
    for u, oy, iy in _spans(h, k, pad):
        out[:, oy.start * run : oy.stop * run] += prod[u, :, iy.start * run : iy.stop * run]
    return out.reshape(c_out, oh, n, ow)


def conv_batch(x, f, pad: int) -> np.ndarray:
    """``conv_mc`` over a batch x of shape (n, c, h, w), without input checks;
    a negative pad crops x (``_spans``).  The result is a new array, never
    a view of x or f: ``ConvLayer.forward`` adds its bias into it in place.

    Three routes, chosen by c_in, c_out and k alone (see the module
    docstring).  A conv that at least halves the channels (2*c_out <= c_in,
    k > 1) is folded (``_fold``), a balanced one (c_in < 2*c_out <
    2*(k-1)*c_in) is row-folded (``_row_fold``), and every other conv is
    one matrix product of the filter with the channel-major columns of x
    (``_columns``); for a 1x1 kernel that is a plain matrix product over
    the channel axis.  Medians of 61 interleaved calls on one sample, in
    ms, on a 2-vCPU Xeon with 2 OpenBLAS threads, in one process:

    ==============================  =======  =====  ========  ==========
    conv (c_in->c_out, k, pad, hw)  columns  fold   row-fold  rule picks
    ==============================  =======  =====  ========  ==========
    48->32, 5, 2, 32x32             2.48     2.67   1.48      row-fold
    32->32, 5, 2, 32x32             1.75     2.66   1.26      row-fold
    32->64, 5, 2, 32x32             2.31     5.05   1.97      row-fold
    48->96, 3, 2, 32x32             1.64     3.47   1.81      columns
    32->128, 5, 2, 32x32            3.18     11.04  3.84      columns
    96->32, 3, 0, 34x34             1.96     1.16   1.28      fold
    32->4, 3, 1, 32x32              0.47     0.19   0.20      fold
    ==============================  =======  =====  ========  ==========
    """
    n, c_in, h, w = x.shape
    c_out, k = f.shape[0], f.shape[2]
    if k > 1 and 2 * c_out <= c_in:
        return _fold(x, f, pad).transpose(1, 0, 2, 3)
    if k > 1 and c_in < 2 * c_out < 2 * (k - 1) * c_in:
        return _row_fold(x, f, pad).transpose(2, 0, 1, 3)
    out = f.reshape(c_out, -1) @ _columns(x, k, pad)
    return out.reshape(c_out, n, h + 2 * pad - k + 1, w + 2 * pad - k + 1).transpose(1, 0, 2, 3)


def _adjoint(f) -> np.ndarray:
    """Channel-transposed, spatially flipped filter.  Composition reverses
    under it: adjoint(compose(a, b)) = compose(adjoint(b), adjoint(a))."""
    return f.transpose(1, 0, 2, 3)[:, :, ::-1, ::-1]


def conv_filter_grad(x, dy, k: int, pad: int) -> np.ndarray:
    """Gradient df of sum(dy * conv_batch(x, f, pad)) for a k x k filter f:
    dy's channel rows times the transposed columns of x."""
    c_out = dy.shape[1]
    df = dy.transpose(1, 0, 2, 3).reshape(c_out, -1) @ _columns(x, k, pad).T
    return df.reshape(c_out, x.shape[1], k, k)


def conv_input_grad(dy, f, pad: int) -> np.ndarray:
    """Gradient dx of sum(dy * conv_batch(x, f, pad)): ``conv_batch`` of dy
    with the adjoint filter at pad k-1-pad, which for pad > k-1 crops off
    the outputs of dy that read only zero padding."""
    return conv_batch(dy, _adjoint(f), f.shape[2] - 1 - pad)


def compose_filters(f_lo, f_hi) -> np.ndarray:
    """Compose two filters into the single filter equivalent to applying
    ``f_lo`` first and ``f_hi`` second.

    Result shape: (f_hi.c_out, f_lo.c_in, k1+k2-1, k1+k2-1).  Composition
    is itself a convolution: ``f_lo``'s input channels, taken as a batch,
    convolved with the spatially flipped ``f_hi`` padded by k2-1 (a full
    convolution).  With both kernels 1x1 this reduces to the matrix
    product f_hi @ f_lo over the channel axes.
    """
    f_lo = as_filter(f_lo)
    f_hi = as_filter(f_hi)
    c_mid, k2 = f_lo.shape[0], f_hi.shape[2]
    if f_hi.shape[1] != c_mid:
        raise ShapeError(f"channel mismatch: f_lo has {c_mid} outputs, f_hi expects {f_hi.shape[1]} inputs")
    return conv_batch(f_lo.transpose(1, 0, 2, 3), f_hi[:, :, ::-1, ::-1], k2 - 1).transpose(1, 0, 2, 3)


def _growth(k: int, k_target: int) -> int:
    """The width of the centred ring of zeros that grows kernel ``k`` to
    ``k_target``; a kernel never shrinks, and grows by an even amount."""
    if k_target < k:
        raise ShapeError(f"cannot shrink kernel {k} to {k_target}")
    if (k_target - k) % 2 != 0:
        raise ShapeError(f"kernel growth {k}->{k_target} is not symmetric (parity mismatch)")
    return (k_target - k) // 2


def pad_filter(g, k_target: int) -> np.ndarray:
    """Zero-pad a filter's kernel to ``k_target`` symmetrically.  A padded
    filter of more bytes than numpy can index raises ShapeError."""
    g = as_filter(g)
    m = _growth(g.shape[2], _index(k_target, "k_target"))
    if m == 0:
        return g.copy()
    if g.shape[0] * g.shape[1] * k_target**2 * g.itemsize > np.iinfo(np.intp).max:
        raise ShapeError(f"a {k_target}x{k_target} kernel of {g.shape[0]}x{g.shape[1]} channels is too large to index")
    return np.pad(g, ((0, 0), (0, 0), (m, m), (m, m)))


def identity_filter(c: int, k: int) -> np.ndarray:
    """Channel-identity filter: delta at the kernel center, per channel."""
    c, k = _index(c, "c", low=0), _index(k, "k", low=1)
    f = np.zeros((c, c, k, k))
    f[np.arange(c), np.arange(c), k // 2, k // 2] = 1.0
    return f


def lstsq_factor_step(g_tilde, fixed, solve_side: str):
    """Solve one factor of ``compose_filters(f_lo, f_hi) ~= g_tilde`` in the
    least-squares sense, with the other factor fixed.

    solve_side="upper": ``fixed`` is f_lo, the returned tensor is the
    minimizing f_hi.  solve_side="lower": ``fixed`` is f_hi, the returned
    tensor is the minimizing f_lo; it is the upper solve of the adjoint
    problem.  Rank-deficient systems yield the minimum-norm solution.

    After that step the fixed factor is f_lo (kf x kf), the free one k2 x k2,
    and the system matrix A (m x n) follows one rule.  When min(kf, k2) = 1,
    compose is f_hi's channel matrix times f_lo's at each kernel offset, so
    A is f_lo's (c_in*kf*kf x c_mid) channel matrix, and the right-hand
    sides are the target's output channels and, for kf = 1, its offsets.
    Per output channel the dense system repeats A k2*k2 times on its
    diagonal: the same solution, residual and numpy default cutoff.
    Otherwise A is the dense conv columns, and nothing the Gram route needs
    is built from them: A^T A (m >= n) comes from the fixed factor's channel
    autocorrelation (``_tall_gram``), A A^T from its channel products
    placed at each shift of the free kernel (``_wide_gram``), and A^T y
    from one conv of the fixed factor (``_columns_product``).  Both
    systems are solved by ``_gram_solve``, through the smaller Gram matrix:
    the normal equations (A^T A) x = A^T b when m >= n, else the
    minimum-norm x = A^T y with (A A^T) y = b.  That route is
    taken only when ``_gram_factor`` finds the Gram matrix well conditioned,
    and solves through its blocked Cholesky factor; rank-deficient or
    ill-conditioned systems fall back to the SVD-backed lstsq on A, which
    keeps the minimum-norm answer and is the one place conv columns are
    built.

    Returns (solved, residual) with residual = ||g_tilde - compose||_F.
    """
    g_tilde = as_filter(g_tilde)
    fixed = as_filter(fixed)
    c_out, c_in, kt, _ = g_tilde.shape
    if solve_side == "upper":
        if fixed.shape[1] != c_in:
            raise ShapeError(f"fixed lower factor has {fixed.shape[1]} input channels, target has {c_in}")
    elif solve_side == "lower":
        if fixed.shape[0] != c_out:
            raise ShapeError(f"fixed upper factor has {fixed.shape[0]} output channels, target has {c_out}")
        g_tilde, fixed = _adjoint(g_tilde), _adjoint(fixed)
    else:
        raise ValueError(f"solve_side must be 'lower' or 'upper', got {solve_side!r}")
    if fixed.shape[2] > kt:
        raise ShapeError(f"fixed kernel {fixed.shape[2]} exceeds target kernel {kt}")
    c_mid, kf = fixed.shape[0], fixed.shape[2]
    k2 = kt - kf + 1
    rows = g_tilde.shape[1] * (kt * kt if kf > 1 else 1)
    target = g_tilde.reshape(g_tilde.shape[0], rows, -1).transpose(1, 0, 2).reshape(rows, -1)
    if min(kf, k2) == 1:
        a_t = fixed.reshape(c_mid, -1).T
        tall = a_t.shape[0] >= a_t.shape[1]
        rcond = np.finfo(np.float64).eps * max(a_t.shape) * k2 * k2
        sol = _gram_solve(tall, lambda: a_t.T @ a_t if tall else a_t @ a_t.T, lambda y: a_t.T @ y, lambda: a_t, target, rcond)
        residual = float(np.linalg.norm(sol.T @ a_t.T - target.T))
        solved = sol.reshape(c_mid, -1, k2, k2).transpose(1, 0, 2, 3)
    else:
        # compose(f_lo, f_hi) is the flipped f_hi times the columns of f_lo's
        # input channels (see compose_filters): those columns, transposed, are
        # the system matrix, and one solve serves every output channel
        batch = fixed.transpose(1, 0, 2, 3)
        tall = rows >= c_mid * k2 * k2
        sol = _gram_solve(
            tall,
            lambda: (_tall_gram if tall else _wide_gram)(batch, k2),
            lambda y: _columns_product(batch, y, k2),
            lambda: _columns(batch, k2, k2 - 1).T,
            target,
            None,
        )
        solved = sol.T.reshape(-1, c_mid, k2, k2)[:, :, ::-1, ::-1]
        residual = float(np.linalg.norm(compose_filters(fixed, solved) - g_tilde))
    if solve_side == "lower":
        solved = _adjoint(solved)
    return np.ascontiguousarray(solved), residual


def _gram_solve(tall, make_gram, adjoint, system, b, rcond):
    """Least-squares x minimizing ||A x - b||: through the smaller Gram
    matrix ``make_gram()`` (A^T A when ``tall``, else A A^T) when
    ``_gram_factor`` factorizes it, else by lstsq on A = ``system()`` with
    cutoff ``rcond``.  ``adjoint(y)`` is A^T y: a tall system's right-hand
    side A^T b, taken before the Gram matrix is built, and a wide one's x =
    A^T y from (A A^T) y = b.  The factor is solved by two block
    substitutions; gram is dropped before lstsq builds A, and the caller
    takes the residual without A.
    """
    rhs = adjoint(b) if tall else b.copy()
    gram = make_gram()
    inv_blocks = _gram_factor(gram)
    x = None if inv_blocks is None else _cholesky_solve(gram, inv_blocks, rhs)
    del gram
    if x is None:
        x, *_ = np.linalg.lstsq(system(), b, rcond=rcond)
    elif not tall:
        x = adjoint(x)
    return x


def _columns_product(batch, y, k2: int) -> np.ndarray:
    """``_columns(batch, k2, k2 - 1) @ y`` without the columns, for y of
    shape (c_in*kt*kt, c_out).  Entry ((c, u, v), o) sums batch[n, c, y' +
    u - p, x' + v - p] * y[(n, y', x'), o] over (n, y', x'), p = k2 - 1:
    it is the conv at pad p of batch's channels, as c_in-channel blobs,
    with y's columns as (c_in, kt, kt) filters.  Of ``conv_batch``'s routes
    only the columns route (c_out >= (kt-1)*c_in) builds an array of the
    columns' size."""
    c_in, c_mid, k1 = batch.shape[0], batch.shape[1], batch.shape[2]
    kt = k1 + k2 - 1
    out = conv_batch(batch.transpose(1, 0, 2, 3), y.T.reshape(-1, c_in, kt, kt), k2 - 1)
    return out.transpose(0, 2, 3, 1).reshape(c_mid * k2 * k2, -1)


def _tall_gram(batch, k2: int) -> np.ndarray:
    """A^T A for the fully padded columns A^T = ``_columns(batch, k2, k2 - 1)``.

    Every window of a blob lies inside the padded blob, so entry
    ((c, u, v), (c', u', v')) depends only on the lag l = (u' - u, v' - v):
    it is the channel autocorrelation R[c, c', l] of the batch, summed over
    it, and zero beyond the lags d = min(k1, k2) - 1 that a k1 x k1 blob
    has.  Each lag is one product of the parts of the batch that overlap at
    it, written into every block at that lag.  Only half the lags are
    multiplied: the other half are R[c, c', -l] = R[c', c, l], written as
    the mirror blocks.  No array of all the lags is held: morph-chain's
    864x864 upper solve peaks at 7.08 MiB traced, against 10.49 MiB when R
    came from the 2400x432 columns of a filter-gradient product.
    """
    c, k1 = batch.shape[1], batch.shape[2]
    d = min(k1, k2) - 1
    f = batch.transpose(1, 0, 2, 3)
    gram = np.zeros((c, k2, k2, c, k2, k2))
    for ly in range(d + 1):
        for lx in range(-d if ly else 0, d + 1):
            x0, x1 = max(0, -lx), k1 - max(0, lx)
            lag = f[:, :, : k1 - ly, x0:x1].reshape(c, -1) @ f[:, :, ly:, x0 + lx : x1 + lx].reshape(c, -1).T
            for u in range(k2 - ly):
                for v in range(max(0, -lx), k2 - max(0, lx)):
                    gram[:, u, v, :, u + ly, v + lx] = lag
                    gram[:, u + ly, v + lx, :, u, v] = lag.T
    return gram.reshape(c * k2 * k2, -1)


def _wide_gram(batch, k2: int) -> np.ndarray:
    """A A^T for the fully padded columns A^T = ``_columns(batch, k2, k2 - 1)``.

    A's row (n, y, x) holds batch[n, c, y + u - p, x + v - p] at column
    (c, u, v), p = k2 - 1, zero outside the blob.  With B the (n*k1*k1, c)
    matrix of the batch and Q = B B^T, entry ((n, y, x), (n', y', x')) of
    A A^T is thus the sum of Q's entries ((n, y - s, x - t), (n', y' - s,
    x' - t)) over the k2*k2 shifts (s, t): Q placed at each shift of the
    kt x kt grid, in its rows and its columns alike.  On morph-chain's
    800x864 lower solve Q is a 288x96x288 product, against 800x864x800
    for A A^T from the columns.
    """
    n, c, k1 = batch.shape[0], batch.shape[1], batch.shape[2]
    kt = k1 + k2 - 1
    b = batch.transpose(0, 2, 3, 1).reshape(-1, c)
    q = (b @ b.T).reshape(n, k1, k1, n, k1, k1)
    gram = np.zeros((n, kt, kt, n, kt, kt))
    for u in range(k2):
        for v in range(k2):
            gram[:, u : u + k1, v : v + k1, :, u : u + k1, v : v + k1] += q
    return gram.reshape(n * kt * kt, -1)


# Column-block width of ``_cholesky``.  On a 2-vCPU Xeon with OpenBLAS,
# 32-wide blocks factorized morph-chain's 864x864 and 800x800 Gram matrices
# in 8.5 and 6.8 ms, 64-wide ones in 9.0 and 7.3 ms, and 128-wide ones
# updated right-looking in 12.2 and 10.3 ms; 32 was also fastest from 32x32
# to 256x256
_BLOCK = 32


def _cholesky(a):
    """Blocked Cholesky factorization a = L L^T, or None when a is not
    numerically positive definite.

    Left-looking: each column block of a is first updated by one product of
    the blocks of L to its left, then factorized.  L's rows below each
    diagonal block are written into a, and the inverses of L's diagonal
    blocks are returned, one per block; a's diagonal blocks and upper
    triangle are left as they were (of them, only the diagonal blocks are
    read), so a second factorization can run in the transpose.  numpy has no triangular solve, so each solve by a
    diagonal block is a product with its inverse.  The factorization needs
    no LAPACK buffer or second n x n array, as ``np.linalg.cholesky`` would.
    """
    n = a.shape[0]
    inv_blocks = []
    for j in range(0, n, _BLOCK):
        e = min(j + _BLOCK, n)
        update = a[j:, :j] @ a[j:e, :j].T
        try:
            inv_blocks.append(np.linalg.inv(np.linalg.cholesky(a[j:e, j:e] - update[: e - j])))
        except np.linalg.LinAlgError:
            return None
        a[e:, j:e] -= update[e - j :]
        a[e:, j:e] = a[e:, j:e] @ inv_blocks[-1].T
    return inv_blocks


def _cholesky_solve(l, inv_blocks, y):
    """x with L L^T x = y for the factor ``_cholesky`` left in l; y is
    overwritten with x.  Forward substitution by L, then back substitution
    by L^T, one block at a time."""
    n = l.shape[0]
    blocks = [(j, min(j + _BLOCK, n), inv) for j, inv in zip(range(0, n, _BLOCK), inv_blocks)]
    for j, e, inv in blocks:
        y[j:e] = inv @ y[j:e]
        y[e:] -= l[e:, j:e] @ y[j:e]
    for j, e, inv in reversed(blocks):
        y[j:e] = inv.T @ (y[j:e] - l[e:, j:e].T @ y[e:])
    return y


def _gram_factor(gram):
    """The Gram route's factor: ``_cholesky(gram)``, which leaves L in
    gram's lower triangle and returns the inverses of its diagonal blocks,
    when mu > 0 and gram - GRAM_TAU * mu * I is positive definite, i.e.
    lambda_min > GRAM_TAU * mu; else None, and the solve falls back to
    lstsq.

    mu = max(Rayleigh quotient after 30 power-iteration steps from the
    uniform vector, largest diagonal entry); both are lower bounds, so mu <=
    lambda_max (0.98 and 0.998 of it on morph-chain's 864x864 and 800x800
    systems).

    gram is factorized for the solve first, then its diagonal is shifted and
    ``_cholesky(gram.T)`` factorizes the shifted matrix in the upper
    triangle, which the first factorization left as it was and which the
    solve never reads.  Every Gram matrix the factor solve builds is exactly
    symmetric, so that triangle holds gram, and no second n x n array is
    made: a shifted copy, 5.7 MiB at 864x864, raises the traced peak of
    morph-chain's depth step from 7.26 to 12.57 MiB
    (``test_3x3_pair_peak_memory`` holds the lower peak).  An
    ill-conditioned matrix may pay for the solve's factorization before it
    fails the test.
    """
    n = gram.shape[0]
    x = np.full(n, n ** -0.5)
    for _ in range(30):
        y = gram @ x
        rayleigh = float(x @ y)
        norm = (y @ y) ** 0.5
        if not norm > 0:
            break
        x = y / norm
    mu = max(rayleigh, float(gram.diagonal().max()))
    if not mu > 0:  # also rejects NaN
        return None
    inv_blocks = _cholesky(gram)
    if inv_blocks is None:
        return None
    gram.flat[:: n + 1] -= GRAM_TAU * mu
    return inv_blocks if _cholesky(gram.T) is not None else None
