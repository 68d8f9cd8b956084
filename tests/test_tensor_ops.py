"""Numerical-kernel tests against brute-force reference implementations."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netmorph import (
    ShapeError,
    compose_filters,
    conv_mc,
    identity_filter,
    lstsq_factor_step,
    make_rng,
    pad_filter,
)
from netmorph import tensor_ops
from netmorph.tensor_ops import (
    GRAM_TAU,
    _cholesky,
    _cholesky_solve,
    _columns,
    _columns_product,
    _gram_factor,
    _tall_gram,
    _wide_gram,
    conv_batch,
    conv_input_grad,
)

from conftest import naive_compose, naive_conv, traced_peak


def _route_channels(route, c, extra, k):
    """(c_out, c_in) on ``route``'s side of ``conv_batch``'s rule for a k x k
    kernel: "fold" has 2*c_out <= c_in, "row-fold" c_in < 2*c_out <
    2*(k-1)*c_in, "columns" c_out >= (k-1)*c_in (c_in = c there).  A 1x1
    conv builds columns whatever its channels."""
    k = max(k, 3)
    if route == "fold":
        return c, 2 * c + extra
    if route == "row-fold":
        low = c // (k - 1) + 1
        return c, low + extra % (2 * c - low)
    return (k - 1) * c + extra, c


ROUTES = ("fold", "row-fold", "columns")


class TestConvMC:
    def test_scalar_scaling(self):
        x = np.ones((1, 4, 4))
        f = np.full((1, 1, 1, 1), 2.0)
        out = conv_mc(x, f, pad=0)
        assert out.shape == (1, 4, 4)
        assert np.array_equal(out, np.full((1, 4, 4), 2.0))

    def test_identity_filter_is_noop(self):
        rng = make_rng(0)
        x = rng.standard_normal((3, 5, 6))
        out = conv_mc(x, identity_filter(3, 1), pad=0)
        np.testing.assert_allclose(out, x, atol=0)

    def test_matches_naive_loop_small(self):
        rng = make_rng(7)
        x = rng.standard_normal((2, 5, 5))
        f = rng.standard_normal((3, 2, 3, 3))
        got = conv_mc(x, f, pad=1)
        want = naive_conv(x, f, pad=1)
        np.testing.assert_allclose(got, want, atol=1e-12)

    def test_matches_naive_loop_many_cases(self):
        rng = make_rng(42)
        for _ in range(200):
            c = int(rng.integers(1, 5))
            co = int(rng.integers(1, 5))
            k = int(rng.choice([1, 3, 5]))
            h = int(rng.integers(k, 9))
            w = int(rng.integers(k, 9))
            pad = int(rng.integers(0, (k - 1) // 2 + 1))
            x = rng.standard_normal((c, h, w))
            f = rng.standard_normal((co, c, k, k))
            np.testing.assert_allclose(conv_mc(x, f, pad), naive_conv(x, f, pad), atol=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ROUTES),
        st.integers(1, 3),
        st.integers(0, 2),
        st.sampled_from([1, 3, 5]),
        st.data(),
        st.sampled_from([0, 2, 3]),
        st.integers(1, 5),
        st.integers(1, 5),
        st.integers(0, 2**16),
    )
    def test_any_pad_and_size_matches_naive(self, route, c, extra, k, data, n, h, w, seed):
        # windows clipped on both sides: negative pads (a crop), pads beyond
        # k-1 and images smaller than the kernel, on every route of conv_batch;
        # an empty batch too
        pad = data.draw(st.integers(-2, k + 1))
        assume(min(h, w) + 2 * pad >= k)
        c_out, c_in = _route_channels(route, c, extra, k)
        rng = make_rng(seed)
        x = rng.standard_normal((n, c_in, h, w))
        f = rng.standard_normal((c_out, c_in, k, k))
        got = conv_batch(x, f, pad)
        assert got.shape == (n, c_out, h + 2 * pad - k + 1, w + 2 * pad - k + 1)
        crop = max(-pad, 0)
        for i in range(n):
            cropped = x[i][:, crop : h - crop, crop : w - crop]
            np.testing.assert_allclose(got[i], naive_conv(cropped, f, max(pad, 0)), atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            conv_mc(np.zeros((2, 4, 4)), np.zeros((1, 3, 1, 1)), pad=0)

    def test_nonpositive_output_raises(self):
        with pytest.raises(ShapeError):
            conv_mc(np.zeros((1, 2, 2)), np.zeros((1, 1, 5, 5)), pad=0)

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            conv_mc(np.zeros((1, 4, 4)), np.zeros((1, 1, 2, 2)), pad=0)

    def test_negative_pad_rejected(self):
        # a crop is conv_batch's own reading of a negative pad, not conv_mc's
        with pytest.raises(ShapeError, match="pad must be non-negative"):
            conv_mc(np.zeros((1, 6, 6)), np.zeros((1, 1, 3, 3)), pad=-1)


class TestConvRoutes:
    """``conv_batch`` folds a conv that at least halves the channels
    (2*c_out <= c_in, k > 1), row-folds a balanced one (c_in < 2*c_out <
    2*(k-1)*c_in) and builds columns for every other conv."""

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from(ROUTES),
        st.integers(1, 4),
        st.integers(0, 3),
        st.sampled_from([1, 3, 5]),
        st.data(),
        st.integers(1, 7),
        st.integers(0, 2**16),
    )
    def test_input_grad_is_the_adjoint(self, route, c, extra, k, data, side, seed):
        # <conv(x), dy> = <x, conv_input_grad(dy)>: the input gradient swaps
        # c_in and c_out, so it often takes another route than the conv
        pad = data.draw(st.integers(0, k + 1))
        assume(side + 2 * pad >= k)
        c_out, c_in = _route_channels(route, c, extra, k)
        rng = make_rng(seed)
        x = rng.standard_normal((2, c_in, side, side + 1))
        f = rng.standard_normal((c_out, c_in, k, k))
        y = conv_batch(x, f, pad)
        dy = rng.standard_normal(y.shape)
        dx = conv_input_grad(dy, f, pad)
        assert dx.shape == x.shape
        assert np.vdot(y, dy) == pytest.approx(np.vdot(x, dx), rel=1e-12, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 3),
        st.sampled_from([3, 5, 7]),
        st.integers(1, 4),
        st.integers(0, 3),
        st.data(),
        st.integers(0, 2**16),
    )
    def test_row_fold_matches_naive(self, n, k, c, extra, data, seed):
        # pads from -(k-1), a crop as conv_input_grad takes, to k+1, and
        # channel ratios inside the row-fold band, narrowing and widening;
        # an empty batch too
        pad = data.draw(st.integers(-(k - 1), k + 1))
        h, w = (max(1, k - 2 * pad) + data.draw(st.integers(0, 2)) for _ in range(2))
        c_out, c_in = _route_channels("row-fold", c, extra, k)
        rng = make_rng(seed)
        x = rng.standard_normal((n, c_in, h, w))
        f = rng.standard_normal((c_out, c_in, k, k))
        got = tensor_ops._row_fold(x, f, pad).transpose(2, 0, 1, 3)
        assert got.shape == (n, c_out, h + 2 * pad - k + 1, w + 2 * pad - k + 1)
        crop = max(-pad, 0)
        for i in range(n):
            cropped = x[i][:, crop : h - crop, crop : w - crop]
            np.testing.assert_allclose(got[i], naive_conv(cropped, f, max(pad, 0)), atol=1e-12)

    @pytest.mark.parametrize("c_out, c_in", [(1, 2), (2, 2), (2, 1)], ids=["fold", "row-fold", "columns"])
    def test_offsets_that_reach_no_input_are_skipped(self, c_out, c_in):
        # a 9x9 kernel at pad 4 on a 3x3 blob: at kernel rows 0, 1, 7 and 8
        # every output row reads zero padding
        rng = make_rng(9)
        x = rng.standard_normal((2, c_in, 3, 3))
        f = rng.standard_normal((c_out, c_in, 9, 9))
        got = conv_batch(x, f, 4)
        for i in range(2):
            np.testing.assert_allclose(got[i], naive_conv(x[i], f, 4), atol=1e-12)

    @pytest.mark.parametrize(
        "shape, route",
        [
            ((4, 32, 3, 3), "fold"),
            ((32, 96, 3, 3), "fold"),
            ((32, 48, 5, 5), "row-fold"),
            ((128, 32, 5, 5), "columns"),
            ((32, 32, 5, 5), "row-fold"),
            ((64, 32, 5, 5), "row-fold"),
            ((96, 48, 3, 3), "columns"),
        ],
    )
    def test_route_choice(self, shape, route, monkeypatch):
        # the subnet paths' 32->4 and the depth block's 96->32 fold; the
        # widened 48->32 5x5, a 32->32 and a 32->64 5x5 row-fold; the paper's
        # 32->128 5x5 and a 48->96 3x3, at the band's upper edge, build columns
        calls = []
        for name in ("_columns", "_lowered"):
            built = getattr(tensor_ops, name)

            def recording(x, k, pad, name=name, built=built):
                calls.append(name)
                return built(x, k, pad)

            monkeypatch.setattr(tensor_ops, name, recording)
        rng = make_rng(10)
        k = shape[2]
        x = rng.standard_normal((1, shape[1], 12, 12))
        f = rng.standard_normal(shape)
        conv_batch(x, f, k // 2)
        assert calls == {"fold": [], "row-fold": ["_lowered"], "columns": ["_columns"]}[route]

    @pytest.mark.parametrize("route, k", [("fold", 3), ("row-fold", 5), ("columns", 5), ("columns", 1)])
    @pytest.mark.parametrize("pad", [0, 1])
    def test_empty_batch(self, route, k, pad):
        c_out, c_in = _route_channels(route, 2, 1, k)
        f = make_rng(14).standard_normal((c_out, c_in, k, k))
        got = conv_batch(np.zeros((0, c_in, 8, 7)), f, pad)
        assert got.shape == (0, c_out, 9 + 2 * pad - k, 8 + 2 * pad - k)

    @pytest.mark.parametrize("route, k", [("fold", 3), ("row-fold", 5), ("columns", 5), ("columns", 1)])
    def test_output_is_a_fresh_array(self, route, k):
        # ConvLayer.forward adds its bias into conv_batch's output in place
        c_out, c_in = _route_channels(route, 2, 1, k)
        rng = make_rng(12)
        x = rng.standard_normal((1, c_in, 6, 6))
        f = rng.standard_normal((c_out, c_in, k, k))
        x0, f0 = x.copy(), f.copy()
        y = conv_batch(x, f, k // 2)
        assert not np.shares_memory(y, x) and not np.shares_memory(y, f)
        assert not np.shares_memory(y, conv_batch(x, f, k // 2))
        y += 1.0
        assert np.array_equal(x, x0) and np.array_equal(f, f0)

    def test_fold_peak_memory_below_columns(self):
        # morph-chain's (3:96)->(3:32) conv on a 96x34x34 blob: the fold's
        # product holds 32*9 planes (2.7 MB), the columns 96*9 (8.0 MB)
        rng = make_rng(11)
        x = rng.standard_normal((1, 96, 34, 34))
        f = rng.standard_normal((32, 96, 3, 3))
        fold_peak = traced_peak(lambda: conv_batch(x, f, 1))
        columns_peak = traced_peak(lambda: f.reshape(32, -1) @ _columns(x, 3, 1))
        assert fold_peak < columns_peak, f"{fold_peak / 2**20:.2f} vs {columns_peak / 2**20:.2f} MiB"

    def test_row_fold_peak_memory_below_columns(self):
        # morph-chain's widened 48->32 5x5 conv on a 48x32x32 blob: the
        # lowered input holds 48*5 rows (2.0 MB) and the product 32*5 planes
        # (1.3 MB), the columns 48*25 rows (9.8 MB)
        rng = make_rng(13)
        x = rng.standard_normal((1, 48, 32, 32))
        f = rng.standard_normal((32, 48, 5, 5))
        row_fold_peak = traced_peak(lambda: conv_batch(x, f, 2))
        columns_peak = traced_peak(lambda: f.reshape(32, -1) @ _columns(x, 5, 2))
        assert row_fold_peak < columns_peak, f"{row_fold_peak / 2**20:.2f} vs {columns_peak / 2**20:.2f} MiB"


class TestComposeFilters:
    def test_1x1_kernels_reduce_to_matrix_product(self):
        rng = make_rng(3)
        f_lo = rng.standard_normal((2, 3, 1, 1))
        f_hi = rng.standard_normal((4, 2, 1, 1))
        got = compose_filters(f_lo, f_hi)
        want = (f_hi[:, :, 0, 0] @ f_lo[:, :, 0, 0]).reshape(4, 3, 1, 1)
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_identity_upper_factor_is_noop(self):
        rng = make_rng(4)
        f_lo = rng.standard_normal((2, 3, 3, 3))
        got = compose_filters(f_lo, identity_filter(2, 1))
        np.testing.assert_allclose(got, f_lo, atol=0)

    def test_matches_naive_loop(self):
        rng = make_rng(5)
        f_lo = rng.standard_normal((2, 2, 3, 3))
        f_hi = rng.standard_normal((2, 2, 3, 3))
        got = compose_filters(f_lo, f_hi)
        assert got.shape == (2, 2, 5, 5)
        np.testing.assert_allclose(got, naive_compose(f_lo, f_hi), atol=1e-12)

    def test_channel_mismatch_raises(self):
        with pytest.raises(ShapeError):
            compose_filters(np.zeros((2, 3, 1, 1)), np.zeros((4, 3, 1, 1)))

    def test_stacked_convs_equal_composed_filter_on_interior(self):
        rng = make_rng(6)
        x = rng.standard_normal((2, 10, 10))
        f_lo = rng.standard_normal((3, 2, 3, 3))
        f_hi = rng.standard_normal((2, 3, 3, 3))
        stacked = conv_mc(conv_mc(x, f_lo, pad=1), f_hi, pad=1)
        direct = conv_mc(x, compose_filters(f_lo, f_hi), pad=2)
        border = (3 + 3 - 2) // 2
        np.testing.assert_allclose(
            stacked[:, border:-border, border:-border],
            direct[:, border:-border, border:-border],
            atol=1e-10,
        )


class TestPadCropFilter:
    def test_scalar_pad_to_3(self):
        g = np.full((1, 1, 1, 1), 5.0)
        got = pad_filter(g, 3)
        want = np.zeros((1, 1, 3, 3))
        want[0, 0, 1, 1] = 5.0
        assert np.array_equal(got, want)

    def test_same_size_is_identity(self):
        rng = make_rng(8)
        g = rng.standard_normal((2, 2, 3, 3))
        assert np.array_equal(pad_filter(g, 3), g)

    def test_shrink_request_raises(self):
        with pytest.raises(ShapeError):
            pad_filter(np.zeros((1, 1, 3, 3)), 1)

    def test_parity_violation_raises(self):
        with pytest.raises(ShapeError):
            pad_filter(np.zeros((1, 1, 3, 3)), 4)

    def test_unindexable_filter_raises(self):
        # 4*3*(10^9+1)^2 float64 entries are more bytes than numpy can index
        with pytest.raises(ShapeError, match="too large to index"):
            pad_filter(np.zeros((4, 3, 3, 3)), 1000000001)


@pytest.mark.parametrize(
    "call",
    [
        lambda: conv_mc(np.zeros((1, 4, 4)), np.zeros((1, 1, 3, 3)), pad=1.0),
        lambda: pad_filter(np.zeros((1, 1, 3, 3)), 5.0),
        lambda: identity_filter(2.0, 3),
        lambda: identity_filter(2, 3.0),
    ],
    ids=["conv_mc-pad", "pad_filter-k_target", "identity_filter-c", "identity_filter-k"],
)
def test_float_size_rejected(call):
    # a float such as 5.0 is not an integer, although it names one exactly
    with pytest.raises(ShapeError, match="must be an integer"):
        call()


class TestLstsqFactorStep:
    def test_factorable_target_upper(self):
        rng = make_rng(10)
        a = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal((4, 3, 3, 3))
        g = compose_filters(a, b)
        solved, res = lstsq_factor_step(g, a, "upper")
        assert solved.shape == b.shape
        assert res <= 1e-9 * np.linalg.norm(g)

    def test_factorable_target_lower(self):
        rng = make_rng(11)
        a = rng.standard_normal((3, 2, 3, 3))
        b = rng.standard_normal((4, 3, 3, 3))
        g = compose_filters(a, b)
        solved, res = lstsq_factor_step(g, b, "lower")
        assert solved.shape == a.shape
        assert res <= 1e-9 * np.linalg.norm(g)

    def test_identity_fixed_factor_returns_target(self):
        rng = make_rng(12)
        g = rng.standard_normal((3, 2, 3, 3))
        solved, res = lstsq_factor_step(g, identity_filter(2, 1), "upper")
        np.testing.assert_allclose(solved, g, atol=1e-12)
        assert res <= 1e-12

    def test_overdetermined_residual_matches_dense_oracle(self):
        # Free factor much smaller than the target: the reported residual
        # must equal an independent dense least-squares solve.
        rng = make_rng(13)
        g = rng.standard_normal((4, 3, 3, 3))
        f_lo = rng.standard_normal((1, 3, 3, 3))  # c_mid=1 bottleneck
        solved, res = lstsq_factor_step(g, f_lo, "upper")
        assert res > 1e-3

        # dense oracle: build the full linear map column by column
        n_unknown = solved.size
        cols = []
        for j in range(n_unknown):
            e = np.zeros(n_unknown)
            e[j] = 1.0
            cols.append(compose_filters(f_lo, e.reshape(solved.shape)).reshape(-1))
        amat = np.stack(cols, axis=1)
        sol, *_ = np.linalg.lstsq(amat, g.reshape(-1), rcond=None)
        oracle_res = float(np.linalg.norm(g.reshape(-1) - amat @ sol))
        assert abs(res - oracle_res) <= 1e-9

    def test_monotone_descent(self):
        rng = make_rng(14)
        g = rng.standard_normal((3, 2, 5, 5))
        f_lo = rng.standard_normal((2, 2, 3, 3))
        f_hi = rng.standard_normal((3, 2, 3, 3))
        before = np.linalg.norm(g - compose_filters(f_lo, f_hi))
        f_hi, res1 = lstsq_factor_step(g, f_lo, "upper")
        assert res1 <= before + 1e-12
        _, res2 = lstsq_factor_step(g, f_hi, "lower")
        assert res2 <= res1 + 1e-12

    def test_shape_inconsistency_raises(self):
        with pytest.raises(ShapeError):
            lstsq_factor_step(np.zeros((2, 3, 3, 3)), np.zeros((2, 4, 1, 1)), "upper")

    def test_lower_shape_inconsistency_raises(self):
        with pytest.raises(ShapeError, match="fixed upper factor has 3 output channels, target has 2"):
            lstsq_factor_step(np.zeros((2, 3, 3, 3)), np.zeros((3, 4, 1, 1)), "lower")

    @pytest.mark.parametrize("solve_side", ["upper", "lower"])
    def test_fixed_kernel_above_target_raises(self, solve_side):
        with pytest.raises(ShapeError, match="fixed kernel 5 exceeds target kernel 3"):
            lstsq_factor_step(np.zeros((2, 2, 3, 3)), np.zeros((2, 2, 5, 5)), solve_side)

    def test_bad_side_raises(self):
        with pytest.raises(ValueError):
            lstsq_factor_step(np.zeros((1, 1, 1, 1)), np.zeros((1, 1, 1, 1)), "sideways")


@st.composite
def factor_shapes(draw, kernels=(1, 3)):
    """(c_in, c_mid, c_out, k1, k2, seed); c_mid=1 is a bottleneck and a
    kernel of 1 gives a 1x1 factor on that side."""
    channels = st.integers(1, 3)
    kernel = st.sampled_from(kernels)
    return (draw(channels), draw(channels), draw(channels), draw(kernel), draw(kernel), draw(st.integers(0, 2**16)))


def _dense_solve(g, fixed, solve_side, free_shape):
    """Minimum-norm solution and residual of the least-squares problem over
    the dense linear map from the free factor to ``naive_compose``, built
    one unit vector at a time."""
    n = int(np.prod(free_shape))
    cols = []
    for j in range(n):
        free = np.eye(n)[j].reshape(free_shape)
        pair = (fixed, free) if solve_side == "upper" else (free, fixed)
        cols.append(naive_compose(*pair).reshape(-1))
    amat = np.stack(cols, axis=1)
    sol, *_ = np.linalg.lstsq(amat, g.reshape(-1), rcond=None)
    return sol.reshape(free_shape), float(np.linalg.norm(g.reshape(-1) - amat @ sol))


class TestFactorSolveProperties:
    @settings(max_examples=40, deadline=None)
    @given(factor_shapes(kernels=(1, 3, 5)))
    def test_compose_matches_naive(self, shape):
        c_in, c_mid, c_out, k1, k2, seed = shape
        rng = make_rng(seed)
        f_lo = rng.standard_normal((c_mid, c_in, k1, k1))
        f_hi = rng.standard_normal((c_out, c_mid, k2, k2))
        np.testing.assert_allclose(compose_filters(f_lo, f_hi), naive_compose(f_lo, f_hi), rtol=0, atol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(factor_shapes(), st.sampled_from(["upper", "lower"]))
    def test_factor_step_matches_dense_oracle(self, shape, solve_side):
        c_in, c_mid, c_out, k1, k2, seed = shape
        rng = make_rng(seed)
        f_lo_shape, f_hi_shape = (c_mid, c_in, k1, k1), (c_out, c_mid, k2, k2)
        g = rng.standard_normal((c_out, c_in, k1 + k2 - 1, k1 + k2 - 1))
        fixed_shape, free_shape = (f_lo_shape, f_hi_shape) if solve_side == "upper" else (f_hi_shape, f_lo_shape)
        fixed = rng.standard_normal(fixed_shape)
        solved, res = lstsq_factor_step(g, fixed, solve_side)
        want, want_res = _dense_solve(g, fixed, solve_side, free_shape)
        assert solved.shape == free_shape
        np.testing.assert_allclose(solved, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert abs(res - want_res) <= 1e-9 * max(1.0, np.linalg.norm(g))

    @settings(max_examples=60, deadline=None)
    @given(factor_shapes(), st.sampled_from([1, 3, 5]), st.sampled_from(["upper", "lower"]), st.booleans())
    def test_1x1_fixed_factor_matches_dense_oracle(self, shape, kt, solve_side, rank_one):
        # the channel-system solve must keep the dense solve's minimum-norm
        # answer, also when the fixed channel matrix is rank-deficient
        c_in, c_mid, c_out, _, _, seed = shape
        if rank_one:
            c_mid = max(c_mid, 2)
        rng = make_rng(seed)
        if solve_side == "upper":
            fixed_rows, fixed_cols, free_shape = c_mid, c_in, (c_out, c_mid, kt, kt)
        else:
            fixed_rows, fixed_cols, free_shape = c_out, c_mid, (c_mid, c_in, kt, kt)
        if rank_one:
            channels = np.outer(rng.standard_normal(fixed_rows), rng.standard_normal(fixed_cols))
        else:
            channels = rng.standard_normal((fixed_rows, fixed_cols))
        fixed = channels[:, :, None, None]
        g = rng.standard_normal((c_out, c_in, kt, kt))
        solved, res = lstsq_factor_step(g, fixed, solve_side)
        want, want_res = _dense_solve(g, fixed, solve_side, free_shape)
        assert solved.shape == free_shape
        np.testing.assert_allclose(solved, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert abs(res - want_res) <= 1e-9 * max(1.0, np.linalg.norm(g))

    @settings(max_examples=60, deadline=None)
    @given(factor_shapes(), st.sampled_from(["upper", "lower"]), st.sampled_from(["rank_one", "scaled", "zero"]))
    def test_degenerate_3x3_fixed_factor_matches_dense_oracle(self, shape, solve_side, kind):
        # a 3x3 fixed factor whose Gram matrix is singular or ill-conditioned
        # must take the lstsq fallback and keep the minimum-norm answer
        c_in, c_mid, c_out, _, k_free, seed = shape
        c_mid = max(c_mid, 2)
        rng = make_rng(seed)
        if solve_side == "upper":
            fixed_shape, free_shape = (c_mid, c_in, 3, 3), (c_out, c_mid, k_free, k_free)
        else:
            fixed_shape, free_shape = (c_out, c_mid, 3, 3), (c_mid, c_in, k_free, k_free)
        if kind == "rank_one":
            channels = np.outer(rng.standard_normal(fixed_shape[0]), rng.standard_normal(fixed_shape[1]))
            fixed = channels[:, :, None, None] * rng.standard_normal((3, 3))
        elif kind == "scaled":
            fixed = rng.standard_normal(fixed_shape)
            mid_channel = (0,) if solve_side == "upper" else (slice(None), 0)
            fixed[mid_channel] *= 1e-3
        else:
            fixed = np.zeros(fixed_shape)
        kt = k_free + 2
        g = rng.standard_normal((c_out, c_in, kt, kt))
        solved, res = lstsq_factor_step(g, fixed, solve_side)
        want, want_res = _dense_solve(g, fixed, solve_side, free_shape)
        assert solved.shape == free_shape
        np.testing.assert_allclose(solved, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert abs(res - want_res) <= 1e-9 * max(1.0, np.linalg.norm(g))
        if kind == "zero":
            assert not solved.any() and res == pytest.approx(np.linalg.norm(g), rel=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(factor_shapes(), st.sampled_from([1, 3, 5]), st.sampled_from(["upper", "lower"]), st.sampled_from(["scaled", "zero"]))
    def test_degenerate_1x1_fixed_factor_matches_dense_oracle(self, shape, kt, solve_side, kind):
        # a 1x1 fixed factor whose channel Gram matrix has lambda_min/lambda_max
        # below GRAM_TAU, or is zero, must take the lstsq fallback and keep
        # the minimum-norm answer
        c_in, c_mid, c_out, _, _, seed = shape
        rng = make_rng(seed)
        if solve_side == "upper":
            c_mid, c_in = max(c_mid, 2), max(c_in, 2)
            fixed_shape, free_shape = (c_mid, c_in), (c_out, c_mid, kt, kt)
        else:
            c_out, c_mid = max(c_out, 2), max(c_mid, 2)
            fixed_shape, free_shape = (c_out, c_mid), (c_mid, c_in, kt, kt)
        if kind == "scaled":
            u, s, vt = np.linalg.svd(rng.standard_normal(fixed_shape), full_matrices=False)
            s[-1] = s[0] * (GRAM_TAU / 10) ** 0.5
            channels = (u * s) @ vt
        else:
            channels = np.zeros(fixed_shape)
        fixed = channels[:, :, None, None]
        g = rng.standard_normal((c_out, c_in, kt, kt))
        calls = []
        lstsq = np.linalg.lstsq

        def recording_lstsq(a, b, *args, **kwargs):
            calls.append(np.shape(a))
            return lstsq(a, b, *args, **kwargs)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(np.linalg, "lstsq", recording_lstsq)
            solved, res = lstsq_factor_step(g, fixed, solve_side)
        assert calls
        want, want_res = _dense_solve(g, fixed, solve_side, free_shape)
        assert solved.shape == free_shape
        np.testing.assert_allclose(solved, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert abs(res - want_res) <= 1e-9 * max(1.0, np.linalg.norm(g))
        if kind == "zero":
            assert not solved.any() and res == pytest.approx(np.linalg.norm(g), rel=1e-12)

    @pytest.mark.parametrize("solve_side", ["upper", "lower"])
    @pytest.mark.parametrize("fixed_kernel, free_kernel", [(1, 3), (3, 1)], ids=["fixed-1x1", "free-1x1"])
    def test_1x1_side_builds_no_columns(self, solve_side, fixed_kernel, free_kernel, monkeypatch):
        # a factor system with a 1x1 side, fixed or free, is one channel
        # system: no conv columns are built for it
        calls = []
        columns = tensor_ops._columns

        def recording_columns(x, k, pad):
            calls.append((x.shape, k, pad))
            return columns(x, k, pad)

        monkeypatch.setattr(tensor_ops, "_columns", recording_columns)
        c_in, c_mid, c_out = 3, 4, 5
        rng = make_rng(22)
        if solve_side == "upper":
            fixed_shape, free_shape = (c_mid, c_in, fixed_kernel, fixed_kernel), (c_out, c_mid, free_kernel, free_kernel)
        else:
            fixed_shape, free_shape = (c_out, c_mid, fixed_kernel, fixed_kernel), (c_mid, c_in, free_kernel, free_kernel)
        kt = fixed_kernel + free_kernel - 1
        g = rng.standard_normal((c_out, c_in, kt, kt))
        fixed = rng.standard_normal(fixed_shape)
        solved, res = lstsq_factor_step(g, fixed, solve_side)
        assert calls == []
        want, want_res = _dense_solve(g, fixed, solve_side, free_shape)
        assert solved.shape == free_shape
        np.testing.assert_allclose(solved, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
        assert abs(res - want_res) <= 1e-9 * max(1.0, np.linalg.norm(g))

    def test_conv_system_is_never_built(self, monkeypatch):
        # morph-chain's depth step, (32,48,5,5) -> (3:96)(3:32): the upper
        # 3x3 solve's system A is tall (1200x864), the lower one's wide
        # (800x864).  Neither solve builds an array of a quarter of A's size:
        # its Gram matrix and A^T y come from the fixed factor (A^T y
        # row-folds over a fifth of it), and the residual is a conv of its
        # channels
        sizes = []
        for name in ("_columns", "_lowered"):

            def recording(x, k, pad, build=getattr(tensor_ops, name)):
                out = build(x, k, pad)
                sizes.append(out.size)
                return out

            monkeypatch.setattr(tensor_ops, name, recording)
        c_in, c_mid, c_out = 48, 96, 32
        rng = make_rng(23)
        g = rng.standard_normal((c_out, c_in, 5, 5))
        fixed = {"upper": rng.standard_normal((c_mid, c_in, 3, 3)), "lower": rng.standard_normal((c_out, c_mid, 3, 3))}
        for solve_side in ("upper", "lower"):
            sizes.clear()
            solved, res = lstsq_factor_step(g, fixed[solve_side], solve_side)
            # the lower solve is the upper solve of the adjoint problem
            g_up, f_up = g, fixed[solve_side]
            if solve_side == "lower":
                g_up, f_up = tensor_ops._adjoint(g), tensor_ops._adjoint(f_up)
            n_in, n_out = g_up.shape[1], g_up.shape[0]
            # _dense_solve's naive compose is far too slow for 27,648 unknowns;
            # every output channel solves one dense system, built here by
            # placing the fixed factor at each offset of the free kernel
            a = np.zeros((n_in, 5, 5, c_mid, 3, 3))
            for u in range(3):
                for v in range(3):
                    a[:, u : u + 3, v : v + 3, :, u, v] = f_up.transpose(1, 2, 3, 0)
            a = a.reshape(n_in * 25, -1)
            assert max(sizes, default=0) < a.size // 4, (solve_side, a.shape, sizes)
            b = g_up.reshape(n_out, -1).T
            want, *_ = np.linalg.lstsq(a, b, rcond=None)
            want_res = float(np.linalg.norm(b - a @ want))
            want = want.T.reshape(n_out, c_mid, 3, 3)
            if solve_side == "lower":
                want = tensor_ops._adjoint(want)
            np.testing.assert_allclose(solved, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
            assert abs(res - want_res) <= 1e-9 * max(1.0, np.linalg.norm(g))


@st.composite
def gram_matrices(draw, n=None, kinds=("spread", "singular", "zero")):
    """A symmetric Q diag(lambda) Q^T, n x n or up to 300x300 so that
    several Cholesky column blocks run.  "spread" draws the ratio
    lambda_min/lambda_max log-uniformly from [1e-12, 1] or from a decade on
    either side of the band [GRAM_TAU/2, 2*GRAM_TAU], where the verdict may
    go either way; "singular" zeroes some eigenvalues, and "zero" is the
    all-zero matrix."""
    kind = draw(st.sampled_from([k for k in kinds if n != 1 or k != "singular"]))
    if n is None:
        n = draw(st.integers(2 if kind == "singular" else 1, 300))
    if kind == "zero":
        return np.zeros((n, n))
    rng = make_rng(draw(st.integers(0, 2**16)))
    scale = 10.0 ** draw(st.floats(-6, 6))
    if kind == "spread":
        lo, hi = np.log10(GRAM_TAU / 2), np.log10(2 * GRAM_TAU)
        near_band = st.floats(lo - 1, lo) | st.floats(hi, hi + 1)
        log_ratio = draw((st.floats(-12, 0) | near_band).filter(lambda u: not lo <= u <= hi))
        exponents = np.concatenate([[0.0, 1.0], rng.random(n)])[:n]
        lam = scale * (10.0**log_ratio) ** exponents
    else:
        lam = scale * rng.random(n) + scale
        lam[draw(st.integers(1, n - 1)) :] = 0.0
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    gram = (q * lam) @ q.T
    return (gram + gram.T) / 2


def _shifted_copy_verdict(gram):
    """The route test's verdict from a shifted copy of gram: the same power
    iteration, then ``_cholesky`` on gram - GRAM_TAU * mu * I."""
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
    if not mu > 0:
        return False
    a = gram.copy()
    a.flat[:: n + 1] -= GRAM_TAU * mu
    return _cholesky(a) is not None


def _solves_as_a_copy(gram, inv_blocks, before):
    """Whether the factor ``_gram_factor`` left in gram solves byte for byte
    as ``_cholesky`` of a copy of the matrix ``before`` it was handed."""
    factor = before.copy()
    b = make_rng(0).standard_normal((gram.shape[0], 3))
    want = _cholesky_solve(factor, _cholesky(factor), b.copy())
    return _cholesky_solve(gram, inv_blocks, b.copy()).tobytes() == want.tobytes()


class TestGramRoute:
    @settings(max_examples=60, deadline=None)
    @given(gram_matrices())
    def test_verdict_is_the_eigenvalue_rule(self, gram):
        # the power iteration and shifted Cholesky test must give the
        # eigenvalue rule's verdict, and a factor that passes must be the
        # one the solve would take from the matrix as it was
        before = gram.copy()
        lam = np.linalg.eigvalsh(gram)
        inv_blocks = _gram_factor(gram)
        assert (inv_blocks is not None) == bool(lam[-1] > 0 and lam[0] >= GRAM_TAU * lam[-1])
        assert inv_blocks is None or _solves_as_a_copy(gram, inv_blocks, before)

    def test_route_test_keeps_what_the_solve_reads(self):
        # a Gram matrix whose upper triangle is off by rounding, here one ulp
        # of each entry: the route test, which reads that triangle, must
        # give the shifted copy's verdict, and the factor it returns must
        # solve as the lower triangle's own factor does
        rng = make_rng(45)
        verdicts = set()
        for _ in range(40):
            k1, k2 = (int(k) for k in rng.choice([3, 5], size=2))
            c_in, c_mid = (int(c) for c in rng.integers(1, 25, size=2))
            gram = _tall_gram(rng.standard_normal((c_in, c_mid, k1, k1)), k2)
            upper = np.triu_indices_from(gram, 1)
            gram[upper] = np.nextafter(gram[upper], np.inf)
            before = gram.copy()
            inv_blocks = _gram_factor(gram)
            verdict = inv_blocks is not None
            assert verdict == _shifted_copy_verdict(before)
            assert not verdict or _solves_as_a_copy(gram, inv_blocks, before)
            verdicts.add(verdict)
        assert verdicts == {False, True}

    @pytest.mark.parametrize("n", [1, 31, 32, 33, 63, 64, 65, 100])
    def test_cholesky_leaves_diagonal_blocks_and_upper_triangle(self, n):
        # the factorization writes only L's blocks below the diagonal
        # blocks, so a second one can run in the transpose: sizes on both
        # sides of a 32-block edge
        rng = make_rng(n)
        x = rng.standard_normal((n, n + 3))
        a = x @ x.T
        before = a.copy()
        assert _cholesky(a) is not None
        block = np.arange(n) // 32
        kept = np.triu(np.ones((n, n), dtype=bool)) | (block[:, None] == block[None, :])
        assert a[kept].tobytes() == before[kept].tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 3, 5]),
        st.sampled_from([1, 3, 5]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.booleans(),
        st.integers(0, 2**16),
    )
    def test_gram_matrices_are_exactly_symmetric(self, kf, k2, c_mid, c_in, adjoint, seed):
        # the route test reads the upper triangle and the solve the lower
        # one, so every Gram matrix the factor solve builds must be
        # symmetric to the last bit, from a fixed factor as given or as the
        # adjoint view of a lower solve
        fixed = make_rng(seed).standard_normal((c_in, c_mid, kf, kf) if adjoint else (c_mid, c_in, kf, kf))
        if adjoint:
            fixed = tensor_ops._adjoint(fixed)
        if min(kf, k2) == 1:
            a_t = fixed.reshape(c_mid, -1).T
            grams = [a_t.T @ a_t, a_t @ a_t.T]
        else:
            batch = fixed.transpose(1, 0, 2, 3)
            grams = [_tall_gram(batch, k2), _wide_gram(batch, k2)]
        for gram in grams:
            assert gram.tobytes() == gram.T.copy().tobytes()

    @settings(max_examples=60, deadline=None)
    @given(
        # sizes on both sides of block edges (128 is a multiple of the
        # block width), and any size
        st.sampled_from([1, 127, 128, 129, 300, None]).flatmap(lambda n: gram_matrices(n, kinds=("spread",))),
        st.integers(0, 2**16),
    )
    def test_cholesky_solve_matches_solve(self, gram, seed):
        # on every matrix the verdict sends down the Gram route, the blocked
        # factorization and its two block substitutions solve as LU does
        assume(_gram_factor(gram.copy()) is not None)
        b = make_rng(seed).standard_normal((gram.shape[0], 3))
        want = np.linalg.solve(gram, b)
        factor = gram.copy()
        inv_blocks = _cholesky(factor)
        assert inv_blocks is not None
        got = _cholesky_solve(factor, inv_blocks, b.copy())
        # lambda_min/lambda_max >= GRAM_TAU bounds either error by ~eps/GRAM_TAU
        assert np.linalg.norm(got - want) <= 1e-9 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.sampled_from([1, 3, 5]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    def test_tall_gram_is_the_columns_product(self, k1, k2, c_mid, c_in, seed):
        # A^T A of a tall general-kernel system, from the fixed factor's
        # channel autocorrelation, against the product of its columns
        kt = k1 + k2 - 1
        assume(c_in * kt * kt >= c_mid * k2 * k2)
        batch = make_rng(seed).standard_normal((c_in, c_mid, k1, k1))
        cols = _columns(batch, k2, k2 - 1)
        want = cols @ cols.T
        got = _tall_gram(batch, k2)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.sampled_from([1, 3, 5]),
        st.integers(0, 6),
        st.integers(1, 6),
        st.integers(0, 2**16),
    )
    def test_wide_gram_is_the_columns_product(self, k1, k2, extra, c_in, seed):
        # A A^T of a wide general-kernel system, from the fixed factor's
        # channel products placed at each shift, against the product of its
        # columns; c_mid is the fewest channels that make the system wide,
        # plus extra
        kt = k1 + k2 - 1
        c_mid = c_in * kt * kt // (k2 * k2) + 1 + extra
        batch = make_rng(seed).standard_normal((c_in, c_mid, k1, k1))
        cols = _columns(batch, k2, k2 - 1)
        want = cols.T @ cols
        got = _wide_gram(batch, k2)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([3, 5]),
        st.sampled_from([1, 3, 5]),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(1, 12),
        st.integers(0, 2**16),
    )
    def test_columns_product_is_the_columns_product(self, k1, k2, c_mid, c_in, c_out, seed):
        # A^T y, a tall system's right-hand side and a wide one's solution,
        # as one conv of the fixed factor, against the product of its columns
        kt = k1 + k2 - 1
        rng = make_rng(seed)
        batch = rng.standard_normal((c_in, c_mid, k1, k1))
        y = rng.standard_normal((c_in * kt * kt, c_out))
        want = _columns(batch, k2, k2 - 1) @ y
        got = _columns_product(batch, y, k2)
        assert got.shape == want.shape
        assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)
