"""Depth morphing: factorization solvers, rebalancing, layer insertion."""

import numpy as np
import pytest

from netmorph import (
    ConvLayer,
    ConvSpec,
    Dataset,
    DepthMorphRequest,
    InfeasibleMorphError,
    NetworkDef,
    PActLayer,
    ShapeError,
    SubnetMorphRequest,
    TrainConfig,
    build_network,
    check_preservation,
    compose_filters,
    converge_condition,
    insert_depth,
    make_rng,
    morph_general,
    morph_practical,
    morph_stacked,
    pad_filter,
    parse_arch,
    rebalance,
    same_pad_conv,
    train_sgd,
)
from netmorph import morph_depth, tensor_ops

from conftest import traced_peak
from test_verify import _net as verify_net


class TestConvergeCondition:
    def test_boundary_case_true(self):
        # min(27*3*9, 4*27*1) = 108 >= 4*3*9 = 108
        assert converge_condition(3, 27, 4, 3, 1) is True

    def test_undersized_factors_false(self):
        assert converge_condition(3, 1, 4, 3, 3) is False

    def test_scalar_true(self):
        assert converge_condition(1, 1, 1, 1, 1) is True

    def test_nonpositive_counts_raise(self):
        with pytest.raises(ShapeError):
            converge_condition(0, 1, 1, 1, 1)


class TestRequestValidation:
    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            DepthMorphRequest(layer_index=0, c_l=4, k1=2, k2=1)

    def test_zero_width_rejected(self):
        with pytest.raises(ShapeError):
            DepthMorphRequest(layer_index=0, c_l=0, k1=1, k2=1)

    def test_bad_tol_rejected(self):
        with pytest.raises(ShapeError):
            DepthMorphRequest(layer_index=0, c_l=1, k1=1, k2=1, tol=0.0)

    @pytest.mark.parametrize("tol", [-1.0, float("nan"), float("inf"), "1e-8", None, pytest.param(10**400, id="huge-int")])
    def test_meaningless_tol_rejected(self, tol):
        with pytest.raises(ShapeError, match="tol must be a finite number > 0"):
            DepthMorphRequest(layer_index=0, c_l=1, k1=1, k2=1, tol=tol)


class TestMorphGeneral:
    def test_scalar_factorization(self):
        g = np.full((1, 1, 1, 1), 6.0)
        out = morph_general(g, DepthMorphRequest(layer_index=0, c_l=1, k1=1, k2=1, seed=3))
        prod = float(out.f_lo.reshape(()) * out.f_hi.reshape(()))
        assert prod == pytest.approx(6.0, abs=1e-12)
        assert abs(float(np.abs(out.f_lo).reshape(()))) == pytest.approx(np.sqrt(6.0), abs=1e-12)
        assert abs(float(np.abs(out.f_hi).reshape(()))) == pytest.approx(np.sqrt(6.0), abs=1e-12)

    def test_one_iteration_when_condition_holds(self):
        rng = make_rng(30)
        g = rng.standard_normal((4, 3, 3, 3))
        assert converge_condition(3, 27, 4, 3, 1)
        out = morph_general(g, DepthMorphRequest(layer_index=0, c_l=27, k1=3, k2=1, seed=0))
        assert out.iterations == 1
        assert out.residual <= 1e-8

    def test_undersized_factors_leave_residual(self):
        rng = make_rng(31)
        g = rng.standard_normal((4, 3, 3, 3))
        out = morph_general(g, DepthMorphRequest(layer_index=0, c_l=1, k1=3, k2=3, seed=0, max_iter=5))
        assert out.residual > 1e-8

    def test_residual_trace_is_monotone(self):
        rng = make_rng(32)
        g = rng.standard_normal((4, 3, 3, 3))
        out = morph_general(g, DepthMorphRequest(layer_index=0, c_l=2, k1=3, k2=3, seed=0, max_iter=10))
        trace = np.array(out.trace)
        assert np.all(np.diff(trace) <= 1e-10)

    def test_composition_matches_padded_target(self):
        rng = make_rng(33)
        g = rng.standard_normal((4, 3, 3, 3))
        out = morph_general(g, DepthMorphRequest(layer_index=0, c_l=27, k1=3, k2=1, seed=0))
        comp = compose_filters(out.f_lo, out.f_hi)
        err = np.linalg.norm(comp - pad_filter(g, 3)) / np.linalg.norm(g)
        assert err <= 1e-8

    def test_too_small_effective_kernel_raises(self):
        # a 3x3 parent cannot be reproduced with an effective kernel of 1
        g = np.zeros((2, 2, 3, 3))
        with pytest.raises(ShapeError):
            morph_general(g, DepthMorphRequest(layer_index=0, c_l=4, k1=1, k2=1))


class TestMorphPractical:
    def test_claim_region_no_shrinking(self):
        rng = make_rng(34)
        g = rng.standard_normal((4, 3, 3, 3))
        out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=32, k1=3, k2=1, seed=0))
        assert out.residual <= 1e-9
        assert out.shrunk_kernel == 1

    def test_shrinks_and_pads_upper_factor(self):
        # Only the lower factor is large enough; the upper 3x3 factor must
        # shrink and come back with a zero outer ring.
        rng = make_rng(35)
        g = rng.standard_normal((4, 3, 3, 3))
        out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=4, k1=3, k2=3, seed=0))
        assert out.residual <= 1e-8
        assert out.shrunk_kernel < 3
        assert out.f_hi.shape[2] == 3
        ring = out.f_hi.copy()
        ring[:, :, 1:2, 1:2] = 0.0
        assert np.abs(ring).max() == 0.0  # outer ring is structurally zero
        comp = compose_filters(out.f_lo, out.f_hi)
        err = np.linalg.norm(comp - pad_filter(g, 5)) / np.linalg.norm(g)
        assert err <= 1e-8

    def test_shrinks_and_pads_lower_factor(self):
        # Only the upper factor is large enough (288 >= 144 > 72); the lower
        # 3x3 factor must shrink and come back with a zero outer ring.
        g = make_rng(39).standard_normal((8, 2, 3, 3))
        req = DepthMorphRequest(layer_index=0, c_l=4, k1=3, k2=3, seed=0)
        out = morph_practical(g, req)
        assert out.residual <= req.tol
        assert out.shrunk_kernel == 1
        assert out.f_lo.shape == (4, 2, 3, 3) and out.f_hi.shape == (8, 4, 3, 3)
        ring = out.f_lo.copy()
        ring[:, :, 1:2, 1:2] = 0.0
        assert np.abs(ring).max() == 0.0
        err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - pad_filter(g, 5)) / np.linalg.norm(g)
        assert err <= req.tol

    def test_both_sides_expanding_shrinks_smaller_kernel_first(self):
        # Both factors expand and k1 < k2, so the lower side is tried first,
        # at its requested (unshrunk) 1x1 kernel, and converges there.
        g = make_rng(41).standard_normal((4, 3, 5, 5))
        req = DepthMorphRequest(layer_index=0, c_l=200, k1=1, k2=5, seed=0)
        out = morph_practical(g, req)
        assert out.residual <= req.tol
        assert out.shrunk_kernel == 1
        err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - g) / np.linalg.norm(g)
        assert err <= req.tol

    def test_degenerate_scalar_case(self):
        g = np.full((1, 1, 1, 1), 6.0)
        out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=1, k1=1, k2=1, seed=0))
        assert float(out.f_lo.reshape(()) * out.f_hi.reshape(())) == pytest.approx(6.0, abs=1e-12)

    def test_infeasible_sizes_raise(self):
        rng = make_rng(36)
        g = rng.standard_normal((4, 3, 3, 3))  # 108 parameters
        with pytest.raises(InfeasibleMorphError):
            morph_practical(g, DepthMorphRequest(layer_index=0, c_l=1, k1=3, k2=1, seed=0))

    def test_exhausted_candidates_raise(self, monkeypatch):
        # both factors expand a (1,1,5,5) filter at c_l=3 (27 >= 25 parameters),
        # but one 3x3/3x3 step misses it on either side, and the two 1x1
        # candidates are skipped: 3x3 composed with 1x1 cannot reach 5x5
        attempts = []
        attempt = morph_depth._attempt

        def recording(g, req, k1, k2, *rest):
            attempts.append((k1, k2))
            return attempt(g, req, k1, k2, *rest)

        monkeypatch.setattr(morph_depth, "_attempt", recording)
        g = make_rng(38).standard_normal((1, 1, 5, 5))
        with pytest.raises(InfeasibleMorphError, match="kernel shrinking exhausted"):
            morph_practical(g, DepthMorphRequest(layer_index=0, c_l=3, k1=3, k2=3, seed=0))
        assert attempts == [(3, 3), (3, 3)]

    def test_deterministic_by_seed(self):
        rng = make_rng(37)
        g = rng.standard_normal((3, 2, 3, 3))
        req = DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1, seed=11)
        a = morph_practical(g, req)
        b = morph_practical(g, req)
        assert np.array_equal(a.f_lo, b.f_lo) and np.array_equal(a.f_hi, b.f_hi)

    def test_paper_step_solves_channel_systems_only(self, monkeypatch):
        # (5:256)(1:64) on a (64, 32, 5, 5) conv: the 1x1 factor must be
        # solved as one 64x256 channel system (or its Gram matrix), not a
        # dense 1600x6400 one, whether lstsq solves it or the Gram route
        # factorizes it
        shapes = []

        def recording(fn):
            def record(a, *args, **kwargs):
                shapes.append(np.shape(a))
                return fn(a, *args, **kwargs)

            return record

        monkeypatch.setattr(np.linalg, "lstsq", recording(np.linalg.lstsq))
        monkeypatch.setattr(tensor_ops, "_cholesky", recording(tensor_ops._cholesky))
        g = make_rng(38).standard_normal((64, 32, 5, 5))
        req = DepthMorphRequest(layer_index=0, c_l=256, k1=5, k2=1, seed=0)
        out = morph_practical(g, req)
        assert shapes and max(m * n for m, n in shapes) <= 800 * 256, shapes
        err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - g) / np.linalg.norm(g)
        assert err <= req.tol

    @pytest.mark.parametrize(
        "shape, c_l, k1, k2",
        [
            ((32, 48, 5, 5), 96, 3, 3),
            ((32, 3, 5, 5), 128, 5, 1),
            ((32, 32, 5, 5), 128, 5, 1),
            ((64, 32, 5, 5), 256, 5, 1),
            ((10, 784, 1, 1), 50, 1, 1),
        ],
        ids=["morph-chain-3x3", "cifar-5x5-3", "cifar-5x5-32", "cifar-5x5-64", "mnist-784-50-10"],
    )
    def test_one_factor_solve_per_attempt(self, monkeypatch, shape, c_l, k1, k2):
        # the benchmark's depth morphs converge at their first attempt, which
        # draws the non-expanding factor and solves the expanding one once,
        # through one Gram factorization and no dense lstsq
        calls = {"solve": 0, "gram": 0, "lstsq": 0}

        def counting(name, fn):
            def count(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return count

        monkeypatch.setattr(morph_depth, "lstsq_factor_step", counting("solve", morph_depth.lstsq_factor_step))
        monkeypatch.setattr(tensor_ops, "_gram_factor", counting("gram", tensor_ops._gram_factor))
        monkeypatch.setattr(np.linalg, "lstsq", counting("lstsq", np.linalg.lstsq))
        g = make_rng(41).standard_normal(shape)
        req = DepthMorphRequest(layer_index=0, c_l=c_l, k1=k1, k2=k2, seed=7)
        out = morph_practical(g, req)
        assert calls == {"solve": 1, "gram": 1, "lstsq": 0}
        assert out.residual <= req.tol and out.trace == (out.residual,)

    def test_3x3_pair_solves_through_gram_matrices(self, monkeypatch):
        # (3:96)(3:32) on a (32, 48, 5, 5) conv: both 3x3 factor steps are
        # well conditioned, so neither may fall back to the dense SVD lstsq
        calls = []
        lstsq = np.linalg.lstsq

        def recording_lstsq(a, b, *args, **kwargs):
            calls.append(np.shape(a))
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        g = make_rng(40).standard_normal((32, 48, 5, 5))
        req = DepthMorphRequest(layer_index=0, c_l=96, k1=3, k2=3, seed=0)
        out = morph_practical(g, req)
        assert calls == []
        err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - g) / np.linalg.norm(g)
        assert err <= req.tol

    def test_3x3_pair_makes_no_lu_solve(self, monkeypatch):
        # (3:96)(3:32) on a (32, 48, 5, 5) conv, morph-chain's depth step:
        # each Gram matrix is solved through its own Cholesky factor, which
        # costs half an LU factorization
        calls = []
        solve = np.linalg.solve

        def recording_solve(a, b, *args, **kwargs):
            calls.append(np.shape(a))
            return solve(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "solve", recording_solve)
        g = make_rng(40).standard_normal((32, 48, 5, 5))
        req = DepthMorphRequest(layer_index=0, c_l=96, k1=3, k2=3, seed=0)
        out = morph_practical(g, req)
        assert calls == []
        err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - g) / np.linalg.norm(g)
        assert err <= req.tol

    def test_paper_steps_solve_without_lstsq(self, monkeypatch):
        # the CIFAR step's three (5:4C)(1:C) morphs and the MNIST step's
        # 784->50->10 morph: every channel system and Gram matrix is well
        # conditioned, so no solve falls back to the dense SVD lstsq
        calls = []
        lstsq = np.linalg.lstsq

        def recording_lstsq(a, b, *args, **kwargs):
            calls.append(np.shape(a))
            return lstsq(a, b, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "lstsq", recording_lstsq)
        cifar = build_network(parse_arch("(5:32)(5:32)(5:64)"), (3, 32, 32), seed=5)
        mnist = build_network([ConvSpec(1, 10)], (784, 1, 1), seed=5, activations=False)
        cases = [
            (layer.weights, DepthMorphRequest(layer_index=0, c_l=4 * layer.c_out, k1=5, k2=1, seed=5 + i))
            for i, layer in enumerate(cifar.layers[j] for j in cifar.conv_indices())
        ]
        cases.append((mnist.layers[0].weights, DepthMorphRequest(layer_index=0, c_l=50, k1=1, k2=1, seed=5)))
        for g, req in cases:
            out = morph_practical(g, req)
            err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - g) / np.linalg.norm(g)
            assert err <= req.tol
        assert calls == []

    def test_3x3_pair_decides_the_gram_route_without_eigenvalues(self, monkeypatch):
        # (3:96)(3:32) on a (32, 48, 5, 5) conv: an eigenvalue solve of the
        # 864x864 or 800x800 Gram matrix costs 2-3 times the power iteration
        # and shifted Cholesky test that decides the route
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def recording_eigvalsh(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigvalsh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
        g = make_rng(40).standard_normal((32, 48, 5, 5))
        req = DepthMorphRequest(layer_index=0, c_l=96, k1=3, k2=3, seed=0)
        out = morph_practical(g, req)
        assert calls == []
        err = np.linalg.norm(compose_filters(out.f_lo, out.f_hi) - g) / np.linalg.norm(g)
        assert err <= req.tol

    def test_3x3_pair_peak_memory(self):
        # morph-chain's depth step peaks at 7.26 MiB traced, in _wide_gram:
        # the wide lower solve's 800x800 Gram matrix (4.9 MiB) and the fixed
        # factor's 288x288 channel product.  The tall upper solve peaks at
        # 7.08 MiB, in _tall_gram's 864x864 one.  Building the 800x864
        # system for that wide solve's A A^T and x = A^T y peaked at
        # 11.57 MiB, and a shifted copy of the Gram matrix in the route test
        # peaks at 12.57 MiB
        g = make_rng(40).standard_normal((32, 48, 5, 5))
        req = DepthMorphRequest(layer_index=0, c_l=96, k1=3, k2=3, seed=0)
        peak = traced_peak(lambda: morph_practical(g, req))
        assert peak <= 9 * 2**20, f"{peak / 2**20:.2f} MiB"

    def test_wide_3x3_pair_peak_memory(self):
        # (32,32,3,3) -> (3:128)(3:32): both solves are wide (800x1152), and
        # the step peaks at 7.07 MiB traced, in the lower solve's
        # _wide_gram.  Building the system for A A^T and x = A^T y peaked
        # at 13.07 MiB
        g = make_rng(40).standard_normal((32, 32, 3, 3))
        req = DepthMorphRequest(layer_index=0, c_l=128, k1=3, k2=3, seed=0)
        peak = traced_peak(lambda: morph_practical(g, req))
        assert peak <= 9 * 2**20, f"{peak / 2**20:.2f} MiB"


class TestRebalance:
    def test_closed_form_scaling(self):
        rng = make_rng(38)
        f_lo = rng.standard_normal((2, 2, 3, 3)) * 0.1
        f_hi = rng.standard_normal((2, 2, 3, 3)) * 0.9
        a, b = rebalance(f_lo, f_hi)
        assert np.std(a) == pytest.approx(np.std(b), rel=1e-12)

    def test_fixed_point_when_equal(self):
        rng = make_rng(39)
        f = rng.standard_normal((2, 2, 3, 3))
        a, b = rebalance(f, f.copy())
        np.testing.assert_allclose(a, f, rtol=1e-14)
        np.testing.assert_allclose(b, f, rtol=1e-14)

    def test_composition_unchanged(self):
        rng = make_rng(40)
        f_lo = rng.standard_normal((3, 2, 3, 3)) * 5
        f_hi = rng.standard_normal((2, 3, 1, 1)) * 0.01
        before = compose_filters(f_lo, f_hi)
        after = compose_filters(*rebalance(f_lo, f_hi))
        np.testing.assert_allclose(after, before, atol=1e-14 * np.abs(before).max())

    def test_zero_factor_raises(self):
        with pytest.raises(ShapeError):
            rebalance(np.zeros((1, 1, 1, 1)), np.ones((1, 1, 1, 1)))

    @pytest.mark.parametrize(
        "weights, pad, req",
        [
            (np.ones((1, 1, 3, 3)) / 9, 1, DepthMorphRequest(0, 1, 3, 1)),
            (np.ones((1, 2, 1, 1)), 0, DepthMorphRequest(0, 1, 1, 1)),
        ],
        ids=["box-filter", "equal-1x1"],
    )
    def test_equal_entry_factors_rebalance(self, weights, pad, req):
        # a factor whose entries are equal and nonzero has a standard
        # deviation of 0; its spread is then its largest absolute value
        parent = NetworkDef(input_shape=(weights.shape[1], 6, 6), layers=[ConvLayer(weights, np.zeros(1), pad)])
        child = insert_depth(parent, req)
        assert check_preservation(parent, child, n_samples=3, tol=1e-8).pass_


class TestAllZeroFilter:
    """An all-zero filter factors into a pair with an all-zero factor, which
    already composes to it and is kept rather than rebalanced: the general
    solver alternates to two zero factors, and the practical solver solves
    the expanding factor to zero against a drawn, nonzero one."""

    @pytest.mark.parametrize("solver", [morph_practical, morph_general])
    def test_factors_are_zero(self, solver):
        outcome = solver(np.zeros((4, 2, 3, 3)), DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=3))
        assert outcome.residual == 0.0
        if solver is morph_general:
            assert not outcome.f_lo.any() and not outcome.f_hi.any()
        else:
            # both sides expand; K2 shrinks first, so f_hi is drawn and f_lo solved
            assert not outcome.f_lo.any() and outcome.f_hi.any()
            assert not compose_filters(outcome.f_lo, outcome.f_hi).any()

    def test_zero_factor_of_a_child_trains(self):
        # Two zero factors would stay zero: every gradient of the block is
        # zero.  A drawn f_hi gives the solved zero f_lo a gradient at the
        # first SGD step (mnist-train's settings).
        parent = build_network([ConvSpec(1, 10)], (20, 1, 1), init="zeros", activations=False)
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=16, k1=1, k2=1))
        assert not child.layers[0].weights.any() and child.layers[2].weights.any()
        rng = make_rng(5)
        data = Dataset(images=rng.random((64, 20, 1, 1)), labels=rng.integers(0, 10, size=64))
        cfg = TrainConfig(learning_rate=0.05, batch_size=64, epochs=1, momentum=0.9, a_learning_rate=0.01)
        trained, _ = train_sgd(child, data, cfg)
        assert trained.layers[0].weights.any()

    def test_depth_and_subnet_children_verify(self):
        parent = build_network(parse_arch("(3:4)(3:4)"), (2, 8, 8), init="zeros")
        children = [
            insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1)),
            morph_stacked(parent, SubnetMorphRequest(0, [[(3, 8), (1, 4)]], [1.0])),
        ]
        for child in children:
            assert check_preservation(parent, child, n_samples=3, tol=1e-8).pass_


class TestInsertDepth:
    def _parent(self, seed=0, base="relu"):
        rng = make_rng(seed)
        return NetworkDef(
            input_shape=(2, 10, 10),
            layers=[
                same_pad_conv(rng.standard_normal((4, 2, 3, 3)), bias=rng.standard_normal(4)),
                PActLayer(base=base, a=0.0),
            ],
        )

    def test_k2_1_preserves_exactly(self):
        parent = self._parent(41)
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1, seed=0))
        report = check_preservation(parent, child, n_samples=10, tol=1e-10)
        assert report.pass_ and report.exact_mode

    def test_structure_after_insertion(self):
        parent = self._parent(42, base="tanh")
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1, seed=0))
        conv_lo, act, conv_hi, tail_act = child.layers
        assert isinstance(conv_lo, ConvLayer) and not conv_lo.bias.any()
        assert isinstance(act, PActLayer) and act.a == 1.0 and act.base == "tanh"
        assert isinstance(conv_hi, ConvLayer)
        assert np.array_equal(conv_hi.bias, parent.layers[0].bias)
        assert tail_act == parent.layers[1]

    def test_tanh_parent_preserved(self):
        parent = self._parent(43, base="tanh")
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1, seed=1))
        assert check_preservation(parent, child, n_samples=10, tol=1e-10).pass_

    def test_k2_3_preserves_on_interior(self):
        parent = self._parent(44)
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=4, k1=3, k2=3, seed=0))
        report = check_preservation(parent, child, n_samples=10, tol=1e-8)
        assert report.pass_

    def test_child_shape_matches_wider_notation(self):
        # morphing (5:32) with c_l=128, k1=5, k2=1 yields (5:128)(1:32)
        rng = make_rng(45)
        parent = NetworkDef(
            input_shape=(3, 8, 8),
            layers=[same_pad_conv(rng.standard_normal((32, 3, 5, 5)) * 0.1)],
        )
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=128, k1=5, k2=1, seed=0))
        lo, _, hi = child.layers
        assert lo.weights.shape == (128, 3, 5, 5)
        assert hi.weights.shape == (32, 128, 1, 1)

    @pytest.mark.parametrize(
        "make_parent, req",
        [
            # converge_condition fails: the lower factor has 72 of the 200 entries it needs
            (lambda: verify_net(111), DepthMorphRequest(layer_index=0, c_l=4, k1=3, k2=3, seed=0)),
            (
                lambda: build_network(parse_arch("(5:8)(3:8)"), (3, 12, 12), seed=1),
                DepthMorphRequest(layer_index=0, c_l=2, k1=3, k2=3, seed=1),
            ),
        ],
        ids=["c_l=4", "c_l=2"],
    )
    def test_unconverged_general_child_raises(self, make_parent, req):
        parent = make_parent()
        with pytest.raises(InfeasibleMorphError, match=r"did not converge: residual .* > tol 1e-08 after 20 iterations"):
            insert_depth(parent, req, algorithm="general")

    def test_unknown_algorithm_raises(self):
        parent = self._parent(47)
        with pytest.raises(ShapeError, match="unknown algorithm 'fast'"):
            insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1), algorithm="fast")

    def test_non_conv_target_raises(self):
        parent = self._parent(46)
        with pytest.raises(ShapeError):
            insert_depth(parent, DepthMorphRequest(layer_index=1, c_l=4, k1=3, k2=1))
