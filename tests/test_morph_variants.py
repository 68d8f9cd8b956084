"""Width, kernel-size, and subnet morphing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmorph import (
    Dataset,
    DepthMorphRequest,
    InfeasibleMorphError,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    ShapeError,
    SubnetMorphRequest,
    TrainConfig,
    WidthMorphRequest,
    build_network,
    check_preservation,
    compose_filters,
    deserialize,
    expand_kernel,
    forward,
    insert_depth,
    make_rng,
    morph_practical,
    morph_sequential,
    morph_stacked,
    pad_filter,
    parse_arch,
    same_pad_conv,
    serialize,
    train_sgd,
    widen,
)
from netmorph.netdef import BASES, _convs


def _two_conv_net(seed=0, base="relu", c_mid=4, k=3, hw=8):
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(2, hw, hw),
        layers=[
            same_pad_conv(rng.standard_normal((c_mid, 2, k, k)), bias=rng.standard_normal(c_mid)),
            PActLayer(base=base, a=0.0),
            same_pad_conv(rng.standard_normal((3, c_mid, k, k)), bias=rng.standard_normal(3)),
        ],
    )


TARGETED_MORPHS = {
    "insert_depth": lambda net, i: insert_depth(net, DepthMorphRequest(layer_index=i, c_l=8, k1=3, k2=1)),
    "widen": lambda net, i: widen(net, WidthMorphRequest(layer_index=i, new_width=6)),
    "expand_kernel": lambda net, i: expand_kernel(net, i, 5),
    "morph_stacked": lambda net, i: morph_stacked(
        net, SubnetMorphRequest(layer_index=i, path_specs=[[(3, 3)]], split_weights=[1.0])
    ),
}


@pytest.mark.parametrize("index", [-1, 3, 1], ids=["negative", "past_end", "pact"])
@pytest.mark.parametrize("morph", TARGETED_MORPHS.values(), ids=TARGETED_MORPHS.keys())
def test_morph_target_must_be_a_conv(morph, index):
    net = _two_conv_net(20)  # conv, pact, conv
    with pytest.raises(ShapeError, match=f"layer {index} is not a conv layer"):
        morph(net, index)


def _four_channel_net():
    return build_network(parse_arch("(3:4)(3:4)"), (2, 8, 8))


# sizes that are not integers, each of which used to raise a bare TypeError
# or IndexError, or be truncated or accepted as a float
NON_INTEGER_SIZES = {
    "depth-c_l": lambda: insert_depth(_four_channel_net(), DepthMorphRequest(0, 2.5, 3, 1)),
    "depth-k1": lambda: DepthMorphRequest(0, 2, 3.0, 1),
    "depth-layer_index": lambda: DepthMorphRequest(0.0, 2, 3, 1),
    "depth-max_iter": lambda: DepthMorphRequest(0, 2, 3, 1, max_iter=2.0),
    "width-float": lambda: widen(_four_channel_net(), WidthMorphRequest(0, 6.5)),
    "width-string": lambda: widen(_four_channel_net(), WidthMorphRequest(0, "6")),
    "width-seed": lambda: WidthMorphRequest(0, 6, seed=1.0),
    "expand_kernel-kernel": lambda: expand_kernel(_four_channel_net(), 0, 5.0),
    "expand_kernel-layer_index": lambda: expand_kernel(_four_channel_net(), 0.0, 5),
    "subnet-path-kernel": lambda: SubnetMorphRequest(0, [[(3.7, 4)]], [1.0]),
    "subnet-path-channels": lambda: SubnetMorphRequest(0, [[(3, 4.0)]], [1.0]),
    "sequential-kernel": lambda: morph_sequential(np.ones((4, 2, 3, 3)), [], [3.7]),
    "network-input_shape": lambda: NetworkDef(input_shape=(2.7, 8, 8)),
    "build_network-input_shape": lambda: build_network(parse_arch("(3:4)"), (2, 8.0, 8)),
    "train-float-labels": lambda: train_sgd(
        build_network(parse_arch("(1:3)"), (4, 1, 1)),
        Dataset(images=np.zeros((4, 4, 1, 1)), labels=np.array([0.0, 1.0, 2.0, 1.0])),
        TrainConfig(epochs=1),
    ),
}


@pytest.mark.parametrize("call", NON_INTEGER_SIZES.values(), ids=NON_INTEGER_SIZES.keys())
def test_non_integer_sizes_rejected(call):
    with pytest.raises(ShapeError, match="must be an integer|labels must be integers"):
        call()


NEGATIVE_SEEDS = {
    "depth": lambda: DepthMorphRequest(0, 8, 3, 1, seed=-1),
    "width": lambda: WidthMorphRequest(0, 6, seed=-1),
    "subnet": lambda: SubnetMorphRequest(0, [[(3, 4)]], [1.0], seed=-1),
}


@pytest.mark.parametrize("build", NEGATIVE_SEEDS.values(), ids=NEGATIVE_SEEDS.keys())
def test_negative_seed_rejected_when_the_request_is_built(build):
    with pytest.raises(ShapeError, match="seed must be an integer >= 0, got -1"):
        build()


# Values that no net could take, a size below 1 or an even kernel, beyond
# those that test_morph_depth.py::TestRequestValidation and TestExpandKernel try.
VALUES_NO_NET_TAKES = {
    "width-0": lambda: WidthMorphRequest(0, 0),
    "width-negative": lambda: WidthMorphRequest(0, -3),
    "depth-k1-0": lambda: DepthMorphRequest(0, 2, 0, 1),
    "depth-k2-even": lambda: DepthMorphRequest(0, 2, 3, 4),
    "expand_kernel-negative": lambda: expand_kernel(_four_channel_net(), 0, -1),
    "sequential-even": lambda: morph_sequential(np.ones((4, 2, 3, 3)), [2], [3, 2]),
    "subnet-path-kernel-even": lambda: SubnetMorphRequest(0, [[(4, 4)]], [1.0]),
    "subnet-path-kernel-0": lambda: SubnetMorphRequest(0, [[(0, 4)]], [1.0]),
    "subnet-path-channels-0": lambda: SubnetMorphRequest(0, [[(3, 0)]], [1.0]),
}


# Subnet requests whose paths are not sequences of (kernel, channels) pairs,
# or whose split weights are not a sequence.
MALFORMED_SUBNET_REQUESTS = {
    "subnet-paths-not-nested": lambda: SubnetMorphRequest(0, [(3, 4)], [1.0]),
    "subnet-path-step-not-a-pair": lambda: SubnetMorphRequest(0, [[(3,)]], [1.0]),
    "subnet-paths-none": lambda: SubnetMorphRequest(0, None, [1.0]),
    "subnet-weights-scalar": lambda: SubnetMorphRequest(0, [[(3, 4)]], 1.0),
}


@pytest.mark.parametrize(
    "build, message",
    [pytest.param(build, "must be an integer >= 1|must be odd", id=i) for i, build in VALUES_NO_NET_TAKES.items()]
    + [
        pytest.param(build, r"path_specs must be a sequence of paths of \(kernel, channels\) pairs", id=i)
        for i, build in MALFORMED_SUBNET_REQUESTS.items()
    ],
)
def test_value_no_net_takes_rejected(build, message):
    with pytest.raises(ShapeError, match=message):
        build()


def test_numpy_integer_sizes_accepted():
    net, i64 = _four_channel_net(), np.int64
    assert widen(net, WidthMorphRequest(i64(0), i64(6), seed=i64(1))).layers[0].c_out == 6
    assert expand_kernel(net, i64(0), i64(5)).layers[0].kernel == 5
    req = DepthMorphRequest(i64(0), i64(8), i64(3), i64(1), max_iter=i64(2), seed=i64(0))
    assert check_preservation(net, insert_depth(net, req), n_samples=2, tol=1e-8).pass_
    (spec,) = SubnetMorphRequest(i64(0), [[(i64(3), i64(4))]], [1.0]).path_specs
    assert spec == ((3, 4),) and all(type(v) is int for v in spec[0])


class TestWiden:
    def test_preserves_outputs(self):
        parent = _two_conv_net(50)
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=8, seed=0))
        report = check_preservation(parent, child, n_samples=20, tol=1e-10)
        assert report.pass_ and report.exact_mode

    def test_same_width_is_permutation_only(self):
        parent = _two_conv_net(51)
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=4, seed=0))
        assert check_preservation(parent, child, n_samples=10, tol=1e-10).pass_
        assert sorted(map(tuple, child.layers[0].weights.reshape(4, -1).tolist())) == sorted(
            map(tuple, parent.layers[0].weights.reshape(4, -1).tolist())
        )

    @pytest.mark.parametrize("base", ["relu", "tanh"])
    def test_zero_at_zero_activations_preserve(self, base):
        parent = _two_conv_net(52, base=base)
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=10, seed=3))
        assert check_preservation(parent, child, n_samples=20, tol=1e-10).pass_

    def test_sigmoid_forces_outgoing_zero(self):
        parent = _two_conv_net(53, base="sigmoid")
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=8, seed=0))
        assert check_preservation(parent, child, n_samples=20, tol=1e-10).pass_
        # the downstream filter's new input columns carry no weight at all:
        # with sigmoid(0) = 0.5 the incoming-random branch would leak
        hi = child.layers[2].weights
        lo = child.layers[0].weights
        new_rows = [i for i in range(8) if not any(np.array_equal(lo[i], w) for w in parent.layers[0].weights)]
        assert len(new_rows) == 4
        for i in new_rows:
            assert np.abs(hi[:, i]).max() == 0.0

    def test_stacked_activations_chain_their_value_at_zero(self):
        # sigmoid then tanh maps 0 to tanh(0.5), not 0: the outgoing side
        # must be zeroed although tanh alone maps 0 to 0
        rng = make_rng(56)
        parent = NetworkDef(
            input_shape=(2, 8, 8),
            layers=[
                same_pad_conv(rng.standard_normal((4, 2, 3, 3)), bias=rng.standard_normal(4)),
                PActLayer(base="sigmoid", a=0.0),
                PActLayer(base="tanh", a=0.0),
                same_pad_conv(rng.standard_normal((3, 4, 3, 3)), bias=rng.standard_normal(3)),
            ],
        )
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=5, seed=1))
        assert check_preservation(parent, child, n_samples=20, tol=1e-10).pass_

    def test_sigmoid_incoming_zero_branch_breaks(self):
        # negative control: zeroing the incoming side while randomizing the
        # outgoing side must change the function when sigmoid(0) != 0
        rng = make_rng(54)
        parent = _two_conv_net(54, base="sigmoid")
        lo, act, hi = parent.layers
        w_lo = np.concatenate([lo.weights, np.zeros((2, 2, 3, 3))])
        b_lo = np.concatenate([lo.bias, np.zeros(2)])
        w_hi = np.concatenate([hi.weights, rng.standard_normal((3, 2, 3, 3))], axis=1)
        bad = NetworkDef(
            input_shape=parent.input_shape,
            layers=[same_pad_conv(w_lo, bias=b_lo), act, same_pad_conv(w_hi, bias=hi.bias)],
        )
        assert not check_preservation(parent, bad, n_samples=5, tol=1e-8).pass_

    @staticmethod
    def _new_units(parent, child):
        """Indices of the child's channels whose incoming rows are not a parent row."""
        old = parent.layers[0].weights
        return [i for i, w in enumerate(child.layers[0].weights) if not any(np.array_equal(w, o) for o in old)]

    @pytest.mark.parametrize("base", BASES)
    def test_new_units_take_noise_in_and_zeros_out(self, base):
        parent = _two_conv_net(58, base=base)
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=9, seed=4))
        lo, _, hi = child.layers
        new = self._new_units(parent, child)
        assert len(new) == 5
        for i in new:
            assert np.abs(lo.weights[i]).max() > 0.0 and lo.bias[i] == 0.0
            assert np.abs(hi.weights[:, i]).max() == 0.0

    @pytest.mark.parametrize("base", BASES)
    def test_every_new_unit_learns(self, base):
        # a relu at a = 0 passes no gradient to a unit whose incoming rows
        # are zero, so widening must put its zeros on the outgoing side
        rng = make_rng(59)
        parent = NetworkDef(
            input_shape=(4, 1, 1),
            layers=[
                same_pad_conv(rng.standard_normal((8, 4, 1, 1)), bias=rng.standard_normal(8)),
                PActLayer(base=base, a=0.0),
                same_pad_conv(rng.standard_normal((10, 8, 1, 1)), bias=rng.standard_normal(10)),
            ],
        )
        x = rng.standard_normal((2000, 4, 1, 1))
        labels = (x.reshape(2000, 4) @ rng.standard_normal((4, 10))).argmax(axis=1)
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=16, seed=5))
        trained, _ = train_sgd(child, Dataset(images=x, labels=labels), TrainConfig(epochs=1, a_learning_rate=0.0))
        new = self._new_units(parent, child)
        assert len(new) == 8
        for i in new:
            moved_in = np.abs(trained.layers[0].weights[i] - child.layers[0].weights[i]).max()
            moved_out = np.abs(trained.layers[2].weights[:, i] - child.layers[2].weights[:, i]).max()
            assert moved_in > 1e-6 and moved_out > 1e-6, f"unit {i}: incoming moved {moved_in:.1e}, outgoing {moved_out:.1e}"

    def test_inverse_permutation_recovers_unpermuted_child(self):
        parent = _two_conv_net(55)
        child = widen(parent, WidthMorphRequest(layer_index=0, new_width=7, seed=9))
        lo, _, hi = child.layers
        # reconstruct the permutation by matching the surviving parent rows
        # and undo it on both adjacent filters; the result must again be a
        # valid widening with the parent block leading
        order = np.argsort([np.abs(w).sum() for w in lo.weights])  # any consistent order works
        inv = np.empty_like(order)
        inv[order] = np.arange(len(order))
        restored = NetworkDef(
            input_shape=parent.input_shape,
            layers=[
                same_pad_conv(lo.weights[order], bias=lo.bias[order]),
                child.layers[1],
                same_pad_conv(hi.weights[:, order], bias=hi.bias),
            ],
        )
        assert check_preservation(parent, restored, n_samples=10, tol=1e-10).pass_

    def test_shrink_rejected(self):
        parent = _two_conv_net(56)
        with pytest.raises(ShapeError):
            widen(parent, WidthMorphRequest(layer_index=0, new_width=2, seed=0))

    def test_last_conv_cannot_widen(self):
        parent = _two_conv_net(57)
        with pytest.raises(ShapeError):
            widen(parent, WidthMorphRequest(layer_index=2, new_width=8, seed=0))


class TestExpandKernel:
    def test_1_to_3_exact(self):
        rng = make_rng(60)
        parent = NetworkDef(
            input_shape=(2, 6, 6),
            layers=[same_pad_conv(rng.standard_normal((3, 2, 1, 1)), bias=rng.standard_normal(3))],
        )
        child = expand_kernel(parent, 0, 3)
        assert child.layers[0].kernel == 3 and child.layers[0].pad == 1
        assert check_preservation(parent, child, n_samples=10, tol=1e-12).pass_

    def test_same_kernel_is_identity(self):
        parent = _two_conv_net(61)
        child = expand_kernel(parent, 0, 3)
        assert np.array_equal(child.layers[0].weights, parent.layers[0].weights)

    def test_3_to_7_on_multi_layer_net(self):
        parent = _two_conv_net(62, hw=10)
        child = expand_kernel(parent, 2, 7)
        report = check_preservation(parent, child, n_samples=20, tol=1e-12)
        assert report.pass_ and report.exact_mode

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            expand_kernel(_two_conv_net(63), 0, 4)

    def test_shrink_rejected(self):
        with pytest.raises(ShapeError):
            expand_kernel(_two_conv_net(64), 0, 1)


class TestMorphSequential:
    def test_two_layers_match_practical(self):
        rng = make_rng(70)
        g = rng.standard_normal((4, 3, 3, 3))
        factors = morph_sequential(g, widths=[16], kernels=[3, 1], seed=5)
        out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=16, k1=3, k2=1, seed=5))
        assert np.array_equal(factors[0], out.f_lo)
        assert np.array_equal(factors[1], out.f_hi)

    def test_three_layer_chain_composes_to_target(self):
        rng = make_rng(71)
        g = rng.standard_normal((4, 3, 3, 3))
        factors = morph_sequential(g, widths=[32, 32], kernels=[3, 1, 1], seed=0)
        comp = factors[0]
        for f in factors[1:]:
            comp = compose_filters(comp, f)
        err = np.linalg.norm(comp - pad_filter(g, 3)) / np.linalg.norm(g)
        assert err <= 1e-8

    def test_middle_kernel_above_one(self):
        rng = make_rng(72)
        g = rng.standard_normal((4, 3, 5, 5))
        factors = morph_sequential(g, widths=[16, 16], kernels=[3, 3, 1], seed=1)
        comp = factors[0]
        for f in factors[1:]:
            comp = compose_filters(comp, f)
        err = np.linalg.norm(comp - pad_filter(g, 5)) / np.linalg.norm(g)
        assert err <= 1e-8

    def test_scalar_chain(self):
        g = np.full((1, 1, 1, 1), 5.0)
        factors = morph_sequential(g, widths=[1, 1], kernels=[1, 1, 1], seed=0)
        prod = 1.0
        for f in factors:
            prod *= float(f.reshape(()))
        assert prod == pytest.approx(5.0, abs=1e-12)

    def test_infeasible_sizes_raise(self):
        rng = make_rng(73)
        g = rng.standard_normal((8, 8, 3, 3))
        with pytest.raises(InfeasibleMorphError):
            morph_sequential(g, widths=[1, 1], kernels=[1, 3, 1], seed=0)

    def test_paper_width_chain_composes_to_target(self):
        rng = make_rng(74)
        g = rng.standard_normal((32, 32, 3, 3))
        factors = morph_sequential(g, widths=[64, 64], kernels=[3, 3, 1], seed=0)
        comp = factors[0]
        for f in factors[1:]:
            comp = compose_filters(comp, f)
        assert [f.shape for f in factors] == [(64, 32, 3, 3), (64, 64, 3, 3), (32, 64, 1, 1)]
        err = np.linalg.norm(comp - pad_filter(g, 5)) / np.linalg.norm(g)
        assert err <= 1e-8

    def test_infeasible_middle_peel_is_named(self):
        # peel 0 expands (32 hidden channels); peel 1 must squeeze the
        # (4, 32, 3, 3) remainder through a single channel
        rng = make_rng(75)
        g = rng.standard_normal((4, 3, 3, 3))
        with pytest.raises(InfeasibleMorphError, match="peel 1"):
            morph_sequential(g, widths=[32, 1], kernels=[3, 3, 1], seed=0)

    @pytest.mark.parametrize("k", [3, 5])
    def test_one_kernel_chain_is_padded_target(self, k):
        g = make_rng(76).standard_normal((4, 3, 3, 3))
        (f,) = morph_sequential(g, [], [k])
        assert np.array_equal(f, pad_filter(g, k))

    def test_width_count_validated(self):
        with pytest.raises(ShapeError):
            morph_sequential(np.zeros((1, 1, 1, 1)), widths=[1, 1], kernels=[1, 1], seed=0)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf"), "1e-8", None, pytest.param(10**400, id="huge-int")])
def test_subnet_request_rejects_meaningless_tol(tol):
    with pytest.raises(ShapeError, match="tol must be a finite number > 0"):
        SubnetMorphRequest(0, [[(5, 8)], [(7, 8)]], [0.5, 0.5], tol=tol)


class TestMorphStacked:
    def test_degenerate_single_path_is_identity(self):
        parent = _two_conv_net(90)
        req = SubnetMorphRequest(layer_index=0, path_specs=[[(3, 4)]], split_weights=[1.0])
        child = morph_stacked(parent, req)
        assert child == parent
        assert serialize(child) == serialize(parent)

    def test_two_way_equal_split_both_plain(self):
        parent = _two_conv_net(91)
        req = SubnetMorphRequest(
            layer_index=0, path_specs=[[(3, 4)], [(3, 4)]], split_weights=[0.5, 0.5]
        )
        child = morph_stacked(parent, req)
        assert isinstance(child.layers[0], ParallelLayer)
        assert check_preservation(parent, child, n_samples=10, tol=1e-10).pass_

    def test_second_path_morphed_deeper(self):
        parent = _two_conv_net(92, hw=10)
        req = SubnetMorphRequest(
            layer_index=0,
            path_specs=[[(3, 4)], [(3, 8), (1, 4)]],
            split_weights=[0.5, 0.5],
            seed=2,
        )
        child = morph_stacked(parent, req)
        report = check_preservation(parent, child, n_samples=10, tol=1e-8)
        assert report.pass_
        # the deep path carries an identity-parameter activation
        deep = child.layers[0].paths[1]
        assert any(isinstance(l, PActLayer) and l.a == 1.0 for l in deep)

    def test_three_factor_path_preserves(self):
        parent = _two_conv_net(96, hw=10)
        req = SubnetMorphRequest(
            layer_index=0,
            path_specs=[[(3, 4)], [(3, 8), (3, 8), (1, 4)]],
            split_weights=[0.5, 0.5],
            seed=3,
        )
        child = morph_stacked(parent, req)
        deep = child.layers[0].paths[1]
        assert [l.weights.shape for l in deep if not isinstance(l, PActLayer)] == [
            (8, 2, 3, 3), (8, 8, 3, 3), (4, 8, 1, 1)
        ]
        assert check_preservation(parent, child, n_samples=10, tol=1e-8).pass_

    def test_bias_kept_once(self):
        parent = _two_conv_net(93)
        req = SubnetMorphRequest(
            layer_index=0, path_specs=[[(3, 4)], [(3, 4)]], split_weights=[0.5, 0.5]
        )
        child = morph_stacked(parent, req)
        p0, p1 = child.layers[0].paths
        assert np.array_equal(p0[-1].bias, parent.layers[0].bias)
        assert not p1[-1].bias.any()

    def test_path_channel_mismatch_raises(self):
        parent = _two_conv_net(94)
        with pytest.raises(ShapeError):
            morph_stacked(
                parent,
                SubnetMorphRequest(layer_index=0, path_specs=[[(3, 5)]], split_weights=[1.0]),
            )

    def test_path_parity_mismatch_raises(self):
        parent = _two_conv_net(95)
        with pytest.raises(ShapeError):
            morph_stacked(
                parent,
                SubnetMorphRequest(
                    layer_index=0, path_specs=[[(3, 4)], [(4, 8), (3, 4)]], split_weights=[0.5, 0.5]
                ),
            )

    @pytest.mark.parametrize("specs", [[[]], [[(3, 4)], []]], ids=["only", "second"])
    def test_empty_path_rejected_by_the_request(self, specs):
        with pytest.raises(ShapeError, match="empty path spec"):
            SubnetMorphRequest(0, specs, [1.0 / len(specs)] * len(specs))

    def test_weight_sum_validated(self):
        with pytest.raises(ShapeError):
            SubnetMorphRequest(layer_index=0, path_specs=[[(3, 4)]], split_weights=[0.9])

    @pytest.mark.parametrize(
        "weights", [[np.nan], [np.inf, -np.inf], [0.5, np.nan], [0.6, 0.6], [None], [1j], ["1.0"], [0.5, "0.5"], [10**400]]
    )
    def test_non_finite_weights_rejected(self, weights):
        with pytest.raises(ShapeError, match="finite"):
            SubnetMorphRequest(layer_index=0, path_specs=[[(3, 4)]] * len(weights), split_weights=weights)


def _sequential(net, i, widths, kernels, seed=0):
    """``net`` with conv i replaced by the chain ``morph_sequential`` factors it into."""
    c_out = net.layers[i].c_out
    return morph_stacked(net, SubnetMorphRequest(i, [list(zip(kernels, widths + [c_out]))], [1.0], seed=seed))


WHOLE_OUTPUT_CHAIN = [
    # (name, morph, the new or changed convs' (kernel, pad) in net order)
    ("depth 3x3 -> 3x3 o 3x3", lambda net: insert_depth(net, DepthMorphRequest(0, c_l=16, k1=3, k2=3, seed=1)), [(3, 2), (3, 0)]),
    ("widen the pad-2 conv", lambda net: widen(net, WidthMorphRequest(0, new_width=20, seed=2)), [(3, 2), (3, 0)]),
    ("expand the pad-0 conv", lambda net: expand_kernel(net, 2, 5), [(5, 1)]),
    ("depth 3x3 -> 1x1 o 3x3", lambda net: insert_depth(net, DepthMorphRequest(6, c_l=8, k1=1, k2=3, seed=3)), [(1, 1), (3, 0)]),
    ("sequential 5x5 pad 1 -> 3x3 o 1x1 o 3x3", lambda net: _sequential(net, 2, [24, 24], [3, 1, 3], seed=4), [(3, 1), (1, 0), (3, 0)]),
    ("stacked 5x5 -> 5x5 + 3x3 o 5x5", lambda net: morph_stacked(
        net, SubnetMorphRequest(8, [[(5, 4)], [(3, 8), (5, 4)]], [0.3, 0.7], seed=5)), [(5, 2), (3, 3), (5, 0)]),
]


def test_every_morph_matches_its_parent_on_the_whole_output():
    # each child is saved and loaded, then compared, border included, with
    # its parent and with the first net of the chain
    root = build_network(parse_arch("(3:4)(5:4)(3:3)"), (2, 8, 8), seed=6, base="tanh")
    rng = make_rng(7)
    xs = [rng.standard_normal(root.input_shape) for _ in range(3)]
    nets = [root]
    for name, morph, pads in WHOLE_OUTPUT_CHAIN:
        child = deserialize(serialize(morph(nets[-1])))
        convs = [(c.kernel, c.pad) for c in _convs(child.layers)]
        assert child != nets[-1] and all(kp in convs for kp in pads), name
        for parent in (nets[-1], root):
            dev = max(np.abs(forward(parent, x) - forward(child, x)).max() for x in xs)
            assert dev <= 1e-8, f"{name}: max deviation {dev:.3e}"
            report = check_preservation(parent, child, n_samples=3, tol=1e-8)
            assert report.pass_ and report.crop_border == 0, f"{name}: {report.to_text()}"
        nets.append(child)


def _bytes_or_error(morph):
    """The weight file of ``morph()``'s child, or the type of the error it raises."""
    try:
        return serialize(morph())
    except (InfeasibleMorphError, ShapeError) as exc:
        return type(exc)


@st.composite
def one_path_requests(draw):
    """A 1-3 conv net of at most 8 channels over at most 10x10 images, one
    of its convs, and a one- or two-factor path for it of kernels up to 5."""
    kernel, channels = st.sampled_from([1, 3, 5]), st.integers(1, 8)
    convs = draw(st.lists(st.tuples(kernel, channels), min_size=1, max_size=3))
    arch = "".join(f"({k}:{c})" for k, c in convs)
    hw = draw(st.integers(1, 10))
    net = build_network(parse_arch(arch), (draw(channels), hw, hw), seed=draw(st.integers(0, 99)), base=draw(st.sampled_from(BASES)))
    i = draw(st.sampled_from(net.conv_indices()))
    return net, i, draw(kernel), draw(kernel), draw(channels), draw(st.integers(0, 99))


class TestOneSpliceForEveryKind:
    """A one-path subnet morph is the depth or kernel-size morph it spells,
    byte for byte: all three end in the same splice."""

    @settings(max_examples=60, deadline=None)
    @given(one_path_requests())
    def test_two_factor_path_is_the_depth_morph(self, case):
        net, i, k1, k2, c_l, seed = case
        c_out = net.layers[i].c_out
        subnet = _bytes_or_error(lambda: morph_stacked(net, SubnetMorphRequest(i, [[(k1, c_l), (k2, c_out)]], [1.0], seed=seed)))
        depth = _bytes_or_error(lambda: insert_depth(net, DepthMorphRequest(i, c_l, k1, k2, seed=seed), "practical"))
        assert subnet == depth

    @settings(max_examples=60, deadline=None)
    @given(one_path_requests())
    def test_one_factor_path_is_the_kernel_size_morph(self, case):
        net, i, k, *_ = case
        c_out = net.layers[i].c_out
        subnet = _bytes_or_error(lambda: morph_stacked(net, SubnetMorphRequest(i, [[(k, c_out)]], [1.0])))
        assert subnet == _bytes_or_error(lambda: expand_kernel(net, i, k))
