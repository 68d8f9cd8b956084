"""Layer IR, parametric activations, and forward execution."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from netmorph import (
    ConvLayer,
    DepthMorphRequest,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    ShapeError,
    TrainConfig,
    build_network,
    check_preservation,
    compose_filters,
    deserialize,
    forward,
    insert_depth,
    make_rng,
    pact_eval,
    pact_grad,
    pad_filter,
    parse_arch,
    same_pad_conv,
    serialize,
    train_sgd,
)
from netmorph import netdef
from netmorph.train import Dataset
from netmorph.netdef import BASES, forward_batch, forward_pass

# finite inputs with the awkward ends: both zeros, subnormals, huge values
EDGE_INPUTS = np.array([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e-300, -1e-300, 1e300, -1e300, 710.0, -710.0])


class TestPActEval:
    def test_a1_is_identity(self):
        assert pact_eval("relu", 1.0, -3.5) == -3.5

    def test_a0_is_plain_relu(self):
        assert pact_eval("relu", 0.0, -3.5) == 0.0

    def test_tanh_midpoint(self):
        got = pact_eval("tanh", 0.5, 1.0)
        assert got == pytest.approx(0.5 * np.tanh(1.0) + 0.5, abs=1e-15)

    @pytest.mark.parametrize("base", ["relu", "tanh", "sigmoid"])
    def test_endpoints_on_random_points(self, base):
        rng = make_rng(21)
        x = rng.standard_normal(10_000)
        np.testing.assert_allclose(pact_eval(base, 1.0, x), x, atol=0)
        phi = {"relu": np.maximum(x, 0), "tanh": np.tanh(x), "sigmoid": 1 / (1 + np.exp(-x))}[base]
        np.testing.assert_allclose(pact_eval(base, 0.0, x), phi, atol=0)

    def test_sigmoid_saturates_without_overflow(self):
        x = np.array([-1000.0, 1000.0])
        with np.errstate(over="raise"):
            np.testing.assert_array_equal(pact_eval("sigmoid", 0.0, x), [0.0, 1.0])
            d_dx, d_da = pact_grad("sigmoid", 0.0, x)
        np.testing.assert_array_equal(d_dx, [0.0, 0.0])
        np.testing.assert_array_equal(d_da, x - [0.0, 1.0])

    @pytest.mark.parametrize("a", [0.0, 1.0])
    @pytest.mark.parametrize("base", BASES)
    def test_endpoints_equal_the_formula(self, base, a):
        """At a in {0, 1} pact_eval skips the term the formula multiplies by
        zero, and still equals (1-a)*phi(x) + a*x on finite inputs.  The one
        bit that differs is the sign of a zero, which np.array_equal ignores:
        at a=1 the ReLU and Sigmoid formula gives +0 for x = -0 (0*phi(-0)
        is +0), where the identity keeps -0."""
        x = np.concatenate([EDGE_INPUTS, make_rng(26).standard_normal(1000) * 10])
        with np.errstate(over="raise", invalid="raise"):
            got = pact_eval(base, a, x)
            want = (1.0 - a) * netdef._phi(base, x) + a * x
        assert np.array_equal(got, want)

    def test_identity_returns_its_input(self):
        x = make_rng(27).standard_normal(5)
        assert pact_eval("tanh", 1.0, x) is x

    def test_a_out_of_range_raises(self):
        with pytest.raises(ShapeError):
            pact_eval("relu", 1.5, 0.0)
        with pytest.raises(ShapeError):
            pact_eval("relu", -0.1, 0.0)

    @pytest.mark.parametrize("a", ["0.5", None, 1j, float("nan"), float("inf"), 1.5, -0.1], ids=repr)
    def test_bad_a_is_a_shape_error(self, a):
        with pytest.raises(ShapeError, match="a must be"):
            PActLayer("relu", a)


class TestPActGrad:
    def test_tanh_linear_branch(self):
        d_dx, d_da = pact_grad("tanh", 1.0, 2.0)
        assert d_dx == pytest.approx(1.0)
        assert d_da == pytest.approx(2.0 - np.tanh(2.0))

    def test_relu_positive_region(self):
        d_dx, d_da = pact_grad("relu", 0.3, 5.0)
        assert d_dx == pytest.approx(1.0)
        assert d_da == pytest.approx(0.0)

    def test_matches_finite_differences(self):
        rng = make_rng(22)
        eps = 1e-6
        checked = 0
        while checked < 1000:
            base = str(rng.choice(["relu", "tanh", "sigmoid"]))
            a = float(rng.uniform(0.05, 0.95))
            x = float(rng.standard_normal() * 2)
            if base == "relu" and abs(x) < 1e-3:
                continue  # stay away from the kink
            d_dx, d_da = pact_grad(base, a, x)
            fd_dx = (pact_eval(base, a, x + eps) - pact_eval(base, a, x - eps)) / (2 * eps)
            fd_da = (pact_eval(base, a + eps, x) - pact_eval(base, a - eps, x)) / (2 * eps)
            assert d_dx == pytest.approx(fd_dx, rel=1e-6, abs=1e-9)
            assert d_da == pytest.approx(fd_da, rel=1e-6, abs=1e-9)
            checked += 1


class TestLayers:
    def test_negative_pad_rejected(self):
        for pad in (-1, 1.5):
            with pytest.raises(ShapeError, match="pad must be an integer >= 0"):
                ConvLayer(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1), pad=pad)

    def test_numpy_integer_pad_is_stored_as_int(self):
        rng = make_rng(23)
        w, b = rng.standard_normal((2, 1, 3, 3)), rng.standard_normal(2)
        numpy_pad, int_pad = ConvLayer(w, b, np.int64(1)), ConvLayer(w, b, 1)
        assert numpy_pad == int_pad and type(numpy_pad.pad) is int
        nets = [NetworkDef(input_shape=(1, 4, 4), layers=[conv]) for conv in (numpy_pad, int_pad)]
        assert serialize(nets[0]) == serialize(nets[1])
        for pad in (1.0, -1):
            with pytest.raises(ShapeError):
                ConvLayer(w, b, pad)

    def test_stack_depth_limited(self):
        def nested(depth):
            layer = same_pad_conv(np.ones((1, 1, 3, 3)))
            for _ in range(depth):
                layer = ParallelLayer(paths=((layer,),))
            return [layer]

        net = NetworkDef(input_shape=(1, 4, 4), layers=nested(netdef.MAX_STACK_DEPTH))
        assert forward(net, np.ones((1, 4, 4))).shape == (1, 4, 4)
        with pytest.raises(ShapeError, match="nested more than"):
            NetworkDef(input_shape=(1, 4, 4), layers=nested(netdef.MAX_STACK_DEPTH + 1))

    @pytest.mark.parametrize("k, pad, side",[(3, 0, 3), (3, 3, 9), (1, 2, 9), (5, 2, 5)])
    def test_any_pad_walks_the_spatial_size(self, k, pad, side):
        conv = ConvLayer(weights=np.zeros((2, 1, k, k)), bias=np.zeros(2), pad=pad)
        net = NetworkDef(input_shape=(1, 5, 5), layers=[conv, same_pad_conv(np.zeros((3, 2, 5, 5)))])
        assert net._output_shape == (3, side, side)
        assert forward(net, np.ones((1, 5, 5))).shape == (3, side, side)

    @pytest.mark.parametrize(
        "layers, shape, values",
        [
            # the paper's parent: the 32->32 and 32->64 5x5 convs' columns
            ("(5:32)(5:32)(5:64)", (3, 32, 32), 32 * 25 * 32 * 32),
            ("(3:16)(3:16)", (3, 16, 16), 16 * 9 * 16 * 16),
            # mnist-train's child: a 1x1 conv at pad 0 builds no columns, so
            # its 50-channel output blob is the largest array
            ("(1:50)(1:10)", (784, 1, 1), 50),
            # a 1x1 conv at pad 1 builds columns of its grown blob (the
            # 5x5 conv at pad 0 lets the blob grow)
            (
                [
                    ConvLayer(weights=np.zeros((1, 2, 1, 1)), bias=np.zeros(1), pad=1),
                    ConvLayer(weights=np.zeros((1, 1, 5, 5)), bias=np.zeros(1), pad=0),
                ],
                (2, 3, 3),
                2 * 5 * 5,
            ),
            # a stack: the largest array on any of its paths
            (
                [ParallelLayer(paths=((same_pad_conv(np.zeros((2, 2, 1, 1))),), (same_pad_conv(np.zeros((2, 2, 3, 3))),)))],
                (2, 4, 4),
                2 * 9 * 16,
            ),
            # no layers: forward_batch copies the input blob
            ([], (3, 4, 5), 60),
        ],
        ids=["paper-parent", "3x3-pair", "mnist-child", "1x1-pad1", "stack", "no-layers"],
    )
    def test_item_bytes_is_the_largest_array_per_item(self, layers, shape, values):
        if isinstance(layers, str):
            layers = build_network(parse_arch(layers), shape).layers
        assert NetworkDef(input_shape=shape, layers=layers)._item_bytes == 8 * values

    def test_bias_length_checked(self):
        with pytest.raises(ShapeError):
            same_pad_conv(np.zeros((2, 1, 1, 1)), bias=np.zeros(3))

    def test_even_kernel_rejected(self):
        with pytest.raises(ShapeError):
            same_pad_conv(np.zeros((1, 1, 2, 2)))

    def test_weights_are_frozen(self):
        layer = same_pad_conv(np.ones((1, 1, 1, 1)))
        with pytest.raises(ValueError):
            layer.weights[0, 0, 0, 0] = 2.0

    def test_layer_copies_the_callers_arrays(self):
        w, b = np.zeros((2, 1, 3, 3)), np.zeros(2)
        layer = same_pad_conv(w, bias=b)
        w[0, 0, 0, 0] = 1.0
        b[0] = 1.0
        assert not layer.weights.any() and not layer.bias.any()

        p = {"w": np.ones((2, 1, 3, 3)), "b": np.ones(2)}
        rebuilt = layer.with_params(p)
        p["w"][0, 0, 0, 0] = 0.0
        p["b"][0] = 0.0
        assert rebuilt.weights.all() and rebuilt.bias.all()

    def test_channel_chain_validated(self):
        with pytest.raises(ShapeError):
            NetworkDef(
                input_shape=(1, 4, 4),
                layers=[same_pad_conv(np.zeros((2, 1, 1, 1))), same_pad_conv(np.zeros((2, 3, 1, 1)))],
            )

    def test_parallel_paths_must_agree_on_channels(self):
        with pytest.raises(ShapeError):
            NetworkDef(
                input_shape=(1, 4, 4),
                layers=[
                    ParallelLayer(
                        paths=(
                            (same_pad_conv(np.zeros((2, 1, 1, 1))),),
                            (same_pad_conv(np.zeros((3, 1, 1, 1))),),
                        )
                    )
                ],
            )


def _equality_net(seed=0):
    """conv -> pact -> two-path stack (one path nested) -> fc conv."""
    rng = make_rng(seed)
    conv = same_pad_conv(rng.standard_normal((3, 2, 3, 3)), bias=rng.standard_normal(3))
    inner = ParallelLayer(
        paths=((same_pad_conv(rng.standard_normal((4, 3, 1, 1))),), (same_pad_conv(np.zeros((4, 3, 3, 3))),))
    )
    stack = ParallelLayer(
        paths=((same_pad_conv(rng.standard_normal((4, 3, 3, 3))),), (inner, PActLayer(base="sigmoid", a=0.5)))
    )
    fc = same_pad_conv(rng.standard_normal((2, 4, 1, 1)), bias=rng.standard_normal(2), fc=True)
    return NetworkDef(input_shape=(2, 5, 5), layers=[conv, PActLayer(base="tanh", a=0.25), stack, fc])


def _changed_conv(layer, what):
    if what == "weight":
        w = layer.weights.copy()
        w.flat[-1] = np.nextafter(w.flat[-1], np.inf)
        return same_pad_conv(w, bias=layer.bias, fc=layer.fc)
    if what == "bias":
        return same_pad_conv(layer.weights, bias=layer.bias + 1.0, fc=layer.fc)
    return same_pad_conv(layer.weights, bias=layer.bias, fc=not layer.fc)


class TestValueEquality:
    def test_deserialized_twin_is_equal(self):
        net = _equality_net(1)
        twin = deserialize(serialize(net))
        assert twin == net and not twin != net
        for a, b in zip(twin.layers, net.layers):
            assert a is not b and a == b
        assert twin.layers[2].paths[1][0] == net.layers[2].paths[1][0]  # nested stack

    @pytest.mark.parametrize("what", ["weight", "bias", "fc"])
    def test_one_change_breaks_equality(self, what):
        net = _equality_net(2)
        twin = deserialize(serialize(net))
        conv = _changed_conv(twin.layers[0], what)
        assert conv != net.layers[0] and not conv == net.layers[0]
        assert twin.with_layers([conv, *twin.layers[1:]]) != net

        path = twin.layers[2].paths[0]
        stack = ParallelLayer(paths=((_changed_conv(path[0], what),), twin.layers[2].paths[1]))
        assert stack != net.layers[2]
        assert twin.with_layers([*twin.layers[:2], stack, twin.layers[3]]) != net

    def test_pad_change_breaks_equality(self):
        conv = _equality_net(5).layers[0]
        assert replace(conv, pad=conv.pad + 1) != conv
        assert replace(conv, pad=conv.pad) == conv

    def test_kernel_growth_breaks_equality(self):
        conv = _equality_net(3).layers[0]
        grown = same_pad_conv(pad_filter(conv.weights, 5), bias=conv.bias)
        assert grown != conv

    def test_other_layer_types_compare_unequal(self):
        net = _equality_net(4)
        assert net.layers[0] != net.layers[1] and net.layers[1] != net.layers[0]
        assert net.layers[0] != net.layers[2] and net.layers[0] != "conv"


class TestForward:
    def test_affine_scalar(self):
        net = NetworkDef(
            input_shape=(1, 1, 1),
            layers=[same_pad_conv(np.full((1, 1, 1, 1), 3.0), bias=np.array([1.0]))],
        )
        out = forward(net, np.full((1, 1, 1), 2.0))
        assert out.reshape(()) == pytest.approx(7.0)

    def test_identity_activation_chain(self):
        rng = make_rng(23)
        net = NetworkDef(
            input_shape=(2, 4, 4),
            layers=[PActLayer(base="sigmoid", a=1.0), PActLayer(base="relu", a=1.0)],
        )
        x = rng.standard_normal((2, 4, 4))
        np.testing.assert_allclose(forward(net, x), x, atol=0)

    def test_two_convs_equal_composed_conv_on_interior(self):
        rng = make_rng(24)
        f_lo = rng.standard_normal((3, 2, 3, 3))
        f_hi = rng.standard_normal((2, 3, 3, 3))
        stacked = NetworkDef(
            input_shape=(2, 8, 8),
            layers=[same_pad_conv(f_lo), same_pad_conv(f_hi)],
        )
        single = NetworkDef(
            input_shape=(2, 8, 8),
            layers=[same_pad_conv(compose_filters(f_lo, f_hi))],
        )
        x = rng.standard_normal((2, 8, 8))
        a, b = forward(stacked, x), forward(single, x)
        np.testing.assert_allclose(a[:, 2:-2, 2:-2], b[:, 2:-2, 2:-2], atol=1e-10)

    def test_deterministic(self):
        rng = make_rng(25)
        net = NetworkDef(
            input_shape=(1, 4, 4),
            layers=[same_pad_conv(rng.standard_normal((2, 1, 3, 3))), PActLayer(base="tanh", a=0.25)],
        )
        x = rng.standard_normal((1, 4, 4))
        assert np.array_equal(forward(net, x), forward(net, x))

    def test_shape_mismatch_raises(self):
        net = NetworkDef(input_shape=(1, 4, 4), layers=[])
        with pytest.raises(ShapeError):
            forward(net, np.zeros((2, 4, 4)))

    def test_parallel_paths_sum(self):
        f = np.full((1, 1, 1, 1), 2.0)
        net = NetworkDef(
            input_shape=(1, 3, 3),
            layers=[ParallelLayer(paths=((same_pad_conv(f),), (same_pad_conv(f),)))],
        )
        x = np.ones((1, 3, 3))
        np.testing.assert_allclose(forward(net, x), np.full((1, 3, 3), 4.0), atol=0)


def _aliasing_layers(seed=0):
    """Every way a layer can hand an array on.  The leading identity
    activation returns the caller's array, which a conv, a plain activation
    and another identity then read side by side; later, an identity and a
    stack's lone identity path get a plain activation's output."""
    rng = make_rng(seed)
    conv = same_pad_conv(rng.standard_normal((2, 2, 3, 3)), bias=rng.standard_normal(2))
    return [
        PActLayer(base="relu", a=1.0),
        ParallelLayer(paths=((conv,), (PActLayer(base="sigmoid", a=0.0),), (PActLayer(base="tanh", a=1.0),))),
        PActLayer(base="relu", a=0.0),
        PActLayer(base="sigmoid", a=1.0),
        ParallelLayer(paths=((PActLayer(base="tanh", a=1.0),),)),
    ]


class TestNoWritesIntoInputs:
    def test_forward_pass_leaves_its_input_unchanged(self):
        layers = _aliasing_layers(28)
        x = make_rng(29).standard_normal((2, 2, 5, 5))
        x[0, 0, 0, :2] = [0.0, -0.0]
        before = x.copy()
        x.setflags(write=False)  # a write into x raises
        caches = []
        out = forward_pass(layers, [layer.params() for layer in layers], x, caches)
        assert np.array_equal(x, before) and np.array_equal(np.signbit(x), np.signbit(before))
        assert caches[0] is x and caches[1][2][0] is x and not np.shares_memory(out, x)

    @pytest.mark.parametrize("identity_only", [False, True], ids=["mixed", "identity-only"])
    def test_outputs_share_no_memory_with_the_input(self, identity_only):
        layers = [PActLayer(base=b, a=1.0) for b in BASES] if identity_only else _aliasing_layers(30)
        net = NetworkDef(input_shape=(2, 5, 5), layers=layers)
        batch = make_rng(31).standard_normal((3, 2, 5, 5))
        out = forward_batch(net, batch)
        assert not np.shares_memory(out, batch)
        blob = batch[0]
        one = forward(net, blob)
        assert not np.shares_memory(one, blob)
        if identity_only:
            assert np.array_equal(out, batch) and np.array_equal(one, blob)


def test_identity_activation_computes_nothing_in_verify(monkeypatch):
    # the paper's (5:4C)(1:C) depth morph joins its two convs by an a=1 PAct
    parent = build_network(parse_arch("(5:4)(5:4)"), (3, 12, 12), seed=11, base="sigmoid")
    child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=16, k1=5, k2=1, seed=0))
    assert [layer.a for layer in child.layers if isinstance(layer, PActLayer)] == [1.0, 0.0, 0.0]
    channels = []

    def counting(base, x, phi=netdef._phi):
        channels.append(x.shape[1])
        return phi(base, x)

    monkeypatch.setattr(netdef, "_phi", counting)
    assert check_preservation(parent, child, n_samples=5, tol=1e-8).pass_
    # per sample: the parent's two activations and the child's two a=0
    # ones, all on 4 channels; the a=1 one would read the 16-channel blob
    assert channels == [4] * 20



@st.composite
def identity_joined_chains(draw):
    """A conv at any pad, then one or two more joined to it by a=1
    activations at pad 0, then an a=0 activation; channels up to 8, images
    up to 10x10, kernels up to 5, nonzero biases."""
    rng = make_rng(draw(st.integers(0, 2**16)))
    base = draw(st.sampled_from(BASES))
    channels = [draw(st.integers(1, 8)) for _ in range(draw(st.sampled_from((3, 4, 2))))]
    kernels = [draw(st.sampled_from((1, 3, 5))) for _ in channels[1:]]
    growth = sum(k - 1 for k in kernels)
    pad = draw(st.integers(0, (growth + kernels[0] - 1) // 2))
    side = draw(st.integers(1, 10))
    assume(side + 2 * pad - growth >= 1)
    layers = []
    for i, (c_in, c_out, k) in enumerate(zip(channels, channels[1:], kernels)):
        if i:
            layers.append(PActLayer(base, 1.0))
        w = rng.standard_normal((c_out, c_in, k, k))
        layers.append(ConvLayer(w, rng.standard_normal(c_out) + 1.0, pad if i == 0 else 0))
    layers.append(PActLayer(base, 0.0))
    return NetworkDef(input_shape=(channels[0], side, side), layers=layers)


def _layer_by_layer(net, x):
    """Every layer of ``net`` run in turn: with a caches list, as training runs them."""
    return forward_pass(net.layers, [layer.params() for layer in net.layers], x, caches=[])


@pytest.fixture
def conv_calls(monkeypatch):
    """The weight shapes of the convs the layer engine runs."""
    shapes, real = [], netdef.conv_batch

    def spy(x, f, pad):
        shapes.append(f.shape)
        return real(x, f, pad)

    monkeypatch.setattr(netdef, "conv_batch", spy)
    return shapes


def _pair(c_in, c_mid, c_out, k1, k2, a=1.0, hi_pad=0, parallel=False, seed=0):
    """conv (c_in -> c_mid, k1, pad 1) -> PAct(a) -> conv (c_mid -> c_out, k2,
    ``hi_pad``) on an 8x8 image, the activation on a one-path stack if
    ``parallel``."""
    rng = make_rng(seed)
    act = PActLayer("relu", a)
    layers = [
        ConvLayer(rng.standard_normal((c_mid, c_in, k1, k1)), rng.standard_normal(c_mid), 1),
        ParallelLayer(paths=((act,),)) if parallel else act,
        ConvLayer(rng.standard_normal((c_out, c_mid, k2, k2)), rng.standard_normal(c_out), hi_pad),
    ]
    return NetworkDef(input_shape=(c_in, 8, 8), layers=layers)


class TestInferencePlan:
    """Inference runs each conv -> a=1 activation -> conv at pad 0 as its one
    composed conv where that takes fewer multiply-adds; training runs every layer."""

    @settings(max_examples=60, deadline=None)
    @given(identity_joined_chains(), st.integers(0, 2**16))
    def test_matches_layer_by_layer(self, net, seed):
        x = make_rng(seed).standard_normal((2,) + net.input_shape)
        ref = _layer_by_layer(net, x)
        scale = np.abs(ref).max()
        assert np.abs(forward_batch(net, x) - ref).max() <= 1e-12 * scale
        # against a parent whose first conv differs, so that no layer is shared
        layers = list(net.layers)
        layers[0] = replace(layers[0], bias=layers[0].bias + 0.5)
        parent = net.with_layers(layers)
        report = check_preservation(parent, net, n_samples=2, tol=0.0, seed=seed)
        draws = make_rng(seed)
        dev = 0.0
        for _ in range(2):
            x = draws.standard_normal((1,) + net.input_shape)
            p, c = _layer_by_layer(parent, x), _layer_by_layer(net, x)
            dev = max(dev, np.abs(p - c).max())
            scale = max(scale, np.abs(p).max(), np.abs(c).max())
        assert abs(report.max_abs_dev - dev) <= 1e-12 * scale

    def test_paper_pair_runs_one_conv(self, conv_calls):
        # (5:16)(1:4) from 4 channels: 4*4*25 multiply-adds per pixel against 16*(4*25 + 4)
        net = _pair(4, 16, 4, 5, 1)
        x = make_rng(1).standard_normal((2,) + net.input_shape)
        ref = _layer_by_layer(net, x)
        conv_calls.clear()
        np.testing.assert_allclose(forward_batch(net, x), ref, rtol=0, atol=1e-12 * np.abs(ref).max())
        assert conv_calls == [(4, 4, 5, 5)]

    @pytest.mark.parametrize(
        "net",
        [
            _pair(4, 16, 4, 5, 1, a=0.999),
            _pair(4, 16, 4, 5, 1, hi_pad=1),
            _pair(4, 16, 4, 5, 1, parallel=True),
            # 8*8*25 multiply-adds per pixel composed, against 2*(8*9 + 8*9) as two convs
            _pair(8, 2, 8, 3, 3),
        ],
        ids=["a=0.999", "upper-pad-1", "stack-between", "costs-more"],
    )
    def test_runs_that_stay_two_convs(self, net, conv_calls):
        x = make_rng(2).standard_normal((2,) + net.input_shape)
        ref = _layer_by_layer(net, x)
        conv_calls.clear()
        assert np.array_equal(forward_batch(net, x), ref)
        assert conv_calls == [net.layers[0].weights.shape, net.layers[-1].weights.shape]

    def test_training_runs_every_conv(self, conv_calls):
        # mnist-train's 784->50->10 child: training runs the 784->50 conv
        rng = make_rng(3)
        net = NetworkDef(
            input_shape=(784, 1, 1),
            layers=[
                same_pad_conv(rng.standard_normal((50, 784, 1, 1)) * 0.03, fc=True),
                PActLayer(base="relu", a=1.0),
                same_pad_conv(rng.standard_normal((10, 50, 1, 1)), fc=True),
            ],
        )
        ds = Dataset(images=rng.random((8, 784, 1, 1)), labels=np.arange(8) % 10)
        train_sgd(net, ds, TrainConfig(batch_size=8, epochs=1))
        assert conv_calls == [(50, 784, 1, 1), (10, 50, 1, 1)]

    def test_overflowing_composition_keeps_the_layers(self, conv_calls):
        # 1e200 * 1e200 overflows, but each conv alone maps 1e-300 to a finite value
        big = np.full((1, 1, 1, 1), 1e200)
        net = NetworkDef(
            input_shape=(1, 1, 1),
            layers=[ConvLayer(big, np.zeros(1), 0), PActLayer("tanh", 1.0), ConvLayer(big, np.zeros(1), 0)],
        )
        out = forward(net, np.full((1, 1, 1), 1e-300))
        assert conv_calls == [(1, 1, 1, 1), (1, 1, 1, 1)]
        assert out.item() == pytest.approx(1e100)
