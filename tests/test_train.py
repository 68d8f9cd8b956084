"""Training: IDX ingestion, backprop gradients, SGD behavior, evaluation."""

import gzip
import struct

import numpy as np
import pytest

from netmorph import (
    ConvLayer,
    Dataset,
    DepthMorphRequest,
    FormatError,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    ShapeError,
    SubnetMorphRequest,
    TrainConfig,
    build_network,
    check_preservation,
    deserialize,
    evaluate,
    forward,
    insert_depth,
    load_mnist_idx,
    make_rng,
    morph_stacked,
    parse_arch,
    predictions,
    same_pad_conv,
    serialize,
    train_sgd,
)
from netmorph import netdef, tensor_ops, train
from netmorph.train import _TrainState, forward_batch

from conftest import traced_peak


# An images header that declares 2**31-1 items of (2**31-1)**2 pixels, and no pixels.
OVERSIZED_IMAGES = struct.pack(">4i", 0x803, 2**31 - 1, 2**31 - 1, 2**31 - 1)


def damage_gzip(raw, how):
    """``raw`` gzipped and then damaged: cut in half, given a deflate block
    of the reserved type, or given an unknown compression method."""
    gz = bytearray(gzip.compress(raw, mtime=0))
    if how == "truncated":
        return bytes(gz[: len(gz) // 2])
    if how == "corrupt":
        gz[10] |= 0b110  # block type 11 is reserved
    else:
        gz[2] = 7  # 8 (deflate) is the only method
    return bytes(gz)


GZIP_DAMAGE = ["truncated", "corrupt", "bad-header"]


def write_idx_pair(tmp_path, n=20, rows=4, cols=4, seed=0, gz=False):
    rng = make_rng(seed)
    pixels = rng.integers(0, 256, size=(n, rows, cols), dtype=np.uint8)
    labels = rng.integers(0, 10, size=n, dtype=np.uint8)
    images = struct.pack(">4i", 0x803, n, rows, cols) + pixels.tobytes()
    lab = struct.pack(">2i", 0x801, n) + labels.tobytes()
    suffix = ".gz" if gz else ""
    ip = tmp_path / ("images-idx3-ubyte" + suffix)
    lp = tmp_path / ("labels-idx1-ubyte" + suffix)
    opener = gzip.open if gz else open
    with opener(ip, "wb") as fh:
        fh.write(images)
    with opener(lp, "wb") as fh:
        fh.write(lab)
    return ip, lp, pixels, labels


def micro_net(seed=0):
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(4, 1, 1),
        layers=[
            same_pad_conv(rng.standard_normal((6, 4, 1, 1)) * 0.5, bias=rng.standard_normal(6) * 0.1, fc=True),
            PActLayer(base="relu", a=0.3),
            same_pad_conv(rng.standard_normal((5, 6, 1, 1)) * 0.5, bias=rng.standard_normal(5) * 0.1, fc=True),
            PActLayer(base="tanh", a=0.7),
            same_pad_conv(rng.standard_normal((3, 5, 1, 1)) * 0.5, bias=rng.standard_normal(3) * 0.1, fc=True),
        ],
    )


def _random_conv(rng, c_out, c_in, k):
    return same_pad_conv(rng.standard_normal((c_out, c_in, k, k)) * 0.4, bias=rng.standard_normal(c_out) * 0.1)


def spatial_net(seed=0):
    """k=3 convs on a (2, 5, 5) blob, a PAct with 0 < a < 1, and a two-path
    stack whose second path is two convs deep."""
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(2, 5, 5),
        layers=[
            _random_conv(rng, 3, 2, 3),
            PActLayer(base="tanh", a=0.4),
            ParallelLayer(
                paths=(
                    (_random_conv(rng, 3, 3, 3),),
                    (_random_conv(rng, 4, 3, 1), PActLayer(base="sigmoid", a=0.6), _random_conv(rng, 3, 4, 3)),
                )
            ),
        ],
    )


def parallel_first_net(seed=0):
    """A two-path stack as the first layer, its second path two convs deep,
    so the network input feeds the first conv of each path."""
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(3, 4, 4),
        layers=[
            ParallelLayer(
                paths=(
                    (_random_conv(rng, 5, 3, 3),),
                    (_random_conv(rng, 4, 3, 1), PActLayer(base="tanh", a=0.4), _random_conv(rng, 5, 4, 3)),
                )
            ),
            PActLayer(base="sigmoid", a=0.6),
            _random_conv(rng, 2, 5, 1),
        ],
    )


def pact_first_net(seed=0):
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(2, 4, 4),
        layers=[
            PActLayer(base="relu", a=0.3),
            _random_conv(rng, 3, 2, 3),
            PActLayer(base="tanh", a=0.5),
            _random_conv(rng, 2, 3, 3),
        ],
    )


def flat_params(net):
    """(key, value) for every parameter, layer by layer."""
    return [(k, v) for layer in net.layers for k, v in layer.params().items()]


def nested_parallel_net(seed=0):
    rng = make_rng(seed)
    inner = ParallelLayer(paths=((_random_conv(rng, 4, 4, 3),), (_random_conv(rng, 2, 4, 1), _random_conv(rng, 4, 2, 3))))
    return NetworkDef(
        input_shape=(3, 6, 6),
        layers=[
            _random_conv(rng, 4, 3, 3),
            PActLayer(base="tanh", a=0.5),
            ParallelLayer(paths=((_random_conv(rng, 4, 4, 1),), (inner, PActLayer(base="sigmoid", a=0.3)))),
            _random_conv(rng, 2, 4, 1),
        ],
    )


class TestIdxLoader:
    def test_round_trip(self, tmp_path):
        ip, lp, pixels, labels = write_idx_pair(tmp_path)
        ds = load_mnist_idx(ip, lp)
        assert len(ds) == 20
        assert ds.images.shape == (20, 1, 4, 4)
        assert ds.images.max() <= 1.0 and ds.images.min() >= 0.0
        np.testing.assert_allclose(ds.images[:, 0] * 255.0, pixels, atol=1e-12)
        assert np.array_equal(ds.labels, labels)

    def test_gzip_transparent(self, tmp_path):
        ip, lp, _, labels = write_idx_pair(tmp_path, gz=True)
        ds = load_mnist_idx(ip, lp)
        assert np.array_equal(ds.labels, labels)

    def test_swapped_magic_rejected(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        with pytest.raises(FormatError, match="magic"):
            load_mnist_idx(lp, ip)

    def test_file_shorter_than_its_header_rejected(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        ip.write_bytes(ip.read_bytes()[:10])
        with pytest.raises(FormatError, match="images header needs 16 bytes, got 10"):
            load_mnist_idx(ip, lp)

    def test_truncated_pixels_rejected(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        data = ip.read_bytes()[:-5]
        ip.write_bytes(data)
        with pytest.raises(FormatError, match="truncated"):
            load_mnist_idx(ip, lp)

    def test_oversized_header_rejected(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        ip.write_bytes(OVERSIZED_IMAGES)
        with pytest.raises(FormatError, match="truncated"):
            load_mnist_idx(ip, lp)

    def test_count_mismatch_rejected(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        bad = tmp_path / "short-labels"
        bad.write_bytes(struct.pack(">2i", 0x801, 7) + bytes(7))
        with pytest.raises(FormatError, match="mismatch"):
            load_mnist_idx(ip, bad)

    def test_trailing_bytes_rejected(self, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        ip.write_bytes(ip.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            load_mnist_idx(ip, lp)

    @pytest.mark.parametrize("how", GZIP_DAMAGE)
    def test_damaged_gzip_rejected(self, how, tmp_path):
        ip, lp, *_ = write_idx_pair(tmp_path)
        ip.write_bytes(damage_gzip(ip.read_bytes(), how))
        with pytest.raises(FormatError, match="damaged gzip images file"):
            load_mnist_idx(ip, lp)

    def test_bad_dimensions_rejected(self, tmp_path):
        ip = tmp_path / "neg"
        ip.write_bytes(struct.pack(">4i", 0x803, -1, 4, 4))
        lp = tmp_path / "lab"
        lp.write_bytes(struct.pack(">2i", 0x801, 0))
        with pytest.raises(FormatError, match="dimensions"):
            load_mnist_idx(ip, lp)


class TestGradients:
    def test_backprop_matches_finite_differences(self):
        net = micro_net(1)
        state = _TrainState(net)
        rng = make_rng(2)
        x = rng.standard_normal((8, 4, 1, 1))
        y = rng.integers(0, 3, size=8)

        def loss_at():
            loss, _ = state.forward_backward(x, y)
            return loss

        _, grads = state.forward_backward(x, y)
        eps = 1e-6
        checked = 0
        for i, p in enumerate(state.params):
            for key in p:
                g = grads[i][key]
                if isinstance(p[key], float):  # activation parameter
                    orig = p[key]
                    p[key] = orig + eps
                    up = loss_at()
                    p[key] = orig - eps
                    down = loss_at()
                    p[key] = orig
                    fd = (up - down) / (2 * eps)
                    assert g == pytest.approx(fd, rel=1e-5, abs=1e-8)
                    checked += 1
                else:
                    flat = p[key].reshape(-1)
                    gflat = np.asarray(g).reshape(-1)
                    for j in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                        orig = flat[j]
                        flat[j] = orig + eps
                        up = loss_at()
                        flat[j] = orig - eps
                        down = loss_at()
                        flat[j] = orig
                        fd = (up - down) / (2 * eps)
                        assert gflat[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
                        checked += 1
        assert checked >= 20

    def test_spatial_convs_and_stack_match_finite_differences(self):
        state = _TrainState(spatial_net(12))
        rng = make_rng(13)
        x = rng.standard_normal((6, 2, 5, 5))
        y = rng.integers(0, 3 * 5 * 5, size=6)
        keys = _check_against_central_differences(state, x, y)
        assert keys == ["w", "b", "a", "0.0.w", "0.0.b", "1.0.w", "1.0.b", "1.1.a", "1.2.w", "1.2.b"]

    @pytest.mark.parametrize(
        "make_net, keys",
        [
            (parallel_first_net, ["0.0.w", "0.0.b", "1.0.w", "1.0.b", "1.1.a", "1.2.w", "1.2.b", "a", "w", "b"]),
            (pact_first_net, ["a", "w", "b", "a", "w", "b"]),
        ],
        ids=["parallel-first", "pact-first"],
    )
    def test_first_layer_without_input_gradient_matches_finite_differences(self, make_net, keys):
        # The input gradient of the first layer is not computed in training;
        # every parameter gradient, the first layer's included, must still be.
        net = make_net(17)
        rng = make_rng(18)
        x = rng.standard_normal((6,) + net.input_shape)
        y = rng.integers(0, 2 * 4 * 4, size=6)
        assert _check_against_central_differences(_TrainState(net), x, y) == keys

    @pytest.mark.parametrize("k, pad", [(1, 2), (3, 3)], ids=["1x1-pad2", "3x3-pad3"])
    def test_pad_past_the_kernel_matches_finite_differences(self, k, pad):
        # The middle conv pads more than k - 1, so its input gradient crops
        # dy; the first conv's gradients are computed through it.
        rng = make_rng(19)
        middle = ConvLayer(rng.standard_normal((3, 3, k, k)) * 0.4, rng.standard_normal(3) * 0.1, pad)
        net = NetworkDef(
            input_shape=(2, 4, 4),
            layers=[
                _random_conv(rng, 3, 2, 3),
                PActLayer(base="tanh", a=0.4),
                middle,
                PActLayer(base="sigmoid", a=0.6),
                ConvLayer(rng.standard_normal((2, 3, 5, 5)) * 0.2, np.zeros(2), 0),
            ],
        )
        assert net._output_shape == (2, 4, 4)
        x = rng.standard_normal((5, 2, 4, 4))
        y = rng.integers(0, 2 * 4 * 4, size=5)
        assert _check_against_central_differences(_TrainState(net), x, y) == ["w", "b", "a", "w", "b", "a", "w", "b"]


    @pytest.mark.parametrize("c_mid, c_test", [(6, 2), (2, 6)], ids=["narrowing", "widening"])
    def test_both_conv_routes_match_finite_differences(self, c_mid, c_test):
        # The middle 3x3 conv maps c_mid to c_test channels.  Narrowing, its
        # forward folds and its input gradient (the adjoint conv, widening)
        # builds columns; widening, the other way round.
        rng = make_rng(20)
        net = NetworkDef(
            input_shape=(2, 4, 4),
            layers=[
                _random_conv(rng, c_mid, 2, 3),
                PActLayer(base="tanh", a=0.4),
                _random_conv(rng, c_test, c_mid, 3),
                PActLayer(base="sigmoid", a=0.6),
                _random_conv(rng, 2, c_test, 1),
            ],
        )
        x = rng.standard_normal((5, 2, 4, 4))
        y = rng.integers(0, 2 * 4 * 4, size=5)
        assert _check_against_central_differences(_TrainState(net), x, y) == ["w", "b", "a", "w", "b", "a", "w", "b"]


def _check_against_central_differences(state, x, y, eps=1e-6):
    """Check every parameter gradient of ``state`` on the minibatch (x, y)
    against a central difference of the loss; return the keys checked."""
    _, grads = state.forward_backward(x, y)

    def central_difference(set_value, orig):
        set_value(orig + eps)
        up, _ = state.forward_backward(x, y)
        set_value(orig - eps)
        down, _ = state.forward_backward(x, y)
        set_value(orig)
        return (up - down) / (2 * eps)

    checked = []
    for i, p in enumerate(state.params):
        for key, value in p.items():
            if isinstance(value, float):
                fd = central_difference(lambda v: p.__setitem__(key, v), value)
                assert grads[i][key] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            else:
                flat, gflat = value.reshape(-1), grads[i][key].reshape(-1)
                for j in range(flat.size):
                    fd = central_difference(lambda v: flat.__setitem__(j, v), flat[j])
                    assert gflat[j] == pytest.approx(fd, rel=1e-5, abs=1e-8)
            checked.append(key)
    return checked


class TestTrainingCost:
    """One minibatch runs each conv forward once and computes the input
    gradient of every conv except those that read the network input."""

    def _conv_filters(self, monkeypatch, net, n_classes, seed):
        """(c_out, c_in) of the filter of every conv one training step runs."""
        shapes = []

        def counting(x, f, pad, conv_batch=tensor_ops.conv_batch):
            shapes.append(f.shape[:2])
            return conv_batch(x, f, pad)

        monkeypatch.setattr(tensor_ops, "conv_batch", counting)
        monkeypatch.setattr(netdef, "conv_batch", counting)
        rng = make_rng(seed)
        _TrainState(net).forward_backward(rng.random((8,) + net.input_shape), rng.integers(0, n_classes, size=8))
        return sorted(shapes)

    def test_mnist_child_skips_the_input_gradient(self, monkeypatch):
        rng = make_rng(19)
        net = NetworkDef(
            input_shape=(784, 1, 1),
            layers=[
                same_pad_conv(rng.standard_normal((50, 784, 1, 1)) * 0.05, fc=True),
                PActLayer(base="relu", a=1.0),
                same_pad_conv(rng.standard_normal((10, 50, 1, 1)) * 0.1, fc=True),
            ],
        )
        # two forward convs, and the input gradient of the second (its adjoint filter is 50x10)
        assert self._conv_filters(monkeypatch, net, 10, 20) == sorted([(50, 784), (10, 50), (50, 10)])

    def test_no_path_of_a_first_stack_computes_an_input_gradient(self, monkeypatch):
        forward = [(5, 3), (4, 3), (5, 4), (2, 5)]
        # adjoints of the last conv and of the second path's second conv; a
        # first conv's adjoint would have 3 output channels
        input_grads = [(5, 2), (4, 5)]
        assert self._conv_filters(monkeypatch, parallel_first_net(21), 2 * 4 * 4, 22) == sorted(forward + input_grads)


class TestTrainConfig:
    @pytest.mark.parametrize(
        "setting",
        [
            {"learning_rate": -0.1},
            {"learning_rate": float("nan")},
            {"learning_rate": float("inf")},
            {"a_learning_rate": -0.1},
            {"a_learning_rate": float("nan")},
            {"a_learning_rate": float("inf")},
            {"momentum": float("nan")},
            {"momentum": float("inf")},
            {"momentum": float("-inf")},
            pytest.param({"learning_rate": 10**400}, id="learning_rate=huge-int"),
            {"learning_rate": "1e-8"},
            {"learning_rate": None},
            {"momentum": "1e-8"},
            {"momentum": None},
            {"epochs": -1},
            {"batch_size": 0},
            {"epochs": 1.5},
            {"batch_size": 2.5},
            {"seed": 1.5},
            {"seed": -1},
        ],
        ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_meaningless_setting_rejected(self, setting):
        with pytest.raises(ShapeError):
            TrainConfig(**setting)

    def test_boundary_settings_accepted(self):
        cfg = TrainConfig(learning_rate=0.0, a_learning_rate=0.0, momentum=-0.5, epochs=0)
        assert cfg.epochs == 0
        assert TrainConfig(batch_size=np.int64(8), epochs=np.int64(1)).batch_size == 8


class TestTrainSgd:
    def _toy_separable(self, n=100, seed=3):
        rng = make_rng(seed)
        labels = rng.integers(0, 3, size=n)
        centers = np.eye(3, 4) * 4.0
        images = centers[labels] + rng.standard_normal((n, 4)) * 0.2
        return Dataset(images=images.reshape(n, 4, 1, 1), labels=labels)

    def test_loss_decreases_on_separable_data(self):
        ds = self._toy_separable()
        cfg = TrainConfig(learning_rate=0.1, momentum=0.0, batch_size=10, epochs=5, seed=0)
        net, trace = train_sgd(micro_net(4), ds, cfg)
        assert all(b < a for a, b in zip(trace, trace[1:]))
        assert evaluate(net, ds) > 0.9

    def test_zero_learning_rates_are_noop(self):
        ds = self._toy_separable(n=20)
        net = micro_net(5)
        cfg = TrainConfig(learning_rate=0.0, a_learning_rate=0.0, batch_size=5, epochs=2, seed=0)
        trained, _ = train_sgd(net, ds, cfg)
        for a, b in zip(net.layers, trained.layers):
            if hasattr(a, "weights"):
                assert np.array_equal(a.weights, b.weights)
                assert np.array_equal(a.bias, b.bias)
            else:
                assert a.a == b.a

    def test_zero_epochs_is_noop(self):
        ds = self._toy_separable(n=10)
        net = micro_net(6)
        trained, trace = train_sgd(net, ds, TrainConfig(epochs=0, seed=0))
        assert trace == []
        assert np.array_equal(net.layers[0].weights, trained.layers[0].weights)

    def test_reproducible_by_seed(self):
        ds = self._toy_separable()
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=3, seed=7)
        _, t1 = train_sgd(micro_net(7), ds, cfg)
        _, t2 = train_sgd(micro_net(7), ds, cfg)
        assert t1 == t2

    def test_activation_parameter_moves_and_stays_in_range(self):
        ds = self._toy_separable()
        cfg = TrainConfig(learning_rate=0.1, a_learning_rate=0.05, batch_size=10, epochs=3, seed=0)
        trained, _ = train_sgd(micro_net(8), ds, cfg)
        acts = [l for l in trained.layers if isinstance(l, PActLayer)]
        assert all(0.0 <= l.a <= 1.0 for l in acts)
        originals = [l.a for l in micro_net(8).layers if isinstance(l, PActLayer)]
        assert any(l.a != o for l, o in zip(acts, originals))

    def test_momentum_steps_match_reference_loop(self):
        net = spatial_net(15)
        rng = make_rng(16)
        ds = Dataset(images=rng.standard_normal((20, 2, 5, 5)), labels=rng.integers(0, 3 * 5 * 5, size=20))
        cfg = TrainConfig(learning_rate=0.05, a_learning_rate=0.05, momentum=0.9, batch_size=8, epochs=2, seed=3)
        trained, _ = train_sgd(net, ds, cfg)

        # the plain update, with new arrays at every step
        state = _TrainState(net)
        velocity = [dict.fromkeys(p, 0.0) for p in state.params]
        order_rng = make_rng(cfg.seed)
        for _ in range(cfg.epochs):
            order = order_rng.permutation(len(ds))
            for start in range(0, len(ds), cfg.batch_size):
                idx = order[start : start + cfg.batch_size]
                _, grads = state.forward_backward(ds.images[idx], ds.labels[idx])
                for p, v, g in zip(state.params, velocity, grads):
                    for key in p:
                        if key.endswith("a"):
                            v[key] = cfg.momentum * v[key] - cfg.a_learning_rate * g[key]
                            p[key] = float(np.clip(p[key] + v[key], 0.0, 1.0))
                        else:
                            v[key] = cfg.momentum * v[key] - cfg.learning_rate * g[key]
                            p[key] = p[key] + v[key]
        reference = state.to_network()

        got, want = flat_params(trained), flat_params(reference)
        assert [k for k, _ in got] == [k for k, _ in want]
        assert all(np.array_equal(a, b) for (_, a), (_, b) in zip(got, want))
        assert [v for k, v in got if k.endswith("a")] != [v for k, v in flat_params(net) if k.endswith("a")]

    def test_stacked_child_trains(self):
        rng = make_rng(14)
        parent = NetworkDef(
            input_shape=(2, 4, 4),
            layers=[_random_conv(rng, 4, 2, 3), PActLayer(base="relu", a=0.0), _random_conv(rng, 3, 4, 3)],
        )
        child = morph_stacked(parent, SubnetMorphRequest(0, [[(3, 4)], [(3, 6), (1, 4)]], [0.5, 0.5], seed=1))
        assert isinstance(child.layers[0], ParallelLayer)
        assert check_preservation(parent, child, n_samples=4, tol=1e-8).pass_
        ds = Dataset(images=rng.standard_normal((24, 2, 4, 4)), labels=rng.integers(0, 3 * 4 * 4, size=24))
        cfg = TrainConfig(learning_rate=0.05, a_learning_rate=0.05, batch_size=8, epochs=1, seed=0)
        trained, trace = train_sgd(child, ds, cfg)
        assert len(trace) == 1 and np.isfinite(trace[0])
        stack, trained_stack = child.layers[0], trained.layers[0]
        assert not np.array_equal(stack.paths[1][0].weights, trained_stack.paths[1][0].weights)
        blob = serialize(trained)
        assert serialize(deserialize(blob)) == blob


    def test_depth_child_with_a_1x1_lower_factor_trains(self):
        # 5x5 -> 1x1 o 5x5: the 1x1 factor pads 2, past its kernel
        rng = make_rng(15)
        parent = build_network(parse_arch("(3:4)(5:4)"), (2, 6, 6), seed=15)
        child = insert_depth(parent, DepthMorphRequest(2, c_l=8, k1=1, k2=5, seed=1))
        lower = child.layers[2]
        assert (lower.kernel, lower.pad, child.layers[4].pad) == (1, 2, 0)
        assert check_preservation(parent, child, n_samples=3, tol=1e-8).pass_
        ds = Dataset(images=rng.standard_normal((24, 2, 6, 6)), labels=rng.integers(0, 4 * 6 * 6, size=24))
        cfg = TrainConfig(learning_rate=0.05, a_learning_rate=0.05, batch_size=8, epochs=1, seed=0)
        trained, trace = train_sgd(child, ds, cfg)
        assert len(trace) == 1 and np.isfinite(trace[0])
        assert not np.array_equal(trained.layers[2].weights, lower.weights)

    @pytest.mark.parametrize("bad", [3, -1], ids=["past-the-outputs", "negative"])
    def test_label_outside_the_outputs_rejected(self, bad):
        net = micro_net(5)  # 3 outputs
        ds = Dataset(images=np.zeros((4, 4, 1, 1)), labels=np.array([0, 1, 2, bad]))
        with pytest.raises(ShapeError, match="3 outputs"):
            train_sgd(net, ds, TrainConfig(epochs=1))
        with pytest.raises(ShapeError, match="3 outputs"):
            evaluate(net, ds)


class TestEvaluate:
    def test_constant_predictor_is_chance_level(self):
        rng = make_rng(9)
        n = 200
        labels = np.concatenate([np.full(20, k) for k in range(10)])
        images = rng.standard_normal((n, 4, 1, 1))
        ds = Dataset(images=images, labels=labels)
        w = np.zeros((10, 4, 1, 1))
        b = np.zeros(10)
        b[3] = 5.0  # always predicts class 3
        net = NetworkDef(input_shape=(4, 1, 1), layers=[same_pad_conv(w, bias=b, fc=True)])
        assert evaluate(net, ds) == pytest.approx(0.10)
        assert (predictions(net, ds) == 3).all()

    @pytest.mark.parametrize("make_net", [micro_net, nested_parallel_net], ids=["chain", "nested-parallel"])
    def test_batched_forward_matches_single(self, make_net):
        net = make_net(10)
        rng = make_rng(11)
        x = rng.standard_normal((5,) + net.input_shape)
        batched = forward_batch(net, x)
        for i in range(5):
            np.testing.assert_allclose(batched[i], forward(net, x[i]), atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(images=np.zeros((3, 1, 2, 2)), labels=np.zeros(2, dtype=int))


class TestPredictions:
    """``predictions`` runs one forward pass per chunk of items; a chunk
    holds as many items as fit ``train._CHUNK_BYTES`` at the net's
    ``_item_bytes`` each, and at least one."""

    @staticmethod
    def _forward_calls(monkeypatch):
        """The batch size of every ``forward_batch`` call ``predictions`` makes."""
        calls = []

        def spy(net, x):
            calls.append(len(x))
            return forward_batch(net, x)

        monkeypatch.setattr(train, "forward_batch", spy)
        return calls

    @pytest.mark.parametrize("make_net", [micro_net, spatial_net], ids=["classic", "conv"])
    @pytest.mark.parametrize("budget_items, chunk", [(0.5, 1), (4.5, 4)], ids=["chunk1", "chunk4"])
    @pytest.mark.parametrize(
        "chunks, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1), (3, 2)],
        ids=["0", "1", "chunk-1", "chunk", "chunk+1", "3chunk+2"],
    )
    def test_chunks_match_single_items(self, make_net, budget_items, chunk, chunks, extra, monkeypatch):
        net = make_net(20)
        n = chunks * chunk + extra
        monkeypatch.setattr(train, "_CHUNK_BYTES", int(budget_items * net._item_bytes))
        calls = self._forward_calls(monkeypatch)
        x = make_rng(21).standard_normal((n,) + net.input_shape)
        got = predictions(net, Dataset(images=x, labels=np.zeros(n, dtype=np.int64)))
        assert got.dtype == np.int64
        assert got.tolist() == [int(forward(net, x[i]).argmax()) for i in range(n)]
        assert calls == [chunk] * (n // chunk) + [n % chunk] * (n % chunk > 0)

    def test_mnist_test_set_is_one_forward_call(self, monkeypatch):
        # mnist-train's 784->50->10 child: 400 bytes per item (the 50-channel
        # blob), so its 10,000 test items fit one chunk
        rng = make_rng(22)
        net = NetworkDef(
            input_shape=(784, 1, 1),
            layers=[
                same_pad_conv(rng.standard_normal((50, 784, 1, 1)) * 0.03, fc=True),
                PActLayer(base="relu", a=1.0),
                same_pad_conv(rng.standard_normal((10, 50, 1, 1)), fc=True),
            ],
        )
        calls = self._forward_calls(monkeypatch)
        ds = Dataset(images=rng.random((10_000, 1, 28, 28)), labels=np.zeros(10_000, dtype=np.int64))
        assert predictions(net, ds).shape == (10_000,)
        assert calls == [10_000]
        assert net._item_bytes == 400

    def test_identity_joined_net_composes_once_per_call(self, monkeypatch):
        # a 784->50->10 child over three chunks: its one composed conv is
        # built on the first chunk and run on all three
        rng = make_rng(25)
        net = NetworkDef(
            input_shape=(784, 1, 1),
            layers=[
                same_pad_conv(rng.standard_normal((50, 784, 1, 1)) * 0.03, fc=True),
                PActLayer(base="relu", a=1.0),
                same_pad_conv(rng.standard_normal((10, 50, 1, 1)), fc=True),
            ],
        )
        composed, real = [], netdef.compose_filters
        monkeypatch.setattr(netdef, "compose_filters", lambda lo, hi: composed.append(1) or real(lo, hi))
        monkeypatch.setattr(train, "_CHUNK_BYTES", 4 * net._item_bytes)
        calls = self._forward_calls(monkeypatch)
        x = rng.random((10, 784, 1, 1))
        got = predictions(net, Dataset(images=x, labels=np.zeros(10, dtype=np.int64)))
        assert calls == [4, 4, 2] and composed == [1]
        layers = net.layers
        ref = netdef.forward_pass(layers, [layer.params() for layer in layers], x, caches=[])
        assert got.tolist() == ref.reshape(10, -1).argmax(axis=1).tolist()

    def test_peak_memory_follows_the_budget(self, monkeypatch):
        # 600 items through (3:16)(3:16) at 3x16x16 and a 2 MiB budget:
        # chunks of 7 items at 288 KiB each (the 16->16 conv's columns).
        # 256-item chunks peaked at 72 MiB
        budget = 2 * 2**20
        monkeypatch.setattr(train, "_CHUNK_BYTES", budget, raising=False)
        net = build_network(parse_arch("(3:16)(3:16)"), (3, 16, 16))
        ds = Dataset(images=make_rng(23).random((600, 3, 16, 16)), labels=np.zeros(600, dtype=np.int64))
        peak = traced_peak(lambda: predictions(net, ds))
        assert peak < 2 * budget, f"{peak / 2**20:.2f} MiB"

    def test_empty_dataset_predicts_nothing(self):
        net = spatial_net(24)
        got = predictions(net, Dataset(images=np.zeros((0,) + net.input_shape), labels=np.zeros(0, dtype=np.int64)))
        assert got.shape == (0,) and got.dtype == np.int64

    def test_empty_batch_through_a_row_folded_conv(self):
        net = build_network(parse_arch("(3:4)(3:4)"), (3, 8, 8))
        assert forward_batch(net, np.zeros((0, 3, 8, 8))).shape == (0, 4, 8, 8)

    @pytest.mark.parametrize(
        "run", [evaluate, lambda net, ds: train_sgd(net, ds, TrainConfig(epochs=1))], ids=["evaluate", "train_sgd"]
    )
    def test_empty_dataset_rejected(self, run):
        net = micro_net(25)
        with pytest.raises(ShapeError, match="empty"):
            run(net, Dataset(images=np.zeros((0, 4, 1, 1)), labels=np.zeros(0, dtype=np.int64)))
