"""Training: IDX ingestion, backprop gradients, SGD behavior, evaluation."""

import gzip
import struct

import numpy as np
import pytest

from netmorph import (
    Dataset,
    FormatError,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    ShapeError,
    SubnetMorphRequest,
    TrainConfig,
    check_preservation,
    deserialize,
    evaluate,
    load_mnist_idx,
    make_rng,
    morph_stacked,
    predictions,
    same_pad_conv,
    serialize,
    train_sgd,
)
from netmorph.train import _TrainState, forward_batch


# An images header that declares 2**31-1 items of (2**31-1)**2 pixels, and no pixels.
OVERSIZED_IMAGES = struct.pack(">4i", 0x803, 2**31 - 1, 2**31 - 1, 2**31 - 1)


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
        _, grads = state.forward_backward(x, y)
        eps = 1e-6

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
        assert checked == ["w", "b", "a", "0.0.w", "0.0.b", "1.0.w", "1.0.b", "1.1.a", "1.2.w", "1.2.b"]


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
            {"epochs": -1},
            {"batch_size": 0},
        ],
        ids=lambda d: "-".join(f"{k}={v}" for k, v in d.items()),
    )
    def test_meaningless_setting_rejected(self, setting):
        with pytest.raises(ShapeError):
            TrainConfig(**setting)

    def test_boundary_settings_accepted(self):
        cfg = TrainConfig(learning_rate=0.0, a_learning_rate=0.0, momentum=-0.5, epochs=0)
        assert cfg.epochs == 0


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
        from netmorph import forward

        batched = forward_batch(net, x)
        for i in range(5):
            np.testing.assert_allclose(batched[i], forward(net, x[i]), atol=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ShapeError):
            Dataset(images=np.zeros((3, 1, 2, 2)), labels=np.zeros(2, dtype=int))
