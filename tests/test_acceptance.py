"""End-to-end acceptance suite.

Each test covers one acceptance criterion and prints a single
``criterion N ...: PASS`` line on success (visible with ``pytest -s``).
The MNIST reproduction is skipped with an explicit reason when the IDX
files are not available locally; place them under ``data/`` next to the
package root or point NETMORPH_MNIST_DIR at them to enable it.
"""

import struct
import time

import numpy as np
import pytest

from netmorph import (
    DepthMorphRequest,
    FormatError,
    InfeasibleMorphError,
    NetworkDef,
    PActLayer,
    SubnetMorphRequest,
    TrainConfig,
    WidthMorphRequest,
    check_preservation,
    converge_condition,
    deserialize,
    expand_kernel,
    identity_filter,
    insert_depth,
    load_mnist_idx,
    make_rng,
    morph_general,
    morph_practical,
    morph_stacked,
    occupancy,
    predictions,
    same_pad_conv,
    serialize,
    train_sgd,
    evaluate,
    widen,
)
from netmorph.train import _TrainState

from conftest import mnist_dir, random_net

TOL = 1e-8


def _report(line):
    print(f"\n{line}")


# ---------------------------------------------------------------------------
# criterion 1: every morph type preserves the network function


def _apply_morph(net, kind, rng):
    convs = net.conv_indices()
    if kind == "width":
        i = convs[int(rng.integers(0, len(convs) - 1))]
        layer = net.layers[i]
        return widen(net, WidthMorphRequest(layer_index=i, new_width=layer.c_out + int(rng.integers(1, 5)), seed=int(rng.integers(1 << 31))))
    i = convs[int(rng.integers(0, len(convs)))]
    layer = net.layers[i]
    k, c_out = layer.kernel, layer.c_out
    seed = int(rng.integers(1 << 31))
    if kind == "depth_k2_1":
        return insert_depth(net, DepthMorphRequest(layer_index=i, c_l=c_out + 1, k1=k, k2=1, seed=seed))
    if kind == "depth_k2_3":
        return insert_depth(net, DepthMorphRequest(layer_index=i, c_l=c_out + 1, k1=k, k2=3, seed=seed))
    if kind == "ksize":
        return expand_kernel(net, i, k + 2)
    if kind == "subnet_sequential":
        req = SubnetMorphRequest(layer_index=i, path_specs=[[(k, c_out + 2), (1, c_out)]], split_weights=[1.0], seed=seed)
        return morph_stacked(net, req)
    if kind == "subnet_stacked":
        req = SubnetMorphRequest(
            layer_index=i,
            path_specs=[[(k, c_out)], [(k, c_out + 2), (1, c_out)]],
            split_weights=[0.5, 0.5],
            seed=seed,
        )
        return morph_stacked(net, req)
    raise AssertionError(kind)


MORPH_KINDS = ["depth_k2_1", "depth_k2_3", "width", "ksize", "subnet_sequential", "subnet_stacked"]


def test_criterion_1_function_preservation():
    start = time.time()
    bases = ["relu", "tanh", "sigmoid"]
    failures = []
    for trial in range(100):
        parent = random_net(seed=1000 + trial, base=bases[trial % 3], input_hw=16, max_channels=16)
        rng = make_rng(2000 + trial)
        for kind in MORPH_KINDS:
            child = _apply_morph(parent, kind, rng)
            report = check_preservation(parent, child, n_samples=2, tol=TOL, seed=trial)
            if not report.pass_:
                failures.append((trial, kind, report.max_abs_dev))
    elapsed = time.time() - start
    assert not failures, f"preservation failures: {failures[:5]} (of {len(failures)})"
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    _report(f"criterion 1 (function preservation, 100 parents x 6 morph types, tol {TOL:g}): PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 2: one-step convergence condition


def test_criterion_2_one_step_convergence():
    start = time.time()
    rng = make_rng(77)
    satisfied = 0
    while satisfied < 100:
        c_lm1 = int(rng.integers(1, 4))
        c_lp1 = int(rng.integers(1, 5))
        kk = int(rng.choice([1, 3]))
        k1 = int(rng.choice([1, 3]))
        k2 = int(rng.choice([1, 3]))
        kt = k1 + k2 - 1
        if kt < kk:
            continue
        need = c_lp1 * c_lm1 * kt * kt
        c_l = max(-(-need // (c_lm1 * k1 * k1)), -(-need // (c_lp1 * k2 * k2))) + int(rng.integers(0, 3))
        assert converge_condition(c_lm1, c_l, c_lp1, k1, k2)
        g = rng.standard_normal((c_lp1, c_lm1, kk, kk))
        out = morph_general(g, DepthMorphRequest(layer_index=0, c_l=c_l, k1=k1, k2=k2, seed=satisfied))
        assert out.iterations == 1, f"took {out.iterations} iterations for shapes {(c_lm1, c_l, c_lp1, k1, k2)}"
        assert out.residual <= TOL, f"residual {out.residual:.3e} for shapes {(c_lm1, c_l, c_lp1, k1, k2)}"
        satisfied += 1

    for trial in range(100):
        c_lm1 = int(rng.integers(2, 7))
        c_lp1 = int(rng.integers(2, 7))
        g = rng.standard_normal((c_lp1, c_lm1, 3, 3))
        req = DepthMorphRequest(layer_index=0, c_l=1, k1=3, k2=3, seed=trial)
        with pytest.raises(InfeasibleMorphError):
            morph_practical(g, req)
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 1 min"
    _report(f"criterion 2 (one-step convergence + infeasibility reporting, 100+100 draws): PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 3: practical solver terminates whenever one factor is large enough


def test_criterion_3_practical_totality():
    start = time.time()
    rng = make_rng(88)
    done = 0
    while done < 200:
        c_lm1 = int(rng.integers(1, 5))
        c_lp1 = int(rng.integers(1, 5))
        kk = int(rng.choice([1, 3]))
        if rng.random() < 0.5:  # grow below: wide hidden layer, k1 covers the parent kernel
            c_l = c_lp1 + int(rng.integers(0, 4))
            k1 = kk + 2 * int(rng.integers(0, 2))
            k2 = int(rng.choice([1, 3]))
        else:  # grow above
            c_l = c_lm1 + int(rng.integers(0, 4))
            k2 = kk + 2 * int(rng.integers(0, 2))
            k1 = int(rng.choice([1, 3]))
        if k1 + k2 - 1 < kk:
            continue
        g = rng.standard_normal((c_lp1, c_lm1, kk, kk))
        count_g = g.size
        if c_l * c_lm1 * k1 * k1 < count_g and c_lp1 * c_l * k2 * k2 < count_g:
            continue
        out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=c_l, k1=k1, k2=k2, seed=done))
        assert out.residual <= TOL, (
            f"residual {out.residual:.3e} at shapes c={(c_lm1, c_l, c_lp1)} k={(kk, k1, k2)}"
        )
        done += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 2 min"
    _report(f"criterion 3 (practical solver terminates at zero loss, 200 draws): PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 4: dense factors beat the identity-layer baseline by 10x


def test_criterion_4_occupancy_order_of_magnitude():
    start = time.time()
    for c in (16, 32):
        rng = make_rng(c)
        g = rng.standard_normal((c, c, 3, 3))
        c_l = 9 * c
        assert converge_condition(c, c_l, c, 3, 1)
        out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=c_l, k1=3, k2=1, seed=0))
        assert out.residual <= TOL
        combined = np.concatenate([out.f_lo.reshape(-1), out.f_hi.reshape(-1)]).reshape(-1, 1, 1, 1)
        dense = occupancy(combined)
        baseline = occupancy(identity_filter(c, 3))
        assert dense >= 10 * baseline, f"C={c}: {dense:.4f} < 10 x {baseline:.4f}"
    elapsed = time.time() - start
    assert elapsed < 10
    _report(f"criterion 4 (occupancy >= 10x identity baseline for C in {{16, 32}}): PASS ({elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# criterion 5: MNIST softmax parent, morphed children


def _softmax_parent():
    rng = make_rng(0)
    w = rng.standard_normal((10, 784, 1, 1)) * 0.01
    return NetworkDef(input_shape=(784, 1, 1), layers=[same_pad_conv(w, fc=True)])


def _morph_hidden(parent, base, h=50, seed=0):
    g = parent.layers[0].weights
    out = morph_practical(g, DepthMorphRequest(layer_index=0, c_l=h, k1=1, k2=1, seed=seed))
    return NetworkDef(
        input_shape=parent.input_shape,
        layers=[
            same_pad_conv(out.f_lo, fc=True),
            PActLayer(base=base, a=1.0),
            same_pad_conv(out.f_hi, bias=parent.layers[0].bias, fc=True),
        ],
    )


@pytest.mark.skipif(mnist_dir() is None, reason="MNIST IDX files not found (set NETMORPH_MNIST_DIR or add data/)")
def test_criterion_5_mnist_reproduction():
    d = mnist_dir()

    def pair(stem_i, stem_l):
        import os

        for suffix in ("", ".gz"):
            ip, lp = os.path.join(d, stem_i + suffix), os.path.join(d, stem_l + suffix)
            if os.path.exists(ip):
                return load_mnist_idx(ip, lp)
        raise FileNotFoundError(stem_i)

    train = pair("train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    test = pair("t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    assert len(train) == 60_000 and len(test) == 10_000

    parent, _ = train_sgd(_softmax_parent(), train, TrainConfig(learning_rate=0.1, batch_size=64, epochs=10, seed=0))
    parent_acc = evaluate(parent, test)
    assert abs(parent_acc - 0.9229) <= 0.005, f"parent accuracy {parent_acc:.4f} outside 92.29% +/- 0.5pt"

    results = {}
    for base in ("relu", "tanh"):
        child = _morph_hidden(parent, base)
        assert np.array_equal(predictions(child, test), predictions(parent, test)), "morph changed test predictions"
        assert evaluate(child, test) == parent_acc
        trained, _ = train_sgd(child, train, TrainConfig(learning_rate=0.1, batch_size=64, epochs=20, seed=1))
        results[base] = evaluate(trained, test)
        assert results[base] >= 0.960, f"{base} child accuracy {results[base]:.4f} < 96%"
    _report(
        "criterion 5 (MNIST: parent {:.2%}, morphed children relu {:.2%} / tanh {:.2%}): PASS".format(
            parent_acc, results["relu"], results["tanh"]
        )
    )


def test_criterion_5_argmax_preservation_synthetic():
    """Always-run stand-in for the dataset-dependent part of criterion 5:
    a hidden-layer morph of a trained classifier leaves every prediction
    unchanged before any further training."""
    from netmorph import Dataset

    rng = make_rng(5)
    n = 500
    labels = rng.integers(0, 10, size=n)
    centers = rng.standard_normal((10, 784)) * 2.0
    images = centers[labels] + rng.standard_normal((n, 784)) * 0.5
    images = (images - images.min()) / (images.max() - images.min())
    ds = Dataset(images=images.reshape(n, 784, 1, 1), labels=labels)

    parent, _ = train_sgd(_softmax_parent(), ds, TrainConfig(learning_rate=0.1, batch_size=50, epochs=3, seed=0))
    parent_acc = evaluate(parent, ds)
    for base in ("relu", "tanh"):
        child = _morph_hidden(parent, base)
        assert np.array_equal(predictions(child, ds), predictions(parent, ds))
        assert evaluate(child, ds) == parent_acc
    _report("criterion 5 stand-in (argmax preservation after hidden-layer morph, synthetic data): PASS")


# ---------------------------------------------------------------------------
# criterion 6: gradient correctness


def test_criterion_6_gradient_correctness():
    start = time.time()
    rng = make_rng(6)
    net = NetworkDef(
        input_shape=(3, 1, 1),
        layers=[
            same_pad_conv(rng.standard_normal((5, 3, 1, 1)) * 0.5, bias=rng.standard_normal(5) * 0.1, fc=True),
            PActLayer(base="relu", a=0.4),
            same_pad_conv(rng.standard_normal((4, 5, 1, 1)) * 0.5, bias=rng.standard_normal(4) * 0.1, fc=True),
            PActLayer(base="tanh", a=0.6),
            same_pad_conv(rng.standard_normal((3, 4, 1, 1)) * 0.5, bias=rng.standard_normal(3) * 0.1, fc=True),
        ],
    )
    state = _TrainState(net)
    x = rng.standard_normal((12, 3, 1, 1))
    y = rng.integers(0, 3, size=12)
    _, grads = state.forward_backward(x, y)

    eps = 1e-6
    candidates = []
    for i, p in enumerate(state.params):
        for key, val in p.items():
            size = 1 if isinstance(val, float) else val.size
            candidates.extend((i, key, j) for j in range(size))
    picks = [candidates[j] for j in rng.choice(len(candidates), size=20, replace=False)]
    # always include every activation parameter
    picks.extend((i, "a", 0) for i, p in enumerate(state.params) if "a" in p)

    worst = 0.0
    for i, key, j in picks:
        if isinstance(state.params[i][key], float):
            orig = state.params[i][key]
            state.params[i][key] = orig + eps
            up, _ = state.forward_backward(x, y)
            state.params[i][key] = orig - eps
            down, _ = state.forward_backward(x, y)
            state.params[i][key] = orig
            analytic = grads[i][key]
        else:
            flat = state.params[i][key].reshape(-1)
            orig = flat[j]
            flat[j] = orig + eps
            up, _ = state.forward_backward(x, y)
            flat[j] = orig - eps
            down, _ = state.forward_backward(x, y)
            flat[j] = orig
            analytic = np.asarray(grads[i][key]).reshape(-1)[j]
        fd = (up - down) / (2 * eps)
        rel = abs(analytic - fd) / max(abs(fd), 1e-8)
        worst = max(worst, rel)
    assert worst <= 1e-5, f"worst relative gradient error {worst:.2e}"
    elapsed = time.time() - start
    assert elapsed < 30
    _report(f"criterion 6 (backprop vs finite differences, worst rel err {worst:.2e}): PASS")


# ---------------------------------------------------------------------------
# criterion 7: excluded large-scale results


def test_criterion_7_large_scale_exclusion():
    _report(
        "criterion 7 (large-scale CIFAR-10/ImageNet training runs): out of "
        "scope at desk scale, covered by the property-based criteria 1-4"
    )


# ---------------------------------------------------------------------------
# criterion 8: format stability


def test_criterion_8_format_stability(tmp_path):
    start = time.time()
    net = random_net(seed=8, n_layers=3)
    child = morph_stacked(
        net,
        SubnetMorphRequest(
            layer_index=net.conv_indices()[0],
            path_specs=[[(net.layers[net.conv_indices()[0]].kernel, net.layers[net.conv_indices()[0]].c_out)]] * 2,
            split_weights=[0.5, 0.5],
        ),
    )
    for candidate in (net, child):
        data = serialize(candidate)
        assert serialize(deserialize(data)) == data

    ok_labels = tmp_path / "labels"
    ok_labels.write_bytes(struct.pack(">2i", 0x801, 2) + bytes([1, 2]))
    good_header = struct.pack(">4i", 0x803, 2, 2, 2)

    malformed = {
        "bad magic": (struct.pack(">4i", 0x123, 2, 2, 2) + bytes(8), ok_labels),
        "truncated pixels": (good_header + bytes(5), ok_labels),
        "negative dimensions": (struct.pack(">4i", 0x803, -2, 2, 2), ok_labels),
        "trailing bytes": (good_header + bytes(9), ok_labels),
        "count mismatch": (good_header + bytes(8), None),
    }
    rejected = 0
    for name, (img_bytes, labels_path) in malformed.items():
        ip = tmp_path / f"img-{rejected}"
        ip.write_bytes(img_bytes)
        if labels_path is None:
            labels_path = tmp_path / "labels3"
            labels_path.write_bytes(struct.pack(">2i", 0x801, 3) + bytes(3))
        with pytest.raises(FormatError):
            load_mnist_idx(ip, labels_path)
        rejected += 1
    assert rejected == 5
    elapsed = time.time() - start
    assert elapsed < 10
    _report("criterion 8 (canonical weight-file round trip + 5 malformed IDX rejections): PASS")
