"""Shared test helpers: brute-force reference implementations and random
network generators used across the suite."""

import os
import tracemalloc

import numpy as np
import pytest

from netmorph import NetworkDef, PActLayer, make_rng, same_pad_conv


def naive_conv(x, f, pad):
    """Quadruple-loop multi-channel convolution (cross-correlation)."""
    c, h, w = x.shape
    c_out, c_in, k, _ = f.shape
    assert c_in == c
    oh = h + 2 * pad - k + 1
    ow = w + 2 * pad - k + 1
    out = np.zeros((c_out, oh, ow))
    for co in range(c_out):
        for y in range(oh):
            for xx in range(ow):
                acc = 0.0
                for ci in range(c):
                    for u in range(k):
                        for v in range(k):
                            yy = y + u - pad
                            xv = xx + v - pad
                            if 0 <= yy < h and 0 <= xv < w:
                                acc += x[ci, yy, xv] * f[co, ci, u, v]
                out[co, y, xx] = acc
    return out


def naive_compose(f_lo, f_hi):
    """Brute-force filter composition: for each channel pair, the full 2-D
    convolution of the two kernels summed over the shared channel."""
    c_mid, c_in, k1, _ = f_lo.shape
    c_out, c_mid2, k2, _ = f_hi.shape
    assert c_mid2 == c_mid
    kc = k1 + k2 - 1
    out = np.zeros((c_out, c_in, kc, kc))
    for co in range(c_out):
        for ci in range(c_in):
            for cm in range(c_mid):
                for u1 in range(k2):
                    for u2 in range(k2):
                        for v1 in range(k1):
                            for v2 in range(k1):
                                out[co, ci, u1 + v1, u2 + v2] += (
                                    f_hi[co, cm, u1, u2] * f_lo[cm, ci, v1, v2]
                                )
    return out


def traced_peak(run):
    """Peak bytes ``tracemalloc`` traces while ``run()`` runs, after one
    untraced warm-up call (lazy imports and allocator pools)."""
    run()
    tracemalloc.start()
    try:
        run()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def random_net(seed, n_layers=None, base="relu", input_hw=16, max_channels=16):
    """Random small conv network with an activation after every conv."""
    rng = make_rng(seed)
    if n_layers is None:
        n_layers = int(rng.integers(2, 5))
    c_in = int(rng.integers(1, 4))
    layers = []
    c = c_in
    for _ in range(n_layers):
        k = int(rng.choice([1, 3, 5]))
        c_out = int(rng.integers(2, max_channels + 1))
        w = rng.standard_normal((c_out, c, k, k)) / np.sqrt(c * k * k)
        b = rng.standard_normal(c_out) * 0.1
        layers.append(same_pad_conv(w, bias=b))
        layers.append(PActLayer(base=base, a=0.0))
        c = c_out
    return NetworkDef(input_shape=(c_in, input_hw, input_hw), layers=layers)


def mnist_dir():
    """Directory holding the MNIST IDX files, or None when unavailable."""
    candidates = [os.environ.get("NETMORPH_MNIST_DIR"), os.path.join(os.path.dirname(__file__), "..", "data")]
    for d in candidates:
        if not d:
            continue
        for suffix in ("", ".gz"):
            if os.path.exists(os.path.join(d, "train-images-idx3-ubyte" + suffix)):
                return d
    return None


@pytest.fixture
def rng():
    return make_rng(1234)
