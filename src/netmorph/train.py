"""Desk-scale supervised training: MNIST IDX ingestion, softmax
cross-entropy, backpropagation through every layer type (conv,
fully-connected, parametric activation including its parameter, and
stacked parallel paths), and minibatch SGD with momentum.

Training operates on batched blobs (n, c, h, w) through the layer engine
of ``netdef``.  The kernel-1 case on (c, 1, 1) blobs reduces to plain
matrix products, which keeps the MNIST experiments fast without a
separate dense-layer code path.

``predictions``, behind ``evaluate``, runs the net on chunks of items
sized by bytes: a chunk holds as many items as fit ``_CHUNK_BYTES`` at
``NetworkDef._item_bytes`` each, the largest array a forward pass builds
per item.  An MNIST-shaped 784->50->10 net takes 400 bytes per item, so
a 10,000-item test set is one forward call; the paper's
(5:32)(5:32)(5:64) parent at 3x32x32 takes 6.25 MiB, so its chunks hold
3 items.  Each chunk runs the net's inference plan (see ``netdef``),
which the net composes once.  ``predictions`` of an empty dataset is
empty, and ``evaluate`` and ``train_sgd`` reject one.
"""

import copy
import gzip
import math
import struct
import zlib
from dataclasses import dataclass

import numpy as np

from .errors import FormatError, ShapeError, _finite, _index
from .netdef import NetworkDef, backward_pass, forward_batch, forward_pass
from .rng import make_rng

IMAGES_MAGIC = 0x00000803
LABELS_MAGIC = 0x00000801
# Bytes that the largest array of one ``predictions`` chunk may take; a
# chunk holds as many items as fit (``NetworkDef._item_bytes`` each), and
# at least one.  On a 2-vCPU Xeon with 2 OpenBLAS threads the paper's
# (5:32)(5:32)(5:64) parent at 3x32x32 ran fastest in chunks of 3 to 5
# items (19 to 31 MiB) and (3:16)(3:16) at 3x16x16 in chunks of 16 to 32
# (4.5 to 9 MiB); 24 MiB gives them 3 and 85 items.
_CHUNK_BYTES = 24 * 2**20


@dataclass(frozen=True)
class Dataset:
    images: np.ndarray  # (n, c, h, w), values in [0, 1]
    labels: np.ndarray  # (n,), class indices

    def __post_init__(self):
        if len(self.images) != len(self.labels):
            raise ShapeError(f"{len(self.images)} images but {len(self.labels)} labels")

    def __len__(self):
        return len(self.labels)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 64
    epochs: int = 10
    seed: int = 0
    momentum: float = 0.9
    a_learning_rate: float = 0.01

    def __post_init__(self):
        for name, low in (("learning_rate", 0), ("a_learning_rate", 0), ("momentum", None)):
            _finite(getattr(self, name), name, low=low)
        for name, low in (("batch_size", 1), ("epochs", 0), ("seed", 0)):
            _index(getattr(self, name), name, low=low)


# ---------------------------------------------------------------------------
# MNIST IDX ingestion


def _read_idx(path, magic, ndim, what):
    """Return the ``ndim`` header dims and the payload of an IDX file.

    The whole file is read once, decompressed when it starts with the gzip
    magic, and its length checked against the header's dims as Python ints,
    so a header that declares more data than the file holds is rejected
    without allocating that much.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"\x1f\x8b":
        try:
            data = gzip.decompress(data)
        except (EOFError, zlib.error, gzip.BadGzipFile) as exc:
            raise FormatError(f"damaged gzip {what} file: {exc}") from exc
    start = 4 * (1 + ndim)
    if len(data) < start:
        raise FormatError(f"truncated IDX file: {what} header needs {start} bytes, got {len(data)}")
    found, *dims = struct.unpack(f">{1 + ndim}i", data[:start])
    if found != magic:
        raise FormatError(f"bad magic {found:#010x} in {what} file (expected {magic:#010x})")
    if min(dims) <= 0:
        raise FormatError(f"bad {what} dimensions {'x'.join(map(str, dims))}")
    size, have = math.prod(dims), len(data) - start
    if have < size:
        raise FormatError(f"truncated IDX file: expected {size} bytes of {what}, got {have}")
    if have > size:
        raise FormatError(f"trailing bytes after {what} payload")
    return dims, memoryview(data)[start:]


def load_mnist_idx(images_path, labels_path) -> Dataset:
    """Load an images/labels IDX pair; pixels are scaled to [0, 1]."""
    (count, rows, cols), raw = _read_idx(images_path, IMAGES_MAGIC, 3, "images")
    images = np.frombuffer(raw, dtype=np.uint8).reshape(count, 1, rows, cols).astype(np.float64) / 255.0
    (lcount,), raw = _read_idx(labels_path, LABELS_MAGIC, 1, "labels")
    if lcount != count:
        raise FormatError(f"dimension mismatch: {count} images but {lcount} labels")
    return Dataset(images=images, labels=np.frombuffer(raw, dtype=np.uint8).astype(np.int64))


# ---------------------------------------------------------------------------
# batched forward / backward


class _TrainState:
    """Mutable parameter copies plus momentum buffers for one network.

    ``params[i]`` is a copy of ``net.layers[i].params()``: writable arrays
    for conv weights and biases, a float for each activation parameter.
    ``velocity[i]`` is keyed like it and starts at zero; ``sgd_step`` updates
    its arrays in place.
    """

    def __init__(self, net: NetworkDef):
        self.net = net
        self.params = [copy.deepcopy(layer.params()) for layer in net.layers]
        self.velocity = [{k: np.zeros_like(v) if isinstance(v, np.ndarray) else 0.0 for k, v in p.items()} for p in self.params]

    def forward_backward(self, x, labels):
        """Cross-entropy loss and parameter gradients for one minibatch."""
        n = x.shape[0]
        caches = []
        out = forward_pass(self.net.layers, self.params, x, caches)
        logits = out.reshape(n, -1)
        shifted = logits - logits.max(axis=1, keepdims=True)
        exp = np.exp(shifted)
        probs = exp / exp.sum(axis=1, keepdims=True)
        loss = float(-np.log(probs[np.arange(n), labels] + 1e-300).mean())

        d = probs.copy()
        d[np.arange(n), labels] -= 1.0
        # nothing reads the gradient at the network input, so it is not computed
        _, grads = backward_pass(self.net.layers, self.params, caches, (d / n).reshape(out.shape), need_dx=False)
        return loss, grads

    def sgd_step(self, grads, cfg: TrainConfig):
        for p, v, g in zip(self.params, self.velocity, grads):
            for key, value in p.items():
                if isinstance(value, np.ndarray):
                    # in place, with the same roundings as p += m*v - lr*g
                    v[key] *= cfg.momentum
                    v[key] -= cfg.learning_rate * g[key]
                    value += v[key]
                else:  # an activation parameter
                    v[key] = cfg.momentum * v[key] - cfg.a_learning_rate * g[key]
                    # builtins, not np.clip: the same value (a NaN stays NaN) without numpy's call overhead
                    p[key] = min(max(value + v[key], 0.0), 1.0)

    def to_network(self) -> NetworkDef:
        return self.net.with_layers(layer.with_params(p) for layer, p in zip(self.net.layers, self.params))


def _shaped_images(net: NetworkDef, images):
    """Reshape dataset images to the network's input shape if the element
    counts agree (e.g. 1x28x28 images into a 784x1x1 classic network)."""
    want = net.input_shape
    if images.shape[1:] == want:
        return images
    if int(np.prod(images.shape[1:])) != int(np.prod(want)):
        raise ShapeError(f"dataset items {images.shape[1:]} cannot feed network input {want}")
    return images.reshape((images.shape[0],) + want)


def _checked_labels(net: NetworkDef, dataset: Dataset) -> np.ndarray:
    """The dataset's labels, a non-empty integer array each of whose
    entries must name one of the net's c*h*w outputs."""
    labels = np.asarray(dataset.labels)
    if labels.dtype.kind not in "iu":
        raise ShapeError(f"labels must be integers, got dtype {labels.dtype}")
    if not labels.size:
        raise ShapeError("the dataset is empty")
    classes = math.prod(net._output_shape)
    if not (labels.min() >= 0 and labels.max() < classes):
        raise ShapeError(f"labels span {labels.min()}..{labels.max()}, but the network has {classes} outputs")
    return labels


def train_sgd(net: NetworkDef, dataset: Dataset, cfg: TrainConfig):
    """Minibatch SGD with momentum; returns (trained net, per-epoch loss)."""
    x_all = _shaped_images(net, dataset.images)
    y_all = _checked_labels(net, dataset)
    state = _TrainState(net)
    rng = make_rng(cfg.seed)
    trace = []
    for _ in range(cfg.epochs):
        order = rng.permutation(len(dataset))
        total, batches = 0.0, 0
        for start in range(0, len(dataset), cfg.batch_size):
            idx = order[start : start + cfg.batch_size]
            loss, grads = state.forward_backward(x_all[idx], y_all[idx])
            state.sgd_step(grads, cfg)
            total += loss
            batches += 1
        trace.append(total / batches)
    return state.to_network(), trace


def evaluate(net: NetworkDef, dataset: Dataset) -> float:
    """Fraction of argmax-correct predictions."""
    labels = _checked_labels(net, dataset)
    return float((predictions(net, dataset) == labels).mean())


def predictions(net: NetworkDef, dataset: Dataset) -> np.ndarray:
    """Argmax class predictions for every dataset item, as int64; a
    forward pass per chunk of items sized by ``_CHUNK_BYTES``."""
    x_all = _shaped_images(net, dataset.images)
    chunk = max(1, _CHUNK_BYTES // net._item_bytes)
    preds = np.empty(len(dataset), dtype=np.int64)
    for start in range(0, len(dataset), chunk):
        out = forward_batch(net, x_all[start : start + chunk])
        preds[start : start + len(out)] = out.reshape(len(out), -1).argmax(axis=1)
    return preds
