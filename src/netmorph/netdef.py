"""Network intermediate representation and the layer engine.

A network is an ordered chain of layers over (c, h, w) blobs:

* ``ConvLayer`` — multi-channel convolution plus per-channel bias.  Fully
  connected layers are the kernel-1 special case on a (c, 1, 1) blob and
  carry ``fc=True`` purely as a display hint.
* ``PActLayer`` — parametric activation (1-a)*phi(x) + a*x with
  a in [0, 1]; phi is ReLU, TanH or Sigmoid.  At a=1 the layer is the
  identity and returns its input without computing phi; at a=0 it is the
  plain activation and computes phi alone.
* ``ParallelLayer`` — a stack of sequential paths evaluated on the same
  input blob and summed channel-wise (the stacked-subnet construct).

Layers are immutable after construction; every transformation builds a
new network.  Layers and networks compare by value: two convs are equal
when their weights (shape and values), bias, pad and ``fc`` hint are.
A conv's pad is any integer >= 0: a morph pads each new conv so that the
child computes its parent's function on the whole image (see
``morph_depth._splice``), which is not same-padding in general.

Every layer type runs batched (n, c, h, w) arrays through one engine:
``params()`` gives its parameter dict p, ``forward(x, p)`` returns the
output and a cache, and ``backward(cache, dy, p, need_dx)`` maps the loss
gradient at the output to a gradient dict keyed like p and, when
``need_dx`` is true, the gradient at the input (None otherwise).
``forward_pass`` runs a layer list through it; ``forward_batch`` runs a
whole net's inference plan (below) on a batch (``forward`` is its
one-blob case), and the trainer and the verification oracle call
``forward_pass`` directly.  A layer's cache is its input (a
``ParallelLayer``'s, its paths' caches), so ``forward_pass`` keeps the
caches only for a caller that passes a list to fill: the trainer, which
backpropagates through them, and a ``ParallelLayer``, whose cache they
are.  Inference keeps none, so each layer's input is freed once the
layer has run, unless its caller holds it: kept as caches, those inputs
raised the peak memory of the preservation check.  The trainer calls
``backward_pass`` with ``need_dx=False``, because nothing reads the
gradient at the network input: the first layer does not compute it, and
a first-layer ``ParallelLayer`` passes that on to the first layer of each
path.  For a conv that saves the adjoint convolution, which costs about
twice the layer's forward pass on the MNIST-shaped 784->50 layer.

Inference runs a plan of the layers (``_inference_plan``): each run of
a conv at pad p, an identity activation (a=1) and a conv at pad 0 is one
conv, with filter ``compose_filters(w_lo, w_hi)``, bias
``w_hi.sum((2, 3)) @ b_lo + b_hi`` and pad p, where that takes fewer
multiply-adds per output pixel: c_out*c_in*(k1+k2-1)^2 <
c_mid*(c_in*k1^2 + c_out*k2^2).  It is exact on the whole image, because
the upper conv pads nothing, and runs are taken left to right, so longer
chains collapse too.  A composed filter or bias that is not finite
leaves the layers as they are.  A depth morph's new block is such a run
until training moves its a.  A net builds its plan on first use and keeps
it, and ``check_preservation`` builds one per call for each of its three
segments.  Training runs every layer, and so does a ``ParallelLayer``,
whose paths keep their caches.  The workloads' pairs, medians of 41 calls
on a 2-vCPU Xeon with 2 OpenBLAS threads, one 32x32 item unless stated:

    ======================================  =========  ========  =======
    pair                                    two convs  one conv  compose
    ======================================  =========  ========  =======
    (5:128)(1:32) from 3 channels            0.94 ms    0.14 ms  0.04 ms
    (5:128)(1:32) from 32 channels           2.19 ms    0.79 ms  0.15 ms
    (5:256)(1:64) from 32 channels           3.89 ms    1.27 ms  0.39 ms
    (3:96)(3:32) from 48 channels            2.01 ms    1.12 ms  1.74 ms
    784->50->10 on 10,000 1x1 items          7.53 ms    3.62 ms  0.06 ms
    ======================================  =========  ========  =======

The first three are cifar-depth's, the fourth morph-chain's and the last
mnist-train's.

No layer writes into an array it was given, in ``forward`` or in
``backward``: an identity activation returns its input as its output, so
one array can be the network input, several layers' outputs and their
caches at once.  A conv adds its bias in place, into the new array
``conv_batch`` returns.  ``forward_batch`` copies an output that shares
memory with its input, so its caller owns what it gets back.
"""

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ShapeError, _finite, _index, _odd_kernel
from .tensor_ops import as_blob, as_filter, compose_filters, conv_batch, conv_filter_grad, conv_input_grad

BASES = ("relu", "tanh", "sigmoid")


# ---------------------------------------------------------------------------
# parametric activations


def _sigmoid(x):
    # tanh form of 1/(1+exp(-x)): exp(-x) would overflow for x < -709.
    # The same operations in one buffer; a scalar (pact_eval of a 0-d input) has none.
    t = 0.5 * np.asarray(x)
    if not isinstance(t, np.ndarray):
        return 0.5 * (1.0 + np.tanh(t))
    np.tanh(t, out=t)
    t += 1.0
    t *= 0.5
    return t


def _phi(base: str, x):
    if base == "relu":
        return np.maximum(x, 0.0)
    if base == "tanh":
        return np.tanh(x)
    if base == "sigmoid":
        return _sigmoid(x)
    raise ValueError(f"unknown activation base {base!r}")


def _check_a(a: float):
    _finite(a, "a", low=0)
    if a > 1:
        raise ShapeError(f"a must be at most 1, got {a}")


def pact_eval(base: str, a: float, x):
    """(1-a)*phi(x) + a*x; a=0 gives phi, a=1 gives the identity.

    At the two ends nothing thrown away is computed: a=1 returns x itself
    (as a float64 array, so a float64 array is not copied) without
    evaluating phi, and a=0 returns phi(x) without adding 0*x.  On finite
    inputs both equal the formula, but for the sign of one zero: at a=1 the
    ReLU and Sigmoid formula gives +0 for x = -0 (0*phi(-0) is +0), where
    the identity keeps -0.  A caller must not write into the result, which
    may be its own input.
    """
    _check_a(a)
    x = np.asarray(x, dtype=np.float64)
    if a == 1:
        return x
    if a == 0:
        return _phi(base, x)
    return (1.0 - a) * _phi(base, x) + a * x


def pact_grad(base: str, a: float, x):
    """Partial derivatives (d/dx, d/da) of pact_eval at (a, x), phi' taken from
    the one phi: 1[x > 0] (subgradient 0 at the kink), 1 - phi^2, phi*(1 - phi)."""
    _check_a(a)
    x = np.asarray(x, dtype=np.float64)
    phi = _phi(base, x)
    if base == "relu":
        d_phi = (x > 0).astype(np.float64)
    elif base == "tanh":
        d_phi = 1.0 - phi * phi
    else:
        d_phi = phi * (1.0 - phi)
    return (1.0 - a) * d_phi + a, x - phi


# ---------------------------------------------------------------------------
# layers


@dataclass(frozen=True, eq=False)
class ConvLayer:
    weights: np.ndarray  # (c_out, c_in, k, k)
    bias: np.ndarray  # (c_out,)
    pad: int  # any integer >= 0: zero rows and columns on each side of the input
    fc: bool = False

    def __post_init__(self):
        # the layer owns its arrays: copy, then freeze the copies
        w = as_filter(np.array(self.weights, dtype=np.float64))
        b = np.array(self.bias, dtype=np.float64)
        if b.ndim != 1 or b.shape[0] != w.shape[0]:
            raise ShapeError(f"bias length {b.shape} does not match {w.shape[0]} output channels")
        if not np.all(np.isfinite(b)):
            raise ShapeError("bias contains non-finite entries")
        _odd_kernel(w.shape[2], "kernel size")
        pad = _index(self.pad, "pad", low=0)  # a Python int, which serialize writes to JSON
        w.setflags(write=False)
        b.setflags(write=False)
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)
        object.__setattr__(self, "pad", pad)

    def __eq__(self, other):
        if type(other) is not ConvLayer:
            return NotImplemented
        # array_equal is False on a shape mismatch
        same = (self.pad, self.fc) == (other.pad, other.fc)
        return same and np.array_equal(self.weights, other.weights) and np.array_equal(self.bias, other.bias)

    @property
    def c_out(self):
        return self.weights.shape[0]

    @property
    def c_in(self):
        return self.weights.shape[1]

    @property
    def kernel(self):
        return self.weights.shape[2]

    def params(self):
        return {"w": self.weights, "b": self.bias}

    def with_params(self, p):
        return replace(self, weights=p["w"], bias=p["b"])

    def forward(self, x, p):
        y = conv_batch(x, p["w"], self.pad)  # a new array, so the bias goes in in place
        y += p["b"][:, None, None]
        return y, x

    def backward(self, x, dy, p, need_dx=True):
        dx = conv_input_grad(dy, p["w"], self.pad) if need_dx else None
        return dx, {"w": conv_filter_grad(x, dy, self.kernel, self.pad), "b": dy.sum(axis=(0, 2, 3))}


@dataclass(frozen=True)
class PActLayer:
    base: str
    a: float

    def __post_init__(self):
        if self.base not in BASES:
            raise ValueError(f"unknown activation base {self.base!r}")
        _check_a(self.a)
        object.__setattr__(self, "a", float(self.a))  # a Python float, which serialize writes to JSON

    def params(self):
        return {"a": self.a}

    def with_params(self, p):
        return replace(self, a=float(p["a"]))

    def forward(self, x, p):
        return pact_eval(self.base, p["a"], x), x

    def backward(self, x, dy, p, need_dx=True):
        d_dx, d_da = pact_grad(self.base, p["a"], x)
        return dy * d_dx if need_dx else None, {"a": float((d_da * dy).sum())}


def _sub_params(p, prefix):
    return {k[len(prefix) :]: v for k, v in p.items() if k.startswith(prefix)}


@dataclass(frozen=True)
class ParallelLayer:
    """Parallel paths over the same input, outputs summed channel-wise.

    Its parameter dict is flat: layer j of path i contributes its key
    ``k`` as ``"i.j.k"``, so nested stacks flatten recursively.
    """

    paths: tuple  # tuple of tuples of layers

    def __post_init__(self):
        paths = tuple(tuple(p) for p in self.paths)
        if not paths or any(not p for p in paths):
            raise ShapeError("parallel layer needs at least one non-empty path")
        object.__setattr__(self, "paths", paths)

    def params(self):
        return {
            f"{i}.{j}.{k}": v
            for i, path in enumerate(self.paths)
            for j, layer in enumerate(path)
            for k, v in layer.params().items()
        }

    def _path_params(self, p):
        return [[_sub_params(p, f"{i}.{j}.") for j in range(len(path))] for i, path in enumerate(self.paths)]

    def with_params(self, p):
        return ParallelLayer(
            paths=[[layer.with_params(q) for layer, q in zip(path, ps)] for path, ps in zip(self.paths, self._path_params(p))]
        )

    def forward(self, x, p):
        total, caches = 0.0, []
        for path, ps in zip(self.paths, self._path_params(p)):
            caches.append([])
            total = total + forward_pass(path, ps, x, caches[-1])
        return total, caches

    def backward(self, caches, dy, p, need_dx=True):
        dx, grads = 0.0, {}
        for i, (path, ps, cache) in enumerate(zip(self.paths, self._path_params(p), caches)):
            d, path_grads = backward_pass(path, ps, cache, dy, need_dx)
            dx = dx + d if need_dx else None
            for j, g in enumerate(path_grads):
                grads.update({f"{i}.{j}.{k}": v for k, v in g.items()})
        return dx, grads


def forward_pass(layers, params, x, caches=None):
    """Run ``layers`` with parameters ``params[i]`` on the batch x (n, c, h, w)
    and return the output.

    Given a list ``caches``, append to it the per-layer caches
    ``backward_pass`` needs.  Without one no cache is kept, and each layer's
    input is dropped as soon as the layer has run.
    """
    for layer, p in zip(layers, params):
        if caches is None:
            x = layer.forward(x, p)[0]
        else:
            x, cache = layer.forward(x, p)
            caches.append(cache)
    return x


def backward_pass(layers, params, caches, dy, need_dx=True):
    """Backpropagate dy, the loss gradient at the output of ``forward_pass``, to
    the gradient at its input and one gradient dict per layer, keyed like params[i].

    With ``need_dx`` false the gradient at the input is not computed and None
    is returned in its place: the first layer skips its input gradient, and a
    first-layer ``ParallelLayer`` skips it in the first layer of every path.
    """
    grads = [None] * len(layers)
    for i in reversed(range(len(layers))):
        dy, grads[i] = layers[i].backward(caches[i], dy, params[i], need_dx or i > 0)
    return dy, grads


def same_pad_conv(weights, bias=None, fc=False) -> ConvLayer:
    """A conv padded by (k-1)/2, so that its output is as large as its
    input; the layers ``build_network`` makes."""
    w = as_filter(weights)
    if bias is None:
        bias = np.zeros(w.shape[0])
    return ConvLayer(weights=w, bias=bias, pad=(w.shape[2] - 1) // 2, fc=fc)


# ---------------------------------------------------------------------------
# networks


# Deepest nesting of stacks a network may have.  A subnet morph stacks one
# level, on a top-level conv.  Every walk over the layers recurses per
# level, and Python's stack overflows a few hundred levels down (about 330
# when a weight file is read).
MAX_STACK_DEPTH = 32


def _convs(layers, depth=0):
    """Every conv layer in ``layers``, those on stacked paths included.
    Stacks nested more than ``MAX_STACK_DEPTH`` deep raise a ShapeError;
    ``NetworkDef`` walks its layers here first."""
    for layer in layers:
        if isinstance(layer, ConvLayer):
            yield layer
        elif isinstance(layer, ParallelLayer):
            if depth == MAX_STACK_DEPTH:
                raise ShapeError(f"stacks nested more than {MAX_STACK_DEPTH} deep")
            for path in layer.paths:
                yield from _convs(path, depth + 1)


def _chain_shape(layers, shape, limit):
    """Walk the layer chain from a blob of ``shape`` (c, h, w), checking
    channels and spatial sizes; return the output shape and the values in
    the largest array a forward pass builds per item.  That array is a
    layer's output blob or a conv's columns, c_in*k*k*oh*ow values, unless
    the conv is 1x1 at pad 0, whose columns are its input reshaped.  No
    blob may be empty, or higher or wider than ``limit`` (h_max, w_max)."""
    c, h, w = shape
    peak = 0
    for i, layer in enumerate(layers):
        if isinstance(layer, ConvLayer):
            if layer.c_in != c:
                raise ShapeError(f"layer {i}: expects {layer.c_in} input channels, gets {c}")
            growth = 2 * layer.pad - layer.kernel + 1
            h, w = h + growth, w + growth
            if h < 1 or w < 1:
                raise ShapeError(f"layer {i}: non-positive output size {h}x{w} for kernel {layer.kernel}, pad {layer.pad}")
            if h > limit[0] or w > limit[1]:
                raise ShapeError(f"layer {i}: pad {layer.pad} grows a blob to {h}x{w}, past {limit[0]}x{limit[1]}")
            if layer.kernel > 1 or layer.pad > 0:
                peak = max(peak, c * layer.kernel**2 * h * w)
            c = layer.c_out
        elif isinstance(layer, ParallelLayer):
            walks = [_chain_shape(path, (c, h, w), limit) for path in layer.paths]
            outs = {out for out, _ in walks}
            if len(outs) != 1:
                raise ShapeError(f"layer {i}: parallel paths disagree on output shape {sorted(outs)}")
            c, h, w = outs.pop()
            peak = max([peak] + [p for _, p in walks])
        elif not isinstance(layer, PActLayer):
            raise ShapeError(f"layer {i}: unknown layer type {type(layer).__name__}")
        peak = max(peak, c * h * w)
    return (c, h, w), peak


@dataclass(frozen=True)
class NetworkDef:
    """A chain of layers over blobs of ``input_shape`` (c, h, w).

    Construction walks the chain and keeps its output shape as
    ``_output_shape`` and the bytes of the largest array a forward pass
    builds per item as ``_item_bytes``, at least one output blob
    (``forward_batch`` copies the input of a net without layers).  A conv
    may pad more or less than same-padding, but no blob may grow past the
    input by more than the sum of k - 1 over the net's convs, which bounds
    every morph child of a same-padded net.
    """

    input_shape: tuple  # (c, h, w)
    layers: tuple = field(default_factory=tuple)

    def __post_init__(self):
        shape = tuple(_index(v, "each input_shape entry") for v in self.input_shape)
        if len(shape) != 3 or any(v < 1 for v in shape):
            raise ShapeError(f"input shape must be (c, h, w) positive, got {self.input_shape}")
        layers = tuple(self.layers)
        growth = sum(layer.kernel - 1 for layer in _convs(layers))
        out, peak = _chain_shape(layers, shape, (shape[1] + growth, shape[2] + growth))
        object.__setattr__(self, "input_shape", shape)
        object.__setattr__(self, "layers", layers)
        object.__setattr__(self, "_output_shape", out)
        object.__setattr__(self, "_item_bytes", 8 * max(peak, math.prod(out)))

    @cached_property
    def _plan(self):
        """``_inference_plan`` of the layers, built on first use."""
        return _inference_plan(self.layers)

    def conv_indices(self):
        """Raw indices of top-level conv layers, in order."""
        return [i for i, l in enumerate(self.layers) if isinstance(l, ConvLayer)]

    def with_layers(self, layers):
        return replace(self, layers=tuple(layers))


def _collapsed(lo: ConvLayer, hi: ConvLayer):
    """The one conv that ``lo``, an identity activation and then ``hi`` at
    pad 0 compute, or None where it takes at least as many multiply-adds per
    output pixel as the two, or where its filter or bias is not finite."""
    (c_out, c_mid, k2, _), (_, c_in, k1, _) = hi.weights.shape, lo.weights.shape
    if c_out * c_in * (k1 + k2 - 1) ** 2 >= c_mid * (c_in * k1**2 + c_out * k2**2):
        return None
    with np.errstate(over="ignore", invalid="ignore"):
        w = compose_filters(lo.weights, hi.weights)
        b = hi.weights.sum(axis=(2, 3)) @ lo.bias + hi.bias
    if not (np.isfinite(w).all() and np.isfinite(b).all()):
        return None
    return ConvLayer(weights=w, bias=b, pad=lo.pad)


def _inference_plan(layers):
    """The layers inference runs for ``layers``, and their parameters: each
    run conv -> identity activation -> conv at pad 0 that ``_collapsed``
    takes is its one conv, left to right, so that longer chains collapse too."""
    plan = []
    for layer in layers:
        if (
            isinstance(layer, ConvLayer) and layer.pad == 0 and len(plan) >= 2
            and isinstance(plan[-1], PActLayer) and plan[-1].a == 1 and isinstance(plan[-2], ConvLayer)
        ):
            merged = _collapsed(plan[-2], layer)
            if merged is not None:
                plan[-2:] = [merged]
                continue
        plan.append(layer)
    return plan, [layer.params() for layer in plan]


def forward_batch(net: NetworkDef, x) -> np.ndarray:
    """Batched forward pass; x has shape (n,) + net.input_shape."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape[1:] != net.input_shape:
        raise ShapeError(f"batch item shape {x.shape[1:]} does not match network input {net.input_shape}")
    out = forward_pass(*net._plan, x)
    # a net of identity activations (or none) hands back the caller's array
    return out.copy() if np.may_share_memory(out, x) else out


def forward(net: NetworkDef, blob) -> np.ndarray:
    """Run the network on one blob and return the final blob."""
    return forward_batch(net, as_blob(blob)[None])[0]
