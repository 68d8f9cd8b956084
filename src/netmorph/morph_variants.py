"""Stand-alone width morphing, kernel-size morphing, and subnet morphing
(sequential and stacked).

All operations return a new network whose function matches the parent
exactly everywhere, image borders included: every new conv chain keeps the
padding its target reads (``morph_depth._splice``).
"""

from dataclasses import dataclass, replace

import numpy as np

from .errors import InfeasibleMorphError, ShapeError, _finite, _index, _odd_kernel
from .morph_depth import DEFAULT_TOL, DepthMorphRequest, _conv_at, _splice, morph_practical
from .netdef import ConvLayer, NetworkDef, PActLayer
from .rng import make_rng
from .tensor_ops import _growth, as_filter, pad_filter


@dataclass(frozen=True)
class WidthMorphRequest:
    layer_index: int
    new_width: int
    seed: int = 0

    def __post_init__(self):
        for name, low in (("layer_index", None), ("new_width", 1), ("seed", 0)):
            _index(getattr(self, name), name, low=low)


@dataclass(frozen=True)
class SubnetMorphRequest:
    """``path_specs`` is one list of (kernel, channels) pairs per path; the
    last pair of every path must keep the parent layer's output channels."""

    layer_index: int
    path_specs: tuple
    split_weights: tuple
    seed: int = 0
    tol: float = DEFAULT_TOL

    def __post_init__(self):
        for name, low in (("layer_index", None), ("seed", 0)):
            _index(getattr(self, name), name, low=low)
        try:
            pairs = tuple(tuple((k, c) for k, c in p) for p in self.path_specs)
            weights = tuple(self.split_weights)
        except (TypeError, ValueError):
            raise ShapeError(
                "path_specs must be a sequence of paths of (kernel, channels) pairs and split_weights a sequence, "
                f"got {self.path_specs!r} and {self.split_weights!r}"
            ) from None
        specs = tuple(tuple((_odd_kernel(k, "path kernel"), _index(c, "path channels", low=1)) for k, c in p) for p in pairs)
        if not all(specs):
            raise ShapeError("empty path spec")
        object.__setattr__(self, "path_specs", specs)
        for w in weights:
            _finite(w, "split weight")
        object.__setattr__(self, "split_weights", tuple(float(w) for w in weights))
        if len(self.path_specs) != len(self.split_weights):
            raise ShapeError("one split weight per path is required")
        total = sum(self.split_weights)
        if abs(total - 1.0) > 1e-12:
            raise ShapeError(f"split weights must be finite and sum to 1, got {total}")
        _finite(self.tol, "tol", low=0, strict=True)


# ---------------------------------------------------------------------------
# width morphing


def _next_conv(layers, start):
    """Index of the next top-level conv after ``start``; the layers in
    between must be activations only."""
    for j in range(start + 1, len(layers)):
        if isinstance(layers[j], ConvLayer):
            return j
        if not isinstance(layers[j], PActLayer):
            raise ShapeError("widening across non-activation layers is not supported")
    raise ShapeError("no downstream conv layer to absorb the widened channels")


def widen(net: NetworkDef, req: WidthMorphRequest) -> NetworkDef:
    """Widen the blob produced by conv layer ``layer_index`` to
    ``new_width`` channels, preserving the network function.

    Every new channel takes Gaussian noise on its incoming filter rows (the
    spread of the parent's rows, or 1/sqrt(fan-in) when those are all
    equal), a zero bias and zeros on its outgoing filter columns.  The
    zero columns keep the function exact whatever the activations in
    between map zero to, and the noise gives every new channel a nonzero
    output, so training moves its outgoing columns and, through them, its
    incoming rows.  Finally the widened channels are randomly permuted.
    """
    layers = list(net.layers)
    i = req.layer_index
    lo = _conv_at(layers, i)
    j = _next_conv(layers, i)
    hi = layers[j]
    if req.new_width < lo.c_out:
        raise ShapeError(f"cannot shrink width {lo.c_out} to {req.new_width}")
    delta = req.new_width - lo.c_out
    rng = make_rng(req.seed)
    std = float(np.std(lo.weights)) or 1.0 / np.sqrt(lo.weights[0].size)
    new_in = rng.standard_normal((delta, lo.c_in, lo.kernel, lo.kernel)) * std
    perm = rng.permutation(req.new_width)
    w_lo = np.concatenate([lo.weights, new_in])[perm]
    b_lo = np.concatenate([lo.bias, np.zeros(delta)])[perm]
    w_hi = np.concatenate([hi.weights, np.zeros((hi.c_out, delta, hi.kernel, hi.kernel))], axis=1)[:, perm]
    layers[i] = replace(lo, weights=w_lo, bias=b_lo)
    layers[j] = replace(hi, weights=w_hi)
    return net.with_layers(layers)


# ---------------------------------------------------------------------------
# kernel-size morphing


def expand_kernel(net: NetworkDef, layer_index: int, new_kernel: int) -> NetworkDef:
    """Grow a conv layer's kernel by a centered ring of zeros and its pad by
    the ring's width (``_splice`` of a one-factor chain).  Exact everywhere,
    including image borders."""
    target = _conv_at(net.layers, layer_index)
    return _splice(net, layer_index, [[pad_filter(target.weights, _odd_kernel(new_kernel, "new_kernel"))]])


# ---------------------------------------------------------------------------
# sequential subnet morphing


def morph_sequential(g, widths, kernels, seed: int = 0, tol: float = DEFAULT_TOL):
    """Factor filter ``g`` into a chain of ``len(kernels)`` filters whose
    composition equals the zero-padded ``g``.

    ``widths`` are the hidden channel counts between consecutive factors
    (one fewer than ``kernels``).  The chain is built by peeling off one
    factor at a time with the practical two-factor solver: ``g`` becomes
    ``F1 ∘ H1`` with ``H1`` spanning the remaining layers' effective kernel,
    then ``H1`` becomes ``F2 ∘ H2``, and so on.  Peel ``p`` is seeded with
    ``seed + p`` and must reach relative residual ``tol``; a peel where
    neither side can absorb its target raises ``InfeasibleMorphError``
    naming that peel.  The last factor is zero-padded to the last kernel,
    so a one-kernel chain is ``g`` grown to that kernel.
    """
    g = as_filter(g)
    kernels = [_odd_kernel(v, "kernel") for v in kernels]
    widths = [_index(v, "width", low=1) for v in widths]
    n = len(kernels)
    if n < 1:
        raise ShapeError("a sequential morph needs at least one layer")
    if len(widths) != n - 1:
        raise ShapeError(f"{n} kernels need {n - 1} widths, got {len(widths)}")

    factors, rest = [], g
    for p in range(n - 1):
        k_rest = sum(kernels[p + 1 :]) - (n - p - 2)
        req = DepthMorphRequest(layer_index=0, c_l=widths[p], k1=kernels[p], k2=k_rest, seed=seed + p, tol=tol)
        try:
            outcome = morph_practical(rest, req)
        except InfeasibleMorphError as exc:
            raise InfeasibleMorphError(f"sequential morph peel {p} of {n - 1}: {exc}") from exc
        factors.append(outcome.f_lo)
        rest = outcome.f_hi
    factors.append(pad_filter(rest, kernels[-1]))
    return factors


# ---------------------------------------------------------------------------
# stacked subnet morphing


def morph_stacked(net: NetworkDef, req: SubnetMorphRequest) -> NetworkDef:
    """Replace one conv layer by sequential paths whose outputs sum to the
    parent layer's output on the whole image; each path pads for its own
    effective kernel.  Several paths become one ``ParallelLayer``; a single
    path is spliced in place as a plain chain."""
    target = _conv_at(net.layers, req.layer_index)
    for spec in req.path_specs:
        if spec[-1][1] != target.c_out:
            raise ShapeError(f"each path must end with {target.c_out} channels, got {spec[-1][1]}")
        _growth(target.kernel, sum(kk for kk, _ in spec) - (len(spec) - 1))
    chains = [
        morph_sequential(
            w * target.weights, widths=[c for _, c in spec[:-1]], kernels=[kk for kk, _ in spec], seed=req.seed + p, tol=req.tol
        )
        for p, (w, spec) in enumerate(zip(req.split_weights, req.path_specs))
    ]
    return _splice(net, req.layer_index, chains)
