"""Verification oracle: function-preservation checking plus filter
occupancy.

Preservation is checked pointwise on random Gaussian inputs.  Parent and
child are aligned from both ends; the layers in front of the changed block
are the same in both nets, so each sample runs through them once and their
output feeds both remaining layer lists.  Composed convolutions only match
a single convolution away from the image edge, because each inner conv
reads a zero-padded intermediate blob, so a border of the width that
padding can reach is cropped before comparing.  That border is found piece
by piece, the nets being cut after every activation that is not the
identity: the first piece pair that differs sets it, and later pieces
spread it.  A parent block's own padding error cancels the child's only
within one piece, not across a nonlinearity.
Structural support ignores zero outer rings, so kernel-size morphs
(zero-ring growth) and practical depth morphs whose shrunk factor is 1x1
are credited as exact.
"""

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ShapeError
from .netdef import ConvLayer, NetworkDef, PActLayer, ParallelLayer, forward_pass
from .rng import make_rng

ZERO_THRESHOLD = 1e-12


def support_radius(f) -> int:
    """Largest Chebyshev distance from the kernel centre of any tap with
    magnitude above the structural-zero threshold (0 if there is none)."""
    f = np.asarray(f)
    half = (f.shape[2] - 1) // 2
    rows, cols = np.nonzero(np.abs(f).max(axis=(0, 1)) > ZERO_THRESHOLD)
    return int(np.maximum(abs(rows - half), abs(cols - half)).max(initial=0))


def _padding_error(layers, support=0):
    """Return (border, support) for ``layers`` reading a blob of upstream
    support radius ``support``: the border width on which they differ from
    their composed single filter, and the support radius of their output.

    A conv that reads a blob produced inside ``layers`` with non-zero
    support sees zeros past the image edge where the composed filter sees
    that blob's (non-zero) values, so it seeds an error of its own support
    radius; a conv reading an erroneous blob spreads the error by the same
    radius.  Error implies support, so one condition covers both.
    """
    border = 0
    for layer in layers:
        if isinstance(layer, ConvLayer):
            r = support_radius(layer.weights)
            if support > 0:
                border += r
            support += r
        elif isinstance(layer, ParallelLayer):
            paths = [_padding_error(path, support) for path in layer.paths]
            border += max(b for b, _ in paths)
            support = max(s for _, s in paths)
    return border, support


def _reach(layers) -> int:
    """How far ``layers`` spread an error already in the blob they read."""
    return _padding_error(layers, 1)[0]


def _shared_ends(pa, ch):
    """The numbers of leading and trailing layers ``pa`` and ``ch`` share;
    the two runs may overlap."""
    n = min(len(pa), len(ch))
    head = next((i for i in range(n) if pa[i] != ch[i]), n)
    tail = next((i for i in range(n) if pa[-1 - i] != ch[-1 - i]), n)
    return head, tail


def _pieces(layers):
    """``layers`` cut after every activation that is not the identity."""
    cuts = [i + 1 for i, layer in enumerate(layers) if isinstance(layer, PActLayer) and layer.a != 1]
    return [layers[a:b] for a, b in zip([0] + cuts, cuts + [len(layers)])]


def _piece_border(pa, ch):
    """The border on which piece ``ch`` differs from piece ``pa`` when both
    read the same blob: the padding error of the block between the layers
    they share, spread by their shared tail."""
    head, tail = _shared_ends(pa, ch)
    start = min(head, min(len(pa), len(ch)) - tail)
    blocks = pa[start : len(pa) - tail], ch[start : len(ch) - tail]
    (parent_err, _), (child_err, _) = (_padding_error(b) for b in blocks)
    # the parent's own padding error is shared only by a block of the same structure
    kinds = [[sum(isinstance(l, t) for l in b) for t in (ConvLayer, ParallelLayer)] for b in blocks]
    border = child_err - parent_err if kinds[0] == kinds[1] else max(child_err, parent_err)
    return border + _reach(pa[len(pa) - tail :]) if border > 0 else 0


def _align(parent: NetworkDef, child: NetworkDef):
    """Return (head, border): the number of leading layers the two nets
    share, and the crop border described in ``crop_border_for``."""
    head = _shared_ends(parent.layers, child.layers)[0]
    pieces = _pieces(parent.layers), _pieces(child.layers)
    if len(pieces[0]) != len(pieces[1]):
        pieces = [parent.layers], [child.layers]
    border = 0
    for pa, ch in zip(*pieces):
        if border > 0:
            border += max(_reach(pa), _reach(ch))
        elif pa != ch:
            border = _piece_border(pa, ch)
    return head, border


def crop_border_for(parent: NetworkDef, child: NetworkDef) -> int:
    """Width of the image border on which parent and child may disagree.

    Each net is cut into pieces after every activation that is not the
    identity (each net is one piece if the two nets have different piece
    counts), and the pieces are paired in order.  While the border is 0, a
    pair that differs sets it: the pair is aligned from both ends, and in
    between lies its changed block.  Inside the block, every conv that
    reads an intermediate blob with non-zero upstream support sees zero
    padding where the parent's filter sees data, and adds its support
    radius to the border.  When the parent's block has as many conv and
    parallel layers as the child's, the border is the child block's error
    less the parent block's; otherwise it is the larger of the two.  Each
    conv of the pair's untouched tail then spreads the border by its
    support radius.  Once the border is positive, each later pair spreads
    it by the larger of its two reaches (the sum of the support radii along
    a piece).
    Width, kernel-size and depth morphs whose lower or upper factor is 1x1
    add nothing, so they are exact everywhere.
    """
    return _align(parent, child)[1]


@dataclass(frozen=True)
class PreservationReport:
    samples: int
    max_abs_dev: float
    crop_border: int
    exact_mode: bool
    pass_: bool
    tol: float

    def to_text(self) -> str:
        return "\n".join(
            [
                f"samples={self.samples}",
                f"max_abs_dev={self.max_abs_dev:.6e}",
                f"crop_border={self.crop_border}",
                f"exact_mode={'true' if self.exact_mode else 'false'}",
                f"tol={self.tol:.6e}",
                f"pass={'true' if self.pass_ else 'false'}",
            ]
        )


def check_preservation(parent: NetworkDef, child: NetworkDef, n_samples: int, tol: float, seed: int = 0) -> PreservationReport:
    """Compare parent and child outputs on random Gaussian inputs.

    Each sample runs once through the leading layers the two nets share
    (see ``crop_border_for``), and that output feeds the rest of each net;
    the samples, crop and verdict are those of two full forward passes.
    ``n_samples`` must be an integer >= 1 and ``tol`` a finite number >= 0.
    """
    if parent.input_shape != child.input_shape:
        raise ShapeError(f"input shapes differ: {parent.input_shape} vs {child.input_shape}")
    try:
        operator.index(n_samples)
    except TypeError:
        raise ShapeError(f"n_samples must be an integer, got {n_samples!r}") from None
    if n_samples < 1:
        raise ShapeError("n_samples must be >= 1")
    if not 0 <= tol < math.inf:  # also rejects NaN
        raise ShapeError(f"tol must be a finite number >= 0, got {tol}")
    head, border = _align(parent, child)
    _, h, w = parent.input_shape
    if h > 1 and w > 1 and (h - 2 * border <= 0 or w - 2 * border <= 0):
        raise ShapeError(f"crop border {border} leaves no interior on a {h}x{w} input")
    shared, parent_rest, child_rest = (
        (layers, [layer.params() for layer in layers])
        for layers in (parent.layers[:head], parent.layers[head:], child.layers[head:])
    )
    rng = make_rng(seed)
    max_dev = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(parent.input_shape)
        y = forward_pass(*shared, x[None])[0]
        pa = forward_pass(*parent_rest, y)[0][0]
        ch = forward_pass(*child_rest, y)[0][0]
        if pa.shape != ch.shape:
            raise ShapeError(f"output shapes differ: {pa.shape} vs {ch.shape}")
        if border > 0 and pa.shape[1] > 1 and pa.shape[2] > 1:
            pa = pa[:, border:-border, border:-border]
            ch = ch[:, border:-border, border:-border]
        # np.maximum keeps a NaN deviation, where max(0.0, nan) drops it
        max_dev = float(np.maximum(max_dev, np.abs(pa - ch).max()))
    return PreservationReport(
        samples=n_samples,
        max_abs_dev=max_dev,
        crop_border=border,
        exact_mode=border == 0,
        pass_=max_dev <= tol,
        tol=tol,
    )


@dataclass(frozen=True)
class OccupancyStats:
    total: int
    nonzero: int
    fraction: float


def occupancy(f) -> OccupancyStats:
    """Fraction of filter entries that are structurally nonzero."""
    f = np.asarray(f)
    nonzero = int(np.count_nonzero(np.abs(f) > ZERO_THRESHOLD))
    total = int(f.size)
    return OccupancyStats(total=total, nonzero=nonzero, fraction=nonzero / total if total else 0.0)
