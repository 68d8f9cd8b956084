"""Seeded random number generation.

Every randomized operation in the package draws from a generator created
here, so a (seed, call sequence) pair fully determines the result on any
platform.  The generator is numpy's PCG64, whose bit stream is fixed by
the numpy random API compatibility policy; uniform draws come from
``Generator.random`` and Gaussian draws from ``Generator.standard_normal``
(ziggurat), both of which are stable across platforms for a given seed.
"""

import numpy as np

from .errors import _index


def make_rng(seed: int) -> np.random.Generator:
    """Return the package-standard generator (PCG64) for a 64-bit seed;
    a seed that is not an integer of at least 0 raises ``ShapeError``."""
    return np.random.Generator(np.random.PCG64(_index(seed, "seed", low=0)))
