"""Parser and printer for the compact architecture notation.

Grammar (whitespace ignored between tokens)::

    string  = (unit | group)+
    unit    = "(" kernel ":" channels ["x" mult] ")"
    group   = "[" unit+ "]" ["x" times]

A unit ``(5:32x4)`` is a conv layer with kernel 5 and 32*4 = 128 output
channels; a group ``[...]x2`` repeats its units twice.  Classifier
(fully connected) layers are not part of the notation.

``parse_arch`` yields a weightless skeleton: a list of (kernel, channels)
pairs.  ``build_network`` turns a skeleton into a NetworkDef, inserting a
parametric activation after each conv layer by default.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ArchParseError
from .netdef import ConvLayer, NetworkDef, PActLayer, same_pad_conv
from .rng import make_rng


@dataclass(frozen=True)
class ConvSpec:
    kernel: int
    channels: int


class _Scanner:
    def __init__(self, text):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else None

    def expect(self, ch):
        got = self.peek()
        if got != ch:
            raise ArchParseError(f"expected {ch!r}, found {got!r}", self.pos)
        self.pos += 1

    def eat(self, ch):
        if self.peek() == ch:
            self.pos += 1
            return True
        return False

    def number(self):
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ArchParseError("expected a number", start)
        return int(self.text[start : self.pos])


def _parse_unit(sc: _Scanner):
    sc.expect("(")
    kernel = sc.number()
    sc.expect(":")
    channels = sc.number()
    if sc.eat("x"):
        channels *= sc.number()
    sc.expect(")")
    if kernel < 1 or channels < 1:
        raise ArchParseError(f"kernel and channels must be positive, got ({kernel}:{channels})", sc.pos)
    return ConvSpec(kernel=kernel, channels=channels)


def parse_arch(text: str):
    """Parse a notation string into a list of ConvSpec, in layer order."""
    sc = _Scanner(text)
    specs = []
    if sc.peek() is None:
        raise ArchParseError("empty architecture string", 0)
    while (ch := sc.peek()) is not None:
        if ch == "(":
            specs.append(_parse_unit(sc))
        elif ch == "[":
            sc.expect("[")
            group = []
            while sc.peek() == "(":
                group.append(_parse_unit(sc))
            if not group:
                raise ArchParseError("empty group", sc.pos)
            sc.expect("]")
            times = sc.number() if sc.eat("x") else 1
            if times < 1:
                raise ArchParseError("repetition count must be positive", sc.pos)
            specs.extend(group * times)
        else:
            raise ArchParseError(f"unexpected character {ch!r}", sc.pos)
    return specs


def print_arch(specs) -> str:
    """Render a skeleton (or a NetworkDef's conv layers) as flat notation."""
    if isinstance(specs, NetworkDef):
        specs = [ConvSpec(l.kernel, l.c_out) for l in specs.layers if isinstance(l, ConvLayer)]
    return "".join(f"({s.kernel}:{s.channels})" for s in specs)


def build_network(
    specs,
    input_shape,
    init: str = "gaussian",
    seed: int = 0,
    activations: bool = True,
    base: str = "relu",
) -> NetworkDef:
    """Materialize a skeleton into a NetworkDef with initialized weights.

    ``init`` is "gaussian" (std 1/sqrt(fan_in * k^2)) or "zeros".  Each
    conv layer is followed by PActLayer(base, a=0), the plain
    activation, unless ``activations`` is False.
    """
    rng = make_rng(seed)
    layers = []
    c_in = int(input_shape[0])
    for spec in specs:
        if spec.kernel % 2 == 0:
            raise ArchParseError(f"kernel size {spec.kernel} must be odd")
        shape = (spec.channels, c_in, spec.kernel, spec.kernel)
        if init == "gaussian":
            std = 1.0 / np.sqrt(c_in * spec.kernel**2)
            w = rng.standard_normal(shape) * std
        elif init == "zeros":
            w = np.zeros(shape)
        else:
            raise ValueError(f"unknown init {init!r}")
        layers.append(same_pad_conv(w))
        if activations:
            layers.append(PActLayer(base=base, a=0.0))
        c_in = spec.channels
    return NetworkDef(input_shape=tuple(input_shape), layers=layers)
