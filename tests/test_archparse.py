"""Architecture-notation parser and printer."""

import pytest

from netmorph import ArchParseError, ConvSpec, NetworkDef, ShapeError, build_network, make_rng, parse_arch, print_arch

CORPUS = [
    "(5:32)(5:32)(5:64)",
    "(5:32x4)(1:32)(5:32)(5:64)",
    "(5:32x4)(1:32)(5:32x4)(1:32)(5:64)",
    "(5:32x4)(1:32)(5:32x4)(1:32)(5:64x4)(1:64)",
    "[(5:32x4)(1:32)]x2[(5:64x4)(1:64)]",
    "(3:16)(1:16)(3:16)",
    "(7:96)(1:96)",
]


def test_three_layer_string():
    specs = parse_arch("(5:32)(5:32)(5:64)")
    assert [(s.kernel, s.channels) for s in specs] == [(5, 32), (5, 32), (5, 64)]


def test_multiplier_and_repetition():
    specs = parse_arch("[(5:32x4)(1:32)]x2[(5:64x4)(1:64)]")
    assert [(s.kernel, s.channels) for s in specs] == [
        (5, 128), (1, 32), (5, 128), (1, 32), (5, 256), (1, 64),
    ]


def test_whitespace_ignored():
    assert parse_arch(" (5:32) (5:64) ") == parse_arch("(5:32)(5:64)")


@pytest.mark.parametrize("text", CORPUS)
def test_parse_print_round_trip(text):
    specs = parse_arch(text)
    flat = print_arch(specs)
    assert parse_arch(flat) == specs


@pytest.mark.parametrize(
    "bad",
    ["", "[]", "((", "(5:32", "(5)", "(0:32)", "(5:0)", "[(5:32)]x0", "(5:32)]", "x2", "(a:b)"],
)
def test_malformed_inputs_raise(bad):
    with pytest.raises(ArchParseError):
        parse_arch(bad)


def test_parse_error_reports_position():
    with pytest.raises(ArchParseError) as exc:
        parse_arch("(5:32)?")
    assert exc.value.position == 6
    assert "column 7" in str(exc.value)


def test_print_arch_accepts_network():
    net = build_network(parse_arch("(3:8)(1:4)"), input_shape=(3, 8, 8), seed=1)
    assert print_arch(net) == "(3:8)(1:4)"


def test_build_network_shapes_and_activations():
    net = build_network(parse_arch("(5:32)(5:64)"), input_shape=(3, 16, 16), seed=0, base="tanh")
    assert isinstance(net, NetworkDef)
    convs = [net.layers[i] for i in net.conv_indices()]
    assert [c.weights.shape for c in convs] == [(32, 3, 5, 5), (64, 32, 5, 5)]
    assert len(net.layers) == 4  # conv, act, conv, act
    assert net.layers[1].base == "tanh" and net.layers[1].a == 0.0


def test_build_network_zero_init():
    net = build_network([ConvSpec(3, 4)], input_shape=(2, 6, 6), init="zeros")
    assert not net.layers[0].weights.any()


def test_build_network_deterministic_by_seed():
    a = build_network(parse_arch("(3:8)"), input_shape=(1, 6, 6), seed=5)
    b = build_network(parse_arch("(3:8)"), input_shape=(1, 6, 6), seed=5)
    assert (a.layers[0].weights == b.layers[0].weights).all()


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_bad_seed_rejected(seed):
    with pytest.raises(ShapeError, match="seed must be an integer >= 0"):
        make_rng(seed)
    with pytest.raises(ShapeError, match="seed must be an integer >= 0"):
        build_network(parse_arch("(3:8)"), input_shape=(1, 6, 6), seed=seed)


def test_even_kernel_rejected_at_build():
    with pytest.raises(ArchParseError):
        build_network([ConvSpec(4, 8)], input_shape=(1, 6, 6))
