"""Weight-file format: round trips, canonical bytes, corruption handling."""

import hashlib
import json
import struct
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netmorph import (
    ConvLayer,
    FormatError,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    deserialize,
    forward,
    load,
    make_rng,
    same_pad_conv,
    save,
    serialize,
)
from netmorph.netdef import BASES, MAX_STACK_DEPTH


def _sample_net(seed=0):
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(2, 6, 6),
        layers=[
            same_pad_conv(rng.standard_normal((3, 2, 3, 3)), bias=rng.standard_normal(3)),
            PActLayer(base="tanh", a=0.25),
            same_pad_conv(rng.standard_normal((4, 3, 1, 1)), fc=True),
        ],
    )


def test_round_trip_bitwise_weights():
    net = _sample_net()
    back = deserialize(serialize(net))
    assert back.input_shape == net.input_shape
    assert len(back.layers) == len(net.layers)
    assert np.array_equal(back.layers[0].weights, net.layers[0].weights)
    assert np.array_equal(back.layers[0].bias, net.layers[0].bias)
    assert back.layers[1] == net.layers[1]
    assert back.layers[2].fc is True


def test_serialize_is_canonical():
    net = _sample_net()
    data = serialize(net)
    assert serialize(deserialize(data)) == data


def test_deserialized_net_shares_no_memory_with_the_buffer():
    # the reader views the buffer in place; the net must still own its arrays
    net = _sample_net()
    buf = bytearray(serialize(net))
    back = deserialize(buf)
    buf[:] = bytes(len(buf))
    assert back == net


def test_parallel_layer_round_trip():
    rng = make_rng(1)
    net = NetworkDef(
        input_shape=(1, 5, 5),
        layers=[
            ParallelLayer(
                paths=(
                    (same_pad_conv(rng.standard_normal((2, 1, 3, 3))),),
                    (
                        same_pad_conv(rng.standard_normal((3, 1, 1, 1))),
                        PActLayer(base="relu", a=1.0),
                        same_pad_conv(rng.standard_normal((2, 3, 1, 1))),
                    ),
                )
            )
        ],
    )
    back = deserialize(serialize(net))
    assert isinstance(back.layers[0], ParallelLayer)
    assert np.array_equal(back.layers[0].paths[1][0].weights, net.layers[0].paths[1][0].weights)
    assert serialize(back) == serialize(net)


def test_serialized_bytes_are_pinned():
    # the file layout must not drift: these bytes were written before
    # serialize built the file in one join
    rng = make_rng(7)
    net = NetworkDef(
        input_shape=(2, 6, 6),
        layers=[
            same_pad_conv(rng.standard_normal((3, 2, 3, 3)), bias=rng.standard_normal(3)),
            PActLayer(base="tanh", a=0.25),
            ParallelLayer(
                paths=(
                    (same_pad_conv(rng.standard_normal((4, 3, 3, 3))),),
                    (
                        same_pad_conv(rng.standard_normal((5, 3, 1, 1)), bias=rng.standard_normal(5)),
                        PActLayer(base="relu", a=1.0),
                        same_pad_conv(rng.standard_normal((4, 5, 3, 3))),
                    ),
                )
            ),
            same_pad_conv(rng.standard_normal((2, 4, 1, 1)), fc=True),
        ],
    )
    data = serialize(net)
    assert len(data) == 3836
    assert hashlib.sha256(data).hexdigest() == "1622e825e17d1dfb4d8a058a2504eeb6ed2f8a23f33d0c7247d6d103540739d3"


@st.composite
def small_nets(draw):
    """Nets of convs (either ``fc`` value), PActs of every base with a in
    [0, 1], and stacks whose paths may hold stacks of their own."""
    rng = make_rng(draw(st.integers(0, 2**16)))

    def conv(c_out, c_in, k):
        w = rng.standard_normal((c_out, c_in, k, k))
        return same_pad_conv(w, bias=rng.standard_normal(c_out), fc=draw(st.booleans()))

    def chain(c, depth):
        layers = []
        for _ in range(draw(st.integers(1, 3))):
            kind = draw(st.sampled_from(["conv", "pact", "stack"][: 3 if depth < 2 else 2]))
            if kind == "pact":
                layers.append(PActLayer(base=draw(st.sampled_from(BASES)), a=draw(st.floats(0.0, 1.0))))
                continue
            c_out = draw(st.integers(1, 3))
            if kind == "conv":
                layers.append(conv(c_out, c, draw(st.sampled_from([1, 3]))))
            else:
                paths = []
                for _ in range(draw(st.integers(1, 3))):
                    path, c_path = chain(c, depth + 1)
                    paths.append((*path, conv(c_out, c_path, 1)))  # every path ends at c_out channels
                layers.append(ParallelLayer(paths=tuple(paths)))
            c = c_out
        return layers, c

    c_in = draw(st.integers(1, 3))
    hw = draw(st.integers(1, 4))
    return NetworkDef(input_shape=(c_in, hw, hw), layers=chain(c_in, 0)[0])


@settings(max_examples=60, deadline=None)
@given(small_nets())
def test_round_trip_gives_an_equal_net(net):
    data = serialize(net)
    back = deserialize(data)
    assert back == net
    assert serialize(back) == data


@pytest.mark.parametrize("a", [np.float32(0.5), np.int64(1), True], ids=repr)
def test_pact_a_of_any_number_type_round_trips(a):
    # PActLayer stores a as a Python float, which JSON writes and reads back
    net = NetworkDef(input_shape=(2, 6, 6), layers=[same_pad_conv(np.ones((3, 2, 3, 3))), PActLayer(base="relu", a=a)])
    back = deserialize(serialize(net))
    assert back == net
    assert type(back.layers[1].a) is float and back.layers[1].a == float(a)


def test_magic_starts_the_file():
    assert serialize(_sample_net())[:5] == b"NMPH\x01"


def test_corrupted_magic_rejected():
    data = bytearray(serialize(_sample_net()))
    data[0] ^= 0xFF
    with pytest.raises(FormatError, match="magic"):
        deserialize(bytes(data))


def test_unsupported_version_rejected():
    data = bytearray(serialize(_sample_net()))
    data[4] = 2
    with pytest.raises(FormatError, match="version"):
        deserialize(bytes(data))


def test_checksum_failure_detected():
    data = bytearray(serialize(_sample_net()))
    data[-10] ^= 0x01  # flip a payload bit, leave the stored CRC alone
    with pytest.raises(FormatError, match="checksum"):
        deserialize(bytes(data))


def test_truncated_tensor_payload_detected():
    net = _sample_net()
    data = serialize(net)
    # rebuild with a manifest pointing past the (now shortened) payload
    truncated = data[:-80]
    body = truncated + struct.pack("<I", zlib.crc32(truncated))
    with pytest.raises(FormatError):
        deserialize(body)


def _with_crc(body):
    return body + struct.pack("<I", zlib.crc32(body))


def rewrite_manifest(data, edit):
    """Weight-file bytes with ``edit`` applied to the manifest and a valid CRC-32."""
    (mlen,) = struct.unpack("<I", data[5:9])
    manifest = json.loads(data[9 : 9 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _with_crc(data[:5] + struct.pack("<I", len(mbytes)) + mbytes + data[9 + mlen : -4])


def _replace_manifest_bytes(data, fill):
    """Weight-file bytes whose manifest is ``fill`` repeated to its length, with a valid CRC-32."""
    (mlen,) = struct.unpack("<I", data[5:9])
    return _with_crc(data[:9] + fill * mlen + data[9 + mlen : -4])


def _stack_first_conv_with_pads(m, pads):
    """Replace the first conv by a stack of copies of it, one per pad."""
    m["layers"][0] = {"kind": "parallel", "paths": [[dict(m["layers"][0], pad=p)] for p in pads]}


INVALID_LAYERS = {
    "pad-negative": lambda m: m["layers"][0].update(pad=-1),
    "output-empty": lambda m: (m.update(input_shape=[2, 2, 2]), m["layers"][0].update(pad=0)),
    "stacked-sizes-differ": lambda m: _stack_first_conv_with_pads(m, [1, 0]),
    "pad-past-growth-bound": lambda m: m["layers"][2].update(pad=10**6),
    "input-channels-mismatch": lambda m: m.update(input_shape=[5, 6, 6]),
    "pad-float": lambda m: m["layers"][0].update(pad=1.0),
    "fc-string": lambda m: m["layers"][2].update(fc="no"),
    "input-shape-float": lambda m: m.update(input_shape=[2.7, 6, 6]),
    "c-out-float": lambda m: m["layers"][0].update(c_out=3.0),
    "c-in-float": lambda m: m["layers"][0].update(c_in=2.0),
    "kernel-float": lambda m: m["layers"][0].update(kernel=3.0),
    "a-boolean": lambda m: m["layers"][1].update(a=False),
}


@pytest.mark.parametrize("edit", INVALID_LAYERS.values(), ids=INVALID_LAYERS.keys())
def test_invalid_layers_with_valid_checksum_rejected(edit):
    data = rewrite_manifest(serialize(_sample_net()), edit)
    with pytest.raises(FormatError, match="malformed manifest"):
        deserialize(data)


# Files with a valid CRC-32 that the reader rejects outside the manifest's
# layer checks: (damage applied to a sample file, the error's message)
DAMAGED_FILES = {
    "tensor-offset-outside-payload": (
        lambda d: rewrite_manifest(d, lambda m: m["layers"][0].update(weights=10**6)),
        "outside the payload area",
    ),
    "tensor-shape-disagrees": (
        lambda d: rewrite_manifest(d, lambda m: m["layers"][0].update(weights=m["layers"][0]["bias"])),
        "disagrees with its manifest entry",
    ),
    "unknown-layer-kind": (lambda d: rewrite_manifest(d, lambda m: m["layers"][1].update(kind="pool")), "unknown layer kind"),
    "manifest-past-the-end": (lambda d: _with_crc(d[:5] + struct.pack("<I", len(d)) + d[9:-4]), "truncated manifest"),
    "manifest-not-utf8": (lambda d: _replace_manifest_bytes(d, b"\xff"), "unreadable manifest"),
    "manifest-not-json": (lambda d: _replace_manifest_bytes(d, b"{"), "unreadable manifest"),
}


@pytest.mark.parametrize("damage, message", DAMAGED_FILES.values(), ids=DAMAGED_FILES.keys())
def test_damaged_files_with_valid_checksum_rejected(damage, message):
    with pytest.raises(FormatError, match=message):
        deserialize(damage(serialize(_sample_net())))


def nest_first_layer(data, depth):
    """Weight-file bytes whose first layer lies inside ``depth`` nested
    one-path stacks, with a valid CRC-32.  The manifest is written as text:
    ``json.dumps`` itself overflows the stack a few hundred levels deep."""
    (mlen,) = struct.unpack("<I", data[5:9])
    manifest = json.loads(data[9 : 9 + mlen])
    first = json.dumps(manifest["layers"][0], sort_keys=True, separators=(",", ":"))
    manifest["layers"][0] = None
    nested = '{"kind":"parallel","paths":[[' * depth + first + "]]}" * depth
    text = json.dumps(manifest, sort_keys=True, separators=(",", ":")).replace('"layers":[null', '"layers":[' + nested, 1)
    mbytes = text.encode("utf-8")
    return _with_crc(data[:5] + struct.pack("<I", len(mbytes)) + mbytes + data[9 + mlen : -4])


# Files with a valid CRC-32 whose manifest holds a layer entry that is not
# a JSON object, or nests stacks too deep: (damage applied to a sample
# file, the error's message)
CRAFTED_MANIFESTS = {
    "layer-not-object": (lambda d: rewrite_manifest(d, lambda m: m.update(layers=[1])), "must be objects"),
    "path-entry-not-object": (
        lambda d: rewrite_manifest(d, lambda m: m["layers"].__setitem__(0, {"kind": "parallel", "paths": [[1]]})),
        "must be objects",
    ),
    "stacks-past-depth-limit": (lambda d: nest_first_layer(d, MAX_STACK_DEPTH + 1), "nested more than"),
    "stacks-200-deep": (lambda d: nest_first_layer(d, 200), "nested more than"),
    "stacks-past-json-depth": (lambda d: nest_first_layer(d, 2000), "recursion depth"),
}


@pytest.mark.parametrize("damage, message", CRAFTED_MANIFESTS.values(), ids=CRAFTED_MANIFESTS.keys())
def test_crafted_manifests_rejected(damage, message):
    with pytest.raises(FormatError, match=message):
        deserialize(damage(serialize(_sample_net())))


def test_stacks_at_depth_limit_round_trip():
    data = serialize(_sample_net())
    nested = nest_first_layer(data, MAX_STACK_DEPTH)
    net = deserialize(nested)
    assert serialize(net) == nested
    x = make_rng(4).standard_normal((2, 6, 6))
    assert np.array_equal(forward(net, x), forward(deserialize(data), x))


def test_non_same_pads_round_trip_byte_for_byte():
    rng = make_rng(5)

    def conv(c_out, c_in, k, pad):
        return ConvLayer(rng.standard_normal((c_out, c_in, k, k)), rng.standard_normal(c_out), pad)

    # a depth child's pads, a 1x1 conv padding past its kernel, and a stack of both
    paths = ((conv(4, 3, 1, 0),), (conv(5, 3, 3, 0), PActLayer(base="relu", a=1.0), conv(4, 5, 1, 1)))
    net = NetworkDef(input_shape=(2, 6, 6), layers=[conv(3, 2, 3, 2), ParallelLayer(paths=paths), conv(2, 4, 5, 0)])
    assert net._output_shape == (2, 4, 4)
    data = serialize(net)
    back = deserialize(data)
    assert back == net and back.layers[1].paths[1][2].pad == 1
    assert serialize(back) == data


def test_rewrite_manifest_without_edit_is_identity():
    data = serialize(_sample_net())
    assert rewrite_manifest(data, lambda m: None) == data


def test_short_file_rejected():
    with pytest.raises(FormatError):
        deserialize(b"NMPH")


def test_save_load_files(tmp_path):
    net = _sample_net()
    path = tmp_path / "net.nmph"
    save(net, path)
    back = load(path)
    assert serialize(back) == serialize(net)
