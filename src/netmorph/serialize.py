"""NMPH weight-file format, version 1.

Layout::

    bytes 0..4    magic 4E 4D 50 48 01  ("NMPH" + version byte)
    u32 LE        manifest length in bytes
    ...           UTF-8 JSON manifest
    ...           tensor payload area
    u32 LE        CRC-32 of every byte before it

The manifest holds ``input_shape`` and the layer list; conv layers carry
``weights`` / ``bias`` byte offsets measured from the start of the tensor
payload area.  Every tensor is stored as a 16-byte header of four u32 LE
dims followed by little-endian IEEE-754 float64 values in row-major
order.  Biases are stored with dims (c_out, 1, 1, 1).

Serialization is canonical (sorted JSON keys, compact separators), so
serialize -> deserialize -> serialize is byte-identical.
"""

import json
import struct
import zlib

import numpy as np

from .errors import FormatError, ShapeError
from .netdef import ConvLayer, NetworkDef, PActLayer, ParallelLayer

MAGIC = b"NMPH\x01"


def _add_tensor(chunks, arr4d) -> int:
    """Append the header and the values of ``arr4d`` to the payload
    ``chunks``, the values as the array itself; return its offset."""
    arr = np.ascontiguousarray(arr4d, dtype="<f8")
    if arr.ndim != 4:
        raise FormatError(f"payload tensors must be rank-4, got {arr.ndim}")
    offset = sum(memoryview(c).nbytes for c in chunks)
    chunks += (struct.pack("<4I", *arr.shape), arr)
    return offset


def _layer_manifest(layer, chunks):
    if isinstance(layer, ConvLayer):
        w_off = _add_tensor(chunks, layer.weights)
        b_off = _add_tensor(chunks, layer.bias.reshape(-1, 1, 1, 1))
        return {
            "kind": "conv",
            "c_out": layer.c_out,
            "c_in": layer.c_in,
            "kernel": layer.kernel,
            "pad": layer.pad,
            "fc": bool(layer.fc),
            "weights": w_off,
            "bias": b_off,
        }
    if isinstance(layer, PActLayer):
        return {"kind": "pact", "base": layer.base, "a": layer.a}
    if isinstance(layer, ParallelLayer):
        return {"kind": "parallel", "paths": [[_layer_manifest(l, chunks) for l in path] for path in layer.paths]}
    raise FormatError(f"cannot serialize layer type {type(layer).__name__}")


def serialize(net: NetworkDef) -> bytes:
    chunks = []
    manifest = {
        "input_shape": list(net.input_shape),
        "layers": [_layer_manifest(l, chunks) for l in net.layers],
    }
    mbytes = json.dumps(manifest, sort_keys=True, separators=(",", ":")).encode("utf-8")
    # one join copies each tensor once, into the file
    parts = [MAGIC, struct.pack("<I", len(mbytes)), mbytes, *chunks]
    crc = 0
    for part in parts:
        crc = zlib.crc32(part, crc)
    parts.append(struct.pack("<I", crc))
    return b"".join(parts)


def _read_tensor(payload, offset: int) -> np.ndarray:
    if offset < 0 or offset + 16 > len(payload):
        raise FormatError(f"tensor header at offset {offset} lies outside the payload area")
    dims = struct.unpack("<4I", payload[offset : offset + 16])
    n = int(np.prod(dims))
    start = offset + 16
    end = start + 8 * n
    if end > len(payload):
        raise FormatError(f"tensor at offset {offset} declares {n} values but the payload is truncated")
    return np.frombuffer(payload[start:end], dtype="<f8").reshape(dims)


def _layer_from_manifest(entry, payload):
    if type(entry) is not dict:
        raise TypeError(f"layer entries must be objects, got {entry!r}")
    kind = entry.get("kind")
    if kind == "conv":
        c_out, c_in, k, pad = entry["c_out"], entry["c_in"], entry["kernel"], entry["pad"]
        fc = entry.get("fc", False)
        # bool is an int subclass, so the exact types are tested
        if any(type(v) is not int for v in (c_out, c_in, k, pad)) or type(fc) is not bool:
            raise TypeError(
                "conv c_out, c_in, kernel and pad must be integers and fc a boolean, "
                f"got c_out={c_out!r} c_in={c_in!r} kernel={k!r} pad={pad!r} fc={fc!r}"
            )
        weights = _read_tensor(payload, entry["weights"])
        bias = _read_tensor(payload, entry["bias"]).reshape(-1)
        if weights.shape != (c_out, c_in, k, k):
            raise FormatError(f"conv tensor shape {weights.shape} disagrees with its manifest entry")
        return ConvLayer(weights=weights, bias=bias, pad=pad, fc=fc)
    if kind == "pact":
        a = entry["a"]
        if type(a) not in (int, float):
            raise TypeError(f"pact a must be a number, got {a!r}")
        return PActLayer(base=entry["base"], a=a)
    if kind == "parallel":
        return ParallelLayer(paths=tuple(tuple(_layer_from_manifest(e, payload) for e in path) for path in entry["paths"]))
    raise FormatError(f"unknown layer kind {kind!r} in manifest")


def deserialize(data: bytes) -> NetworkDef:
    # a view, so that the checksum and the tensors read the file in place;
    # every ConvLayer copies its arrays, so the net shares no memory with data
    data = memoryview(data).cast("B")
    if len(data) < len(MAGIC) + 8:
        raise FormatError("file too short to be an NMPH weight file")
    if data[:4] != MAGIC[:4]:
        raise FormatError("bad magic: not an NMPH weight file")
    if data[4] != MAGIC[4]:
        raise FormatError(f"unsupported NMPH version {data[4]}")
    (stored_crc,) = struct.unpack("<I", data[-4:])
    if zlib.crc32(data[:-4]) != stored_crc:
        raise FormatError("checksum failure: file is corrupt")
    (mlen,) = struct.unpack("<I", data[5:9])
    mstart, mend = 9, 9 + mlen
    if mend > len(data) - 4:
        raise FormatError("truncated manifest")
    try:
        manifest = json.loads(bytes(data[mstart:mend]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise FormatError(f"unreadable manifest: {exc}") from exc
    payload = data[mend:-4]
    try:
        layers = [_layer_from_manifest(e, payload) for e in manifest["layers"]]
        shape = manifest["input_shape"]
        if type(shape) is not list or any(type(v) is not int for v in shape):
            raise TypeError(f"input_shape must be a list of integers, got {shape!r}")
        return NetworkDef(input_shape=tuple(shape), layers=layers)
    except (KeyError, TypeError, ValueError, ShapeError, RecursionError) as exc:
        raise FormatError(f"malformed manifest: {exc}") from exc


def save(net: NetworkDef, path):
    with open(path, "wb") as fh:
        fh.write(serialize(net))


def load(path) -> NetworkDef:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
