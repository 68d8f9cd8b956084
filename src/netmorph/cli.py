"""Command-line surface: parse, inspect, morph, verify, train, eval.

Exit codes: 0 success (or verification pass), 1 verification failure,
2 usage or I/O error, 3 infeasible morph (``morph`` only).  A request too
large to allocate exits like a shape error: 3 from ``morph``, 2 otherwise.
All output is line-oriented key=value text so it can be asserted on
without a parser.
"""

import argparse
import functools
import os
import sys

from .archparse import parse_arch, print_arch, build_network
from .errors import ArchParseError, FormatError, InfeasibleMorphError, NetMorphError, ShapeError, _finite, _index, _odd_kernel
from .morph_depth import DEFAULT_TOL, DepthMorphRequest, _depth_child
from .morph_variants import SubnetMorphRequest, WidthMorphRequest, expand_kernel, morph_stacked, widen
from .netdef import BASES, ConvLayer, PActLayer, ParallelLayer
from .serialize import load as load_net, save as save_net
from .train import TrainConfig, evaluate, load_mnist_idx, train_sgd
from .verify import _nonzero, check_preservation

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INFEASIBLE = 3


def _shape(text):
    parts = [int(v) for v in text.split(",")]
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected c,h,w, got {text!r}")
    return tuple(parts)


def _layer_lines(net):
    lines = [f"input_shape={net.input_shape[0]},{net.input_shape[1]},{net.input_shape[2]}"]
    for i, layer in enumerate(net.layers):
        if isinstance(layer, ConvLayer):
            kind = "fc" if layer.fc else "conv"
            lines.append(f"layer{i}={kind} kernel={layer.kernel} c_out={layer.c_out} c_in={layer.c_in} pad={layer.pad}")
        elif isinstance(layer, PActLayer):
            lines.append(f"layer{i}=pact base={layer.base} a={layer.a:g}")
        elif isinstance(layer, ParallelLayer):
            widths = "/".join(str(len(p)) for p in layer.paths)
            lines.append(f"layer{i}=parallel paths={len(layer.paths)} path_lengths={widths}")
    return lines


def _conv_raw_index(net, ordinal):
    idx = net.conv_indices()
    if not 0 <= ordinal < len(idx):
        raise UsageError(f"conv layer {ordinal} out of range (network has {len(idx)} conv layers)")
    return idx[ordinal]


def _parse_paths(text):
    """Per-path notation with an @weight suffix, comma separated, e.g.
    "(3:32)(1:32)@0.5,(5:32)@0.5".  Only the notation's own rules are
    checked here; ``SubnetMorphRequest`` checks the kernels and weights."""
    specs, weights = [], []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if "@" in chunk:
            body, w = chunk.rsplit("@", 1)
            try:
                weights.append(float(w))
            except ValueError:
                raise ArchParseError(f"path weight {w!r} is not a number") from None
        else:
            body = chunk
            weights.append(None)
        specs.append([(s.kernel, s.channels) for s in parse_arch(body)])
    if any(w is None for w in weights):
        if not all(w is None for w in weights):
            raise ArchParseError("either give every path an @weight or none")
        weights = [1.0 / len(specs)] * len(specs)
    return specs, weights


def cmd_parse(args):
    specs = parse_arch(args.arch)
    net = build_network(specs, args.input_shape, init=args.init, seed=args.seed, base=args.base)
    save_net(net, args.output)
    print(f"arch={print_arch(specs)}")
    for line in _layer_lines(net):
        print(line)
    return EXIT_OK


def cmd_inspect(args):
    net = load_net(args.input)
    # the notation has no stacked layer and no pad, so an arch= line would drop them
    if all(isinstance(l, PActLayer) or isinstance(l, ConvLayer) and 2 * l.pad == l.kernel - 1 for l in net.layers):
        print(f"arch={print_arch(net)}")
    for line in _layer_lines(net):
        print(line)
    return EXIT_OK


def _morph_request(args, raw):
    """The request ``args`` make of conv ``raw``: a depth, width or subnet
    request, or the new kernel size.  A value that no net could take (a
    non-positive size, an even kernel, a ``--tol`` not above 0) raises
    ``ShapeError`` here."""
    _finite(args.tol, "--tol", low=0, strict=True)
    if args.op == "depth":
        if args.cl is None or args.k1 is None or args.k2 is None:
            raise UsageError("depth morph needs --cl, --k1 and --k2")
        return DepthMorphRequest(layer_index=raw, c_l=args.cl, k1=args.k1, k2=args.k2, seed=args.seed, tol=args.tol)
    if args.op == "width":
        if args.width is None:
            raise UsageError("width morph needs --width")
        return WidthMorphRequest(layer_index=raw, new_width=args.width, seed=args.seed)
    if args.op == "ksize":
        if args.kernel is None:
            raise UsageError("ksize morph needs --kernel")
        return _odd_kernel(args.kernel, "--kernel")
    if not args.paths:
        raise UsageError("subnet morph needs --paths")
    specs, weights = _parse_paths(args.paths)
    return SubnetMorphRequest(layer_index=raw, path_specs=specs, split_weights=weights, seed=args.seed, tol=args.tol)


def cmd_morph(args):
    net = load_net(args.input)
    raw = _conv_raw_index(net, args.layer)
    # a value no net could take is a usage error (exit 2); a valid value
    # that this net cannot take fails in the morph below (exit 3)
    try:
        req = _morph_request(args, raw)
    except ShapeError as exc:
        raise UsageError(str(exc)) from None
    if args.op == "depth":
        child, outcome = _depth_child(net, req, args.alg)
        occ = (_nonzero(outcome.f_lo) + _nonzero(outcome.f_hi)) / (outcome.f_lo.size + outcome.f_hi.size)
        print(f"op=depth layer={args.layer} residual={outcome.residual:.3e} shrunk_kernel={outcome.shrunk_kernel}")
        print(f"occupancy={occ:.6f}")
    elif args.op == "width":
        child = widen(net, req)
        print(f"op=width layer={args.layer} new_width={args.width}")
    elif args.op == "ksize":
        child = expand_kernel(net, raw, req)
        print(f"op=ksize layer={args.layer} new_kernel={args.kernel}")
    else:
        child = morph_stacked(net, req)
        print(f"op=subnet layer={args.layer} paths={len(req.path_specs)}")
    save_net(child, args.output)
    print(f"written={args.output}")
    return EXIT_OK


def cmd_verify(args):
    _index(args.samples, "--samples", low=1)
    _finite(args.tol, "--tol", low=0)
    a = load_net(args.net_a)
    b = load_net(args.net_b)
    report = check_preservation(a, b, n_samples=args.samples, tol=args.tol, seed=args.seed)
    print(report.to_text())
    return EXIT_OK if report.pass_ else EXIT_FAIL


def _load_pair(data_dir, stem_images, stem_labels):
    for suffix in ("", ".gz"):
        ip = os.path.join(data_dir, stem_images + suffix)
        lp = os.path.join(data_dir, stem_labels + suffix)
        if os.path.exists(ip) and os.path.exists(lp):
            return load_mnist_idx(ip, lp)
    raise UsageError(f"MNIST files {stem_images}/{stem_labels} not found under {data_dir}")


def cmd_train(args):
    net = load_net(args.input)
    train_set = _load_pair(args.data_dir, "train-images-idx3-ubyte", "train-labels-idx1-ubyte")
    test_set = _load_pair(args.data_dir, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    cfg = TrainConfig(
        learning_rate=args.lr, batch_size=args.batch, epochs=args.epochs,
        seed=args.seed, momentum=args.momentum, a_learning_rate=args.a_lr,
    )
    trained, trace = train_sgd(net, train_set, cfg)
    for k, loss in enumerate(trace):
        print(f"epoch={k} loss={loss:.6f}")
    print(f"accuracy={evaluate(trained, test_set):.4f}")
    save_net(trained, args.output)
    print(f"written={args.output}")
    return EXIT_OK


def cmd_eval(args):
    net = load_net(args.input)
    test_set = _load_pair(args.data_dir, "t10k-images-idx3-ubyte", "t10k-labels-idx1-ubyte")
    print(f"accuracy={evaluate(net, test_set):.4f}")
    return EXIT_OK


class UsageError(NetMorphError):
    pass


def build_parser():
    parser = argparse.ArgumentParser(prog="netmorph", description="Function-preserving network morphing")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="build an initialized network from notation")
    p.add_argument("--arch", required=True)
    p.add_argument("--input-shape", type=_shape, default=(3, 32, 32))
    p.add_argument("--init", choices=["gaussian", "zeros"], default="gaussian")
    p.add_argument("--base", choices=BASES, default="relu")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output", required=True)
    p.set_defaults(func=cmd_parse)

    p = sub.add_parser("inspect", help="print a network summary")
    p.add_argument("-i", "--input", required=True)
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("morph", help="apply one morphing operation")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--op", choices=["depth", "width", "ksize", "subnet"], required=True)
    p.add_argument("--layer", type=int, required=True, help="conv layer ordinal (0-based)")
    p.add_argument("--cl", type=int)
    p.add_argument("--k1", type=int)
    p.add_argument("--k2", type=int)
    p.add_argument("--width", type=int)
    p.add_argument("--kernel", type=int)
    p.add_argument("--paths")
    p.add_argument("--alg", choices=["general", "practical"], default="practical")
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_morph)

    p = sub.add_parser("verify", help="check function preservation between two networks")
    p.add_argument("-a", "--net-a", required=True)
    p.add_argument("-b", "--net-b", required=True)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--tol", type=float, default=DEFAULT_TOL)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    for name, fn in (("train", cmd_train), ("eval", cmd_eval)):
        p = sub.add_parser(name, help=f"{name} a network on MNIST IDX data")
        p.add_argument("-i", "--input", required=True)
        p.add_argument("--data-dir", required=True)
        if name == "train":
            p.add_argument("--lr", type=float, default=0.1)
            p.add_argument("--a-lr", type=float, default=0.01)
            p.add_argument("--epochs", type=int, default=10)
            p.add_argument("--batch", type=int, default=64)
            p.add_argument("--momentum", type=float, default=0.9)
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("-o", "--output", required=True)
        p.set_defaults(func=fn)

    return parser


@functools.cache
def _parser():
    """``build_parser()``, built once per process: building it takes some
    25 times as long as parsing one command line with it."""
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "seed", 0) < 0:
            raise UsageError(f"--seed must be >= 0, got {args.seed}")
        return args.func(args)
    except (ArchParseError, FormatError, UsageError, OSError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_USAGE
    except (InfeasibleMorphError, ShapeError, MemoryError) as exc:
        print(f"error={exc}", file=sys.stderr)
        return EXIT_INFEASIBLE if args.command == "morph" else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
