"""Preservation checking and occupancy."""

import itertools
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from netmorph import (
    DepthMorphRequest,
    NetworkDef,
    PActLayer,
    ParallelLayer,
    ShapeError,
    SubnetMorphRequest,
    WidthMorphRequest,
    build_network,
    check_preservation,
    deserialize,
    expand_kernel,
    forward,
    identity_filter,
    insert_depth,
    make_rng,
    morph_stacked,
    occupancy,
    parse_arch,
    same_pad_conv,
    serialize,
    widen,
)
from netmorph import netdef
from netmorph.verify import PreservationReport, _align

from conftest import traced_peak


def _net(seed=0, k=3, hw=8):
    rng = make_rng(seed)
    return NetworkDef(
        input_shape=(2, hw, hw),
        layers=[
            same_pad_conv(rng.standard_normal((4, 2, k, k)), bias=rng.standard_normal(4)),
            PActLayer(base="relu", a=0.0),
            same_pad_conv(rng.standard_normal((3, 4, k, k))),
        ],
    )


def nan_output_pair():
    """A (3:4)(3:4) parent and a child whose every output is NaN: the first
    conv's channels are +-1e308 (+, -, +, -), which overflow to +-inf, and
    the second conv's centre taps +1, +1, -1, -1 add inf to -inf."""
    parent = build_network(parse_arch("(3:4)(3:4)"), (3, 8, 8), seed=0)
    lo, hi = parent.conv_indices()
    w_lo = np.ones((4, 3, 3, 3)) * np.array([1.0, -1.0, 1.0, -1.0])[:, None, None, None] * 1e308
    w_hi = np.zeros((4, 4, 3, 3))
    w_hi[:, :, 1, 1] = [1.0, 1.0, -1.0, -1.0]
    layers = list(parent.layers)
    layers[lo], layers[hi] = same_pad_conv(w_lo), same_pad_conv(w_hi)
    return parent, parent.with_layers(layers)


def _with_conv(net, i, **changes):
    layers = list(net.layers)
    layers[i] = replace(layers[i], **changes)
    return net.with_layers(layers)


def paper_pair_children():
    """A (5:4)(5:4) parent with nonzero biases, its (5:16)(1:4) depth child
    with a nonzero lower bias that the upper bias makes up for, and three
    broken copies of that child."""
    parent = build_network(parse_arch("(5:4)(5:4)"), (3, 12, 12), seed=12)
    parent = _with_conv(parent, 0, bias=make_rng(13).standard_normal(4))
    child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=16, k1=5, k2=1, seed=0))
    lo, hi = child.layers[0], child.layers[2]
    v = make_rng(14).standard_normal(16)
    child = _with_conv(_with_conv(child, 0, bias=v), 2, bias=hi.bias - hi.weights.sum(axis=(2, 3)) @ v)
    f_hi = child.layers[2].weights.copy()
    f_hi[1, 3, 0, 0] += 1e-6
    broken = {
        "f_hi+1e-6": _with_conv(child, 2, weights=f_hi),
        # moved as its plain sum: only the upper filter's weights make up for it
        "lower-bias-moved-up": _with_conv(_with_conv(child, 0, bias=np.zeros(16)), 2, bias=child.layers[2].bias + v.sum()),
        "a=0.999": child.with_layers([lo, PActLayer("relu", 0.999)] + list(child.layers[2:])),
    }
    return parent, child, broken


class TestCheckPreservation:
    def test_reflexivity(self):
        net = _net(100)
        report = check_preservation(net, net, n_samples=5, tol=1e-12)
        assert report.pass_ and report.max_abs_dev == 0.0 and report.exact_mode

    def test_depth_morph_child_passes(self):
        parent = _net(101)
        child = insert_depth(parent, DepthMorphRequest(layer_index=0, c_l=8, k1=3, k2=1, seed=0))
        report = check_preservation(parent, child, n_samples=10, tol=1e-10)
        assert report.pass_ and report.exact_mode

    def test_perturbed_weight_fails(self):
        parent = _net(102)
        w = parent.layers[0].weights.copy()
        w[0, 0, 0, 0] += 0.1
        child = parent.with_layers(
            [same_pad_conv(w, bias=parent.layers[0].bias)] + list(parent.layers[1:])
        )
        report = check_preservation(parent, child, n_samples=5, tol=1e-8)
        assert not report.pass_ and report.max_abs_dev > 1e-8

    def test_paper_pair_child_with_lower_bias_passes(self):
        parent, child, _ = paper_pair_children()
        assert check_preservation(parent, child, n_samples=5, tol=1e-8).pass_

    @pytest.mark.parametrize("what", ["f_hi+1e-6", "lower-bias-moved-up", "a=0.999"])
    def test_broken_paper_pair_child_fails(self, what):
        parent, _, broken = paper_pair_children()
        report = check_preservation(parent, broken[what], n_samples=5, tol=1e-8)
        assert not report.pass_ and report.max_abs_dev > 1e-8, report.to_text()

    def test_symmetric_deviation(self):
        a, b = _net(103), _net(104)
        d1 = check_preservation(a, b, n_samples=5, tol=1e-8).max_abs_dev
        d2 = check_preservation(b, a, n_samples=5, tol=1e-8).max_abs_dev
        assert d1 == d2

    def test_input_shape_mismatch_raises(self):
        with pytest.raises(ShapeError):
            check_preservation(_net(105, hw=8), _net(105, hw=10), n_samples=1, tol=1e-8)

    def test_zero_samples_rejected(self):
        net = _net(106)
        with pytest.raises(ShapeError):
            check_preservation(net, net, n_samples=0, tol=1e-8)

    @pytest.mark.parametrize("n", [2.5, "3", None, 3.0], ids=["fraction", "string", "none", "float"])
    def test_non_integer_samples_rejected(self, n):
        net = _net(110)
        with pytest.raises(ShapeError, match="n_samples must be an integer"):
            check_preservation(net, net, n_samples=n, tol=1e-8)

    def test_report_text_format(self):
        net = _net(107)
        text = check_preservation(net, net, n_samples=2, tol=1e-8).to_text()
        assert "max_abs_dev=" in text and "pass=true" in text and "crop_border=0" in text

    def test_nan_outputs_fail(self):
        parent, child = nan_output_pair()
        with np.errstate(all="ignore"):
            assert np.isnan(forward(child, make_rng(0).standard_normal(parent.input_shape))).all()
            report = check_preservation(parent, child, n_samples=5, tol=1e-8)
        assert np.isnan(report.max_abs_dev) and not report.pass_
        assert "max_abs_dev=nan" in report.to_text() and "pass=false" in report.to_text()

    @pytest.mark.parametrize(
        "tol", [np.inf, -1.0, np.nan, "1e-8", None, 10**400], ids=["inf", "negative", "nan", "string", "none", "huge-int"]
    )
    def test_meaningless_tol_rejected(self, tol):
        # tol=inf used to pass two unrelated nets; -1 and nan failed every pair
        with pytest.raises(ShapeError, match="tol"):
            check_preservation(_net(108), _net(109), n_samples=2, tol=tol)

    def test_zero_tol_is_valid(self):
        net = _net(108)
        assert check_preservation(net, net, n_samples=2, tol=0.0).pass_
        assert not check_preservation(net, _net(109), n_samples=2, tol=0.0).pass_


def _depth_3x3_pair(seed=0):
    """A sigmoid net whose middle 5x5 conv is depth-morphed into two 3x3
    convs, ahead of a 3x3 conv and a zero-ringed 5x5 conv."""
    parent = build_network(parse_arch("(5:8)(5:8)(3:4)(3:8)"), (3, 16, 16), seed=seed, base="sigmoid")
    parent = expand_kernel(parent, parent.conv_indices()[-1], 5)
    child = insert_depth(parent, DepthMorphRequest(parent.conv_indices()[1], c_l=24, k1=3, k2=3, seed=seed))
    return parent, child


class TestCropBorder:
    """Every morph keeps the padding its target reads, so nothing is cropped:
    each child matches its parent on the whole output, border included."""

    def test_identical_nets_no_crop(self):
        report = check_preservation(_net(110), _net(110), n_samples=2, tol=0.0)
        assert report.crop_border == 0 and report.exact_mode and report.pass_

    def test_kernel_growth_plus_downstream_spread(self):
        # a 3x3 target grown to a 3+3 pair ahead of a 3x3 conv
        parent = _net(111)
        child = insert_depth(
            parent, DepthMorphRequest(layer_index=0, c_l=12, k1=3, k2=3, seed=0), algorithm="general"
        )
        assert child.layers[0].pad == 2 and child.layers[2].pad == 0
        report = check_preservation(parent, child, n_samples=5, tol=1e-8)
        assert report.pass_ and report.crop_border == 0, report.to_text()

    def test_intermediate_zero_padding_is_kept(self):
        # 5x5 -> 3x3 o 3x3: the lower 3x3 reads the target's padding, and the
        # upper one reads the lower one's whole output, unpadded
        parent, child = _depth_3x3_pair(113)
        rng = make_rng(113)
        for _ in range(3):
            x = rng.standard_normal(parent.input_shape)
            assert np.abs(forward(parent, x) - forward(child, x)).max() <= 1e-8
        report = check_preservation(parent, child, n_samples=10, tol=1e-8)
        assert report.pass_ and report.crop_border == 0 and report.exact_mode

    def test_intermediate_padding_child_with_perturbed_weight_fails(self):
        parent, child = _depth_3x3_pair(114)
        layers = list(child.layers)
        i = child.conv_indices()[1]
        w = layers[i].weights.copy()
        w[0, 0, 1, 1] += 0.1
        layers[i] = replace(layers[i], weights=w)
        report = check_preservation(parent, child.with_layers(layers), n_samples=5, tol=1e-8)
        assert report.crop_border == 0 and not report.pass_

    @pytest.mark.parametrize(
        "arch, stacked, morphed",
        [("(3:8)(5:8)(3:4)", 0, 1), ("(5:8)(3:8)(3:4)", 2, 0)],
        ids=["stack-in-head", "stack-in-tail"],
    )
    def test_unchanged_stacked_layer_is_aligned(self, arch, stacked, morphed):
        # An unchanged stacked (parallel) layer compares equal: in front of
        # the morphed conv it is part of the shared head, behind it of both tails.
        plain = build_network(parse_arch(arch), (3, 12, 12), seed=5)
        i, j = plain.conv_indices()[stacked], plain.conv_indices()[morphed]
        c = plain.layers[i].c_out
        parent = morph_stacked(plain, SubnetMorphRequest(i, [[(3, c)], [(3, 2 * c), (1, c)]], [0.5, 0.5], seed=1))
        assert isinstance(parent.layers[i], ParallelLayer)

        def depth(net):
            return insert_depth(net, DepthMorphRequest(j, c_l=24, k1=3, k2=3, seed=2))

        assert _align(parent, depth(parent)) == j
        for net in (parent, plain):
            report = check_preservation(net, depth(net), n_samples=10, tol=1e-8)
            assert report.pass_ and report.crop_border == 0


def _chain_step(net, op, ordinal, seed):
    """One ``op`` morph of the net's ``ordinal``-th top-level conv (modulo
    their count), sized so that the solvers converge and kernels stay at 5
    or below; None when the net cannot take it."""
    convs = net.conv_indices()
    if not convs:
        return None
    i = convs[ordinal % len(convs)]
    k, c = net.layers[i].kernel, net.layers[i].c_out
    if op == "depth":  # a 3x3 pair, whose lower factor holds as many parameters as the parent
        return insert_depth(net, DepthMorphRequest(i, c_l=3 * c if k == 5 else c, k1=3, k2=3, seed=seed))
    if op == "ksize":
        return expand_kernel(net, i, k + 2) if k < 5 else None
    if op == "subnet":
        paths = [[(k, c)], [(3, 3 * c), (max(k - 2, 1), c)]]
        return morph_stacked(net, SubnetMorphRequest(i, paths, [0.4, 0.6], seed=seed))
    try:
        return widen(net, WidthMorphRequest(i, c + 2, seed=seed))
    except ShapeError:  # the last conv, or a stacked layer next
        return None


@st.composite
def morph_chains(draw):
    """A 2-3 conv net's notation and base, and up to three morphs of it."""
    convs = draw(st.lists(st.tuples(st.sampled_from([1, 3, 5]), st.integers(2, 4)), min_size=2, max_size=3))
    arch = "".join(f"({k}:{c})" for k, c in convs)
    base = draw(st.sampled_from(netdef.BASES))
    op = st.sampled_from(["depth", "width", "ksize", "subnet"])
    steps = draw(st.lists(st.tuples(op, st.integers(0, 2), st.integers(0, 99)), min_size=1, max_size=3))
    return arch, base, steps


class TestCropBorderAcrossChains:
    """A chain of morphs, each saved and loaded, verifies on the whole output
    between any ancestor and descendant, not only between neighbours."""

    @settings(max_examples=50, deadline=None)
    @given(morph_chains())
    @example(("(3:2)(5:2)", "relu", [("depth", 1, 0), ("depth", 0, 0)]))
    def test_every_ancestor_verifies_with_a_wide_enough_crop(self, chain):
        arch, base, steps = chain
        nets = [build_network(parse_arch(arch), (2, 16, 16), seed=0, base=base)]
        for op, ordinal, seed in steps:
            child = _chain_step(nets[-1], op, ordinal, seed)
            if child is not None:
                nets.append(deserialize(serialize(child)))
        for parent, child in itertools.combinations(nets, 2):
            report = check_preservation(parent, child, n_samples=3, tol=1e-8)
            assert report.pass_ and report.crop_border == 0, report.to_text()


def _reference_report(parent, child, n_samples, tol, seed=0):
    """check_preservation's report from two full forward passes per sample,
    with the same draws, on the whole output."""
    rng = make_rng(seed)
    dev = 0.0
    for _ in range(n_samples):
        x = rng.standard_normal(parent.input_shape)
        dev = float(np.maximum(dev, np.abs(forward(parent, x) - forward(child, x)).max()))
    return PreservationReport(n_samples, dev, 0, True, dev <= tol, tol)


def _sigmoid_net(seed=0):
    return build_network(parse_arch("(3:4)(5:6)(3:4)"), (3, 12, 12), seed=seed, base="sigmoid")


def _perturbed(net, i):
    """``net`` with 0.1 added to one weight of conv layer i."""
    layers = list(net.layers)
    w = layers[i].weights.copy()
    w[0, 0, 0, 0] += 0.1
    layers[i] = replace(layers[i], weights=w)
    return net.with_layers(layers)


def _widen_pair():
    parent = _sigmoid_net(1)
    return parent, widen(parent, WidthMorphRequest(parent.conv_indices()[1], 9, seed=1))


def _expand_last_pair():
    parent = _sigmoid_net(2)
    return parent, expand_kernel(parent, parent.conv_indices()[-1], 5)


def _stacked_pair():
    parent = _sigmoid_net(3)
    req = SubnetMorphRequest(parent.conv_indices()[1], [[(5, 6)], [(3, 16), (3, 6)]], [0.5, 0.5], seed=3)
    return parent, morph_stacked(parent, req)


def _identical_pair():
    return _sigmoid_net(4), _sigmoid_net(4)


def _stack_in_head_pair():
    plain = build_network(parse_arch("(3:8)(5:8)(3:4)"), (3, 12, 12), seed=5)
    parent = morph_stacked(plain, SubnetMorphRequest(0, [[(3, 8)], [(3, 16), (1, 8)]], [0.5, 0.5], seed=1))
    return parent, insert_depth(parent, DepthMorphRequest(plain.conv_indices()[1], c_l=24, k1=3, k2=3, seed=2))


def _last_layer_pair():
    parent = _net(6)
    return parent, _perturbed(parent, len(parent.layers) - 1)


class TestSharedHead:
    """check_preservation runs the layers both nets share once per sample;
    its report must be the one two full forward passes give."""

    @pytest.mark.parametrize(
        "pair",
        [_widen_pair, _expand_last_pair, _depth_3x3_pair, _stacked_pair, _identical_pair, _stack_in_head_pair, _last_layer_pair],
        ids=["widen", "expand-last", "depth-3x3", "stacked", "identical", "stack-in-head", "last-layer"],
    )
    def test_matches_two_full_forward_passes(self, pair):
        parent, child = pair()
        report = check_preservation(parent, child, n_samples=6, tol=1e-8, seed=7)
        assert report.to_text() == _reference_report(parent, child, 6, 1e-8, seed=7).to_text()

    def test_perturbed_would_be_head_layer_fails(self):
        parent, child = _expand_last_pair()
        child = _perturbed(child, child.conv_indices()[0])
        report = check_preservation(parent, child, n_samples=5, tol=1e-8)
        assert not report.pass_ and report.max_abs_dev > 1e-3
        assert report.to_text() == _reference_report(parent, child, 5, 1e-8).to_text()

    def test_non_finite_shared_head_reports_nan(self):
        # The shared head (the NaN pair's child) outputs NaN; that output
        # must reach both tails unchecked and be reported, not raise.
        _, nan_net = nan_output_pair()
        parent = nan_net.with_layers(list(nan_net.layers) + [same_pad_conv(make_rng(8).standard_normal((2, 4, 3, 3)))])
        child = expand_kernel(parent, parent.conv_indices()[-1], 5)
        with np.errstate(all="ignore"):
            report = check_preservation(parent, child, n_samples=3, tol=1e-8)
        assert np.isnan(report.max_abs_dev) and not report.pass_

    def test_shared_head_runs_once_per_sample(self, monkeypatch):
        parent = build_network(parse_arch("(3:4)(3:4)(3:4)"), (3, 8, 8), seed=9)
        child = expand_kernel(parent, parent.conv_indices()[-1], 5)
        calls = []

        def counting(x, f, pad, conv_batch=netdef.conv_batch):
            calls.append(f.shape)
            return conv_batch(x, f, pad)

        monkeypatch.setattr(netdef, "conv_batch", counting)
        assert check_preservation(parent, child, n_samples=5, tol=1e-8).pass_
        # per sample: the two shared convs once, then each net's last conv
        # (both nets in full would be 5 * (3 + 3) = 30)
        assert len(calls) == 20


class TestPeakMemory:
    def test_check_keeps_no_layer_inputs(self):
        # The cifar-depth check: (5:32)(5:32)(5:64) at 3x32x32 against its
        # three (5:4C)(1:C) children, one conv morphed after another.  With
        # every layer's input kept as a backward cache the last check peaked
        # at 12.28 MiB traced; dropped once each layer has run, at 9.53 MiB;
        # with each (5:4C)(1:C) pair run as its one composed conv, at 6.02 MiB.
        parent = build_network(parse_arch("(5:32)(5:32)(5:64)"), (3, 32, 32), seed=0)
        children = [parent]
        for ordinal in range(3):
            net = children[-1]
            raw = net.conv_indices()[2 * ordinal]
            req = DepthMorphRequest(layer_index=raw, c_l=4 * net.layers[raw].c_out, k1=5, k2=1, seed=ordinal)
            children.append(insert_depth(net, req))
        peak = traced_peak(lambda: [check_preservation(parent, child, n_samples=3, tol=1e-8) for child in children[1:]])
        assert peak <= 8 * 2**20, f"{peak / 2**20:.2f} MiB"


class TestOccupancy:
    def test_identity_filter_counts(self):
        assert occupancy(identity_filter(32, 3)) == pytest.approx(32 / (32 * 32 * 9))

    def test_dense_filter(self):
        rng = make_rng(112)
        assert occupancy(rng.standard_normal((2, 2, 3, 3))) == 1.0

    def test_zero_filter(self):
        assert occupancy(np.zeros((2, 2, 3, 3))) == 0.0
