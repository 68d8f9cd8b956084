"""Command-line interface: subcommands, output format, exit codes."""

import gzip

import numpy as np
import pytest

from netmorph import (
    ConvLayer,
    ConvSpec,
    DepthMorphRequest,
    ParallelLayer,
    insert_depth,
    load,
    morph_general,
    morph_practical,
    occupancy,
    parse_arch,
    serialize,
)
from netmorph.cli import EXIT_FAIL, EXIT_INFEASIBLE, EXIT_OK, EXIT_USAGE, main
from netmorph.netdef import MAX_STACK_DEPTH

from test_serialize import CRAFTED_MANIFESTS, DAMAGED_FILES, INVALID_LAYERS, _sample_net, nest_first_layer, rewrite_manifest
from test_train import GZIP_DAMAGE, OVERSIZED_IMAGES, damage_gzip, write_idx_pair
from test_verify import nan_output_pair, paper_pair_children


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def parent_file(tmp_path, capsys):
    path = tmp_path / "parent.nmph"
    code, *_ = run(capsys, "parse", "--arch", "(3:8)(3:4)", "--input-shape", "2,10,10", "--seed", "1", "-o", str(path))
    assert code == EXIT_OK
    return path


class TestParseInspect:
    def test_parse_writes_file_and_prints_layers(self, tmp_path, capsys):
        out = tmp_path / "net.nmph"
        code, stdout, _ = run(capsys, "parse", "--arch", "(5:32)(5:32)(5:64)", "-o", str(out))
        assert code == EXIT_OK
        assert out.exists()
        assert "arch=(5:32)(5:32)(5:64)" in stdout
        assert "layer0=conv kernel=5 c_out=32" in stdout

    def test_malformed_arch_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "parse", "--arch", "((", "-o", str(tmp_path / "x.nmph"))
        assert code == EXIT_USAGE
        assert "error=" in stderr

    def test_invalid_input_shape_exits_2(self, tmp_path, capsys):
        code, _, stderr = run(capsys, "parse", "--arch", "(3:4)", "--input-shape", "3,0,8", "-o", str(tmp_path / "x.nmph"))
        assert code == EXIT_USAGE
        assert "error=input shape" in stderr

    def test_two_part_input_shape_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x.nmph"
        with pytest.raises(SystemExit) as exc:
            main(["parse", "--arch", "(3:4)", "--input-shape", "3,32", "-o", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert "expected c,h,w, got '3,32'" in capsys.readouterr().err
        assert not out.exists()

    def test_oversized_arch_exits_2(self, tmp_path, capsys):
        # 10^12 channels ask numpy for 196 TiB, which fails before a page is touched
        out = tmp_path / "x.nmph"
        code, stdout, stderr = run(capsys, "parse", "--arch", "(3:1000000000000)", "-o", str(out))
        assert code == EXIT_USAGE
        assert stdout == "" and stderr.startswith("error=")
        assert not out.exists()

    def test_parse_inspect_round_trip(self, tmp_path, capsys):
        out = tmp_path / "net.nmph"
        run(capsys, "parse", "--arch", "[(5:32x4)(1:32)]x2", "-o", str(out))
        code, stdout, _ = run(capsys, "inspect", "-i", str(out))
        assert code == EXIT_OK
        assert "arch=(5:128)(1:32)(5:128)(1:32)" in stdout

    @pytest.mark.parametrize(
        "morph, has_arch",
        [
            ((), True),
            (("--op", "depth", "--layer", "0", "--cl", "32", "--k1", "3", "--k2", "1"), True),
            (("--op", "width", "--layer", "0", "--width", "12"), True),
            (("--op", "ksize", "--layer", "1", "--kernel", "5"), True),
            (("--op", "depth", "--layer", "0", "--cl", "32", "--k1", "3", "--k2", "3"), False),
            (("--op", "subnet", "--layer", "0", "--paths", "(3:8)@0.5,(3:16)(1:8)@0.5"), False),
        ],
        ids=["parent", "depth", "width", "ksize", "depth-3x3", "subnet"],
    )
    def test_inspect_arch_parses_back_to_the_conv_skeleton(self, morph, has_arch, parent_file, tmp_path, capsys):
        path = parent_file
        if morph:
            path = tmp_path / "child.nmph"
            code, *_ = run(capsys, "morph", "-i", str(parent_file), "-o", str(path), *morph)
            assert code == EXIT_OK
        net = load(path)
        code, stdout, _ = run(capsys, "inspect", "-i", str(path))
        assert code == EXIT_OK
        arch = [line[len("arch=") :] for line in stdout.splitlines() if line.startswith("arch=")]
        stacked = any(isinstance(layer, ParallelLayer) for layer in net.layers)
        same_padded = all(2 * layer.pad == layer.kernel - 1 for layer in net.layers if isinstance(layer, ConvLayer))
        # the notation has neither stacked layers nor pads, so a net with
        # either (a stack, or a depth child's 3x3 pair padding 2 and 0) gets no arch= line
        assert len(arch) == int(has_arch) and has_arch == (same_padded and not stacked)
        for text in arch:
            skeleton = [ConvSpec(layer.kernel, layer.c_out) for layer in net.layers if isinstance(layer, ConvLayer)]
            assert parse_arch(text) == skeleton
        assert stacked == (morph[:2] == ("--op", "subnet"))

    def test_inspect_missing_file_exits_2(self, capsys, tmp_path):
        code, *_ = run(capsys, "inspect", "-i", str(tmp_path / "missing.nmph"))
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("edit", INVALID_LAYERS.values(), ids=INVALID_LAYERS.keys())
    def test_inspect_invalid_layers_exits_2(self, edit, tmp_path, capsys):
        path = tmp_path / "bad.nmph"
        path.write_bytes(rewrite_manifest(serialize(_sample_net()), edit))
        code, _, stderr = run(capsys, "inspect", "-i", str(path))
        assert code == EXIT_USAGE
        assert "malformed manifest" in stderr

    @pytest.mark.parametrize("damage, message", DAMAGED_FILES.values(), ids=DAMAGED_FILES.keys())
    def test_inspect_damaged_file_exits_2(self, damage, message, tmp_path, capsys):
        path = tmp_path / "bad.nmph"
        path.write_bytes(damage(serialize(_sample_net())))
        code, stdout, stderr = run(capsys, "inspect", "-i", str(path))
        assert code == EXIT_USAGE
        assert stdout == "" and stderr.startswith("error=") and message in stderr

    @pytest.mark.parametrize("damage, message", CRAFTED_MANIFESTS.values(), ids=CRAFTED_MANIFESTS.keys())
    @pytest.mark.parametrize("command", ["inspect", "verify"])
    def test_crafted_manifest_exits_2(self, command, damage, message, tmp_path, capsys):
        # a usage error, not verify's "not preserved" exit 1 nor a traceback
        good, bad = tmp_path / "good.nmph", tmp_path / "bad.nmph"
        good.write_bytes(serialize(_sample_net()))
        bad.write_bytes(damage(good.read_bytes()))
        argv = ["inspect", "-i", str(bad)] if command == "inspect" else ["verify", "-a", str(good), "-b", str(bad)]
        code, stdout, stderr = run(capsys, *argv)
        assert code == EXIT_USAGE
        assert stdout == "" and stderr.startswith("error=") and message in stderr and "Traceback" not in stderr

    def test_verify_stacks_at_depth_limit_passes(self, tmp_path, capsys):
        parent, child = tmp_path / "parent.nmph", tmp_path / "child.nmph"
        parent.write_bytes(serialize(_sample_net()))
        child.write_bytes(nest_first_layer(parent.read_bytes(), MAX_STACK_DEPTH))
        code, stdout, _ = run(capsys, "verify", "-a", str(parent), "-b", str(child))
        assert code == EXIT_OK and "pass=true" in stdout


class TestMorphVerify:
    def test_depth_morph_and_verify_pass(self, parent_file, tmp_path, capsys):
        child = tmp_path / "child.nmph"
        code, stdout, _ = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(child),
            "--op", "depth", "--layer", "0", "--cl", "32", "--k1", "3", "--k2", "1",
        )
        assert code == EXIT_OK
        assert "residual=" in stdout and "shrunk_kernel=" in stdout and "occupancy=" in stdout
        code, stdout, _ = run(capsys, "verify", "-a", str(parent_file), "-b", str(child), "--samples", "5")
        assert code == EXIT_OK
        assert "pass=true" in stdout

    def test_verify_of_a_broken_paper_pair_child_fails(self, tmp_path, capsys):
        parent, _, broken = paper_pair_children()
        paths = tmp_path / "p.nmph", tmp_path / "c.nmph"
        for path, net in zip(paths, (parent, broken["f_hi+1e-6"])):
            path.write_bytes(serialize(net))
        code, stdout, _ = run(capsys, "verify", "-a", str(paths[0]), "-b", str(paths[1]), "--samples", "5")
        assert code == EXIT_FAIL
        assert "pass=false" in stdout

    def test_depth_morph_matches_wider_arch(self, tmp_path, capsys):
        parent = tmp_path / "p.nmph"
        child = tmp_path / "c.nmph"
        run(capsys, "parse", "--arch", "(5:32)(5:32)(5:64)", "--input-shape", "3,16,16", "-o", str(parent))
        code, *_ = run(
            capsys, "morph", "-i", str(parent), "-o", str(child),
            "--op", "depth", "--layer", "0", "--cl", "128", "--k1", "5", "--k2", "1",
        )
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "inspect", "-i", str(child))
        assert "arch=(5:128)(1:32)(5:32)(5:64)" in stdout

    def test_width_morph(self, parent_file, tmp_path, capsys):
        child = tmp_path / "w.nmph"
        code, *_ = run(capsys, "morph", "-i", str(parent_file), "-o", str(child), "--op", "width", "--layer", "0", "--width", "12")
        assert code == EXIT_OK
        code, *_ = run(capsys, "verify", "-a", str(parent_file), "-b", str(child))
        assert code == EXIT_OK

    @pytest.mark.parametrize(
        "op_args, code",
        [
            (("--op", "depth", "--cl", "0", "--k1", "3", "--k2", "1"), EXIT_USAGE),
            (("--op", "depth", "--cl", "4", "--k1", "0", "--k2", "1"), EXIT_USAGE),
            (("--op", "depth", "--cl", "4", "--k1", "2", "--k2", "1"), EXIT_USAGE),
            (("--op", "ksize", "--kernel", "4"), EXIT_USAGE),
            (("--op", "ksize", "--kernel", "-1"), EXIT_USAGE),
            (("--op", "width", "--width", "0"), EXIT_USAGE),
            (("--op", "width", "--width", "-3"), EXIT_USAGE),
            (("--op", "width", "--width", "2"), EXIT_INFEASIBLE),
            (("--op", "ksize", "--kernel", "1"), EXIT_INFEASIBLE),
            (("--op", "width", "--width", "1000000000000"), EXIT_INFEASIBLE),
            (("--op", "depth", "--cl", "1000000000000", "--k1", "3", "--k2", "3"), EXIT_INFEASIBLE),
            (("--op", "subnet", "--paths", "(3:1000000000000)(3:4)"), EXIT_INFEASIBLE),
            (("--op", "ksize", "--kernel", "1000000001"), EXIT_INFEASIBLE),
            (("--op", "depth", "--cl", "4", "--k1", "1000000001", "--k2", "1"), EXIT_INFEASIBLE),
            (("--op", "subnet", "--paths", "(4:4)(2:4)"), EXIT_USAGE),
            (("--op", "subnet", "--paths", "(2:4)"), EXIT_USAGE),
        ],
        ids=[
            "depth-cl-0", "depth-k1-0", "depth-k1-2", "ksize-kernel-4", "ksize-kernel--1",
            "width-0", "width--3", "width-2", "ksize-kernel-1",
            "width-10^12", "depth-cl-10^12", "subnet-10^12", "ksize-kernel-10^9", "depth-k1-10^9",
            "subnet-paths-4-2", "subnet-paths-2",
        ],
    )
    def test_morph_value_exit_code(self, op_args, code, tmp_path, capsys):
        # a value no net could take (a non-positive size, an even kernel) is
        # a usage error; shrinking this (3:4) conv's width or 3x3 kernel is
        # a valid value that this net cannot take, and so is one too large:
        # 10^12 channels ask numpy for 196 TiB, which fails before a page is
        # touched, and a 10^9 kernel is more bytes than numpy can index
        parent, out = tmp_path / "p.nmph", tmp_path / "x.nmph"
        run(capsys, "parse", "--arch", "(3:4)(3:4)", "--input-shape", "3,8,8", "-o", str(parent))
        got, stdout, stderr = run(capsys, "morph", "-i", str(parent), "-o", str(out), "--layer", "0", *op_args)
        assert got == code
        assert stdout == "" and stderr.startswith("error=") and "Traceback" not in stderr
        assert not out.exists()

    def test_ksize_morph_verifies(self, parent_file, tmp_path, capsys):
        child = tmp_path / "k.nmph"
        code, *_ = run(capsys, "morph", "-i", str(parent_file), "-o", str(child), "--op", "ksize", "--layer", "1", "--kernel", "5")
        assert code == EXIT_OK
        code, *_ = run(capsys, "verify", "-a", str(parent_file), "-b", str(child))
        assert code == EXIT_OK

    def test_subnet_morph_with_weighted_paths(self, parent_file, tmp_path, capsys):
        child = tmp_path / "s.nmph"
        code, stdout, _ = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(child),
            "--op", "subnet", "--layer", "0", "--paths", "(3:8)@0.5,(3:16)(1:8)@0.5",
        )
        assert code == EXIT_OK
        assert "paths=2" in stdout
        code, *_ = run(capsys, "verify", "-a", str(parent_file), "-b", str(child))
        assert code == EXIT_OK

    @pytest.mark.parametrize("weight", ["x", "nan", "inf"])
    def test_bad_path_weight_exits_2(self, weight, parent_file, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(tmp_path / "x.nmph"),
            "--op", "subnet", "--layer", "0", "--paths", f"(3:4)@{weight}",
        )
        assert code == EXIT_USAGE
        assert "error=" in stderr and "Traceback" not in stderr

    def test_unweighted_paths_split_evenly(self, parent_file, tmp_path, capsys):
        files = {}
        for name, paths in (("even", "(3:4),(3:6)(1:4)"), ("weighted", "(3:4)@0.5,(3:6)(1:4)@0.5")):
            files[name] = tmp_path / f"{name}.nmph"
            code, *_ = run(
                capsys, "morph", "-i", str(parent_file), "-o", str(files[name]),
                "--op", "subnet", "--layer", "1", "--paths", paths,
            )
            assert code == EXIT_OK
        assert files["even"].read_bytes() == files["weighted"].read_bytes()
        code, stdout, _ = run(capsys, "inspect", "-i", str(files["even"]))
        assert code == EXIT_OK
        assert "layer2=parallel paths=2 path_lengths=1/3" in stdout.splitlines()

    @pytest.mark.parametrize(
        "layer, paths, twin, arch",
        [
            ("1", "(5:128)(1:32)", ("--op", "depth", "--cl", "128", "--k1", "5", "--k2", "1"), "(3:16)(5:128)(1:32)"),
            ("0", "(5:16)", ("--op", "ksize", "--kernel", "5"), "(5:16)(5:32)"),
        ],
        ids=["depth", "ksize"],
    )
    def test_one_path_subnet_writes_the_morph_it_spells(self, layer, paths, twin, arch, tmp_path, capsys):
        parent = tmp_path / "parent.nmph"
        run(capsys, "parse", "--arch", "(3:16)(5:32)", "--input-shape", "3,8,8", "--seed", "2", "-o", str(parent))
        files = {}
        for op_args in (("--op", "subnet", "--paths", paths), twin):
            files[op_args[1]] = tmp_path / f"{op_args[1]}.nmph"
            code, *_ = run(capsys, "morph", "-i", str(parent), "-o", str(files[op_args[1]]), "--layer", layer, "--seed", "5", *op_args)
            assert code == EXIT_OK
        assert files["subnet"].read_bytes() == files[twin[1]].read_bytes()
        # a plain chain, so inspect spells it in the notation
        code, stdout, _ = run(capsys, "inspect", "-i", str(files["subnet"]))
        assert code == EXIT_OK and f"arch={arch}" in stdout.splitlines()

    def test_mixed_weighted_and_unweighted_paths_exit_2(self, parent_file, tmp_path, capsys):
        out = tmp_path / "x.nmph"
        code, _, stderr = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(out),
            "--op", "subnet", "--layer", "1", "--paths", "(3:4)@0.5,(3:6)(1:4)",
        )
        assert code == EXIT_USAGE
        assert "error=either give every path an @weight or none" in stderr
        assert not out.exists()

    def test_path_weights_not_summing_to_one_exit_2(self, parent_file, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(tmp_path / "x.nmph"),
            "--op", "subnet", "--layer", "0", "--paths", "(3:8)@0.6,(3:8)@0.6",
        )
        assert code == EXIT_USAGE
        assert "error=" in stderr and "sum to 1" in stderr

    @pytest.mark.parametrize(
        "op_args",
        [
            ("--op", "depth", "--k1", "3", "--k2", "1"),
            ("--op", "depth", "--cl", "32", "--k2", "1"),
            ("--op", "depth", "--cl", "32", "--k1", "3"),
            ("--op", "width"),
            ("--op", "ksize"),
            ("--op", "subnet"),
        ],
        ids=["no-cl", "no-k1", "no-k2", "no-width", "no-kernel", "no-paths"],
    )
    def test_missing_op_option_exits_2(self, op_args, parent_file, tmp_path, capsys):
        out = tmp_path / "x.nmph"
        code, _, stderr = run(capsys, "morph", "-i", str(parent_file), "-o", str(out), "--layer", "0", *op_args)
        assert code == EXIT_USAGE
        assert "morph needs --" in stderr
        assert not out.exists()

    def test_infeasible_depth_morph_exits_3(self, parent_file, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(tmp_path / "x.nmph"),
            "--op", "depth", "--layer", "0", "--cl", "1", "--k1", "3", "--k2", "1",
        )
        assert code == EXIT_INFEASIBLE
        assert "error=" in stderr

    def test_exhausted_kernel_shrinking_exits_3(self, tmp_path, capsys):
        # both 3x3 attempts on a 5x5 single-channel conv miss, and the 1x1
        # candidates are skipped as too small for it
        parent, out = tmp_path / "p.nmph", tmp_path / "x.nmph"
        run(capsys, "parse", "--arch", "(5:1)", "--input-shape", "1,8,8", "-o", str(parent))
        code, stdout, stderr = run(
            capsys, "morph", "-i", str(parent), "-o", str(out),
            "--op", "depth", "--layer", "0", "--cl", "3", "--k1", "3", "--k2", "3",
        )
        assert code == EXIT_INFEASIBLE
        assert stdout == "" and stderr.startswith("error=kernel shrinking exhausted")
        assert not out.exists()

    def test_width_morph_of_an_all_zero_net_adds_noise(self, tmp_path, capsys):
        # zero spread in the parent's filters: the new channels' noise falls
        # back to 1/sqrt(fan-in), so they are not all zero
        parent, child = tmp_path / "p.nmph", tmp_path / "c.nmph"
        run(capsys, "parse", "--arch", "(3:4)(3:4)", "--init", "zeros", "-o", str(parent))
        code, *_ = run(capsys, "morph", "-i", str(parent), "-o", str(child), "--op", "width", "--layer", "0", "--width", "6")
        assert code == EXIT_OK
        code, stdout, _ = run(capsys, "verify", "-a", str(parent), "-b", str(child))
        assert code == EXIT_OK and "pass=true" in stdout
        before, after = load(parent), load(child)
        assert not (before.layers[0].weights.any() or before.layers[2].weights.any())
        w_lo, w_hi = after.layers[0].weights, after.layers[2].weights
        per_channel = np.abs(w_lo).sum(axis=(1, 2, 3)) + np.abs(w_hi).sum(axis=(0, 2, 3))
        assert np.count_nonzero(per_channel) == 2  # the two new channels

    def test_width_morph_across_a_stack_exits_3(self, tmp_path, capsys):
        parent, stacked, out = tmp_path / "p.nmph", tmp_path / "s.nmph", tmp_path / "x.nmph"
        run(capsys, "parse", "--arch", "(3:8)(3:8)", "--input-shape", "3,12,12", "-o", str(parent))
        code, *_ = run(
            capsys, "morph", "-i", str(parent), "-o", str(stacked),
            "--op", "subnet", "--layer", "1", "--paths", "(3:8)(3:8)@0.5,(3:8)@0.5",
        )
        assert code == EXIT_OK
        code, stdout, stderr = run(
            capsys, "morph", "-i", str(stacked), "-o", str(out), "--op", "width", "--layer", "0", "--width", "12"
        )
        assert code == EXIT_INFEASIBLE
        assert stdout == "" and stderr == "error=widening across non-activation layers is not supported\n"
        assert not out.exists()

    def test_unconverged_general_depth_morph_exits_3(self, tmp_path, capsys):
        parent, out = tmp_path / "p.nmph", tmp_path / "x.nmph"
        run(capsys, "parse", "--arch", "(3:4)", "--input-shape", "2,8,8", "-o", str(parent))
        code, stdout, stderr = run(
            capsys, "morph", "-i", str(parent), "-o", str(out), "--alg", "general",
            "--op", "depth", "--layer", "0", "--cl", "1", "--k1", "3", "--k2", "1",
        )
        assert code == EXIT_INFEASIBLE
        assert stdout == "" and "error=depth morph did not converge" in stderr
        assert not out.exists()

    @pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize(
        "op_args",
        [
            ("--op", "depth", "--cl", "16", "--k1", "3", "--k2", "1"),
            ("--op", "width", "--width", "12"),
            ("--op", "ksize", "--kernel", "5"),
            ("--op", "subnet", "--paths", "(3:8),(3:8)"),
        ],
        ids=["depth", "width", "ksize", "subnet"],
    )
    def test_morph_bad_tol_exits_2(self, op_args, tol, parent_file, tmp_path, capsys):
        out = tmp_path / "x.nmph"
        code, stdout, stderr = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(out), "--layer", "0", "--tol", tol, *op_args
        )
        assert code == EXIT_USAGE
        assert stdout == "" and "error=--tol must be a finite number > 0" in stderr
        assert not out.exists()

    def test_layer_out_of_range_exits_2(self, parent_file, tmp_path, capsys):
        code, _, stderr = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(tmp_path / "x.nmph"),
            "--op", "width", "--layer", "99", "--width", "12",
        )
        assert code == EXIT_USAGE
        assert "error=conv layer 99 out of range" in stderr

    @pytest.mark.parametrize("alg", ["practical", "general"])
    def test_depth_morph_matches_insert_depth(self, alg, parent_file, tmp_path, capsys):
        child_file = tmp_path / "child.nmph"
        code, stdout, _ = run(
            capsys, "morph", "-i", str(parent_file), "-o", str(child_file), "--alg", alg,
            "--op", "depth", "--layer", "1", "--cl", "16", "--k1", "3", "--k2", "3", "--seed", "7",
        )
        assert code == EXIT_OK
        parent = load(parent_file)
        raw = parent.conv_indices()[1]
        req = DepthMorphRequest(layer_index=raw, c_l=16, k1=3, k2=3, seed=7)
        outcome = {"practical": morph_practical, "general": morph_general}[alg](parent.layers[raw].weights, req)
        occ = occupancy(np.concatenate([outcome.f_lo.reshape(-1), outcome.f_hi.reshape(-1)]).reshape(-1, 1, 1, 1))
        assert stdout.splitlines() == [
            f"op=depth layer=1 residual={outcome.residual:.3e} shrunk_kernel={outcome.shrunk_kernel}",
            f"occupancy={occ:.6f}",
            f"written={child_file}",
        ]
        assert child_file.read_bytes() == serialize(insert_depth(parent, req, algorithm=alg))

    def test_verify_unrelated_nets_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.nmph", tmp_path / "b.nmph"
        run(capsys, "parse", "--arch", "(3:4)", "--input-shape", "2,8,8", "--seed", "1", "-o", str(a))
        run(capsys, "parse", "--arch", "(3:4)", "--input-shape", "2,8,8", "--seed", "2", "-o", str(b))
        code, stdout, _ = run(capsys, "verify", "-a", str(a), "-b", str(b))
        assert code == EXIT_FAIL
        assert "pass=false" in stdout

    def test_verify_nan_outputs_exits_1(self, tmp_path, capsys):
        a, b = tmp_path / "a.nmph", tmp_path / "b.nmph"
        parent, child = nan_output_pair()
        a.write_bytes(serialize(parent))
        b.write_bytes(serialize(child))
        with np.errstate(all="ignore"):
            code, stdout, _ = run(capsys, "verify", "-a", str(a), "-b", str(b))
        assert code == EXIT_FAIL
        assert "max_abs_dev=nan" in stdout and "pass=false" in stdout

    def test_verify_zero_samples_exits_2(self, parent_file, capsys):
        code, *_ = run(capsys, "verify", "-a", str(parent_file), "-b", str(parent_file), "--samples", "0")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
    def test_verify_bad_tol_exits_2(self, tol, parent_file, capsys):
        code, stdout, stderr = run(capsys, "verify", "-a", str(parent_file), "-b", str(parent_file), "--tol", tol)
        assert code == EXIT_USAGE
        assert stdout == "" and "error=--tol" in stderr

    def test_verify_zero_tol_is_valid(self, parent_file, capsys):
        code, stdout, _ = run(capsys, "verify", "-a", str(parent_file), "-b", str(parent_file), "--tol", "0")
        assert code == EXIT_OK
        assert "pass=true" in stdout

    @pytest.mark.parametrize(
        "arch_b, shape_b, message",
        [("(3:4)", "3,9,9", "input shapes differ"), ("(3:5)", "3,8,8", "output shapes differ")],
        ids=["input", "output"],
    )
    def test_verify_mismatched_nets_exits_2(self, arch_b, shape_b, message, tmp_path, capsys):
        a, b = tmp_path / "a.nmph", tmp_path / "b.nmph"
        run(capsys, "parse", "--arch", "(3:4)", "--input-shape", "3,8,8", "-o", str(a))
        run(capsys, "parse", "--arch", arch_b, "--input-shape", shape_b, "-o", str(b))
        code, _, stderr = run(capsys, "verify", "-a", str(a), "-b", str(b))
        assert code == EXIT_USAGE
        assert f"error={message}" in stderr

    def test_morph_outputs_are_deterministic(self, parent_file, tmp_path, capsys):
        c1, c2 = tmp_path / "c1.nmph", tmp_path / "c2.nmph"
        for c in (c1, c2):
            run(
                capsys, "morph", "-i", str(parent_file), "-o", str(c),
                "--op", "depth", "--layer", "0", "--cl", "16", "--k1", "3", "--k2", "1", "--seed", "4",
            )
        assert c1.read_bytes() == c2.read_bytes()

    @pytest.mark.parametrize(
        "op_args",
        [("--op", "depth", "--cl", "8", "--k1", "3", "--k2", "1"), ("--op", "subnet", "--paths", "(3:8)(1:4)")],
        ids=["depth", "subnet"],
    )
    def test_all_zero_conv_morphs_and_verifies(self, op_args, tmp_path, capsys):
        parent, child = tmp_path / "zeros.nmph", tmp_path / "child.nmph"
        run(capsys, "parse", "--arch", "(3:4)(3:4)", "--input-shape", "2,8,8", "--init", "zeros", "-o", str(parent))
        code, _, stderr = run(capsys, "morph", "-i", str(parent), "-o", str(child), "--layer", "0", *op_args)
        assert code == EXIT_OK and stderr == ""
        code, stdout, _ = run(capsys, "verify", "-a", str(parent), "-b", str(child))
        assert code == EXIT_OK and "pass=true" in stdout

    def test_verify_across_five_morphs(self, tmp_path, capsys):
        # each step verifies against the one before, and the last child
        # must also verify against the first parent
        nets = [tmp_path / f"p{i}.nmph" for i in range(6)]
        run(capsys, "parse", "--arch", "(5:16)(3:16)(3:8)", "--input-shape", "3,16,16", "--seed", "3", "-o", str(nets[0]))
        morphs = [
            ("--layer", "0", "--op", "depth", "--cl", "32", "--k1", "3", "--k2", "3"),
            ("--layer", "2", "--op", "depth", "--cl", "32", "--k1", "3", "--k2", "1"),
            ("--layer", "1", "--op", "width", "--width", "24"),
            ("--layer", "3", "--op", "ksize", "--kernel", "5"),
            ("--layer", "2", "--op", "subnet", "--paths", "(5:32)@0.3,(3:48)(3:32)@0.7"),
        ]
        for i, args in enumerate(morphs):
            code, *_ = run(capsys, "morph", "-i", str(nets[i]), "-o", str(nets[i + 1]), *args, "--seed", "3")
            assert code == EXIT_OK
            code, stdout, _ = run(capsys, "verify", "-a", str(nets[i]), "-b", str(nets[i + 1]))
            assert code == EXIT_OK, stdout
        code, stdout, _ = run(capsys, "verify", "-a", str(nets[0]), "-b", str(nets[-1]))
        assert code == EXIT_OK
        assert "crop_border=0" in stdout and "pass=true" in stdout


@pytest.fixture
def idx_dir(tmp_path):
    """A data directory with 30 training and 10 test 4x4 IDX images."""
    data = tmp_path / "data"
    data.mkdir()
    ip, lp, *_ = write_idx_pair(data, n=30, rows=4, cols=4, seed=1)
    ip.rename(data / "train-images-idx3-ubyte")
    lp.rename(data / "train-labels-idx1-ubyte")
    ip2, lp2, *_ = write_idx_pair(data, n=10, rows=4, cols=4, seed=2)
    ip2.rename(data / "t10k-images-idx3-ubyte")
    lp2.rename(data / "t10k-labels-idx1-ubyte")
    return data


class TestTrainEval:
    def test_train_and_eval_on_synthetic_idx(self, idx_dir, tmp_path, capsys):
        net = tmp_path / "net.nmph"
        out = tmp_path / "trained.nmph"
        run(capsys, "parse", "--arch", "(1:10)", "--input-shape", "16,1,1", "-o", str(net))
        code, stdout, _ = run(
            capsys, "train", "-i", str(net), "--data-dir", str(idx_dir),
            "--epochs", "2", "--batch", "10", "--lr", "0.05", "-o", str(out),
        )
        assert code == EXIT_OK
        assert "epoch=0 loss=" in stdout and "epoch=1 loss=" in stdout
        assert "accuracy=" in stdout
        assert out.exists()
        code, stdout, _ = run(capsys, "eval", "-i", str(out), "--data-dir", str(idx_dir))
        assert code == EXIT_OK
        assert stdout.startswith("accuracy=")

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_net_not_fitting_data_exits_2(self, command, idx_dir, tmp_path, capsys):
        net = tmp_path / "net.nmph"
        run(capsys, "parse", "--arch", "(1:10)", "--input-shape", "3,1,1", "-o", str(net))
        output = ["-o", str(tmp_path / "out.nmph")] if command == "train" else []
        code, _, stderr = run(capsys, command, "-i", str(net), "--data-dir", str(idx_dir), *output)
        assert code == EXIT_USAGE
        assert "error=dataset items" in stderr

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_labels_beyond_the_outputs_exit_2(self, command, idx_dir, tmp_path, capsys):
        # IDX labels run 0-9; the net has 4 outputs
        net = tmp_path / "net.nmph"
        run(capsys, "parse", "--arch", "(1:4)", "--input-shape", "16,1,1", "-o", str(net))
        output = ["-o", str(tmp_path / "out.nmph")] if command == "train" else []
        code, stdout, stderr = run(capsys, command, "-i", str(net), "--data-dir", str(idx_dir), *output)
        assert code == EXIT_USAGE and stdout == ""
        assert "error=labels span" in stderr and "4 outputs" in stderr and "Traceback" not in stderr

    @pytest.mark.parametrize(
        "option, value, name",
        [
            ("--lr", "nan", "learning_rate"),
            ("--lr", "-0.1", "learning_rate"),
            ("--a-lr", "nan", "a_learning_rate"),
            ("--momentum", "inf", "momentum"),
            ("--epochs", "-1", "epochs"),
        ],
    )
    def test_bad_train_setting_exits_2(self, option, value, name, idx_dir, tmp_path, capsys):
        net, out = tmp_path / "net.nmph", tmp_path / "trained.nmph"
        run(capsys, "parse", "--arch", "(1:10)", "--input-shape", "16,1,1", "-o", str(net))
        code, stdout, stderr = run(
            capsys, "train", "-i", str(net), "--data-dir", str(idx_dir),
            "--epochs", "1", "--batch", "10", option, value, "-o", str(out),
        )
        assert code == EXIT_USAGE
        assert stdout == "" and stderr.startswith(f"error={name} must be")
        assert not out.exists()

    def test_oversized_idx_header_exits_2(self, idx_dir, tmp_path, capsys):
        (idx_dir / "t10k-images-idx3-ubyte").write_bytes(OVERSIZED_IMAGES)
        net = tmp_path / "net.nmph"
        run(capsys, "parse", "--arch", "(1:10)", "--input-shape", "16,1,1", "-o", str(net))
        code, _, stderr = run(capsys, "eval", "-i", str(net), "--data-dir", str(idx_dir))
        assert code == EXIT_USAGE
        assert stderr.startswith("error=truncated")

    @pytest.mark.parametrize("how", GZIP_DAMAGE)
    def test_damaged_gzip_exits_2(self, how, idx_dir, tmp_path, capsys):
        images, labels = idx_dir / "t10k-images-idx3-ubyte", idx_dir / "t10k-labels-idx1-ubyte"
        (idx_dir / "t10k-images-idx3-ubyte.gz").write_bytes(damage_gzip(images.read_bytes(), how))
        (idx_dir / "t10k-labels-idx1-ubyte.gz").write_bytes(gzip.compress(labels.read_bytes()))
        images.unlink()
        labels.unlink()
        net = tmp_path / "net.nmph"
        run(capsys, "parse", "--arch", "(1:10)", "--input-shape", "16,1,1", "-o", str(net))
        code, stdout, stderr = run(capsys, "eval", "-i", str(net), "--data-dir", str(idx_dir))
        assert code == EXIT_USAGE
        assert stdout == "" and stderr.startswith("error=damaged gzip images file: ")

    def test_missing_data_dir_exits_2(self, tmp_path, capsys):
        net = tmp_path / "net.nmph"
        run(capsys, "parse", "--arch", "(1:10)", "--input-shape", "16,1,1", "-o", str(net))
        code, *_ = run(capsys, "eval", "-i", str(net), "--data-dir", str(tmp_path / "nowhere"))
        assert code == EXIT_USAGE


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "--arch", "(3:4)", "--input-shape", "3,8,8", "-o", "{out}"),
        ("morph", "-i", "{parent}", "-o", "{out}", "--layer", "0", "--op", "depth", "--cl", "16", "--k1", "3", "--k2", "1"),
        ("morph", "-i", "{parent}", "-o", "{out}", "--layer", "0", "--op", "width", "--width", "12"),
        ("morph", "-i", "{parent}", "-o", "{out}", "--layer", "0", "--op", "subnet", "--paths", "(3:8),(3:8)"),
        ("verify", "-a", "{parent}", "-b", "{parent}"),
        ("train", "-i", "{parent}", "--data-dir", "{data}", "--epochs", "1", "-o", "{out}"),
    ],
    ids=["parse", "morph-depth", "morph-width", "morph-subnet", "verify", "train"],
)
def test_negative_seed_exits_2(argv, parent_file, idx_dir, tmp_path, capsys):
    # rejected as a usage error before any work, also by morph, whose typed
    # errors from the solvers exit 3
    out = tmp_path / "out.nmph"
    argv = [a.format(parent=parent_file, data=idx_dir, out=out) for a in argv]
    code, stdout, stderr = run(capsys, *argv, "--seed", "-1")
    assert code == EXIT_USAGE
    assert stdout == "" and stderr == "error=--seed must be >= 0, got -1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("parse", "--arch", "(3:4)", "--input-shape", "2,10,10", "-o", "{bad}"),
        ("inspect", "-i", "{bad}"),
        ("verify", "-a", "{bad}", "-b", "{parent}"),
    ],
    ids=["parse-output", "inspect-input", "verify-net-a"],
)
def test_path_under_a_regular_file_exits_2(argv, parent_file, tmp_path, capsys):
    # NotADirectoryError is an I/O error like a missing file; for verify,
    # exit 1 would read as "not preserved"
    plain = tmp_path / "plain"
    plain.write_text("")
    argv = [a.format(bad=plain / "x.nmph", parent=parent_file) for a in argv]
    code, stdout, stderr = run(capsys, *argv)
    assert code == EXIT_USAGE
    assert stdout == "" and stderr.startswith("error=")


def test_loaded_child_is_usable(parent_file, tmp_path, capsys):
    child = tmp_path / "child.nmph"
    run(
        capsys, "morph", "-i", str(parent_file), "-o", str(child),
        "--op", "depth", "--layer", "0", "--cl", "16", "--k1", "3", "--k2", "1",
    )
    net = load(child)
    assert len(net.conv_indices()) == 3
    assert all(np.isfinite(l.weights).all() for i, l in enumerate(net.layers) if i in net.conv_indices())
