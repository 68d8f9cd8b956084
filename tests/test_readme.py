"""The README's library quick start and command-line examples run as written."""

import pathlib
import re
import shlex

from netmorph.cli import EXIT_OK, main

from test_train import write_idx_pair

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"


def _block(heading, lang):
    """The first ``lang`` code block under the ``## heading`` section."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.search(rf"```{lang}\n(.*?)```", section, re.S).group(1)


def _commands(block):
    """argv lists of the block's ``netmorph`` lines, ``\\`` continuations joined."""
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line, comments=True)[1:] for line in lines if line.startswith("netmorph ")]


def test_quick_start_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_block("Library quick start", "python"), scope)
    assert scope["report"].pass_
    assert "pass=true" in capsys.readouterr().out


def test_command_line_examples_run(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    commands = _commands(_block("Command line", "sh"))
    assert [argv[0] for argv in commands] == ["parse", "morph", "morph", "morph", "morph", "verify", "inspect"]
    for argv in commands:
        code = main(argv)
        out = capsys.readouterr().out
        assert code == EXIT_OK, argv
        if argv[0] == "verify":
            assert "pass=true" in out.splitlines()


def test_mnist_example_runs(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    data = tmp_path / "data"
    for stem, n, seed in (("train", 60, 0), ("t10k", 30, 1)):
        (data / stem).mkdir(parents=True)
        images, labels, *_ = write_idx_pair(data / stem, n=n, rows=28, cols=28, seed=seed)
        images.rename(data / f"{stem}-images-idx3-ubyte")
        labels.rename(data / f"{stem}-labels-idx1-ubyte")
    commands = _commands(_block("MNIST", "sh"))
    assert [argv[0] for argv in commands] == ["parse", "train", "morph", "eval", "train"]
    outputs = []
    for argv in commands:
        code = main(argv)
        outputs.append(capsys.readouterr().out)
        assert code == EXIT_OK, argv
    # "identical accuracy to parent": eval of the child prints the line train printed for the parent
    parent_accuracy = [line for line in outputs[1].splitlines() if line.startswith("accuracy=")]
    assert len(parent_accuracy) == 1 and outputs[3].splitlines() == parent_accuracy
