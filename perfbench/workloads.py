"""The benchmark's three workloads.

Each workload builds its inputs from the seed in ``setup`` and then runs
whole passes of one user workflow with ``run_pass``.  A pass is closed
loop: every call waits for the previous one.  Only generated nets and data
reach the library.  Operations are counted in a ``Ledger``; an operation
fails if it raises, if a verify verdict is false, if a weight-file round
trip is not byte-identical, or if a morph changes a prediction.  A failed
operation is never retried, skipped or re-seeded.  Checks on the outputs
of operations that succeeded are reported as ``problems``, which make the
run incorrect.
"""

import contextlib
import hashlib
import io
import re
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

# Workload sizes.  "full" is what the benchmark measures; "tiny" keeps the
# same steps at toy sizes for the harness self-test.
SIZES = {
    "full": {
        "cifar-depth": {"arch": "(5:32)(5:32)(5:64)", "input": (3, 32, 32), "k": 5, "mult": 4, "samples": 20},
        "morph-chain": {"arch": "(5:32)(5:32)(3:4)(3:32)", "input": (3, 32, 32), "wide": 48, "mid": 96, "sub": 8, "samples": 20},
        "mnist-train": {"train": 20000, "test": 10000, "hidden": 50, "parent_epochs": 2, "child_epochs": 10, "batch": 64},
    },
    "tiny": {
        "cifar-depth": {"arch": "(3:4)(3:4)(3:8)", "input": (3, 8, 8), "k": 3, "mult": 4, "samples": 3},
        "morph-chain": {"arch": "(5:4)(5:4)(3:2)(3:4)", "input": (3, 12, 12), "wide": 6, "mid": 12, "sub": 4, "samples": 3},
        "mnist-train": {"train": 600, "test": 300, "hidden": 16, "parent_epochs": 1, "child_epochs": 2, "batch": 64},
    },
}
TOL = 1e-8


class Ledger:
    """Attempted and failed operations, with a note for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def record(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def call(self, what, fn, *args, verdict=None, **kwargs):
        """Run one operation.  An exception counts as its failure and ends
        the pass; ``verdict`` maps a result to a failure note, or to None."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            note = f"{what} raised {type(exc).__name__}: {exc}"
            if note not in self.failures:
                traceback.print_exc()
            self.record(False, note)
            raise PassAborted(what) from exc
        note = verdict(result) if verdict is not None else None
        self.record(note is None, f"{what}: {note}")
        return result


class PassAborted(Exception):
    pass


@dataclass
class PassResult:
    workflow_s: float = 0.0
    morph_s: float = 0.0
    verify_s: float = 0.0
    train_samples_per_s: float = None
    digest: str = ""  # hash of the pass's final output, for the determinism check
    problems: list = field(default_factory=list)
    notes: dict = field(default_factory=dict)


def _widths(arch):
    return [int(v) for v in re.findall(r":(\d+)\)", arch)]


def warm_up(nm):
    """One small solve and one forward pass, so that first-call costs of
    LAPACK and BLAS land in set-up rather than in the first pass."""
    net = nm.build_network(nm.parse_arch("(3:4)"), (3, 8, 8), seed=0)
    nm.forward(net, np.zeros((3, 8, 8)))
    nm.morph_practical(net.layers[0].weights, nm.DepthMorphRequest(layer_index=0, c_l=16, k1=3, k2=1))


class CifarDepth:
    """The paper's CIFAR step through ``netmorph.cli.main`` in process:
    parse, three practical depth morphs (kernel 5 then 1), verify the final
    child against the parent, inspect."""

    name = "cifar-depth"

    def __init__(self, seed, workdir, size="full"):
        self.seed = seed
        self.workdir = workdir
        self.cfg = SIZES[size][self.name]

    def shapes(self):
        c = self.cfg
        return {
            "arch": c["arch"],
            "input_shape": list(c["input"]),
            "morphs": [f"conv{ordinal} c_l={cl} k1={c['k']} k2=1" for ordinal, cl in self._morphs()],
            "verify_samples": c["samples"],
        }

    @property
    def depth_morphs(self):
        return len(self._morphs())

    def _morphs(self):
        # Each morph turns one conv into two, so the next parent conv sits
        # two ordinals further on.
        return [(2 * i, self.cfg["mult"] * w) for i, w in enumerate(_widths(self.cfg["arch"]))]

    def setup(self):
        import netmorph
        import netmorph.cli

        self.nm = netmorph
        self.cli = netmorph.cli
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.files = [str(self.workdir / f"net{i}.nmph") for i in range(len(self._morphs()) + 1)]
        k = self.cfg["k"]
        self.expected_arch = "".join(f"({k}:{cl})(1:{cl // self.cfg['mult']})" for _, cl in self._morphs())
        warm_up(netmorph)

    def _main(self, argv):
        try:
            return self.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a command line this way
            return exc.code

    def _cli(self, ledger, what, argv, abort=True):
        """One CLI command; a non-zero exit fails the operation and, unless
        ``abort`` is False, ends the pass.  Returns the key=value output."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ledger.call(what, self._main, argv, verdict=lambda code: None if code == 0 else f"exited {code}")
        if code != 0:
            print(f"{what}: {err.getvalue().strip() or out.getvalue().strip()}", file=sys.stderr)
            if abort:
                raise PassAborted(what)
        return dict(line.split("=", 1) for line in out.getvalue().splitlines() if "=" in line)

    def run_pass(self, ledger, traced=False):
        c, res, f = self.cfg, PassResult(), self.files
        shape = ",".join(str(v) for v in c["input"])
        t0 = time.perf_counter()
        self._cli(ledger, "parse", ["parse", "--arch", c["arch"], "--input-shape", shape, "--seed", str(self.seed), "-o", f[0]])
        for i, (ordinal, cl) in enumerate(self._morphs()):
            t = time.perf_counter()
            self._cli(ledger, f"morph {i}", [
                "morph", "-i", f[i], "-o", f[i + 1], "--op", "depth", "--layer", str(ordinal),
                "--cl", str(cl), "--k1", str(c["k"]), "--k2", "1", "--seed", str(self.seed + i),
            ])
            res.morph_s += time.perf_counter() - t
        t = time.perf_counter()
        verdict = self._cli(ledger, "verify", [
            "verify", "-a", f[0], "-b", f[-1], "--samples", str(c["samples"]), "--tol", str(TOL), "--seed", str(self.seed),
        ], abort=False)
        res.verify_s = time.perf_counter() - t
        summary = self._cli(ledger, "inspect", ["inspect", "-i", f[-1]])
        res.workflow_s = time.perf_counter() - t0

        # Checks outside the timed workflow.
        res.notes["verify"] = verdict
        if summary.get("arch") != self.expected_arch:
            res.problems.append(f"inspect arch={summary.get('arch')}, expected {self.expected_arch}")
        for path in f:
            with open(path, "rb") as fh:
                blob = fh.read()
            ledger.call(f"round trip of {path}", _round_trip, self.nm, blob, verdict=_not_identical)
        res.digest = hashlib.sha256(blob).hexdigest()
        return res


class MorphChain:
    """A chain of all four morph kinds on a sigmoid net through the library,
    each step followed by serialize, deserialize with a byte-identity check,
    and check_preservation against the previous net."""

    name = "morph-chain"
    depth_morphs = 1

    def __init__(self, seed, workdir=None, size="full"):
        self.seed = seed
        self.cfg = SIZES[size][self.name]

    def shapes(self):
        c, widths = self.cfg, _widths(self.cfg["arch"])
        return {
            "arch": c["arch"],
            "input_shape": list(c["input"]),
            "base": "sigmoid",
            "steps": [
                f"widen conv0 to {c['wide']}",
                "expand_kernel last conv 3->5",
                f"depth conv1 -> (3:{c['mid']})(3:{widths[1]})",
                f"morph_stacked conv2 -> (3:{widths[2]})@0.5,(3:{c['sub']})(3:{c['sub']})(1:{widths[2]})@0.5",
            ],
            "verify_samples": c["samples"],
        }

    def setup(self):
        import netmorph

        self.nm = nm = netmorph
        self.parent = nm.build_network(nm.parse_arch(self.cfg["arch"]), self.cfg["input"], seed=self.seed, base="sigmoid")
        c, widths = self.cfg, _widths(self.cfg["arch"])
        self.steps = [
            ("widen", lambda net: nm.widen(net, nm.WidthMorphRequest(net.conv_indices()[0], c["wide"], seed=self.seed))),
            ("expand_kernel", lambda net: nm.expand_kernel(net, net.conv_indices()[-1], 5)),
            ("depth", lambda net: nm.insert_depth(net, nm.DepthMorphRequest(net.conv_indices()[1], c["mid"], 3, 3, seed=self.seed))),
            ("stacked", lambda net: nm.morph_stacked(net, nm.SubnetMorphRequest(
                net.conv_indices()[3],
                [[(3, widths[2])], [(3, c["sub"]), (3, c["sub"]), (1, widths[2])]],
                [0.5, 0.5],
                seed=self.seed,
            ))),
        ]
        self.expected_arch = f"(5:{c['wide']})(3:{c['mid']})(3:{widths[1]})(5:{widths[3]})"
        warm_up(nm)

    def run_pass(self, ledger, traced=False):
        nm, res = self.nm, PassResult()
        net = self.parent
        t0 = time.perf_counter()
        for step, (what, morph) in enumerate(self.steps, 1):
            t = time.perf_counter()
            child = ledger.call(f"step {step} {what}", morph, net)
            res.morph_s += time.perf_counter() - t
            blob, loaded, _ = ledger.call(
                f"step {step} {what} round trip", lambda: _round_trip(nm, nm.serialize(child)), verdict=_not_identical,
            )
            t = time.perf_counter()
            report = ledger.call(
                f"step {step} {what} verify", nm.check_preservation, net, loaded, self.cfg["samples"], TOL,
                seed=self.seed, verdict=_false_verdict,
            )
            res.verify_s += time.perf_counter() - t
            res.notes[f"step{step}"] = {"morph": what, "max_abs_dev": report.max_abs_dev, "crop_border": report.crop_border, "pass": report.pass_}
            net = loaded
        res.workflow_s = time.perf_counter() - t0

        if nm.print_arch(net) != self.expected_arch:
            res.problems.append(f"final arch {nm.print_arch(net)}, expected {self.expected_arch}")
        stacks = [layer for layer in net.layers if isinstance(layer, nm.ParallelLayer)]
        if len(stacks) != 1 or len(stacks[0].paths) != 2:
            res.problems.append("final net does not hold one two-path ParallelLayer")
        res.digest = hashlib.sha256(blob).hexdigest()
        return res


def _seconds(fn, *args):
    t = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t


def _round_trip(nm, blob):
    """Deserialize weight-file bytes; returns the bytes, the net, and
    whether serializing the net again gives the same bytes."""
    net = nm.deserialize(blob)
    return blob, net, nm.serialize(net) == blob


def _not_identical(result):
    return None if result[2] else "round trip not byte-identical"


def _false_verdict(report):
    if report.pass_:
        return None
    return f"verdict false, max_abs_dev={report.max_abs_dev:.3e} crop_border={report.crop_border} exact_mode={report.exact_mode}"


def synthetic_mnist(seed, n_train, n_test, side=28, classes=10, label_noise=0.08):
    """MNIST-shaped data: 28x28 images in [0, 1] drawn around smooth class
    templates, with a share of labels redrawn at random so that accuracy
    stays below 100% and training keeps moving."""
    from netmorph import Dataset

    rng = np.random.default_rng([seed, 784])
    templates = np.kron(rng.random((classes, side // 4, side // 4)), np.ones((4, 4)))

    def draw(n):
        labels = rng.integers(0, classes, n)
        images = 0.5 * templates[labels] + 0.5 * rng.random((n, side, side))
        noisy = rng.random(n) < label_noise
        labels[noisy] = rng.integers(0, classes, int(noisy.sum()))
        return Dataset(images=images[:, None], labels=labels)

    return draw(n_train), draw(n_test)


class MnistTrain:
    """The paper's MNIST experiment on synthetic data: train a softmax
    parent, depth-morph it to 784->H->10 with an identity ReLU PAct, check
    that test predictions are unchanged, train the child, evaluate."""

    name = "mnist-train"
    depth_morphs = 1

    LR, A_LR, MOMENTUM = 0.05, 0.01, 0.9
    REPEATS = 8  # extra timings of the morph and of the prediction check per untraced pass

    def __init__(self, seed, workdir=None, size="full"):
        self.seed = seed
        self.cfg = SIZES[size][self.name]

    def shapes(self):
        c = self.cfg
        return {
            "train_images": c["train"],
            "test_images": c["test"],
            "image": [1, 28, 28],
            "parent": "784->10 softmax",
            "child": f"784->{c['hidden']}->10, PAct relu a=1",
            "batch": c["batch"],
            "parent_epochs": c["parent_epochs"],
            "child_epochs": c["child_epochs"],
        }

    def setup(self):
        import netmorph

        self.nm = nm = netmorph
        c = self.cfg
        self.train_set, self.test_set = synthetic_mnist(self.seed, c["train"], c["test"])
        self.parent = nm.build_network([nm.ConvSpec(1, 10)], (784, 1, 1), seed=self.seed, activations=False)
        self.train_cfg = {
            e: nm.TrainConfig(learning_rate=self.LR, batch_size=c["batch"], epochs=c[e], seed=self.seed,
                              momentum=self.MOMENTUM, a_learning_rate=self.A_LR)
            for e in ("parent_epochs", "child_epochs")
        }
        warm_up(nm)

    def run_pass(self, ledger, traced=False):
        nm, c, res = self.nm, self.cfg, PassResult()
        t0 = time.perf_counter()
        parent, _ = ledger.call("train parent", nm.train_sgd, self.parent, self.train_set, self.train_cfg["parent_epochs"])
        t = time.perf_counter()
        request = nm.DepthMorphRequest(layer_index=0, c_l=c["hidden"], k1=1, k2=1, seed=self.seed)
        child = ledger.call("depth morph", nm.insert_depth, parent, request)
        res.morph_s = time.perf_counter() - t
        t = time.perf_counter()

        def both():
            return nm.predictions(parent, self.test_set), nm.predictions(child, self.test_set)

        before, after = ledger.call(
            "predictions", both,
            verdict=lambda pair: None if np.array_equal(*pair) else f"morph changed {int((pair[0] != pair[1]).sum())} test predictions",
        )
        res.verify_s = time.perf_counter() - t
        t = time.perf_counter()
        trained, losses = ledger.call("train child", nm.train_sgd, child, self.train_set, self.train_cfg["child_epochs"])
        res.train_samples_per_s = len(self.train_set) * c["child_epochs"] / (time.perf_counter() - t)
        accuracy = ledger.call("evaluate", nm.evaluate, trained, self.test_set)
        res.workflow_s = time.perf_counter() - t0

        # The morph (about 6 ms) and the prediction check (about 35 ms) are
        # too short for one timing per pass to give a steady median, so in
        # untraced passes each is timed again after the workflow.
        if not traced:
            res.morph_s = statistics.median([res.morph_s] + [_seconds(nm.insert_depth, parent, request) for _ in range(self.REPEATS)])
            res.verify_s = statistics.median([res.verify_s] + [_seconds(both) for _ in range(self.REPEATS)])

        parent_accuracy = float((before == self.test_set.labels).mean())
        a = trained.layers[1].a
        res.notes.update(parent_accuracy=parent_accuracy, child_accuracy=accuracy, a=a, losses=losses)
        if not 0.5 < parent_accuracy < 1.0:
            res.problems.append(f"parent accuracy {parent_accuracy:.4f} outside (0.5, 1)")
        if not parent_accuracy - 0.05 <= accuracy < 1.0:
            res.problems.append(f"child accuracy {accuracy:.4f} vs parent {parent_accuracy:.4f}")
        if not a < 1.0:
            res.problems.append("activation parameter a did not move from the identity")
        if not losses[-1] < losses[0]:
            res.problems.append(f"child loss did not fall: {losses[0]:.4f} -> {losses[-1]:.4f}")
        res.digest = hashlib.sha256(nm.serialize(trained)).hexdigest()
        return res


WORKLOADS = {w.name: w for w in (CifarDepth, MorphChain, MnistTrain)}
