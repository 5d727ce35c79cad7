"""The four benchmark workloads: inputs, set-up, the timed operation and
its output checks.

Every workload is a closed loop of one caller in one process: the next
operation starts when the previous one has returned.  Inputs are bracketed
treebank text from the seeded generator; the program sees nothing else.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path

import treebank


@dataclass(frozen=True)
class Spec:
    name: str
    kind: str                  # "train": training.train; "eval": sydlm eval
    model: dict
    bptt: int
    batch: int
    epochs: int
    train_words: int
    held_words: int            # validation (train) or evaluated (eval) words
    max_words: int             # sentence-length cap
    lexicon: int = 60
    exponent: float = 1.0
    vocab_words: int = 0       # extra words the vocabulary is built from
    vocab_max: int = 10000
    eval_args: tuple = field(default=())
    host_check: str = "interpreter"   # the kind of work the operation's time goes to


DESK = {"model": "onlstm-syd", "n_layers": 3, "hidden_size": 24, "embedding_size": 16}
MID = {"model": "onlstm-syd", "n_layers": 3, "hidden_size": 256, "embedding_size": 128}

# Why each workload exists is recorded in BENCHMARK.json and README.md.
SPECS = {s.name: s for s in (
    Spec("onlstm-desk", "train", DESK, bptt=35, batch=20, epochs=2,
         train_words=3500, held_words=350, max_words=30, vocab_max=100),
    Spec("onlstm-mid", "train", MID, bptt=35, batch=20, epochs=2, train_words=1300, held_words=130, max_words=30,
         lexicon=20000, exponent=0.6, vocab_words=16000, vocab_max=5000, host_check="blas"),
    Spec("prpn-syd-long", "train", {"model": "prpn-syd", "hidden_size": 24, "embedding_size": 16},
         bptt=140, batch=20, epochs=2, train_words=2750, held_words=275, max_words=30,
         vocab_max=100),
    Spec("eval-cli", "eval", DESK, bptt=35, batch=20, epochs=1, train_words=2000, held_words=2000,
         max_words=40,
         eval_args=("--trees", "syd", "--algo", "unbiased", "--wsj10-maxlen", "10",
                    "--out", "metrics.json", "--plot-csv", "heights.csv",
                    "--render", "0,1,2")),
)}

# Canary: each workload's model on a small fixed input, compared with the
# reference values of the commit that defined the benchmark.
CANARY_SEED = "canary"
CANARY_WORDS = (1500, 300)
CANARY_RTOL = 1e-7


def texts(spec: Spec, seed: str) -> dict:
    def gen(role, words):
        if not words:
            return ""
        return treebank.treebank_text("%s/%s/%s" % (spec.name, seed, role), words,
                                      spec.lexicon, spec.max_words, spec.exponent)

    return {"train": gen("train", spec.train_words), "held": gen("held", spec.held_words),
            "vocab": gen("vocab", spec.vocab_words)}


def canary_spec(spec: Spec) -> Spec:
    return replace(spec, train_words=CANARY_WORDS[0], held_words=CANARY_WORDS[1], epochs=1,
                   lexicon=60, exponent=1.0, vocab_words=0, vocab_max=10000)


def _quiet(fn, *args):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        result = fn(*args)
    return result, out.getvalue()


class TrainWorkload:
    """training.train over a treebank shard, validating every epoch."""

    def __init__(self, spec: Spec, inputs: dict, workdir: Path):
        self.spec = spec
        self.inputs = inputs
        self.workdir = workdir

    def setup(self):
        import sydlm
        from sydlm import ModelConfig, PreprocessRules, TrainConfig

        spec = self.spec
        rules = PreprocessRules(vocab_max_size=spec.vocab_max, mode="concat")
        trees = sydlm.parse_bracketed(self.inputs["train"])
        vocab = None
        if self.inputs["vocab"]:
            extra = sydlm.parse_bracketed(self.inputs["vocab"])
            vocab = sydlm.preprocess_corpus(trees + extra, rules).vocab
        self.corpus = sydlm.preprocess_corpus(trees, rules, vocab)
        self.valid = sydlm.preprocess_corpus(sydlm.parse_bracketed(self.inputs["held"]), rules,
                                             self.corpus.vocab)
        self.config = TrainConfig(
            model=ModelConfig(vocab_size=len(self.corpus.vocab), **spec.model),
            bptt_length=spec.bptt, batch_size=spec.batch, epochs=spec.epochs)
        self.model = sydlm.build_model(self.config.model, self.config.seed)
        self.tokens = len(self.corpus.tokens) * spec.epochs

    def fresh(self):
        """Untimed: a freshly initialised model for the next operation."""
        import sydlm

        self.model = sydlm.build_model(self.config.model, self.config.seed)

    def run(self):
        import sydlm.training

        log, _best = sydlm.training.train(self.model, self.corpus, self.config, self.valid)
        return log

    @staticmethod
    def check(log) -> list:
        problems = []
        for entry in log:
            for key, value in entry.items():
                if isinstance(value, float) and not math.isfinite(value):
                    problems.append("epoch %s: %s is %r" % (entry["epoch"], key, value))
        return problems

    @staticmethod
    def fingerprint(log):
        return [{k: v for k, v in e.items() if k != "seconds"} for e in log]

    @staticmethod
    def quality(log) -> dict:
        return {"ppl": log[-1]["valid_ppl"], "lm_loss_epoch1": log[0]["lm_loss"]}


class EvalWorkload:
    """In-process `sydlm eval` on a checkpoint trained during set-up."""

    def __init__(self, spec: Spec, inputs: dict, workdir: Path):
        self.spec = spec
        self.workdir = workdir
        self.files = workdir / "files"
        self.files.mkdir(parents=True, exist_ok=True)
        (self.files / "train.mrg").write_text(inputs["train"])
        (self.files / "test.mrg").write_text(inputs["held"])

    def _cli(self, argv):
        import sydlm.cli

        cwd = os.getcwd()
        os.chdir(self.files)
        try:
            return _quiet(sydlm.cli.main, list(argv))
        finally:
            os.chdir(cwd)

    def setup(self):
        spec = self.spec
        sets = ["model=%s" % spec.model["model"], "n_layers=%d" % spec.model["n_layers"],
                "hidden_size=%d" % spec.model["hidden_size"],
                "embedding_size=%d" % spec.model["embedding_size"],
                "bptt_length=%d" % spec.bptt, "batch_size=%d" % spec.batch,
                "epochs=%d" % spec.epochs]
        steps = (["preprocess", "train.mrg", "--out", "train.json"],
                 ["preprocess", "test.mrg", "--out", "test.json", "--vocab-from", "train.json"],
                 ["train", "--corpus", "train.json", "--out", "run"]
                 + [a for kv in sets for a in ("--set", kv)])
        for argv in steps:
            code, _ = self._cli(argv)
            if code != 0:
                raise RuntimeError("set-up step %s exited %d" % (argv[0], code))
        with open(self.files / "test.json") as fh:
            self.tokens = len(json.load(fh)["tokens"])

    def fresh(self):
        pass

    def run(self):
        code, printed = self._cli(["eval", "--checkpoint", "run/checkpoint.bin",
                                   "--corpus", "test.json"] + list(self.spec.eval_args))
        metrics = (self.files / "metrics.json").read_bytes() if code == 0 else b""
        heights = (self.files / "heights.csv").read_bytes() if code == 0 else b""
        return {"code": code, "metrics": metrics, "heights": heights, "printed": printed}

    @staticmethod
    def check(result) -> list:
        if result["code"] != 0:
            return ["sydlm eval exited %d" % result["code"]]
        report = json.loads(result["metrics"])
        problems = []
        if not math.isfinite(report["perplexity"]):
            problems.append("perplexity is %r" % report["perplexity"])
        if report.get("structure") is None:
            problems.append("no structure report")
        return problems

    @staticmethod
    def fingerprint(result):
        return result

    @staticmethod
    def quality(result) -> dict:
        report = json.loads(result["metrics"])
        return {"ppl": report["perplexity"], "f1_micro": report["structure"]["f1_micro"]}


def make(spec: Spec, seed: str, workdir: Path):
    cls = TrainWorkload if spec.kind == "train" else EvalWorkload
    return cls(spec, texts(spec, seed), workdir)


def canary(spec: Spec, workdir: Path) -> dict:
    """Quality numbers of the workload's model on the fixed canary input."""
    small = canary_spec(spec)
    work = make(small, CANARY_SEED, workdir)
    work.setup()
    result = work.run()
    problems = work.check(result)
    if problems:
        raise RuntimeError("canary: " + "; ".join(problems))
    return work.quality(result)


def check_canary(spec: Spec, workdir: Path) -> list:
    """Problems found comparing the canary with reference.json."""
    reference = json.loads(Path(__file__).with_name("reference.json").read_text())[spec.name]
    try:
        found = canary(spec, workdir)
    except Exception as exc:  # a diverged step or a crash fails the canary
        return ["canary: %s: %s" % (type(exc).__name__, exc)]
    problems = []
    for key, ref in reference.items():
        got = found.get(key)
        if got is None or not math.isclose(got, ref, rel_tol=CANARY_RTOL, abs_tol=1e-9):
            problems.append("canary %s = %r, reference %r" % (key, got, ref))
    return problems
