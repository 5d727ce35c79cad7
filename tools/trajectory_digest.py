"""Digest of short training runs, to show that a refactor keeps the numbers.

Trains a fixed set of small configurations for 2 epochs with iterate
averaging on, and prints one line per configuration: a SHA-256 of the
per-epoch log without its wall-clock `seconds` field, and a SHA-256 of the
best parameters' names and float64 bytes.  A last `eval` line runs
`sydlm preprocess`, `train` and `eval --wsj10-maxlen --plot-csv --render`
and hashes `metrics.json`, `heights.csv` and eval's printed output.  A
`preprocess` line hashes the corpus dump and `.dist` file that
`sydlm preprocess` writes for a fixed PTB-style text (function tags, -NONE-
elements, punctuation, numbers, the empty-label root and a multi-word leaf),
and a `preprocess/rules` line does the same with a rules file that sets
every rule to a value other than its default.
Two source trees that print the same lines trained bitwise the same
trajectories and wrote the same reports and corpora.

    python tools/trajectory_digest.py              # this checkout's src/
    python tools/trajectory_digest.py --src DIR    # another checkout's src/
    python tools/trajectory_digest.py --compare DIR [--rtol 1e-12]

``--compare`` is the guard for a change that reorders sums, whose hashes
differ by design.  It runs the same configurations under this checkout's
src/ and under DIR's src/, each in a fresh subprocess, and prints per
configuration the largest relative difference of the per-epoch log's
numbers, and the largest norm-relative difference of any best parameter
and of any gradient of one taped training step (``|a - b| / max(|b|,
FLOOR)``, so that a value that is zero in exact arithmetic does not
dominate), with the parameter names that only one side has.  The eval
line says which artifacts are byte-equal and gives the largest relative
difference of the numbers in metrics.json; the preprocess lines say
whether the corpus dump and .dist file are byte-equal.  It exits 1 when a
difference exceeds ``--rtol``, when metrics.json differs in structure or
in a number that is not a float, or when the preprocess artifacts differ.

The eval and preprocess lines work in a temporary directory that is removed
afterwards; nothing else is written to disk.
"""

import argparse
import concurrent.futures
import contextlib
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import sys
import tempfile
from pathlib import Path

import numpy as np

sys.dont_write_bytecode = True

# a small right-branching PCFG: nonterminal -> [(probability, right-hand side)]
RULES = {
    "S": [(1.0, ("NP", "VP"))],
    "NP": [(0.5, ("DT", "NN")), (0.3, ("NN",)), (0.2, ("NP", "PP"))],
    "VP": [(0.5, ("VB", "NP")), (0.3, ("VB", "NP", "PP")), (0.2, ("VB",))],
    "PP": [(1.0, ("IN", "NP"))],
}
WORDS = {"DT": ["the", "a"], "NN": ["cat", "dog", "man", "tree", "car"],
         "VB": ["sees", "likes", "eats"], "IN": ["in", "on", "near"]}

ONLSTM = dict(model="onlstm-syd", n_layers=3, chunk_factor=2, supervision_layer=2)
CONFIGS = [("onlstm-syd/%s" % mode, dict(ONLSTM, supervision_mode=mode))
           for mode in ("none", "split-head", "one-set-of-trees", "vanilla-multitask")]
CONFIGS += [
    ("onlstm-syd/split-head/untied", dict(ONLSTM, supervision_mode="split-head", tie_embeddings=False)),
    ("prpn-syd/split-head", dict(model="prpn-syd", supervision_mode="split-head")),
    ("prpn", dict(model="prpn", supervision_mode="none")),
]
PTB_TEXT = """\
( (S (NP-SBJ-1 (DT The) (NNP Dow) (NNPS Jones)) (VP (VBD rose) (NP-EXT (CD 12.5) (NNS points))
     (PP-TMP (IN on) (NNP Friday))) (. .)) )
( (S (NP-SBJ (-NONE- *-1)) (VP (VBZ says) (SBAR (-NONE- 0) (S (NP-SBJ=2 (PRP it))
     (VP (MD will) (VP (VB sell) (NP (CD 1,000) (NNS shares)) (PP (IN in) (NNP New York)))))))
     (, ,) (`` ``) (NP (-NONE- *T*-2)) ('' '') (. .)) )
(S (NP (-LRB- -LRB-) (NN cat) (-RRB- -RRB-)) (VP (VBD sat) (NP (CD 3/4) (NN mile)))
   (: ;) (NP ($ $) (CD 5) (NN Dollars)) (# #))
( (FRAG (-NONE- *U*)) )
"""
# every rule away from its default; a value holds no '#', which starts a comment
PTB_RULES = """\
lowercase = off
drop_tags = . , -LRB- -RRB- ``
number_pattern = [0-9]+([.,/][0-9]+)*
number_symbol = <num>
vocab_max_size = 12
mode = sepsent
"""
PREPROCESS = [("preprocess", ""), ("preprocess/rules", PTB_RULES)]  # (line, rules file)
EVAL_SETTINGS = ["n_layers=3", "chunk_factor=2", "supervision_layer=2", "embedding_size=8",
                 "hidden_size=12", "epochs=2", "batch_size=4", "bptt_length=10"]


def treebank(sydlm, n_sentences: int, seed: int) -> list:
    rng = random.Random(seed)

    def expand(symbol: str, depth: int):
        if symbol in WORDS:
            return sydlm.Tree(label=symbol, token=rng.choice(WORDS[symbol]))
        rules = RULES[symbol] if depth < 4 else RULES[symbol][:1]
        roll, acc, rhs = rng.random() * sum(p for p, _ in rules), 0.0, rules[-1][1]
        for prob, cand in rules:
            acc += prob
            if roll < acc:
                rhs = cand
                break
        return sydlm.Tree(label=symbol, children=[expand(s, depth + 1) for s in rhs])

    return [expand("S", 0) for _ in range(n_sentences)]


def configure(sydlm, corpus, model_fields: dict):
    model_cfg = sydlm.ModelConfig(vocab_size=len(corpus.vocab), embedding_size=8, hidden_size=12,
                                  **model_fields)
    return sydlm.TrainConfig(model=model_cfg, epochs=2, batch_size=4, bptt_length=10,
                             averaging=True, average_from_epoch=1,
                             tree_source="none" if model_cfg.supervision_mode == "none" else "gold")


def trajectory(sydlm, corpus, model_fields: dict) -> tuple:
    """The per-epoch log without its wall-clock field, and the best
    parameters, of a 2-epoch run."""
    from sydlm.training import train

    cfg = configure(sydlm, corpus, model_fields)
    log, best = train(sydlm.build_model(cfg.model, seed=cfg.seed), corpus, cfg)
    return [{k: v for k, v in entry.items() if k != "seconds"} for entry in log], best


def step_gradients(sydlm, corpus, model_fields: dict) -> dict:
    """{name: gradient} of the first taped training step, as train takes it."""
    from sydlm import autodiff as ad
    from sydlm.training import bptt_batches, joint_loss, lm_loss, ranking_loss

    cfg = configure(sydlm, corpus, model_fields)
    model = sydlm.build_model(cfg.model, seed=cfg.seed)
    batch = next(iter(bptt_batches(corpus, cfg.batch_size, cfg.bptt_length, cfg.tree_source, cfg.seed)))
    with ad.Tape():
        out = model.forward(batch.inputs, None, rng=np.random.default_rng(cfg.seed), train_cfg=cfg)
        # a package whose lm_loss takes logits forms them all at once
        l_lm = lm_loss(out if hasattr(out, "tops") else out.logits, batch.targets.reshape(-1),
                       batch.target_weight.reshape(-1))
        l_syd = None
        if cfg.alpha > 0 and cfg.model.supervision_mode != "none":
            l_syd = ranking_loss(out.d_syd, batch.gold_d.reshape(-1), batch.sent_id.reshape(-1),
                                 cfg.pair_mode)
        ad.backward(joint_loss(l_lm, l_syd, cfg.alpha))
    return {name: p.grad for name, p in model.params.items() if p.grad is not None}


def digest(sydlm, corpus, model_fields: dict) -> tuple:
    log, best = trajectory(sydlm, corpus, model_fields)
    params = hashlib.sha256()
    for name in sorted(best):
        params.update(name.encode() + b"\0" + best[name].astype("<f8").tobytes())
    return short_hash(json.dumps(log, sort_keys=True).encode()), params.hexdigest()[:16]


def short_hash(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()[:16]


@contextlib.contextmanager
def scratch_dir():
    """Work in a temporary directory, so that paths in manifests are relative
    and match across runs."""
    home = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            yield
        finally:
            os.chdir(home)


def run_cli(*argv) -> str:
    from sydlm.cli import main

    printed = io.StringIO()
    with contextlib.redirect_stdout(printed):
        code = main(list(argv))
    if code != 0:
        raise SystemExit("sydlm %s exited %d" % (" ".join(argv), code))
    return printed.getvalue()


def eval_artifacts(sydlm, trees: list) -> list:
    """metrics.json, heights.csv and eval's stdout after the CLI's
    preprocess, train and eval."""
    with scratch_dir():
        Path("train.mrg").write_text("".join(sydlm.render_bracketed(t) + "\n" for t in trees))
        run_cli("preprocess", "train.mrg", "--out", "corpus.json")
        run_cli("train", "--corpus", "corpus.json", "--out", "run",
                *[arg for kv in EVAL_SETTINGS for arg in ("--set", kv)])
        printed = run_cli("eval", "--checkpoint", "run/checkpoint.bin", "--corpus", "corpus.json",
                          "--out", "metrics.json", "--wsj10-maxlen", "10",
                          "--plot-csv", "heights.csv", "--render", "0,1,2")
        return [Path("metrics.json").read_bytes(), Path("heights.csv").read_bytes(),
                printed.encode()]


def preprocess_artifacts(rules: str = "") -> list:
    """The corpus dump and .dist file that preprocess writes for PTB_TEXT,
    with the rules file `rules` when it is not empty."""
    with scratch_dir():
        Path("ptb.mrg").write_text(PTB_TEXT)
        argv = ["preprocess", "ptb.mrg", "--out", "corpus.json"]
        if rules:
            Path("rules.txt").write_text(rules)
            argv += ["--rules", "rules.txt"]
        run_cli(*argv)
        return [Path("corpus.json").read_bytes(), Path("corpus.json.dist").read_bytes()]


def load(src: str):
    sys.path.insert(0, src)
    import sydlm

    trees = treebank(sydlm, 40, seed=7)
    return sydlm, trees, sydlm.preprocess_corpus(trees, sydlm.PreprocessRules())


# --compare ------------------------------------------------------------------

# Norms below this are compared as if they were this large: a parameter or
# gradient that is zero in exact arithmetic holds only rounding noise.
FLOOR = 1e-6


def collect(src: str) -> dict:
    """Every number and artifact --compare looks at, from src's sydlm."""
    sydlm, trees, corpus = load(src)
    runs = {}
    for name, fields in CONFIGS:
        log, best = trajectory(sydlm, corpus, fields)
        runs[name] = {"log": log, "params": best, "grads": step_gradients(sydlm, corpus, fields)}
    return {"runs": runs, "eval": eval_artifacts(sydlm, trees),
            **{name: preprocess_artifacts(rules) for name, rules in PREPROCESS}}


def collect_in_subprocess(src: str) -> dict:
    """collect(src) in a fresh interpreter, so that each side imports its
    own sydlm."""
    ctx = multiprocessing.get_context("spawn")
    with concurrent.futures.ProcessPoolExecutor(max_workers=1, mp_context=ctx) as pool:
        return pool.submit(collect, src).result()


def relative(a: float, b: float) -> float:
    """|a - b| / max(|a|, |b|); inf when one side is not finite and the
    other differs, so that a NaN cannot hide in a max."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    d = abs(a - b) / max(abs(a), abs(b))
    return d if math.isfinite(d) else math.inf


def numbers_differ(a, b) -> float:
    """Largest relative difference of the floats in two JSON values of the
    same structure; inf when their structure or other numbers differ.
    Strings are not compared: the manifest's input fingerprints change with
    any bit of the checkpoint, and the byte-equality flags show them."""
    if isinstance(a, dict) and isinstance(b, dict):
        if a.keys() != b.keys():
            return math.inf
        return max((numbers_differ(a[k], b[k]) for k in a), default=0.0)
    if isinstance(a, list) and isinstance(b, list):
        if len(a) != len(b):
            return math.inf
        return max((numbers_differ(x, y) for x, y in zip(a, b)), default=0.0)
    if isinstance(a, float) and isinstance(b, float):
        return relative(a, b)
    if isinstance(a, str) and isinstance(b, str):
        return 0.0
    return 0.0 if a == b else math.inf


def arrays_differ(ours: dict, theirs: dict) -> float:
    """Largest norm-relative difference over the names both sides have."""
    worst = 0.0
    for name in ours.keys() & theirs.keys():
        a, b = ours[name], theirs[name]
        if a.shape != b.shape:
            return math.inf
        d = float(np.linalg.norm(a - b)) / max(float(np.linalg.norm(b)), FLOOR)
        worst = max(worst, d if math.isfinite(d) else math.inf)
    return worst


def compare(other: str, rtol: float) -> int:
    ours = collect_in_subprocess(str(Path(__file__).resolve().parents[1] / "src"))
    theirs = collect_in_subprocess(str(Path(other) / "src"))
    worst = 0.0
    for name, _fields in CONFIGS:
        a, b = ours["runs"][name], theirs["runs"][name]
        diffs = [numbers_differ(a["log"], b["log"]), arrays_differ(a["params"], b["params"]),
                 arrays_differ(a["grads"], b["grads"])]
        worst = max(worst, *diffs)
        line = "%-30s log %.1e  params %.1e  grads %.1e" % (name, *diffs)
        only_ours = sorted(a["params"].keys() - b["params"].keys())
        only_theirs = sorted(b["params"].keys() - a["params"].keys())
        if only_ours or only_theirs:
            line += "  only here %s  only there %s" % (only_ours, only_theirs)
        print(line)
    metrics = numbers_differ(*(json.loads(side["eval"][0]) for side in (ours, theirs)))
    worst = max(worst, metrics)
    equal = ["equal" if x == y else "differ" for x, y in zip(ours["eval"], theirs["eval"])]
    print("%-30s metrics %s (numbers %.1e)  heights %s  printed %s"
          % ("eval", equal[0], metrics, equal[1], equal[2]))
    same_corpus = all(ours[name] == theirs[name] for name, _rules in PREPROCESS)
    for name, _rules in PREPROCESS:
        equal = ["equal" if x == y else "differ" for x, y in zip(ours[name], theirs[name])]
        print("%-30s corpus %s  dist %s" % (name, *equal))
    passed = worst <= rtol and same_corpus
    print("largest difference %.1e, rtol %.0e: %s" % (worst, rtol, "pass" if passed else "FAIL"))
    return 0 if passed else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the sydlm package (default: this checkout's src/)")
    parser.add_argument("--compare", metavar="DIR",
                        help="compare this checkout with the checkout at DIR within --rtol")
    parser.add_argument("--rtol", type=float, default=1e-12)
    args = parser.parse_args()
    if args.compare:
        return compare(args.compare, args.rtol)
    sydlm, trees, corpus = load(args.src)
    for name, fields in CONFIGS:
        log_hash, param_hash = digest(sydlm, corpus, fields)
        print("%-30s log %s  params %s" % (name, log_hash, param_hash))
    print("%-30s metrics %s  heights %s  printed %s"
          % ("eval", *(short_hash(blob) for blob in eval_artifacts(sydlm, trees))))
    for name, rules in PREPROCESS:
        print("%-30s corpus %s  dist %s" % (name, *(short_hash(blob) for blob in preprocess_artifacts(rules))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
