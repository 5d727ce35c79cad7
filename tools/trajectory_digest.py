"""Digest of short training runs, to show that a refactor keeps the numbers.

Trains a fixed set of small configurations for 2 epochs with iterate
averaging on, and prints one line per configuration: a SHA-256 of the
per-epoch log without its wall-clock `seconds` field, and a SHA-256 of the
best parameters' names and float64 bytes.  A last `eval` line runs
`sydlm preprocess`, `train` and `eval --wsj10-maxlen --plot-csv --render`
and hashes `metrics.json`, `heights.csv` and eval's printed output.  A
`preprocess` line hashes the corpus dump and `.dist` file that
`sydlm preprocess` writes for a fixed PTB-style text (function tags, -NONE-
elements, punctuation, numbers, the empty-label root and a multi-word leaf).
Two source trees that print the same lines trained bitwise the same
trajectories and wrote the same reports and corpora.

    python tools/trajectory_digest.py              # this checkout's src/
    python tools/trajectory_digest.py --src DIR    # another checkout's src/

The eval and preprocess lines work in a temporary directory that is removed
afterwards; nothing else is written to disk.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

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


def digest(sydlm, corpus, model_fields: dict) -> tuple:
    from sydlm.training import train

    model_cfg = sydlm.ModelConfig(vocab_size=len(corpus.vocab), embedding_size=8, hidden_size=12,
                                  **model_fields)
    cfg = sydlm.TrainConfig(model=model_cfg, epochs=2, batch_size=4, bptt_length=10,
                            averaging=True, average_from_epoch=1,
                            tree_source="none" if model_cfg.supervision_mode == "none" else "gold")
    log, best = train(sydlm.build_model(model_cfg, seed=cfg.seed), corpus, cfg)
    log_text = json.dumps([{k: v for k, v in entry.items() if k != "seconds"} for entry in log],
                          sort_keys=True)
    params = hashlib.sha256()
    for name in sorted(best):
        params.update(name.encode() + b"\0" + best[name].astype("<f8").tobytes())
    return hashlib.sha256(log_text.encode()).hexdigest()[:16], params.hexdigest()[:16]


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


def eval_digest(sydlm, trees: list) -> tuple:
    """Hashes of metrics.json, heights.csv and eval's stdout after the CLI's
    preprocess, train and eval."""
    with scratch_dir():
        Path("train.mrg").write_text("".join(sydlm.render_bracketed(t) + "\n" for t in trees))
        run_cli("preprocess", "train.mrg", "--out", "corpus.json")
        run_cli("train", "--corpus", "corpus.json", "--out", "run",
                *[arg for kv in EVAL_SETTINGS for arg in ("--set", kv)])
        printed = run_cli("eval", "--checkpoint", "run/checkpoint.bin", "--corpus", "corpus.json",
                          "--out", "metrics.json", "--wsj10-maxlen", "10",
                          "--plot-csv", "heights.csv", "--render", "0,1,2")
        blobs = [Path("metrics.json").read_bytes(), Path("heights.csv").read_bytes(),
                 printed.encode()]
    return tuple(hashlib.sha256(blob).hexdigest()[:16] for blob in blobs)


def preprocess_digest() -> tuple:
    """Hashes of the corpus dump and .dist file that preprocess writes for
    PTB_TEXT."""
    with scratch_dir():
        Path("ptb.mrg").write_text(PTB_TEXT)
        run_cli("preprocess", "ptb.mrg", "--out", "corpus.json")
        blobs = [Path("corpus.json").read_bytes(), Path("corpus.json.dist").read_bytes()]
    return tuple(hashlib.sha256(blob).hexdigest()[:16] for blob in blobs)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--src", default=str(Path(__file__).resolve().parents[1] / "src"),
                        help="directory holding the sydlm package (default: this checkout's src/)")
    args = parser.parse_args()
    sys.path.insert(0, args.src)
    import sydlm

    trees = treebank(sydlm, 40, seed=7)
    corpus = sydlm.preprocess_corpus(trees, sydlm.PreprocessRules())
    for name, fields in CONFIGS:
        log_hash, param_hash = digest(sydlm, corpus, fields)
        print("%-30s log %s  params %s" % (name, log_hash, param_hash))
    print("%-30s metrics %s  heights %s  printed %s" % ("eval", *eval_digest(sydlm, trees)))
    print("%-30s corpus %s  dist %s" % ("preprocess", *preprocess_digest()))


if __name__ == "__main__":
    main()
