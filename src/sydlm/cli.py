"""Batch front door: preprocess treebanks, train models, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
Every output artifact embeds a manifest (command line, seed, input
fingerprint, toolkit version, config snapshot); equal manifests produce
byte-identical metric files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

from . import __version__
from . import autodiff as ad
from .atomic import atomic_open
from .config import ConfigError, TrainConfig, apply_setting, read_settings
from .corpus import Corpus, PreprocessRules, preprocess_corpus
from .evaluation import (
    perplexity,
    pick_stream,
    render_parallel,
    report_to_json,
    resolve_layer,
    sentence_distances,
    structure_report,
    trees_from_distances,
)
from .models import build_model
from .training import train
from .trees import TreebankError, parse_bracketed

EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_NUMERIC = 0, 1, 2, 3


class _UsageExit(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        print("usage error: %s" % message, file=sys.stderr)
        raise _UsageExit(message)


def _fingerprint(paths: list) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


def _vocab_sha256(corpus: Corpus) -> str:
    """Checkpoint header key ``vocab_sha256``: the vocabulary's word list,
    hashed, so that eval can tell a same-sized vocabulary from the one the
    model was trained on."""
    return hashlib.sha256(json.dumps(corpus.vocab.words).encode("utf-8")).hexdigest()


def _manifest(argv: list, seed: int, input_paths: list, config: dict) -> dict:
    return {
        "command_line": "sydlm " + " ".join(argv),
        "seed": seed,
        "corpus_fingerprint": _fingerprint(input_paths),
        "toolkit_version": __version__,
        "config": config,
    }


# ---------------------------------------------------------------------------
# preprocess
# ---------------------------------------------------------------------------

def _load_rules(path: str | None, mode: str | None) -> PreprocessRules:
    """The rules file's rules (the defaults without one); an explicit
    ``--mode`` wins over the file's mode."""
    rules = PreprocessRules()
    if path is not None:
        read_settings(path, lambda key, value: apply_setting(rules, key, value))
        try:
            rules = dataclasses.replace(rules)  # __post_init__ checks the rules read
        except ValueError as exc:
            raise ConfigError("%s: %s" % (path, exc)) from None
    return rules if mode is None else dataclasses.replace(rules, mode=mode)


def cmd_preprocess(args, argv) -> int:
    rules = _load_rules(args.rules, args.mode)
    trees = []
    for path in args.inputs:
        try:
            trees.extend(parse_bracketed(Path(path).read_text(encoding="utf-8")))
        except (OSError, TreebankError, UnicodeDecodeError) as exc:
            raise TreebankError("%s: %s" % (path, exc)) from None
    vocab = Corpus.load(args.vocab_from).vocab if args.vocab_from else None
    corpus = preprocess_corpus(trees, rules, vocab)
    corpus.manifest = _manifest(argv, 0, list(args.inputs), {
        "rules": dict(dataclasses.asdict(rules), drop_tags=sorted(rules.drop_tags))})
    corpus.save(args.out)
    dist_path = args.out + ".dist"
    with atomic_open(dist_path) as fh:
        for i in range(corpus.n_sentences):
            d = corpus.gold_distances(i)
            fields = ["0"] if d is None else [str(d.size + 1)] + [repr(float(v)) for v in d]
            fh.write(" ".join(fields) + "\n")
    print("wrote %s (+ %s): %d tokens, %d sentences, vocab %d (%s mode)"
          % (args.out, dist_path, len(corpus.tokens), corpus.n_sentences,
             len(corpus.vocab), corpus.mode))
    return EXIT_OK


# ---------------------------------------------------------------------------
# train
# ---------------------------------------------------------------------------

def _build_model(cfg: TrainConfig):
    """The configured model; one too large to allocate is a data error."""
    try:
        return build_model(cfg.model, cfg.seed)
    except MemoryError as exc:
        raise ConfigError("model too large to allocate: %s" % exc) from None


def cmd_train(args, argv) -> int:
    corpus = Corpus.load(args.corpus)
    valid = Corpus.load(args.valid) if args.valid else None
    cfg = TrainConfig()
    if args.config:
        read_settings(args.config, lambda key, value: apply_setting(cfg, key, value))
    for kv in args.set or []:
        if "=" not in kv:
            raise ConfigError("--set expects key=value, got %r" % kv)
        key, value = kv.split("=", 1)
        apply_setting(cfg, key.strip(), value)
    cfg.model.vocab_size = len(corpus.vocab)
    cfg.validate()

    model = _build_model(cfg)
    log, best = train(model, corpus, cfg, valid)

    outdir = Path(args.out)
    outdir.mkdir(parents=True, exist_ok=True)
    manifest = _manifest(argv, cfg.seed, [args.corpus] + ([args.valid] if args.valid else []),
                         cfg.to_dict())
    with atomic_open(outdir / "log.jsonl") as fh:
        for entry in log:
            fh.write(json.dumps(entry, sort_keys=True, allow_nan=False) + "\n")
    ad.save_checkpoint(str(outdir / "checkpoint.bin"), best,
                       header={"manifest": manifest, "config": cfg.to_dict(),
                               "vocab_sha256": _vocab_sha256(corpus)})
    last = log[-1]
    best = last["best_epoch"]
    if last["averaged"]:
        saved = ("the averaged iterate of the last %d epochs, valid ppl %.3f"
                 % (last["averaged"], last["averaged_valid_ppl"]))
    elif best:
        saved = "epoch %d, valid ppl %.3f" % (best, log[best - 1]["valid_ppl"])
    else:
        saved = "the initial parameters"
    print("trained %d epochs: lm %.4f; %s holds %s"
          % (last["epoch"], last["lm_loss"], outdir / "checkpoint.bin", saved))
    return EXIT_OK


# ---------------------------------------------------------------------------
# eval
# ---------------------------------------------------------------------------

# output biases of the distance heads, deleted as inert; a checkpoint
# written before that still holds them, and eval ignores them
RETIRED_PARAMS = frozenset({"enc.b_lm2", "enc.b_syd2", "b_v2"})


def _load_model(checkpoint: str):
    """The checkpoint's model, config and header: its config must be one
    that train accepts, and its records exactly the configured model's
    parameters, apart from RETIRED_PARAMS.  Every error names the
    checkpoint."""
    header, arrays = ad.load_checkpoint(checkpoint)
    try:
        if not isinstance(header, dict) or not isinstance(header.get("config"), dict):
            raise ConfigError("checkpoint header has no config object")
        cfg = TrainConfig.from_dict(header["config"])
        cfg.validate()
        model = _build_model(cfg)
        for name, tensor in model.params.items():
            if name not in arrays:
                raise ConfigError("checkpoint is missing parameter %r" % name)
            if arrays[name].shape != tensor.data.shape:
                raise ConfigError("checkpoint parameter %r has shape %s, expected %s"
                                  % (name, arrays[name].shape, tensor.data.shape))
            tensor.data = arrays[name].copy()
        for name in arrays:
            if name not in model.params and name not in RETIRED_PARAMS:
                raise ConfigError("checkpoint holds parameter %r, which the model does not have" % name)
    except ValueError as exc:
        raise ConfigError("%s: %s" % (checkpoint, exc)) from None
    return model, cfg, header


def cmd_eval(args, argv) -> int:
    model, cfg, header = _load_model(args.checkpoint)
    resolve_layer(cfg.model, args.layer)  # a bad --layer or --trees fails before any work
    if args.trees == "syd" and cfg.model.supervision_mode == "none":
        raise ConfigError("--trees syd: the model has no supervised distance stream "
                          "(supervision_mode none); use --trees lm")
    corpus = Corpus.load(args.corpus)
    if cfg.model.vocab_size != len(corpus.vocab):
        raise ConfigError("vocab mismatch: model %d vs corpus %d"
                          % (cfg.model.vocab_size, len(corpus.vocab)))
    if "vocab_sha256" in header and header["vocab_sha256"] != _vocab_sha256(corpus):
        raise ConfigError("vocab mismatch: %s has as many words as the model's vocabulary, "
                          "but not the same words" % args.corpus)
    try:
        render = [int(tok) for tok in (args.render or "").split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("--render expects comma-separated integers, got %r" % args.render) from None
    for i in render:
        if not 0 <= i < corpus.n_sentences:
            raise ConfigError("--render index %d out of range" % i)
    have_gold = any(t is not None for t in corpus.gold_trees_nary)
    for option, value in (("--wsj10-maxlen", args.wsj10_maxlen), ("--plot-csv", args.plot_csv)):
        if value and not have_gold:
            raise ConfigError("%s needs gold trees, and %s has none" % (option, args.corpus))

    metrics = {
        "manifest": _manifest(argv, cfg.seed, [args.corpus, args.checkpoint], cfg.to_dict()),
        "options": {"trees": args.trees, "algo": args.algo, "layer": args.layer,
                    "wsj10_maxlen": args.wsj10_maxlen},
        "perplexity": perplexity(model, corpus, batch_size=args.batch_size,
                                 bptt_length=args.bptt),
    }

    # one forward pass per sentence batch gives every stream's trees
    streams = {}
    if have_gold or render:
        dists = sentence_distances(model, corpus, layer=args.layer)
        streams = {name: trees_from_distances(corpus, d, args.algo) for name, d in dists.items()}
    report = None
    if have_gold:
        pred = pick_stream(streams, args.trees)
        report = structure_report(pred, corpus.gold_trees_nary)
        if args.wsj10_maxlen:
            short_gold = [gold if e - s <= args.wsj10_maxlen else None
                          for gold, (s, e) in zip(corpus.gold_trees_nary, corpus.sentence_spans)]
            metrics["structure_short"] = dict(structure_report(pred, short_gold),
                                              max_len=args.wsj10_maxlen)
    metrics["structure"] = report

    text = report_to_json(metrics)
    if args.out:
        with atomic_open(args.out) as fh:
            fh.write(text)
        print("wrote %s" % args.out)
    else:
        sys.stdout.write(text)

    if args.plot_csv:
        with atomic_open(args.plot_csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(("height", "accuracy", "count"))
            writer.writerows((h, cell["accuracy"], cell["total"])
                             for h, cell in report["height_accuracy"].items())
        print("wrote %s" % args.plot_csv)

    if render:
        rendered = [(name, streams[name]) for name in ("syd", "lm") if name in streams]
        rendered.append(("gold", corpus.gold_trees_nary))
        for i in render:
            rows = [(name, trees[i]) for name, trees in rendered if trees[i] is not None]
            print(render_parallel(corpus.sentence_words(i), rows))
            print()
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1, got %d" % value)
    return value


def build_parser() -> _Parser:
    parser = _Parser(prog="sydlm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="treebank files -> corpus dump")
    p.add_argument("inputs", nargs="+", help="bracketed treebank files")
    p.add_argument("--out", required=True, help="corpus dump path")
    p.add_argument("--mode", choices=["concat", "sepsent"],
                   help="sentence layout (wins over the rules file; default concat)")
    p.add_argument("--rules", help="key = value rules file")
    p.add_argument("--vocab-from", help="reuse the vocab of an existing corpus dump")

    p = sub.add_parser("train", help="train a model on a corpus dump")
    p.add_argument("--corpus", required=True)
    p.add_argument("--valid", help="validation corpus dump")
    p.add_argument("--config", help="key = value config file")
    p.add_argument("--set", action="append", metavar="KEY=VALUE",
                   help="override one config key (repeatable; wins over --config)")
    p.add_argument("--out", required=True, help="output directory")

    p = sub.add_parser("eval", help="perplexity + structure metrics")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", help="metrics JSON path (default stdout)")
    p.add_argument("--trees", choices=["lm", "syd"], default="syd")
    p.add_argument("--algo", choices=["biased", "unbiased"], default="unbiased")
    p.add_argument("--layer", type=_positive_int, help="distance layer for --trees lm (1-based)")
    p.add_argument("--wsj10-maxlen", type=_positive_int,
                   help="also report on sentences <= K tokens")
    p.add_argument("--render", help="comma-separated sentence indices to print")
    p.add_argument("--plot-csv", help="write height-accuracy CSV here")
    p.add_argument("--bptt", type=_positive_int, default=70)
    p.add_argument("--batch-size", type=_positive_int, default=1)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "preprocess":
            return cmd_preprocess(args, argv)
        if args.command == "train":
            return cmd_train(args, argv)
        return cmd_eval(args, argv)
    except _UsageExit:
        return EXIT_USAGE
    except (OSError, ValueError) as exc:
        print("data error: %s" % exc, file=sys.stderr)
        return EXIT_DATA
    except ad.NumericError as exc:
        print("numeric failure: %s" % exc, file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
