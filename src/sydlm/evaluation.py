"""Structure and language-model evaluation: perplexity, unlabeled span F1,
per-tag constituent accuracy, tree depth, left/right word ratio, and
accuracy bucketed by predicted-constituent height.

F1 follows the induced-tree convention: whole-sentence and single-word
spans are dropped.  Per-tag accuracy keeps whole-sentence spans on both
sides since gold roots carry tags.  The gold reference is the pruned n-ary
treebank, not its binarization.
"""

from __future__ import annotations

import json
from typing import Optional, Sequence

import numpy as np

from . import autodiff as ad
from .corpus import Corpus
from .distance import distances_to_tree_biased, distances_to_tree_unbiased
from .training import sentence_batches, validation_pass
from .trees import Tree, constituents, write_bracketed

DEFAULT_TAGS = ("ADJP", "NP", "VP", "PP")


# ---------------------------------------------------------------------------
# Perplexity
# ---------------------------------------------------------------------------

def perplexity(model, corpus: Corpus, batch_size: int = 1, bptt_length: int = 70) -> float:
    """exp(mean NLL per predicted token), dropout disabled.  Concatenated
    corpora are scored as a stream (eos predicted like any token);
    separate-sentence corpora per sentence with an eos frame."""
    return validation_pass(model, corpus, batch_size, bptt_length, "none")[0]


# ---------------------------------------------------------------------------
# Distance extraction and tree induction
# ---------------------------------------------------------------------------

def resolve_layer(config, layer: Optional[int] = None) -> int:
    """0-based index of the LM distance layer to read.  ON-LSTM emits one
    distance layer per recurrent layer, PRPN one; the default is ON-LSTM's
    supervision layer, and PRPN's only layer whatever its supervision_layer."""
    n_layers = config.n_layers if config.model == "onlstm-syd" else 1
    if layer is None:
        layer = config.supervision_layer if config.model == "onlstm-syd" else 1
    if not 1 <= layer <= n_layers:
        raise ValueError("layer %d outside the model's distance layers 1..%d" % (layer, n_layers))
    return layer - 1


def sentence_distances(
    model,
    corpus: Corpus,
    layer: Optional[int] = None,
    batch_size: int = 64,
) -> dict:
    """Per-sentence distance arrays (N-1 slots) of every stream the model
    emits, from one forward per sentence batch: {"lm": [...], "syd": [...]},
    "syd" only when the model has a supervised stream.  "lm" reads the
    given distance layer (see resolve_layer).

    Each sentence is framed as [eos] + words with fresh state, so the model
    step reading word k+1 yields the slot between words k and k+1.
    Raises NumericError naming the stream and the first sentence whose
    distances are not finite.
    """
    idx = resolve_layer(model.config, layer)
    out: dict = {}
    for group, lens, inputs in sentence_batches(corpus, batch_size):
        fwd = model.forward(inputs, None)
        streams = {"lm": fwd.d_lm[idx]}
        if fwd.d_syd is not None:
            streams["syd"] = fwd.d_syd
        for name, dist in streams.items():
            vals = dist.data.reshape(inputs.shape)
            per_sentence = out.setdefault(name, [None] * corpus.n_sentences)
            for j, (i, n) in enumerate(zip(group, lens)):
                per_sentence[i] = vals[2 : n + 1, j].copy()
    for name, per_sentence in out.items():
        for i, dist in enumerate(per_sentence):
            if not np.isfinite(dist).all():
                raise ad.NumericError("non-finite %s distances in sentence %d" % (name, i))
    return out


def pick_stream(streams: dict, stream: str):
    """The entry of a per-stream dict (as sentence_distances returns)."""
    if stream not in ("syd", "lm"):
        raise ValueError("stream must be 'syd' or 'lm'")
    if stream not in streams:
        raise ValueError("model has no supervised distance stream (supervision_mode none)")
    return streams[stream]


def trees_from_distances(corpus: Corpus, dists: list, algo: str) -> list[Tree]:
    """One tree per sentence, recovered from its slot distances."""
    if algo not in ("unbiased", "biased"):
        raise ValueError("algo must be 'unbiased' or 'biased'")
    # module-level names, looked up per call so that rebinding them takes effect
    recover = distances_to_tree_unbiased if algo == "unbiased" else distances_to_tree_biased
    return [recover(dists[i], corpus.sentence_words(i)) for i in range(corpus.n_sentences)]


def induce_trees(
    model,
    corpus: Corpus,
    stream: str = "syd",
    algo: str = "unbiased",
    layer: Optional[int] = None,
) -> list[Tree]:
    dists = pick_stream(sentence_distances(model, corpus, layer=layer), stream)
    return trees_from_distances(corpus, dists, algo)


# ---------------------------------------------------------------------------
# Span machinery
# ---------------------------------------------------------------------------

def spans_of(tree: Tree, include_root: bool = False) -> set:
    """(start, end) half-open spans of internal nodes, single-word spans
    dropped; the whole-sentence span only with include_root."""
    return _spans(constituents(tree), include_root)


def labeled_spans(tree: Tree) -> list:
    """(label, start, end) for internal nodes of width >= 2, root included."""
    return [(node.label, s, e) for node, s, e, _height in constituents(tree) if e - s >= 2]


# The metrics below read each tree's `constituents` rows; structure_report
# walks every tree once and hands the same rows to all three.

def _spans(rows: list, include_root: bool = False) -> set:
    """spans_of, from a tree's constituents rows (the root's is last)."""
    whole = rows[-1][1:3]
    return {(s, e) for _node, s, e, _height in rows if e - s >= 2 and (include_root or (s, e) != whole)}


def _f1(match: int, n_pred: int, n_gold: int) -> float:
    """F1 on a 0-100 scale of match spans shared by n_pred predicted and
    n_gold gold spans; two empty span sets score 100."""
    if n_pred == 0 and n_gold == 0:
        return 100.0
    p = match / n_pred if n_pred else 0.0
    r = match / n_gold if n_gold else 0.0
    return 200.0 * p * r / (p + r) if p + r > 0 else 0.0


def unlabeled_f1(pred_trees: Sequence[Tree], gold_trees: Sequence[Tree]):
    """(micro, macro) unlabeled span F1 on a 0-100 scale.

    Macro averages the per-sentence F1; micro pools the match/pred/gold
    counts over the corpus.  Both follow _f1's rule."""
    if len(pred_trees) != len(gold_trees):
        raise ValueError("pred and gold lists differ in length")
    return _unlabeled_f1(_rows(pred_trees), _rows(gold_trees))


def _unlabeled_f1(pred_rows: list, gold_rows: list):
    counts = []
    for i, (pred, gold) in enumerate(zip(pred_rows, gold_rows)):
        n_pred, n_gold = pred[-1][2], gold[-1][2]  # the root's end: the leaf count
        if n_pred != n_gold:
            raise ValueError("sentence %d: pred has %d leaves, gold %d" % (i, n_pred, n_gold))
        sp, sg = _spans(pred), _spans(gold)
        counts.append((len(sp & sg), len(sp), len(sg)))
    micro = _f1(*([sum(col) for col in zip(*counts)] or [0, 0, 0]))
    macro = float(np.mean([_f1(*c) for c in counts])) if counts else 100.0
    return micro, macro


def per_tag_accuracy(pred_trees, gold_nary_trees, tags: Sequence[str] = DEFAULT_TAGS) -> dict:
    """Fraction (0-100) of gold constituents of each tag whose span occurs
    in the prediction; whole-sentence spans kept on both sides."""
    return _per_tag_accuracy(_rows(pred_trees), _rows(gold_nary_trees), tags)


def _per_tag_accuracy(pred_rows: list, gold_rows: list, tags: Sequence[str]) -> dict:
    found = {t: 0 for t in tags}
    total = {t: 0 for t in tags}
    for pred, gold in zip(pred_rows, gold_rows):
        pspans = _spans(pred, include_root=True)
        for node, s, e, _height in gold:
            if e - s >= 2 and node.label in total:
                total[node.label] += 1
                if (s, e) in pspans:
                    found[node.label] += 1
    return {t: (100.0 * found[t] / total[t] if total[t] else None) for t in tags}


def depth_and_ratio(trees: Sequence[Tree]):
    """(mean max root-to-leaf depth, pooled left/right attachment ratio):
    leaf words that are non-rightmost children of their parent over those
    that are rightmost; the ratio is None when no leaf is rightmost."""
    depths = []
    left = right = 0
    for tree in trees:
        depths.append(tree.depth())
        for node in tree.iter_nodes():
            if node.is_leaf:
                continue
            last = len(node.children) - 1
            for pos, ch in enumerate(node.children):
                if ch.is_leaf:
                    if pos == last:
                        right += 1
                    else:
                        left += 1
    mean_depth = float(np.mean(depths)) if depths else 0.0
    ratio = left / right if right else None
    return mean_depth, ratio


def accuracy_by_height(pred_trees, gold_trees) -> dict:
    """height -> (correct, total) over predicted internal nodes, the
    whole-sentence node excluded; a node is correct when its span is a gold
    constituent."""
    return _accuracy_by_height(_rows(pred_trees), _rows(gold_trees))


def _accuracy_by_height(pred_rows: list, gold_rows: list) -> dict:
    buckets: dict[int, list] = {}
    for pred, gold in zip(pred_rows, gold_rows):
        gspans = _spans(gold, include_root=True)
        for node, s, e, height in pred[:-1]:  # the root's row is last
            if not node.is_leaf:
                correct, total = buckets.get(height, (0, 0))
                buckets[height] = (correct + ((s, e) in gspans), total + 1)
    return {h: tuple(v) for h, v in sorted(buckets.items())}


def _rows(trees) -> list:
    return [constituents(tree) for tree in trees]


# ---------------------------------------------------------------------------
# Reports
# ---------------------------------------------------------------------------

def structure_report(pred_trees, gold_nary_trees, tags: Sequence[str] = DEFAULT_TAGS) -> dict:
    """The structure metrics as written to metrics.json, over the sentences
    that have a gold tree (None marks one that has not).  height_accuracy
    maps each predicted-constituent height, as a string and in ascending
    order, to its {"correct", "total", "accuracy"} cell.  Each tree is
    walked by `constituents` once."""
    pairs = [(p, g) for p, g in zip(pred_trees, gold_nary_trees) if g is not None]
    preds = [p for p, _ in pairs]
    pred_rows, gold_rows = _rows(preds), _rows(g for _, g in pairs)
    micro, macro = _unlabeled_f1(pred_rows, gold_rows)
    mean_depth, ratio = depth_and_ratio(preds)
    return {
        "f1_micro": micro,
        "f1_macro": macro,
        "per_tag": _per_tag_accuracy(pred_rows, gold_rows, tags),
        "mean_depth": mean_depth,
        "left_right_ratio": ratio,
        "height_accuracy": {str(h): {"correct": c, "total": t, "accuracy": 100.0 * c / t}
                            for h, (c, t) in _accuracy_by_height(pred_rows, gold_rows).items()},
        "n_sentences": len(preds),
    }


def bracket_words(tree: Tree) -> str:
    """Label-free bracketing over tokens, for side-by-side inspection."""
    return write_bracketed(tree, lambda node: "(", lambda leaf: leaf.token or "")


def render_parallel(words: list, named_trees: list) -> str:
    """Stacked rendering of several trees over one sentence."""
    lines = ["sentence: %s" % " ".join(words)]
    for name, tree in named_trees:
        lines.append("%8s: %s" % (name, bracket_words(tree)))
    return "\n".join(lines)


def report_to_json(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"
