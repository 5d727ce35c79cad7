"""Treebank preprocessing: cleaned token streams aligned with gold trees.

The pipeline mirrors the usual LM treebank preparation: drop punctuation
leaves, lowercase, map number tokens to a placeholder, truncate the
vocabulary by frequency, and either concatenate sentences with an
end-of-sentence marker between them or keep them separate.  Gold trees are
pruned in lockstep so leaf i always lines up with token i of its sentence.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .atomic import atomic_open
from .config import ConfigError
from .distance import tree_to_distances
from .trees import Tree, TreebankError, binarize_right, parse_bracketed, rebuild, render_bracketed

UNK = "<unk>"
EOS = "<eos>"

CORPUS_MAGIC = "sydlm-corpus"
CORPUS_VERSION = 1

DEFAULT_DROP_TAGS = frozenset({".", ",", ":", "``", "''", "-LRB-", "-RRB-", "#", "$"})
DEFAULT_NUMBER_PATTERN = r"[0-9][0-9.,/:\-]*"

MODES = ("concat", "sepsent")


class Vocab:
    """Dense id<->word map; id 0 is <unk>, id 1 is <eos>."""

    def __init__(self, words: list[str]):
        if words[:2] != [UNK, EOS]:
            raise ConfigError("vocab must start with %s and %s" % (UNK, EOS))
        self.words = list(words)
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.index) != len(self.words):
            raise ConfigError("vocab contains duplicate words")

    unk_id = 0
    eos_id = 1

    def __len__(self) -> int:
        return len(self.words)

    def id(self, word: str) -> int:
        return self.index.get(word, self.unk_id)

    def word(self, idx: int) -> str:
        return self.words[idx]

    @classmethod
    def build(cls, counts: Counter, max_size: int) -> "Vocab":
        # most frequent first, ties broken lexicographically; specials always
        # kept, and counted words equal to them take none of the other slots
        ranked = sorted((kv for kv in counts.items() if kv[0] not in (UNK, EOS)),
                        key=lambda kv: (-kv[1], kv[0]))
        return cls([UNK, EOS] + [w for w, _ in ranked[:max(max_size - 2, 0)]])


@dataclass
class PreprocessRules:
    lowercase: bool = True
    drop_tags: frozenset = DEFAULT_DROP_TAGS
    number_pattern: str = DEFAULT_NUMBER_PATTERN
    number_symbol: str = "N"
    vocab_max_size: int = 10000
    mode: str = "concat"

    def __post_init__(self):
        if self.mode not in MODES:
            raise ConfigError("mode must be one of %s, got %r" % (MODES, self.mode))
        if self.vocab_max_size < 2:
            raise ConfigError("vocab_max_size must be >= 2 (<unk> and <eos>), got %d" % self.vocab_max_size)
        try:
            re.compile(self.number_pattern)
        except re.error as exc:
            raise ConfigError("number_pattern %r is not a regular expression: %s"
                              % (self.number_pattern, exc)) from None
        self.drop_tags = frozenset(self.drop_tags)

    def clean_token(self, token: str) -> str:
        if self.lowercase:
            token = token.lower()
        if self.number_pattern and re.fullmatch(self.number_pattern, token):
            token = self.number_symbol
        return token


def _list_of(ok):
    return lambda v: type(v) is list and all(ok(x) for x in v)


_IDS = _list_of(lambda x: type(x) is int)
_DUMP_FIELDS = {
    "tokens": ("a list of token ids", _IDS),
    "sentence_spans": ("a list of [start, end] pairs", _list_of(lambda se: _IDS(se) and len(se) == 2)),
    "gold_trees_nary": ("a list of bracketed trees or nulls", _list_of(lambda t: t is None or type(t) is str)),
    "vocab": ("a list of words", _list_of(lambda w: type(w) is str)),
    "mode": ("one of %s" % (MODES,), lambda v: v in MODES),
}


@dataclass
class Corpus:
    """Token-id stream with sentence spans and per-sentence gold trees.

    Spans cover sentence words only; in concat mode the single <eos> after
    each sentence sits between spans and belongs to no gold tree.  The
    pruned n-ary trees keep their labels for structure evaluation; their
    right binarizations' slot heights, derived once, supervise distances.
    """

    tokens: np.ndarray
    sentence_spans: list[tuple[int, int]]
    gold_trees_nary: list[Optional[Tree]]
    vocab: Vocab
    mode: str
    manifest: Optional[dict] = None

    def __post_init__(self):
        self.tokens = np.asarray(self.tokens, dtype=np.int64)
        self.validate()
        self._gold_distances = [None if t is None else tree_to_distances(binarize_right(t))
                                for t in self.gold_trees_nary]

    @property
    def n_sentences(self) -> int:
        return len(self.sentence_spans)

    def sentence_ids(self, i: int) -> np.ndarray:
        s, e = self.sentence_spans[i]
        return self.tokens[s:e]

    def sentence_words(self, i: int) -> list[str]:
        return [self.vocab.word(t) for t in self.sentence_ids(i)]

    def gold_distances(self, i: int) -> Optional[np.ndarray]:
        return self._gold_distances[i]

    def validate(self) -> None:
        bad = np.flatnonzero((self.tokens < 0) | (self.tokens >= len(self.vocab)))
        if bad.size:
            raise ValueError("tokens[%d] = %d is outside the vocabulary's ids [0, %d)"
                             % (bad[0], self.tokens[bad[0]], len(self.vocab)))
        if len(self.gold_trees_nary) != len(self.sentence_spans):
            raise ValueError("the gold tree list does not match the %d sentence spans" % len(self.sentence_spans))
        sep = 1 if self.mode == "concat" else 0
        pos = 0
        for i, (s, e) in enumerate(self.sentence_spans):
            if s != pos or e <= s:
                raise ValueError("sentence span %d (%d,%d) does not tile the stream" % (i, s, e))
            pos = e + sep
            tree = self.gold_trees_nary[i]
            if tree is not None and tree.n_leaves() != e - s:
                raise ValueError("gold tree %d has %d leaves for a %d-token span" % (i, tree.n_leaves(), e - s))
            if sep and e < len(self.tokens) and self.tokens[e] != Vocab.eos_id:
                raise ValueError("missing eos separator after sentence %d" % i)
        if self.sentence_spans and pos != len(self.tokens):
            raise ValueError("spans+separators cover %d of %d tokens" % (pos, len(self.tokens)))

    # -- serialization ------------------------------------------------------

    def save(self, path: str) -> None:
        payload = {
            "magic": CORPUS_MAGIC,
            "version": CORPUS_VERSION,
            "mode": self.mode,
            "vocab": list(self.vocab.words),
            "tokens": [int(t) for t in self.tokens],
            "sentence_spans": [[int(s), int(e)] for s, e in self.sentence_spans],
            "gold_trees_nary": [None if t is None else render_bracketed(t) for t in self.gold_trees_nary],
            "manifest": self.manifest,
        }
        with atomic_open(path) as fh:
            json.dump(payload, fh, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "Corpus":
        def load_tree(i: int, text: Optional[str]) -> Optional[Tree]:
            if text is None:
                return None
            where = "corpus dump field 'gold_trees_nary' entry %d" % i
            try:
                trees = parse_bracketed(text, clean=False)
            except TreebankError as exc:
                raise ConfigError("%s: %s" % (where, exc)) from None
            if len(trees) != 1:
                raise ConfigError("%s holds %d trees, not one" % (where, len(trees)))
            return trees[0]

        try:
            with open(path) as fh:
                payload = json.load(fh)
            if not isinstance(payload, dict) or payload.get("magic") != CORPUS_MAGIC:
                raise ConfigError("not a corpus dump (bad magic)")
            if payload.get("version") != CORPUS_VERSION:
                raise ConfigError("unsupported corpus version %r" % payload.get("version"))
            for key, (kind, valid) in _DUMP_FIELDS.items():
                if key not in payload:
                    raise ConfigError("corpus dump has no %r" % key)
                if not valid(payload[key]):
                    raise ConfigError("corpus dump field %r is not %s" % (key, kind))
            return cls(
                tokens=np.array(payload["tokens"], dtype=np.int64),
                sentence_spans=[tuple(se) for se in payload["sentence_spans"]],
                gold_trees_nary=[load_tree(i, t) for i, t in enumerate(payload["gold_trees_nary"])],
                vocab=Vocab(payload["vocab"]),
                mode=payload["mode"],
                manifest=payload.get("manifest"),
            )
        except (ValueError, OverflowError, RecursionError) as exc:  # every check names the dump here, once
            raise ConfigError("%s: %s" % (path, exc)) from None


def preprocess_corpus(
    trees: list[Tree],
    rules: PreprocessRules,
    vocab: Optional[Vocab] = None,
) -> Corpus:
    """Clean trees, build/apply a vocabulary, and assemble the token stream.

    Sentences whose leaves are all dropped disappear entirely.  A supplied
    vocab (e.g. valid/test reusing the training vocab) is used instead of
    building one.
    """
    drop = lambda n: n.label in rules.drop_tags and n.is_leaf
    cleaned: list[Tree] = []
    sentences: list[list[str]] = []
    for tree in trees:
        kept = rebuild(tree, drop, token=rules.clean_token)
        if kept is not None:
            cleaned.append(kept)
            sentences.append(kept.tokens())

    if vocab is None:
        counts = Counter()
        for words in sentences:
            counts.update(words)
        vocab = Vocab.build(counts, rules.vocab_max_size)

    tokens: list[int] = []
    spans: list[tuple[int, int]] = []
    for words in sentences:
        start = len(tokens)
        tokens.extend(vocab.id(w) for w in words)
        spans.append((start, len(tokens)))
        if rules.mode == "concat":
            tokens.append(Vocab.eos_id)

    return Corpus(
        tokens=np.array(tokens, dtype=np.int64),
        sentence_spans=spans,
        gold_trees_nary=cleaned,
        vocab=vocab,
        mode=rules.mode,
    )
