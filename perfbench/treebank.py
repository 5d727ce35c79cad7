"""Seeded synthetic treebank in Penn bracketed notation.

A small PCFG over Penn-style tags emits trees whose leaves come from
per-tag Zipfian lexicons, so the vocabulary a corpus reaches is set by the
lexicon sizes and the corpus length.  The trees carry what real treebank
text carries and preprocessing has to handle: punctuation leaves (dropped),
number leaves (folded to one symbol), capitalised words (lowercased),
function tags and coindexed empty elements (stripped by the reader).

Only the emitted text reaches the program under test.
"""

from __future__ import annotations

import bisect
import random

# nonterminal -> [(weight, right-hand side)]
RULES = {
    "S": [(0.60, ("NP-SBJ", "VP", ".")),
          (0.15, ("PP", ",", "NP-SBJ", "VP", ".")),
          (0.10, ("S", ",", "CC", "S")),
          (0.15, ("``", "NP-SBJ", "VP", "''", "."))],
    "NP-SBJ": [(0.55, ("NP",)), (0.25, ("PRP",)), (0.20, ("NP", "SBAR"))],
    "NP": [(0.30, ("DT", "NN")),
           (0.12, ("DT", "JJ", "NN")),
           (0.12, ("NNS",)),
           (0.10, ("NNP", "NNP")),
           (0.10, ("CD", "NNS")),
           (0.14, ("NP", "PP")),
           (0.06, ("NP", ",", "NP", ",")),
           (0.06, ("NP", "CC", "NP"))],
    "VP": [(0.30, ("VBZ", "NP")),
           (0.15, ("VBD", "NP", "PP")),
           (0.12, ("MD", "VB", "NP")),
           (0.10, ("VBD", "SBAR")),
           (0.08, ("VBZ", "ADJP")),
           (0.10, ("VBD",)),
           (0.08, ("VBZ", "TO", "VB", "NP")),
           (0.07, ("RB", "VP"))],
    "ADJP": [(0.7, ("JJ",)), (0.3, ("RB", "JJ"))],
    "PP": [(1.0, ("IN", "NP"))],
    "SBAR": [(0.6, ("IN", "S-INNER")), (0.4, ("WHNP-1", "S-GAP"))],
    "S-INNER": [(1.0, ("NP-SBJ", "VP"))],
    "S-GAP": [(1.0, ("NP-SBJ-EMPTY", "VP"))],
    "WHNP-1": [(1.0, ("WDT",))],
    "NP-SBJ-EMPTY": [(1.0, ("-NONE-",))],
}

# non-recursive expansions once the depth cap is reached
SAFE = {
    "S": ("NP-SBJ", "VP", "."), "NP-SBJ": ("PRP",), "NP": ("DT", "NN"),
    "VP": ("VBD",), "ADJP": ("JJ",), "PP": ("IN", "NN"), "SBAR": ("IN", "S-INNER"),
    "S-INNER": ("NP-SBJ", "VP"), "S-GAP": ("NP-SBJ-EMPTY", "VP"),
    "WHNP-1": ("WDT",), "NP-SBJ-EMPTY": ("-NONE-",),
}

CLOSED = {
    "DT": ["the", "a", "this", "that", "some", "every"],
    "PRP": ["it", "they", "he", "she", "we"],
    "MD": ["can", "will", "must", "may"],
    "IN": ["in", "on", "of", "near", "under", "with", "because", "if"],
    "CC": ["and", "but", "or"],
    "TO": ["to"],
    "WDT": ["that", "which"],
    ",": [","], ".": ["."], "``": ["``"], "''": ["''"],
    "-NONE-": ["*T*-1"],
}

# share of each open-class lexicon in the total lexicon size
OPEN_SHARE = {"NN": 0.30, "NNS": 0.15, "NNP": 0.15, "JJ": 0.15, "VBZ": 0.07,
              "VBD": 0.08, "VB": 0.05, "RB": 0.05}

PUNCT = {",", ".", "``", "''", "-NONE-"}
ONSETS = ["b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z",
          "br", "st", "pl", "tr"]
VOWELS = ["a", "e", "i", "o", "u", "ai", "ou"]


def _pseudo_word(index: int, tag: str) -> str:
    parts = []
    k = index
    while True:
        k, onset = divmod(k, len(ONSETS))
        k, vowel = divmod(k, len(VOWELS))
        parts.append(ONSETS[onset] + VOWELS[vowel])
        if k == 0:
            break
        k -= 1
    stem = "".join(parts)
    suffix = {"NNS": "s", "VBZ": "es", "VBD": "ed", "RB": "ly", "JJ": "ic"}.get(tag, "")
    word = stem + suffix
    return word.capitalize() if tag == "NNP" else word


class Lexicon:
    """Per-tag Zipfian word draws (weight of rank r is 1 / r**exponent)."""

    def __init__(self, size: int, exponent: float = 1.0):
        self.words = {}
        self.cum = {}
        for tag, share in OPEN_SHARE.items():
            n = max(2, int(round(size * share)))
            self.words[tag] = [_pseudo_word(i, tag) for i in range(n)]
            acc, cum = 0.0, []
            for rank in range(1, n + 1):
                acc += rank ** -exponent
                cum.append(acc)
            self.cum[tag] = cum

    def draw(self, rng: random.Random, tag: str) -> str:
        if tag == "CD":
            return _number(rng)
        if tag in CLOSED:
            return rng.choice(CLOSED[tag])
        cum = self.cum[tag]
        return self.words[tag][bisect.bisect_left(cum, rng.random() * cum[-1])]


def _number(rng: random.Random) -> str:
    kind = rng.randrange(4)
    if kind == 0:
        return str(rng.randrange(1, 100))
    if kind == 1:
        return "%d.%d" % (rng.randrange(100), rng.randrange(10))
    if kind == 2:
        return "{:,}".format(rng.randrange(1000, 1000000))
    return "%d/%d" % (rng.randrange(1, 10), rng.randrange(2, 20))


def _expand(rng, lex, symbol, depth, out):
    """Append the bracketed text of one subtree to out; return its word count
    (leaves that survive preprocessing)."""
    if symbol not in RULES:
        word = lex.draw(rng, symbol)
        out.append("(%s %s)" % (symbol, word))
        return 0 if symbol in PUNCT else 1
    if depth >= 7:
        rhs = SAFE[symbol]
    else:
        rules = RULES[symbol]
        roll = rng.random() * sum(w for w, _ in rules)
        rhs = rules[-1][1]
        for weight, cand in rules:
            roll -= weight
            if roll < 0:
                rhs = cand
                break
    out.append("(%s " % symbol.replace("-EMPTY", "").replace("-INNER", "").replace("-GAP", ""))
    words = 0
    for child in rhs:
        words += _expand(rng, lex, child, depth + 1, out)
    out.append(")")
    return words


def treebank_text(seed: str, n_words: int, lexicon_size: int, max_words: int,
                  exponent: float = 1.0, min_words: int = 2) -> str:
    """Bracketed trees, one per line, until they hold at least n_words words
    (punctuation and empty elements excluded); sentences longer than
    max_words or shorter than min_words are redrawn."""
    rng = random.Random(seed)
    lex = Lexicon(lexicon_size, exponent)
    lines, total = [], 0
    while total < n_words:
        out: list = []
        words = _expand(rng, lex, "S", 0, out)
        if min_words <= words <= max_words:
            lines.append("(ROOT " + "".join(out) + ")")
            total += words
    return "\n".join(lines) + "\n"
