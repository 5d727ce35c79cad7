"""Shared fixtures: a small right-skewed PCFG for synthetic treebanks, the
tree views only tests read, the recursive tree walks the iterative ones
replaced, kept as references, and the arrays a tape's backward closures
hold."""

import contextlib
import random
import sys

import numpy as np
import pytest

from sydlm.corpus import PreprocessRules, preprocess_corpus
from sydlm import evaluation
from sydlm.trees import Tree, constituents, fold

# expansion rules: nonterminal -> [(probability, rhs symbols)]
RULES = {
    "S": [(1.0, ("NP", "VP"))],
    "NP": [(0.40, ("DT", "NN")),
           (0.25, ("NN",)),
           (0.20, ("DT", "JJ", "NN")),
           (0.15, ("NP", "PP"))],
    "VP": [(0.45, ("VBZ", "NP")),
           (0.20, ("VBZ", "NP", "PP")),
           (0.20, ("MD", "VB", "NP")),
           (0.15, ("VBZ",))],
    "PP": [(1.0, ("IN", "NP"))],
}

WORDS = {
    "DT": ["the", "a"],
    "NN": ["cat", "dog", "bird", "fish", "man", "woman", "tree", "car", "house", "road"],
    "JJ": ["big", "small", "red", "old"],
    "VBZ": ["sees", "likes", "finds", "eats", "wants"],
    "VB": ["see", "like", "find", "eat", "want"],
    "MD": ["can", "will", "must"],
    "IN": ["in", "on", "near", "under"],
}

# non-recursive fallbacks used once the depth cap is hit
SAFE = {"NP": ("DT", "NN"), "VP": ("VBZ",), "PP": ("IN", "NN"), "S": ("NP", "VP")}


def pcfg_tree(rng: random.Random, symbol: str = "S", depth: int = 0) -> Tree:
    if symbol in WORDS:
        return Tree(label=symbol, token=rng.choice(WORDS[symbol]))
    if depth >= 6:
        rhs = SAFE[symbol]
    else:
        roll = rng.random()
        acc = 0.0
        rhs = RULES[symbol][-1][1]
        for prob, cand in RULES[symbol]:
            acc += prob
            if roll < acc:
                rhs = cand
                break
    return Tree(label=symbol, children=[pcfg_tree(rng, s, depth + 1) for s in rhs])


def pcfg_treebank(n_sentences: int, seed: int, max_words: int = 12) -> list:
    rng = random.Random(seed)
    trees = []
    while len(trees) < n_sentences:
        tree = pcfg_tree(rng)
        if tree.n_leaves() <= max_words:
            trees.append(tree)
    return trees


def pcfg_corpus(n_sentences: int, seed: int, mode: str = "concat", vocab_max_size: int = 60):
    trees = pcfg_treebank(n_sentences, seed)
    rules = PreprocessRules(vocab_max_size=vocab_max_size, mode=mode)
    return preprocess_corpus(trees, rules)


def repeated_corpus(n_unique: int, total_tokens: int, seed: int, mode: str = "concat"):
    """A memorizable corpus: n_unique sentences cycled until total_tokens."""
    uniq = []
    rng = random.Random(seed)
    seen = set()
    while len(uniq) < n_unique:
        tree = pcfg_tree(rng)
        key = tuple(tree.tokens())
        if 4 <= len(key) <= 9 and key not in seen:
            seen.add(key)
            uniq.append(tree)
    trees = []
    count = 0
    i = 0
    while count < total_tokens:
        tree = uniq[i % n_unique]
        trees.append(tree)
        count += tree.n_leaves() + (1 if mode == "concat" else 0)
        i += 1
    rules = PreprocessRules(vocab_max_size=60, mode=mode)
    return preprocess_corpus(trees, rules)


@pytest.fixture(scope="session")
def tiny_corpus():
    return pcfg_corpus(24, seed=11)


@pytest.fixture(scope="session")
def tiny_corpus_sepsent():
    return pcfg_corpus(24, seed=11, mode="sepsent")


# ---------------------------------------------------------------------------
# Tree views that only tests read, over `fold` and `constituents`
# ---------------------------------------------------------------------------

def iter_nodes(tree):
    """Every node in preorder: a parent, then its children's subtrees in
    order."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children))


def tree_depth(tree) -> int:
    """Maximum root-to-leaf edge count."""
    return fold(tree, lambda node, depths: max(depths) + 1 if depths else 0)


def tree_shape(tree):
    """Nested-tuple skeleton, ignoring labels and tokens."""
    return fold(tree, lambda node, shapes: tuple(shapes) if shapes else 0)


def spans_of(tree, include_root: bool = False) -> set:
    """(start, end) half-open spans of internal nodes, single-word spans
    dropped; the whole-sentence span only with include_root."""
    return evaluation._spans(constituents(tree), include_root)


def labeled_spans(tree) -> list:
    """(label, start, end) for internal nodes of width >= 2, root included."""
    return [(node.label, s, e) for node, s, e, _height in constituents(tree) if e - s >= 2]


def accuracy_by_height(pred_trees, gold_trees) -> dict:
    """height -> (correct, total) over predicted internal nodes, the
    whole-sentence node excluded; a node is correct when its span is a gold
    constituent."""
    return evaluation._accuracy_by_height(evaluation._rows(pred_trees), evaluation._rows(gold_trees))


# ---------------------------------------------------------------------------
# Recursive references: one Python frame (or two) per tree level, so a caller
# comparing deep trees raises the recursion limit around them
# ---------------------------------------------------------------------------

@contextlib.contextmanager
def recursion_limit(limit: int):
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(max(old, limit))
    try:
        yield
    finally:
        sys.setrecursionlimit(old)


def rebuild_recursive(tree, drop, label=None, token=None):
    def copy(old):
        if drop(old):
            return None
        name = old.label if label is None else label(old.label)
        if not old.children:
            return Tree(label=name, token=old.token if token is None else token(old.token or ""))
        children = []
        for child in old.children:
            kept = copy(child)
            if kept is not None:
                children.append(kept)
        return Tree(label=name, children=children) if children else None

    return copy(tree)


def heights_recursive(tree):
    """{id(node): height} for every node: 1 at a leaf, one more than the
    highest child above."""
    heights = {}

    def walk(n):
        height = 0
        for ch in n.children:
            height = max(height, walk(ch))
        heights[id(n)] = height + 1
        return height + 1

    walk(tree)
    return heights


def binarize_right_recursive(tree):
    if tree.is_leaf:
        return Tree(tree.label, token=tree.token)
    if len(tree.children) == 1:
        inner = binarize_right_recursive(tree.children[0])
        inner.label = tree.label
        return inner
    children = [binarize_right_recursive(ch) for ch in tree.children]
    while len(children) > 2:
        rest = Tree(tree.label + "'", children[-2:])
        children = children[:-2] + [rest]
    return Tree(tree.label, children)


def render_bracketed_recursive(tree):
    if tree.is_leaf:
        return "(%s %s)" % (tree.label, tree.token)
    return "(%s %s)" % (tree.label, " ".join(render_bracketed_recursive(c) for c in tree.children))


def tree_to_distances_recursive(tree):
    values = []
    heights = heights_recursive(tree)

    def walk(n):
        if n.is_leaf:
            return
        if len(n.children) != 2:
            raise ValueError("tree_to_distances needs a binary tree")
        walk(n.children[0])
        values.append(heights[id(n)])
        walk(n.children[1])

    walk(tree)
    return np.array(values, dtype=np.float64)


def random_binary_tree_recursive(n_leaves, rng_seed):
    rng = random.Random(rng_seed)

    def build(lo, hi):
        if hi - lo == 1:
            return Tree("X", token="w%d" % lo)
        split = rng.randint(lo + 1, hi - 1)
        return Tree("X", [build(lo, split), build(split, hi)])

    return build(0, n_leaves)


def bwd_arrays(tape) -> list:
    """(kind, array) for each distinct array the tape's ``bwd`` closures
    hold, found through their cells and the tuples and lists in them, in
    tape order.  The kind is the first part of the ``bwd``'s qualname.
    Under the engine's rule these are all the arrays the tape keeps."""
    seen, found = set(), []
    for node in tape.nodes:
        kind = node.bwd.__qualname__.split(".", 1)[0]
        stack = [cell.cell_contents for cell in node.bwd.__closure__ or ()]
        while stack:
            v = stack.pop()
            if type(v) is np.ndarray:
                if id(v) not in seen:
                    seen.add(id(v))
                    found.append((kind, v))
            elif type(v) in (tuple, list):
                stack.extend(v)
    return found


def root(a: np.ndarray) -> np.ndarray:
    """The array that owns a view's memory."""
    while isinstance(a.base, np.ndarray):
        a = a.base
    return a
