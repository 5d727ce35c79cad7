"""Constituency trees: bracketed-notation parsing, cleaning, binarization.

A node is either a leaf (has a ``token``, no children) or an internal node
(has >= 1 children, no token).  ``binarize_right`` turns any tree into a
strictly binary one whose internal nodes carry heights: leaves have height 1
and every parent has height max(children) + 1.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


class TreebankError(ValueError):
    """Malformed bracketed input."""


@dataclass
class Tree:
    label: str
    children: list["Tree"] = field(default_factory=list)
    token: Optional[str] = None
    # Filled by binarize_right / fill_heights; ignored by equality.
    height: Optional[int] = field(default=None, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["Tree"]:
        acc: list[Tree] = []

        def walk(node: "Tree") -> None:
            if node.is_leaf:
                acc.append(node)
            else:
                for ch in node.children:
                    walk(ch)

        walk(self)
        return acc

    def tokens(self) -> list[str]:
        return [leaf.token or "" for leaf in self.leaves()]

    def n_leaves(self) -> int:
        return len(self.leaves())

    def iter_nodes(self) -> Iterator["Tree"]:
        yield self
        for ch in self.children:
            yield from ch.iter_nodes()

    def depth(self) -> int:
        """Maximum root-to-leaf edge count."""
        if self.is_leaf:
            return 0
        return 1 + max(ch.depth() for ch in self.children)

    def shape(self):
        """Nested-tuple skeleton, ignoring labels and tokens."""
        if self.is_leaf:
            return 0
        return tuple(ch.shape() for ch in self.children)

    def __repr__(self) -> str:
        return "Tree(%s)" % render_bracketed(self)


def leaf(label: str, token: str) -> Tree:
    return Tree(label=label, token=token, height=1)


def constituents(tree: Tree) -> list[tuple[Tree, int, int]]:
    """(node, start, end) for every node, leaves included, where [start, end)
    are the leaf positions the node covers; children come before their
    parent, so the root is last."""
    out = []

    def walk(node: Tree, start: int) -> int:
        end = start + 1 if node.is_leaf else start
        for ch in node.children:
            end = walk(ch, end)
        out.append((node, start, end))
        return end

    walk(tree, 0)
    return out


# ---------------------------------------------------------------------------
# Bracketed notation
# ---------------------------------------------------------------------------

def _clean_label(label: str) -> str:
    # Function tags and gap indices ("NP-SBJ-1", "NP=2") are suffixes; labels
    # that start with "-" (-NONE-, -LRB-, ...) are atomic and kept whole.
    if label.startswith("-"):
        return label
    for sep in "-=":
        pos = label.find(sep)
        if pos > 0:
            label = label[:pos]
    return label


def parse_bracketed(text: str, clean: bool = True) -> list[Tree]:
    """Parse one or more bracketed trees ``(LABEL child ...)``.

    With ``clean`` (the default), -NONE- empty elements are removed, label
    suffixes after the first "-" or "=" are stripped, and nodes left without
    children by the removal are dropped recursively.  Raises TreebankError
    with the byte offset of the offending bracket on unbalanced input.
    """
    trees: list[Tree] = []
    stack: list[Tree] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
        elif c == "(":
            j = i + 1
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            node = Tree(label=text[i + 1 : j])
            stack.append(node)
            i = j
        elif c == ")":
            if not stack:
                raise TreebankError("unbalanced ')' at offset %d" % i)
            node = stack.pop()
            if not node.children and node.token is None:
                raise TreebankError("empty node '(%s)' at offset %d" % (node.label, i))
            if stack:
                stack[-1].children.append(node)
            else:
                trees.append(node)
            i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "()":
                j += 1
            word = text[i:j]
            if not stack:
                raise TreebankError("token %r outside brackets at offset %d" % (word, i))
            parent = stack[-1]
            if parent.children or parent.token is not None:
                # multiple words under one label: treat extras as sibling leaves
                if parent.token is not None:
                    parent.children.append(Tree(label=parent.label, token=parent.token))
                    parent.token = None
                parent.children.append(Tree(label=parent.label, token=word))
            else:
                parent.token = word
            i = j
    if stack:
        raise TreebankError("unbalanced '(' at offset %d (unclosed '%s')" % (n, stack[-1].label))
    if not clean:
        return trees
    cleaned = []
    for tree in trees:
        kept = _clean_tree(tree)
        if kept is not None:
            cleaned.append(kept)
    return cleaned


def _clean_tree(node: Tree) -> Optional[Tree]:
    if node.label == "-NONE-":
        return None
    if node.is_leaf:
        return Tree(label=_clean_label(node.label), token=node.token)
    children = [c for c in (_clean_tree(ch) for ch in node.children) if c is not None]
    if not children:
        return None
    return Tree(label=_clean_label(node.label), children=children)


def render_bracketed(tree: Tree) -> str:
    """Serialize a tree; inverse of parse_bracketed on cleaned trees."""
    if tree.is_leaf:
        return "(%s %s)" % (tree.label, tree.token)
    return "(%s %s)" % (tree.label, " ".join(render_bracketed(c) for c in tree.children))


# ---------------------------------------------------------------------------
# Cleaning and binarization
# ---------------------------------------------------------------------------

def prune_leaves(tree: Tree, drop: Callable[[str, str], bool]) -> Optional[Tree]:
    """Remove leaves where drop(tag, token) holds.

    Internal nodes with no remaining children are removed; unary chains are
    left as-is.  Returns None when every leaf is dropped.
    """
    if tree.is_leaf:
        if drop(tree.label, tree.token or ""):
            return None
        return Tree(label=tree.label, token=tree.token)
    children = [c for c in (prune_leaves(ch, drop) for ch in tree.children) if c is not None]
    if not children:
        return None
    return Tree(label=tree.label, children=children)


def map_leaf_tokens(tree: Tree, fn: Callable[[str], str]) -> Tree:
    if tree.is_leaf:
        return Tree(label=tree.label, token=fn(tree.token or ""))
    return Tree(label=tree.label, children=[map_leaf_tokens(c, fn) for c in tree.children])


def fill_heights(tree: Tree) -> int:
    """Set heights bottom-up: leaf 1, parent max(children) + 1."""
    if tree.is_leaf:
        tree.height = 1
    else:
        tree.height = max(fill_heights(ch) for ch in tree.children) + 1
    return tree.height


def binarize_right(tree: Tree) -> Tree:
    """Right-branching binarization with sentinel nodes, heights filled.

    k > 2 children nest rightward: (X a b c) -> (X a (X' b c)).  Unary
    internal nodes collapse into their child, keeping the higher label.
    """
    out = _binarize(tree)
    fill_heights(out)
    return out


def _binarize(node: Tree) -> Tree:
    if node.is_leaf:
        return Tree(label=node.label, token=node.token)
    if len(node.children) == 1:
        inner = _binarize(node.children[0])
        inner.label = node.label
        return inner
    children = [_binarize(ch) for ch in node.children]
    while len(children) > 2:
        rest = Tree(label=node.label + "'", children=children[-2:])
        children = children[:-2] + [rest]
    # nest rightward: (c1, (c2, (c3, ...)))
    return Tree(label=node.label, children=children)


def random_binary_tree(n_leaves: int, rng_seed: int, tokens: Optional[list[str]] = None) -> Tree:
    """Uniform-split random binary tree (split point uniform per span)."""
    if n_leaves < 1:
        raise ValueError("random_binary_tree needs n_leaves >= 1")
    rng = random.Random(rng_seed)
    if tokens is None:
        tokens = ["w%d" % i for i in range(n_leaves)]
    if len(tokens) != n_leaves:
        raise ValueError("token list length %d != n_leaves %d" % (len(tokens), n_leaves))

    def build(lo: int, hi: int) -> Tree:
        if hi - lo == 1:
            return leaf("X", tokens[lo])
        split = rng.randint(lo + 1, hi - 1)
        return Tree(label="X", children=[build(lo, split), build(split, hi)])

    tree = build(0, n_leaves)
    fill_heights(tree)
    return tree


def right_chain(tokens: list[str], label: str = "X") -> Tree:
    """Right-branching chain baseline: (a (b (c d)))."""
    if not tokens:
        raise ValueError("right_chain needs at least one token")
    node = leaf(label, tokens[-1])
    for tok in reversed(tokens[:-1]):
        node = Tree(label=label, children=[leaf(label, tok), node])
    fill_heights(node)
    return node


def left_chain(tokens: list[str], label: str = "X") -> Tree:
    """Left-branching chain baseline: (((a b) c) d)."""
    if not tokens:
        raise ValueError("left_chain needs at least one token")
    node = leaf(label, tokens[0])
    for tok in tokens[1:]:
        node = Tree(label=label, children=[node, leaf(label, tok)])
    fill_heights(node)
    return node


def enumerate_binary_shapes(n_leaves: int) -> list[Tree]:
    """All binary tree shapes over n_leaves leaves (Catalan(n-1) of them)."""
    tokens = ["w%d" % i for i in range(n_leaves)]

    def build(lo: int, hi: int) -> list[Tree]:
        if hi - lo == 1:
            return [leaf("X", tokens[lo])]
        shapes = []
        for split in range(lo + 1, hi):
            for lt in build(lo, split):
                for rt in build(split, hi):
                    shapes.append(Tree(label="X", children=[lt, rt]))
        return shapes

    out = build(0, n_leaves)
    for t in out:
        fill_heights(t)
    return out
