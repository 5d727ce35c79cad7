"""Constituency trees: bracketed-notation parsing, cleaning, binarization.

A node is either a leaf (has a ``token``, no children) or an internal node
(has >= 1 children, no token).  The parser tokenizes with one regular
expression, and ``rebuild`` is the one tree copy: it drops nodes and maps
labels and tokens, for the parser's cleaning and for leaf pruning alike.
Binary trees are built with ``leaf`` and ``node``, which set heights as they
go: leaves have height 1 and every parent has height max(children) + 1.
``binarize_right`` turns any tree into such a strictly binary one.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional


class TreebankError(ValueError):
    """Malformed bracketed input."""


@dataclass
class Tree:
    label: str
    children: list["Tree"] = field(default_factory=list)
    token: Optional[str] = None
    # Set by leaf and node as binary trees are built, by fill_heights on
    # parsed ones; ignored by equality.
    height: Optional[int] = field(default=None, compare=False)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> list["Tree"]:
        acc: list[Tree] = []
        stack = [self]
        while stack:
            node = stack.pop()
            if node.children:
                stack.extend(reversed(node.children))
            else:
                acc.append(node)
        return acc

    def tokens(self) -> list[str]:
        return [leaf.token or "" for leaf in self.leaves()]

    def n_leaves(self) -> int:
        return len(self.leaves())

    def iter_nodes(self) -> Iterator["Tree"]:
        """Every node in preorder: a parent, then its children's subtrees in
        order."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))

    def depth(self) -> int:
        """Maximum root-to-leaf edge count."""
        deepest = 0
        stack = [(self, 0)]
        while stack:
            node, d = stack.pop()
            if node.children:
                stack.extend((ch, d + 1) for ch in node.children)
            elif d > deepest:
                deepest = d
        return deepest

    def shape(self):
        """Nested-tuple skeleton, ignoring labels and tokens."""
        if self.is_leaf:
            return 0
        return tuple(ch.shape() for ch in self.children)

    def __repr__(self) -> str:
        return "Tree(%s)" % render_bracketed(self)


def leaf(label: str, token: str) -> Tree:
    return Tree(label=label, token=token, height=1)


def node(label: str, children: list[Tree]) -> Tree:
    """An internal node over children with heights; its own height is
    max(children) + 1."""
    return Tree(label=label, children=children, height=max(ch.height for ch in children) + 1)


def constituents(tree: Tree) -> list[tuple[Tree, int, int]]:
    """(node, start, end) for every node, leaves included, where [start, end)
    are the leaf positions the node covers; children come before their
    parent, so the root is last."""
    out = []
    starts: list[int] = []  # the start of every finished subtree not yet claimed by its parent
    end = 0  # leaves seen so far: the end of the subtree just finished
    for node in _postorder(tree):
        k = len(node.children)
        if k:
            start = starts[-k]
            del starts[-k:]
        else:
            start = end
            end += 1
        starts.append(start)
        out.append((node, start, end))
    return out


def _postorder(tree: Tree) -> list[Tree]:
    """Every node, children's subtrees in order before their parent: the
    reverse of a preorder that visits children right to left.  Iterative,
    so a tree of any depth is walked."""
    order = []
    stack = [tree]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(node.children)
    order.reverse()
    return order


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


# an open bracket with the label right after it, a close bracket, or a word
_TOKEN = re.compile(r"\(([^\s()]*)|\)|[^\s()]+")


def parse_bracketed(text: str, clean: bool = True) -> list[Tree]:
    """Parse one or more bracketed trees ``(LABEL child ...)``.

    With ``clean`` (the default), -NONE- empty elements are removed, label
    suffixes after the first "-" or "=" are stripped, and nodes left without
    children by the removal are dropped recursively.  Raises TreebankError
    with the character offset of the offending bracket on unbalanced input,
    an empty node, or a word followed by a child bracket under one label.
    """
    trees: list[Tree] = []
    stack: list[Tree] = []
    for match in _TOKEN.finditer(text):
        label, word = match.group(1, 0)
        if label is not None:
            if stack and stack[-1].token is not None:
                raise TreebankError("word %r before a child bracket at offset %d"
                                    % (stack[-1].token, match.start()))
            stack.append(Tree(label=label))
        elif word == ")":
            if not stack:
                raise TreebankError("unbalanced ')' at offset %d" % match.start())
            closed = stack.pop()
            if not closed.children and closed.token is None:
                raise TreebankError("empty node '(%s)' at offset %d" % (closed.label, match.start()))
            if stack:
                stack[-1].children.append(closed)
            else:
                trees.append(closed)
        elif not stack:
            raise TreebankError("token %r outside brackets at offset %d" % (word, match.start()))
        else:
            parent = stack[-1]
            if parent.children or parent.token is not None:
                # multiple words under one label: treat extras as sibling leaves
                if parent.token is not None:
                    parent.children.append(Tree(label=parent.label, token=parent.token))
                    parent.token = None
                parent.children.append(Tree(label=parent.label, token=word))
            else:
                parent.token = word
    if stack:
        raise TreebankError("unbalanced '(' at offset %d (unclosed '%s')" % (len(text), stack[-1].label))
    if not clean:
        return trees
    cleaned = (rebuild(tree, lambda n: n.label == "-NONE-", _clean_label) for tree in trees)
    return [tree for tree in cleaned if tree is not None]


def render_bracketed(tree: Tree) -> str:
    """Serialize a tree; inverse of parse_bracketed on cleaned trees."""
    if tree.is_leaf:
        return "(%s %s)" % (tree.label, tree.token)
    return "(%s %s)" % (tree.label, " ".join(render_bracketed(c) for c in tree.children))


# ---------------------------------------------------------------------------
# Cleaning and binarization
# ---------------------------------------------------------------------------

def rebuild(tree: Tree, drop: Callable[[Tree], bool],
            label: Optional[Callable[[str], str]] = None,
            token: Optional[Callable[[str], str]] = None) -> Optional[Tree]:
    """Copy ``tree`` without the nodes where ``drop(node)`` holds, mapping
    every label through ``label`` and every leaf token through ``token``
    (unchanged when None).

    A dropped node takes its subtree with it, and an internal node left
    without children is dropped too; unary chains are kept.  Returns None
    when nothing is left.
    """
    def copy(old: Tree) -> Optional[Tree]:
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


def prune_leaves(tree: Tree, drop: Callable[[str, str], bool]) -> Optional[Tree]:
    """Remove leaves where drop(tag, token) holds, and the nodes they empty."""
    return rebuild(tree, lambda n: n.is_leaf and drop(n.label, n.token or ""))


def fill_heights(tree: Tree) -> int:
    """Set heights bottom-up on a tree built without them (a parsed one):
    leaf 1, parent max(children) + 1."""
    for node in _postorder(tree):
        node.height = max((ch.height for ch in node.children), default=0) + 1
    return tree.height


def binarize_right(tree: Tree) -> Tree:
    """Right-branching binarization with sentinel nodes, heights set.

    k > 2 children nest rightward: (X a b c) -> (X a (X' b c)).  Unary
    internal nodes collapse into their child, keeping the higher label.
    """
    if tree.is_leaf:
        return leaf(tree.label, tree.token)
    if len(tree.children) == 1:
        inner = binarize_right(tree.children[0])
        inner.label = tree.label
        return inner
    children = [binarize_right(ch) for ch in tree.children]
    while len(children) > 2:
        rest = node(tree.label + "'", children[-2:])
        children = children[:-2] + [rest]
    # nest rightward: (c1, (c2, (c3, ...)))
    return node(tree.label, children)


def random_binary_tree(n_leaves: int, rng_seed: int) -> Tree:
    """Uniform-split random binary tree (split point uniform per span) over
    the words w0 ... w{n-1}."""
    if n_leaves < 1:
        raise ValueError("random_binary_tree needs n_leaves >= 1")
    rng = random.Random(rng_seed)

    def build(lo: int, hi: int) -> Tree:
        if hi - lo == 1:
            return leaf("X", "w%d" % lo)
        split = rng.randint(lo + 1, hi - 1)
        return node("X", [build(lo, split), build(split, hi)])

    return build(0, n_leaves)


def right_chain(tokens: list[str]) -> Tree:
    """Right-branching chain baseline: (a (b (c d)))."""
    if not tokens:
        raise ValueError("right_chain needs at least one token")
    tree = leaf("X", tokens[-1])
    for tok in reversed(tokens[:-1]):
        tree = node("X", [leaf("X", tok), tree])
    return tree


def left_chain(tokens: list[str]) -> Tree:
    """Left-branching chain baseline: (((a b) c) d)."""
    if not tokens:
        raise ValueError("left_chain needs at least one token")
    tree = leaf("X", tokens[0])
    for tok in tokens[1:]:
        tree = node("X", [tree, leaf("X", tok)])
    return tree


def enumerate_binary_shapes(n_leaves: int) -> list[Tree]:
    """All binary tree shapes over n_leaves leaves (Catalan(n-1) of them);
    shapes share their subtrees."""

    def build(lo: int, hi: int) -> list[Tree]:
        if hi - lo == 1:
            return [leaf("X", "w%d" % lo)]
        shapes = []
        for split in range(lo + 1, hi):
            for lt in build(lo, split):
                for rt in build(split, hi):
                    shapes.append(node("X", [lt, rt]))
        return shapes

    return build(0, n_leaves)
