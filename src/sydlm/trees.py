"""Constituency trees: bracketed-notation parsing, cleaning, binarization.

A node is either a leaf (has a ``token``, no children) or an internal node
(has >= 1 children, no token).  The parser tokenizes with one regular
expression and cleans each node as it closes.  No tree walk recurses:
``rebuild`` (the one tree copy) and ``binarize_right`` are each one
``fold``, a bottom-up pass over an iterative postorder, and
``write_bracketed`` appends a tree's text to one list.  A node's height is
not stored: ``constituents`` derives it, 1 at a leaf and max(children) + 1
above.
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass, field
from typing import Callable, Optional


class TreebankError(ValueError):
    """Malformed bracketed input."""


@dataclass
class Tree:
    label: str
    children: list["Tree"] = field(default_factory=list)
    token: Optional[str] = None

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

    def __repr__(self) -> str:
        return "Tree(%s)" % render_bracketed(self)


def constituents(tree: Tree) -> list[tuple[Tree, int, int, int]]:
    """(node, start, end, height) for every node, leaves included, where
    [start, end) are the leaf positions the node covers and the height is 1
    at a leaf and max(children) + 1 above; children come before their
    parent, so the root is last."""
    out = []
    starts: list[int] = []  # the start of every finished subtree not yet claimed by its parent
    heights: list[int] = []  # and its height
    end = 0  # leaves seen so far: the end of the subtree just finished
    for node in _postorder(tree):
        k = len(node.children)
        if k:
            start = starts[-k]
            height = max(heights[-k:]) + 1
            del starts[-k:], heights[-k:]
        else:
            start = end
            end += 1
            height = 1
        starts.append(start)
        heights.append(height)
        out.append((node, start, end, height))
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


def fold(tree: Tree, combine: Callable[[Tree, list], object]):
    """``combine(node, results of its children)`` for every node, children
    first, and the root's result.  The results wait on a stack until their
    parent takes them, as the starts do in ``constituents``."""
    results: list = []
    for node in _postorder(tree):
        cut = len(results) - len(node.children)
        results[cut:] = [combine(node, results[cut:])]
    return results[0]


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
    children by the removal are dropped, each node as it closes.  Raises
    TreebankError with the character offset of the offending bracket on
    unbalanced input, an empty node, or a word followed by a child bracket
    under one label; the checks see the text as written, so cleaning changes
    no error.
    """
    trees: list[Tree] = []
    stack: list[Tree] = []  # open nodes; a child cleaning dropped stays as None until its parent closes
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
            if clean:  # drop -NONE- and the nodes it empties; strip the label's suffix
                kept = [ch for ch in closed.children if ch is not None]
                if closed.label == "-NONE-" or closed.children and not kept:
                    closed = None
                else:
                    closed.children, closed.label = kept, _clean_label(closed.label)
            if stack:
                stack[-1].children.append(closed)
            elif closed is not None:
                trees.append(closed)
        elif not stack:
            raise TreebankError("token %r outside brackets at offset %d" % (word, match.start()))
        else:
            parent = stack[-1]
            if parent.children or parent.token is not None:
                # multiple words under one label: treat extras as sibling leaves
                name = _clean_label(parent.label) if clean else parent.label
                if parent.token is not None:
                    parent.children.append(Tree(label=name, token=parent.token))
                    parent.token = None
                parent.children.append(Tree(label=name, token=word))
            else:
                parent.token = word
    if stack:
        raise TreebankError("unbalanced '(' at offset %d (unclosed '%s')" % (len(text), stack[-1].label))
    return trees


def write_bracketed(tree: Tree, opening: Callable[[Tree], str], leaf_text: Callable[[Tree], str]) -> str:
    """A bracketing of ``tree``: each internal node as ``opening(node)``,
    then its children separated by spaces, then ")"; each leaf as
    ``leaf_text(leaf)``.  The pieces go to one list, joined once, so the
    time is linear in the text at any depth."""
    pieces = []
    stack: list = [tree]  # nodes still to write, and the spaces and ")" between them
    while stack:
        item = stack.pop()
        if type(item) is str:
            pieces.append(item)
        elif item.children:
            pieces.append(opening(item))
            stack.append(")")
            for child in reversed(item.children):
                stack += (child, " ")
            stack.pop()  # no space before the first child
        else:
            pieces.append(leaf_text(item))
    return "".join(pieces)


def render_bracketed(tree: Tree) -> str:
    """Serialize a tree; inverse of parse_bracketed on cleaned trees."""
    return write_bracketed(tree, lambda node: "(%s " % node.label,
                           lambda leaf: "(%s %s)" % (leaf.label, leaf.token))


# ---------------------------------------------------------------------------
# Cleaning and binarization
# ---------------------------------------------------------------------------

def rebuild(tree: Tree, drop: Callable[[Tree], bool],
            token: Optional[Callable[[str], str]] = None) -> Optional[Tree]:
    """Copy ``tree`` without the nodes where ``drop(node)`` holds, mapping
    every leaf token through ``token`` (unchanged when None).

    A dropped node takes its subtree with it, and an internal node left
    without children is dropped too; unary chains are kept.  Returns None
    when nothing is left.
    """
    def copy(old: Tree, children: list) -> Optional[Tree]:
        if drop(old):
            return None
        if not old.children:
            return Tree(label=old.label, token=old.token if token is None else token(old.token or ""))
        kept = [child for child in children if child is not None]
        return Tree(label=old.label, children=kept) if kept else None

    return fold(tree, copy)


def binarize_right(tree: Tree) -> Tree:
    """Right-branching binarization with sentinel nodes.

    k > 2 children nest rightward: (X a b c) -> (X a (X' b c)).  Unary
    internal nodes collapse into their child, keeping the higher label.
    """
    def binarize(old: Tree, children: list) -> Tree:
        if not children:
            return Tree(old.label, token=old.token)
        if len(children) == 1:
            children[0].label = old.label
            return children[0]
        while len(children) > 2:
            children[-2:] = [Tree(old.label + "'", children[-2:])]
        return Tree(old.label, children)

    return fold(tree, binarize)


def random_binary_tree(n_leaves: int, rng_seed: int) -> Tree:
    """Uniform-split random binary tree (split point uniform per span) over
    the words w0 ... w{n-1}."""
    if n_leaves < 1:
        raise ValueError("random_binary_tree needs n_leaves >= 1")
    rng = random.Random(rng_seed)
    # split points are drawn in preorder, left span first; nodes are then
    # built in reverse preorder, each taking its two subtrees off a stack
    preorder = []
    spans = [(0, n_leaves)]
    while spans:
        lo, hi = spans.pop()
        split = rng.randint(lo + 1, hi - 1) if hi - lo > 1 else None
        preorder.append((lo, split))
        if split is not None:
            spans += [(split, hi), (lo, split)]
    built: list[Tree] = []
    for lo, split in reversed(preorder):
        built.append(Tree("X", token="w%d" % lo) if split is None else Tree("X", [built.pop(), built.pop()]))
    return built[0]


def right_chain(tokens: list[str]) -> Tree:
    """Right-branching chain baseline: (a (b (c d)))."""
    if not tokens:
        raise ValueError("right_chain needs at least one token")
    tree = Tree("X", token=tokens[-1])
    for tok in reversed(tokens[:-1]):
        tree = Tree("X", [Tree("X", token=tok), tree])
    return tree


def left_chain(tokens: list[str]) -> Tree:
    """Left-branching chain baseline: (((a b) c) d)."""
    if not tokens:
        raise ValueError("left_chain needs at least one token")
    tree = Tree("X", token=tokens[0])
    for tok in tokens[1:]:
        tree = Tree("X", [tree, Tree("X", token=tok)])
    return tree


def enumerate_binary_shapes(n_leaves: int) -> list[Tree]:
    """All binary tree shapes over n_leaves leaves (Catalan(n-1) of them);
    shapes share their subtrees.  It recurses n_leaves deep, which the
    Catalan count keeps far below the recursion limit."""

    def build(lo: int, hi: int) -> list[Tree]:
        if hi - lo == 1:
            return [Tree("X", token="w%d" % lo)]
        shapes = []
        for split in range(lo + 1, hi):
            for lt in build(lo, split):
                for rt in build(split, hi):
                    shapes.append(Tree("X", [lt, rt]))
        return shapes

    return build(0, n_leaves)
