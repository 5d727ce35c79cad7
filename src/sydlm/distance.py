"""Tree <-> syntactic-distance conversion.

An N-token sentence has N-1 slots between consecutive words; each slot
carries a scalar distance.  Converting a binary tree to distances assigns
every internal node's height, as ``constituents`` derives it, to the slot
where its left and right subtrees meet.  Recovery splits spans top-down at
the largest distance (unbiased) or greedily attaches the pivot word to the
right span (biased, which collapses flat regions into right-branching
chains).
"""

from __future__ import annotations

import math

import numpy as np

from .trees import Tree, constituents


def tree_to_distances(tree: Tree) -> np.ndarray:
    """The N-1 slot distances (float64) of a binary N-leaf tree: slot t gets
    the height of the internal node whose subtrees meet between leaves t
    and t+1.  In postorder a parent comes right after its right child, so
    its slot is the one before that child's first leaf."""
    nodes = constituents(tree)
    values = [0] * (nodes[-1][2] - 1)
    right_start = 0  # the start of the node just passed: a parent's right child
    for node, start, _end, height in nodes:
        if node.children:
            if len(node.children) != 2:
                raise ValueError("tree_to_distances needs a binary tree")
            values[right_start - 1] = height
        right_start = start
    return np.array(values, dtype=np.float64)


def _slot_values(d, leaves: list[str]) -> np.ndarray:
    values = np.asarray(d, dtype=np.float64)
    if len(values) != len(leaves) - 1:
        raise ValueError("need %d distances for %d leaves, got %d" % (len(leaves) - 1, len(leaves), len(values)))
    if np.isnan(values).any():
        raise ValueError("distances must not be NaN")
    return values


def distances_to_tree_unbiased(d, leaves: list[str]) -> Tree:
    """Top-down recovery: split each span at its maximal distance slot, then
    both sides alike.  Ties take the rightmost maximal slot, so flat
    distances lean left rather than silently right-branching.  Built in one
    pass as the slots' Cartesian tree: the stack holds left parts with the
    distance of the slot after each, strictly falling, and a slot takes
    every left part whose slot is no higher."""
    values = _slot_values(d, leaves)
    stack: list[tuple[Tree, float]] = []
    cur = Tree("X", token=leaves[0])
    for i, v in enumerate(values.tolist()):
        while stack and stack[-1][1] <= v:
            cur = Tree("X", [stack.pop()[0], cur])
        stack.append((cur, v))
        cur = Tree("X", token=leaves[i + 1])
    while stack:
        cur = Tree("X", [stack.pop()[0], cur])
    return cur


def distances_to_tree_biased(d, leaves: list[str]) -> Tree:
    """Greedy build with a right-branching bias: the maximal-distance word
    (the leftmost of ties) becomes the left sibling of the span after it,
    and the span before it the left sibling of that pair, so flat or tied
    regions collapse into right-branching chains.

    Word i carries the distance of the slot before it; the first word gets
    -inf.  Built in one pass as the words' Cartesian tree: the stack holds
    each word whose right part is open, with its left part, and a word
    finishes every stacked word of lower distance."""
    values = _slot_values(d, leaves)

    def finish(left: Tree | None, word: int, right: Tree | None) -> Tree:
        word_leaf = Tree("X", token=leaves[word])
        pair = word_leaf if right is None else Tree("X", [word_leaf, right])
        return pair if left is None else Tree("X", [left, pair])

    stack: list[tuple[float, int, Tree | None]] = []
    for word, v in enumerate([-math.inf] + values.tolist()):
        cur = None
        while stack and stack[-1][0] < v:
            _, w, left = stack.pop()
            cur = finish(left, w, cur)
        stack.append((v, word, cur))
    cur = None
    while stack:
        _, w, left = stack.pop()
        cur = finish(left, w, cur)
    return cur

