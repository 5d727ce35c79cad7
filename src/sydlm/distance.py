"""Tree <-> syntactic-distance conversion.

An N-token sentence has N-1 slots between consecutive words; each slot
carries a scalar distance.  Converting a binary tree to distances assigns
every internal node's height to the slot where its left and right subtrees
meet.  Recovery splits spans top-down at the largest distance (unbiased) or
greedily attaches the pivot word to the right span (biased, which collapses
flat regions into right-branching chains).
"""

from __future__ import annotations

import math

import numpy as np

from .trees import Tree, fill_heights, leaf


def tree_to_distances(tree: Tree) -> np.ndarray:
    """The N-1 slot distances (float64) of a binarized N-leaf tree with
    heights: slot t gets the height of the internal node whose subtrees
    meet between leaves t and t+1."""
    n = tree.n_leaves()
    values = np.zeros(n - 1, dtype=np.float64)

    def walk(node: Tree, offset: int) -> int:
        # returns leaf count of the subtree rooted here
        if node.is_leaf:
            return 1
        if len(node.children) != 2:
            raise ValueError("tree_to_distances needs a binary tree")
        if node.height is None:
            raise ValueError("tree_to_distances needs heights (run binarize_right)")
        left = walk(node.children[0], offset)
        right = walk(node.children[1], offset + left)
        values[offset + left - 1] = node.height
        return left + right

    walk(tree, 0)
    return values


def distances_to_tree_unbiased(d, leaves: list[str], label: str = "X") -> Tree:
    """Top-down recovery: split each span at its maximal distance slot,
    recurse on both sides.  Ties take the rightmost maximal slot, so flat
    distances lean left rather than silently right-branching; heights are
    recomputed."""
    values = np.asarray(d, dtype=np.float64)
    if len(values) != len(leaves) - 1:
        raise ValueError("need %d distances for %d leaves, got %d" % (len(leaves) - 1, len(leaves), len(values)))

    def build(lo: int, hi: int) -> Tree:
        if hi - lo == 1:
            return leaf(label, leaves[lo])
        # slot t sits between leaves t and t+1; rightmost argmax
        span = values[lo : hi - 1]
        slot = lo + (span.size - 1 - int(np.argmax(span[::-1])))
        return Tree(label=label, children=[build(lo, slot + 1), build(slot + 1, hi)])

    tree = build(0, len(leaves))
    fill_heights(tree)
    return tree


def distances_to_tree_biased(d, leaves: list[str], label: str = "X") -> Tree:
    """Greedy build with a right-branching bias: the maximal-distance word
    becomes the left sibling of the recursively built right span, so flat or
    tied regions collapse into right-branching chains.

    Word i carries the distance of the slot before it; the first word gets
    -inf.
    """
    values = np.asarray(d, dtype=np.float64)
    if len(values) != len(leaves) - 1:
        raise ValueError("need %d distances for %d leaves, got %d" % (len(leaves) - 1, len(leaves), len(values)))
    word_d = np.concatenate([[-math.inf], values])

    def build(lo: int, hi: int) -> Tree:
        if hi - lo == 1:
            return leaf(label, leaves[lo])
        pivot = lo + int(np.argmax(word_d[lo:hi]))
        right = Tree(label=label, children=[leaf(label, leaves[pivot]), build(pivot + 1, hi)]) \
            if pivot + 1 < hi else leaf(label, leaves[pivot])
        if pivot == lo:
            return right
        return Tree(label=label, children=[build(lo, pivot), right])

    tree = build(0, len(leaves))
    fill_heights(tree)
    return tree


def validate_heights(tree: Tree) -> bool:
    """True iff heights satisfy the ultrametric contract: leaves are 1 and
    every parent equals max(children) + 1 (hence strictly dominates both)."""
    for node in tree.iter_nodes():
        if node.height is None:
            return False
        if node.is_leaf:
            if node.height != 1:
                return False
            continue
        child_heights = [ch.height for ch in node.children]
        if any(h is None for h in child_heights):
            return False
        if node.height != max(child_heights) + 1:
            return False
        if not all(node.height > h for h in child_heights):
            return False
    return True
