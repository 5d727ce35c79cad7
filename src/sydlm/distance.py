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

from .trees import Tree, leaf, node


def tree_to_distances(tree: Tree) -> np.ndarray:
    """The N-1 slot distances (float64) of a binarized N-leaf tree with
    heights: slot t gets the height of the internal node whose subtrees
    meet between leaves t and t+1."""
    values: list[int] = []

    def walk(node: Tree) -> None:
        # in order: every slot of the left subtree, this node's, the right's
        if node.is_leaf:
            return
        if len(node.children) != 2:
            raise ValueError("tree_to_distances needs a binary tree")
        if node.height is None:
            raise ValueError("tree_to_distances needs heights (run binarize_right)")
        walk(node.children[0])
        values.append(node.height)
        walk(node.children[1])

    walk(tree)
    return np.array(values, dtype=np.float64)


def distances_to_tree_unbiased(d, leaves: list[str]) -> Tree:
    """Top-down recovery: split each span at its maximal distance slot,
    recurse on both sides.  Ties take the rightmost maximal slot, so flat
    distances lean left rather than silently right-branching; heights are
    those of the recovered tree, not the distances."""
    values = np.asarray(d, dtype=np.float64)
    if len(values) != len(leaves) - 1:
        raise ValueError("need %d distances for %d leaves, got %d" % (len(leaves) - 1, len(leaves), len(values)))

    def build(lo: int, hi: int) -> Tree:
        if hi - lo == 1:
            return leaf("X", leaves[lo])
        # slot t sits between leaves t and t+1; rightmost argmax
        span = values[lo : hi - 1]
        slot = lo + (span.size - 1 - int(np.argmax(span[::-1])))
        return node("X", [build(lo, slot + 1), build(slot + 1, hi)])

    return build(0, len(leaves))


def distances_to_tree_biased(d, leaves: list[str]) -> Tree:
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
            return leaf("X", leaves[lo])
        pivot = lo + int(np.argmax(word_d[lo:hi]))
        right = node("X", [leaf("X", leaves[pivot]), build(pivot + 1, hi)]) \
            if pivot + 1 < hi else leaf("X", leaves[pivot])
        if pivot == lo:
            return right
        return node("X", [build(lo, pivot), right])

    return build(0, len(leaves))


def validate_heights(tree: Tree) -> bool:
    """True iff heights satisfy the ultrametric contract: leaves are 1 and
    every parent equals max(children) + 1 (hence strictly dominates both)."""
    for node in tree.iter_nodes():
        heights = [ch.height for ch in node.children]
        if node.height is None or None in heights or node.height != max(heights, default=0) + 1:
            return False
    return True
