import itertools
import math

import numpy as np
import pytest

from sydlm.distance import (
    distances_to_tree_biased,
    distances_to_tree_unbiased,
    tree_to_distances,
)
from sydlm.trees import (
    Tree,
    binarize_right,
    enumerate_binary_shapes,
    constituents,
    parse_bracketed,
    random_binary_tree,
    render_bracketed,
)


def tree_of(text):
    return binarize_right(parse_bracketed(text, clean=False)[0])


class TestTreeToDistances:
    def test_right_branching_three(self):
        d = tree_to_distances(tree_of("(X (X a) (X (X b) (X c)))"))
        assert list(d) == [3.0, 2.0]
        assert d.size + 1 == 3

    def test_left_branching_three(self):
        d = tree_to_distances(tree_of("(X (X (X a) (X b)) (X c))"))
        assert list(d) == [2.0, 3.0]

    def test_assignment_order_low_to_high(self):
        # 5-leaf tree whose non-leaf nodes get distances in the order
        # d_3 -> d_2 -> d_1 -> d_4 (1-based slots), hence d_4 > d_1 > d_2 > d_3
        tree = tree_of("(X (X (X a) (X (X b) (X (X c) (X d)))) (X e))")
        d = tree_to_distances(tree)
        d1, d2, d3, d4 = d
        assert d4 > d1 > d2 > d3
        assert list(d) == [4.0, 3.0, 2.0, 5.0]

    def test_single_leaf_empty_sequence(self):
        d = tree_to_distances(tree_of("(X a)"))
        assert d.size + 1 == 1 and d.size == 0

    def test_values_are_positive_integers(self):
        for i in range(20):
            d = tree_to_distances(random_binary_tree(2 + i % 8, i))
            assert (d > 0).all()
            assert np.array_equal(d, np.round(d))


class TestUnbiasedRecovery:
    def test_descending_split(self):
        tree = distances_to_tree_unbiased(np.array([3.0, 2.0]), list("abc"))
        assert render_bracketed(tree) == "(X (X a) (X (X b) (X c)))"

    def test_tie_breaks_left_leaning(self):
        tree = distances_to_tree_unbiased(np.array([1.0, 1.0]), list("abc"))
        assert render_bracketed(tree) == "(X (X (X a) (X b)) (X c))"

    def test_single_token(self):
        tree = distances_to_tree_unbiased(np.zeros(0), ["a"])
        assert tree.is_leaf and tree.token == "a"

    def test_round_trip_small_exhaustive(self):
        for n in range(2, 7):
            for shape in enumerate_binary_shapes(n):
                seq = tree_to_distances(shape)
                rebuilt = distances_to_tree_unbiased(seq, shape.tokens())
                assert rebuilt.shape() == shape.shape()

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        for _ in range(30):
            n = int(rng.integers(3, 10))
            vals = rng.permutation(np.arange(1.0, n))  # distinct
            words = ["w%d" % i for i in range(n)]
            base = distances_to_tree_unbiased(vals, words)
            for fn in (lambda v: 2 * v + 1, np.exp, lambda v: v**3):
                assert distances_to_tree_unbiased(fn(vals), words).shape() == base.shape()

    def test_heights_recomputed(self):
        # heights are those of the recovered tree ((a (b c)) d), not the distances
        tree = distances_to_tree_unbiased(np.array([7.5, 2.2, 9.0]), list("abcd"))
        assert list(tree_to_distances(tree)) == [3.0, 2.0, 4.0]


class TestBiasedRecovery:
    def test_uniform_collapses_right_branching(self):
        tree = distances_to_tree_biased(np.ones(3), list("abcd"))
        assert render_bracketed(tree) == "(X (X a) (X (X b) (X (X c) (X d))))"

    def test_strictly_decreasing_right_chain(self):
        tree = distances_to_tree_biased(np.array([3.0, 2.0, 1.0]), list("abcd"))
        assert render_bracketed(tree) == "(X (X a) (X (X b) (X (X c) (X d))))"

    def test_single_token(self):
        tree = distances_to_tree_biased(np.zeros(0), ["a"])
        assert tree.is_leaf

    def test_two_words_direct(self):
        tree = distances_to_tree_biased(np.array([5.0]), ["a", "b"])
        assert render_bracketed(tree) == "(X (X a) (X b))"

    def test_agrees_with_unbiased_on_distinct_right_branching(self):
        vals = np.array([9.0, 7.0, 4.0, 2.0])
        words = list("abcde")
        b = distances_to_tree_biased(vals, words)
        u = distances_to_tree_unbiased(vals, words)
        assert b.shape() == u.shape()

    def test_differs_from_unbiased_on_flat_input(self):
        words = list("abcd")
        flat = np.ones(3)
        biased = distances_to_tree_biased(flat, words)
        unbiased = distances_to_tree_unbiased(flat, words)
        assert render_bracketed(biased) == "(X (X a) (X (X b) (X (X c) (X d))))"
        assert render_bracketed(unbiased) == "(X (X (X (X a) (X b)) (X c)) (X d))"


def recursive_unbiased(values, leaves):
    """The top-down reference: split each span at its rightmost maximal slot."""
    def build(lo, hi):
        if hi - lo == 1:
            return Tree("X", token=leaves[lo])
        span = values[lo : hi - 1]
        slot = lo + (span.size - 1 - int(np.argmax(span[::-1])))
        return Tree("X", [build(lo, slot + 1), build(slot + 1, hi)])

    return build(0, len(leaves))


def recursive_biased(values, leaves):
    """The greedy reference: the leftmost maximal word pairs with the span
    after it, and the span before it takes that pair as right sibling."""
    word_d = np.concatenate([[-math.inf], values])

    def build(lo, hi):
        if hi - lo == 1:
            return Tree("X", token=leaves[lo])
        pivot = lo + int(np.argmax(word_d[lo:hi]))
        right = Tree("X", [Tree("X", token=leaves[pivot]), build(pivot + 1, hi)]) \
            if pivot + 1 < hi else Tree("X", token=leaves[pivot])
        if pivot == lo:
            return right
        return Tree("X", [build(lo, pivot), right])

    return build(0, len(leaves))


def spans(tree):
    """Every node's token, height and leaf span, children first: equal for
    two trees exactly when they are equal, and walked without recursion."""
    return [(n.label, n.token, h, s, e) for n, s, e, h in constituents(tree)]


RECOVERIES = [(distances_to_tree_unbiased, recursive_unbiased),
              (distances_to_tree_biased, recursive_biased)]


@pytest.mark.parametrize("recover, reference", RECOVERIES, ids=["unbiased", "biased"])
class TestRecoveryMatchesRecursiveReference:
    def test_every_small_vector_with_ties(self, recover, reference):
        for n in range(1, 9):
            words = ["w%d" % i for i in range(n)]
            for vals in itertools.product((0.0, 1.0, 2.0), repeat=n - 1):
                vals = np.array(vals)
                assert spans(recover(vals, words)) == spans(reference(vals, words)), vals

    def test_random_vectors_up_to_300_words(self, recover, reference):
        rng = np.random.default_rng(0)
        for n in list(range(9, 40)) + [100, 299, 300]:
            words = ["w%d" % i for i in range(n)]
            for vals in (rng.normal(size=n - 1), rng.integers(0, 4, size=n - 1).astype(float)):
                assert spans(recover(vals, words)) == spans(reference(vals, words)), n

    def test_monotone_1199_distances_do_not_recurse(self, recover, reference):
        n = 1200
        words = ["w%d" % i for i in range(n)]
        # falling distances branch right, rising ones left, under both rules
        right = recover(np.arange(n - 1, 0, -1.0), words)
        assert {(s, e) for _, s, e, _h in constituents(right)} == \
            {(i, n) for i in range(n)} | {(i, i + 1) for i in range(n)}
        left = recover(np.arange(1.0, n), words)
        assert {(s, e) for _, s, e, _h in constituents(left)} == \
            {(0, i) for i in range(1, n + 1)} | {(i, i + 1) for i in range(n)}
        assert constituents(right)[-1][3] == constituents(left)[-1][3] == n
        assert right.tokens() == left.tokens() == words

    def test_nan_is_rejected(self, recover, reference):
        with pytest.raises(ValueError, match="NaN"):
            recover(np.array([1.0, math.nan]), list("abc"))

