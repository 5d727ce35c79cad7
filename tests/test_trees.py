import ast
import random
import time
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import sydlm.distance
import sydlm.evaluation
import sydlm.trees
from sydlm.trees import (
    Tree,
    TreebankError,
    _clean_label,
    binarize_right,
    constituents,
    enumerate_binary_shapes,
    fold,
    left_chain,
    parse_bracketed,
    random_binary_tree,
    rebuild,
    render_bracketed,
    right_chain,
)
from sydlm.distance import (
    distances_to_tree_biased,
    distances_to_tree_unbiased,
    tree_to_distances,
)
from sydlm.evaluation import bracket_words

from conftest import (
    binarize_right_recursive,
    heights_recursive,
    iter_nodes,
    pcfg_treebank,
    random_binary_tree_recursive,
    rebuild_recursive,
    recursion_limit,
    render_bracketed_recursive,
    tree_depth,
    tree_shape,
    tree_to_distances_recursive,
)


class TestParseBracketed:
    def test_basic_tree(self):
        trees = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")
        assert len(trees) == 1
        tree = trees[0]
        assert tree.label == "S"
        assert tree.tokens() == ["the", "cat", "sat"]

    def test_function_tag_stripping(self):
        tree = parse_bracketed("(NP-SBJ (NN cat))")[0]
        assert tree.label == "NP"
        assert parse_bracketed("(NP=2 (NN cat))")[0].label == "NP"
        assert parse_bracketed("(NP-SBJ-1 (NN cat))")[0].label == "NP"

    def test_leading_dash_labels_kept_whole(self):
        tree = parse_bracketed("(S (-LRB- -LRB-) (NN cat))", clean=True)[0]
        assert tree.children[0].label == "-LRB-"

    def test_none_elements_removed_recursively(self):
        tree = parse_bracketed("(S (NP-SBJ (-NONE- *T*)) (VP (VB go)))")[0]
        assert tree.tokens() == ["go"]
        assert [c.label for c in tree.children] == ["VP"]

    def test_unbalanced_raises_with_offset(self):
        with pytest.raises(TreebankError, match="offset"):
            parse_bracketed("((S (NN x))")
        with pytest.raises(TreebankError, match="offset"):
            parse_bracketed("(S (NN x)))")

    def test_empty_input(self):
        assert parse_bracketed("") == []
        assert parse_bracketed("   \n ") == []

    def test_multiple_trees_and_whitespace(self):
        trees = parse_bracketed("(S (NN a))\n\n  (S (NN b))")
        assert len(trees) == 2

    def test_error_messages_keep_their_offsets(self):
        cases = [("(S (NN x)))", "unbalanced ')' at offset 10"),
                 ("  x (S (NN y))", "token 'x' outside brackets at offset 2"),
                 ("(S (NN x) (VP))", "empty node '(VP)' at offset 13"),
                 ("(S (NP (NN x)", "unbalanced '(' at offset 13 (unclosed 'NP')")]
        for text, message in cases:
            with pytest.raises(TreebankError) as err:
                parse_bracketed(text)
            assert str(err.value) == message

    @pytest.mark.parametrize("clean", [True, False])
    def test_word_before_a_child_bracket(self, clean):
        # it used to be dropped: the words read as ['b', 'c']
        with pytest.raises(TreebankError) as err:
            parse_bracketed("(S (NN a (X b)) (VB c))", clean=clean)
        assert str(err.value) == "word 'a' before a child bracket at offset 9"
        # after a child, or beside another word, a word is a sibling leaf
        assert parse_bracketed("(S (NN (X b) a) (VB c))")[0].tokens() == ["b", "a", "c"]
        assert parse_bracketed("(S (NN a b (X c)))")[0].tokens() == ["a", "b", "c"]

    def test_ptb_empty_label_wrapper(self):
        text = "( (S (NP (DT the) (NN cat)) (VP (VBZ sleeps))) )"
        for clean in (True, False):
            (root,) = parse_bracketed(text, clean=clean)
            assert root.label == "" and len(root.children) == 1
            assert root.children[0] == parse_bracketed(text[2:-2], clean=clean)[0]
        assert render_bracketed(root) == "( (S (NP (DT the) (NN cat)) (VP (VBZ sleeps))))"

    def test_words_split_where_str_isspace_says(self):
        # \x1c and the no-break space are whitespace to str.isspace, the
        # zero-width space is not
        assert "\x1c".isspace() and "\u00a0".isspace() and not "\u200b".isspace()
        tree = parse_bracketed("(NP\x1c(NN a\x1cb)\u00a0(NN c\u00a0d) (NN e\u200bf))")[0]
        assert tree.tokens() == ["a", "b", "c", "d", "e\u200bf"]
        assert [len(c.children) for c in tree.children] == [2, 2, 0]  # "(NN a b)" holds two leaves

    @pytest.mark.parametrize("clean", [True, False])
    def test_errors_name_the_text_as_written(self, clean):
        # cleaning happens as each node closes, after the checks: the raw
        # label and a word beside a -NONE- child are still reported
        cases = [("(S (NP-SBJ))", "empty node '(NP-SBJ)' at offset 10"),
                 ("(S (NP-SBJ a (-NONE- *)))", "word 'a' before a child bracket at offset 13"),
                 ("(S (-NONE- *) (VP=2))", "empty node '(VP=2)' at offset 19")]
        for text, message in cases:
            with pytest.raises(TreebankError) as err:
                parse_bracketed(text, clean=clean)
            assert str(err.value) == message

    def test_nodes_emptied_by_cleaning_are_dropped(self):
        assert parse_bracketed("(S (NP (-NONE- *)))") == []
        assert render_bracketed(parse_bracketed("(S (NP (-NONE- *)))", clean=False)[0]) == "(S (NP (-NONE- *)))"
        cases = [("(S (NP (-NONE- *)) (VP-1 (VB go)))", "(S (VP (VB go)))"),
                 # words after a dropped child are still sibling leaves, with the cleaned label
                 ("(NP-SBJ (-NONE- *) a b)", "(NP (NP a) (NP b))"),
                 ("(S (-NONE- a b) (NN c) (X (-NONE- d) (-NONE- e)))", "(S (NN c))")]
        for text, rendered in cases:
            assert [render_bracketed(t) for t in parse_bracketed(text)] == [rendered]

    def test_cleaning_as_nodes_close_matches_cleaning_afterwards(self):
        # the reference parses without cleaning, then drops -NONE- subtrees
        # and strips labels in a second, recursive pass
        def reference(text):
            trees = parse_bracketed(text, clean=False)
            kept = (rebuild_recursive(t, lambda n: n.label == "-NONE-", _clean_label) for t in trees)
            return [render_bracketed_recursive(t) for t in kept if t is not None]

        rng = random.Random(5)
        labels = ["S", "NP-SBJ", "NP=2", "VP-TMP-1", "-NONE-", "-NONE-", "-LRB-", "", "X"]

        def text_of(depth):
            if depth > 4 or rng.random() < 0.3:
                words = " ".join(rng.choice(["a", "*T*-1", "0", "b"]) for _ in range(rng.randint(1, 2)))
                return "(%s %s)" % (rng.choice(labels), words)
            parts = [text_of(depth + 1) for _ in range(rng.randint(1, 3))]
            if rng.random() < 0.15:
                parts.insert(rng.randrange(len(parts) + 1), rng.choice(["w", "v"]))
            return "(%s %s)" % (rng.choice(labels), " ".join(parts))

        for _ in range(3000):
            text = " ".join(text_of(0) for _ in range(rng.randint(1, 2)))
            if rng.random() < 0.2:  # damage: a bracket removed or a "()" added
                pos = rng.randrange(len(text))
                text = text[:pos] + text[pos + 1:] if text[pos] in "()" else text[:pos] + "()" + text[pos:]
            try:
                expected = reference(text)
            except TreebankError as exc:
                with pytest.raises(TreebankError) as err:
                    parse_bracketed(text)
                assert str(err.value) == str(exc)
            else:
                assert [render_bracketed(t) for t in parse_bracketed(text)] == expected, text

    def test_round_trip_on_cleaned_trees(self):
        for tree in pcfg_treebank(30, seed=3):
            text = render_bracketed(tree)
            again = parse_bracketed(text)[0]
            assert again == tree


class TestPruneLeaves:
    def test_identity_when_never_drops(self):
        tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")[0]
        assert rebuild(tree, lambda n: False) == tree

    def test_drops_punctuation_subtrees(self):
        tree = parse_bracketed("(S (NP (NN cat)) (. .))")[0]
        pruned = rebuild(tree, lambda n: n.is_leaf and n.label == ".")
        assert render_bracketed(pruned) == "(S (NP (NN cat)))"

    def test_all_dropped_returns_none(self):
        tree = parse_bracketed("(S (. .))")[0]
        assert rebuild(tree, lambda n: n.is_leaf and n.label == ".") is None

    def test_unary_chains_preserved(self):
        tree = parse_bracketed("(S (NP (NP (NN cat))) (, ,))")[0]
        pruned = rebuild(tree, lambda n: n.is_leaf and n.label == ",")
        assert render_bracketed(pruned) == "(S (NP (NP (NN cat))))"

    def test_leaf_order_preserved_through_prune_and_binarize(self):
        for tree in pcfg_treebank(30, seed=5):
            words = tree.tokens()
            pruned = rebuild(tree, lambda n: n.is_leaf and n.token.startswith("t"))  # drops 'the', 'tree'
            expected = [w for w in words if not w.startswith("t")]
            if pruned is None:
                assert expected == []
                continue
            assert pruned.tokens() == expected
            assert binarize_right(pruned).tokens() == expected


class TestRebuild:
    TREE = "(S (NP (DT The) (NN cat)) (VP (VBZ sleeps) (PP (IN on) (NN mats))) (. .))"

    def test_drops_an_internal_node_with_its_subtree(self):
        tree = parse_bracketed(self.TREE)[0]
        kept = rebuild(tree, lambda n: n.label == "PP")
        assert render_bracketed(kept) == "(S (NP (DT The) (NN cat)) (VP (VBZ sleeps)) (. .))"
        assert tree == parse_bracketed(self.TREE)[0]  # the input is left as it was

    def test_maps_labels_and_tokens(self):
        tree = parse_bracketed(self.TREE)[0]
        kept = rebuild(tree, lambda n: n.label == "." and n.is_leaf, str.upper)
        assert render_bracketed(kept) == "(S (NP (DT THE) (NN CAT)) (VP (VBZ SLEEPS) (PP (IN ON) (NN MATS))))"

    def test_nodes_emptied_by_drops_go_too(self):
        tree = parse_bracketed(self.TREE)[0]
        kept = rebuild(tree, lambda n: n.is_leaf and n.token in ("on", "mats", "sleeps"))
        assert render_bracketed(kept) == "(S (NP (DT The) (NN cat)) (. .))"

    def test_nothing_left_is_none(self):
        tree = parse_bracketed(self.TREE)[0]
        assert rebuild(tree, lambda n: n.is_leaf) is None
        assert rebuild(tree, lambda n: n.label == "S") is None


class TestBinarizeRight:
    def test_ternary_nests_rightward_with_sentinel(self):
        tree = Tree("X", children=[Tree("A", token="a"), Tree("B", token="b"), Tree("C", token="c")])
        binary = binarize_right(tree)
        assert render_bracketed(binary) == "(X (A a) (X' (B b) (C c)))"
        assert [(n.label, h) for n, _, _, h in constituents(binary)] == \
            [("A", 1), ("B", 1), ("C", 1), ("X'", 2), ("X", 3)]

    def test_four_children(self):
        tree = Tree("X", children=[Tree("W", token=t) for t in "abcd"])
        binary = binarize_right(tree)
        assert render_bracketed(binary) == "(X (W a) (X' (W b) (X' (W c) (W d))))"

    def test_already_binary_keeps_shape(self):
        tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat) (RB down)))")[0]
        binary = binarize_right(tree)
        assert tree_shape(binary) == tree_shape(tree)
        assert constituents(binary)[-1][3] == 3

    def test_single_leaf(self):
        tree = parse_bracketed("(NN cat)")[0]
        binary = binarize_right(tree)
        assert binary.is_leaf and constituents(binary) == [(binary, 0, 1, 1)]

    def test_unary_collapse_keeps_top_label(self):
        tree = parse_bracketed("(S (NP (NN cat)) (VP (VBD sat)))")[0]
        binary = binarize_right(tree)
        assert [c.label for c in binary.children] == ["NP", "VP"]
        assert binary.children[0].is_leaf  # (NP cat) after collapse

    def test_height_invariant_on_random_trees(self):
        for tree in pcfg_treebank(40, seed=7):
            binary = binarize_right(tree)
            assert row_heights(binary) == heights_recursive(binary)


class TestRandomBinaryTree:
    def test_degenerate_sizes(self):
        assert random_binary_tree(1, 0).is_leaf
        two = random_binary_tree(2, 1)
        assert two.n_leaves() == 2 and len(two.children) == 2
        with pytest.raises(ValueError):
            random_binary_tree(0, 0)

    def test_deterministic_for_fixed_seed(self):
        a = random_binary_tree(9, 42)
        b = random_binary_tree(9, 42)
        assert tree_shape(a) == tree_shape(b)
        assert tree_shape(a) != tree_shape(random_binary_tree(9, 43)) or True  # different seed may differ

    @pytest.mark.parametrize("base_seed", [0, 10_000])
    def test_four_leaf_shape_distribution(self, base_seed):
        # brute-force simulation oracle: uniform-split recursion is not
        # Catalan-uniform, but all 5 shapes should land within [0.1, 0.35]
        counts = Counter(tree_shape(random_binary_tree(4, base_seed + i)) for i in range(10_000))
        assert len(counts) == 5
        for shape, count in counts.items():
            assert 0.1 <= count / 10_000 <= 0.35, (shape, count)

    def test_heights_follow_shape(self):
        for i in range(20):
            tree = random_binary_tree(1 + i % 9, i)
            assert row_heights(tree) == heights_recursive(tree)


class TestChains:
    def test_right_chain_shape(self):
        tree = right_chain(list("abcd"))
        assert render_bracketed(tree) == "(X (X a) (X (X b) (X (X c) (X d))))"
        assert tree_depth(tree) == 3

    def test_left_chain_shape(self):
        tree = left_chain(list("abcd"))
        assert render_bracketed(tree) == "(X (X (X (X a) (X b)) (X c)) (X d))"

    def test_enumerate_binary_shapes_catalan(self):
        for n, catalan in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14), (6, 42)]:
            shapes = enumerate_binary_shapes(n)
            assert len(shapes) == catalan
            assert len({tree_shape(t) for t in shapes}) == catalan


# The recursive walks the iterative ones replaced, kept as their reference.
def constituents_recursive(tree):
    out = []

    def walk(n, start):
        end = start + 1 if n.is_leaf else start
        for ch in n.children:
            end = walk(ch, end)
        out.append((n, start, end))
        return end

    walk(tree, 0)
    return out


def iter_nodes_recursive(tree):
    yield tree
    for ch in tree.children:
        yield from iter_nodes_recursive(ch)


def depth_recursive(tree):
    return 0 if tree.is_leaf else 1 + max(depth_recursive(ch) for ch in tree.children)


def bracket_words_recursive(tree):
    if tree.is_leaf:
        return tree.token or ""
    return "(%s)" % " ".join(bracket_words_recursive(ch) for ch in tree.children)


# The bracket writers as folds, kept as their reference: each step copies its
# children's strings, so a chain costs time quadratic in its depth.
def render_bracketed_fold(tree):
    return fold(tree, lambda node, parts: "(%s %s)" % (node.label, " ".join(parts) if parts else node.token))


def bracket_words_fold(tree):
    return fold(tree, lambda node, parts: "(%s)" % " ".join(parts) if parts else node.token or "")


def row_heights(tree):
    """{id(node): height} as ``constituents`` derives them."""
    return {id(n): h for n, _s, _e, h in constituents(tree)}


class TestIterativeWalks:
    """The walks the structure report and --render reach are iterative: the
    same outputs in the same order as the recursive ones, at any depth."""

    TREES = (enumerate_binary_shapes(6) + [random_binary_tree(n, s) for n in range(1, 40) for s in range(3)]
             + parse_bracketed("(S (NP (DT a) (NN b c)) (VP (V d)) (. .))", clean=False))

    def test_same_outputs_in_the_same_order(self):
        for tree in self.TREES:
            assert [(id(n), s, e) for n, s, e, _h in constituents(tree)] == \
                [(id(n), s, e) for n, s, e in constituents_recursive(tree)]
            assert row_heights(tree) == heights_recursive(tree)
            assert [id(n) for n in iter_nodes(tree)] == [id(n) for n in iter_nodes_recursive(tree)]
            assert tree_depth(tree) == depth_recursive(tree)
            assert bracket_words(tree) == bracket_words_recursive(tree) == bracket_words_fold(tree)
            assert render_bracketed(tree) == render_bracketed_recursive(tree) == render_bracketed_fold(tree)

    @pytest.mark.parametrize("chain", [left_chain, right_chain])
    def test_two_thousand_leaf_chains(self, chain):
        words = ["w%d" % i for i in range(2000)]
        tree = chain(words)
        nodes = constituents(tree)
        assert len(nodes) == 3999 and nodes[-1] == (tree, 0, 2000, 2000)
        assert sum(1 for _ in iter_nodes(tree)) == 3999
        assert tree_depth(tree) == 1999
        with recursion_limit(10_000):
            assert row_heights(tree) == heights_recursive(tree)
        text = bracket_words(tree)
        assert text.count("(") == 1999 and text.replace("(", "").replace(")", "").split() == words

    def test_a_hundred_thousand_word_chain_is_written_in_linear_time(self):
        # the fold versions take tens of seconds here: every level copies
        # the text below it
        words = ["w%d" % i for i in range(100_000)]
        tree = right_chain(words)
        began = time.perf_counter()
        rendered, bracketed = render_bracketed(tree), bracket_words(tree)
        assert time.perf_counter() - began < 5.0
        inner = words[1:-1]
        assert rendered == "(X (X w0) " + "".join("(X (X %s) " % w for w in inner) + "(X w99999)" + ")" * 99_999
        assert bracketed == "(w0 " + "".join("(%s " % w for w in inner) + "w99999" + ")" * 99_999


def deep_tree(rng, depth):
    """A random n-ary tree ``depth`` levels deep: a spine whose nodes also
    hold up to three small subtrees, in random places."""
    tags, words = [".", ",", "NN", "DT", "CD"], ["The", "cat", "3.5", ",", "sat"]

    def small():
        if rng.random() < 0.6:
            return Tree(label=rng.choice(tags), token=rng.choice(words))
        return Tree(label=rng.choice(["NP", "PP"]), children=[small() for _ in range(rng.randint(1, 3))])

    tree = small()
    for _ in range(depth):
        children = [small() for _ in range(rng.randint(0, 3))]
        children.insert(rng.randint(0, len(children)), tree)
        tree = Tree(label=rng.choice(["S", "NP", "VP", "PP"]), children=children)
    return tree


def signature(tree):
    """Every node's label, token, height and leaf span, children first: equal
    for two trees exactly when they are equal, and taken without recursion
    (``==`` on deep trees recurses inside CPython)."""
    return [(n.label, n.token, h, s, e) for n, s, e, h in constituents(tree)]


class TestWalksMatchRecursiveReferences:
    """The folds and stacks give what the recursive walks gave, up to depth 300."""

    TREES = [deep_tree(random.Random(seed), depth)
             for seed, depth in enumerate([0, 1, 2, 3, 5, 8, 13, 40, 100, 200, 300, 300])]

    def test_rebuild(self):
        rules = [(lambda n: False, None),
                 (lambda n: n.is_leaf and n.label in (".", ","), str.upper),
                 (lambda n: n.label == "PP", None),
                 (lambda n: n.is_leaf, None)]
        for tree in self.TREES:
            for drop, token in rules:
                kept = rebuild(tree, drop, token)
                with recursion_limit(10_000):
                    ref = rebuild_recursive(tree, drop, token=token)
                    expected = None if ref is None else render_bracketed_recursive(ref)
                assert (None if kept is None else render_bracketed(kept)) == expected

    def test_render_and_binarize_right_and_tree_to_distances(self):
        for tree in self.TREES:
            binary = binarize_right(tree)
            with recursion_limit(10_000):
                text = render_bracketed_recursive(tree)
                ref = binarize_right_recursive(tree)
                ref_text, ref_distances = render_bracketed_recursive(ref), tree_to_distances_recursive(ref)
            assert render_bracketed(tree) == text == render_bracketed_fold(tree)
            assert bracket_words(tree) == bracket_words_fold(tree)
            assert render_bracketed(binary) == ref_text and signature(binary) == signature(ref)
            assert np.array_equal(tree_to_distances(binary), ref_distances)

    def test_constituents_heights(self):
        for tree in self.TREES:
            for t in (tree, binarize_right(tree)):
                with recursion_limit(10_000):
                    expected = heights_recursive(t)
                assert row_heights(t) == expected

    def test_tree_to_distances_rejects_what_the_recursive_walk_rejects(self):
        unary = Tree("S", [Tree("A", [Tree("B", token="b")]), Tree("C", token="c")])
        ternary = Tree("S", [Tree("A", token="a"), Tree("B", token="b"), Tree("C", token="c")])
        for tree in (unary, ternary):
            with pytest.raises(ValueError, match="binary tree"):
                tree_to_distances_recursive(tree)
            with pytest.raises(ValueError, match="binary tree"):
                tree_to_distances(tree)

    def test_parsed_binary_trees_get_their_distances(self):
        texts = ["(S (A a) (B (C c) (D d)))"] + [render_bracketed(random_binary_tree(n, n)) for n in range(1, 40)]
        for text in texts:
            (tree,) = parse_bracketed(text, clean=False)
            expected = tree_to_distances(binarize_right(tree))
            assert np.array_equal(tree_to_distances(tree), expected)
            assert np.array_equal(tree_to_distances_recursive(tree), expected)

    def test_random_binary_tree(self):
        cases = [(n, seed) for n in range(1, 40) for seed in range(25)] + [(300, seed) for seed in range(10)]
        for n, seed in cases:
            assert signature(random_binary_tree(n, seed)) == signature(random_binary_tree_recursive(n, seed))


class TestFiveThousandDeep:
    """Every tree function on a flat 5000-word sentence, a 5000-deep
    right-nested tree and a 5000-deep unary chain."""

    N = 5000
    INPUTS = {  # text, words, depth as parsed
        "flat": ("(S %s)" % " ".join("(NN w%d)" % i for i in range(N)), N, 1),
        "nested": ("(S (NN w) " * N + "(NN x)" + ")" * N, N + 1, N),
        "unary": ("(S " * N + "(NN x)" + ")" * N, 1, N),
    }

    @pytest.mark.parametrize("name", INPUTS)
    def test_every_walk(self, name):
        text, n, depth = self.INPUTS[name]
        for clean in (True, False):
            (tree,) = parse_bracketed(text, clean=clean)
            assert render_bracketed(tree) == text == render_bracketed_fold(tree)
            assert repr(tree) == "Tree(%s)" % text
            assert tree.n_leaves() == n and len(tree.tokens()) == n and tree_depth(tree) == depth
            assert isinstance(tree_shape(tree), tuple)
            assert sum(1 for _ in iter_nodes(tree)) == len(constituents(tree))
            assert render_bracketed(rebuild(tree, lambda node: False, str.upper)) == text.upper()
            assert rebuild(tree, lambda node: node.is_leaf) is None
            binary = binarize_right(tree)
            with recursion_limit(20_000):
                expected, binary_expected = heights_recursive(tree), heights_recursive(binary)
            assert row_heights(tree) == expected and constituents(tree)[-1][3] == depth + 1
            assert row_heights(binary) == binary_expected and len(constituents(binary)) == 2 * n - 1
            distances = tree_to_distances(binary)  # a right-branching chain
            assert np.array_equal(distances, np.arange(n, 1, -1.0))
            words = binary.tokens()
            unbiased = distances_to_tree_unbiased(distances, words)
            assert bracket_words(unbiased) == bracket_words(binary) == bracket_words_fold(binary)
            assert distances_to_tree_biased(distances, words).n_leaves() == n


def self_calls(source):
    """(qualified name, line) of every call in ``source`` that a function
    makes to its own name, as a plain call or as a method of anything."""
    found = []
    todo = [(ast.parse(source), "")]
    while todo:
        parent, prefix = todo.pop()
        for child in ast.iter_child_nodes(parent):
            if isinstance(child, ast.FunctionDef):
                for call in ast.walk(child):
                    func = getattr(call, "func", None)
                    if getattr(func, "id", getattr(func, "attr", None)) == child.name:
                        found.append((prefix + child.name, call.lineno))
                todo.append((child, prefix + child.name + "."))
            else:
                todo.append((child, prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix))
    return sorted(found)


class TestNoRecursion:
    # enumerate_binary_shapes returns Catalan(n - 1) trees, so the n it can
    # serve stays far below any recursion limit
    EXEMPT = {"enumerate_binary_shapes.build"}

    def test_the_check_sees_calls_and_methods(self):
        source = "def f(n):\n    return f(n - 1)\n\nclass T:\n    def shape(self):\n        return [c.shape() for c in self.c]\n"
        assert self_calls(source) == [("T.shape", 6), ("f", 2)]

    @pytest.mark.parametrize("module", [sydlm.trees, sydlm.distance, sydlm.evaluation],
                             ids=["trees", "distance", "evaluation"])
    def test_no_tree_code_calls_itself(self, module):
        calls = [(name, line) for name, line in self_calls(Path(module.__file__).read_text())
                 if name not in self.EXEMPT]
        assert calls == []
