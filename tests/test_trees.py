from collections import Counter

import pytest

from sydlm.trees import (
    Tree,
    TreebankError,
    binarize_right,
    constituents,
    enumerate_binary_shapes,
    fill_heights,
    leaf,
    left_chain,
    node,
    parse_bracketed,
    prune_leaves,
    random_binary_tree,
    rebuild,
    render_bracketed,
    right_chain,
)
from sydlm.distance import validate_heights
from sydlm.evaluation import bracket_words

from conftest import pcfg_treebank


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

    def test_round_trip_on_cleaned_trees(self):
        for tree in pcfg_treebank(30, seed=3):
            text = render_bracketed(tree)
            again = parse_bracketed(text)[0]
            assert again == tree


class TestPruneLeaves:
    def test_identity_when_never_drops(self):
        tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat)))")[0]
        assert prune_leaves(tree, lambda tag, tok: False) == tree

    def test_drops_punctuation_subtrees(self):
        tree = parse_bracketed("(S (NP (NN cat)) (. .))")[0]
        pruned = prune_leaves(tree, lambda tag, tok: tag == ".")
        assert render_bracketed(pruned) == "(S (NP (NN cat)))"

    def test_all_dropped_returns_none(self):
        tree = parse_bracketed("(S (. .))")[0]
        assert prune_leaves(tree, lambda tag, tok: tag == ".") is None

    def test_unary_chains_preserved(self):
        tree = parse_bracketed("(S (NP (NP (NN cat))) (, ,))")[0]
        pruned = prune_leaves(tree, lambda tag, tok: tag == ",")
        assert render_bracketed(pruned) == "(S (NP (NP (NN cat))))"

    def test_leaf_order_preserved_through_prune_and_binarize(self):
        for tree in pcfg_treebank(30, seed=5):
            words = tree.tokens()
            drop = lambda tag, tok: tok.startswith("t")  # drops 'the', 'tree'
            pruned = prune_leaves(tree, drop)
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
        kept = rebuild(tree, lambda n: n.label == "." and n.is_leaf, str.lower, str.upper)
        assert render_bracketed(kept) == "(s (np (dt THE) (nn CAT)) (vp (vbz SLEEPS) (pp (in ON) (nn MATS))))"

    def test_drop_sees_the_node_before_its_label_is_mapped(self):
        tree = parse_bracketed("(S (NP (NN a)) (VP (VB b)))", clean=False)[0]
        kept = rebuild(tree, lambda n: n.label == "NP", label=lambda label: "NP")
        assert render_bracketed(kept) == "(NP (NP (NP b)))"

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
        tree = Tree("X", children=[leaf("A", "a"), leaf("B", "b"), leaf("C", "c")])
        binary = binarize_right(tree)
        assert render_bracketed(binary) == "(X (A a) (X' (B b) (C c)))"
        assert [n.height for n in binary.iter_nodes() if not n.is_leaf] == [3, 2]
        assert all(l.height == 1 for l in binary.leaves())

    def test_four_children(self):
        tree = Tree("X", children=[leaf("W", t) for t in "abcd"])
        binary = binarize_right(tree)
        assert render_bracketed(binary) == "(X (W a) (X' (W b) (X' (W c) (W d))))"

    def test_already_binary_keeps_shape(self):
        tree = parse_bracketed("(S (NP (DT the) (NN cat)) (VP (VBD sat) (RB down)))")[0]
        binary = binarize_right(tree)
        assert binary.shape() == tree.shape()
        assert binary.height == 3

    def test_single_leaf(self):
        tree = parse_bracketed("(NN cat)")[0]
        binary = binarize_right(tree)
        assert binary.is_leaf and binary.height == 1

    def test_unary_collapse_keeps_top_label(self):
        tree = parse_bracketed("(S (NP (NN cat)) (VP (VBD sat)))")[0]
        binary = binarize_right(tree)
        assert [c.label for c in binary.children] == ["NP", "VP"]
        assert binary.children[0].is_leaf  # (NP cat) after collapse

    def test_height_invariant_on_random_trees(self):
        for tree in pcfg_treebank(40, seed=7):
            assert validate_heights(binarize_right(tree))


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
        assert a.shape() == b.shape()
        assert a.shape() != random_binary_tree(9, 43).shape() or True  # different seed may differ

    @pytest.mark.parametrize("base_seed", [0, 10_000])
    def test_four_leaf_shape_distribution(self, base_seed):
        # brute-force simulation oracle: uniform-split recursion is not
        # Catalan-uniform, but all 5 shapes should land within [0.1, 0.35]
        counts = Counter(random_binary_tree(4, base_seed + i).shape() for i in range(10_000))
        assert len(counts) == 5
        for shape, count in counts.items():
            assert 0.1 <= count / 10_000 <= 0.35, (shape, count)

    def test_heights_follow_shape(self):
        for i in range(20):
            assert validate_heights(random_binary_tree(1 + i % 9, i))


class TestNode:
    def test_height_is_one_above_the_highest_child(self):
        low, high = leaf("X", "a"), node("X", [leaf("X", "b"), leaf("X", "c")])
        assert node("X", [low, high]).height == 3
        assert node("X", [high, low]).height == 3

    @pytest.mark.parametrize("build", [lambda: right_chain(list("abcde")), lambda: left_chain(list("abcde")),
                                       lambda: random_binary_tree(9, 3),
                                       lambda: binarize_right(parse_bracketed("(S (A a) (B b) (C c) (D d))")[0])])
    def test_binary_builders_set_heights(self, build):
        assert validate_heights(build())

    def test_enumerated_shapes_carry_heights(self):
        assert all(validate_heights(shape) for shape in enumerate_binary_shapes(5))


class TestChains:
    def test_right_chain_shape(self):
        tree = right_chain(list("abcd"))
        assert render_bracketed(tree) == "(X (X a) (X (X b) (X (X c) (X d))))"
        assert tree.depth() == 3

    def test_left_chain_shape(self):
        tree = left_chain(list("abcd"))
        assert render_bracketed(tree) == "(X (X (X (X a) (X b)) (X c)) (X d))"

    def test_enumerate_binary_shapes_catalan(self):
        for n, catalan in [(1, 1), (2, 1), (3, 2), (4, 5), (5, 14), (6, 42)]:
            shapes = enumerate_binary_shapes(n)
            assert len(shapes) == catalan
            assert len({t.shape() for t in shapes}) == catalan


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


def heights_recursive(tree):
    """[(node, height)] in preorder, as the recursive fill_heights set them."""
    out = []

    def walk(n):
        entry = [n, None]
        out.append(entry)
        entry[1] = max((walk(ch) for ch in n.children), default=0) + 1
        return entry[1]

    walk(tree)
    return [tuple(e) for e in out]


def bracket_words_recursive(tree):
    if tree.is_leaf:
        return tree.token or ""
    return "(%s)" % " ".join(bracket_words_recursive(ch) for ch in tree.children)


class TestIterativeWalks:
    """The walks the structure report and --render reach are iterative: the
    same outputs in the same order as the recursive ones, at any depth."""

    TREES = (enumerate_binary_shapes(6) + [random_binary_tree(n, s) for n in range(1, 40) for s in range(3)]
             + parse_bracketed("(S (NP (DT a) (NN b c)) (VP (V d)) (. .))", clean=False))

    def test_same_outputs_in_the_same_order(self):
        for tree in self.TREES:
            assert [(id(n), s, e) for n, s, e in constituents(tree)] == \
                [(id(n), s, e) for n, s, e in constituents_recursive(tree)]
            assert [id(n) for n in tree.iter_nodes()] == [id(n) for n in iter_nodes_recursive(tree)]
            assert tree.depth() == depth_recursive(tree)
            assert bracket_words(tree) == bracket_words_recursive(tree)
            expected = [(id(n), h) for n, h in heights_recursive(tree)]
            for n in tree.iter_nodes():
                n.height = None
            assert fill_heights(tree) == expected[0][1]
            assert [(id(n), n.height) for n in tree.iter_nodes()] == expected

    @pytest.mark.parametrize("chain", [left_chain, right_chain])
    def test_two_thousand_leaf_chains(self, chain):
        words = ["w%d" % i for i in range(2000)]
        tree = chain(words)
        nodes = constituents(tree)
        assert len(nodes) == 3999 and nodes[-1] == (tree, 0, 2000)
        assert sum(1 for _ in tree.iter_nodes()) == 3999
        assert tree.depth() == 1999
        assert fill_heights(tree) == 2000 and validate_heights(tree)
        text = bracket_words(tree)
        assert text.count("(") == 1999 and text.replace("(", "").replace(")", "").split() == words
