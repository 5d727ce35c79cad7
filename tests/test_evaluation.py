import numpy as np
import pytest

from sydlm.config import ModelConfig
from sydlm.corpus import PreprocessRules, preprocess_corpus
from sydlm.evaluation import (
    depth_and_ratio,
    induce_trees,
    per_tag_accuracy,
    perplexity,
    render_parallel,
    resolve_layer,
    sentence_distances,
    structure_report,
    unlabeled_f1,
)
from sydlm.onlstm import OnLstmLM
from sydlm.training import bptt_batches
from sydlm.trees import (
    Tree,
    binarize_right,
    left_chain,
    parse_bracketed,
    random_binary_tree,
    right_chain,
)

from conftest import accuracy_by_height, iter_nodes, labeled_spans, pcfg_corpus, pcfg_treebank, spans_of, tree_depth


# -- independent span oracle over nested lists --------------------------------

def to_nested(tree):
    if tree.is_leaf:
        return tree.token
    return [to_nested(c) for c in tree.children]


def oracle_spans(nested, include_root=False):
    """Brute-force span collection over nested lists, coded separately from
    the package's tree walk."""
    found = []

    def count_leaves(node):
        if not isinstance(node, list):
            return 1
        return sum(count_leaves(c) for c in node)

    total = count_leaves(nested)

    def visit(node, start):
        if not isinstance(node, list):
            return 1
        width = 0
        for child in node:
            width += visit(child, start + width)
        found.append((start, start + width))
        return width

    visit(nested, 0)
    out = set()
    for s, e in found:
        if e - s < 2:
            continue
        if not include_root and (s, e) == (0, total):
            continue
        out.add((s, e))
    return out


def oracle_f1(pred_trees, gold_trees):
    match = pred_n = gold_n = 0
    per_sent = []
    for p, g in zip(pred_trees, gold_trees):
        sp = oracle_spans(to_nested(p))
        sg = oracle_spans(to_nested(g))
        m = len(sp & sg)
        match += m
        pred_n += len(sp)
        gold_n += len(sg)
        if not sp and not sg:
            per_sent.append(100.0)
            continue
        prec = m / len(sp) if sp else 0.0
        rec = m / len(sg) if sg else 0.0
        per_sent.append(200.0 * prec * rec / (prec + rec) if prec + rec > 0 else 0.0)
    prec = match / pred_n if pred_n else 0.0
    rec = match / gold_n if gold_n else 0.0
    micro = 200.0 * prec * rec / (prec + rec) if prec + rec > 0 else (100.0 if gold_n == pred_n == 0 else 0.0)
    return micro, float(np.mean(per_sent))


def enumerate_nary(n, labels=("NP", "VP", "PP", "ADJP")):
    """All ordered trees over n leaves with >= 2 children per internal node,
    labels assigned depth-cyclically."""

    def build(lo, hi, depth):
        if hi - lo == 1:
            return [Tree("W", token="w%d" % lo)]
        out = []
        for parts in compositions(hi - lo):
            offsets = np.cumsum([0] + parts[:-1]) + lo
            child_sets = [build(int(o), int(o) + p, depth + 1) for o, p in zip(offsets, parts)]
            for combo in cartesian(child_sets):
                out.append(Tree(labels[depth % len(labels)], children=list(combo)))
        return out

    def compositions(total):
        if total < 2:
            return []
        result = []

        def rec(remaining, acc):
            if remaining == 0 and len(acc) >= 2:
                result.append(list(acc))
                return
            for part in range(1, remaining + 1):
                rec(remaining - part, acc + [part])

        rec(total, [])
        return result

    def cartesian(sets):
        if not sets:
            yield ()
            return
        for head in sets[0]:
            for tail in cartesian(sets[1:]):
                yield (clone(head),) + tail

    def clone(t):
        if t.is_leaf:
            return Tree(t.label, token=t.token)
        return Tree(t.label, children=[clone(c) for c in t.children])

    return build(0, n, 0)


class TestSpans:
    def test_right_branching_three(self):
        tree = parse_bracketed("(X (X a) (X (X b) (X c)))", clean=False)[0]
        assert spans_of(tree) == {(1, 3)}
        assert spans_of(tree, include_root=True) == {(1, 3), (0, 3)}

    def test_left_branching_four(self):
        tree = left_chain(list("abcd"))
        assert spans_of(tree) == {(0, 2), (0, 3)}

    def test_two_word_tree_empty(self):
        tree = parse_bracketed("(X (X a) (X b))", clean=False)[0]
        assert spans_of(tree) == set()

    def test_matches_oracle_on_random_trees(self):
        for i in range(50):
            tree = random_binary_tree(2 + i % 9, i)
            assert spans_of(tree) == oracle_spans(to_nested(tree))
            assert spans_of(tree, include_root=True) == oracle_spans(to_nested(tree), include_root=True)

    def test_unary_chain_spans_deduplicated(self):
        tree = parse_bracketed("(S (NP (NP (NN a) (NN b))) (NN c))", clean=False)[0]
        assert spans_of(tree) == {(0, 2)}
        assert [s for _, *s in labeled_spans(tree)].count([0, 2]) == 2


class TestUnlabeledF1:
    def test_identity_is_perfect(self):
        trees = [random_binary_tree(n, n) for n in range(3, 9)]
        micro, macro = unlabeled_f1(trees, trees)
        assert micro == 100.0 and macro == 100.0

    def test_disjoint_spans_zero(self):
        pred = [right_chain(list("abcd"))]
        gold = [left_chain(list("abcd"))]
        assert spans_of(pred[0]) == {(1, 4), (2, 4)}
        assert spans_of(gold[0]) == {(0, 2), (0, 3)}
        micro, macro = unlabeled_f1(pred, gold)
        assert micro == 0.0 and macro == 0.0

    def test_both_empty_counts_perfect(self):
        two = [parse_bracketed("(X (X a) (X b))", clean=False)[0]]
        for trees in (two, []):  # one two-word sentence; no sentence at all
            micro, macro = unlabeled_f1(trees, trees)
            assert micro == 100.0 and macro == 100.0

    def test_hand_computed_mix_of_empty_and_wrong_sentences(self):
        pred = [parse_bracketed("(X (X a) (X b))", clean=False)[0],  # 0 of 0 spans
                right_chain(list("abcde")),  # (1,5) (2,5) (3,5)
                right_chain(list("abc"))]  # (1,3)
        gold = [pred[0],
                parse_bracketed("(S (X (X a) (X b)) (X (X c) (X (X d) (X e))))", clean=False)[0],
                parse_bracketed("(S (X a) (X b) (X c))", clean=False)[0]]  # no span
        # per sentence: 100, 2 of 3 vs 3 -> 200/3, 0 of 1 vs 0 -> 0
        # pooled: match 2, pred 4, gold 3 -> 100 * 2 * 2 / (4 + 3)
        micro, macro = unlabeled_f1(pred, gold)
        assert np.isclose(micro, 400.0 / 7.0)
        assert np.isclose(macro, (100.0 + 200.0 / 3.0 + 0.0) / 3.0)

    def test_leaf_count_mismatch_names_sentence(self):
        with pytest.raises(ValueError, match="sentence 0"):
            unlabeled_f1([right_chain(list("abc"))], [right_chain(list("abcd"))])

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(0)
        pred, gold = [], []
        for i in range(60):
            n = int(rng.integers(2, 12))
            pred.append(random_binary_tree(n, 1000 + i))
            gold.append(random_binary_tree(n, 2000 + i))
        assert unlabeled_f1(pred, gold) == oracle_f1(pred, gold)

    def test_micro_symmetric_for_equal_span_counts(self):
        rng = np.random.default_rng(1)
        pred = [random_binary_tree(7, int(rng.integers(1e6))) for _ in range(10)]
        gold = [random_binary_tree(7, int(rng.integers(1e6))) for _ in range(10)]
        assert np.isclose(unlabeled_f1(pred, gold)[0], unlabeled_f1(gold, pred)[0])


class TestPerTagAccuracy:
    def test_binarized_gold_keeps_all_nary_spans(self):
        # enumeration oracle: right-nesting sentinels never remove an n-ary
        # constituent boundary
        for n in range(2, 7):
            for tree in enumerate_nary(n):
                nary_spans = oracle_spans(to_nested(tree), include_root=True)
                binary_spans = spans_of(binarize_right(tree), include_root=True)
                assert nary_spans <= binary_spans, (n, to_nested(tree))

    def test_pred_equals_binarized_gold_scores_100(self):
        golds = pcfg_treebank(25, seed=13)
        preds = [binarize_right(t) for t in golds]
        rates = per_tag_accuracy(preds, golds, tags=("S", "NP", "VP", "PP"))
        for tag, rate in rates.items():
            assert rate is None or rate == 100.0, (tag, rate)
        assert rates["NP"] == 100.0

    def test_missing_spans_score_zero(self):
        gold = parse_bracketed("(S (NP (NN a) (NN b)) (VP (NN c) (NN d)))", clean=False)[0]
        pred = right_chain(list("abcd"))
        rates = per_tag_accuracy([pred], [gold], tags=("NP", "VP"))
        assert rates["NP"] == 0.0   # (0,2) not in right chain
        assert rates["VP"] == 100.0  # (2,4) present

    def test_absent_tag_reports_none(self):
        gold = parse_bracketed("(S (NN a) (NN b) (NN c))", clean=False)[0]
        rates = per_tag_accuracy([binarize_right(gold)], [gold], tags=("ADJP",))
        assert rates["ADJP"] is None


class TestDepthAndRatio:
    def test_right_chain(self):
        depth, ratio = depth_and_ratio([right_chain(list("abcd"))])
        assert depth == 3.0 and ratio == 3.0

    def test_left_chain(self):
        depth, ratio = depth_and_ratio([left_chain(list("abcd"))])
        assert depth == 3.0 and np.isclose(ratio, 1 / 3)

    def test_balanced(self):
        tree = parse_bracketed("(X (X (X a) (X b)) (X (X c) (X d)))", clean=False)[0]
        depth, ratio = depth_and_ratio([tree])
        assert depth == 2.0 and ratio == 1.0

    def test_chain_depth_formula(self):
        for n in (2, 5, 9):
            depth, ratio = depth_and_ratio([right_chain(["w%d" % i for i in range(n)])])
            assert depth == n - 1
            assert ratio == float(n - 1)

    def test_balanced_depth_log(self):
        tree = random_binary_tree(8, 0)
        # fully balanced 8-leaf tree built by construction
        balanced = parse_bracketed(
            "(X (X (X (X a) (X b)) (X (X c) (X d))) (X (X (X e) (X f)) (X (X g) (X h))))",
            clean=False)[0]
        assert tree_depth(balanced) == 3  # ceil(log2 8)
        assert tree_depth(tree) >= 3


class TestDeepTrees:
    @pytest.mark.parametrize("chain", [left_chain, right_chain])
    def test_report_and_render_of_a_two_thousand_leaf_chain(self, chain):
        words = ["w%d" % i for i in range(2000)]
        pred, gold = chain(words), chain(words)
        report = structure_report([pred], [gold])
        assert report["f1_micro"] == 100.0 and report["mean_depth"] == 1999.0
        assert sum(cell["total"] for cell in report["height_accuracy"].values()) == 1998
        rendered = render_parallel(words, [("pred", pred)])
        assert rendered.count("(") == 1999


class TestAccuracyByHeight:
    def test_perfect_prediction(self):
        trees = [binarize_right(t) for t in pcfg_treebank(10, seed=17)]
        hist = accuracy_by_height(trees, trees)
        for h, (correct, total) in hist.items():
            assert correct == total

    def test_single_low_error_hits_one_bucket(self):
        gold = parse_bracketed("(X (X (X (X a) (X b)) (X c)) (X (X (X d) (X e)) (X f)))",
                               clean=False)[0]
        pred = parse_bracketed("(X (X (X (X a) (X b)) (X c)) (X (X d) (X (X e) (X f))))",
                               clean=False)[0]
        hist = accuracy_by_height(
            [pred], [gold])
        assert hist[2] == (1, 2)   # (4,6) wrong, (0,2) right
        assert hist[3] == (2, 2)   # (0,3) and (3,6) both right

    def test_buckets_are_heights_not_widths(self):
        # a parsed tree: its heights come from constituents, 1 at a leaf
        balanced = parse_bracketed(
            "(X (X (X (X a) (X b)) (X (X c) (X d))) (X (X (X e) (X f)) (X (X g) (X h))))", clean=False)[0]
        assert accuracy_by_height([balanced], [balanced]) == {2: (4, 4), 3: (2, 2)}

    def test_two_word_sentence_contributes_nothing(self):
        tree = parse_bracketed("(X (X a) (X b))", clean=False)[0]
        assert accuracy_by_height([binarize_right(tree)], [tree]) == {}

    def test_bucket_counts_cover_all_non_root_nodes(self):
        preds = [random_binary_tree(n, n * 7) for n in range(3, 11)]
        golds = [random_binary_tree(n, n * 13) for n in range(3, 11)]
        hist = accuracy_by_height(preds, golds)
        total = sum(t for _, t in hist.values())
        expected = sum(
            sum(1 for node in iter_nodes(p) if not node.is_leaf) - 1
            for p in preds)
        assert total == expected


class TestPerplexity:
    def test_uniform_model_gives_vocab_size(self, tiny_corpus):
        cfg = ModelConfig(vocab_size=len(tiny_corpus.vocab), model="onlstm-syd", n_layers=1,
                          embedding_size=6, hidden_size=6, supervision_layer=1,
                          supervision_mode="none")
        model = OnLstmLM(cfg, seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        assert np.isclose(perplexity(model, tiny_corpus), len(tiny_corpus.vocab))

    def test_hand_case_constant_logits(self):
        text = "(S (NN a) (NN b)) (S (NN b) (NN a))"
        corpus = preprocess_corpus(parse_bracketed(text), PreprocessRules(vocab_max_size=4))
        cfg = ModelConfig(vocab_size=4, model="onlstm-syd", n_layers=1, embedding_size=4,
                          hidden_size=4, supervision_layer=1, supervision_mode="none")
        model = OnLstmLM(cfg, seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        bias = np.array([0.5, -0.3, 1.2, 0.0])
        model.params["b_out"].data[:] = bias
        probs = np.exp(bias) / np.exp(bias).sum()
        targets = corpus.tokens[1:]
        expect = np.exp(np.mean([-np.log(probs[t]) for t in targets]))
        assert np.isclose(perplexity(model, corpus), expect)

    def test_sepsent_mode_scores_eos_frames(self, tiny_corpus_sepsent):
        cfg = ModelConfig(vocab_size=len(tiny_corpus_sepsent.vocab), model="onlstm-syd",
                          n_layers=1, embedding_size=6, hidden_size=6,
                          supervision_layer=1, supervision_mode="none")
        model = OnLstmLM(cfg, seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        assert np.isclose(perplexity(model, tiny_corpus_sepsent), len(tiny_corpus_sepsent.vocab))


class TestBranchingDirection:
    def test_right_beats_left_on_right_skewed_gold(self):
        corpus = pcfg_corpus(60, seed=19)
        golds = corpus.gold_trees_nary
        rb = [right_chain(corpus.sentence_words(i)) for i in range(corpus.n_sentences)]
        lb = [left_chain(corpus.sentence_words(i)) for i in range(corpus.n_sentences)]
        f1_rb = unlabeled_f1(rb, golds)
        f1_lb = unlabeled_f1(lb, golds)
        assert f1_rb[0] > f1_lb[0]
        assert f1_rb[1] > f1_lb[1]


class TestStructureReportAndStreams:
    def test_report_fields(self, tiny_corpus):
        cfg = ModelConfig(vocab_size=len(tiny_corpus.vocab), model="onlstm-syd", n_layers=2,
                          embedding_size=8, hidden_size=8, supervision_layer=2)
        model = OnLstmLM(cfg, seed=1)
        pred = induce_trees(model, tiny_corpus, stream="syd", algo="unbiased")
        report = structure_report(pred, tiny_corpus.gold_trees_nary)
        assert 0.0 <= report["f1_micro"] <= 100.0
        assert 0.0 <= report["f1_macro"] <= 100.0
        assert report["n_sentences"] == tiny_corpus.n_sentences
        assert set(report) == {"f1_micro", "f1_macro", "per_tag", "mean_depth",
                               "left_right_ratio", "height_accuracy", "n_sentences"}
        heights = list(report["height_accuracy"])
        assert heights and heights == [str(h) for h in sorted(map(int, heights))]
        for cell in report["height_accuracy"].values():
            assert set(cell) == {"correct", "total", "accuracy"}
            assert cell["accuracy"] == 100.0 * cell["correct"] / cell["total"]

    def test_report_walks_each_tree_once(self, monkeypatch):
        import sydlm.evaluation as evaluation

        gold = pcfg_treebank(30, seed=5)
        pred = [random_binary_tree(g.n_leaves(), seed) for seed, g in enumerate(gold)]
        gold[3] = None  # a sentence without a gold tree is left out
        kept = [(p, g) for p, g in zip(pred, gold) if g is not None]
        preds, golds = [p for p, _ in kept], [g for _, g in kept]
        # the report as the three public metrics compute it, each walking every tree
        micro, macro = unlabeled_f1(preds, golds)
        expected = {"f1_micro": micro, "f1_macro": macro, "per_tag": per_tag_accuracy(preds, golds),
                    "height_accuracy": accuracy_by_height(preds, golds)}
        walked = []
        constituents = evaluation.constituents
        monkeypatch.setattr(evaluation, "constituents",
                            lambda tree: walked.append(tree) or constituents(tree))
        report = structure_report(pred, gold)
        assert sorted(map(id, walked)) == sorted(map(id, preds + golds))
        assert {k: report[k] for k in ("f1_micro", "f1_macro", "per_tag")} == {
            k: expected[k] for k in ("f1_micro", "f1_macro", "per_tag")}
        assert {int(h): (c["correct"], c["total"]) for h, c in report["height_accuracy"].items()} \
            == expected["height_accuracy"]

    def test_syd_stream_absent_without_supervision(self, tiny_corpus):
        cfg = ModelConfig(vocab_size=len(tiny_corpus.vocab), model="onlstm-syd", n_layers=1,
                          embedding_size=6, hidden_size=6, supervision_layer=1,
                          supervision_mode="none")
        model = OnLstmLM(cfg, seed=2)
        assert set(sentence_distances(model, tiny_corpus)) == {"lm"}
        with pytest.raises(ValueError, match="no supervised distance stream"):
            induce_trees(model, tiny_corpus, stream="syd")

    def test_layer_defaults_and_bounds(self):
        onlstm = ModelConfig(vocab_size=10, n_layers=3, supervision_layer=2)
        prpn = ModelConfig(vocab_size=10, model="prpn-syd", n_layers=3, supervision_layer=3)
        assert resolve_layer(onlstm) == 1 and resolve_layer(onlstm, 3) == 2
        assert resolve_layer(prpn) == 0  # PRPN emits a single distance layer
        for config, layer in ((onlstm, 0), (onlstm, 4), (prpn, 2)):
            with pytest.raises(ValueError, match="distance layers"):
                resolve_layer(config, layer)

    def test_prpn_default_layer_ignores_supervision_layer(self):
        # validate checks supervision_layer for ON-LSTM only
        for supervision_layer in (0, 1, 5):
            prpn = ModelConfig(vocab_size=10, model="prpn-syd", supervision_layer=supervision_layer)
            prpn.validate()
            assert resolve_layer(prpn) == 0

    def test_sentence_distances_match_single_forward(self, tiny_corpus):
        cfg = ModelConfig(vocab_size=len(tiny_corpus.vocab), model="onlstm-syd", n_layers=1,
                          embedding_size=8, hidden_size=8, supervision_layer=1)
        model = OnLstmLM(cfg, seed=3)
        dists = sentence_distances(model, tiny_corpus, batch_size=1)["syd"]
        i = max(range(tiny_corpus.n_sentences),
                key=lambda k: tiny_corpus.sentence_spans[k][1] - tiny_corpus.sentence_spans[k][0])
        n = tiny_corpus.sentence_spans[i][1] - tiny_corpus.sentence_spans[i][0]
        assert dists[i].shape == (n - 1,)
        inputs = np.concatenate([[1], tiny_corpus.sentence_ids(i)]).reshape(-1, 1)
        out = model.forward(inputs)
        manual = out.d_syd.data.reshape(-1)[2 : n + 1]
        assert np.allclose(dists[i], manual)

    def test_sentence_distances_frame_like_separate_sentence_batches(
            self, tiny_corpus, tiny_corpus_sepsent):
        cfg = ModelConfig(vocab_size=len(tiny_corpus.vocab), model="onlstm-syd", n_layers=1,
                          embedding_size=6, hidden_size=6, supervision_layer=1)
        model = OnLstmLM(cfg, seed=4)
        seen = []
        forward = model.forward

        def spy(inputs, state=None):
            seen.append(inputs.copy())
            return forward(inputs, state)

        model.forward = spy
        sentence_distances(model, tiny_corpus, batch_size=5)
        batches = list(bptt_batches(tiny_corpus_sepsent, 5, 70))
        assert len(seen) == len(batches) > 1
        for framed, batch in zip(seen, batches):
            assert framed.dtype == batch.inputs.dtype and np.array_equal(framed, batch.inputs)
        # [eos] + words, eos-padded, shortest sentences first
        first = np.concatenate([[1], tiny_corpus.sentence_ids(int(np.argmin(
            [e - s for s, e in tiny_corpus.sentence_spans])))])
        assert np.array_equal(seen[0][: first.size, 0], first)
        assert (seen[0][first.size :, 0] == 1).all()
