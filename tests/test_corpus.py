import json

import numpy as np
import pytest

from sydlm.corpus import (
    ConfigError,
    Corpus,
    PreprocessRules,
    Vocab,
    preprocess_corpus,
)
from sydlm.distance import tree_to_distances
from sydlm.trees import binarize_right, parse_bracketed, render_bracketed

from conftest import pcfg_corpus, pcfg_treebank


class TestVocab:
    def test_build_frequency_then_lexicographic(self):
        from collections import Counter

        counts = Counter({"the": 5, "cat": 2, "sat": 1})
        vocab = Vocab.build(counts, max_size=4)
        assert vocab.words == ["<unk>", "<eos>", "the", "cat"]
        assert vocab.id("sat") == Vocab.unk_id
        assert vocab.id("the") == 2

    def test_tie_break_lexicographic(self):
        from collections import Counter

        vocab = Vocab.build(Counter({"b": 2, "a": 2, "c": 2}), max_size=4)
        assert vocab.words == ["<unk>", "<eos>", "a", "b"]

    def test_literal_specials_take_no_slot(self):
        from collections import Counter

        counts = Counter({"<unk>": 9, "a": 5, "b": 3, "c": 1})
        assert Vocab.build(counts, max_size=4).words == ["<unk>", "<eos>", "a", "b"]
        counts["<eos>"] = 7
        assert Vocab.build(counts, max_size=5).words == ["<unk>", "<eos>", "a", "b", "c"]

    def test_specials_required(self):
        with pytest.raises(ConfigError):
            Vocab(["a", "b"])

    def test_lookup_round_trip(self):
        vocab = Vocab(["<unk>", "<eos>", "dog"])
        assert vocab.word(vocab.id("dog")) == "dog"
        assert vocab.id("missing") == 0
        assert len(vocab) == 3


TWO_SENTENCES = "(S (NN aa) (NN bb) (NN cc)) (S (NN dd) (NN ee) (NN ff))"


class TestPreprocess:
    def test_concat_token_count(self):
        corpus = preprocess_corpus(parse_bracketed(TWO_SENTENCES),
                                   PreprocessRules(vocab_max_size=10, mode="concat"))
        assert len(corpus.tokens) == 8  # 3 + eos + 3 + eos
        assert corpus.sentence_spans == [(0, 3), (4, 7)]
        assert corpus.tokens[3] == Vocab.eos_id and corpus.tokens[7] == Vocab.eos_id

    def test_sepsent_has_no_eos(self):
        corpus = preprocess_corpus(parse_bracketed(TWO_SENTENCES),
                                   PreprocessRules(vocab_max_size=10, mode="sepsent"))
        assert len(corpus.tokens) == 6
        assert corpus.sentence_spans == [(0, 3), (3, 6)]
        assert (corpus.tokens != Vocab.eos_id).all()

    def test_vocab_truncation_maps_to_unk(self):
        text = "(S (NN the) (NN the) (NN the) (NN cat) (NN cat) (NN sat))"
        corpus = preprocess_corpus(parse_bracketed(text),
                                   PreprocessRules(vocab_max_size=4, mode="concat"))
        assert corpus.vocab.words == ["<unk>", "<eos>", "the", "cat"]
        assert corpus.tokens[5] == Vocab.unk_id  # 'sat'

    def test_lowercase_and_numbers(self):
        text = "(S (NNP Pierre) (CD 61) (CD 1,000.5) (NN mid-1987))"
        corpus = preprocess_corpus(parse_bracketed(text),
                                   PreprocessRules(vocab_max_size=20, mode="concat"))
        words = [corpus.vocab.word(t) for t in corpus.sentence_ids(0)]
        assert words == ["pierre", "N", "N", "mid-1987"]

    def test_punctuation_pruned_in_lockstep(self):
        text = "(S (NP (DT The) (NN cat)) (, ,) (VP (VBZ sleeps)) (. .))"
        corpus = preprocess_corpus(parse_bracketed(text),
                                   PreprocessRules(vocab_max_size=20, mode="concat"))
        s, e = corpus.sentence_spans[0]
        assert e - s == 3
        assert corpus.gold_trees_nary[0].n_leaves() == 3
        assert corpus.gold_trees_nary[0].tokens() == ["the", "cat", "sleeps"]

    def test_sentence_fully_pruned_disappears(self):
        text = "(S (. .)) (S (NN cat))"
        corpus = preprocess_corpus(parse_bracketed(text),
                                   PreprocessRules(vocab_max_size=20, mode="concat"))
        assert corpus.n_sentences == 1

    def test_supplied_vocab_reused(self):
        train = preprocess_corpus(parse_bracketed(TWO_SENTENCES),
                                  PreprocessRules(vocab_max_size=5, mode="concat"))
        other = preprocess_corpus(parse_bracketed("(S (NN aa) (NN zz))"),
                                  PreprocessRules(vocab_max_size=5, mode="concat"),
                                  vocab=train.vocab)
        assert other.vocab is train.vocab
        assert other.tokens[1] == Vocab.unk_id  # zz unseen

    def test_ptb_wrapper_matches_unwrapped_tree(self):
        inner = "(S (NP (DT the) (NN cat)) (VP (VBZ sleeps)))"
        rules = PreprocessRules(vocab_max_size=10, mode="concat")
        wrapped = preprocess_corpus(parse_bracketed("( %s )" % inner), rules)
        plain = preprocess_corpus(parse_bracketed(inner), rules)
        assert wrapped.vocab.words == plain.vocab.words
        assert np.array_equal(wrapped.tokens, plain.tokens)
        assert np.array_equal(wrapped.gold_distances(0), plain.gold_distances(0))
        assert wrapped.gold_trees_nary[0].children == [plain.gold_trees_nary[0]]

    @pytest.mark.parametrize("mode", ["concat", "sepsent"])
    def test_gold_distances_are_right_binarized_heights(self, mode):
        corpus = pcfg_corpus(16, seed=5, mode=mode)
        for i, tree in enumerate(corpus.gold_trees_nary):
            assert np.array_equal(corpus.gold_distances(i), tree_to_distances(binarize_right(tree)))

    def test_stream_length_identity(self):
        corpus = preprocess_corpus(pcfg_treebank(15, seed=29),
                                   PreprocessRules(vocab_max_size=40, mode="concat"))
        span_total = sum(e - s for s, e in corpus.sentence_spans)
        assert len(corpus.tokens) == span_total + corpus.n_sentences


class TestCorpusValidation:
    def test_leaf_count_mismatch_rejected(self):
        corpus = preprocess_corpus(parse_bracketed(TWO_SENTENCES),
                                   PreprocessRules(vocab_max_size=10, mode="concat"))
        with pytest.raises(ValueError, match="leaves"):
            Corpus(tokens=corpus.tokens, sentence_spans=[(0, 2), (4, 7)],
                   gold_trees_nary=corpus.gold_trees_nary,
                   vocab=corpus.vocab, mode="concat")


class TestDumpFormat:
    def test_round_trip(self, tmp_path, tiny_corpus):
        path = str(tmp_path / "corpus.json")
        tiny_corpus.save(path)
        loaded = Corpus.load(path)
        assert np.array_equal(loaded.tokens, tiny_corpus.tokens)
        assert loaded.sentence_spans == tiny_corpus.sentence_spans
        assert loaded.vocab.words == tiny_corpus.vocab.words
        for i in range(tiny_corpus.n_sentences):
            assert np.array_equal(loaded.gold_distances(i), tiny_corpus.gold_distances(i))
        for a, b in zip(loaded.gold_trees_nary, tiny_corpus.gold_trees_nary):
            assert render_bracketed(a) == render_bracketed(b)

    def test_resave_byte_identical(self, tmp_path, tiny_corpus):
        p1, p2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        tiny_corpus.save(p1)
        Corpus.load(p1).save(p2)
        assert open(p1, "rb").read() == open(p2, "rb").read()

    def test_magic_header(self, tmp_path, tiny_corpus):
        path = tmp_path / "corpus.json"
        tiny_corpus.save(str(path))
        payload = json.loads(path.read_text())
        assert payload["magic"] == "sydlm-corpus"
        assert payload["version"] == 1
        payload["magic"] = "other"
        path.write_text(json.dumps(payload))
        with pytest.raises(ConfigError, match="magic"):
            Corpus.load(str(path))

    def test_gold_distances_accessor(self, tiny_corpus):
        d = tiny_corpus.gold_distances(0)
        s, e = tiny_corpus.sentence_spans[0]
        assert d.size + 1 == e - s
        assert (d >= 2).all()

    def test_old_binarized_key_is_ignored(self, tmp_path, tiny_corpus):
        # dumps of earlier versions also carry the binarized trees as "gold_trees"
        path = tmp_path / "corpus.json"
        tiny_corpus.save(str(path))
        payload = json.loads(path.read_text())
        assert "gold_trees" not in payload
        payload["gold_trees"] = [render_bracketed(binarize_right(t)) for t in tiny_corpus.gold_trees_nary]
        old = tmp_path / "old.json"
        old.write_text(json.dumps(payload))
        current, loaded = Corpus.load(str(path)), Corpus.load(str(old))
        assert not hasattr(loaded, "gold_trees")
        for i in range(tiny_corpus.n_sentences):
            assert np.array_equal(loaded.gold_distances(i), current.gold_distances(i))
            assert render_bracketed(loaded.gold_trees_nary[i]) == render_bracketed(current.gold_trees_nary[i])
