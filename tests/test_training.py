import dataclasses
import gc
import weakref

import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm import build_model
from sydlm.autodiff import Tape, Tensor, backward
from sydlm.config import ConfigError, ModelConfig, TrainConfig
from sydlm.corpus import PreprocessRules, Vocab, preprocess_corpus
from sydlm.distance import distances_to_tree_unbiased
from sydlm.evaluation import perplexity
from sydlm.onlstm import OnLstmLM
from sydlm.training import (
    Batch,
    bptt_batches,
    _global_clip,
    joint_loss,
    lm_loss,
    _pair_agreement,
    pair_indices,
    ranking_loss,
    supervised_pair_accuracy,
    train,
    validation_pass,
)
from sydlm.trees import parse_bracketed

from conftest import pcfg_corpus, pcfg_treebank


class TestLmLoss:
    def test_uniform_logits(self):
        logits = Tensor(np.zeros((5, 3)))
        loss = lm_loss(logits, np.array([0, 1, 2, 0, 1]), np.ones(5))
        assert np.isclose(float(loss.data), np.log(3.0))

    def test_saturated_correct(self):
        logits = np.full((4, 3), -50.0)
        logits[np.arange(4), [2, 1, 0, 2]] = 50.0
        loss = lm_loss(Tensor(logits), np.array([2, 1, 0, 2]), np.ones(4))
        assert float(loss.data) < 1e-8

    def test_hand_two_token_case(self):
        logits = np.array([[1.0, 0.0], [0.5, 2.0]])
        targets = np.array([0, 1])
        expect = np.mean([
            -np.log(np.exp(1.0) / (np.exp(1.0) + np.exp(0.0))),
            -np.log(np.exp(2.0) / (np.exp(0.5) + np.exp(2.0))),
        ])
        assert np.isclose(float(lm_loss(Tensor(logits), targets, np.ones(2)).data), expect)

    def test_weighted_mask(self):
        logits = Tensor(np.zeros((4, 2)))
        loss = lm_loss(logits, np.array([0, 1, 0, 1]), weights=np.array([1.0, 1.0, 0.0, 0.0]))
        assert np.isclose(float(loss.data), np.log(2.0))


class TestRankingLoss:
    def test_correct_order_zero(self):
        loss = ranking_loss(np.array([0.5, 0.9]), np.array([1.0, 2.0]),
                            np.zeros(2, dtype=np.int64), "as-written")
        assert float(loss.data) == 0.0

    def test_violated_order_hinge(self):
        loss = ranking_loss(np.array([0.9, 0.5]), np.array([1.0, 2.0]),
                            np.zeros(2, dtype=np.int64), "as-written")
        assert np.isclose(float(loss.data), 0.8)
        sym = ranking_loss(np.array([0.9, 0.5]), np.array([1.0, 2.0]),
                           np.zeros(2, dtype=np.int64), "symmetric")
        assert np.isclose(float(sym.data), 0.8)

    def test_gold_tie_equal_predictions(self):
        loss = ranking_loss(np.array([0.7, 0.7]), np.array([2.0, 2.0]),
                            np.zeros(2, dtype=np.int64), "as-written")
        assert float(loss.data) == 0.0

    def test_gold_tie_as_written_penalizes_one_direction(self):
        # i < j with equal gold: only d_i^w > d_j^w is penalized as written
        up = ranking_loss(np.array([0.2, 0.8]), np.array([2.0, 2.0]),
                          np.zeros(2, dtype=np.int64), "as-written")
        down = ranking_loss(np.array([0.8, 0.2]), np.array([2.0, 2.0]),
                            np.zeros(2, dtype=np.int64), "as-written")
        assert float(up.data) == 0.0
        assert np.isclose(float(down.data), 0.6)

    def test_mask_and_groups_restrict_pairs(self):
        d_g = np.array([1.0, 2.0, 3.0, 4.0])
        d_w = np.array([4.0, 3.0, 2.0, 1.0])  # fully inverted
        groups = np.array([0, 0, 1, 1])
        ii, jj = pair_indices(groups)
        assert len(ii) == 2  # (0,1) and (2,3) only
        masked = ranking_loss(d_w, d_g, np.array([0, -1, 1, 1]), "as-written")
        ii2, jj2 = pair_indices(np.array([0, -1, 1, 1]))
        assert len(ii2) == 1
        assert float(masked.data) > 0

    def test_pairs_in_order_and_not_shared_between_calls(self):
        groups = np.array([-1, 0, 0, 0, 1, 1, 1, -1, 2, 2, 3, 3, 3])
        want = [(i, j) for i in range(13) for j in range(i + 1, 13)
                if groups[i] >= 0 and groups[i] == groups[j]]
        ii, jj = pair_indices(groups)
        assert list(zip(ii.tolist(), jj.tolist())) == want
        ii[:] = -5  # the sizes repeat, so a shared cached array would show this
        again = pair_indices(groups)
        assert list(zip(*(a.tolist() for a in again))) == want

    def test_boolean_mask_is_not_read_as_groups(self):
        # a mask would otherwise pair its True slots and, apart, its False ones
        mask = np.array([True, False, True, True])
        with pytest.raises(TypeError, match="integer sentence ids"):
            pair_indices(mask)
        with pytest.raises(TypeError, match="integer sentence ids"):
            ranking_loss(np.zeros(4), np.arange(4.0), mask, "as-written")

    def test_zero_when_order_matches_with_ties_weak(self):
        # gold strict order plus a tie; predictions share the order, tied
        # slots nondecreasing left to right
        d_g = np.array([1.0, 3.0, 3.0, 5.0])
        d_w = np.array([0.1, 0.5, 0.5, 0.9])
        loss = ranking_loss(d_w, d_g, np.zeros(4, dtype=np.int64), "as-written")
        assert float(loss.data) == 0.0

    def test_shift_invariance(self):
        rng = np.random.default_rng(0)
        d_g = rng.permutation(np.arange(1.0, 7.0))
        d_w = rng.normal(size=6)
        groups = np.zeros(6, dtype=np.int64)
        a = float(ranking_loss(d_w, d_g, groups, "symmetric").data)
        b = float(ranking_loss(d_w + 13.7, d_g, groups, "symmetric").data)
        assert np.isclose(a, b)

    def test_gradient_descent_reaches_zero(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            n = int(rng.integers(3, 11))
            gold = rng.permutation(np.arange(1.0, n + 1))
            d_w = Tensor(rng.uniform(0, 1, size=n), requires_grad=True)
            groups = np.zeros(n, dtype=np.int64)
            for _ in range(500):
                d_w.grad = None
                with Tape():
                    loss = ranking_loss(d_w, gold, groups, "symmetric")
                    if float(loss.data) < 1e-6:
                        break
                    backward(loss)
                d_w.data -= 1.0 * d_w.grad
            assert float(loss.data) < 1e-6

    def test_accuracy_metric(self):
        agree = _pair_agreement(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 3.0]),
                                np.zeros(3, dtype=np.int64))
        assert agree == (3, 3)
        flipped = _pair_agreement(np.array([3.0, 2.0, 1.0]), np.array([1.0, 2.0, 3.0]),
                                  np.zeros(3, dtype=np.int64))
        assert flipped == (0, 3)
        assert _pair_agreement(np.ones(3), np.ones(3), np.zeros(3, dtype=np.int64)) == (0, 0)


class TestJointLoss:
    def test_weighted_sum(self):
        out = joint_loss(Tensor(2.0), Tensor(4.0), 0.75)
        assert np.isclose(float(out.data), 5.0)

    def test_alpha_zero(self):
        assert float(joint_loss(Tensor(2.0), Tensor(100.0), 0.0).data) == 2.0
        assert float(joint_loss(Tensor(2.0), None, 0.75).data) == 2.0

    def test_zero_syd(self):
        assert float(joint_loss(Tensor(2.0), Tensor(0.0), 0.75).data) == 2.0

    def test_monotone_in_components(self):
        base = float(joint_loss(Tensor(1.0), Tensor(1.0), 0.5).data)
        assert float(joint_loss(Tensor(2.0), Tensor(1.0), 0.5).data) > base
        assert float(joint_loss(Tensor(1.0), Tensor(2.0), 0.5).data) > base

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            joint_loss(Tensor(1.0), Tensor(1.0), -0.1)


def flat_corpus(n_tokens):
    # one long sentence per 5 tokens, concatenated
    text = " ".join("(S %s)" % " ".join("(NN w%d)" % (i % 7) for i in range(5))
                    for _ in range(n_tokens // 6))
    return preprocess_corpus(parse_bracketed(text), PreprocessRules(vocab_max_size=20, mode="concat"))


class TestBpttBatches:
    def test_window_layout(self):
        corpus = pcfg_corpus(30, seed=2)
        corpus = _truncate_stream(corpus, 100)
        batches = list(bptt_batches(corpus, 4, 10, tree_source="none"))
        assert len(batches) == 3
        assert [b.inputs.shape for b in batches] == [(10, 4), (10, 4), (4, 4)]
        assert batches[0].carry_state is False
        assert all(b.carry_state for b in batches[1:])
        first = batches[0]
        assert np.array_equal(first.inputs[1:], first.targets[:-1])

    def test_five_token_sentence_has_four_slots(self):
        text = "(S (NN a) (NN b) (NN c) (NN d) (NN e))"
        corpus = preprocess_corpus(parse_bracketed(text * 3),
                                   PreprocessRules(vocab_max_size=10, mode="concat"))
        batches = list(bptt_batches(corpus, 1, 50, tree_source="gold"))
        mask = np.concatenate([(b.sent_id >= 0).reshape(-1) for b in batches])
        sent = np.concatenate([b.sent_id.reshape(-1) for b in batches])
        for i in range(3):
            count = int(((sent == i) & mask).sum())
            if i < 2:  # the final sentence loses its tail to the target shift
                assert count == 4

    def test_eos_adjacent_slots_masked(self):
        corpus = pcfg_corpus(10, seed=3)
        eos_positions = np.flatnonzero(corpus.tokens == Vocab.eos_id)
        for batch in bptt_batches(corpus, 1, 25, tree_source="gold"):
            t_len = batch.inputs.shape[0]
            for r in range(1, t_len):
                if batch.inputs[r, 0] == Vocab.eos_id or batch.inputs[r - 1, 0] == Vocab.eos_id:
                    assert not (batch.sent_id[r, 0] >= 0)
        assert len(eos_positions) == 10

    def test_window_boundary_row_masked(self):
        corpus = pcfg_corpus(20, seed=4)
        for batch in bptt_batches(corpus, 2, 7, tree_source="gold"):
            assert not (batch.sent_id[0] >= 0).any()

    def test_batch_too_large(self):
        corpus = pcfg_corpus(4, seed=5)
        with pytest.raises(ValueError):
            list(bptt_batches(corpus, 10_000, 10))

    def test_sepsent_framing(self):
        corpus = pcfg_corpus(9, seed=6, mode="sepsent")
        batches = list(bptt_batches(corpus, 4, 35, tree_source="gold"))
        assert all(not b.carry_state for b in batches)
        total_slots = 0
        for batch in batches:
            for j in range(batch.inputs.shape[1]):
                assert batch.inputs[0, j] == Vocab.eos_id
                weights = batch.target_weight[:, j]
                n = int(weights.sum()) - 1
                assert np.array_equal(batch.inputs[1 : n + 1, j], batch.targets[0:n, j])
                assert batch.targets[n, j] == Vocab.eos_id
                total_slots += int((batch.sent_id[:, j] >= 0).sum())
        expected = sum(max(e - s - 1, 0) for s, e in corpus.sentence_spans)
        assert total_slots == expected

    def test_random_tree_source_deterministic(self):
        corpus = pcfg_corpus(10, seed=7)
        a = [b.gold_d for b in bptt_batches(corpus, 2, 11, tree_source="random", seed=5)]
        b = [b.gold_d for b in bptt_batches(corpus, 2, 11, tree_source="random", seed=5)]
        c = [b.gold_d for b in bptt_batches(corpus, 2, 11, tree_source="random", seed=6)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)
        assert any(not np.array_equal(x, y) for x, y in zip(a, c))


def _truncate_stream(corpus, n_tokens):
    """Trim a concat corpus to its first sentences totalling <= n_tokens."""
    from sydlm.corpus import Corpus

    spans, nary = [], []
    for i, (s, e) in enumerate(corpus.sentence_spans):
        if e + 1 > n_tokens:
            break
        spans.append((s, e))
        nary.append(corpus.gold_trees_nary[i])
    end = spans[-1][1] + 1
    return Corpus(tokens=corpus.tokens[:end].copy(), sentence_spans=spans,
                  gold_trees_nary=nary, vocab=corpus.vocab, mode="concat")


def train_config(corpus, **kw):
    base = dict(
        model=ModelConfig(vocab_size=len(corpus.vocab), model="onlstm-syd", n_layers=1,
                          embedding_size=12, hidden_size=12, supervision_layer=1),
        alpha=0.75, epochs=3, batch_size=4, bptt_length=10, lr=1.0,
        dropout_words=0.0, dropout_recurrent=0.0, dropout_layers=0.0,
        dropout_output=0.0, dropout_embedding=0.0, seed=21)
    base.update(kw)
    return TrainConfig(**base)


class TestTrain:
    def test_alpha_zero_matches_unsupervised_bitwise(self, tiny_corpus):
        cfg_a = train_config(tiny_corpus, alpha=0.0,
                             dropout_words=0.2, dropout_output=0.2)
        model_a = OnLstmLM(cfg_a.model, seed=cfg_a.seed)
        log_a, _ = train(model_a, tiny_corpus, cfg_a)

        cfg_b = train_config(tiny_corpus, alpha=0.0, tree_source="none",
                             dropout_words=0.2, dropout_output=0.2)
        cfg_b.model.supervision_mode = "none"
        model_b = OnLstmLM(cfg_b.model, seed=cfg_b.seed)
        log_b, _ = train(model_b, tiny_corpus, cfg_b)

        for ea, eb in zip(log_a, log_b):
            assert ea["lm_loss"] == eb["lm_loss"]
            assert ea["valid_ppl"] == eb["valid_ppl"]
        for name, param in model_b.params.items():
            assert np.array_equal(model_a.params[name].data, param.data), name

    def test_gold_supervision_beats_random_on_gold_pairs(self, tiny_corpus):
        # random trees hold gold-pair accuracy near chance; gold trees lift it
        accs = {}
        for source in ("gold", "random"):
            cfg = train_config(tiny_corpus, tree_source=source, epochs=12, lr=1.0)
            cfg.model.hidden_size = cfg.model.embedding_size = 16
            model = OnLstmLM(cfg.model, seed=cfg.seed)
            log, _ = train(model, tiny_corpus, cfg)
            accs[source] = log[-1]["ranking_accuracy"]
        assert accs["gold"] > 78.0
        assert 25.0 < accs["random"] < 70.0
        assert accs["gold"] - accs["random"] > 20.0

    @pytest.mark.filterwarnings("ignore:overflow", "ignore:invalid value")
    def test_divergence_aborts_with_report(self, tiny_corpus):
        cfg = train_config(tiny_corpus, lr=1e200, clip_norm=0.0, epochs=3)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        with pytest.raises(ad.NumericError, match="epoch"):
            train(model, tiny_corpus, cfg)

    def test_non_finite_gradient_stops_its_own_step(self, tiny_corpus, monkeypatch):
        cfg = train_config(tiny_corpus, epochs=1)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        calls, before = [], {}
        real_backward = ad.backward

        def poisoned(loss):
            real_backward(loss)
            calls.append(1)
            if len(calls) == 3:
                before.update((name, p.data.copy()) for name, p in model.params.items())
                p = next(p for p in model.params.values() if p.grad is not None)
                p.grad = p.grad.copy()
                p.grad.flat[0] = np.inf

        monkeypatch.setattr(ad, "backward", poisoned)
        with pytest.raises(ad.NumericError, match="^non-finite gradient at epoch 1 step 2$"):
            train(model, tiny_corpus, cfg)
        assert len(calls) == 3
        for name, p in model.params.items():
            assert np.array_equal(p.data, before[name]), name

    def test_log_and_best_params(self, tiny_corpus):
        cfg = train_config(tiny_corpus, epochs=3)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        log, best = train(model, tiny_corpus, cfg)
        assert [e["epoch"] for e in log] == [1, 2, 3]
        assert all(e["syd_loss"] is not None for e in log)
        assert set(best) == set(model.params)
        assert log[-1]["valid_ppl"] < np.exp(log[0]["lm_loss"]) * 1.5
        assert "averaged_valid_ppl" not in log[-1]

    def test_averaging_runs(self, tiny_corpus):
        cfg = train_config(tiny_corpus, epochs=4, averaging=True, average_from_epoch=3)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        log, best = train(model, tiny_corpus, cfg)
        for name, param in model.params.items():
            assert np.array_equal(best[name], param.data)
        ppl, _ = validation_pass(model, tiny_corpus, cfg.batch_size, cfg.bptt_length, "gold")
        assert log[-1]["averaged_valid_ppl"] == ppl != log[-1]["valid_ppl"]

    def _forward_calls(self, tiny_corpus, monkeypatch, **kw):
        """(forward calls made by train, training batches, validation batches)."""
        valid = preprocess_corpus(pcfg_treebank(8, seed=12), PreprocessRules(vocab_max_size=60),
                                  vocab=tiny_corpus.vocab)
        cfg = train_config(tiny_corpus, epochs=1, **kw)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        calls = []
        forward = OnLstmLM.forward

        def counted(self, *args, **kwargs):
            calls.append(1)
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(OnLstmLM, "forward", counted)
        train(model, tiny_corpus, cfg, valid)
        n_train = len(list(bptt_batches(tiny_corpus, cfg.batch_size, cfg.bptt_length)))
        n_valid = len(list(bptt_batches(valid, cfg.batch_size, cfg.bptt_length)))
        return len(calls), n_train, n_valid

    def test_one_forward_per_train_and_validation_batch(self, tiny_corpus, monkeypatch):
        calls, n_train, n_valid = self._forward_calls(tiny_corpus, monkeypatch)
        assert calls == n_train + n_valid

    def test_averaging_adds_one_validation_pass(self, tiny_corpus, monkeypatch):
        calls, n_train, n_valid = self._forward_calls(tiny_corpus, monkeypatch, averaging=True,
                                                      average_from_epoch=1)
        assert calls == n_train + 2 * n_valid

    def test_step_graph_unreachable_at_next_forward(self, tiny_corpus, monkeypatch):
        # each forward after the first starts with no earlier step's tape alive
        cfg = train_config(tiny_corpus, epochs=2)
        model = OnLstmLM(cfg.model, seed=cfg.seed)
        live = []
        forward = OnLstmLM.forward

        def counted(self, *args, **kwargs):
            gc.collect()
            live.append(sum(isinstance(o, ad._Node) for o in gc.get_objects()))
            return forward(self, *args, **kwargs)

        monkeypatch.setattr(OnLstmLM, "forward", counted)
        train(model, tiny_corpus, cfg)
        assert len(live) > 2
        assert live[1:] == [live[0]] * (len(live) - 1)

    @pytest.mark.parametrize("family", [
        dict(model="onlstm-syd"), dict(model="prpn-syd", prpn_ff_hidden=8),
    ], ids=lambda f: f["model"])
    def test_logits_die_before_the_sweep(self, tiny_corpus, monkeypatch, family):
        # no bwd reads the logits, so train drops the forward's output first
        cfg = train_config(tiny_corpus, epochs=1, dropout_output=0.2)
        cfg.model = dataclasses.replace(cfg.model, **family)
        model = build_model(cfg.model, seed=cfg.seed)
        logits, dead_at_sweep = [], []
        forward, sweep = type(model).forward, ad.backward

        def keeping_a_weakref(self, *args, **kwargs):
            out = forward(self, *args, **kwargs)
            logits[:] = [weakref.ref(out.logits.data)]
            return out

        def checked(loss):
            dead_at_sweep.append(logits[0]() is None)
            return sweep(loss)

        monkeypatch.setattr(type(model), "forward", keeping_a_weakref)
        monkeypatch.setattr(ad, "backward", checked)
        train(model, tiny_corpus, cfg)
        assert len(dead_at_sweep) > 1 and all(dead_at_sweep)

    def test_validation_pass_gives_both_views(self, tiny_corpus):
        cfg = train_config(tiny_corpus)
        model = OnLstmLM(cfg.model, seed=4)
        ppl, acc = validation_pass(model, tiny_corpus, 4, 10, "gold")
        assert ppl == perplexity(model, tiny_corpus, 4, 10)
        assert acc is not None and acc == supervised_pair_accuracy(model, tiny_corpus, 4, 10)
        assert validation_pass(model, tiny_corpus, 4, 10, "none") == (ppl, None)

    def test_config_invariant_enforced(self, tiny_corpus):
        cfg = train_config(tiny_corpus, tree_source="none")  # mode stays split-head
        with pytest.raises(ConfigError):
            cfg.validate()

    @pytest.mark.parametrize("settings,needle", [
        (dict(averaging=True, average_from_epoch=20), "average_from_epoch 20 outside"),
        (dict(averaging=True, average_from_epoch=-3), "average_from_epoch -3 outside"),
        (dict(average_from_epoch=2), "averaging is off"),
        (dict(lr=-1.0), "lr must be positive"),
        (dict(lr=float("nan")), "lr must be positive"),
        (dict(alpha=float("nan")), "alpha must be >= 0"),
        (dict(lr_decay=0.0), "lr_decay"),
        (dict(lr_decay=1.5), "lr_decay"),
        (dict(lr_patience=-1), "lr_patience"),
    ], ids=["average-after-last-epoch", "average-before-first-epoch", "average-without-averaging",
            "negative-lr", "nan-lr", "nan-alpha", "zero-lr-decay", "growing-lr-decay", "negative-patience"])
    def test_silently_wrong_settings_rejected(self, tiny_corpus, settings, needle):
        cfg = train_config(tiny_corpus, **settings)  # three epochs
        with pytest.raises(ConfigError, match=needle):
            cfg.validate()

    def test_one_layer_tied_onlstm_rejects_an_unused_hidden_size(self):
        # the only layer of a tied one-layer ON-LSTM has embedding_size units
        cfg = ModelConfig(vocab_size=5, n_layers=1, supervision_layer=1, hidden_size=12,
                          embedding_size=8)
        with pytest.raises(ConfigError, match="hidden_size 12 .* embedding_size 8 .* untie"):
            cfg.validate()
        for ok in (dict(hidden_size=8), dict(tie_embeddings=False), dict(n_layers=2),
                   dict(model="prpn-syd")):
            dataclasses.replace(cfg, **ok).validate()

    def test_infinite_clip_norm_means_no_clipping(self, tiny_corpus):
        # lr, alpha and prpn_temperature must be finite; clip_norm need not be
        cfg = train_config(tiny_corpus, clip_norm=float("inf"))
        cfg.validate()
        p = Tensor(np.zeros(2), requires_grad=True)
        p.grad = np.array([3e100, 4e100])
        assert _global_clip([p], cfg.clip_norm) == 1.0


class TestOptimizedTreeEquality:
    def test_descent_recovers_gold_tree(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            n = int(rng.integers(4, 10))
            gold = rng.permutation(np.arange(1.0, n + 1))
            d_w = Tensor(rng.uniform(0, 1, size=n), requires_grad=True)
            groups = np.zeros(n, dtype=np.int64)
            for _ in range(500):
                d_w.grad = None
                with Tape():
                    loss = ranking_loss(d_w, gold, groups, "symmetric")
                    if float(loss.data) < 1e-9:
                        break
                    backward(loss)
                d_w.data -= 1.0 * d_w.grad
            words = ["w%d" % k for k in range(n + 1)]
            assert (distances_to_tree_unbiased(d_w.data, words).shape()
                    == distances_to_tree_unbiased(gold, words).shape())


# the seven configurations of tools/trajectory_digest.py
DIGEST_ONLSTM = dict(model="onlstm-syd", n_layers=3, chunk_factor=2, supervision_layer=2)
DIGEST_CONFIGS = {
    **{"onlstm-syd/" + mode: dict(DIGEST_ONLSTM, supervision_mode=mode)
       for mode in ("none", "split-head", "one-set-of-trees", "vanilla-multitask")},
    "onlstm-syd/split-head/untied": dict(DIGEST_ONLSTM, supervision_mode="split-head",
                                         tie_embeddings=False),
    "prpn-syd/split-head": dict(model="prpn-syd", supervision_mode="split-head"),
    "prpn": dict(model="prpn", supervision_mode="none"),
}


class TestEveryParameterTrains:
    @pytest.mark.parametrize("fields", DIGEST_CONFIGS.values(), ids=DIGEST_CONFIGS.keys())
    def test_one_step_moves_every_parameter(self, tiny_corpus, fields):
        # a parameter whose gradient is zero in exact arithmetic, such as a
        # bias added to a whole distance stream that is read only through
        # differences, gets rounding noise many orders below the rest
        model_cfg = ModelConfig(vocab_size=len(tiny_corpus.vocab), embedding_size=8, hidden_size=12,
                                **fields)
        supervised = model_cfg.supervision_mode != "none"
        cfg = TrainConfig(model=model_cfg, batch_size=4, bptt_length=10,
                          tree_source="gold" if supervised else "none")
        model = build_model(model_cfg, seed=cfg.seed)
        batch = next(bptt_batches(tiny_corpus, cfg.batch_size, cfg.bptt_length, cfg.tree_source, cfg.seed))
        assert (batch.sent_id >= 0).any() == supervised
        with Tape():
            out = model.forward(batch.inputs, None, rng=np.random.default_rng(cfg.seed), train_cfg=cfg)
            l_lm = lm_loss(out.logits, batch.targets.reshape(-1), batch.target_weight.reshape(-1))
            l_syd = None
            if supervised:
                l_syd = ranking_loss(out.d_syd, batch.gold_d.reshape(-1), batch.sent_id.reshape(-1))
            backward(joint_loss(l_lm, l_syd, cfg.alpha))
        largest = {name: 0.0 if p.grad is None else float(np.abs(p.grad).max())
                   for name, p in model.params.items()}
        step_max = max(largest.values())
        assert step_max > 0
        assert [name for name, g in largest.items() if not g > 1e-12 * step_max] == []
