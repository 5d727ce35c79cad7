import contextlib

import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm.autodiff import Tape, Tensor, backward, grad_check
from sydlm.config import ModelConfig, TrainConfig
from sydlm.corpus import PreprocessRules, preprocess_corpus
from sydlm.distance import distances_to_tree_unbiased
from sydlm.onlstm import OnLstmLM, extract_distance, onlstm_layer, onlstm_step, syd_head
from sydlm.training import bptt_batches, lm_loss
from sydlm.trees import parse_bracketed

from conftest import bwd_arrays, root, tree_shape


def make_step_inputs(hidden, chunk, in_dim=5, batch=2, seed=0, bias_override=None):
    rng = np.random.default_rng(seed)
    d_m = hidden // chunk
    width = 4 * hidden + 2 * d_m
    weight = Tensor(rng.uniform(-0.4, 0.4, size=(in_dim + hidden, width)))
    bias = Tensor(bias_override if bias_override is not None else rng.uniform(-0.2, 0.2, size=width))
    x = Tensor(rng.normal(size=(batch, in_dim)))
    h = Tensor(rng.normal(size=(batch, hidden)) * 0.3)
    c = Tensor(rng.normal(size=(batch, hidden)) * 0.3)
    return x, h, c, weight, bias


class TestStepLimits:
    def test_master_gates_saturated_open_recovers_vanilla(self):
        # mass on the first master-forget logit -> f~ = 1 everywhere; mass on
        # the last master-input logit -> i~ = 1 except its pinned last unit
        hidden, chunk = 4, 1
        bias = np.zeros(4 * hidden + 2 * hidden)
        rng = np.random.default_rng(1)
        bias[: 4 * hidden] = rng.uniform(-1, 1, size=4 * hidden)
        bias[4 * hidden] = 60.0                      # master forget logits
        bias[4 * hidden + hidden + hidden - 1] = 60.0  # master input logits
        x, h, c, weight, _ = make_step_inputs(hidden, chunk, seed=1)
        weight = Tensor(np.zeros_like(weight.data))  # pre-activation = bias
        out = onlstm_step(x, h, c, weight, Tensor(bias), hidden, chunk)
        f = 1.0 / (1.0 + np.exp(-bias[:hidden]))
        i = 1.0 / (1.0 + np.exp(-bias[hidden : 2 * hidden]))
        o = 1.0 / (1.0 + np.exp(-bias[2 * hidden : 3 * hidden]))
        c_hat = np.tanh(bias[3 * hidden : 4 * hidden])
        c_expect = f * c.data + i * c_hat
        # all but the boundary unit follow the vanilla LSTM update exactly
        assert np.allclose(out.c.data[:, :-1], c_expect[:, :-1], atol=1e-9)
        assert np.allclose(out.h.data[:, :-1], (o * np.tanh(c_expect))[:, :-1], atol=1e-9)

    def test_master_gates_closed_copies_cell(self):
        # f~ -> all ones and i~ -> all zeros: c_t = c_{t-1}
        hidden, chunk = 4, 1
        bias = np.zeros(4 * hidden + 2 * hidden)
        bias[4 * hidden] = 60.0       # f~ = 1 everywhere
        bias[4 * hidden + hidden] = 60.0  # cumax(hi) = 1 everywhere -> i~ = 0
        x, h, c, weight, _ = make_step_inputs(hidden, chunk, seed=2)
        weight = Tensor(np.zeros_like(weight.data))
        out = onlstm_step(x, h, c, weight, Tensor(bias), hidden, chunk)
        assert np.allclose(out.c.data, c.data, atol=1e-9)

    @pytest.mark.parametrize("chunk", [1, 2])
    def test_full_step_gradients(self, chunk):
        hidden = 8
        d_m = hidden // chunk
        rng = np.random.default_rng(7)
        x, h, c, weight, bias = make_step_inputs(hidden, chunk, seed=7)
        w_s = Tensor(rng.uniform(-0.5, 0.5, size=(d_m, d_m)))
        b_s = Tensor(rng.uniform(-0.1, 0.1, size=d_m))
        mix_h = Tensor(rng.normal(size=h.shape))
        mix_c = Tensor(rng.normal(size=c.shape))
        mix_d = Tensor(rng.normal(size=(2,)))

        def loss_from(**kw):
            args = {"x": x, "h": h, "c": c, "weight": weight, "bias": bias}
            args.update(kw)
            out = onlstm_step(args["x"], args["h"], args["c"], args["weight"], args["bias"],
                              hidden, chunk)
            d_lm = extract_distance(out.master_forget)
            d_syd = syd_head(out.hf_pre, args.get("w_s", w_s), args.get("b_s", b_s))
            return (ad.tsum(out.h * mix_h) + ad.tsum(out.c * mix_c)
                    + ad.tsum(d_lm * mix_d) + ad.tsum(d_syd * mix_d))

        for name in ("x", "h", "c", "weight", "bias", "w_s", "b_s"):
            tensor = {"x": x, "h": h, "c": c, "weight": weight, "bias": bias,
                      "w_s": w_s, "b_s": b_s}[name]
            err = grad_check(lambda t, _n=name: loss_from(**{_n: t}), tensor)
            assert err < 1e-4, (name, err)


class TestExtractDistance:
    def test_hand_values(self):
        assert np.isclose(extract_distance(Tensor(np.array([0.1, 0.3, 0.6, 1.0]))).data, 2.0)
        assert np.isclose(extract_distance(Tensor(np.array([0.25, 0.5, 0.75, 1.0]))).data, 1.5)

    def test_all_ones_gives_zero(self):
        assert np.isclose(extract_distance(Tensor(np.ones(6))).data, 0.0)

    def test_batched(self):
        d = extract_distance(Tensor(np.array([[0.5, 1.0], [1.0, 1.0]])))
        assert np.allclose(d.data, [0.5, 0.0])


class TestSydHead:
    def test_identity_head_matches_lm_gate_bitwise(self):
        rng = np.random.default_rng(0)
        pre = Tensor(rng.normal(size=(3, 5)))
        w_s, b_s = Tensor(np.eye(5)), Tensor(np.zeros(5))
        d_w = syd_head(pre, w_s, b_s)
        f_lm = ad.cumax(pre)
        f_w = ad.cumax(ad.matmul(pre, w_s) + b_s)  # the head's gate, as syd_head forms it
        assert np.array_equal(f_lm.data, f_w.data)
        assert np.array_equal(d_w.data, extract_distance(f_lm).data)

    def test_zero_head_constant_distances(self):
        rng = np.random.default_rng(1)
        b_s = Tensor(rng.normal(size=4))
        d_vals = []
        for _ in range(5):
            pre = Tensor(rng.normal(size=(1, 4)))
            d_w = syd_head(pre, Tensor(np.zeros((4, 4))), b_s)
            d_vals.append(float(d_w.data[0]))
        assert np.allclose(d_vals, d_vals[0])

    def test_gradient_through_head_weight(self):
        rng = np.random.default_rng(2)
        pre = Tensor(rng.normal(size=(2, 4)))
        mix = Tensor(rng.normal(size=2))
        err = grad_check(
            lambda t: ad.tsum(syd_head(pre, t, Tensor(np.zeros(4))) * mix),
            Tensor(rng.uniform(-0.5, 0.5, size=(4, 4))))
        assert err < 1e-4


def small_config(**kw):
    base = dict(vocab_size=9, model="onlstm-syd", n_layers=2, embedding_size=8,
                hidden_size=8, supervision_layer=2, supervision_mode="split-head")
    base.update(kw)
    return ModelConfig(**base)


class TestForwardLm:
    def test_zero_weights_uniform_distribution(self):
        from sydlm.evaluation import perplexity

        text = "(S (NN a) (NN b) (NN c))" * 4
        corpus = preprocess_corpus(parse_bracketed(text),
                                   PreprocessRules(vocab_max_size=3, mode="concat"))
        assert len(corpus.vocab) == 3
        model = OnLstmLM(ModelConfig(vocab_size=3, model="onlstm-syd", n_layers=1,
                                     embedding_size=4, hidden_size=4, supervision_layer=1,
                                     supervision_mode="none"), seed=0)
        for p in model.params.values():
            p.data[:] = 0.0
        out = model.forward(np.array([[0], [1], [2]]))
        assert np.allclose(out.logits.data, 0.0)
        assert np.isclose(perplexity(model, corpus), 3.0)

    def test_identical_columns_identical_logits(self):
        model = OnLstmLM(small_config(), seed=5)
        col = np.array([1, 3, 5, 2])
        inputs = np.stack([col, col], axis=1)
        out = model.forward(inputs)
        logits = out.logits.data.reshape(4, 2, 9)
        assert np.array_equal(logits[:, 0], logits[:, 1])

    def test_out_of_range_id_rejected(self):
        model = OnLstmLM(small_config(), seed=5)
        with pytest.raises(ad.ShapeError):
            model.forward(np.array([[42]]))

    def test_monotone_master_gates_fuzz(self):
        hidden, chunk = 6, 1
        rng = np.random.default_rng(11)
        x, h, c, weight, bias = make_step_inputs(hidden, chunk, in_dim=4, batch=1000, seed=11)
        out = onlstm_step(x, h, c, weight, bias, hidden, chunk)
        assert (np.diff(out.master_forget.data, axis=-1) >= -1e-12).all()
        # the step keeps no master input gate; derive it from the same preactivation
        pre = np.concatenate([x.data, h.data], axis=1) @ weight.data + bias.data
        master_input = 1.0 - ad.cumax(Tensor(pre[:, 4 * hidden + hidden // chunk :])).data
        assert (np.diff(master_input, axis=-1) <= 1e-12).all()
        assert ((out.master_forget.data > 0) & (out.master_forget.data <= 1 + 1e-12)).all()
        d_lm = extract_distance(out.master_forget)
        assert d_lm.data.min() > 0 and d_lm.data.max() < hidden

    def test_supervision_layer_selects_stream(self):
        model = OnLstmLM(small_config(supervision_layer=1), seed=3)
        model.set_identity_split_head()
        out = model.forward(np.array([[1, 2], [3, 4]]))
        assert np.array_equal(out.d_syd.data, out.d_lm[0].data)
        assert not np.array_equal(out.d_syd.data, out.d_lm[1].data)


class TestDegeneracies:
    def test_disabled_head_matches_plain_forward_bitwise(self):
        inputs = np.array([[1, 2, 3], [4, 5, 6], [7, 8, 0]])
        out_split = OnLstmLM(small_config(), seed=9).forward(inputs)
        out_plain = OnLstmLM(small_config(supervision_mode="none"), seed=9).forward(inputs)
        assert np.array_equal(out_split.logits.data, out_plain.logits.data)
        for a, b in zip(out_split.d_lm, out_plain.d_lm):
            assert np.array_equal(a.data, b.data)
        assert out_plain.d_syd is None and out_split.d_syd is not None

    def test_identity_split_head_equalizes_streams(self):
        model = OnLstmLM(small_config(), seed=4)
        model.set_identity_split_head()
        out = model.forward(np.array([[1, 2], [3, 4], [5, 6]]))
        assert np.array_equal(out.d_syd.data, out.d_lm[1].data)

    def test_one_set_mode_reuses_lm_stream(self):
        model = OnLstmLM(small_config(supervision_mode="one-set-of-trees"), seed=4)
        out = model.forward(np.array([[1], [2]]))
        assert np.array_equal(out.d_syd.data, out.d_lm[1].data)

    def test_supervised_read_out_runs_once_per_window(self):
        # the split head adds the same tape nodes at any window length
        def nodes(mode, t_len):
            model = OnLstmLM(small_config(supervision_mode=mode), seed=9)
            with Tape() as tape:
                model.forward(np.ones((t_len, 2), dtype=np.int64))
            return len(tape)

        assert (nodes("split-head", 4) - nodes("none", 4)
                == nodes("split-head", 8) - nodes("none", 8))

    @pytest.mark.parametrize("mode", ["none", "split-head", "one-set-of-trees", "vanilla-multitask"])
    def test_hf_pre_window_only_for_the_split_head(self, mode):
        # each layer windows h and its master forget gates; only the split
        # head reads hf_pre, and only at the supervision layer
        t_len = 7
        model = OnLstmLM(small_config(supervision_mode=mode), seed=9)
        with Tape() as tape:
            model.forward(np.ones((t_len, 2), dtype=np.int64))
        windows = [n for n in tape.nodes
                   if n.bwd.__qualname__.startswith("concat.") and len(n.parents) == t_len]
        assert len(windows) == 2 * 2 + (mode == "split-head")

    def test_vanilla_multitask_has_own_stream(self):
        model = OnLstmLM(small_config(supervision_mode="vanilla-multitask"), seed=4)
        out = model.forward(np.array([[1], [2]]))
        assert out.d_syd is not None
        assert not np.array_equal(out.d_syd.data, out.d_lm[1].data)


class TestOrderingComposition:
    def test_distances_from_gates_build_rank_tree(self):
        # hand-built master forget gates with distinct masses
        gates = [
            np.array([0.1, 0.2, 0.9, 1.0]),  # d = 4 - 2.2 = 1.8
            np.array([0.1, 0.1, 0.2, 1.0]),  # d = 2.6
            np.array([0.5, 0.9, 1.0, 1.0]),  # d = 0.6
            np.array([0.05, 0.1, 0.15, 1.0]),  # d = 2.7
        ]
        d = np.array([float(extract_distance(Tensor(g)).data) for g in gates])
        words = list("abcde")
        tree = distances_to_tree_unbiased(d, words)
        ranks = np.argsort(np.argsort(d)) + 1.0
        assert tree_shape(distances_to_tree_unbiased(ranks, words)) == tree_shape(tree)
        # highest distance (slot 3) is the top split
        assert tree.children[0].n_leaves() == 4


class TestLayerKernel:
    @pytest.mark.parametrize("chunk", [1, 2])
    @pytest.mark.parametrize("masked", [False, True])
    def test_equals_step_loop_bitwise(self, chunk, masked):
        hidden, t_len, batch, in_dim = 8, 6, 3, 5
        _, h0, c0, weight, bias = make_step_inputs(hidden, chunk, in_dim=in_dim, batch=batch, seed=3)
        rng = np.random.default_rng(4)
        x_seq = rng.normal(size=(t_len, batch, in_dim))
        mask = (rng.random((batch, hidden)) >= 0.4) / 0.6 if masked else None
        h, c = h0, c0
        steps = []
        for t in range(t_len):
            h_in = h * Tensor(mask) if masked else h
            out = onlstm_step(Tensor(x_seq[t]), h_in, c, weight, bias, hidden, chunk)
            h, c = out.h, out.c
            steps.append(out)
        h_seq, c_seq, forget_seq, pre_seq = onlstm_layer(
            x_seq, h0.data, c0.data, weight.data, bias.data, hidden, chunk, mask)
        for got, field in ((h_seq, "h"), (c_seq, "c"), (forget_seq, "master_forget"),
                           (pre_seq, "hf_pre")):
            assert np.array_equal(got, np.stack([getattr(o, field).data for o in steps])), field


class TestUntapedForward:
    @pytest.mark.parametrize("mode", ["split-head", "none", "one-set-of-trees", "vanilla-multitask"])
    @pytest.mark.parametrize("sup_layer", [1, 2])
    def test_equals_taped_forward_bitwise(self, mode, sup_layer):
        # chunk 2, and the supervision layer below the top one or at it; the
        # dropout masks come from equally seeded generators on both sides
        cfg = small_config(n_layers=2, hidden_size=8, chunk_factor=2, supervision_mode=mode,
                           supervision_layer=sup_layer)
        train_cfg = TrainConfig(model=cfg, tree_source="none" if mode == "none" else "gold")
        model = OnLstmLM(cfg, seed=6)
        inputs = np.random.default_rng(7).integers(0, cfg.vocab_size, size=(5, 3))
        state = [(h + 0.1, c - 0.2) for h, c in model.init_state(3)]
        untaped = model.forward(inputs, state, rng=np.random.default_rng(8), train_cfg=train_cfg)
        with Tape() as tape:
            taped = model.forward(inputs, state, rng=np.random.default_rng(8), train_cfg=train_cfg)
        assert len(tape) > 0
        assert np.array_equal(untaped.logits.data, taped.logits.data)
        for a, b in zip(untaped.d_lm, taped.d_lm, strict=True):
            assert np.array_equal(a.data, b.data)
        assert (untaped.d_syd is None) == (taped.d_syd is None) == (mode == "none")
        if mode != "none":
            assert np.array_equal(untaped.d_syd.data, taped.d_syd.data)
        for (h1, c1), (h2, c2) in zip(untaped.state, taped.state, strict=True):
            assert np.array_equal(h1, h2) and np.array_equal(c1, c2)

    @pytest.mark.parametrize("taped", [False, True])
    def test_non_finite_state_names_first_step_and_layer(self, taped):
        model = OnLstmLM(small_config(n_layers=3, supervision_layer=3), seed=2)
        model.params["layer1.W"].data[0, 0] = np.nan
        with Tape() if taped else contextlib.nullcontext():
            with pytest.raises(ad.NumericError, match="^non-finite hidden state at step 0, layer 2$"):
                model.forward(np.array([[1, 2], [3, 4]]))


class TestFusedGateParameters:
    @pytest.mark.parametrize("chunk", [1, 2])
    def test_gate_matrix_holds_the_six_gate_draws(self, chunk):
        # replay the init generator: the embedding, then per layer one draw
        # per gate (f, i, o, c, mf, mi), then the split head
        cfg = small_config(n_layers=3, embedding_size=4, hidden_size=6, supervision_layer=3, chunk_factor=chunk)
        model = OnLstmLM(cfg, seed=5)
        rng = np.random.default_rng(5)
        rng.uniform(-0.1, 0.1, size=(cfg.vocab_size, cfg.embedding_size))
        for layer in range(cfg.n_layers):
            hidden = cfg.layer_hidden(layer)
            n_in, scale, d_m = cfg.layer_input(layer) + hidden, 1.0 / np.sqrt(hidden), hidden // chunk
            blocks = [rng.uniform(-scale, scale, size=(n_in, width)) for width in (hidden,) * 4 + (d_m,) * 2]
            assert model.params["layer%d.W" % layer].data.tobytes() == np.concatenate(blocks, axis=1).tobytes()
            assert model.params["layer%d.b" % layer].data.tobytes() == bytes(8 * (4 * hidden + 2 * d_m))
        scale = 1.0 / np.sqrt(4 // chunk)
        assert np.array_equal(model.params["W_s"].data, rng.uniform(-scale, scale, size=(4 // chunk, 4 // chunk)))

    def test_taped_forward_copies_no_gate_matrix(self):
        # the step multiplies by the stored matrix: no node rebuilds it, and
        # every gate-matrix-shaped array the backward closures hold is the
        # stored one
        model = OnLstmLM(small_config(), seed=3)
        weights = [model.params["layer%d.W" % layer].data for layer in range(2)]
        shapes = {w.shape for w in weights}
        with Tape() as tape:
            model.forward(np.ones((4, 3), dtype=np.int64))
        assert len(tape) > 0
        assert not [n for n in tape.nodes if n.shape in shapes]
        held = [a for _, a in bwd_arrays(tape) if a.shape in shapes]
        assert held and all(any(root(a) is w for w in weights) for a in held)


class TestToyOverfit:
    def test_two_layer_memorizes_small_stream(self):
        text = """
        (S (NP (DT the) (NN cat)) (VP (VBZ sees) (NP (DT a) (NN dog))))
        (S (NP (DT a) (NN bird)) (VP (VBZ likes) (NP (DT the) (NN fish))))
        (S (NP (DT the) (NN man)) (VP (VBZ finds) (NP (DT a) (NN tree))))
        (S (NN rain))
        """
        corpus = preprocess_corpus(parse_bracketed(text),
                                   PreprocessRules(vocab_max_size=30, mode="concat"))
        assert len(corpus.tokens) == 20
        model = OnLstmLM(ModelConfig(vocab_size=len(corpus.vocab), model="onlstm-syd",
                                     n_layers=2, embedding_size=24, hidden_size=24,
                                     supervision_layer=2, supervision_mode="none"), seed=3)
        params = list(model.params.values())
        batches = list(bptt_batches(corpus, 1, 10, tree_source="none"))
        lr, clip = 2.0, 0.5
        state = None
        ce = float("inf")
        steps = 0
        while steps < 2000 and ce > 0.009:
            for batch in batches:
                if not batch.carry_state:
                    state = None
                with Tape():
                    out = model.forward(batch.inputs, state)
                    loss = lm_loss(out, batch.targets.reshape(-1), batch.target_weight.reshape(-1))
                    backward(loss)
                norm = np.sqrt(sum(float((p.grad ** 2).sum()) for p in params if p.grad is not None))
                coef = min(1.0, clip / norm) if norm > clip else 1.0
                for p in params:
                    if p.grad is not None:
                        p.data -= lr * coef * p.grad
                model.zero_grad()
                state = out.state
                ce = float(loss.data)
                steps += 1
        assert steps < 2000 and ce < 0.01, (steps, ce)
        from sydlm.evaluation import perplexity

        assert perplexity(model, corpus, batch_size=1, bptt_length=10) < 1.1
