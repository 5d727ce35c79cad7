import math
import warnings

import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm.autodiff import Tape, Tensor, backward, grad_check
from sydlm.config import ConfigError, ModelConfig, TrainConfig
from sydlm.models import window
from sydlm.prpn import (PrpnLM, gated_attention, lstm_cell, parsing_gates, prpn_distances,
                        relatedness_alpha, window_gates)
from sydlm.training import _pair_agreement, lm_loss, ranking_loss

from conftest import bwd_arrays, root


class TestRelatednessAlpha:
    def test_equal_distances_give_half(self):
        out = relatedness_alpha(Tensor(np.array([2.0])), Tensor(np.array([2.0])), tau=10.0)
        assert np.isclose(out.data, 0.5)

    def test_saturation_high(self):
        out = relatedness_alpha(Tensor(np.array([1.0])), Tensor(np.array([0.0])), tau=2.0)
        assert np.isclose(out.data, 1.0)

    def test_saturation_low(self):
        out = relatedness_alpha(Tensor(np.array([0.0])), Tensor(np.array([1.0])), tau=2.0)
        assert np.isclose(out.data, 0.0)

    def test_temperature_positive(self):
        with pytest.raises(ValueError):
            relatedness_alpha(Tensor(np.ones(1)), Tensor(np.ones(1)), tau=0.0)


class TestParsingGates:
    def test_all_ones(self):
        gates = parsing_gates(Tensor(np.ones(3)))
        assert np.allclose(gates.data, 1.0)
        assert gates.shape == (4,)

    def test_zero_alpha_cuts_history(self):
        gates = parsing_gates(Tensor(np.array([0.0, 1.0])))
        assert np.allclose(gates.data, [0.0, 1.0, 1.0])

    def test_hand_product(self):
        gates = parsing_gates(Tensor(np.array([0.5, 0.5])))
        assert np.allclose(gates.data, [0.25, 0.5, 1.0])

    def test_empty_product_is_one(self):
        gates = parsing_gates(Tensor(np.zeros((2, 0))))
        assert gates.shape == (2, 1)
        assert np.allclose(gates.data, 1.0)

    def test_monotone_and_bounded(self):
        rng = np.random.default_rng(0)
        alphas = rng.uniform(0, 1, size=(50, 7))
        gates = parsing_gates(Tensor(alphas)).data
        assert ((gates >= 0) & (gates <= 1)).all()
        assert (np.diff(gates, axis=-1) >= -1e-15).all()

    def test_gradient(self):
        rng = np.random.default_rng(1)
        mix = Tensor(rng.normal(size=(2, 5)))
        err = grad_check(lambda t: ad.tsum(parsing_gates(t) * mix),
                         Tensor(rng.uniform(0.1, 0.9, size=(2, 4))))
        assert err < 1e-4


class TestWindowGates:
    @pytest.mark.parametrize("t_len", [1, 2, 7])
    def test_rows_equal_per_step_gates_bitwise(self, t_len):
        rng = np.random.default_rng(t_len)
        d_all = rng.normal(size=(t_len, 3))
        d_all[t_len // 2] += 5.0  # a distance far above the rest saturates alphas at 0 and 1
        tau = 2.0
        gate_rows = window_gates(Tensor(d_all), tau)
        assert gate_rows.shape == (t_len, 3, t_len)
        d_row = Tensor(d_all.T.copy())
        zeros = 0
        for t in range(1, t_len):
            alphas = relatedness_alpha(d_row[:, t : t + 1], d_row[:, 1:t], tau)
            zeros += int((alphas.data == 0.0).sum())
            assert np.array_equal(gate_rows.data[t, :, :t], parsing_gates(alphas).data), t
            assert (gate_rows.data[t, :, t:] == 1.0).all()
        if t_len == 7:
            assert zeros > 0


    @pytest.mark.parametrize("t_len", [2, 7])
    def test_transpose_is_one_gather(self, t_len):
        # against the transpose built from T row slices, T reshapes, a concat,
        # a slice and a reshape: 2T+2 fewer nodes, the same gates and the same
        # adjoint of the distances, bitwise
        def by_rows(d_all, tau):
            batch = d_all.shape[1]
            d_row = ad.concat([ad.reshape(d_all[t], (batch, 1)) for t in range(t_len)], axis=1)
            later = np.arange(1, t_len)[None, :] >= np.arange(t_len)[:, None]
            d_t = ad.reshape(d_all, (t_len, batch, 1)) + np.where(later, np.inf, 0.0)[:, None, :]
            d_j = ad.reshape(d_row[:, 1:], (1, batch, t_len - 1))
            return parsing_gates(relatedness_alpha(d_t, d_j, tau))

        rng = np.random.default_rng(t_len)
        d_all = rng.normal(size=(t_len, 3))
        mix = rng.normal(size=(t_len, 3, t_len))
        runs = []
        for build in (window_gates, by_rows):
            d = Tensor(d_all.copy(), requires_grad=True)
            with Tape() as tape:
                gates = build(d, 2.0)
                nodes = len(tape)
                backward(ad.tsum(gates * mix))
            runs.append((nodes, gates.data.tobytes(), d.grad.tobytes()))
        (n_gather, *gathered), (n_rows, *rowwise) = runs
        assert n_gather == n_rows - (2 * t_len + 2)
        assert gathered == rowwise


class TestGatedAttention:
    def test_uniform_gates_average(self):
        z = np.array([0.1, 0.5, 0.4])
        s = gated_attention(Tensor(np.ones(3)), Tensor(z))
        assert np.allclose(s.data, z / 3.0)

    def test_single_live_gate(self):
        s = gated_attention(Tensor(np.array([0.0, 0.25, 0.0])), Tensor(np.array([0.3, 0.6, 0.1])))
        assert np.allclose(s.data, [0.0, 0.6, 0.0])

    def test_normalization_identity(self):
        rng = np.random.default_rng(2)
        g = rng.uniform(0, 1, size=(20, 6))
        z = rng.uniform(0, 1, size=(20, 6))
        s = gated_attention(Tensor(g), Tensor(z)).data
        assert (s >= 0).all()
        assert np.allclose(s.sum(-1), (g * z).sum(-1) / g.sum(-1))

    def test_gradient(self):
        rng = np.random.default_rng(3)
        z = Tensor(rng.uniform(0.1, 1.0, size=(2, 5)))
        mix = Tensor(rng.normal(size=(2, 5)))
        err = grad_check(lambda t: ad.tsum(gated_attention(t, z) * mix),
                         Tensor(rng.uniform(0.2, 1.0, size=(2, 5))))
        assert err < 1e-4


def encoder_model(seed=0, supervision="split-head"):
    cfg = ModelConfig(vocab_size=11, model="prpn-syd", embedding_size=6, hidden_size=6,
                      supervision_mode=supervision, prpn_ff_hidden=5, prpn_conv_window=2,
                      supervision_layer=1, n_layers=1)
    return PrpnLM(cfg, seed=seed)


def conv_model(seed=0, lookback=3):
    cfg = ModelConfig(vocab_size=11, model="prpn", embedding_size=6, hidden_size=6,
                      supervision_mode="none", prpn_lookback=lookback,
                      supervision_layer=1, n_layers=1)
    return PrpnLM(cfg, seed=seed)


class TestConvParsingNetwork:
    def test_zero_output_weights_give_zero_distances(self):
        model = conv_model(seed=4)
        model.w_d.data[:] = 0.0
        model.b_d.data[:] = 0.0
        out = model.forward(np.array([[1, 2], [3, 4], [5, 6]]))
        assert np.allclose(out.d_lm[0].data, 0.0)

    def test_distances_nonnegative(self):
        model = conv_model(seed=5)
        out = model.forward(np.arange(8).reshape(4, 2))
        assert (out.d_lm[0].data >= 0).all()

    def test_causal_window(self):
        model = conv_model(seed=6, lookback=2)
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(6, 1, 6))
        base = prpn_distances(Tensor(emb), model.pad_emb, model.w_c, model.b_c,
                              model.w_d, model.b_d, 2).data
        bumped = emb.copy()
        bumped[4] += 1.0  # position i+1 relative to i=3
        pert = prpn_distances(Tensor(bumped), model.pad_emb, model.w_c, model.b_c,
                              model.w_d, model.b_d, 2).data
        assert np.array_equal(base[:4], pert[:4])
        assert not np.array_equal(base[4:], pert[4:])

    def test_gradient(self):
        model = conv_model(seed=7, lookback=2)
        rng = np.random.default_rng(1)
        emb = Tensor(rng.normal(size=(4, 1, 6)))
        mix = Tensor(rng.normal(size=(4, 1)))
        for name, tensor in [("W_c", model.w_c), ("W_d", model.w_d), ("pad", model.pad_emb)]:
            def f(t, _name=name):
                args = {"pad": model.pad_emb, "W_c": model.w_c, "W_d": model.w_d}
                args[_name] = t
                d = prpn_distances(emb, args["pad"], args["W_c"], model.b_c,
                                   args["W_d"], model.b_d, 2)
                return ad.tsum(d * mix)
            assert grad_check(f, tensor) < 1e-4, name


class TestSydEncoder:
    def test_deterministic(self):
        a = encoder_model(seed=8).forward(np.array([[1, 2], [3, 4], [5, 6]]))
        b = encoder_model(seed=8).forward(np.array([[1, 2], [3, 4], [5, 6]]))
        assert np.array_equal(a.logits.data, b.logits.data)
        assert np.array_equal(a.d_syd.data, b.d_syd.data)

    def test_unidirectional_causality(self):
        model = encoder_model(seed=9)
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(6, 1, 6))
        d_lm, d_syd, _ = model.encoder_distances(Tensor(emb))
        bumped = emb.copy()
        bumped[4] += 0.7
        d_lm2, d_syd2, _ = model.encoder_distances(Tensor(bumped))
        assert np.array_equal(d_lm.data[:4], d_lm2.data[:4])
        assert np.array_equal(d_syd.data[:4], d_syd2.data[:4])

    def test_two_streams_differ(self):
        model = encoder_model(seed=10)
        out = model.forward(np.array([[1], [2], [3], [4]]))
        assert not np.array_equal(out.d_lm[0].data, out.d_syd.data)

    def test_ablated_head_reproduces_lm_path_bitwise(self):
        inputs = np.array([[1, 2], [3, 4], [5, 6], [7, 8]])
        with_head = encoder_model(seed=11).forward(inputs)
        without = encoder_model(seed=11, supervision="none").forward(inputs)
        assert np.array_equal(with_head.logits.data, without.logits.data)
        assert np.array_equal(with_head.d_lm[0].data, without.d_lm[0].data)
        assert without.d_syd is None

    def test_overfit_fixed_ranking(self):
        model = encoder_model(seed=12)
        rng = np.random.default_rng(3)
        emb = Tensor(rng.normal(size=(8, 1, 6)))
        gold = rng.permutation(np.arange(1.0, 9.0))
        groups = np.zeros(8, dtype=np.int64)
        params = list(model.params.values())
        acc = 0.0
        for step in range(1000):
            with Tape():
                _, d_syd, _ = model.encoder_distances(emb)
                loss = ranking_loss(ad.reshape(d_syd, (8,)), gold, groups, "symmetric")
                backward(loss)
            for p in params:
                if p.grad is not None:
                    p.data -= 0.2 * p.grad
            model.zero_grad()
            if step % 25 == 0:
                _, d_eval, _ = model.encoder_distances(emb)
                agree, strict = _pair_agreement(d_eval.data.reshape(8), gold, groups)
                acc = 100.0 * agree / strict
                if acc > 99.0:
                    break
        assert acc is not None and acc > 99.0, acc

    def test_prpn_rejects_unsupported_modes(self):
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=11, model="prpn-syd", supervision_mode="vanilla-multitask",
                        n_layers=1, supervision_layer=1).validate()
        with pytest.raises(ConfigError):
            ModelConfig(vocab_size=11, model="prpn", supervision_mode="split-head",
                        n_layers=1, supervision_layer=1).validate()


def per_step_forward(model, inputs, rng=None, train_cfg=None):
    """The reading loop with parsing gates built at every step and attention
    reads as elementwise products and sums, as PrpnLM.forward ran before it
    computed the gates once per window.  Returns (logits, d_lm, d_syd)."""
    cfg = model.config
    t_len, batch = inputs.shape
    rh = model.read_hidden
    x_all = model.embed(inputs, rng, train_cfg)
    if cfg.model == "prpn":
        d_all = prpn_distances(x_all, model.pad_emb, model.w_c, model.b_c,
                               model.w_d, model.b_d, cfg.prpn_lookback)
        d_syd = None
    else:
        d_all, d_syd, _ = model.encoder_distances(x_all)
    tau = cfg.prpn_temperature
    d_row = ad.concat([ad.reshape(d_all[t], (batch, 1)) for t in range(t_len)], axis=1)
    queries = ad.reshape(ad.matmul(x_all, model.w_q) + model.b_q, (t_len, batch, 1, rh))
    mem_h, mem_c, tops = [], [], []
    h_tilde = Tensor(np.zeros((batch, rh)))
    c_tilde = Tensor(np.zeros((batch, rh)))
    for t in range(t_len):
        if t > 0:
            gates = parsing_gates(relatedness_alpha(d_row[:, t : t + 1], d_row[:, 1:t], tau))
            h_past = ad.concat(mem_h, axis=1)
            c_past = ad.concat(mem_c, axis=1)
            scores = ad.tsum(h_past * queries[t], axis=-1) / math.sqrt(rh)
            s3 = ad.reshape(gated_attention(gates, ad.softmax(scores)), (batch, t, 1))
            h_tilde = ad.tsum(h_past * s3, axis=1)
            c_tilde = ad.tsum(c_past * s3, axis=1)
        h, c = lstm_cell(x_all[t], h_tilde, c_tilde, model.w_r, model.b_r, rh)
        mem_h.append(ad.reshape(h, (batch, 1, rh)))
        mem_c.append(ad.reshape(c, (batch, 1, rh)))
        tops.append(h)
    logits = model.decode(window(tops), rng, train_cfg)
    d_syd = None if d_syd is None else ad.reshape(d_syd, (t_len * batch,))
    return logits, ad.reshape(d_all, (t_len * batch,)), d_syd


def taped_step(model, inputs, forward):
    """Loss and gradients of one taped step; the loss reads the logits and
    both distance sets, so no parameter's gradient is zero by symmetry."""
    t_len, batch = inputs.shape
    mix = np.random.default_rng(5).normal(size=(t_len - 1) * batch)
    cfg = TrainConfig(model=model.config)
    model.zero_grad()
    with Tape():
        logits, d_lm, d_syd = forward(model, inputs[:-1], np.random.default_rng(6), cfg)
        loss = lm_loss(logits, inputs[1:].reshape(-1), np.ones(mix.size)) + ad.tsum(d_lm * Tensor(mix))
        if d_syd is not None:
            loss = loss + ad.tsum(d_syd * Tensor(mix[::-1].copy()))
        backward(loss)
    return logits.data, {name: p.grad for name, p in model.params.items()}


def model_forward(model, inputs, rng, train_cfg):
    out = model.forward(inputs, None, rng=rng, train_cfg=train_cfg)
    return out.logits, out.d_lm[0], out.d_syd


class TestReadLoop:
    @pytest.mark.parametrize("make", [encoder_model, conv_model], ids=["prpn-syd", "prpn"])
    def test_matches_per_step_reference(self, make):
        inputs = np.random.default_rng(7).integers(0, 11, size=(13, 3))
        logits, grads = taped_step(make(seed=13), inputs, model_forward)
        ref_logits, ref_grads = taped_step(make(seed=13), inputs, per_step_forward)
        assert np.abs(logits - ref_logits).max() <= 1e-12
        for name, ref in ref_grads.items():
            assert ref is not None and np.abs(ref).max() > 0, name
            rel = np.abs(grads[name] - ref).max() / np.abs(ref).max()
            assert rel <= 1e-12, (name, rel)

    def test_huge_temperature_is_finite_and_silent(self):
        model = PrpnLM(ModelConfig(vocab_size=11, model="prpn-syd", embedding_size=6, hidden_size=6,
                                   supervision_mode="split-head", prpn_ff_hidden=5,
                                   prpn_conv_window=2, supervision_layer=1, n_layers=1,
                                   prpn_temperature=1e12), seed=14)
        inputs = np.random.default_rng(8).integers(0, 11, size=(9, 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logits, grads = taped_step(model, inputs, model_forward)
        assert np.isfinite(logits).all()
        assert all(np.isfinite(g).all() for g in grads.values())

    def test_tape_grows_linearly_in_window_length(self):
        def nodes(t_len):
            model = encoder_model(seed=15)
            inputs = np.random.default_rng(9).integers(0, 11, size=(t_len + 1, 2))
            with Tape() as tape:
                logits, d_lm, d_syd = model_forward(model, inputs[:-1], None, None)
                backward(lm_loss(logits, inputs[1:].reshape(-1), np.ones(2 * t_len))
                         + ad.tsum(d_syd) + ad.tsum(d_lm))
            return len(tape)

        assert nodes(64) / nodes(32) < 2.2

    def test_tape_keeps_the_memory_in_one_buffer_per_window(self):
        # the memories of steps 2..T-1 (the outputs of the read loop's memory
        # concats), as the reads' backward closures hold them, are views of
        # one (B, T, rh) buffer for h and one for c, not one copy per step,
        # which would hold O(T^2) values
        t_len, batch = 20, 3
        model = encoder_model(seed=16)
        rh = model.read_hidden
        inputs = np.random.default_rng(10).integers(0, 11, size=(t_len, batch))
        with Tape() as tape:
            model.forward(inputs)
        roots = {id(root(a)): root(a) for _, a in bwd_arrays(tape)
                 if a.ndim == 3 and a.shape[0] == batch and 2 <= a.shape[1] < t_len and a.shape[2] == rh}
        assert len(roots) >= 2
        assert sum(a.nbytes for a in roots.values()) <= 2 * batch * t_len * rh * 8
