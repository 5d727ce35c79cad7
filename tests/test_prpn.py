import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm.autodiff import Tape, Tensor, backward, grad_check
from sydlm.config import ConfigError, ModelConfig
from sydlm.prpn import PrpnLM, gated_attention, parsing_gates, prpn_distances, relatedness_alpha
from sydlm.training import _pair_agreement, ranking_loss


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
