"""The shared model shell: parameter names and their creation order are the
checkpoint layout, so they are frozen here for every model kind,
supervision mode and decoder tying; the decoder reads a (T, B, H) window,
and the distance head maps rows to one scalar each.  No product that only
a sum reads outlives the forward."""

import weakref
from collections import Counter

import numpy as np
import pytest

from sydlm import autodiff as ad
from sydlm import build_model
from sydlm.autodiff import Tensor, grad_check
from sydlm.config import ModelConfig, TrainConfig
from sydlm.training import lm_loss
from sydlm.models import affine, feed_forward

ONLSTM_LAYERS = ["layer0.W", "layer0.b", "layer1.W", "layer1.b"]
ONLSTM_HEADS = {
    "split-head": ["W_s", "b_s"],
    "one-set-of-trees": [],
    "vanilla-multitask": ["W_v1", "b_v1", "W_v2"],
    "none": [],
}
PRPN_CONV = ["pad_emb", "W_c", "b_c", "W_d", "b_d"]
PRPN_ENCODER = ["enc.W_word", "enc.b_word", "enc.W_conv", "enc.b_conv", "enc.W_dist",
                "enc.b_dist", "enc.W_lm1", "enc.b_lm1", "enc.W_lm2"]
PRPN_READ = ["read.W_q", "read.b_q", "read.W_r", "read.b_r"]
PRPN_SYD_HEAD = ["enc.W_syd1", "enc.b_syd1", "enc.W_syd2"]

CASES = (
    [("onlstm-syd", mode, ONLSTM_LAYERS, ONLSTM_HEADS[mode]) for mode in ONLSTM_HEADS]
    + [("prpn", "none", PRPN_CONV + PRPN_READ, []),
       ("prpn-syd", "none", PRPN_ENCODER + PRPN_READ, []),
       ("prpn-syd", "split-head", PRPN_ENCODER + PRPN_READ, PRPN_SYD_HEAD)]
)


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
@pytest.mark.parametrize("kind, mode, body, head", CASES,
                         ids=["%s-%s" % (kind, mode) for kind, mode, _, _ in CASES])
def test_parameter_names_in_creation_order(kind, mode, body, head, tied):
    cfg = ModelConfig(vocab_size=9, model=kind, n_layers=2, embedding_size=4, hidden_size=6,
                      supervision_layer=2, supervision_mode=mode, tie_embeddings=tied,
                      prpn_ff_hidden=3)
    model = build_model(cfg, seed=0)
    decoder = ["b_out"] if tied else ["W_out", "b_out"]
    assert list(model.params) == ["embedding"] + body + decoder + head
    for name, p in model.params.items():
        is_bias = name.split(".")[-1].split("_")[0] == "b"  # b_out, b_s, layer0.b, ...
        assert (not p.data.any()) == is_bias, name  # biases start at zero, weights do not
        assert p.requires_grad and p.name == name


@pytest.mark.parametrize("tied", [True, False], ids=["tied", "untied"])
def test_decode_locks_one_output_mask_over_the_window(tied):
    cfg = ModelConfig(vocab_size=9, n_layers=2, embedding_size=4, hidden_size=6,
                      supervision_layer=2, tie_embeddings=tied)
    model = build_model(cfg, seed=0)
    rng = np.random.default_rng(1)
    model.b_out.data = rng.normal(size=9)
    t_len, batch, width = 5, 3, cfg.layer_hidden(1)
    tops = rng.normal(size=(t_len, batch, width))
    train_cfg = TrainConfig(model=cfg, dropout_output=0.5)
    rows = model.output_rows(Tensor(tops), np.random.default_rng(3), train_cfg)
    logits = affine(rows, *model.decoder)

    # every step times the same (B, H) mask, drawn from an equally seeded generator
    mask = (np.random.default_rng(3).random((batch, width)) >= 0.5) / 0.5
    assert (mask == 0).any() and (mask != 0).any()
    proj = model.embedding.data.T if tied else model.w_out.data
    ref = np.concatenate([(tops[t] * mask) @ proj + model.b_out.data for t in range(t_len)])
    assert rows.shape == (t_len * batch, width)
    assert logits.shape == (t_len * batch, 9)
    np.testing.assert_allclose(logits.data, ref, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("lead", [(5,), (4, 3)], ids=["rows", "window"])
def test_feed_forward_head_is_bias_free_with_exact_gradients(lead):
    rng = np.random.default_rng(2)
    x = Tensor(rng.normal(size=lead + (6,)))
    w1 = Tensor(rng.uniform(-0.5, 0.5, size=(6, 4)))
    b1 = Tensor(rng.uniform(-0.1, 0.1, size=4))
    w2 = Tensor(rng.uniform(-0.5, 0.5, size=(4, 1)))
    mix = Tensor(rng.normal(size=lead))
    d = feed_forward(x, w1, b1, w2)
    assert d.shape == lead
    np.testing.assert_array_equal(d.data, (np.maximum(x.data @ w1.data + b1.data, 0) @ w2.data)[..., 0])
    for name, tensor in (("x", x), ("w2", w2)):
        def loss(t, _n=name):
            args = {"x": x, "w2": w2}
            args[_n] = t
            return ad.tsum(feed_forward(args["x"], w1, b1, args["w2"]) * mix)
        assert grad_check(loss, tensor) < 1e-4, name


T_LEN = 4
SUM_KINDS = {
    "onlstm-syd": dict(model="onlstm-syd", n_layers=2, hidden_size=8, chunk_factor=2,
                       supervision_layer=2, supervision_mode="split-head"),
    "prpn-syd": dict(model="prpn-syd", n_layers=1, hidden_size=8, supervision_layer=1,
                     prpn_ff_hidden=8, supervision_mode="split-head"),
    "prpn": dict(model="prpn", n_layers=1, hidden_size=8, supervision_layer=1, prpn_ff_hidden=8,
                 supervision_mode="none"),
}
# sums by the kind of node that made the product: the affine maps (matmul),
# the cell sums (mul) and relatedness_alpha's hardtanh(...) + 1 per window
PRODUCT_KINDS = ("matmul", "mul", "hardtanh")
SUMS_OF_PRODUCTS = {
    # per layer and step: the gates and three cell sums; the decoder and the split head
    "onlstm-syd": {"matmul": 2 * T_LEN + 2, "mul": 3 * 2 * T_LEN},
    # per step: two encoder LSTMs and the reading cell; two distance heads, the queries, the decoder
    "prpn-syd": {"matmul": 3 * T_LEN + 4, "mul": 3 * T_LEN, "hardtanh": 1},
    # per step: the reading cell; the distances, the queries, the decoder
    "prpn": {"matmul": T_LEN + 3, "mul": T_LEN, "hardtanh": 1},
}


def node_kind(node) -> str:
    return node.bwd.__qualname__.split(".", 1)[0]


@pytest.mark.parametrize("kind", list(SUM_KINDS))
def test_no_product_outlives_its_sum(kind, monkeypatch):
    # add's bwd reads no values, and matmul's, mul's and hardtanh's do not
    # read their own outputs, so a product that only a sum reads is dead
    # once the forward returns: the tape keeps neither array.  A node holds
    # no array, so each output is watched as `autodiff._apply` makes it.
    cfg = ModelConfig(vocab_size=12, embedding_size=8, **SUM_KINDS[kind])
    model = build_model(cfg, seed=1)
    rng = np.random.default_rng(0)
    ids = rng.integers(0, 12, size=(T_LEN, 2))
    outs, apply = {}, ad._apply

    def watching(out_data, keys, bwd):
        out = apply(out_data, keys, bwd)
        if out.tracked is not None:
            outs[out.tracked] = weakref.ref(out.data)
        return out

    monkeypatch.setattr(ad, "_apply", watching)
    with ad.Tape() as tape:
        out = model.forward(ids, None, rng=rng, train_cfg=TrainConfig(model=cfg))
        loss = lm_loss(out, rng.integers(0, 12, size=2 * T_LEN), np.ones(2 * T_LEN))  # the decoder's affine
        nodes = list(tape.nodes)
    # out and loss hold the step's outputs, the output rows among them, during the check
    assert out.tops.shape == (2 * T_LEN, 8) and loss.shape == ()
    made = {n: node_kind(n) for n in nodes}
    reads = Counter(p for n in nodes for p in n.parents)
    products = [n.parents[0] for n in nodes
                if made[n] == "add" and made.get(n.parents[0]) in PRODUCT_KINDS
                and reads[n.parents[0]] == 1]
    assert Counter(made[p] for p in products) == SUMS_OF_PRODUCTS[kind]
    assert all(outs[p]() is None for p in products)
