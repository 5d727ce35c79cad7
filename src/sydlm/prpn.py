"""Parsing/reading/predict language model driven by syntactic distances.

The parsing side produces one distance scalar per position; pairwise
distance differences become relatedness values through a scaled hardtanh,
products of those values become parsing gates, and the gates softly
truncate the reading network's attention over past states.  Two parsing
sources are available: a causal two-layer convolution over embeddings
("prpn") and a redesigned recurrent encoder emitting separate distance sets
for language modeling and supervision ("prpn-syd").
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, TrainConfig
from .models import ForwardOut, LanguageModel, affine, feed_forward, lstm_gates, window


def relatedness_alpha(d_t, d_j, tau: float):
    """Degree in [0, 1] that two positions are related: 0.5 at equal
    distances, saturating once the gap exceeds 1/tau."""
    if tau <= 0:
        raise ValueError("temperature must be positive")
    return (ad.hardtanh((ad.as_tensor(d_t) - d_j) * tau) + 1.0) * 0.5


def parsing_gates(alphas) -> Tensor:
    """Suffix products over relatedness values.

    alphas (..., m) covers positions 1..m of a length-(m+1) memory; gate i is
    the product of alphas i+1..m, so the newest position's gate is the empty
    product 1 and any zero alpha cuts off everything older.
    """
    alphas = ad.as_tensor(alphas)
    m = alphas.shape[-1]
    ones = Tensor(np.ones(alphas.shape[:-1] + (1,)))
    gates = [ones]
    suffix = ones
    for k in range(m - 1, -1, -1):
        suffix = alphas[..., k : k + 1] * suffix
        gates.append(suffix)
    gates.reverse()
    return ad.concat(gates, axis=-1)


def window_gates(d_all, tau: float) -> Tensor:
    """The parsing gates of every step of a window, from one alpha matrix.

    d_all (T, B) holds the window's distances.  Row t of the (T, B, T)
    result starts with the t gates that step t reads over memory positions
    0..t-1, from the alphas of d_t against positions 1..t-1.  The alphas of
    positions t and later are masked to exactly 1: an infinite offset on d_t
    saturates their hardtanh, whose adjoint there is 0.  Products with 1 are
    exact, so each row's first t gates equal the per-step
    `parsing_gates(relatedness_alpha(d_t, d_1..t-1, tau))` bitwise.
    """
    d_all = ad.as_tensor(d_all)
    t_len, batch = d_all.shape
    later = np.arange(1, t_len)[None, :] >= np.arange(t_len)[:, None]  # (T, T-1): position k+1 >= t
    d_t = ad.reshape(d_all, (t_len, batch, 1)) + np.where(later, np.inf, 0.0)[:, None, :]
    # d_j[0, b, k] = d_all[k+1, b]: the transpose of positions 1..T-1, one gather
    d_j = d_all[np.arange(1, t_len)[None, None, :], np.arange(batch)[None, :, None]]
    return parsing_gates(relatedness_alpha(d_t, d_j, tau))


def gated_attention(gates, z) -> Tensor:
    """Attention weights softly truncated by parsing gates:
    s_i = g_i z_i / sum_i g_i.

    `parsing_gates` gives the newest position gate 1, so no row of gates
    the model builds sums to zero.  As written the outputs sum to
    (sum g z)/(sum g), not 1.
    """
    gates, z = ad.as_tensor(gates), ad.as_tensor(z)
    if gates.shape != z.shape:
        raise ad.ShapeError("gated_attention: gates %s vs z %s" % (gates.shape, z.shape))
    return gates * z / ad.tsum(gates, axis=-1, keepdims=True)


def prpn_distances(embeddings, pad_emb, w_c, b_c, w_d, b_d, lookback: int) -> Tensor:
    """Convolutional parsing network: embeddings (T, B, E) padded on the
    left with `lookback` learned boundary vectors, two ReLU layers, one
    nonnegative distance per position."""
    embeddings = ad.as_tensor(embeddings)
    t_len, batch, e_dim = embeddings.shape
    pad = ad.broadcast_to(ad.reshape(pad_emb, (lookback, 1, e_dim)), (lookback, batch, e_dim))
    padded = ad.concat([pad, embeddings], axis=0)
    hidden = ad.relu(ad.causal_conv1d(padded, w_c, b_c, lookback + 1))
    d = ad.relu(affine(hidden, w_d, b_d))
    return ad.reshape(d, (t_len, batch))


def lstm_cell(x, h, c, weight, bias, hidden: int):
    """One plain LSTM step; weight is the fused (in+hidden, 4*hidden) gate
    matrix in the order forget, input, output, candidate.  Returns (h, c)."""
    f, i, o, g, _ = lstm_gates(x, h, weight, bias, hidden)
    c = f * c + i * g
    return o * ad.tanh(c), c


def lstm_sequence(x_all, state, weight, bias, hidden: int):
    """Plain LSTM over (T, B, E) from the numpy state (h, c); returns the
    (T, B, hidden) window of outputs and the final numpy state."""
    h, c = Tensor(state[0]), Tensor(state[1])
    hs = []
    for t in range(x_all.shape[0]):
        h, c = lstm_cell(x_all[t], h, c, weight, bias, hidden)
        hs.append(h)
    return window(hs), (h.data.copy(), c.data.copy())


class PrpnLM(LanguageModel):
    """PRPN language model; parsing source per config.model."""

    kinds = ("prpn", "prpn-syd")

    def __init__(self, config: ModelConfig, seed: int):
        super().__init__(config, seed)
        cfg = config
        param = self.param
        e_dim = cfg.embedding_size
        h = cfg.hidden_size
        self.read_hidden = e_dim if cfg.tie_embeddings else h
        rh = self.read_hidden

        if cfg.model == "prpn":
            look = cfg.prpn_lookback
            self.pad_emb = param("pad_emb", (look, e_dim), 0.1)
            self.w_c = param("W_c", ((look + 1) * e_dim, h), 1.0 / math.sqrt(h))
            self.b_c = param("b_c", (h,), None)
            self.w_d = param("W_d", (h, 1), 1.0 / math.sqrt(h))
            self.b_d = param("b_d", (1,), None)
        else:
            scale = 1.0 / math.sqrt(h)
            self.w_lstm_w = param("enc.W_word", (e_dim + h, 4 * h), scale)
            self.b_lstm_w = param("enc.b_word", (4 * h,), None)
            self.w_conv = param("enc.W_conv", (cfg.prpn_conv_window * h, h), scale)
            self.b_conv = param("enc.b_conv", (h,), None)
            self.w_lstm_d = param("enc.W_dist", (h + h, 4 * h), scale)
            self.b_lstm_d = param("enc.b_dist", (4 * h,), None)
            fh = cfg.prpn_ff_hidden
            self.w_lm1 = param("enc.W_lm1", (h, fh), scale)
            self.b_lm1 = param("enc.b_lm1", (fh,), None)
            self.w_lm2 = param("enc.W_lm2", (fh, 1), 1.0 / math.sqrt(fh))

        scale = 1.0 / math.sqrt(rh)
        self.w_q = param("read.W_q", (e_dim, rh), scale)
        self.b_q = param("read.b_q", (rh,), None)
        self.w_r = param("read.W_r", (e_dim + rh, 4 * rh), scale)
        self.b_r = param("read.b_r", (4 * rh,), None)
        self.init_decoder(rh)

        # the supervised head comes last so the LM parameter draws are
        # identical with and without it
        if cfg.model == "prpn-syd" and cfg.supervision_mode == "split-head":
            fh = cfg.prpn_ff_hidden
            self.w_syd1 = param("enc.W_syd1", (h, fh), 1.0 / math.sqrt(h))
            self.b_syd1 = param("enc.b_syd1", (fh,), None)
            self.w_syd2 = param("enc.W_syd2", (fh, 1), 1.0 / math.sqrt(fh))

    # perfbench/tracer.py patches zero_grad and forward per class
    zero_grad = LanguageModel.zero_grad

    def init_state(self, batch_size: int):
        if self.config.model == "prpn":
            return None
        h = self.config.hidden_size
        return (
            (np.zeros((batch_size, h)), np.zeros((batch_size, h))),
            (np.zeros((batch_size, h)), np.zeros((batch_size, h))),
        )

    # -- parsing sources ------------------------------------------------------

    def encoder_distances(self, x_all, state=None):
        """Recurrent encoder: word LSTM, causal convolution, distance LSTM,
        then one feed-forward head per distance set (the supervised head only
        when configured).  Returns (d_lm, d_syd, new_state)."""
        cfg = self.config
        x_all = ad.as_tensor(x_all)
        batch = x_all.shape[1]
        h = cfg.hidden_size
        if state is None:
            state = self.init_state(batch)
        word_state, dist_state = state
        h_seq, word_state = lstm_sequence(x_all, word_state, self.w_lstm_w, self.b_lstm_w, h)
        window = cfg.prpn_conv_window
        pad = Tensor(np.zeros((window - 1, batch, h)))
        g_seq = ad.relu(ad.causal_conv1d(ad.concat([pad, h_seq], axis=0),
                                         self.w_conv, self.b_conv, window))
        hhat, dist_state = lstm_sequence(g_seq, dist_state, self.w_lstm_d, self.b_lstm_d, h)
        d_lm = feed_forward(hhat, self.w_lm1, self.b_lm1, self.w_lm2)
        d_syd = None
        if cfg.model == "prpn-syd" and cfg.supervision_mode == "split-head":
            d_syd = feed_forward(hhat, self.w_syd1, self.b_syd1, self.w_syd2)
        return d_lm, d_syd, (word_state, dist_state)

    # -- forward ----------------------------------------------------------------

    def forward(
        self,
        inputs: np.ndarray,
        state=None,
        rng: Optional[np.random.Generator] = None,
        train_cfg: Optional[TrainConfig] = None,
    ) -> ForwardOut:
        cfg = self.config
        inputs = np.asarray(inputs, dtype=np.int64)
        t_len, batch = inputs.shape
        rh = self.read_hidden

        x_all = self.embed(inputs, rng, train_cfg)

        if cfg.model == "prpn":
            d_all = prpn_distances(x_all, self.pad_emb, self.w_c, self.b_c,
                                   self.w_d, self.b_d, cfg.prpn_lookback)
            d_syd_all = None
            new_state = None
        else:
            d_all, d_syd_all, new_state = self.encoder_distances(x_all, state)

        # read-outs of the whole window, sliced at each step
        gate_rows = window_gates(d_all, cfg.prpn_temperature)  # (T, B, T)
        queries = ad.reshape(affine(x_all, self.w_q, self.b_q), (t_len, batch, rh, 1))
        top_states = []
        h_tilde = Tensor(np.zeros((batch, rh)))
        c_tilde = Tensor(np.zeros((batch, rh)))
        mem_h, mem_c = np.empty((batch, t_len, rh)), np.empty((batch, t_len, rh))

        for t in range(t_len):
            if t > 0:
                # the memory of steps 0..t-1 grows by the last step's row, so
                # its concat has two parents however long it is, and writes
                # into a leading view of one buffer, where that memory lies
                h_row, c_row = ad.reshape(h, (batch, 1, rh)), ad.reshape(c, (batch, 1, rh))
                h_past = h_row if t == 1 else ad.concat([h_past, h_row], axis=1, out=mem_h[:, :t])  # (B, t, rh)
                c_past = c_row if t == 1 else ad.concat([c_past, c_row], axis=1, out=mem_c[:, :t])
                scores = ad.reshape(ad.matmul(h_past, queries[t]), (batch, t)) / math.sqrt(rh)
                s = ad.reshape(gated_attention(gate_rows[t, :, :t], ad.softmax(scores)), (batch, 1, t))
                h_tilde = ad.reshape(ad.matmul(s, h_past), (batch, rh))
                c_tilde = ad.reshape(ad.matmul(s, c_past), (batch, rh))
            h, c = lstm_cell(x_all[t], h_tilde, c_tilde, self.w_r, self.b_r, rh)
            if not np.isfinite(h.data).all():
                raise ad.NumericError("non-finite hidden state at step %d" % t)
            top_states.append(h)

        tops = self.output_rows(window(top_states), rng, train_cfg)
        d_lm_flat = ad.reshape(d_all, (t_len * batch,))
        d_syd_flat = ad.reshape(d_syd_all, (t_len * batch,)) if d_syd_all is not None else None
        return ForwardOut(tops=tops, decoder=self.decoder, d_lm=[d_lm_flat], d_syd=d_syd_flat,
                          state=new_state)
