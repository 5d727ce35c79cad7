"""Ordered-neurons LSTM language model with an optional supervised
distance read-out.

Master gates are cumax-constrained, so forget units switch on monotonically
and input units switch off monotonically along the vector; the distance a
step emits is the master dimension minus the master forget gate's mass.
The cell step holds only the recurrence.  The forward runs layer-major,
and each layer maps a time-major (T, B, width) input window to windows of
h, the master forget gates and their preactivation: a loop of
`onlstm_step` under a tape, else one `onlstm_layer` call, the same
arithmetic in numpy.  Distances are read out of the gates once per
window: the split head
derives a second master forget gate from the same preactivation, and its
distances are the ones trained against gold trees, leaving the
language-model gates untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, TrainConfig
from .models import ForwardOut, LanguageModel, affine, feed_forward, locked_mask, lstm_gates, window


@dataclass
class StepOutput:
    h: Tensor
    c: Tensor
    master_forget: Tensor
    hf_pre: Tensor                 # master-forget preactivation, the split head's input


def extract_distance(master_forget: Tensor) -> Tensor:
    """Distance from a master forget gate: D_m minus the gate's sum."""
    d_m = master_forget.shape[-1]
    return float(d_m) - ad.tsum(master_forget, axis=-1)


def syd_head(hf_pre: Tensor, w_s: Tensor, b_s: Tensor) -> Tensor:
    """Split head: the supervised distance from a second master forget gate
    over the language model's master-forget preactivation."""
    return extract_distance(ad.cumax(affine(hf_pre, w_s, b_s)))


def onlstm_step(
    x: Tensor,
    h_prev: Tensor,
    c_prev: Tensor,
    weight: Tensor,
    bias: Tensor,
    hidden: int,
    chunk: int,
) -> StepOutput:
    """One ON-LSTM cell step.

    weight is the fused (in+hidden, 4*hidden + 2*Dm) gate matrix in the order
    forget, input, output, candidate, master-forget, master-input.
    """
    d_m = hidden // chunk
    f, i, o, c_hat, pre = lstm_gates(x, h_prev, weight, bias, hidden)
    hf_pre = pre[:, 4 * hidden : 4 * hidden + d_m]
    f_m = ad.cumax(hf_pre)
    i_m = 1.0 - ad.cumax(pre[:, 4 * hidden + d_m :])

    if chunk > 1:
        f_mx = ad.repeat_last(f_m, chunk)
        i_mx = ad.repeat_last(i_m, chunk)
    else:
        f_mx, i_mx = f_m, i_m

    omega = f_mx * i_mx
    f_hat = f * omega + (f_mx - omega)
    i_hat = i * omega + (i_mx - omega)
    c = f_hat * c_prev + i_hat * c_hat
    h = o * ad.tanh(c)
    return StepOutput(h=h, c=c, master_forget=f_m, hf_pre=hf_pre)


def onlstm_layer(
    x_seq: np.ndarray,
    h0: np.ndarray,
    c0: np.ndarray,
    weight: np.ndarray,
    bias: np.ndarray,
    hidden: int,
    chunk: int,
    rec_mask: Optional[np.ndarray] = None,
) -> tuple:
    """One ON-LSTM layer over a whole window in numpy, recording nothing.

    Each step applies the ops of `lstm_gates` and `onlstm_step` in their
    order, so every value equals a loop of `onlstm_step` bitwise.  x_seq is
    (T, B, in), h0 and c0 are (B, hidden), weight and bias are the fused gate
    arrays, and rec_mask (B, hidden), if given, multiplies the state each
    step reads.  Returns h and c (T, B, hidden), and the master forget gates
    and their preactivation hf_pre (T, B, Dm), stacked over the steps.
    """
    t_len, batch = x_seq.shape[:2]
    d_m = hidden // chunk
    h_seq = np.empty((t_len, batch, hidden))
    c_seq = np.empty_like(h_seq)
    forget_seq = np.empty((t_len, batch, d_m))
    pre_seq = np.empty_like(forget_seq)
    h, c = h0, c0
    for t in range(t_len):
        h_in = h if rec_mask is None else h * rec_mask
        pre = np.concatenate([x_seq[t], h_in], axis=1) @ weight + bias
        gates = 1.0 / (1.0 + np.exp(-pre[:, : 3 * hidden]))
        c_hat = np.tanh(pre[:, 3 * hidden : 4 * hidden])
        # both master gates' cumax at once: one softmax and cumsum per row
        masters = pre[:, 4 * hidden :].reshape(batch, 2, d_m)
        e = np.exp(masters - masters.max(axis=-1, keepdims=True))
        cumaxes = np.cumsum(e / e.sum(axis=-1, keepdims=True), axis=-1)
        f_m = cumaxes[:, 0]
        i_m = 1.0 - cumaxes[:, 1]
        if chunk > 1:
            f_mx = np.repeat(f_m, chunk, axis=-1)
            i_mx = np.repeat(i_m, chunk, axis=-1)
        else:
            f_mx, i_mx = f_m, i_m
        omega = f_mx * i_mx
        f_hat = gates[:, :hidden] * omega + (f_mx - omega)
        i_hat = gates[:, hidden : 2 * hidden] * omega + (i_mx - omega)
        c = f_hat * c + i_hat * c_hat
        h = gates[:, 2 * hidden :] * np.tanh(c)
        h_seq[t], c_seq[t], forget_seq[t] = h, c, f_m
        pre_seq[t] = pre[:, 4 * hidden : 4 * hidden + d_m]
    return h_seq, c_seq, forget_seq, pre_seq


def _step_loop(x: Tensor, h: Tensor, c: Tensor, weight: Tensor, bias: Tensor,
               hidden: int, chunk: int, rec_mask: Optional[Tensor], with_pre: bool) -> tuple:
    """`onlstm_layer` on the tape: `onlstm_step` over the steps of the input
    window x.  Returns `onlstm_layer`'s four results, h, the master forget
    gates and hf_pre as windows and c as an array.  hf_pre is None unless
    with_pre: only the split head reads it, at the supervision layer."""
    outs = []
    for t in range(x.shape[0]):
        out = onlstm_step(x[t], h if rec_mask is None else h * rec_mask, c, weight, bias, hidden, chunk)
        h, c = out.h, out.c
        outs.append(out)
    return (window([o.h for o in outs]), np.stack([o.c.data for o in outs]),
            window([o.master_forget for o in outs]),
            window([o.hf_pre for o in outs]) if with_pre else None)


class OnLstmLM(LanguageModel):
    """Stacked ON-LSTM language model (optionally with the split head)."""

    kinds = ("onlstm-syd",)

    def __init__(self, config: ModelConfig, seed: int):
        super().__init__(config, seed)
        cfg = config
        self.layers = []  # per layer: the fused gate matrix and bias `onlstm_step` takes
        for layer in range(cfg.n_layers):
            i_dim, hidden = cfg.layer_input(layer), cfg.layer_hidden(layer)
            d_m = hidden // cfg.chunk_factor
            scale = 1.0 / np.sqrt(hidden)
            n_in, widths = i_dim + hidden, (hidden, hidden, hidden, hidden, d_m, d_m)  # f, i, o, c, mf, mi
            weight = self.param("layer%d.W" % layer, (n_in, sum(widths)), None)
            # one uniform draw per gate in column order: the values six per-gate matrices drew
            for end, width in zip(np.cumsum(widths), widths):
                weight.data[:, end - width : end] = self._init_rng.uniform(-scale, scale, (n_in, width))
            self.layers.append((weight, self.param("layer%d.b" % layer, (sum(widths),), None)))
        self.init_decoder(cfg.layer_hidden(cfg.n_layers - 1))

        # supervision head parameters come last so the language-model
        # parameter draws are identical across supervision modes
        sup_hidden = cfg.layer_hidden(cfg.supervision_layer - 1)
        sup_dm = sup_hidden // cfg.chunk_factor
        if cfg.supervision_mode == "split-head":
            self.w_s = self.param("W_s", (sup_dm, sup_dm), 1.0 / np.sqrt(sup_dm))
            self.b_s = self.param("b_s", (sup_dm,), None)
        elif cfg.supervision_mode == "vanilla-multitask":
            scale = 1.0 / np.sqrt(sup_hidden)
            self.w_v1 = self.param("W_v1", (sup_hidden, sup_hidden), scale)
            self.b_v1 = self.param("b_v1", (sup_hidden,), None)
            self.w_v2 = self.param("W_v2", (sup_hidden, 1), scale)

    # perfbench/tracer.py patches zero_grad and forward per class
    zero_grad = LanguageModel.zero_grad

    # -- state --------------------------------------------------------------

    def init_state(self, batch_size: int) -> list:
        return [
            (np.zeros((batch_size, self.config.layer_hidden(l))),
             np.zeros((batch_size, self.config.layer_hidden(l))))
            for l in range(self.config.n_layers)
        ]

    def set_identity_split_head(self) -> None:
        """W_s = I, b_s = 0: the supervised distances equal the LM ones."""
        if self.config.supervision_mode != "split-head":
            raise ValueError("identity split head needs supervision_mode split-head")
        self.w_s.data = np.eye(self.w_s.data.shape[0])
        self.b_s.data = np.zeros_like(self.b_s.data)

    # -- forward ------------------------------------------------------------

    def forward(
        self,
        inputs: np.ndarray,
        state: Optional[list] = None,
        rng: Optional[np.random.Generator] = None,
        train_cfg: Optional[TrainConfig] = None,
    ) -> ForwardOut:
        cfg = self.config
        inputs = np.asarray(inputs, dtype=np.int64)
        t_len, batch = inputs.shape
        if state is None:
            state = self.init_state(batch)
        x_all = self.embed(inputs, rng, train_cfg)  # (T, B, E)

        rec_masks = [locked_mask(rng, train_cfg, "dropout_recurrent", (batch, cfg.layer_hidden(l)))
                     for l in range(cfg.n_layers)]
        mid_masks = [locked_mask(rng, train_cfg, "dropout_layers", (batch, cfg.layer_hidden(l)))
                     for l in range(cfg.n_layers - 1)]

        x, d_lm, new_state = x_all, [], []
        sup = cfg.supervision_layer - 1
        split_head = cfg.supervision_mode == "split-head"
        rows = lambda w: ad.reshape(w, (t_len * batch, w.shape[-1]))  # a window's time-major rows
        for layer, ((weight, bias), rec_mask, mid_mask) in enumerate(zip(self.layers, rec_masks, mid_masks + [None])):
            hidden, (h0, c0) = cfg.layer_hidden(layer), state[layer]
            if ad.active_tape() is not None:
                h, c_all, f, pre = _step_loop(x, Tensor(h0), Tensor(c0), weight, bias, hidden,
                                              cfg.chunk_factor, rec_mask, split_head and layer == sup)
            else:
                h, c_all, f, pre = onlstm_layer(x.data, h0, c0, weight.data, bias.data, hidden,
                                                cfg.chunk_factor, None if rec_mask is None else rec_mask.data)
                h, f, pre = Tensor(h), Tensor(f), Tensor(pre)
            finite = np.isfinite(h.data).all(axis=(1, 2)) & np.isfinite(c_all).all(axis=(1, 2))
            if not finite.all():
                raise ad.NumericError("non-finite hidden state at step %d, layer %d"
                                      % (int(np.argmin(finite)), layer + 1))
            new_state.append((h.data[-1].copy(), c_all[-1].copy()))
            d_lm.append(extract_distance(rows(f)))
            if layer == sup:
                sup_h, sup_pre = h, pre
            x = h if mid_mask is None else h * mid_mask

        logits = self.decode(x, rng, train_cfg)
        d_syd = None
        if split_head:
            d_syd = syd_head(rows(sup_pre), self.w_s, self.b_s)
        elif cfg.supervision_mode == "one-set-of-trees":
            d_syd = d_lm[sup]
        elif cfg.supervision_mode == "vanilla-multitask":
            d_syd = feed_forward(rows(sup_h), self.w_v1, self.b_v1, self.w_v2)
        return ForwardOut(logits=logits, d_lm=d_lm, d_syd=d_syd, state=new_state)
