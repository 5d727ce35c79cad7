"""Ordered-neurons LSTM language model with an optional supervised
distance read-out.

Master gates are cumax-constrained, so forget units switch on monotonically
and input units switch off monotonically along the vector; the distance a
step emits is the master dimension minus the master forget gate's mass.
The cell step holds only the recurrence.  Distances are read out of the
recorded gates once per window: the split head derives a second master
forget gate from the same preactivation, and its distances are the ones
trained against gold trees, leaving the language-model gates untouched.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, TrainConfig
from .models import ForwardOut, LanguageModel, feed_forward, locked_mask, lstm_gates

GATE_NAMES = ("W_f", "W_i", "W_o", "W_c", "W_mf", "W_mi")
BIAS_NAMES = ("b_f", "b_i", "b_o", "b_c", "b_mf", "b_mi")


@dataclass
class StepOutput:
    h: Tensor
    c: Tensor
    master_forget: Tensor
    master_input: Tensor
    hf_pre: Tensor                 # master-forget preactivation, the split head's input


def extract_distance(master_forget: Tensor) -> Tensor:
    """Distance from a master forget gate: D_m minus the gate's sum."""
    d_m = master_forget.shape[-1]
    return float(d_m) - ad.tsum(master_forget, axis=-1)


def syd_head(hf_pre: Tensor, w_s: Tensor, b_s: Tensor) -> Tensor:
    """Split head: the supervised distance from a second master forget gate
    over the language model's master-forget preactivation."""
    return extract_distance(ad.cumax(ad.matmul(hf_pre, w_s) + b_s))


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
    return StepOutput(h=h, c=c, master_forget=f_m, master_input=i_m, hf_pre=hf_pre)


class OnLstmLM(LanguageModel):
    """Stacked ON-LSTM language model (optionally with the split head)."""

    kinds = ("onlstm-syd",)

    def __init__(self, config: ModelConfig, seed: int):
        super().__init__(config, seed)
        cfg = config
        self.layers = []  # per layer: (gate matrices, biases), both in GATE_NAMES order
        for layer in range(cfg.n_layers):
            i_dim, hidden = cfg.layer_input(layer), cfg.layer_hidden(layer)
            d_m = hidden // cfg.chunk_factor
            scale = 1.0 / np.sqrt(hidden)
            widths = (hidden, hidden, hidden, hidden, d_m, d_m)
            weights, biases = [], []
            for gname, bname, width in zip(GATE_NAMES, BIAS_NAMES, widths):
                weights.append(self.param("layer%d.%s" % (layer, gname), (i_dim + hidden, width), scale))
                biases.append(self.param("layer%d.%s" % (layer, bname), (width,), None))
            self.layers.append((weights, biases))
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
            self.b_v2 = self.param("b_v2", (1,), None)

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

        fused = [(ad.concat(weights, axis=1), ad.concat(biases, axis=0)) for weights, biases in self.layers]

        hs = [Tensor(h) for h, _ in state]
        cs = [Tensor(c) for _, c in state]
        top_states = []
        forget_steps: list[list[Tensor]] = [[] for _ in range(cfg.n_layers)]
        sup = cfg.supervision_layer - 1
        sup_pre: list[Tensor] = []
        sup_h: list[Tensor] = []

        for t in range(t_len):
            x = x_all[t]
            for layer in range(cfg.n_layers):
                h_in = hs[layer]
                if rec_masks[layer] is not None:
                    h_in = h_in * rec_masks[layer]
                out = onlstm_step(x, h_in, cs[layer], *fused[layer], cfg.layer_hidden(layer), cfg.chunk_factor)
                if not np.isfinite(out.h.data).all() or not np.isfinite(out.c.data).all():
                    raise ad.NumericError("non-finite hidden state at step %d, layer %d" % (t, layer + 1))
                hs[layer], cs[layer] = out.h, out.c
                forget_steps[layer].append(out.master_forget)
                if layer == sup:
                    sup_pre.append(out.hf_pre)
                    sup_h.append(out.h)
                x = out.h
                if layer < cfg.n_layers - 1 and mid_masks[layer] is not None:
                    x = x * mid_masks[layer]
            top_states.append(x)

        logits = self.decode(top_states, rng, train_cfg)
        d_lm = [extract_distance(ad.concat(steps, axis=0)) for steps in forget_steps]
        d_syd = None
        if cfg.supervision_mode == "split-head":
            d_syd = syd_head(ad.concat(sup_pre, axis=0), self.w_s, self.b_s)
        elif cfg.supervision_mode == "one-set-of-trees":
            d_syd = d_lm[sup]
        elif cfg.supervision_mode == "vanilla-multitask":
            d_syd = ad.reshape(feed_forward(ad.concat(sup_h, axis=0), self.w_v1, self.b_v1,
                                            self.w_v2, self.b_v2), (t_len * batch,))
        new_state = [(h.data.copy(), c.data.copy()) for h, c in zip(hs, cs)]
        return ForwardOut(logits=logits, d_lm=d_lm, d_syd=d_syd, state=new_state)
