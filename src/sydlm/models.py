"""The shell both model families share: word prediction and the distance
objectives read one representation, so a model is an embedding front end,
a family-specific body that emits distances and top-layer states, and a
word decoder.  `build_model` picks the family from the config."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ModelConfig, TrainConfig


@dataclass
class ForwardOut:
    tops: Tensor                   # (T*B, H) top-layer states after the output mask, time-major rows
    decoder: tuple                 # (weight, bias, transpose_b): affine's projection of tops to logits
    d_lm: list                     # per layer, each (T*B,)
    d_syd: Optional[Tensor]        # (T*B,) or None
    state: object                  # detached numpy state to carry to the next window

    @property
    def logits(self) -> Tensor:
        """(T*B, V) logits of every row at once, projected on each read; a
        taped step scores them in row blocks instead (`training.lm_loss`)."""
        return affine(self.tops, *self.decoder)


def locked_mask(rng: Optional[np.random.Generator], train_cfg: Optional[TrainConfig],
                rate: str, shape: tuple) -> Optional[Tensor]:
    """Inverted-dropout mask at the train_cfg rate named `rate`, drawn once
    and reused at every step of a window; None when not training or the
    rate is 0."""
    p = getattr(train_cfg, rate, 0.0)
    if rng is None or p == 0.0:
        return None
    return Tensor((rng.random(shape) >= p) / (1.0 - p))


class LanguageModel:
    """Embedding, decoder and parameter store of a model family.

    Parameters are drawn from one generator seeded at construction, in the
    order the family creates them; the names and that order are the
    checkpoint layout.  A forward draws its dropout masks from the trainer's
    generator in a fixed order: embedding rows and words (`embed`), then the
    body's own masks, then the output mask (`output_rows`).
    """

    kinds: tuple = ()

    def __init__(self, config: ModelConfig, seed: int):
        config.validate()
        if config.model not in self.kinds:
            raise ValueError("%s requires model %s, got %r"
                             % (type(self).__name__, " or ".join(self.kinds), config.model))
        self.config = config
        self.params: dict[str, Tensor] = {}
        self._init_rng = np.random.default_rng(seed)
        self.embedding = self.param("embedding", (config.vocab_size, config.embedding_size), 0.1)

    def param(self, name: str, shape: tuple, scale: Optional[float]) -> Tensor:
        """A trainable parameter, uniform in [-scale, scale], or zeros when
        scale is None."""
        data = np.zeros(shape) if scale is None else self._init_rng.uniform(-scale, scale, size=shape)
        t = Tensor(data, requires_grad=True, name=name)
        self.params[name] = t
        return t

    def init_decoder(self, width: int) -> None:
        """W_out (untied only) and b_out over top-layer states of `width`."""
        cfg = self.config
        self.w_out = None
        if not cfg.tie_embeddings:
            self.w_out = self.param("W_out", (width, cfg.vocab_size), 1.0 / np.sqrt(width))
        self.b_out = self.param("b_out", (cfg.vocab_size,), None)

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None

    def embed(self, inputs: np.ndarray, rng=None, train_cfg=None) -> Tensor:
        """(T, B) ids -> (T, B, E) vectors, after embedding-row dropout and
        then word dropout."""
        emb_matrix = self.embedding
        rows = locked_mask(rng, train_cfg, "dropout_embedding", (self.config.vocab_size, 1))
        if rows is not None:
            emb_matrix = emb_matrix * rows
        x_all = ad.embedding(emb_matrix, inputs)
        word_mask = locked_mask(rng, train_cfg, "dropout_words",
                                (1, inputs.shape[1], self.config.embedding_size))
        return x_all * word_mask if word_mask is not None else x_all

    def output_rows(self, tops: Tensor, rng=None, train_cfg=None) -> Tensor:
        """The (T*B, H) rows the decoder projects: the (T, B, H) window of
        top-layer states, every step times one locked (B, H) output dropout
        mask, flattened to time-major rows.  The logits are formed from
        them by `ForwardOut.logits`, or in row blocks by `training.lm_loss`."""
        t_len, batch, width = tops.shape
        out_mask = locked_mask(rng, train_cfg, "dropout_output", (batch, width))
        if out_mask is not None:
            tops = tops * out_mask
        return ad.reshape(tops, (t_len * batch, width))

    @property
    def decoder(self) -> tuple:
        """(weight, bias, transpose_b) of the tied or untied projection from
        output rows to logits, as `affine` takes them."""
        if self.w_out is None:
            return self.embedding, self.b_out, True
        return self.w_out, self.b_out, False


def affine(x: Tensor, w: Tensor, b: Tensor, transpose_b: bool = False) -> Tensor:
    """x @ w + b, with w transposed under transpose_b."""
    return ad.matmul(x, w, transpose_b) + b


def window(steps: list) -> Tensor:
    """Per-step (B, width) tensors as one time-major (T, B, width) window,
    the form a model's stages exchange."""
    batch, width = steps[0].shape
    return ad.reshape(ad.concat(steps, axis=0), (len(steps), batch, width))


def lstm_gates(x: Tensor, h: Tensor, weight: Tensor, bias: Tensor, hidden: int):
    """The gate block of an LSTM step: [x, h] times the fused gate matrix
    plus bias, then the forget, input and output gates and the candidate
    from its first 4*hidden columns.  Returns (f, i, o, candidate, pre);
    any columns of the preactivation `pre` past 4*hidden are the caller's."""
    pre = affine(ad.concat([x, h], axis=1), weight, bias)
    return (ad.sigmoid(pre[:, 0:hidden]),
            ad.sigmoid(pre[:, hidden : 2 * hidden]),
            ad.sigmoid(pre[:, 2 * hidden : 3 * hidden]),
            ad.tanh(pre[:, 3 * hidden : 4 * hidden]),
            pre)


def feed_forward(x: Tensor, w1: Tensor, b1: Tensor, w2: Tensor) -> Tensor:
    """Distance head: ReLU hidden layer, then one scalar per row of x, shaped
    x.shape[:-1].  No output bias: distances are read only through their
    differences, where it would cancel and so never train."""
    return ad.reshape(ad.matmul(ad.relu(affine(x, w1, b1)), w2), x.shape[:-1])


def build_model(config: ModelConfig, seed: int) -> LanguageModel:
    if config.model == "onlstm-syd":
        return OnLstmLM(config, seed)
    return PrpnLM(config, seed)


# The families subclass LanguageModel, so they load after it.  Loading them
# here also means `import sydlm` loads both.
from .onlstm import OnLstmLM  # noqa: E402
from .prpn import PrpnLM  # noqa: E402
