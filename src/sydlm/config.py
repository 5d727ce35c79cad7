"""Model and training configuration, plus the key = value config file format."""

from __future__ import annotations

import dataclasses
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

SUPERVISION_MODES = ("split-head", "one-set-of-trees", "vanilla-multitask", "none")
TREE_SOURCES = ("gold", "random", "none")
PAIR_MODES = ("as-written", "symmetric")
MODEL_KINDS = ("onlstm-syd", "prpn", "prpn-syd")


class ConfigError(ValueError):
    pass


@dataclass
class ModelConfig:
    """Architecture plus every ablation switch."""

    vocab_size: int = 0
    model: str = "onlstm-syd"
    n_layers: int = 3
    embedding_size: int = 400
    hidden_size: int = 1150
    chunk_factor: int = 1
    supervision_layer: int = 3
    supervision_mode: str = "split-head"
    tie_embeddings: bool = True
    # PRPN family
    prpn_lookback: int = 5
    prpn_temperature: float = 10.0
    prpn_conv_window: int = 3
    prpn_ff_hidden: int = 64

    def validate(self) -> None:
        if self.model not in MODEL_KINDS:
            raise ConfigError("model must be one of %s, got %r" % (MODEL_KINDS, self.model))
        if self.supervision_mode not in SUPERVISION_MODES:
            raise ConfigError("supervision_mode must be one of %s" % (SUPERVISION_MODES,))
        if self.vocab_size < 2:
            raise ConfigError("vocab_size must cover the special ids")
        for name in ("n_layers", "embedding_size", "hidden_size", "chunk_factor",
                     "prpn_lookback", "prpn_conv_window", "prpn_ff_hidden"):
            if getattr(self, name) < 1:
                raise ConfigError("%s must be >= 1, got %d" % (name, getattr(self, name)))
        if self.model == "onlstm-syd":
            if not 1 <= self.supervision_layer <= self.n_layers:
                raise ConfigError("supervision_layer %d outside 1..%d"
                                  % (self.supervision_layer, self.n_layers))
            if self.n_layers == 1 and self.tie_embeddings and self.hidden_size != self.embedding_size:
                # layer_hidden gives the only layer the embedding size
                raise ConfigError("hidden_size %d is unused: a one-layer ON-LSTM with a tied decoder "
                                  "has embedding_size %d units; set them equal or untie the decoder "
                                  "(tie_embeddings=false)" % (self.hidden_size, self.embedding_size))
            for layer in range(self.n_layers):
                hidden = self.layer_hidden(layer)
                if hidden % self.chunk_factor != 0:
                    raise ConfigError("hidden size %d of layer %d not divisible by chunk_factor %d"
                                      % (hidden, layer + 1, self.chunk_factor))
        if self.model in ("prpn", "prpn-syd"):
            if not self.prpn_temperature > 0:  # NaN too
                raise ConfigError("prpn_temperature must be positive, got %r" % self.prpn_temperature)
            if self.model == "prpn" and self.supervision_mode not in ("none",):
                raise ConfigError("model 'prpn' has no supervised distance stream; use prpn-syd")
            if self.model == "prpn-syd" and self.supervision_mode not in ("split-head", "none"):
                raise ConfigError("prpn-syd supports supervision_mode split-head or none")
        _check_finite(self)

    def layer_hidden(self, layer: int) -> int:
        # last layer emits embedding-sized states when the decoder is tied
        if layer == self.n_layers - 1 and self.tie_embeddings:
            return self.embedding_size
        return self.hidden_size

    def layer_input(self, layer: int) -> int:
        return self.embedding_size if layer == 0 else self.layer_hidden(layer - 1)


@dataclass
class TrainConfig:
    """Optimization, batching, supervision source, and regularization."""

    model: ModelConfig = field(default_factory=ModelConfig)
    alpha: float = 0.75
    tree_source: str = "gold"
    pair_mode: str = "symmetric"
    bptt_length: int = 70
    batch_size: int = 20
    epochs: int = 10
    lr: float = 1.0
    lr_decay: float = 0.25
    lr_patience: int = 2
    clip_norm: float = 0.25
    averaging: bool = False
    average_from_epoch: Optional[int] = None
    seed: int = 141
    # dropout: word vectors, recurrent-state stand-in, between layers,
    # final output, embedding rows
    dropout_words: float = 0.5
    dropout_recurrent: float = 0.45
    dropout_layers: float = 0.3
    dropout_output: float = 0.45
    dropout_embedding: float = 0.125

    def validate(self) -> None:
        self.model.validate()
        if not self.alpha >= 0:  # NaN too
            raise ConfigError("alpha must be >= 0, got %r" % self.alpha)
        if self.tree_source not in TREE_SOURCES:
            raise ConfigError("tree_source must be one of %s" % (TREE_SOURCES,))
        if self.pair_mode not in PAIR_MODES:
            raise ConfigError("pair_mode must be one of %s" % (PAIR_MODES,))
        if (self.model.supervision_mode == "none") != (self.tree_source == "none"):
            raise ConfigError("supervision_mode none requires tree_source none and vice versa")
        if self.bptt_length < 2:
            raise ConfigError("bptt_length must be >= 2")
        if self.batch_size < 1 or self.epochs < 1:
            raise ConfigError("batch_size and epochs must be positive")
        if not self.lr > 0:  # NaN too
            raise ConfigError("lr must be positive, got %r" % self.lr)
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr_decay must be in (0, 1], got %r" % self.lr_decay)
        if self.lr_patience < 0:
            raise ConfigError("lr_patience must be >= 0, got %d" % self.lr_patience)
        if self.seed < 0:
            raise ConfigError("seed must be >= 0, got %d" % self.seed)
        if self.average_from_epoch is not None:
            if not self.averaging:
                raise ConfigError("average_from_epoch is set but averaging is off")
            if not 1 <= self.average_from_epoch <= self.epochs:
                raise ConfigError("average_from_epoch %d outside 1..epochs (%d)"
                                  % (self.average_from_epoch, self.epochs))
        for name in ("dropout_words", "dropout_recurrent", "dropout_layers",
                     "dropout_output", "dropout_embedding"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError("%s must be in [0, 1)" % name)
        _check_finite(self)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        """The config a checkpoint header holds, each key set from JSON and
        not yet validated."""
        cfg = cls()
        for key, value in data.items():
            if key != "model":
                apply_setting(cfg, key, value, text=False)
            elif isinstance(value, dict):
                for name, setting in value.items():
                    apply_setting(cfg.model, name, setting, text=False)
            else:
                raise ConfigError("model config must be an object, got %s" % type(value).__name__)
        return cfg


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}

# The field table: each field annotation, with the JSON value types it
# accepts (exact, so that a bool is no int), what its text must be, and the
# parser of its text.
_FIELD_TYPES = {
    "int": ({int}, "an integer", int),
    "float": ({int, float}, "a number", float),
    "bool": ({bool}, "a boolean", lambda text: _BOOLS[text.lower()]),
    "str": ({str}, "a string", str),
    "Optional[int]": ({int, type(None)}, "an integer",
                      lambda text: None if text.lower() in ("none", "") else int(text)),
    "frozenset": ((), "words", lambda text: frozenset(text.split())),  # drop_tags, text only
}


def read_settings(path: str, apply: Callable[[str, str], None]) -> None:
    """``apply(key, value)`` for each `key = value` line of the file at
    `path`; # starts a comment and blank lines are skipped.  An error a line
    raises, in the line or in ``apply``, names the path and the line, and
    a file that is not UTF-8 names the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError("%s: %s" % (path, exc)) from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            if "=" not in line:
                raise ConfigError("expected key = value, got %r" % raw)
            key, value = (part.strip() for part in line.split("=", 1))
            apply(key, value)
        except ValueError as exc:
            raise ConfigError("%s: line %d: %s" % (path, lineno, exc)) from None


def apply_setting(cfg, key: str, value, text: bool = True) -> None:
    """Set field `key` of the config dataclass `cfg` (a TrainConfig, a
    ModelConfig or PreprocessRules) from `value`: the text of a config or
    rules file line or of --set, or with ``text=False`` the JSON value a
    checkpoint header holds.  In text a TrainConfig takes its model's keys
    as its own; a header nests them under "model"."""
    if text and isinstance(cfg, TrainConfig) and key in _names(ModelConfig):
        cfg = cfg.model
    annotation = _names(cfg).get(key)
    if annotation not in _FIELD_TYPES:
        noun = "config key" if isinstance(cfg, (TrainConfig, ModelConfig)) else "rule"
        raise ConfigError("unknown %s %r" % (noun, key))
    json_types, kind, parse = _FIELD_TYPES[annotation]
    if text:
        try:
            value = parse(value.strip())
        except (KeyError, ValueError):
            raise ConfigError("%s expects %s, got %r" % (key, kind, value.strip())) from None
    elif type(value) not in json_types:
        raise ConfigError("%s expects %s, got %s" % (key, kind, json.dumps(value)))
    setattr(cfg, key, value)


def _names(cfg) -> dict:
    """{field name: annotation} of a config dataclass or its class."""
    return {f.name: f.type for f in dataclasses.fields(cfg)}


def _check_finite(cfg) -> None:
    """The rule every float field keeps: finite as a float.  NaN, the
    infinities and a JSON int beyond the float range fail it."""
    for name, annotation in _names(cfg).items():
        if annotation == "float" and not abs(getattr(cfg, name)) <= sys.float_info.max:
            raise ConfigError("%s must be finite, got %r" % (name, getattr(cfg, name)))
