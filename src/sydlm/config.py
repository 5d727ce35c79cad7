"""Model and training configuration, plus the key = value config file format."""

from __future__ import annotations

import dataclasses
import json
import math
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
            if not 0 < self.prpn_temperature < math.inf:  # NaN too
                raise ConfigError("prpn_temperature must be positive and finite, got %r" % self.prpn_temperature)
            if self.model == "prpn" and self.supervision_mode not in ("none",):
                raise ConfigError("model 'prpn' has no supervised distance stream; use prpn-syd")
            if self.model == "prpn-syd" and self.supervision_mode not in ("split-head", "none"):
                raise ConfigError("prpn-syd supports supervision_mode split-head or none")

    def layer_hidden(self, layer: int) -> int:
        # last layer emits embedding-sized states when the decoder is tied
        if layer == self.n_layers - 1 and self.tie_embeddings:
            return self.embedding_size
        return self.hidden_size

    def layer_input(self, layer: int) -> int:
        return self.embedding_size if layer == 0 else self.layer_hidden(layer - 1)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ModelConfig":
        return cls(**_json_fields(cls, data, "model config"))


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
        if not 0 <= self.alpha < math.inf:  # NaN too
            raise ConfigError("alpha must be >= 0 and finite, got %r" % self.alpha)
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
        if not 0 < self.lr < math.inf:  # NaN too
            raise ConfigError("lr must be positive and finite, got %r" % self.lr)
        if not 0 < self.lr_decay <= 1:
            raise ConfigError("lr_decay must be in (0, 1], got %r" % self.lr_decay)
        if self.lr_patience < 0:
            raise ConfigError("lr_patience must be >= 0, got %d" % self.lr_patience)
        if math.isnan(self.clip_norm):  # 0 or below means no clipping
            raise ConfigError("clip_norm must not be NaN")
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

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        kwargs = _json_fields(cls, data, "config")
        return cls(model=ModelConfig.from_dict(data.get("model", {})), **kwargs)


# the JSON value types each annotated field type accepts; exact, so a bool is no int
_JSON_TYPES = {"int": {int}, "float": {int, float}, "bool": {bool}, "str": {str},
               "Optional[int]": {int, type(None)}}


def _json_fields(cls, data: dict, what: str) -> dict:
    """The fields of dataclass `cls` present in the JSON object `data`, each
    checked against its annotated type; a nested ModelConfig is left out."""
    if not isinstance(data, dict):
        raise ConfigError("%s must be an object, got %s" % (what, type(data).__name__))
    kwargs = {}
    for f in dataclasses.fields(cls):
        if f.name in data and f.type != "ModelConfig":
            value = data[f.name]
            if type(value) not in _JSON_TYPES[f.type]:
                raise ConfigError("%s: %s must be %s, got %s" % (what, f.name, f.type, json.dumps(value)))
            kwargs[f.name] = value
    return kwargs


_MODEL_FIELDS = {f.name: f for f in dataclasses.fields(ModelConfig)}
_TRAIN_FIELDS = {f.name: f for f in dataclasses.fields(TrainConfig) if f.name != "model"}


def _coerce(name: str, text: str, typ: str) -> object:
    """Parse `text` for a field whose annotation is the string `typ`."""
    text = text.strip()
    if typ == "bool":
        if text.lower() in ("true", "1", "yes", "on"):
            return True
        if text.lower() in ("false", "0", "no", "off"):
            return False
        raise ConfigError("%s expects a boolean, got %r" % (name, text))
    if typ == "Optional[int]":
        if text.lower() in ("none", ""):
            return None
        typ = "int"
    if typ in ("int", "float"):
        try:
            return int(text) if typ == "int" else float(text)
        except ValueError:
            kind = "an integer" if typ == "int" else "a number"
            raise ConfigError("%s expects %s, got %r" % (name, kind, text)) from None
    return text


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


def apply_setting(cfg: TrainConfig, key: str, value: str) -> None:
    if key in _TRAIN_FIELDS:
        setattr(cfg, key, _coerce(key, value, _TRAIN_FIELDS[key].type))
    elif key in _MODEL_FIELDS:
        setattr(cfg.model, key, _coerce(key, value, _MODEL_FIELDS[key].type))
    else:
        raise ConfigError("unknown config key %r" % key)
