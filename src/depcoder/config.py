"""Run configuration: every tunable of the pipeline with validated defaults.

The defaults are desk-scale: a small model that trains in minutes on a CPU.
The encoder's shape (``ModelShape``) is declared once and shared by the run
configuration and the encoder's own ``EncoderConfig``, which a checkpoint
carries.  The attention mask's disabled value is a constant of
``masks``, not a configuration key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

from .errors import ConfigError


# the value types each declared field type admits: an int is a float, a bool is no int
_ADMITS = {"int": {int}, "float": {int, float}, "str": {str}, "bool": {bool}, "None": {type(None)}}


@dataclass
class ModelShape:
    layers: int = 2
    heads: int = 4
    hidden: int = 64
    ffn: int = 256
    max_len: int = 512
    r_max: int = 8
    dropout: float = 0.1
    dtype: str = "float32"

    def validate(self) -> None:
        for f in fields(self):  # a subclass's fields too, before any is compared
            value, kinds = getattr(self, f.name), f.type.split(" | ")
            if not any(type(value) in _ADMITS[k] for k in kinds):
                raise ConfigError(f"{f.name} must be {' or '.join(kinds)}, not {value!r}")
        for name in ("layers", "heads", "hidden", "ffn"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1")
        if self.max_len < 2:
            raise ConfigError("max_len must be >= 2")
        if self.hidden % self.heads:
            raise ConfigError("hidden must be divisible by heads")
        if self.r_max < 1:
            raise ConfigError("r_max must be >= 1")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError("dtype must be 'float32' or 'float64'")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError("dropout must be in [0, 1)")


@dataclass
class RunConfig(ModelShape):
    # tokenizer / analysis
    vocab_min_freq: int = 1
    flags_dep: bool = False
    on_unknown: str = "error"  # or "conservative"
    # pre-training
    lr: float = 3e-4
    warmup: int = 100
    steps: int = 500
    batch_size: int = 8
    weight_decay: float = 0.01
    #: 0 means no clipping
    clip_norm: float = 1.0
    mlm_rate: float = 0.15
    mdm_node_frac: float = 0.4
    # downstream
    triplet_margin: float = 0.2
    pool_k: int = 4
    # run plumbing
    seed: int = 0
    #: BLAS thread count the CLI pins before numpy loads; None leaves BLAS alone
    threads: int | None = None
    corpus: str | None = None
    out_dir: str | None = None

    def validate(self) -> None:
        super().validate()
        if self.on_unknown not in ("error", "conservative"):
            raise ConfigError("on_unknown must be 'error' or 'conservative'")
        if not 0.0 < self.mlm_rate < 1.0:
            raise ConfigError("mlm_rate must be in (0, 1)")
        if not 0.0 <= self.mdm_node_frac <= 1.0:
            raise ConfigError("mdm_node_frac must be in [0, 1]")
        if self.pool_k < 1:
            raise ConfigError("pool_k must be >= 1")
        if self.steps < 1 or self.batch_size < 1:
            raise ConfigError("steps and batch_size must be positive")
        if self.warmup < 0:
            raise ConfigError("warmup must be >= 0")
        if self.threads is not None and self.threads < 1:
            raise ConfigError("threads must be >= 1")
        if self.seed < 0:
            raise ConfigError("seed must be >= 0")
        if not self.lr > 0.0:
            raise ConfigError("lr must be > 0")
        for name in ("weight_decay", "clip_norm", "triplet_margin"):
            if not getattr(self, name) >= 0.0:
                raise ConfigError(f"{name} must be >= 0")
        if self.vocab_min_freq < 1:
            raise ConfigError("vocab_min_freq must be >= 1")

    def encoder_config(self, vocab_size: int):
        """The ``EncoderConfig`` of a fresh model of this shape."""
        from .encoder import EncoderConfig
        shape = {f.name: getattr(self, f.name) for f in fields(ModelShape)}
        return EncoderConfig(vocab_size=vocab_size, **shape)

    @classmethod
    def from_dict(cls, data: dict) -> "RunConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path) -> "RunConfig":
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, ValueError) as e:  # unreadable, not UTF-8 or not JSON
            raise ConfigError(f"config file {path}: {e}") from e
        if not isinstance(data, dict):
            raise ConfigError(f"config file {path} must hold a JSON object")
        return cls.from_dict(data)
