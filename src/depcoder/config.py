"""Run configuration: every tunable of the pipeline with validated defaults.

The defaults are desk-scale: a small model that trains in minutes on a CPU.
``ModelShape`` declares what a checkpoint carries, once for the run
configuration and the encoder's own ``EncoderConfig``: the encoder's shape
and the analysis settings its masks come from.  Each field declares its
type and, next to its default, the rule its values meet (``">= 1"``,
``"in [0, 1)"``, ``"'error' or 'conservative'"``), which is also the text
of the error; ``validate`` checks every field in one loop, and NaN meets
no numeric rule.  The attention mask's disabled value is a constant of
``masks``, not a configuration key.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError


# the value types each declared field type admits: an int is a float, a bool is no int
_ADMITS = {"int": {int}, "float": {int, float}, "str": {str}, "bool": {bool}, "None": {type(None)}}


def _bound(default, rule: str):
    """A field whose values must meet ``rule``: ``">= x"``, ``"> x"``, an interval
    ``"in [lo, hi)"`` (either bracket at either end) or choices ``"'a' or 'b'"``."""
    return field(default=default, metadata={"bound": rule})


def _meets(value, rule: str) -> bool:
    if " or " in rule:
        return repr(value) in rule.split(" or ")
    if rule.startswith("in "):
        lo, hi = (float(end) for end in rule[4:-1].split(","))
        return ((value >= lo if rule[3] == "[" else value > lo)
                and (value <= hi if rule[-1] == "]" else value < hi))
    limit = float(rule.split()[1])
    return value >= limit if rule.startswith(">=") else value > limit


@dataclass
class ModelShape:
    layers: int = _bound(2, ">= 1")
    heads: int = _bound(4, ">= 1")
    hidden: int = _bound(64, ">= 1")
    ffn: int = _bound(256, ">= 1")
    max_len: int = _bound(512, ">= 2")
    r_max: int = _bound(8, ">= 1")
    dropout: float = _bound(0.1, "in [0, 1)")
    dtype: str = _bound("float32", "'float32' or 'float64'")
    # the dependence analysis behind the masks
    flags_dep: bool = False
    on_unknown: str = _bound("error", "'error' or 'conservative'")

    def validate(self) -> None:
        for f in fields(self):  # a subclass's fields too
            value, kinds = getattr(self, f.name), f.type.split(" | ")
            if not any(type(value) in _ADMITS[k] for k in kinds):
                raise ConfigError(f"{f.name} must be {' or '.join(kinds)}, not {value!r}")
            rule = f.metadata.get("bound")
            if rule and value is not None and not _meets(value, rule):
                raise ConfigError(f"{f.name} must be {rule}")
        if self.hidden % self.heads:
            raise ConfigError("hidden must be divisible by heads")


@dataclass
class RunConfig(ModelShape):
    # tokenizer
    vocab_min_freq: int = _bound(1, ">= 1")
    # pre-training
    lr: float = _bound(3e-4, "> 0")
    warmup: int = _bound(100, ">= 0")
    steps: int = _bound(500, ">= 1")
    batch_size: int = _bound(8, ">= 1")
    weight_decay: float = _bound(0.01, ">= 0")
    #: 0 means no clipping
    clip_norm: float = _bound(1.0, ">= 0")
    mlm_rate: float = _bound(0.15, "in (0, 1)")
    mdm_node_frac: float = _bound(0.4, "in [0, 1]")
    # downstream
    triplet_margin: float = _bound(0.2, ">= 0")
    pool_k: int = _bound(4, ">= 1")
    # run plumbing
    seed: int = _bound(0, ">= 0")
    #: BLAS thread count the CLI pins before numpy loads; None leaves BLAS alone
    threads: int | None = _bound(None, ">= 1")
    corpus: str | None = None
    out_dir: str | None = None

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
