"""Training hyperparameters."""
from __future__ import annotations

import sys
from dataclasses import dataclass, fields


@dataclass(frozen=True)
class TrainConfig:
    """Every knob of a training run.

    ``fisher_weight=0`` turns the Fisher regularizer off (the base
    reciprocal-point model); the default ``1.0`` enables it (the "++"
    variant).  ``logit_scale`` is a fixed, non-trainable multiplier on
    the distance logits.
    """

    ce_weight: float = 1.0
    margin_weight: float = 1.0
    fisher_weight: float = 1.0
    lr: float = 1e-3
    epochs: int = 60
    batch_size: int = 128
    hidden_dims: tuple = (256, 128)
    embed_dim: int = 64
    dropout_rate: float = 0.2
    logit_scale: float = 1.0
    seed: int = 0
    adam_beta1: float = 0.9
    adam_beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        for f in fields(self):
            # abs(), not math.isfinite(): an int too large for a float is not finite either
            if isinstance(f.default, float) and not abs(getattr(self, f.name)) <= sys.float_info.max:
                raise ValueError(f"{f.name} must be finite, got {getattr(self, f.name)}")
        if self.lr <= 0:
            raise ValueError("lr must be positive")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.embed_dim < 1:
            raise ValueError("embed_dim must be >= 1")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError("dropout_rate must lie in [0, 1)")
        if self.logit_scale <= 0:
            raise ValueError("logit_scale must be positive")
        if len(self.hidden_dims) != 2:
            raise ValueError("hidden_dims must name exactly two hidden layer sizes")
        if min(self.hidden_dims) < 1:
            raise ValueError("hidden_dims sizes must be >= 1")
        if min(self.ce_weight, self.margin_weight, self.fisher_weight) < 0:
            raise ValueError("loss weights must be non-negative")
        for key in ("adam_beta1", "adam_beta2"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise ValueError(f"{key} must lie in [0, 1), got {getattr(self, key)}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.adam_eps <= 0:
            raise ValueError(f"adam_eps must be positive, got {self.adam_eps}")
        object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            out[f.name] = list(v) if isinstance(v, tuple) else v
        return out

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Build a config from parsed JSON.  Values are checked, not
        coerced: an int field takes an int, a float field an int or a
        float (kept as given), ``hidden_dims`` a list of two ints; a bool
        is neither.  Anything else is a ValueError naming the key."""
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, not {type(d).__name__}")
        known = {f.name: type(f.default) for f in fields(cls)}
        unknown = sorted(set(d) - set(known))
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        for key, value in d.items():
            if known[key] is int:
                ok, want = _is_int(value), "an integer"
            elif known[key] is float:
                ok, want = _is_int(value) or isinstance(value, float), "a number"
            else:
                ok = isinstance(value, (list, tuple)) and len(value) == 2 and all(map(_is_int, value))
                want = "a list of two integers"
            if not ok:
                raise ValueError(f"config key {key!r} must be {want}, got {value!r}")
        d = dict(d)
        if "hidden_dims" in d:
            d["hidden_dims"] = tuple(d["hidden_dims"])
        return cls(**d)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)
