"""Model and eviction-policy configuration.

The dataclass fields are the one schema of the ``[model]`` and ``[policy]``
config keys: :data:`FIELD_TYPES` says how an INI file and a trace's JSON
hold each field, by its annotation.
"""

from __future__ import annotations

from configparser import ConfigParser
from dataclasses import dataclass, fields
from typing import Callable, NamedTuple

from .errors import InvalidConfig

POLICY_KINDS = (
    "morphkv",
    "scissorhands",
    "streamingllm",
    "h2o",
    "snapkv",
    "full_attention",
)

FUSION_KINDS = ("sum", "max")


def is_int(value) -> bool:
    """An integer JSON value; ``true`` and ``false`` load as bools, which are not."""
    return isinstance(value, int) and not isinstance(value, bool)


class FieldType(NamedTuple):
    read: Callable  # (parser, section, key) -> value
    check: Callable  # JSON value -> bool


# Keyed by field annotation, a string since this module postpones evaluation.
FIELD_TYPES = {
    "int": FieldType(ConfigParser.getint, is_int),
    "str": FieldType(ConfigParser.get, lambda v: isinstance(v, str)),
    "bool": FieldType(ConfigParser.getboolean, lambda v: isinstance(v, bool)),
    "str | None": FieldType(ConfigParser.get, lambda v: v is None or isinstance(v, str)),
}


def field_types(cls) -> dict[str, str]:
    """Each field name of a config dataclass mapped to its annotation."""
    return {f.name: f.type for f in fields(cls)}


@dataclass(frozen=True)
class ModelConfig:
    """Architecture of the toy decoder.

    ``n_query_heads`` must be a multiple of ``n_kv_heads``; each group of
    ``n_query_heads // n_kv_heads`` consecutive query heads shares one
    key/value head. ``n_kv_heads == n_query_heads`` is ordinary multi-head
    attention.
    """

    n_layers: int = 4
    n_query_heads: int = 8
    n_kv_heads: int = 2
    head_dim: int = 16
    vocab_size: int = 256
    seed: int = 0

    @property
    def d_model(self) -> int:
        return self.n_query_heads * self.head_dim

    @property
    def group_size(self) -> int:
        return self.n_query_heads // self.n_kv_heads

    def validate(self) -> "ModelConfig":
        if self.n_layers < 1:
            raise InvalidConfig("n_layers must be >= 1")
        if self.n_kv_heads < 1:
            raise InvalidConfig("n_kv_heads must be >= 1")
        if self.n_query_heads < 1 or self.n_query_heads % self.n_kv_heads:
            raise InvalidConfig("n_query_heads must be a positive multiple of n_kv_heads")
        if self.head_dim < 2 or self.head_dim % 2:
            raise InvalidConfig("head_dim must be even: rotary encoding rotates dimension pairs")
        if self.vocab_size < 2:
            raise InvalidConfig("vocab_size must be >= 2")
        if max(self.d_model, self.vocab_size) >= 2**63:
            raise InvalidConfig("n_query_heads * head_dim and vocab_size must be below 2**63")
        if not 0 <= self.seed < 2**64:
            raise InvalidConfig("seed must fit in an unsigned 64-bit integer")
        return self


@dataclass(frozen=True)
class EvictionPolicyConfig:
    """What to keep in the cache and when to decide.

    ``distant_capacity`` is the budget of older tokens retained beyond the
    ``recent_window`` newest ones, so the steady-state cache holds
    ``distant_capacity + recent_window`` entries per (layer, KV head).
    ``fusion`` combines the windowed attention rows when ranking distant
    entries during decode; ``prefill_fusion`` does the same for the optional
    one-shot prompt compression and defaults to ``fusion``.

    ``eviction_interval`` coarsens scheduling: selection runs only on steps
    whose index is a multiple of it. ``protected_layers`` exempts the first
    k layers from eviction entirely. ``sink_count`` is only read by
    ``streamingllm``, ``prefill_budget`` and the observation window only by
    ``snapkv``.
    """

    kind: str = "morphkv"
    distant_capacity: int = 48
    recent_window: int = 16
    fusion: str = "sum"
    prefill_fusion: str | None = None
    eviction_interval: int = 1
    protected_layers: int = 0
    sink_count: int = 0
    prefill_budget: int = 0
    compress_prefill: bool = False

    @property
    def cache_budget(self) -> int:
        return self.distant_capacity + self.recent_window

    @property
    def effective_prefill_fusion(self) -> str:
        return self.fusion if self.prefill_fusion is None else self.prefill_fusion

    def validate(self, n_layers: int | None = None) -> "EvictionPolicyConfig":
        if self.kind not in POLICY_KINDS:
            raise InvalidConfig(f"unknown policy kind {self.kind!r}")
        if self.distant_capacity < 0:
            raise InvalidConfig("distant_capacity must be >= 0")
        if self.recent_window < 1:
            raise InvalidConfig("recent_window must be >= 1")
        if self.fusion not in FUSION_KINDS:
            raise InvalidConfig(f"unknown fusion {self.fusion!r}")
        if self.prefill_fusion is not None and self.prefill_fusion not in FUSION_KINDS:
            raise InvalidConfig(f"unknown prefill fusion {self.prefill_fusion!r}")
        if self.eviction_interval < 1:
            raise InvalidConfig("eviction_interval must be >= 1")
        if self.protected_layers < 0:
            raise InvalidConfig("protected_layers must be >= 0")
        if n_layers is not None and self.protected_layers > n_layers:
            raise InvalidConfig("protected_layers exceeds n_layers")
        if self.sink_count < 0:
            raise InvalidConfig("sink_count must be >= 0")
        if self.kind == "snapkv" and self.prefill_budget < 1:
            raise InvalidConfig("snapkv needs prefill_budget >= 1")
        if self.prefill_budget < 0:
            raise InvalidConfig("prefill_budget must be >= 0")
        return self
