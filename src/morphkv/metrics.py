"""Byte accounting and output-degeneration metrics.

The memory model is exact arithmetic, not an estimate: an entry costs one
key vector and one value vector per store that holds it. Grouped policies
keep one store per KV head; policies that retain per query head pay the
full head count for the same retained token set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EvictionPolicyConfig, ModelConfig
from .errors import EmptyTrace, InvalidParam, TraceMismatch


def head_multiplier(policy: EvictionPolicyConfig, model: ModelConfig) -> int:
    return model.n_query_heads if policy.uses_all_heads() else model.n_kv_heads


def kv_bytes(
    policy: EvictionPolicyConfig,
    occupancy_trace,
    model: ModelConfig,
    bytes_per_scalar: int = 8,
) -> list[int]:
    """Bytes held per step for a uniform per-store occupancy stream.

    bytes = occupancy * heads * layers * head_dim * 2 * bytes_per_scalar,
    where heads is the stored-head count for the policy and the 2 covers
    the key and value vectors.
    """
    if bytes_per_scalar < 1:
        raise InvalidParam("bytes_per_scalar must be >= 1")
    per_entry = head_multiplier(policy, model) * model.n_layers * model.head_dim * 2
    return [int(occ) * per_entry * bytes_per_scalar for occ in occupancy_trace]


def kv_bytes_from_occupancies(
    occupancies: list[list[int]],
    model: ModelConfig,
    policy: EvictionPolicyConfig,
    bytes_per_scalar: int = 8,
) -> int:
    """Single-step bytes from a per (layer, head) occupancy grid.

    Needed whenever stores diverge, e.g. when the first layers are
    protected from eviction while the rest are trimmed.
    """
    factor = model.group_size if policy.uses_all_heads() else 1
    total = sum(occ for layer in occupancies for occ in layer)
    return total * factor * model.head_dim * 2 * bytes_per_scalar


def profile_overhead_bytes(cache, bytes_per_scalar: int = 8) -> int:
    """Scalars held by the profile windows, if one chooses to count them."""
    total = sum(len(window) * window.width for layer in cache.windows for window in layer)
    return total * bytes_per_scalar


def relative_cache_ratio(policy_bytes, full_bytes) -> list[float]:
    """Elementwise policy bytes over full-attention bytes."""
    policy_bytes = list(policy_bytes)
    full_bytes = list(full_bytes)
    if not policy_bytes or not full_bytes:
        raise EmptyTrace("cannot compare empty byte streams")
    if len(policy_bytes) != len(full_bytes):
        raise TraceMismatch("byte streams differ in length")
    if any(b == 0 for b in full_bytes):
        raise EmptyTrace("full-attention byte stream hits zero")
    return [p / f for p, f in zip(policy_bytes, full_bytes)]


@dataclass(frozen=True)
class RepetitionReport:
    n: int
    total_grams: int
    distinct_grams: int
    repetition_rate: float


def repetition_rate(tokens, n: int) -> RepetitionReport:
    """Share of sliding n-grams that repeat an earlier one.

    rate = 1 - distinct / total over all ``len(tokens) - n + 1`` windows;
    a sequence shorter than ``n`` has no windows and rate 0. Counting uses
    only token identity, so any relabeling bijection preserves the rate.
    """
    if n < 1:
        raise InvalidParam("n-gram size must be >= 1")
    tokens = list(tokens)
    total = max(0, len(tokens) - n + 1)
    if total == 0:
        return RepetitionReport(n=n, total_grams=0, distinct_grams=0, repetition_rate=0.0)
    distinct = len({tuple(tokens[i : i + n]) for i in range(total)})
    return RepetitionReport(
        n=n,
        total_grams=total,
        distinct_grams=distinct,
        repetition_rate=1.0 - distinct / total,
    )
