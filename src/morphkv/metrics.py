"""Byte accounting and output-degeneration metrics.

The memory model is exact arithmetic, not an estimate: an entry costs one
key vector and one value vector per store that holds it. Grouped policies
keep one store per KV head; policies that retain per query head pay the
full head count for the same retained token set. ``_entry_bytes`` states
that cost once; ``kv_bytes`` and ``kv_bytes_from_occupancies`` only count
the entries it applies to.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import EvictionPolicyConfig, ModelConfig
from .errors import InvalidParam

# Policies that keep one copy of every entry per query head instead of one per
# KV-head group: it changes the bytes counted, never which tokens are retained.
ALL_HEADS_KINDS = frozenset({"snapkv", "h2o"})


def _entry_bytes(policy: EvictionPolicyConfig, model: ModelConfig, bytes_per_scalar: int) -> int:
    """Bytes of one entry in one (layer, KV head) store: a key and a value
    vector of ``head_dim`` scalars, hence the 2, per stored copy. A policy
    that retains per query head stores one copy per head of the group.
    ``bytes_per_scalar`` is trusted: ``RunConfig`` and, for a trace read
    back, ``StepTrace.from_dict`` refuse a width below 1."""
    copies = model.group_size if policy.kind in ALL_HEADS_KINDS else 1
    return copies * model.head_dim * 2 * bytes_per_scalar


def kv_bytes(
    policy: EvictionPolicyConfig,
    occupancy_trace,
    model: ModelConfig,
    bytes_per_scalar: int = 8,
) -> list[int]:
    """Bytes held per step for a uniform per-store occupancy stream: each
    step, every (layer, KV head) store holds that step's occupancy."""
    stores = model.n_layers * model.n_kv_heads
    per_entry = stores * _entry_bytes(policy, model, bytes_per_scalar)
    return [int(occ) * per_entry for occ in occupancy_trace]


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
    total = sum(occ for layer in occupancies for occ in layer)
    return total * _entry_bytes(policy, model, bytes_per_scalar)


def relative_cache_ratio(policy_bytes, full_bytes) -> list[float]:
    """Elementwise policy bytes over full-attention bytes. The one caller,
    ``harness.cache_ratios``, passes streams of one non-zero length, and
    full attention holds at least the prompt at every step."""
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
