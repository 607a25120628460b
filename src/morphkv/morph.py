"""Constant-size dynamic token selection.

Each (layer, KV head) store keeps the newest ``recent_window`` entries
verbatim for local coherence, plus the ``distant_capacity`` older entries
that the recent window attended to most strongly. Relevance of a distant
entry is the fusion (sum or max) of its column across the windowed
attention rows; ties rank the newer entry first, consistent with the
recency bias of the forced window. Every step works on the whole stack of
unprotected layers at once: one fusion, one ranking and one compaction
give each (layer, KV head) store its own retained set, so different heads
converge on different entries while every store of the stack keeps the
same number.

Eviction runs after the new token's entry and profile row are in place,
so the newest token is always a window member when selection executes.
"""

from __future__ import annotations

import numpy as np

from .cache import KvCacheState
from .config import EvictionPolicyConfig
from .errors import InvalidShape


def fuse(cache: KvCacheState, layers: int | range, fusion: str) -> np.ndarray:
    """Combine each KV head's profile rows at ``layers`` into one score per
    distant entry: ``(heads, distant)`` for one layer, ``(layers, heads,
    distant)`` for a stack of layers with one occupancy and recorded-row count.

    The last ``min(window_capacity, occupancy)`` entries are the recent
    window and get no score: they are retained unconditionally, so only the
    columns of older (distant) entries are returned, in entry order. Rows
    are combined oldest first, as :meth:`KvCacheState.score_matrix` returns
    them. ``fusion`` is ``"sum"`` or ``"max"``, as a config checks it. The
    rings hold at least one row: the prefill records one per prompt
    position before any policy or result reads them.
    """
    occ = cache.occupancy(layers)
    distant = occ - min(cache.window_capacity, occ)
    stacked = cache.score_matrix(layers, distant)
    return stacked.sum(axis=-2) if fusion == "sum" else stacked.max(axis=-2)


def select_retained(scores, occupancy: int, distant_capacity: int, recent_window: int) -> np.ndarray:
    """Indices to keep out of ``occupancy`` entries, one row per store:
    the recent window plus the top-scoring distant entries.

    ``scores`` is ``(..., distant)`` over any leading axes, such as
    :func:`fuse`'s, and must align with the distant prefix of the entries.
    Returns ``(..., kept)`` indices, each row sorted, so entry order is
    preserved; equal scores favor the larger index (the more recent
    entry). ``kept`` is ``min(occupancy, distant_capacity + recent_window)``;
    a config's checks hold ``distant_capacity >= 0`` and ``recent_window >= 1``.
    """
    recent = min(recent_window, occupancy)
    distant_count = occupancy - recent
    ranked = np.asarray(scores, dtype=np.float64)
    if ranked.ndim < 1 or ranked.shape[-1] != distant_count:
        raise InvalidShape(
            f"expected {distant_count} distant scores per store, got shape {ranked.shape}"
        )
    keep_distant = min(distant_capacity, distant_count)
    # A stable ascending sort ranks each row by (score, index), so of equal
    # scores the older ranks lower; the last keep_distant rank highest, and
    # sorting them puts them back in entry order.
    order = np.argsort(ranked, axis=-1, kind="stable")
    retained = np.empty((*ranked.shape[:-1], keep_distant + recent), dtype=np.intp)
    retained[..., :keep_distant] = order[..., distant_count - keep_distant :]
    retained[..., :keep_distant].sort(axis=-1)
    retained[..., keep_distant:] = np.arange(distant_count, occupancy)
    return retained


def _evict(cache: KvCacheState, layers: range, fusion: str, cfg: EvictionPolicyConfig) -> None:
    if not layers or (occ := cache.occupancy(layers)) <= cfg.cache_budget:
        return
    scores = fuse(cache, layers, fusion)
    cache.keep(layers.start, select_retained(scores, occ, cfg.distant_capacity, cfg.recent_window))


def morphkv_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig, step_index: int
) -> KvCacheState:
    """One decode-step policy application.

    On steps whose index is a multiple of ``eviction_interval``, trims
    every unprotected layer that exceeds the budget back to exactly
    ``distant_capacity + recent_window`` entries per KV head. The decoder
    has already recorded the step's rows, so ``step_output`` is not read.
    """
    if step_index % cfg.eviction_interval:
        return cache
    _evict(cache, range(cfg.protected_layers, cache.n_layers), cfg.fusion, cfg)
    return cache


def prefill_compress(cache: KvCacheState, cfg: EvictionPolicyConfig) -> KvCacheState:
    """Optional one-shot compression of the prompt before decoding starts.

    Uses the rows the prefill recorded into the profiles (the last
    ``recent_window`` prompt positions; fewer if the prompt is shorter,
    which is not an error). A prompt already within budget is untouched.
    """
    _evict(cache, range(cfg.protected_layers, cache.n_layers), cfg.effective_prefill_fusion, cfg)
    return cache
