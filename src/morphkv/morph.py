"""Constant-size dynamic token selection.

Each (layer, KV head) store keeps the newest ``recent_window`` entries
verbatim for local coherence, plus the ``distant_capacity`` older entries
that the recent window attended to most strongly. Relevance of a distant
entry is the fusion (sum or max) of its column across the windowed
attention rows; ties rank the newer entry first, consistent with the
recency bias of the forced window. Decisions are made independently per
store, so different heads converge on different retained sets.

Eviction runs after the new token's entry and profile row are in place,
so the newest token is always a window member when selection executes.
"""

from __future__ import annotations

import numpy as np

from .cache import KvCacheState
from .config import EvictionPolicyConfig
from .errors import EmptyWindow, InvalidConfig, InvalidParam, InvalidShape


def fuse(cache: KvCacheState, layer: int, head: int, fusion: str) -> np.ndarray:
    """Combine one store's profile rows into one score per distant entry.

    The last ``min(window_capacity, occupancy)`` entries are the recent
    window and get no score: they are retained unconditionally, so only the
    columns of older (distant) entries are returned, in entry order. Rows
    are combined oldest first, as :meth:`KvCacheState.score_matrix` returns
    them.
    """
    occ = cache.occupancy(layer, head)
    distant = occ - min(cache.window_capacity, occ)
    stacked = cache.score_matrix(layer, head, distant)
    if stacked.shape[0] == 0:
        raise EmptyWindow("cannot fuse an empty profile window")
    if distant == 0:
        return np.zeros(0, dtype=np.float64)
    if fusion == "sum":
        return stacked.sum(axis=0)
    if fusion == "max":
        return stacked.max(axis=0)
    raise InvalidParam(f"unknown fusion {fusion!r}")


def select_retained(entries, scores, distant_capacity: int, recent_window: int) -> list[int]:
    """Indices to keep: the recent window plus the top-scoring distant entries.

    Only ``len(entries)`` is read, so the store's position array serves.
    ``scores`` must align with the distant prefix of ``entries``. Returns
    sorted indices, so entry order is preserved; equal scores favor the
    larger index (the more recent entry). Size is
    ``min(len(entries), distant_capacity + recent_window)``.
    """
    if distant_capacity < 0 or recent_window < 1:
        raise InvalidParam("need distant_capacity >= 0 and recent_window >= 1")
    occ = len(entries)
    recent = min(recent_window, occ)
    distant_count = occ - recent
    ranked = np.asarray(scores, dtype=np.float64)
    if ranked.ndim != 1 or ranked.size != distant_count:
        raise InvalidShape(
            f"expected {distant_count} distant scores, got {ranked.size}"
        )
    keep_distant = min(distant_capacity, distant_count)
    # Ascending by (score, index): the last keep_distant rank highest. A
    # mask puts them back in entry order without paging in np.sort.
    order = np.lexsort((np.arange(distant_count), ranked))
    kept = np.zeros(distant_count, dtype=bool)
    kept[order[distant_count - keep_distant :]] = True
    return np.flatnonzero(kept).tolist() + list(range(distant_count, occ))


def _evict_store(
    cache: KvCacheState, layer: int, head: int, fusion: str, cfg: EvictionPolicyConfig
) -> None:
    occ = cache.occupancy(layer, head)
    if occ <= cfg.cache_budget:
        return
    scores = fuse(cache, layer, head, fusion)
    retained = select_retained(
        cache.positions(layer, head), scores, cfg.distant_capacity, cfg.recent_window
    )
    cache.keep(layer, head, retained)


def morphkv_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig, step_index: int
) -> KvCacheState:
    """One decode-step policy application.

    On steps whose index is a multiple of ``eviction_interval``, trims
    every unprotected store that exceeds the budget back to exactly
    ``distant_capacity + recent_window`` entries. The decoder has already
    recorded the step's rows, so ``step_output`` is not read.
    """
    if cfg.kind != "morphkv":
        raise InvalidConfig(f"morphkv_step got policy kind {cfg.kind!r}")
    if step_index % cfg.eviction_interval:
        return cache
    for layer in range(cfg.protected_layers, cache.n_layers):
        for head in range(cache.n_kv_heads):
            _evict_store(cache, layer, head, cfg.fusion, cfg)
    return cache


def prefill_compress(cache: KvCacheState, cfg: EvictionPolicyConfig) -> KvCacheState:
    """Optional one-shot compression of the prompt before decoding starts.

    Uses the rows the prefill recorded into the profiles (the last
    ``recent_window`` prompt positions; fewer if the prompt is shorter,
    which is not an error). A prompt already within budget is untouched.
    """
    if cfg.kind != "morphkv":
        raise InvalidConfig(f"prefill_compress got policy kind {cfg.kind!r}")
    for layer in range(cfg.protected_layers, cache.n_layers):
        for head in range(cache.n_kv_heads):
            _evict_store(cache, layer, head, cfg.effective_prefill_fusion, cfg)
    return cache
