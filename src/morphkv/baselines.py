"""The comparison policy set behind one stepping interface.

All policies are deterministic and evict only at decode-step boundaries;
the only prompt-phase mutation in the whole runtime is an explicit
one-shot call (``snapkv_policy`` here, ``prefill_compress`` for the
selective policy). The decoder records every step's aggregated rows into
the store profiles before any policy runs, in prefill and in decode, so
cache snapshots stay comparable across policies. A step function only
applies its own retention rule, with one ``keep`` over every layer and KV
head, which keeps every store at one occupancy; it takes the step output
to keep one signature but does not read it:

- ``scissorhands``: keep only the ``recent_window`` newest entries.
- ``streamingllm``: additionally pin the first ``sink_count`` entries.
- ``h2o``: never touch prompt entries (every store must hold the whole
  prompt); rank decode entries by their received totals through
  ``select_retained`` and evict the weakest non-recent one whenever more
  than ``distant_capacity + recent_window`` decode entries are live. Ties
  evict the oldest, as in every ranking.
- ``snapkv``: one-shot prompt reduction, then keep every decode entry.
- ``full_attention``: keep everything.
"""

from __future__ import annotations

import numpy as np

from .cache import KvCacheState
from .config import EvictionPolicyConfig
from .errors import InvalidConfig
from .morph import fuse, morphkv_step, select_retained


def keep_window(occ: int, sinks: int, recent: int) -> list[int]:
    """Indices a window rule keeps out of ``occ`` entries: the first
    ``sinks`` entries plus the ``recent`` newest, or all of them if fewer."""
    pinned = min(sinks, occ)
    tail = min(recent, occ - pinned)
    return list(range(pinned)) + list(range(occ - tail, occ))


def _window_step(cache: KvCacheState, sinks: int, recent: int) -> KvCacheState:
    occ = cache.occupancy(range(cache.n_layers))
    retained = keep_window(occ, sinks, recent)
    if len(retained) < occ:
        # Every store keeps the same indices.
        cache.keep(0, np.broadcast_to(retained, (cache.n_layers, cache.n_kv_heads, len(retained))))
    return cache


def scissorhands_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig
) -> KvCacheState:
    """Sliding window: only the ``recent_window`` newest entries survive."""
    if cfg.kind != "scissorhands":
        raise InvalidConfig(f"scissorhands_step got policy kind {cfg.kind!r}")
    return _window_step(cache, 0, cfg.recent_window)


def streamingllm_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig
) -> KvCacheState:
    """Attention sinks: the first ``sink_count`` entries plus the window."""
    if cfg.kind != "streamingllm":
        raise InvalidConfig(f"streamingllm_step got policy kind {cfg.kind!r}")
    return _window_step(cache, cfg.sink_count, cfg.recent_window)


def h2o_step(
    cache: KvCacheState,
    step_output,
    prompt_length: int,
    cfg: EvictionPolicyConfig,
) -> KvCacheState:
    """Cumulative heavy hitters over decode entries; the prompt is immortal.
    Every store must hold the whole prompt, so its decode entries are the
    indices ``prompt_length..occ``; ``select_retained`` keeps all but one
    of the non-recent ones, so one entry per store goes per call."""
    if cfg.kind != "h2o":
        raise InvalidConfig(f"h2o_step got policy kind {cfg.kind!r}")
    layers = range(cache.n_layers)
    occ = cache.occupancy(layers)
    if occ - prompt_length > cfg.cache_budget:
        # Decode entries did not exist during prefill, so their received
        # totals count decode rows only.
        received = cache.received(layers)[..., prompt_length : occ - min(cfg.recent_window, occ)]
        kept = select_retained(received, occ - prompt_length, received.shape[-1] - 1, cfg.recent_window)
        prompt = np.broadcast_to(np.arange(prompt_length), (*kept.shape[:-1], prompt_length))
        cache.keep(0, np.concatenate([prompt, prompt_length + kept], axis=-1))
    return cache


def snapkv_policy(cache: KvCacheState, cfg: EvictionPolicyConfig) -> KvCacheState:
    """One-shot prompt reduction to ``prefill_budget`` entries per store.

    Scores distant prompt entries by sum-fusing the observation window
    (the last ``recent_window`` prompt rows, already sitting in the
    store profiles) and keeps the top scorers plus the window itself.
    A prompt within budget is left whole. Decode never evicts.
    """
    if cfg.kind != "snapkv":
        raise InvalidConfig(f"snapkv_policy got policy kind {cfg.kind!r}")
    budget, layers = cfg.prefill_budget, range(cache.n_layers)
    occ = cache.occupancy(layers)
    if occ <= budget:
        return cache
    if budget <= cfg.recent_window:
        return _window_step(cache, 0, budget)
    scores = fuse(cache, layers, "sum")
    cache.keep(0, select_retained(scores, occ, budget - cfg.recent_window, cfg.recent_window))
    return cache


def policy_step(
    cache: KvCacheState,
    step_output,
    cfg: EvictionPolicyConfig,
    step_index: int,
    prompt_length: int,
) -> KvCacheState:
    """Dispatch one decode step to the configured policy."""
    if cfg.kind == "morphkv":
        return morphkv_step(cache, step_output, cfg, step_index)
    if cfg.kind == "scissorhands":
        return scissorhands_step(cache, step_output, cfg)
    if cfg.kind == "streamingllm":
        return streamingllm_step(cache, step_output, cfg)
    if cfg.kind == "h2o":
        return h2o_step(cache, step_output, prompt_length, cfg)
    if cfg.kind in ("snapkv", "full_attention"):
        # Neither evicts during decode.
        return cache
    raise InvalidConfig(f"unknown policy kind {cfg.kind!r}")
