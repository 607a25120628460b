"""The comparison policy set behind one stepping interface.

All policies are deterministic and evict only at decode-step boundaries;
the only prompt-phase mutation in the whole runtime is an explicit
one-shot call (``snapkv_policy`` here, ``prefill_compress`` for the
selective policy). Every step function records the step's aggregated rows
into the profile windows first, so cache snapshots stay comparable across
policies, then applies its own retention rule:

- ``scissorhands``: keep only the ``recent_window`` newest entries.
- ``streamingllm``: additionally pin the first ``sink_count`` entries.
- ``h2o``: never touch prompt entries; rank decode entries by the total
  attention they have received so far and evict the weakest non-recent
  one whenever more than ``distant_capacity + recent_window`` decode
  entries are live. Ties evict the oldest.
- ``snapkv``: one-shot prompt reduction, then keep every decode entry.
- ``full_attention``: keep everything.
"""

from __future__ import annotations

import numpy as np

from .cache import KvCacheState
from .config import EvictionPolicyConfig, ModelConfig
from .errors import InvalidConfig
from .morph import fuse, morphkv_step, select_retained


class CumulativeScoreState:
    """Running total of attention received by each live entry, per store.

    Arrays stay index-aligned with the owning store: extended by one on
    every append, compacted on every eviction.
    """

    def __init__(self, model: ModelConfig, prompt_length: int):
        self.prompt_length = prompt_length
        self.values: list[list[np.ndarray]] = [
            [np.zeros(prompt_length) for _ in range(model.n_kv_heads)]
            for _ in range(model.n_layers)
        ]


def make_policy_state(
    cfg: EvictionPolicyConfig, model: ModelConfig, prompt_length: int
) -> CumulativeScoreState | None:
    if cfg.kind == "h2o":
        return CumulativeScoreState(model, prompt_length)
    return None


def _keep_window(cache: KvCacheState, layer: int, head: int, sinks: int, recent: int) -> None:
    occ = cache.occupancy(layer, head)
    pinned = min(sinks, occ)
    tail = min(recent, occ - pinned)
    retained = list(range(pinned)) + list(range(occ - tail, occ))
    if len(retained) < occ:
        cache.keep(layer, head, retained)


def scissorhands_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig
) -> KvCacheState:
    """Sliding window: only the ``recent_window`` newest entries survive."""
    if cfg.kind != "scissorhands":
        raise InvalidConfig(f"scissorhands_step got policy kind {cfg.kind!r}")
    cache.record_step_profiles(step_output)
    for layer in range(cache.n_layers):
        for head in range(cache.n_kv_heads):
            _keep_window(cache, layer, head, 0, cfg.recent_window)
    return cache


def streamingllm_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig
) -> KvCacheState:
    """Attention sinks: the first ``sink_count`` entries plus the window."""
    if cfg.kind != "streamingllm":
        raise InvalidConfig(f"streamingllm_step got policy kind {cfg.kind!r}")
    cache.record_step_profiles(step_output)
    for layer in range(cache.n_layers):
        for head in range(cache.n_kv_heads):
            _keep_window(cache, layer, head, cfg.sink_count, cfg.recent_window)
    return cache


def h2o_step(
    cache: KvCacheState,
    step_output,
    scores: CumulativeScoreState,
    cfg: EvictionPolicyConfig,
) -> KvCacheState:
    """Cumulative heavy hitters over decode entries; the prompt is immortal."""
    if cfg.kind != "h2o":
        raise InvalidConfig(f"h2o_step got policy kind {cfg.kind!r}")
    aggregated = cache.record_step_profiles(step_output)
    budget = cfg.cache_budget
    for layer in range(cache.n_layers):
        for head in range(cache.n_kv_heads):
            cum = np.append(scores.values[layer][head], 0.0) + aggregated[layer][head]
            occ = cache.occupancy(layer, head)
            # Positions increase with the index, so the decode entries are
            # the suffix starting at the first position past the prompt.
            first_decode = int(
                np.searchsorted(cache.positions(layer, head), scores.prompt_length)
            )
            if occ - first_decode > budget:
                recent_start = occ - min(cfg.recent_window, occ)
                # argmin takes the first minimum: ties evict the oldest.
                victim = first_decode + int(np.argmin(cum[first_decode:recent_start]))
                cache.keep(layer, head, np.delete(np.arange(occ), victim))
                cum = np.delete(cum, victim)
            scores.values[layer][head] = cum
    return cache


def snapkv_policy(cache: KvCacheState, cfg: EvictionPolicyConfig) -> KvCacheState:
    """One-shot prompt reduction to ``prefill_budget`` entries per store.

    Scores distant prompt entries by sum-fusing the observation window
    (the last ``recent_window`` prompt rows, already sitting in the
    profile windows) and keeps the top scorers plus the window itself.
    A prompt within budget is left whole. Decode never evicts.
    """
    if cfg.kind != "snapkv":
        raise InvalidConfig(f"snapkv_policy got policy kind {cfg.kind!r}")
    budget = cfg.prefill_budget
    for layer in range(cache.n_layers):
        for head in range(cache.n_kv_heads):
            occ = cache.occupancy(layer, head)
            if occ <= budget:
                continue
            if budget <= cfg.recent_window:
                retained = list(range(occ - budget, occ))
            else:
                scores = fuse(cache.windows[layer][head], "sum")
                retained = select_retained(
                    cache.positions(layer, head),
                    scores,
                    budget - cfg.recent_window,
                    cfg.recent_window,
                )
            cache.keep(layer, head, retained)
    return cache


def full_attention_step(
    cache: KvCacheState, step_output, cfg: EvictionPolicyConfig
) -> KvCacheState:
    if cfg.kind != "full_attention":
        raise InvalidConfig(f"full_attention_step got policy kind {cfg.kind!r}")
    cache.record_step_profiles(step_output)
    return cache


def policy_step(
    cache: KvCacheState,
    step_output,
    cfg: EvictionPolicyConfig,
    step_index: int,
    state: CumulativeScoreState | None = None,
) -> KvCacheState:
    """Dispatch one decode step to the configured policy."""
    if cfg.kind == "morphkv":
        return morphkv_step(cache, step_output, cfg, step_index)
    if cfg.kind == "scissorhands":
        return scissorhands_step(cache, step_output, cfg)
    if cfg.kind == "streamingllm":
        return streamingllm_step(cache, step_output, cfg)
    if cfg.kind == "h2o":
        return h2o_step(cache, step_output, state, cfg)
    if cfg.kind == "snapkv":
        cache.record_step_profiles(step_output)
        return cache
    if cfg.kind == "full_attention":
        return full_attention_step(cache, step_output, cfg)
    raise InvalidConfig(f"unknown policy kind {cfg.kind!r}")
