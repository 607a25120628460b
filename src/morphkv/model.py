"""A tiny deterministic decoder-only transformer.

The model exists to produce realistic per-step attention rows for the
cache layer, not to model language: weights are drawn once from a seeded
generator and never trained. Everything runs in float64 with greedy
decoding, so a (config, prompt) pair fixes the whole trajectory bit for
bit. Keys are cached after rotary encoding at their original absolute
positions and are never re-rotated, which is what lets eviction leave
survivors untouched.

Each block is pre-norm: attention with a residual, then a single tanh MLP
with a residual. Logits come from the tied embedding.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .cache import KvCacheState
from .config import ModelConfig
from .errors import CacheNotEmpty, EmptyCache, InvalidShape, InvalidToken
from .numerics import apply_rope, scaled_dot_attention

MLP_MULT = 4


@dataclass(frozen=True)
class LayerWeights:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    w_in: np.ndarray
    w_out: np.ndarray


@dataclass(frozen=True)
class DecoderWeights:
    config: ModelConfig
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]


@dataclass
class StepOutput:
    """Everything one token's forward pass exposes to the policy layer.

    ``attn_rows[layer][kv_head]`` holds one attention row per query head in
    the group, each spanning the store's entries at the end of the step
    (the new token's own entry included). ``attn_outputs`` are the matching
    pre-projection attention outputs, ``queries`` the rotated query
    vectors; both are what the error oracle compares.
    """

    logits: np.ndarray
    attn_rows: list[list[np.ndarray]]
    attn_outputs: list[list[np.ndarray]]
    queries: list[list[np.ndarray]]
    position: int
    token_id: int


def _layer_sizes(cfg: ModelConfig) -> list[tuple[int, int]]:
    d, kv = cfg.d_model, cfg.n_kv_heads * cfg.head_dim
    return [(d, d), (d, kv), (d, kv), (d, d), (d, MLP_MULT * d), (MLP_MULT * d, d)]


def init_model(config: ModelConfig) -> DecoderWeights:
    """Draw all weights from ``config.seed``; bit-identical per seed.

    Entries are uniform on ``[-1/sqrt(d_model), 1/sqrt(d_model)]``, drawn
    in a fixed order (embedding, then per layer: q, k, v, o, MLP in, MLP
    out) so the stream layout never shifts.
    """
    config.validate()
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.d_model)
    embedding = rng.uniform(-scale, scale, size=(config.vocab_size, config.d_model))
    layers = []
    for _ in range(config.n_layers):
        mats = [rng.uniform(-scale, scale, size=shape) for shape in _layer_sizes(config)]
        layers.append(LayerWeights(*mats))
    return DecoderWeights(config=config, embedding=embedding, layers=tuple(layers))


def _rms_norm(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x) + 1e-8)


def _check_token(token: int, cfg: ModelConfig) -> int:
    token = int(token)
    if not 0 <= token < cfg.vocab_size:
        raise InvalidToken(f"token {token} outside vocabulary of {cfg.vocab_size}")
    return token


def _forward_token(
    weights: DecoderWeights,
    token: int,
    position: int,
    cache: KvCacheState,
) -> StepOutput:
    cfg = weights.config
    g = cfg.group_size
    hd = cfg.head_dim
    x = weights.embedding[token]
    all_rows: list[list[np.ndarray]] = []
    all_outs: list[list[np.ndarray]] = []
    all_queries: list[list[np.ndarray]] = []
    for layer_idx, lw in enumerate(weights.layers):
        xn = _rms_norm(x)
        q = apply_rope((xn @ lw.w_q).reshape(cfg.n_query_heads, hd), position)
        k = apply_rope((xn @ lw.w_k).reshape(cfg.n_kv_heads, hd), position)
        v = (xn @ lw.w_v).reshape(cfg.n_kv_heads, hd)
        # Append before attending: the new token attends to itself.
        for head in range(cfg.n_kv_heads):
            cache.append(layer_idx, head, k[head], v[head], position, token)
        # One call per KV group: the group's query heads share the store.
        layer_rows, layer_outs, layer_queries = [], [], []
        for head in range(cfg.n_kv_heads):
            group_q = q[head * g : (head + 1) * g]
            rows, outs = scaled_dot_attention(
                group_q, cache.keys_matrix(layer_idx, head), cache.values_matrix(layer_idx, head)
            )
            layer_rows.append(rows)
            layer_outs.append(outs)
            layer_queries.append(group_q)
        x = x + np.concatenate(layer_outs, axis=None) @ lw.w_o
        x = x + np.tanh(_rms_norm(x) @ lw.w_in) @ lw.w_out
        all_rows.append(layer_rows)
        all_outs.append(layer_outs)
        all_queries.append(layer_queries)
    logits = _rms_norm(x) @ weights.embedding.T
    step = StepOutput(
        logits=logits,
        attn_rows=all_rows,
        attn_outputs=all_outs,
        queries=all_queries,
        position=position,
        token_id=token,
    )
    # The one writer of profile rows: every step records before any policy runs.
    cache.record_step_profiles(step)
    return step


def prefill(weights: DecoderWeights, prompt, cache: KvCacheState) -> StepOutput:
    """Run the prompt through an empty cache, one position at a time.

    Leaves one entry per prompt token in every store and records every
    position's aggregated attention rows, so the profiles end up holding
    the rows of the last ``window_capacity`` prompt positions that the
    one-shot prompt compression consumes. Returns the final position's
    output.
    """
    tokens = [_check_token(t, weights.config) for t in prompt]
    if not tokens:
        raise InvalidShape("prompt must contain at least one token")
    if not cache.is_empty():
        raise CacheNotEmpty("prefill needs an empty cache")
    out = None
    for position, token in enumerate(tokens):
        out = _forward_token(weights, token, position, cache)
    return out


def decode_step(weights: DecoderWeights, token: int, cache: KvCacheState) -> StepOutput:
    """Process one generated token against the (possibly evicted) cache.

    Appends exactly one entry per store at the next absolute position and
    records the step's aggregated attention rows into every store, as
    prefill does, so the policy that runs next sees the step's row in
    place. Policies never record.
    """
    if cache.is_empty() or cache.min_occupancy() == 0:
        raise EmptyCache("decode_step needs a prefilled cache in every store")
    token = _check_token(token, weights.config)
    return _forward_token(weights, token, cache.next_position(), cache)


def greedy_token(logits: np.ndarray) -> int:
    """Argmax with ties to the lowest token id."""
    return int(np.argmax(logits))


def _weight_arrays(weights: DecoderWeights) -> list[np.ndarray]:
    arrays = [weights.embedding]
    for lw in weights.layers:
        arrays.extend([lw.w_q, lw.w_k, lw.w_v, lw.w_o, lw.w_in, lw.w_out])
    return arrays


def weights_checksum(weights: DecoderWeights) -> str:
    digest = hashlib.sha256()
    for arr in _weight_arrays(weights):
        digest.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return digest.hexdigest()
