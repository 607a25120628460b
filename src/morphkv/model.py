"""A tiny deterministic decoder-only transformer.

The model exists to produce realistic per-step attention rows for the
cache layer, not to model language: weights are drawn once from a seeded
generator and never trained. Everything runs in float64 with greedy
decoding, so a (config, prompt) pair fixes the whole trajectory bit for
bit. Keys are cached after rotary encoding at their original absolute
positions and are never re-rotated, which is what lets eviction leave
survivors untouched.

Each layer is pre-norm: attention with a residual, then a single tanh MLP
with a residual. Logits come from the tied embedding. One exact forward
runs rows, each owned by a (cache, position) pair, through the layers: the
prompt as blocks of rows of one cache, a decode step as one row per
cache, so lockstep runs share each layer's dense math.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .cache import KvCacheState
from .config import ModelConfig
from .errors import CacheNotEmpty, EmptyCache, InternalInvariantViolation, InvalidParam, InvalidShape, InvalidToken
from .numerics import apply_rope, scaled_dot_attention

MLP_MULT = 4
# Prompt tokens per block forward. Bounds the block's activations; the
# result does not depend on it (see the README's design notes).
PREFILL_BLOCK = 32


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
    """Everything a forward exposes to the policy layer about one cache:
    the outputs of that cache's last row. A forward returns one per cache.

    ``attn_rows[layer][kv_head]`` holds one attention row per query head in
    the group, each spanning the store's entries at the end of the step
    (the new token's own entry included). ``attn_outputs`` are the matching
    pre-projection attention outputs, which ``oracle.shadow_error`` compares
    between lockstep runs; ``queries`` are the rotated query vectors, which
    the oracle regression scores retained subsets against.
    """

    logits: np.ndarray
    attn_rows: list[list[np.ndarray]]
    attn_outputs: list[list[np.ndarray]]
    queries: list[list[np.ndarray]]


def _layer_sizes(cfg: ModelConfig) -> list[tuple[int, int]]:
    d, kv = cfg.d_model, cfg.n_kv_heads * cfg.head_dim
    return [(d, d), (d, kv), (d, kv), (d, d), (d, MLP_MULT * d), (MLP_MULT * d, d)]


def init_model(config: ModelConfig) -> DecoderWeights:
    """Draw all weights from ``config.seed``; bit-identical per seed.

    Entries are uniform on ``[-1/sqrt(d_model), 1/sqrt(d_model)]``, drawn
    in a fixed order (embedding, then per layer: q, k, v, o, MLP in, MLP
    out) so the stream layout never shifts. Every layer's matrices are
    C-contiguous views of one buffer allocated before any draw, so a layer
    count no memory holds fails at once.
    """
    config.validate()
    sizes = _layer_sizes(config)
    buffer = np.empty(config.n_layers * sum(rows * cols for rows, cols in sizes))
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(config.d_model)
    embedding = rng.uniform(-scale, scale, size=(config.vocab_size, config.d_model))
    layers, offset = [], 0
    for _ in range(config.n_layers):
        mats = []
        for rows, cols in sizes:
            mat = buffer[offset : offset + rows * cols].reshape(rows, cols)
            mat[...] = rng.uniform(-scale, scale, size=(rows, cols))
            mats.append(mat)
            offset += rows * cols
        layers.append(LayerWeights(*mats))
    return DecoderWeights(config=config, embedding=embedding, layers=tuple(layers))


def _rms_norm(x: np.ndarray) -> np.ndarray:
    """Row-wise RMS norm over the last axis; each row's bits equal a 1-D call."""
    return x / np.sqrt(np.add.reduce(x * x, axis=-1, keepdims=True) / x.shape[-1] + 1e-8)


def _check_token(token: int, cfg: ModelConfig) -> int:
    token = int(token)
    if not 0 <= token < cfg.vocab_size:
        raise InvalidToken(f"token {token} outside vocabulary of {cfg.vocab_size}")
    return token


def _forward(
    weights: DecoderWeights,
    tokens: list[int],
    positions: list[int],
    caches: list[KvCacheState],
) -> list[StepOutput]:
    """Run ``tokens[i]`` at ``positions[i]`` through every layer, as rows
    of ``caches``: every row into the one cache (a prompt block), or row
    ``i`` into ``caches[i]`` (a decode step of one or more caches).

    Each layer's dense math covers every row at once as stacked
    ``(R, 1, d) @ W`` matmuls, which numpy runs as one gemv per row, so
    every row's bits equal a one-row pass. Then, row by row, each layer's
    stores see the one-token order: append, attend, record. Returns one
    output per cache, that of its last row; logits are computed for those
    rows only.
    """
    cfg = weights.config
    g, hd, n_q, n_kv = cfg.group_size, cfg.head_dim, cfg.n_query_heads, cfg.n_kv_heads
    t = len(tokens)
    # The last len(caches) rows are the caches' last rows, in cache order.
    first_out = t - len(caches)
    row_caches = caches if first_out == 0 else caches * t
    outputs = [StepOutput(None, [], [], []) for _ in caches]
    rope_positions = np.array(positions)
    x = weights.embedding.take(tokens, axis=0)[:, None, :]
    for layer, lw in enumerate(weights.layers):
        xn = _rms_norm(x)
        # Queries and keys share one rotation call; pairs never cross heads.
        qk = np.concatenate([xn @ lw.w_q, xn @ lw.w_k], axis=-1).reshape(t, n_q + n_kv, hd)
        qk = apply_rope(qk, rope_positions)
        q, k = qk[:, :n_q], qk[:, n_q:]
        v = (xn @ lw.w_v).reshape(t, n_kv, hd)
        outs = []
        for i, cache in enumerate(row_caches):
            # Append before attending: the new token attends to itself.
            cache.append(layer, k[i], v[i], positions[i])
            keys, vals = cache.keys_matrix(layer), cache.values_matrix(layer)
            # One call per KV group: the group's query heads share the store.
            rows = []
            for head in range(n_kv):
                group = q[i, head * g : (head + 1) * g]
                row, out = scaled_dot_attention(group, keys[head], vals[head])
                rows.append(row)
                outs.append(out)
            # The one writer of profile rows: recorded before the next token
            # is appended and before any policy runs.
            cache.record_step_profiles(layer, rows)
            if i >= first_out:
                output = outputs[i - first_out]
                output.attn_rows.append(rows)
                output.attn_outputs.append(outs[-n_kv:])
                output.queries.append([q[i, head * g : (head + 1) * g] for head in range(n_kv)])
        x = x + np.concatenate(outs, axis=None).reshape(t, 1, -1) @ lw.w_o
        x = x + np.tanh(_rms_norm(x) @ lw.w_in) @ lw.w_out
    logits = _rms_norm(x[first_out:]) @ weights.embedding.T
    for output, row_logits in zip(outputs, logits):
        output.logits = row_logits[0]
    return outputs


def prefill(weights: DecoderWeights, prompt, cache: KvCacheState) -> StepOutput:
    """Run the prompt through an empty cache in blocks of ``PREFILL_BLOCK``.

    Leaves one entry per prompt token in every store and records every
    position's aggregated attention rows, so the profiles end up holding
    the rows of the last ``window_capacity`` prompt positions that the
    one-shot prompt compression consumes. Returns the final position's
    output, bit-equal to feeding the prompt one token at a time.
    """
    tokens = [_check_token(t, weights.config) for t in prompt]
    if not tokens:
        raise InvalidShape("prompt must contain at least one token")
    if not cache.matches(weights.config):
        raise InvalidShape("cache is shaped for another model")
    if cache.max_occupancy():
        raise CacheNotEmpty("prefill needs an empty cache")
    for start in range(0, len(tokens), PREFILL_BLOCK):
        block = tokens[start : start + PREFILL_BLOCK]
        positions = list(range(start, start + len(block)))
        (out,) = _forward(weights, block, positions, [cache])
    return out


def decode_step(weights: DecoderWeights, tokens, caches) -> list[StepOutput]:
    """Process one generated token per cache, all caches in one forward.

    ``tokens[i]`` goes into ``caches[i]``, each at that cache's next
    absolute position, so caches at different positions and under
    different policies step together; one cache is the one-row case.
    Appends exactly one entry per store and records the step's aggregated
    attention rows into every store, as prefill does, so the policy that
    runs next sees the step's row in place. Policies never record.
    Returns one output per cache, each bit-equal to stepping that cache
    alone. Every input, a full cache included, is checked before any cache changes.
    """
    cfg = weights.config
    n = len(caches)
    if not n or len(tokens) != n:
        raise InvalidShape(f"decode_step needs one token per cache, got {len(tokens)} for {n}")
    if n > 1 and len(set(map(id, caches))) != n:
        raise InvalidParam("decode_step got the same cache twice")
    positions = []
    for cache in caches:
        if not cache.matches(cfg):
            raise InvalidShape("cache is shaped for another model")
        if cache.min_occupancy() == 0:
            raise EmptyCache("decode_step needs a prompt in every store of every cache")
        if cache.max_occupancy() == cache.capacity:
            raise InternalInvariantViolation("decode_step got a full cache: its run was sized too small")
        positions.append(cache.next_position())
    return _forward(weights, [_check_token(token, cfg) for token in tokens], positions, caches)


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
