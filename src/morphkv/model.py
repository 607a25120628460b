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
runs rows, each owned by a (cache, position) pair, through the layers.
Rows are ordered position-major, so row ``r`` of ``C`` caches belongs to
``caches[r % C]``: prompt blocks of one cache or of several caches at
once, a decode step as one row per cache, so lockstep runs share each
layer's dense math. ``prefill`` and ``decode_step`` take one weights
object per cache: one object repeated, or objects of one model shape
(``ModelConfig.same_shape``), whose every matrix is then stacked along a
new first axis, one slice per cache, which that cache's rows multiply.
"""

from __future__ import annotations

import functools
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


# Compared and hashed by identity, so ``_stacked`` caches a stack per tuple of objects.
@dataclass(frozen=True, eq=False)
class DecoderWeights:
    config: ModelConfig
    embedding: np.ndarray
    layers: tuple[LayerWeights, ...]


@dataclass
class StepOutput:
    """The outputs of one cache's last row; a forward returns one per cache.
    No policy reads them: the ``logits`` choose the next token, and the
    rest serves compare's shadow error and the oracle regression.

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
    out) so the stream layout never shifts. All of them come from one
    draw, of which every matrix is a C-contiguous view, so a model no
    memory holds fails at its one allocation, before any draw.
    """
    sizes = _layer_sizes(config)
    vocab, d = config.vocab_size, config.d_model
    rng = np.random.default_rng(config.seed)
    scale = 1.0 / np.sqrt(d)
    draws = rng.uniform(-scale, scale, size=vocab * d + config.n_layers * sum(rows * cols for rows, cols in sizes))
    layers, offset = [], vocab * d
    for _ in range(config.n_layers):
        mats = []
        for rows, cols in sizes:
            mats.append(draws[offset : offset + rows * cols].reshape(rows, cols))
            offset += rows * cols
        layers.append(LayerWeights(*mats))
    return DecoderWeights(config=config, embedding=draws[: vocab * d].reshape(vocab, d), layers=tuple(layers))


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
    """Run ``tokens[r]`` at ``positions[r]`` through every layer as a row
    of ``caches[r % C]``, ``C = len(caches)``. Rows are ordered
    position-major: ``b`` positions of every cache, so a prompt block of
    one cache is ``C = 1`` and a decode step is ``b = 1``.

    Each layer's dense math covers every row at once as stacked
    ``(b, C, 1, d) @ W`` matmuls, ``W`` one matrix or one ``(C, d, e)``
    stack of one per cache (see ``_stacked``), which numpy runs as one gemv
    per row, so every row's bits equal a one-row pass. Then, row by row,
    each layer's stores see the one-token order: append, attend, record.
    Returns one output per cache, that of its last row; logits are
    computed for those rows only.
    """
    cfg = weights.config
    g, hd, n_q, n_kv = cfg.group_size, cfg.head_dim, cfg.n_query_heads, cfg.n_kv_heads
    c, t = len(caches), len(tokens)
    # The last C rows are the caches' last rows, in cache order.
    first_out = t - c
    outputs = [StepOutput(None, [], [], []) for _ in caches]
    rope_positions = np.array(positions)
    emb = weights.embedding
    # One embedding for every row, or a stack of one per cache.
    x = emb.take(tokens, axis=0) if emb.ndim == 2 else emb[np.arange(t) % c, tokens]
    x = x.reshape(t // c, c, 1, -1)
    for layer, lw in enumerate(weights.layers):
        xn = _rms_norm(x)
        # Queries and keys share one rotation call; pairs never cross heads.
        qk = np.concatenate([xn @ lw.w_q, xn @ lw.w_k], axis=-1).reshape(t, n_q + n_kv, hd)
        qk = apply_rope(qk, rope_positions)
        q, k = qk[:, :n_q], qk[:, n_q:]
        v = (xn @ lw.w_v).reshape(t, n_kv, hd)
        outs = []
        for r in range(t):
            cache = caches[r % c]
            # Append before attending: the new token attends to itself.
            cache.append(layer, k[r], v[r], positions[r])
            keys, vals = cache.keys_matrix(layer), cache.values_matrix(layer)
            # One call per KV group: the group's query heads share the store.
            rows = []
            for head in range(n_kv):
                group = q[r, head * g : (head + 1) * g]
                row, out = scaled_dot_attention(group, keys[head], vals[head])
                rows.append(row)
                outs.append(out)
            # The one writer of profile rows: recorded before the next token
            # is appended and before any policy runs.
            cache.record_step_profiles(layer, rows)
            if r >= first_out:
                output = outputs[r % c]
                output.attn_rows.append(rows)
                output.attn_outputs.append(outs[-n_kv:])
                output.queries.append([q[r, head * g : (head + 1) * g] for head in range(n_kv)])
        x = x + np.concatenate(outs, axis=None).reshape(x.shape) @ lw.w_o
        x = x + np.tanh(_rms_norm(x) @ lw.w_in) @ lw.w_out
    logits = _rms_norm(x[-1]) @ np.swapaxes(emb, -1, -2)
    for output, row_logits in zip(outputs, logits):
        output.logits = row_logits[0]
    return outputs


def prefill(weights, prompts, caches) -> list[StepOutput]:
    """Run one prompt per cache through the empty ``caches`` in blocks of
    ``PREFILL_BLOCK`` positions and return each cache's final output.

    ``weights`` holds one weights object per cache, as ``decode_step``
    takes them, and the prompts are of one length: every cache fills in the
    same forwards, one per block, whose rows are the block's positions of
    every cache (see ``_forward``). Leaves one entry per prompt token in
    every store and records every position's aggregated attention rows, so
    the profiles end up holding the rows of the last ``window_capacity``
    prompt positions that the one-shot prompt compression consumes. Each
    output is bit-equal to feeding its cache's prompt alone, one token at
    a time. Every input, a cache too small for its prompt included, is
    checked before any cache changes.
    """
    weights = _lockstep_weights(weights, prompts, caches, "prefill", "prompt")
    prompts = [[_check_token(t, weights.config) for t in tokens] for tokens in prompts]
    length = len(prompts[0])
    if not length:
        raise InvalidShape("prompt must contain at least one token")
    if any(len(tokens) != length for tokens in prompts):
        raise InvalidShape("prefill needs prompts of one length")
    if any(each.max_occupancy() for each in caches):
        raise CacheNotEmpty("prefill needs an empty cache")
    _check_room(caches, length, "prefill")
    for start in range(0, length, PREFILL_BLOCK):
        block = range(start, min(start + PREFILL_BLOCK, length))
        rows = [tokens[i] for i in block for tokens in prompts]
        outs = _forward(weights, rows, [i for i in block for _ in caches], caches)
    return outs


@functools.lru_cache(maxsize=1)
def _stacked(weights: tuple[DecoderWeights, ...]) -> DecoderWeights:
    """One weights object whose every array stacks those of ``weights``
    along a new first axis, so the rows of ``caches[i]`` in a forward
    multiply ``weights[i]``'s. The weights must be of one model shape
    (``ModelConfig.same_shape``); that is checked here, so once per stack
    and before any cache changes. Lockstep runs step one list of weights
    many times, so the last stack is kept while its objects repeat."""
    cfg = weights[0].config
    if not all(w.config.same_shape(cfg) for w in weights):
        raise InvalidParam("lockstep needs weights of one model shape: configs equal but for their seed")
    arrays = [np.stack(group) for group in zip(*map(_weight_arrays, weights))]
    layers = tuple(LayerWeights(*arrays[i : i + 6]) for i in range(1, len(arrays), 6))
    return DecoderWeights(cfg, arrays[0], layers)


def _lockstep_weights(weights, inputs, caches, caller: str, what: str) -> DecoderWeights:
    """Check a forward's per-cache input: one ``what`` and one weights
    object per cache, no cache twice, every cache shaped for the model.
    Returns the one weights object the forward runs on: the list's one
    object when every entry is the same, else the stack of them."""
    weights, n = tuple(weights), len(caches)
    if not n or len(inputs) != n:
        raise InvalidShape(f"{caller} needs one {what} per cache, got {len(inputs)} for {n}")
    if n > 1 and len(set(map(id, caches))) != n:
        raise InvalidParam(f"{caller} got the same cache twice")
    if len(weights) != n:
        raise InvalidShape(f"{caller} needs one weights object per cache, got {len(weights)} for {n}")
    weights = weights[0] if all(w is weights[0] for w in weights) else _stacked(weights)
    if not all(cache.matches(weights.config) for cache in caches):
        raise InvalidShape("cache is shaped for another model")
    return weights


def _check_room(caches, rows: int, caller: str) -> None:
    """The room rule of both entries: a forward of ``rows`` positions adds
    as many entries to every store; a run sized too small for them is a bug."""
    for cache in caches:
        if (free := cache.capacity - cache.max_occupancy()) < rows:
            raise InternalInvariantViolation(f"{caller} adds {rows} to a store with {free} free: a run sized too small")


def decode_step(weights, tokens, caches) -> list[StepOutput]:
    """Process one generated token per cache, all caches in one forward.

    ``tokens[i]`` goes into ``caches[i]``, each at that cache's next
    absolute position, so caches at different positions and under
    different policies step together; one cache is the one-row case.
    ``weights`` holds one weights object per cache, as ``prefill`` takes
    them. Appends exactly one entry per store and records the step's
    aggregated attention rows into every store, as prefill does, so the
    policy that runs next sees the step's row in place. Policies never
    record. Returns one output per cache, each bit-equal to stepping that
    cache alone. Every input, a full cache included, is checked before any
    cache changes.
    """
    weights = _lockstep_weights(weights, tokens, caches, "decode_step", "token")
    if any(cache.min_occupancy() == 0 for cache in caches):
        raise EmptyCache("decode_step needs a prompt in every store of every cache")
    _check_room(caches, 1, "decode_step")
    tokens = [_check_token(token, weights.config) for token in tokens]
    return _forward(weights, tokens, [cache.next_position() for cache in caches], caches)


def greedy_token(logits: np.ndarray) -> int:
    """Argmax with ties to the lowest token id."""
    return int(np.argmax(logits))


def _weight_arrays(weights: DecoderWeights) -> list[np.ndarray]:
    arrays = [weights.embedding]
    for lw in weights.layers:
        arrays.extend([lw.w_q, lw.w_k, lw.w_v, lw.w_o, lw.w_in, lw.w_out])
    return arrays
