"""A prompt block returns the bits of feeding its tokens one at a time.

``prefill`` runs the prompt in blocks of ``PREFILL_BLOCK`` tokens, each
layer's dense math as stacked ``(T, 1, d) @ W`` matmuls; ``decode_step``
is the one-token block. Both are exact only because numpy runs a stacked
unit-axis matmul as one gemv per row and the norms, rotations and
activations are row-wise, so every comparison here is on the raw bits
of every store array and every returned array, never a tolerance. A 2-D
gemm in place of any stacked matmul sums in another order and fails.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkv import KvCacheState, ModelConfig, decode_step, init_model, prefill
from morphkv.model import PREFILL_BLOCK

B = PREFILL_BLOCK
# Around and across block boundaries: one token, a partial block, one
# full block, one token past it, two blocks and one more, three blocks.
LENGTHS = (1, B - 1, B, B + 1, 2 * B + 1, 3 * B)
STORE_READS = ("keys_matrix", "values_matrix", "positions", "token_ids", "received", "score_matrix")


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def blockwise(weights, prompt, capacity):
    cache = KvCacheState.for_model(weights.config, capacity)
    return prefill(weights, prompt, cache), cache


def tokenwise(weights, prompt, capacity):
    cache = KvCacheState.for_model(weights.config, capacity)
    out = prefill(weights, prompt[:1], cache)
    for token in prompt[1:]:
        out = decode_step(weights, token, cache)
    return out, cache


def assert_same_run(weights, prompt, capacity):
    got, got_cache = blockwise(weights, prompt, capacity)
    want, want_cache = tokenwise(weights, prompt, capacity)
    assert same_bits(got.logits, want.logits)
    for field in ("attn_rows", "attn_outputs", "queries"):
        got_layers, want_layers = getattr(got, field), getattr(want, field)
        assert len(got_layers) == len(want_layers) == weights.config.n_layers
        for got_heads, want_heads in zip(got_layers, want_layers):
            assert len(got_heads) == len(want_heads) == weights.config.n_kv_heads
            for a, b in zip(got_heads, want_heads):
                assert same_bits(a, b), field
    for layer in range(weights.config.n_layers):
        for read in STORE_READS:
            a = getattr(got_cache, read)(layer)
            b = getattr(want_cache, read)(layer)
            assert same_bits(a, b), (read, layer)


def make_prompt(cfg: ModelConfig, length: int, seed: int) -> list[int]:
    return [int(t) for t in np.random.default_rng(seed).integers(0, cfg.vocab_size, size=length)]


@pytest.mark.parametrize("length", LENGTHS)
def test_prompt_lengths_around_block_edges(length):
    cfg = ModelConfig(
        n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=8, vocab_size=48, seed=length
    )
    assert_same_run(init_model(cfg), make_prompt(cfg, length, seed=length), capacity=4)


@settings(max_examples=25, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_kv_heads=st.integers(1, 2),
    group=st.integers(1, 4),
    head_dim=st.sampled_from([2, 4, 8, 16]),
    vocab=st.integers(2, 64),
    length=st.one_of(st.sampled_from(LENGTHS), st.integers(1, 3 * B + 1)),
    capacity=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_equals_token_by_token(
    n_layers, n_kv_heads, group, head_dim, vocab, length, capacity, seed
):
    cfg = ModelConfig(
        n_layers=n_layers,
        n_query_heads=n_kv_heads * group,
        n_kv_heads=n_kv_heads,
        head_dim=head_dim,
        vocab_size=vocab,
        seed=seed,
    )
    assert_same_run(init_model(cfg), make_prompt(cfg, length, seed), capacity)
