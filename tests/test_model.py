from dataclasses import replace

import numpy as np
import pytest

import reference
from cache_state import raw_state
from morphkv import (
    EvictionPolicyConfig,
    KvCacheState,
    ModelConfig,
    decode_step,
    greedy_token,
    init_model,
    prefill,
    scaled_dot_attention,
    weights_checksum,
)
from morphkv.errors import (
    CacheNotEmpty,
    EmptyCache,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidShape,
    InvalidToken,
)
from morphkv.model import MLP_MULT

# Frozen at first computation; any drift means the weight stream layout
# or the draw order changed, which silently invalidates every other
# golden value in the suite.
DEFAULT_CHECKSUM = "62053e08c70ef70340cbfb24fc898528df171dba7eae5f11148949ff91a4fe2d"
TINY_CHECKSUM = "cae49ac1201bb2746209600646041b8c2109bc3a200087ff3a60940843573622"

TINY = ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=16, seed=123)


def fresh_cache(cfg: ModelConfig, entries: int, window: int = 8) -> KvCacheState:
    return KvCacheState.for_model(cfg, window, entries)


class TestInit:
    def test_same_seed_same_bits(self):
        a = init_model(TINY)
        b = init_model(TINY)
        np.testing.assert_array_equal(a.embedding, b.embedding)
        for la, lb in zip(a.layers, b.layers):
            np.testing.assert_array_equal(la.w_q, lb.w_q)
            np.testing.assert_array_equal(la.w_out, lb.w_out)

    def test_checksum_golden(self):
        assert weights_checksum(init_model(ModelConfig())) == DEFAULT_CHECKSUM
        assert weights_checksum(init_model(TINY)) == TINY_CHECKSUM

    def test_different_seeds_differ(self):
        a = init_model(ModelConfig(seed=0))
        b = init_model(ModelConfig(seed=1))
        assert weights_checksum(a) != weights_checksum(b)

    def test_shapes(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=6, vocab_size=32)
        w = init_model(cfg)
        d = cfg.d_model
        assert d == 24
        assert w.embedding.shape == (32, d)
        assert len(w.layers) == 2
        lw = w.layers[0]
        assert lw.w_q.shape == (d, d)
        assert lw.w_k.shape == (d, cfg.n_kv_heads * cfg.head_dim)
        assert lw.w_v.shape == (d, cfg.n_kv_heads * cfg.head_dim)
        assert lw.w_o.shape == (d, d)
        assert lw.w_in.shape == (d, MLP_MULT * d)
        assert lw.w_out.shape == (MLP_MULT * d, d)

    def test_entries_within_uniform_bound(self):
        cfg = ModelConfig()
        w = init_model(cfg)
        bound = 1.0 / np.sqrt(cfg.d_model)
        assert np.abs(w.embedding).max() <= bound
        assert np.abs(w.layers[0].w_in).max() <= bound

    def test_rejects_indivisible_grouping(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(n_query_heads=3, n_kv_heads=2).validate()

    def test_rejects_odd_head_dim(self):
        with pytest.raises(InvalidConfig):
            ModelConfig(head_dim=5).validate()


class TestForward:
    def test_prefill_populates_every_store(self):
        w = init_model(TINY)
        cache = fresh_cache(TINY, 3)
        out = prefill(w, [1, 2, 3], cache)
        assert cache.occupancies() == [[3]] * TINY.n_layers
        assert cache.positions(0).tolist() == [[0, 1, 2]] * TINY.n_kv_heads
        assert out.logits.shape == (TINY.vocab_size,)

    def test_decode_appends_one_entry_per_store(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32)
        w = init_model(cfg)
        cache = fresh_cache(cfg, 3)
        prefill(w, [1, 2], cache)
        decode_step(w, [5], [cache])
        assert cache.occupancies() == [[3, 3], [3, 3]]
        for layer in range(cfg.n_layers):
            assert cache.positions(layer).tolist() == [[0, 1, 2], [0, 1, 2]]

    def test_attention_rows_sum_to_one(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32)
        w = init_model(cfg)
        cache = fresh_cache(cfg, 5)
        out = prefill(w, [3, 1, 4, 1, 5], cache)
        for layer_rows in out.attn_rows:
            for group in layer_rows:
                assert group.shape == (cfg.group_size, 5)
                np.testing.assert_allclose(group.sum(axis=1), 1.0, atol=1e-12)

    def test_new_token_attends_to_itself(self):
        w = init_model(TINY)
        cache = fresh_cache(TINY, 2)
        prefill(w, [1], cache)
        (out,) = decode_step(w, [2], [cache])
        # The appended entry is the last column of the row; its weight is live.
        assert out.attn_rows[0][0].shape[1] == 2
        assert np.all(out.attn_rows[0][0][:, -1] > 0)

    def test_matches_cache_free_reference(self):
        # Cached decode and whole-sequence recomputation must agree to
        # 1e-7 per logit across varied shapes; observed error is ~1e-13.
        rng = np.random.default_rng(2026)
        shapes = [
            dict(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=16),
            dict(n_layers=1, n_query_heads=2, n_kv_heads=2, head_dim=4, vocab_size=16),
            dict(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32),
            dict(n_layers=2, n_query_heads=4, n_kv_heads=4, head_dim=8, vocab_size=32),
            dict(n_layers=3, n_query_heads=6, n_kv_heads=2, head_dim=4, vocab_size=24),
        ]
        for pair in range(20):
            cfg = ModelConfig(seed=int(rng.integers(0, 2**31)), **shapes[pair % len(shapes)])
            w = init_model(cfg)
            prompt = [int(t) for t in rng.integers(0, cfg.vocab_size, size=int(rng.integers(2, 7)))]
            steps = int(rng.integers(3, 9))
            cache = fresh_cache(cfg, len(prompt) + steps, window=4)
            out = prefill(w, prompt, cache)
            step_logits = [out.logits]
            tokens = list(prompt)
            for _ in range(steps):
                nxt = greedy_token(step_logits[-1])
                tokens.append(nxt)
                step_logits.append(decode_step(w, [nxt], [cache])[0].logits)
            ref_logits, _ = reference.full_forward(w, tokens)
            np.testing.assert_allclose(step_logits[0], ref_logits[len(prompt) - 1], atol=1e-7)
            for i in range(steps):
                np.testing.assert_allclose(
                    step_logits[i + 1], ref_logits[len(prompt) + i], atol=1e-7
                )

    def test_reference_rows_match_recorded_rows(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=9)
        w = init_model(cfg)
        cache = fresh_cache(cfg, 5)
        tokens = [7, 3, 11, 2, 19]
        out = prefill(w, tokens, cache)
        _, ref_rows = reference.full_forward(w, tokens)
        for layer in range(cfg.n_layers):
            for head in range(cfg.n_kv_heads):
                np.testing.assert_allclose(
                    out.attn_rows[layer][head], ref_rows[layer][head][-1], atol=1e-9
                )

    def test_single_query_group_reduces_to_plain_attention(self):
        # One query head per KV head: the recorded group rows must be the
        # direct single-query attention over the store, and the profile
        # must record that row unchanged.
        cfg = ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=2, head_dim=4, vocab_size=16, seed=4)
        assert cfg.group_size == 1
        w = init_model(cfg)
        cache = fresh_cache(cfg, 4)
        prefill(w, [1, 2, 3], cache)
        (out,) = decode_step(w, [4], [cache])
        for head in range(cfg.n_kv_heads):
            q = out.queries[0][head][0]
            keys = cache.keys_matrix(0)[head]
            vals = cache.values_matrix(0)[head]
            row, _ = scaled_dot_attention(q, keys, vals)
            np.testing.assert_array_equal(out.attn_rows[0][head][0], row)
            np.testing.assert_array_equal(cache.score_matrix(0)[head, -1], row)

    def test_greedy_tie_takes_lowest_id(self):
        assert greedy_token(np.array([0.5, 0.9, 0.9])) == 1
        assert greedy_token(np.array([1.0, 1.0])) == 0

    def test_prefill_rejects_nonempty_cache(self):
        w = init_model(TINY)
        cache = fresh_cache(TINY, 1)
        prefill(w, [1], cache)
        with pytest.raises(CacheNotEmpty):
            prefill(w, [2], cache)

    def test_prefill_rejects_empty_prompt(self):
        w = init_model(TINY)
        with pytest.raises(InvalidShape):
            prefill(w, [], fresh_cache(TINY, 1))

    def test_rejects_out_of_vocab_token(self):
        w = init_model(TINY)
        with pytest.raises(InvalidToken):
            prefill(w, [TINY.vocab_size], fresh_cache(TINY, 1))

    def test_decode_rejects_empty_cache(self):
        w = init_model(TINY)
        with pytest.raises(EmptyCache):
            decode_step(w, [1], [fresh_cache(TINY, 1)])



class TestDecodeStepInput:
    """Every bad lockstep call fails before any cache changes."""

    CFG = ModelConfig(n_layers=2, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=16, seed=9)

    def prefilled(self, cfg=CFG, prompt=(1, 2, 3)) -> KvCacheState:
        # Room for the one step each test attempts.
        cache = fresh_cache(cfg, len(prompt) + 1, window=2)
        prefill(init_model(cfg), list(prompt), cache)
        return cache

    def assert_rejected(self, error, tokens, caches, match=None):
        before = [raw_state(cache) for cache in caches]
        with pytest.raises(error, match=match):
            decode_step(init_model(self.CFG), tokens, caches)
        assert [raw_state(cache) for cache in caches] == before

    def test_same_cache_twice(self):
        cache = self.prefilled()
        self.assert_rejected(InvalidParam, [1, 2, 3], [self.prefilled(), cache, cache], "same cache")

    def test_token_and_cache_counts_differ(self):
        self.assert_rejected(InvalidShape, [1, 2], [self.prefilled()], "got 2 for 1")
        self.assert_rejected(InvalidShape, [1], [self.prefilled(), self.prefilled()])

    def test_no_caches(self):
        self.assert_rejected(InvalidShape, [], [], "got 0 for 0")

    @pytest.mark.parametrize(
        "other",
        [dict(n_layers=3), dict(n_query_heads=4, n_kv_heads=2), dict(head_dim=8)],
        ids=["layers", "kv_heads", "head_dim"],
    )
    def test_cache_shaped_for_another_model(self, other):
        foreign = self.prefilled(replace(self.CFG, **other))
        self.assert_rejected(InvalidShape, [1, 2], [self.prefilled(), foreign], "another model")

    def test_empty_cache(self):
        self.assert_rejected(EmptyCache, [1, 2], [self.prefilled(), fresh_cache(self.CFG, 1)])

    def test_full_cache(self):
        # A cache with no room for the step's entry was sized wrong: a bug.
        full = fresh_cache(self.CFG, 3, window=2)
        prefill(init_model(self.CFG), [1, 2, 3], full)
        self.assert_rejected(InternalInvariantViolation, [1, 2], [self.prefilled(), full], "full cache")

    def test_out_of_vocab_token(self):
        tokens = [1, self.CFG.vocab_size]
        self.assert_rejected(InvalidToken, tokens, [self.prefilled(), self.prefilled()])
