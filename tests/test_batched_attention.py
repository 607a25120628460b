"""Batched attention returns the bits of the single-query calls it replaces.

The decoder attends with one call per KV group and the oracle scores a
chunk of subsets per call. Both are only allowed because each slice of a
stacked call reproduces a one-query, one-store call exactly, so every
comparison here is ``np.array_equal`` or ``==``, never a tolerance.
"""

import itertools
import math

import numpy as np
import pytest

from morphkv import ModelConfig, decode_step, init_model, optimal_subset, prefill
from morphkv.cache import KvCacheState
from morphkv.errors import EmptyCache, InvalidShape, NonFiniteInput
from morphkv.numerics import scaled_dot_attention, softmax
from morphkv.oracle import SUBSET_CHUNK


def single_query(q, keys, vals):
    """The one-query, 2-D attention every batched slice must reproduce."""
    weights = softmax(keys @ q / np.sqrt(q.shape[0]))
    return weights, weights @ vals


def loop_optimal_subset(query, keys, vals, budget, recent_window, force_recent=True):
    """The per-subset enumeration the chunked oracle replaced."""
    n = keys.shape[0]
    _, full_out = single_query(query, keys, vals)
    forced = tuple(range(n - min(recent_window, budget), n)) if force_recent else ()
    best_idx, best_err = None, np.inf
    for combo in itertools.combinations(range(n - len(forced)), budget - len(forced)):
        idx = combo + forced
        sel = np.asarray(idx, dtype=np.intp)
        _, sub_out = single_query(query, keys[sel], vals[sel])
        err = float(np.linalg.norm(full_out - sub_out))
        if err < best_err:
            best_err, best_idx = err, idx
    return best_idx, best_err


def same_bits(a: float, b: float) -> bool:
    return np.float64(a).tobytes() == np.float64(b).tobytes()


class TestQueryGroupStack:
    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    def test_group_over_store_view_equals_single_calls(self, g):
        d = 8
        rng = np.random.default_rng(g)
        cache = KvCacheState(1, 1, d, window_capacity=2, capacity=37)
        for n in range(1, 38):
            cache.append(0, rng.normal(size=(1, d)), rng.normal(size=(1, d)), n - 1)
            keys, vals = cache.keys_matrix(0)[0], cache.values_matrix(0)[0]
            assert keys.base is not None  # a leading slice of the store's buffer
            q = rng.normal(size=(g, d)) * 3.0
            weights, out = scaled_dot_attention(q, keys, vals)
            assert weights.shape == (g, n) and out.shape == (g, d)
            for j in range(g):
                row, single = single_query(q[j], keys, vals)
                assert np.array_equal(weights[j], row)
                assert np.array_equal(out[j], single)

    def test_one_query_over_key_stack_equals_single_calls(self):
        rng = np.random.default_rng(11)
        for stack, b, d in [(1, 1, 4), (7, 3, 8), (40, 6, 16), (5, 21, 32)]:
            q = rng.normal(size=d)
            keys = rng.normal(size=(stack, b, d))
            vals = rng.normal(size=(stack, b, d))
            weights, out = scaled_dot_attention(q, keys, vals)
            assert weights.shape == (stack, b) and out.shape == (stack, d)
            for s in range(stack):
                row, single = single_query(q, keys[s], vals[s])
                assert np.array_equal(weights[s], row)
                assert np.array_equal(out[s], single)

    @pytest.mark.parametrize(
        "q_shape, kv_shape", [((4,), (5, 4)), ((3, 4), (5, 4)), ((4,), (6, 5, 4))]
    )
    def test_output_owns_its_memory(self, q_shape, kv_shape):
        rng = np.random.default_rng(2)
        _, out = scaled_dot_attention(
            rng.normal(size=q_shape), rng.normal(size=kv_shape), rng.normal(size=kv_shape)
        )
        assert out.base is None
        assert out.shape == q_shape[:-1] + kv_shape[:-2] + (4,)


class TestStackedRejections:
    def test_empty_stacked_store(self):
        with pytest.raises(EmptyCache):
            scaled_dot_attention(np.ones((2, 4)), np.ones((3, 0, 4)), np.ones((3, 0, 4)))

    def test_stacked_key_value_mismatch(self):
        with pytest.raises(InvalidShape):
            scaled_dot_attention(np.ones(4), np.ones((3, 5, 4)), np.ones((3, 6, 4)))

    def test_stacked_dim_mismatch(self):
        with pytest.raises(InvalidShape):
            scaled_dot_attention(np.ones((2, 3)), np.ones((5, 4)), np.ones((5, 4)))

    def test_leading_axes_must_broadcast(self):
        with pytest.raises(InvalidShape):
            scaled_dot_attention(np.ones((3, 4)), np.ones((2, 5, 4)), np.ones((2, 5, 4)))

    def test_scalar_query(self):
        with pytest.raises(InvalidShape):
            scaled_dot_attention(1.0, np.ones((5, 1)), np.ones((5, 1)))

    def test_non_finite_logit_in_one_slice(self):
        keys = np.ones((3, 5, 4))
        keys[1, 2, 0] = np.inf
        with pytest.raises(NonFiniteInput):
            scaled_dot_attention(np.ones(4), keys, np.ones((3, 5, 4)))

    def test_non_finite_query_in_group(self):
        q = np.ones((4, 4))
        q[3, 1] = np.nan
        with pytest.raises(NonFiniteInput):
            scaled_dot_attention(q, np.ones((5, 4)), np.ones((5, 4)))


class TestDecoderGroups:
    def test_step_rows_and_outputs_equal_per_head_calls(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=8, n_kv_heads=2, head_dim=4, vocab_size=32, seed=9)
        w = init_model(cfg)
        cache = KvCacheState.for_model(cfg, 2, 9)
        prefill([w], [[3, 1, 4, 1, 5, 9, 2, 6]], [cache])
        (out,) = decode_step([w], [5], [cache])
        for layer in range(cfg.n_layers):
            for head in range(cfg.n_kv_heads):
                keys, vals = cache.keys_matrix(layer)[head], cache.values_matrix(layer)[head]
                for j in range(cfg.group_size):
                    row, single = single_query(out.queries[layer][head][j], keys, vals)
                    assert np.array_equal(out.attn_rows[layer][head][j], row)
                    assert np.array_equal(out.attn_outputs[layer][head][j], single)


class TestChunkedOracle:
    @pytest.mark.parametrize(
        "seed, n, budget, recent, force",
        [
            (0, 8, 4, 2, True),
            (1, 8, 4, 2, False),
            (2, 12, 6, 2, True),
            (3, 10, 5, 3, False),
            (4, 6, 2, 2, True),
            (5, 6, 6, 1, False),
            (6, 18, 8, 2, True),
            (7, 16, 6, 2, False),
        ],
    )
    def test_equals_per_subset_loop(self, seed, n, budget, recent, force):
        rng = np.random.default_rng(seed)
        q, keys, vals = rng.normal(size=8), rng.normal(size=(n, 8)), rng.normal(size=(n, 8))
        got_idx, got_err = optimal_subset(q, keys, vals, budget, recent, force_recent=force)
        want_idx, want_err = loop_optimal_subset(q, keys, vals, budget, recent, force)
        assert got_idx == want_idx
        assert same_bits(got_err, want_err)

    def test_cases_reach_past_one_chunk(self):
        # n=18, budget 8, recent 2 forced and n=16, budget 6 unforced: C(16, 6) each.
        assert math.comb(16, 6) > SUBSET_CHUNK

    @pytest.mark.parametrize("n, budget, recent, force", [(9, 4, 2, True), (18, 8, 2, True), (16, 6, 2, False)])
    def test_all_ties_keep_first_lexicographic_subset(self, n, budget, recent, force):
        keys = np.ones((n, 4))
        vals = np.tile([0.5, -1.0, 2.0, 0.25], (n, 1))
        idx, _ = optimal_subset(np.ones(4), keys, vals, budget, recent, force_recent=force)
        forced = min(recent, budget) if force else 0
        assert idx == tuple(range(budget - forced)) + tuple(range(n - forced, n))
