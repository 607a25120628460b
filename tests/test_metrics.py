import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference
from morphkv import EvictionPolicyConfig, ModelConfig
from morphkv.errors import InvalidParam
from morphkv.metrics import kv_bytes, kv_bytes_from_occupancies, relative_cache_ratio, repetition_rate

GROUPED = EvictionPolicyConfig(kind="morphkv")
ALL_HEADS = EvictionPolicyConfig(kind="h2o")


class TestKvBytes:
    def test_single_entry_cost(self):
        # One entry, one layer, one stored head, head_dim 16, float64:
        # 16 key scalars + 16 value scalars = 256 bytes.
        model = ModelConfig(n_layers=1, n_query_heads=1, n_kv_heads=1, head_dim=16)
        assert kv_bytes(GROUPED, [1], model) == [256]

    def test_trace_scales_linearly(self):
        model = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=8)
        per_entry = 2 * 2 * 8 * 2 * 8
        assert kv_bytes(GROUPED, [0, 1, 5], model) == [0, per_entry, 5 * per_entry]

    def test_matches_spreadsheet_recomputation(self):
        # Cross-check against cell-by-cell accumulation on a large shape.
        model = ModelConfig(n_layers=80, n_query_heads=64, n_kv_heads=8, head_dim=128, vocab_size=256)
        occupancy = 4096
        expected = reference.kv_bytes_spreadsheet(
            occupancy, heads=8, layers=80, head_dim=128, bytes_per_scalar=2
        )
        assert kv_bytes(GROUPED, [occupancy], model, bytes_per_scalar=2) == [expected]

    def test_all_heads_policy_pays_query_head_count(self):
        model = ModelConfig(n_layers=2, n_query_heads=8, n_kv_heads=2, head_dim=4)
        grouped = kv_bytes(GROUPED, [10], model)[0]
        all_heads = kv_bytes(ALL_HEADS, [10], model)[0]
        # A key and a value of 4 float64 scalars per stored head and layer:
        # the 2 KV heads when grouped, all 8 query heads otherwise.
        assert grouped == 10 * 2 * 2 * (4 * 2 * 8)
        assert all_heads == 10 * 8 * 2 * (4 * 2 * 8)
        # Exactly the query/KV head ratio, as integers.
        assert all_heads * model.n_kv_heads == grouped * model.n_query_heads
        assert all_heads == grouped * 4

    def test_head_ratio_exact_across_shapes(self):
        for n_q, n_kv in [(8, 1), (8, 2), (8, 4), (8, 8), (64, 8)]:
            model = ModelConfig(n_layers=3, n_query_heads=n_q, n_kv_heads=n_kv, head_dim=6)
            grouped = kv_bytes(GROUPED, [7], model)[0]
            all_heads = kv_bytes(ALL_HEADS, [7], model)[0]
            assert all_heads == grouped * (n_q // n_kv)

    def test_grid_accounting_matches_uniform_stream(self):
        model = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=8)
        occupancies = [[5, 5], [5, 5]]
        assert kv_bytes_from_occupancies(occupancies, model, GROUPED) == kv_bytes(
            GROUPED, [5], model
        )[0]

    def test_grid_accounting_handles_divergent_stores(self):
        model = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=8)
        occupancies = [[7, 7], [3, 4]]
        per_scalar = 8
        expected = (7 + 7 + 3 + 4) * 8 * 2 * per_scalar
        assert kv_bytes_from_occupancies(occupancies, model, GROUPED) == expected


class TestCacheRatio:
    def test_elementwise_division(self):
        assert relative_cache_ratio([64, 128], [256, 256]) == [0.25, 0.5]

    def test_identical_streams_are_unity(self):
        assert relative_cache_ratio([10, 20, 30], [10, 20, 30]) == [1.0, 1.0, 1.0]


class TestRepetition:
    def test_hand_counted_example(self):
        # Tokens: a b a b a; bigrams: ab, ba, ab, ba -> 4 total, 2 distinct.
        report = repetition_rate([0, 1, 0, 1, 0], n=2)
        assert report.total_grams == 4
        assert report.distinct_grams == 2
        assert report.repetition_rate == 0.5

    def test_all_distinct_is_zero(self):
        report = repetition_rate(list(range(10)), n=3)
        assert report.repetition_rate == 0.0
        assert report.distinct_grams == report.total_grams == 8

    def test_constant_stream_approaches_one(self):
        report = repetition_rate([7] * 12, n=2)
        assert report.total_grams == 11
        assert report.distinct_grams == 1
        assert report.repetition_rate == pytest.approx(1.0 - 1.0 / 11)

    def test_short_sequence_has_no_windows(self):
        report = repetition_rate([1, 2], n=3)
        assert report.total_grams == 0
        assert report.repetition_rate == 0.0

    def test_unigram_rate(self):
        report = repetition_rate([3, 3, 4], n=1)
        assert report.total_grams == 3
        assert report.distinct_grams == 2

    def test_rejects_nonpositive_n(self):
        with pytest.raises(InvalidParam):
            repetition_rate([1, 2, 3], n=0)

    @given(
        st.lists(st.integers(0, 5), min_size=0, max_size=40),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_relabeling_invariance(self, tokens, n, seed):
        # Any bijection over token ids preserves every count.
        rng = np.random.default_rng(seed)
        perm = rng.permutation(6)
        relabeled = [int(perm[t]) for t in tokens]
        a = repetition_rate(tokens, n)
        b = repetition_rate(relabeled, n)
        assert (a.total_grams, a.distinct_grams) == (b.total_grams, b.distinct_grams)
        assert a.repetition_rate == b.repetition_rate

    def test_hundred_random_bijections_on_repetitive_stream(self):
        tokens = [0, 1, 2, 0, 1, 2, 0, 1, 2, 3, 0, 1]
        base = repetition_rate(tokens, n=3)
        rng = np.random.default_rng(99)
        for _ in range(100):
            perm = rng.permutation(64)
            relabeled = [int(perm[t]) for t in tokens]
            assert repetition_rate(relabeled, n=3) == base
