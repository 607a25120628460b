from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from cache_state import no_evictions
from morphkv import EvictionPolicyConfig, ModelConfig, RunConfig
from morphkv.cache import KvCacheState
from morphkv.errors import InvalidShape
from morphkv.model import decode_step, init_model, prefill
from morphkv.morph import fuse, morphkv_step, prefill_compress, select_retained


def entry(pos: int) -> tuple:
    """``KvCacheState.append`` arguments after the layer, for one KV head."""
    return np.zeros((1, 2)), np.zeros((1, 2)), pos


def record(cache: KvCacheState, row, layer: int = 0) -> None:
    """Record one row into a one-head layer."""
    cache.record_step_profiles(layer, [[row]])


def select_one(occ: int, scores, distant_capacity: int, recent_window: int) -> list[int]:
    """``select_retained`` over a single head's scores."""
    return select_retained([scores], occ, distant_capacity, recent_window)[0].tolist()


def scripted_row(row) -> SimpleNamespace:
    """A one-store step whose attention row is scripted, not computed."""
    return SimpleNamespace(attn_rows=[[np.array([row])]])


def recorded(cache: KvCacheState, out: SimpleNamespace) -> SimpleNamespace:
    """Record a scripted step's rows, as the decoder does before any policy runs."""
    for layer, rows in enumerate(out.attn_rows):
        cache.record_step_profiles(layer, rows)
    return out


class TestSelectRetained:
    def test_keeps_top_distant_plus_recent(self):
        scores = [0.5, 0.1, 0.9, 0.3]
        assert select_one(6, scores, 2, 2) == [0, 2, 4, 5]

    def test_tie_prefers_newer_entry(self):
        assert select_one(4, [0.4, 0.4, 0.1], 1, 1) == [1, 3]

    def test_exact_tie_sweep(self):
        # All-equal scores: the kept distant set is exactly the newest ones.
        assert select_one(7, [0.2] * 5, 3, 2) == [2, 3, 4, 5, 6]

    def test_zero_distant_capacity_keeps_only_recent(self):
        assert select_one(5, [9.0, 9.0, 9.0], 0, 2) == [3, 4]

    def test_short_store_keeps_everything(self):
        assert select_one(3, [], 4, 4) == [0, 1, 2]

    def test_capacity_beyond_distant_count_keeps_everything(self):
        assert select_one(4, [0.1, 0.2], 5, 2) == [0, 1, 2, 3]

    def test_rejects_misaligned_scores(self):
        with pytest.raises(InvalidShape):
            select_one(5, [0.1, 0.2], 2, 2)

    @given(
        st.integers(1, 20),
        st.integers(0, 8),
        st.integers(1, 8),
        st.integers(0, 2**32 - 1),
    )
    def test_size_and_order_properties(self, occ, cap, recent, seed):
        rng = np.random.default_rng(seed)
        distant = max(0, occ - min(recent, occ))
        scores = rng.uniform(size=distant)
        kept = select_one(occ, scores, cap, recent)
        assert kept == sorted(set(kept))
        expected_size = occ if occ <= recent else min(occ, cap + recent)
        assert len(kept) == expected_size
        # The recent suffix is always retained verbatim.
        assert kept[-min(recent, occ):] == list(range(occ - min(recent, occ), occ))

    @given(
        st.integers(1, 60),
        st.integers(0, 20),
        st.integers(1, 8),
        st.lists(st.sampled_from([0.0, -0.0, 0.25, 1.0, 3.5]), min_size=60, max_size=60),
    )
    def test_matches_sorted_key_rule(self, occ, cap, recent, pool):
        # The rule select_retained ranks with, spelled as a Python sort.
        distant = occ - min(recent, occ)
        scores = pool[:distant]
        order = sorted(range(distant), key=lambda k: (scores[k], k), reverse=True)
        want = sorted(order[: min(cap, distant)]) + list(range(distant, occ))
        kept = select_one(occ, scores, cap, recent)
        assert kept == want
        assert all(type(i) is int for i in kept)

    @given(
        st.lists(st.integers(1, 3), min_size=0, max_size=3),
        st.integers(1, 40),
        st.integers(0, 12),
        st.integers(1, 6),
        st.integers(0, 2**32 - 1),
    )
    def test_stable_sort_matches_lexsort_over_leading_axes(self, lead, occ, cap, recent, seed):
        # One stable argsort per row ranks as a lexsort by (score, index)
        # did, over any leading (layer, head) axes, on rows dense with ties
        # and with 0.0 against -0.0.
        rng = np.random.default_rng(seed)
        distant = occ - min(recent, occ)
        scores = rng.choice([0.0, -0.0, 0.5, 1.0], size=(*lead, distant))
        kept = select_retained(scores, occ, cap, recent)
        keep_distant = min(cap, distant)
        assert kept.shape == (*lead, keep_distant + min(recent, occ))
        rows = int(np.prod(lead))
        for row, got in zip(scores.reshape(rows, distant), kept.reshape(rows, -1)):
            order = np.lexsort((np.arange(distant), row))
            want = sorted(order[distant - keep_distant :].tolist()) + list(range(distant, occ))
            assert got.tolist() == want


class TestMorphStep:
    CFG = EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=2, fusion="sum")

    def build_prompt_cache(self, capacity: int = 5) -> KvCacheState:
        """Four prompt entries with scripted attention rows, in a store of
        ``capacity`` entries: by default the prompt and one step's entry.

        Rows sum to 1 and are recorded the way prefill records them: each
        position's row spans the store at that moment.
        """
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=capacity)
        rows = [
            [1.0],
            [0.5, 0.5],
            [0.2, 0.3, 0.5],
            [0.05, 0.30, 0.40, 0.25],
        ]
        for pos, row in enumerate(rows):
            cache.append(0, *entry(pos))
            record(cache, row)
        return cache

    # One scripted decode trajectory, five steps. Entry names in comments
    # track which prompt/generated token each position stands for.
    STEPS = [
        ([0.05, 0.30, 0.15, 0.30, 0.20], [0]),  # pos 4: evicts pos 0
        ([0.20, 0.05, 0.15, 0.25, 0.35], [2]),  # pos 5: evicts pos 2
        ([0.20, 0.15, 0.35, 0.10, 0.20], [3]),  # pos 6: evicts pos 3
        ([0.10, 0.35, 0.02, 0.23, 0.30], [5]),  # pos 7: evicts pos 5
        ([0.05, 0.30, 0.12, 0.28, 0.25], [1]),  # pos 8: evicts pos 1
    ]

    def test_first_step_scores_and_choice(self):
        # Decomposed first step: after the new entry and its row land, the
        # three distant entries carry fused weights 0.10, 0.60, 0.55, so
        # the 0.10 entry (position 0) is the unique eviction.
        cache = self.build_prompt_cache()
        cache.append(0, *entry(4))
        record(cache, self.STEPS[0][0])
        scores = fuse(cache, 0, "sum")
        np.testing.assert_allclose(scores, [[0.10, 0.60, 0.55]], atol=1e-12)
        retained = select_retained(scores, cache.occupancy(0), 2, 2)
        assert retained.tolist() == [[1, 2, 3, 4]]
        assert cache.keep(0, retained) == [0]

    def test_scripted_trajectory_evictions(self):
        cache = self.build_prompt_cache()
        evicted_positions = []
        for idx, (row, expected) in enumerate(self.STEPS):
            cache.append(0, *entry(4 + idx))
            morphkv_step(cache, recorded(cache, scripted_row(row)), self.CFG, idx)
            evictions = cache.pop_evictions()
            assert evictions == [[expected]], f"step {idx}"
            evicted_positions.extend(evictions[0][0])
            assert cache.occupancy(0) == 4
            cache.validate()
        survivors = cache.positions(0)[0].tolist()
        assert survivors == [4, 6, 7, 8]
        # Position 4 entered at the first decode step, outlived every
        # prompt entry and two younger generated ones, and is still the
        # oldest retained entry.
        assert 4 not in evicted_positions
        assert evicted_positions == [0, 2, 3, 5, 1]

    def test_eviction_interval_defers_trimming(self):
        cfg = EvictionPolicyConfig(
            kind="morphkv", distant_capacity=2, recent_window=2, eviction_interval=3
        )
        # Step 2 appends the third entry past the budget before step 3 trims.
        cache = self.build_prompt_cache(capacity=7)
        occupancies = []
        for idx in range(5):
            cache.append(0, *entry(4 + idx))
            width = cache.occupancy(0)
            out = recorded(cache, scripted_row(np.full(width, 1.0 / width)))
            morphkv_step(cache, out, cfg, idx)
            occupancies.append(cache.occupancy(0))
        # Steps 0 and 3 trim back to budget; in between the store grows.
        assert occupancies == [4, 5, 6, 4, 5]

    def test_protected_layers_never_trim(self):
        cfg = EvictionPolicyConfig(
            kind="morphkv", distant_capacity=1, recent_window=1, protected_layers=1
        )
        # The shape of the cache below: two layers of one KV head.
        RunConfig(model=ModelConfig(n_layers=2, n_query_heads=1, n_kv_heads=1, head_dim=2), policy=cfg)
        cache = KvCacheState(2, 1, 2, window_capacity=1, capacity=5)
        for pos in range(4):
            for layer in range(2):
                cache.append(layer, *entry(pos))
                record(cache, np.full(pos + 1, 1.0 / (pos + 1)), layer)
        out = SimpleNamespace(
            attn_rows=[[np.array([np.full(5, 0.2)])], [np.array([np.full(5, 0.2)])]]
        )
        for layer in range(2):
            cache.append(layer, *entry(4))
        morphkv_step(cache, recorded(cache, out), cfg, 0)
        assert cache.occupancy(0) == 5
        assert cache.occupancy(1) == 2

    def test_position_shift_leaves_choice_unchanged(self):
        # Retention ranks profile columns, not absolute positions: the
        # same rows under shifted positions evict the same entry offsets.
        def run(shift):
            cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=5)
            rows = [[1.0], [0.5, 0.5], [0.2, 0.3, 0.5], [0.05, 0.30, 0.40, 0.25]]
            for i, row in enumerate(rows):
                cache.append(0, *entry(shift + i))
                record(cache, row)
            cache.append(0, *entry(shift + 4))
            out = scripted_row(self.STEPS[0][0])
            morphkv_step(cache, recorded(cache, out), self.CFG, 0)
            return [p - shift for p in cache.pop_evictions()[0][0]]

        assert run(0) == run(1000) == [0]

    def test_no_eviction_below_budget(self):
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=1)
        cache.append(0, *entry(0))
        out = scripted_row([1.0])
        morphkv_step(cache, recorded(cache, out), self.CFG, 0)
        assert cache.occupancy(0) == 1
        assert cache.pop_evictions() == no_evictions(cache)


class TestPrefillCompress:
    def test_prompt_within_budget_untouched(self):
        cfg = ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=16, seed=5)
        policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=4, recent_window=4)
        w = init_model(cfg)
        cache = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=3)
        prefill([w], [[1, 2, 3]], [cache])
        prefill_compress(cache, policy)
        assert cache.occupancy(0) == 3
        assert cache.pop_evictions() == no_evictions(cache)

    def test_compresses_to_exact_budget(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=6)
        policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=2)
        w = init_model(cfg)
        cache = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=9)
        prefill([w], [list(range(9))], [cache])
        prefill_compress(cache, policy)
        assert cache.occupancies() == [[4, 4], [4, 4]]
        cache.validate()

    def test_matches_manual_fuse_and_select(self):
        # The one-shot compression must be exactly fuse + select + keep
        # per store, no more and no less.
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=6)
        policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=2)
        w = init_model(cfg)
        prompt = list(range(9))
        auto = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=9)
        prefill([w], [prompt], [auto])
        manual = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=9)
        prefill([w], [prompt], [manual])
        for layer in range(cfg.n_layers):
            scores = fuse(manual, layer, "sum")
            manual.keep(layer, select_retained(scores, manual.occupancy(layer), 2, 2))
        prefill_compress(auto, policy)
        for layer in range(cfg.n_layers):
            assert auto.positions(layer).tolist() == manual.positions(layer).tolist()

    def test_separate_prompt_fusion_rule(self):
        # A policy may rank the prompt with max fusion while decoding with
        # sum; the one-shot pass must honor the prompt-specific rule.
        cfg = ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=32, seed=14)
        w = init_model(cfg)
        prompt = list(range(12))

        def compress(prefill_fusion):
            policy = EvictionPolicyConfig(
                kind="morphkv",
                distant_capacity=2,
                recent_window=2,
                fusion="sum",
                prefill_fusion=prefill_fusion,
            )
            cache = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=12)
            prefill([w], [prompt], [cache])
            ref = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=12)
            prefill([w], [prompt], [ref])
            scores = fuse(ref, 0, prefill_fusion or "sum")
            kept = select_retained(scores, ref.occupancy(0), 2, 2)[0]
            prefill_compress(cache, policy)
            assert cache.positions(0)[0].tolist() == ref.positions(0)[0][kept].tolist()
            return tuple(cache.positions(0)[0].tolist())

        compress(None)
        compress("max")


class TestEngineIntegration:
    def test_occupancy_constant_once_saturated(self):
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=8)
        policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2)
        w = init_model(cfg)
        cache = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=8)
        (out,) = prefill([w], [list(range(8))], [cache])
        prefill_compress(cache, policy)
        token = int(np.argmax(out.logits))
        for idx in range(10):
            (out,) = decode_step([w], [token], [cache])
            morphkv_step(cache, out, policy, idx)
            cache.validate()
            assert cache.occupancies() == [[5, 5], [5, 5]]
            token = int(np.argmax(out.logits))

    def test_heads_diverge_under_pressure(self):
        # Independent stores: with several heads and steps, at least one
        # pair of stores should retain different position sets.
        cfg = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=8)
        policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2)
        w = init_model(cfg)
        cache = KvCacheState.for_model(cfg, window_capacity=policy.recent_window, capacity=8)
        (out,) = prefill([w], [list(range(8))], [cache])
        prefill_compress(cache, policy)
        token = int(np.argmax(out.logits))
        for idx in range(10):
            (out,) = decode_step([w], [token], [cache])
            morphkv_step(cache, out, policy, idx)
            token = int(np.argmax(out.logits))
        kept = {
            (layer, head): tuple(cache.positions(layer)[head].tolist())
            for layer in range(2)
            for head in range(2)
        }
        assert len(set(kept.values())) > 1
