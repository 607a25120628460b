from types import SimpleNamespace

import numpy as np

from cache_state import no_evictions
from morphkv import EvictionPolicyConfig, ModelConfig, RunConfig, run, start_runs, step_runs
from morphkv.baselines import (
    h2o_step,
    keep_window,
    policy_step,
    scissorhands_step,
    snapkv_policy,
    streamingllm_step,
)
from morphkv.cache import KvCacheState
from morphkv.model import greedy_token, init_model, prefill
from morphkv.morph import fuse, select_retained


def entry(pos: int) -> tuple:
    """``KvCacheState.append`` arguments after the layer, for one KV head."""
    return np.zeros((1, 2)), np.zeros((1, 2)), pos


def record(cache: KvCacheState, row) -> None:
    """Record one row into layer 0's single KV head."""
    cache.record_step_profiles(0, [[row]])


def decoded(cache: KvCacheState, pos: int, row: np.ndarray) -> SimpleNamespace:
    """Append an entry and record its step's row, as the decoder does."""
    cache.append(0, *entry(pos))
    step = SimpleNamespace(attn_rows=[[np.array([row])]])
    cache.record_step_profiles(0, step.attn_rows[0])
    return step


def uniform_step(cache: KvCacheState, pos: int) -> SimpleNamespace:
    occ = cache.occupancy(0) + 1
    return decoded(cache, pos, np.full(occ, 1.0 / occ))


def one_hot_step(cache: KvCacheState, pos: int) -> SimpleNamespace:
    row = np.zeros(cache.occupancy(0) + 1)
    row[-1] = 1.0
    return decoded(cache, pos, row)


def positions(cache: KvCacheState, layer: int = 0, head: int = 0) -> list[int]:
    return cache.positions(layer)[head].tolist()


class TestScissorhands:
    CFG = EvictionPolicyConfig(kind="scissorhands", recent_window=4)

    def test_keeps_only_newest_window(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=7)
        for pos in range(6):
            cache.append(0, *entry(pos))
            record(cache, np.full(pos + 1, 1.0 / (pos + 1)))
        for pos in range(6, 10):
            scissorhands_step(cache, uniform_step(cache, pos), self.CFG)
            assert cache.occupancy(0) == 4
        assert positions(cache) == [6, 7, 8, 9]

    def test_evicts_exactly_the_oldest(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=5)
        for pos in range(4):
            cache.append(0, *entry(pos))
            record(cache, np.full(pos + 1, 1.0 / (pos + 1)))
        scissorhands_step(cache, uniform_step(cache, 4), self.CFG)
        assert cache.pop_evictions() == [[[0]]]

    def test_below_window_no_eviction(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=2)
        cache.append(0, *entry(0))
        record(cache, [1.0])
        scissorhands_step(cache, uniform_step(cache, 1), self.CFG)
        assert cache.pop_evictions() == no_evictions(cache)


class TestStreamingLlm:
    def test_pins_first_entries_plus_window(self):
        cfg = EvictionPolicyConfig(kind="streamingllm", sink_count=2, recent_window=3)
        cache = KvCacheState(1, 1, 2, window_capacity=3, capacity=6)
        for pos in range(5):
            cache.append(0, *entry(pos))
            record(cache, np.full(pos + 1, 1.0 / (pos + 1)))
        for pos in range(5, 10):
            streamingllm_step(cache, uniform_step(cache, pos), cfg)
            assert cache.occupancy(0) == 5
        assert positions(cache) == [0, 1, 7, 8, 9]

    def test_zero_sinks_matches_scissorhands(self):
        def drive(step_fn, cfg):
            cache = KvCacheState(1, 1, 2, window_capacity=3, capacity=6)
            for pos in range(5):
                cache.append(0, *entry(pos))
                record(cache, np.full(pos + 1, 1.0 / (pos + 1)))
            events = []
            for pos in range(5, 11):
                step_fn(cache, uniform_step(cache, pos), cfg)
                events.append(cache.pop_evictions())
            return positions(cache), events

        streaming = drive(
            streamingllm_step,
            EvictionPolicyConfig(kind="streamingllm", sink_count=0, recent_window=3),
        )
        window = drive(
            scissorhands_step,
            EvictionPolicyConfig(kind="scissorhands", recent_window=3),
        )
        assert streaming == window

    def test_short_store_entirely_pinned(self):
        cfg = EvictionPolicyConfig(kind="streamingllm", sink_count=4, recent_window=2)
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=2)
        cache.append(0, *entry(0))
        record(cache, [1.0])
        streamingllm_step(cache, uniform_step(cache, 1), cfg)
        assert cache.pop_evictions() == no_evictions(cache)
        assert positions(cache) == [0, 1]

    def test_keep_window_indices(self):
        assert keep_window(7, 2, 3) == [0, 1, 4, 5, 6]
        assert keep_window(7, 0, 3) == [4, 5, 6]
        # A store no longer than sinks plus window is kept whole.
        assert keep_window(4, 2, 3) == [0, 1, 2, 3]
        assert keep_window(1, 4, 2) == [0]


class TestH2o:
    def test_equal_scores_evict_oldest_decode_entry(self):
        # One-hot self-attention rows give every decode entry the same
        # cumulative score (exactly 1.0, from its own step), so the tie
        # rule must fall back to age: the oldest non-recent decode entry
        # goes first, and prompt entries are never candidates at all.
        cfg = EvictionPolicyConfig(kind="h2o", distant_capacity=1, recent_window=1)
        # Three prompt entries and three decode entries before an eviction.
        cache = KvCacheState(1, 1, 2, window_capacity=1, capacity=6)
        for pos in range(3):
            cache.append(0, *entry(pos))
            record(cache, np.zeros(pos + 1))
        events = []
        for pos in range(3, 7):
            h2o_step(cache, one_hot_step(cache, pos), 3, cfg)
            events.append(cache.pop_evictions())
        assert events == [[[[]]], [[[]]], [[[3]]], [[[4]]]]
        assert positions(cache) == [0, 1, 2, 5, 6]

    def test_tied_stack_evicts_one_per_store_per_call(self):
        # Two prompt entries, then four decode entries against a budget of
        # two, in 2 layers x 2 KV heads. The received totals of the three
        # non-recent decode entries hold only 0.25 and 0.5, so they tie
        # within each store and across stores; the prompt and the recent
        # entry hold 0.0, the lowest of all, and must survive regardless.
        cfg = EvictionPolicyConfig(kind="h2o", distant_capacity=1, recent_window=1)
        non_recent = [
            [[0.5, 0.25, 0.25], [0.25, 0.25, 0.25]],
            [[0.25, 0.5, 0.25], [0.25, 0.25, 0.5]],
        ]
        cache = KvCacheState(2, 2, 2, window_capacity=1, capacity=6)
        for layer, heads in enumerate(non_recent):
            for pos in range(6):
                cache.append(layer, np.zeros((2, 2)), np.zeros((2, 2)), pos)
            cache.record_step_profiles(layer, [[[0.0, 0.0, *totals, 0.0]] for totals in heads])
        # Each call drops the oldest of its store's lowest totals, one per store.
        expected = [
            [[[3], [2]], [[2], [2]]],
            [[[4], [3]], [[4], [3]]],
            no_evictions(cache),
        ]
        for evictions in expected:
            h2o_step(cache, None, 2, cfg)
            assert cache.pop_evictions() == evictions
        assert cache.occupancies() == [[4, 4], [4, 4]]
        assert [positions(cache, layer, head) for layer in range(2) for head in range(2)] == [
            [0, 1, 2, 5],
            [0, 1, 4, 5],
            [0, 1, 3, 5],
            [0, 1, 4, 5],
        ]

    def engine_run(self, steps=10):
        model = ModelConfig(
            n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=32, seed=17
        )
        policy = EvictionPolicyConfig(kind="h2o", distant_capacity=2, recent_window=2)
        config = RunConfig(model=model, policy=policy, prompt_length=5, decode_steps=steps)
        (decoding,) = start_runs([config], [init_model(model)])
        rows = [step_runs([decoding], [greedy_token(decoding.out.logits)])[0].attn_rows for _ in range(steps)]
        return rows, decoding.result()

    def test_matches_hand_replay(self):
        # Replay the recorded per-step rows through a pure-Python
        # cumulative-score tracker and demand the identical eviction
        # sequence and final retained set.
        rows, result = self.engine_run()
        prompt_len = 5
        budget = 4
        recent = 2
        live = list(range(prompt_len))
        cum = [0.0] * prompt_len
        expected_events = []
        for step, step_rows in enumerate(rows):
            live.append(prompt_len + step)
            cum.append(0.0)
            group = np.asarray(step_rows[0][0])
            agg = group.sum(axis=0)
            cum = [c + float(a) for c, a in zip(cum, agg)]
            if sum(1 for p in live if p >= prompt_len) > budget:
                cutoff = len(live) - min(recent, len(live))
                candidates = [i for i in range(cutoff) if live[i] >= prompt_len]
                victim = min(candidates, key=lambda i: (cum[i], live[i]))
                expected_events.append((step, live[victim]))
                del live[victim]
                del cum[victim]
        got_events = [
            (step, pos)
            for step, _, _, dropped in result.trace.eviction_log()
            for pos in dropped
        ]
        assert got_events == expected_events
        assert result.positions[0][0].tolist() == live

    def test_prompt_entries_are_immortal(self):
        _, result = self.engine_run(steps=12)
        evicted = {
            pos for _, _, _, dropped in result.trace.eviction_log() for pos in dropped
        }
        assert all(pos >= 5 for pos in evicted)
        assert result.positions[0][0].tolist()[:5] == [0, 1, 2, 3, 4]

    def test_occupancy_is_prompt_plus_capped_decode(self):
        _, result = self.engine_run(steps=12)
        occ = [rec.occupancy[0][0] for rec in result.trace.records]
        assert occ == [5 + min(i + 1, 4) for i in range(12)]

    def test_no_eviction_until_budget_exceeded(self):
        _, result = self.engine_run(steps=4)
        assert result.trace.eviction_log() == []


class TestSnapKv:
    def model(self):
        return ModelConfig(
            n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=23
        )

    def test_one_shot_reduction_then_growth(self):
        policy = EvictionPolicyConfig(kind="snapkv", recent_window=2, prefill_budget=4)
        config = RunConfig(model=self.model(), policy=policy, prompt_length=12, decode_steps=6)
        result = run(config)
        assert sum(len(p) for layer in result.trace.prefill_evictions for p in layer) == 8 * 4
        occ = [rec.occupancy[0][0] for rec in result.trace.records]
        assert occ == [4 + i + 1 for i in range(6)]
        # Decode never evicts.
        assert result.trace.eviction_log() == []

    def test_matches_manual_selection(self):
        model = self.model()
        policy = EvictionPolicyConfig(kind="snapkv", recent_window=2, prefill_budget=5)
        w = init_model(model)
        auto = KvCacheState.for_model(model, policy.recent_window, 12)
        prefill([w], [list(range(12))], [auto])
        manual = KvCacheState.for_model(model, policy.recent_window, 12)
        prefill([w], [list(range(12))], [manual])
        snapkv_policy(auto, policy)
        for layer in range(model.n_layers):
            for head in range(model.n_kv_heads):
                # One head's rows of the layer-wide fuse and select.
                scores = fuse(manual, layer, "sum")[head : head + 1]
                kept = select_retained(scores, manual.occupancy(layer), 3, 2)[0]
                want = manual.positions(layer)[head][kept].tolist()
                assert positions(auto, layer, head) == want
                assert len(want) == 5

    def test_budget_within_window_keeps_newest(self):
        model = ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=32, seed=3)
        policy = EvictionPolicyConfig(kind="snapkv", recent_window=4, prefill_budget=2)
        cache = KvCacheState.for_model(model, policy.recent_window, 8)
        prefill([init_model(model)], [list(range(8))], [cache])
        snapkv_policy(cache, policy)
        assert positions(cache) == [6, 7]

    def test_prompt_within_budget_untouched(self):
        model = ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=4, vocab_size=32, seed=3)
        policy = EvictionPolicyConfig(kind="snapkv", recent_window=2, prefill_budget=8)
        cache = KvCacheState.for_model(model, policy.recent_window, 5)
        prefill([init_model(model)], [list(range(5))], [cache])
        snapkv_policy(cache, policy)
        assert positions(cache) == [0, 1, 2, 3, 4]
        assert cache.pop_evictions() == no_evictions(cache)


class TestDispatch:
    def test_full_attention_never_evicts(self):
        cfg = EvictionPolicyConfig(kind="full_attention", recent_window=2)
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=6)
        for pos in range(6):
            policy_step(cache, uniform_step(cache, pos), cfg, pos, 0)
        assert cache.occupancy(0) == 6
        assert cache.pop_evictions() == no_evictions(cache)

    def test_snapkv_decode_dispatch_records_only(self):
        # The decoder records the rows; the dispatch itself leaves the store alone.
        cfg = EvictionPolicyConfig(kind="snapkv", recent_window=2, prefill_budget=2)
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=4)
        for pos in range(4):
            policy_step(cache, uniform_step(cache, pos), cfg, pos, 0)
        assert cache.occupancy(0) == 4
        assert cache.profile_rows(0) == 2
