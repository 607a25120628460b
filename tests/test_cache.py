from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference
from cache_state import no_evictions, raw_state
from morphkv import (
    EvictionPolicyConfig,
    ModelConfig,
    RunConfig,
    harness,
    load_run_config,
    start_runs,
    step_runs,
)
from morphkv.cache import _PROFILE, KvCacheState
from morphkv.harness import snapshot
from morphkv.errors import (
    EmptyWindow,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidShape,
)
from morphkv.model import PREFILL_BLOCK, decode_step, greedy_token, init_model, prefill
from morphkv.morph import fuse, morphkv_step
from morphkv.trace import peak_occupancy

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def entry(pos: int, d: int = 2, heads: int = 1) -> tuple:
    """``KvCacheState.append`` arguments after the layer."""
    return np.full((heads, d), float(pos)), np.full((heads, d), float(pos)), pos


def record(cache: KvCacheState, row, layer: int = 0) -> None:
    """Record one row into a one-head layer: a group of one query head."""
    cache.record_step_profiles(layer, [[row]])


def window_of(rows, width: int, capacity: int | None = None) -> KvCacheState:
    """A one-store cache ``width`` entries wide whose profile holds ``rows``, oldest first."""
    cache = KvCacheState(1, 1, 2, window_capacity=capacity or len(rows), capacity=width)
    for pos in range(width):
        cache.append(0, *entry(pos))
    for row in rows:
        record(cache, row)
    return cache


def group_profile_row(rows, width: int | None = None) -> np.ndarray:
    """The profile row a one-head store records for one group of query-head rows."""
    width = len(rows[0]) if width is None else width
    cache = KvCacheState(1, 1, 2, window_capacity=1, capacity=width)
    for pos in range(width):
        cache.append(0, *entry(pos))
    cache.record_step_profiles(0, [rows])
    return cache.score_matrix(0)[0, 0]


class TestAggregation:
    def test_two_rows_sum_elementwise(self):
        rows = [np.array([0.1, 0.2, 0.7]), np.array([0.3, 0.3, 0.4])]
        np.testing.assert_allclose(group_profile_row(rows), [0.4, 0.5, 1.1], atol=1e-15)

    def test_single_row_is_identity(self):
        row = np.array([0.25, 0.75])
        np.testing.assert_array_equal(group_profile_row([row]), row)

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(13)
        rows = rng.uniform(size=(4, 6))
        expected = [sum(float(rows[j][k]) for j in range(4)) for k in range(6)]
        np.testing.assert_allclose(group_profile_row(rows), expected, atol=1e-12)

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidShape):
            group_profile_row([np.array([0.5, 0.5]), np.array([1.0])])

    def test_rejects_empty_stack(self):
        with pytest.raises(InvalidShape):
            group_profile_row(np.zeros((0, 3)), width=3)

    @given(st.integers(1, 6), st.integers(1, 8), st.integers(0, 2**32 - 1))
    def test_row_order_is_irrelevant(self, g, n, seed):
        rows = np.random.default_rng(seed).uniform(size=(g, n))
        flipped = rows[::-1]
        np.testing.assert_allclose(
            group_profile_row(rows), group_profile_row(flipped), atol=1e-12
        )


class TestWindow:
    def test_record_then_pad_appends_zero_column(self):
        cache = KvCacheState(1, 1, 2, window_capacity=3, capacity=2)
        cache.append(0, *entry(0))
        record(cache, [1.0])
        cache.append(0, *entry(1))
        np.testing.assert_array_equal(cache.score_matrix(0)[0], [[1.0, 0.0]])
        assert cache.occupancy(0) == 2

    def test_capacity_drops_oldest(self):
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=4)
        for pos in range(4):
            cache.append(0, *entry(pos))
            record(cache, np.full(pos + 1, float(pos)))
        assert cache.profile_rows(0) == 2
        np.testing.assert_array_equal(cache.score_matrix(0, 1)[0, :, 0], [2.0, 3.0])

    def test_keep_columns_realigns_rows(self):
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=3)
        for pos in range(3):
            cache.append(0, *entry(pos))
            record(cache, np.arange(pos + 1, dtype=float))
        cache.keep(0, [[0, 2]])
        assert cache.occupancy(0) == 2
        np.testing.assert_array_equal(cache.score_matrix(0)[0, -1], [0.0, 2.0])

    def test_record_rejects_misaligned_row(self):
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=1)
        cache.append(0, *entry(0))
        with pytest.raises(InvalidShape):
            record(cache, [0.5, 0.5])

    def test_record_step_profiles_records_aggregated_rows(self):
        cache = KvCacheState(1, 1, 2, window_capacity=1, capacity=2)
        cache.append(0, *entry(0))
        cache.append(0, *entry(1))
        group = np.array([[0.25, 0.75], [0.5, 0.5]])
        assert cache.record_step_profiles(0, [group]) is None
        np.testing.assert_array_equal(cache.score_matrix(0)[0], [[0.75, 1.25]])
        np.testing.assert_array_equal(cache.received(0)[0], [0.75, 1.25])

    def test_rejects_zero_capacity(self):
        with pytest.raises(InvalidConfig):
            KvCacheState(1, 1, 2, window_capacity=0, capacity=1)
        with pytest.raises(InvalidConfig):
            KvCacheState(1, 1, 2, window_capacity=1, capacity=0)

    def test_recorded_row_is_copied(self):
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=1)
        cache.append(0, *entry(0))
        src = np.array([0.7])
        record(cache, src)
        src[0] = -1.0
        assert cache.score_matrix(0)[0, 0, 0] == 0.7
        assert cache.received(0)[0, 0] == 0.7

    def test_score_matrix_is_a_c_contiguous_copy(self):
        cache = window_of([[0.1, 0.2, 0.3], [0.4, 0.5, 0.6]], width=3, capacity=2)
        for columns in (None, 1):
            scores = cache.score_matrix(0, columns)
            assert scores.flags.c_contiguous
        scores[0, 0, 0] = 9.0
        assert cache.score_matrix(0)[0, 0, 0] == 0.1

    def test_score_matrix_refuses_columns_past_the_live_entries(self):
        # One live entry in room for four: the slots past it hold nothing
        # the store owns, and a negative count would slice from the end.
        cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=4)
        cache.append(0, *entry(0))
        record(cache, [0.5])
        for columns in (2, 3, -1):
            with pytest.raises(InvalidShape):
                cache.score_matrix(0, columns)
        assert cache.score_matrix(0, 0).shape == (1, 1, 0)
        np.testing.assert_array_equal(cache.score_matrix(0, 1), [[[0.5]]])


class TestFusion:
    def test_sum_fusion_golden(self):
        # Two rows over 5 entries, window capacity 2: the 3 distant
        # columns fuse to [0.6, 0.1, 0.55].
        w = window_of(
            [[0.3, 0.05, 0.3, 0.2, 0.15], [0.3, 0.05, 0.25, 0.1, 0.3]], width=5
        )
        np.testing.assert_allclose(fuse(w, 0, "sum")[0], [0.6, 0.1, 0.55], atol=1e-12)

    def test_max_fusion_golden(self):
        w = window_of(
            [[0.3, 0.05, 0.3, 0.2, 0.15], [0.2, 0.15, 0.25, 0.1, 0.3]], width=5
        )
        np.testing.assert_allclose(fuse(w, 0, "max")[0], [0.3, 0.15, 0.3], atol=1e-15)

    def test_no_distant_entries_gives_empty_scores(self):
        w = window_of([[0.5, 0.5]], width=2, capacity=2)
        assert fuse(w, 0, "sum").shape == (1, 0)

    def test_empty_window_raises(self):
        w = KvCacheState(1, 1, 2, window_capacity=2, capacity=1)
        w.append(0, *entry(0))
        with pytest.raises(EmptyWindow):
            fuse(w, 0, "sum")[0]

    def test_matches_loop_reference(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            cap = int(rng.integers(1, 5))
            width = int(rng.integers(cap, cap + 8))
            rows = rng.uniform(size=(cap, width))
            w = window_of(rows, width)
            distant = width - cap
            for kind in ("sum", "max"):
                np.testing.assert_allclose(
                    fuse(w, 0, kind)[0],
                    reference.fuse_loops(rows, distant, kind),
                    atol=1e-12,
                )

    @given(st.integers(1, 5), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_max_never_exceeds_sum(self, cap, extra, seed):
        # Rows are non-negative attention weights, so the max over the
        # window is bounded by the sum over the window, column by column.
        width = cap + extra
        rows = np.random.default_rng(seed).uniform(size=(cap, width))
        w = window_of(rows, width)
        assert np.all(fuse(w, 0, "max")[0] <= fuse(w, 0, "sum")[0] + 1e-15)


class TestCacheState:
    def test_append_pads_every_existing_row(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=2)
        cache.append(0, *entry(0))
        record(cache, [1.0])
        cache.append(0, *entry(1))
        record(cache, [0.4, 0.6])
        rows = cache.score_matrix(0)[0]
        np.testing.assert_array_equal(rows[0], [1.0, 0.0])
        assert cache.occupancy(0) == 2
        cache.validate()

    def test_keep_returns_evicted_positions_and_journals(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=4)
        for pos in range(4):
            cache.append(0, *entry(pos))
        evicted = cache.keep(0, [[0, 2, 3]])
        assert evicted == [1]
        assert cache.positions(0)[0].tolist() == [0, 2, 3]
        assert cache.pop_evictions() == [[[1]]]
        assert cache.pop_evictions() == no_evictions(cache)

    def test_raw_state_sees_an_undrained_journal(self):
        # A refused call that journals an eviction must show even when it
        # moves no entry, so the fingerprint covers the journal.
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=3)
        for pos in range(3):
            cache.append(0, *entry(pos))
        cache.keep(0, [[1, 2]])
        journaled = raw_state(cache)
        cache.pop_evictions()
        assert raw_state(cache) != journaled

    def test_keep_everything_is_a_noop(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=3)
        for pos in range(3):
            cache.append(0, *entry(pos))
        before = raw_state(cache)
        assert cache.keep(0, [[0, 1, 2]]) == []
        assert raw_state(cache) == before
        assert cache.pop_evictions() == no_evictions(cache)

    def test_keep_rejects_unsorted_and_out_of_range(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=3)
        for pos in range(3):
            cache.append(0, *entry(pos))
        with pytest.raises(InvalidShape):
            cache.keep(0, [[1, 0]])
        with pytest.raises(InvalidShape):
            cache.keep(0, [[1, 1]])
        with pytest.raises(InvalidShape):
            cache.keep(0, [[0, 3]])

    def test_stores_evolve_independently(self):
        cache = KvCacheState(2, 2, 2, window_capacity=4, capacity=3)
        for pos in range(3):
            for layer in range(2):
                cache.append(layer, *entry(pos, heads=2))
        assert cache.keep(1, [[2], [0]]) == [0, 1, 1, 2]
        assert cache.occupancy(0) == 3
        assert cache.occupancy(1) == 1
        assert cache.occupancies() == [[3, 3], [1, 1]]
        assert cache.positions(1).tolist() == [[2], [0]]
        assert cache.pop_evictions() == [[[], []], [[0, 1], [1, 2]]]
        cache.validate()

    def test_next_position_continues_after_eviction(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=5)
        for pos in range(5):
            cache.append(0, *entry(pos))
        cache.keep(0, [[3, 4]])
        assert cache.next_position() == 5

    def test_keys_matrix_orders_rows_by_entry(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=3)
        for pos in range(3):
            cache.append(0, *entry(pos))
        np.testing.assert_array_equal(cache.keys_matrix(0)[0, :, 0], [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(cache.values_matrix(0)[0, :, 0], [0.0, 1.0, 2.0])

    def test_snapshot_reports_entries_and_scores(self, tmp_path):
        # The prompt's tokens are known and the run evicts, so its heads hold
        # different positions; each entry's token must be the trace's token
        # at that entry's position.
        prompt = tmp_path / "prompt.txt"
        prompt.write_text("7 3 9 3 1 4", encoding="utf-8")
        config = RunConfig(
            model=ModelConfig(n_layers=2, n_query_heads=2, n_kv_heads=2, head_dim=4, vocab_size=32, seed=1),
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=2),
            prompt_file=str(prompt),
            decode_steps=5,
        )
        result = harness.run(config)
        tokens = [7, 3, 9, 3, 1, 4] + result.trace.consumed_tokens()
        snap = snapshot(result)
        assert snap["window_capacity"] == 2
        assert result.trace.total_evictions()
        for layer, heads in enumerate(snap["layers"]):
            scores = result.fused_scores[layer]
            for head, store in enumerate(heads):
                positions = result.positions[layer][head].tolist()
                assert store["entries"] == [[pos, tokens[pos]] for pos in positions]
                assert store["fused_scores"] == scores[head].tolist()

    def test_validate_flags_nonfinite_entry(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=1)
        key, value, pos = entry(0)
        key[0, 0] = np.nan
        cache.append(0, key, value, pos)
        with pytest.raises(InternalInvariantViolation):
            cache.validate()

    def test_for_model_matches_config(self):
        cfg = ModelConfig(n_layers=3, n_query_heads=4, n_kv_heads=2, head_dim=2)
        cache = KvCacheState.for_model(cfg, window_capacity=5, capacity=7)
        assert cache.n_layers == 3
        assert cache.n_kv_heads == 2
        assert cache.head_dim == 2
        assert cache.window_capacity == 5
        assert cache.capacity == 7
        for pos in range(7):
            cache.append(2, *entry(pos, heads=2))
            cache.record_step_profiles(2, np.zeros((2, 2, pos + 1)))
        assert cache.profile_rows(2) == 5
        assert cache.score_matrix(2).shape == (2, 5, 7)


def cache_bits(cache: KvCacheState) -> list:
    """Every observable fact of a cache as raw bytes and ints, layer by layer."""
    facts = []
    for layer in range(cache.n_layers):
        facts.append((cache.occupancy(layer), cache.profile_rows(layer)))
        for view in (cache.keys_matrix, cache.values_matrix, cache.positions, cache.received):
            facts.append(view(layer).tobytes())
        facts.append(cache.score_matrix(layer).tobytes())
    return facts


def ring_slot_bits(cache: KvCacheState, recorded: int) -> list:
    """Each layer's raw profile bits over its live entries in the native
    slot ``r % window_capacity`` of every held row ``r`` of ``recorded``."""
    window = cache.window_capacity
    slots = np.arange(recorded - min(recorded, window), recorded) % window
    profile = cache._buffers[_PROFILE]
    return [profile[layer, :, : cache.occupancy(layer)][..., slots].tobytes() for layer in range(cache.n_layers)]


def prefilled(weights, prompt, window: int, capacity: int | None = None) -> KvCacheState:
    cache = KvCacheState.for_model(weights.config, window, capacity or len(prompt))
    prefill([weights], [prompt], [cache])
    return cache


class TestCopy:
    @settings(max_examples=40, deadline=None)
    @given(
        layers=st.integers(1, 4),
        kv_heads=st.integers(1, 3),
        group=st.integers(1, 2),
        source_window=st.integers(1, 40),
        data=st.data(),
    )
    def test_copy_equals_a_native_prefill(self, layers, kv_heads, group, source_window, data):
        # Prompt lengths at the block edges and at the source ring's
        # capacity, so rings that have and have not wrapped both occur.
        edges = [PREFILL_BLOCK + d for d in (-1, 0, 1)] + [source_window + d for d in (-1, 0, 1, 9)]
        length = data.draw(st.sampled_from([n for n in edges if n >= 1]), label="prompt length")
        window = data.draw(
            st.sampled_from([w for w in {source_window + d for d in (-3, -1, 0, 1, 5)} if w >= 1]),
            label="target window",
        )
        model = ModelConfig(
            n_layers=layers, n_query_heads=kv_heads * group, n_kv_heads=kv_heads,
            head_dim=4, vocab_size=32, seed=length + window,
        )
        weights = init_model(model)
        prompt = np.random.default_rng(window).integers(0, 32, length).tolist()
        source = prefilled(weights, prompt, source_window)
        before = cache_bits(source)
        if window > source_window and length >= source_window:
            # A full ring cannot say which older rows it dropped.
            with pytest.raises(InvalidParam):
                source.copy(window, length)
            assert cache_bits(source) == before
            return
        native = prefilled(weights, prompt, window)
        for fusion in ("sum", "max"):
            policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=window, fusion=fusion)
            size = peak_occupancy(policy, length, 3, layers)
            twin = source.copy(window, size)
            assert (twin.window_capacity, twin.capacity) == (window, size)
            assert cache_bits(twin) == cache_bits(native)
            # Slot for slot too: the prefill records one row per prompt token.
            assert ring_slot_bits(twin, length) == ring_slot_bits(native, length)
            assert cache_bits(source) == before
            # Stepping the copy and a native cache evicts the same entries.
            stepped = prefilled(weights, prompt, window, size)
            for step in range(3):
                token = (7 * step + 3) % 32
                for cache in (twin, stepped):
                    (out,) = decode_step([weights], [token], [cache])
                    morphkv_step(cache, out, policy, step)
                assert twin.pop_evictions() == stepped.pop_evictions()
                assert cache_bits(twin) == cache_bits(stepped)
                assert ring_slot_bits(twin, length + step + 1) == ring_slot_bits(stepped, length + step + 1)
        assert cache_bits(source) == before

    def test_copy_shares_no_memory_and_evolves_alone(self):
        weights = init_model(ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32))
        source = prefilled(weights, list(range(20)), 8)
        twin = source.copy(4, 20)
        for mine, theirs in zip(twin._buffers, source._buffers):
            assert not np.shares_memory(mine, theirs)
        source_bits = cache_bits(source)
        twin.keep(0, np.broadcast_to(np.arange(16, 20), (1, 2, 4)))
        assert cache_bits(source) == source_bits
        assert source.pop_evictions() == no_evictions(source)
        assert twin.pop_evictions() == [[list(range(16))] * 2, [[], []]]
        twin_bits = cache_bits(twin)
        source.keep(1, np.broadcast_to(np.arange(10, 20), (1, 2, 10)))
        assert cache_bits(twin) == twin_bits
        assert twin.pop_evictions() == no_evictions(twin)
        assert source.pop_evictions() == [[[], []], [list(range(10))] * 2]

    def test_journal_starts_empty(self):
        cache = KvCacheState(1, 1, 2, window_capacity=4, capacity=3)
        for pos in range(3):
            cache.append(0, *entry(pos))
        cache.keep(0, [[1, 2]])
        twin = cache.copy(4, 2)
        assert twin.pop_evictions() == no_evictions(twin)
        assert cache.pop_evictions() == [[[0]]]

    def test_popped_grid_is_never_aliased(self):
        # A popped grid is a recorded step: later evictions, of this cache
        # or of a copy, must not reach it, nor one copy's grid the other's.
        cache = KvCacheState(2, 2, 2, window_capacity=4, capacity=5)
        for pos in range(5):
            for layer in range(2):
                cache.append(layer, *entry(pos, heads=2))
        cache.keep(0, [[[1, 2, 3, 4], [0, 2, 3, 4]], [[0, 1, 2, 4], [0, 1, 3, 4]]])
        popped = cache.pop_evictions()
        assert popped == [[[0], [1]], [[3], [2]]]
        twin = cache.copy(4, 5)
        assert twin.pop_evictions() == no_evictions(twin)
        cache.keep(0, [[[1, 2, 3], [1, 2, 3]], [[0, 1, 3], [0, 1, 3]]])
        assert popped == [[[0], [1]], [[3], [2]]]
        assert twin.pop_evictions() == no_evictions(twin)
        twin.keep(0, [[[0, 1, 2], [0, 1, 2]], [[0, 1, 2], [0, 1, 2]]])
        assert cache.pop_evictions() == [[[1], [0]], [[2], [3]]]
        assert twin.pop_evictions() == [[[4], [4]], [[4], [4]]]
        assert popped == [[[0], [1]], [[3], [2]]]
        assert cache.pop_evictions() == no_evictions(cache)

    def test_refused_copy_changes_nothing(self):
        cache = window_of([[0.1, 0.2, 0.7]], 3, capacity=1)
        before = cache_bits(cache)
        with pytest.raises(InvalidParam, match="full profile ring of 1 rows"):
            cache.copy(2, 3)
        with pytest.raises(InvalidConfig):
            cache.copy(0, 3)
        assert cache_bits(cache) == before

    def test_copy_below_the_live_count_is_refused_before_allocating(self, monkeypatch):
        cache = window_of([[0.1, 0.2, 0.7]], 3, capacity=1)
        before = cache_bits(cache)

        def allocated(*args):
            raise AssertionError("copy allocated a cache it then refused")

        monkeypatch.setattr(KvCacheState, "__init__", allocated)
        with pytest.raises(InvalidParam, match="2 entries per store cannot hold 3"):
            cache.copy(1, 2)
        assert cache_bits(cache) == before

    def test_a_full_copy_refuses_an_append_and_changes_nothing(self):
        source = window_of([[0.1, 0.2, 0.7]], 3, capacity=1)
        twin = source.copy(1, 3)
        before = cache_bits(twin), raw_state(twin)
        with pytest.raises(InternalInvariantViolation, match="layer 0 is full"):
            twin.append(0, *entry(3))
        assert (cache_bits(twin), raw_state(twin)) == before
        # The larger source copy has room for it.
        source.copy(1, 4).append(0, *entry(3))

    def test_unwrapped_ring_grows_into_a_wider_one(self):
        rows = [[0.5, 0.5, 0.0], [0.2, 0.3, 0.5]]
        twin = window_of(rows, 3, capacity=3).copy(6, 3)
        assert twin.profile_rows(0) == 2
        np.testing.assert_array_equal(twin.score_matrix(0)[0], rows)
        record(twin, [0.1, 0.1, 0.8])
        np.testing.assert_array_equal(twin.score_matrix(0)[0], rows + [[0.1, 0.1, 0.8]])


POLICY_KINDS = ("morphkv", "h2o", "snapkv", "scissorhands", "streamingllm", "full_attention")


@st.composite
def tiny_runs(draw) -> RunConfig:
    """A tiny model and any policy kind, with every option that changes occupancy."""
    layers, kv_heads = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    model = ModelConfig(
        n_layers=layers, n_query_heads=kv_heads * draw(st.integers(1, 2)), n_kv_heads=kv_heads,
        head_dim=2, vocab_size=16, seed=draw(st.integers(0, 99)),
    )
    kind = draw(st.sampled_from(POLICY_KINDS))
    policy = dict(kind=kind, distant_capacity=draw(st.integers(0, 6)), recent_window=draw(st.integers(1, 6)))
    if kind == "morphkv":
        policy.update(
            protected_layers=draw(st.integers(0, layers)),
            eviction_interval=draw(st.integers(1, 4)),
            compress_prefill=draw(st.booleans()),
        )
    elif kind == "streamingllm":
        policy["sink_count"] = draw(st.integers(0, 3))
    elif kind == "snapkv":
        policy["prefill_budget"] = draw(st.integers(1, 24))
    return RunConfig(
        model=model,
        policy=EvictionPolicyConfig(**policy),
        prompt_length=draw(st.integers(1, 24)),
        decode_steps=draw(st.integers(0, 24)),
    )


class TestRunSize:
    """A run's cache is allocated once, at exactly its peak occupancy."""

    @settings(max_examples=60, deadline=None)
    @given(config=tiny_runs())
    def test_capacity_is_the_peak_occupancy(self, config):
        (decoding,) = start_runs([config], [init_model(config.model)])
        cache = decoding.cache
        peaks = [len(decoding.trace.prompt)]

        def counted(stepped, *args):
            # After the step's append, before its eviction.
            peaks.extend(n for heads in stepped.occupancies() for n in heads)
            return policy_step(stepped, *args)

        policy_step = harness.policy_step
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "policy_step", counted)
            for _ in range(config.decode_steps):
                step_runs([decoding], [greedy_token(decoding.out.logits)])
        assert len(peaks) == 1 + config.decode_steps * config.model.n_layers * config.model.n_kv_heads
        peak = max(peaks)
        assert decoding.cache is cache
        assert cache.capacity == peak

    @pytest.mark.parametrize("decode_steps", [256, 1024])
    def test_a_morphkv_run_is_sized_by_its_budget_not_its_length(self, decode_steps):
        # Prompt 64 under a budget of 48 + 16 at interval 1: each step holds
        # one entry past the budget until it evicts.
        desk = load_run_config(str(CONFIGS / "morphkv.ini"))
        config = replace(desk, prompt_length=64, decode_steps=decode_steps)
        assert config.policy.cache_budget == 64 and config.policy.eviction_interval == 1
        assert start_runs([config], [init_model(config.model)])[0].cache.capacity == 65
