"""The array-backed store layout against a plain-list model of the same cache.

Random ``append`` / ``record`` / ``keep`` sequences drive both; after every
operation keys, values, positions, token ids, profile rows (oldest first),
received totals and the eviction journal must agree bit for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphkv import KvCacheState
from morphkv.cache import INITIAL_ALLOC
from morphkv.errors import InvalidShape

HEAD_DIM = 3
GROUP = 2


class ListCache:
    """Entries, window rows and received totals kept as Python lists, per store.

    An entry is a ``(key, value, position, token)`` tuple."""

    def __init__(self, n_layers, n_heads, capacity):
        self.capacity = capacity
        self.stores = {(l, h): [] for l in range(n_layers) for h in range(n_heads)}
        self.profiles = {key: [] for key in self.stores}
        self.received = {key: [] for key in self.stores}
        self.journal = []

    def append(self, key, entry):
        self.stores[key].append(entry)
        for row in self.profiles[key]:
            row.append(0.0)
        self.received[key].append(0.0)

    def record(self, key, row):
        window = self.profiles[key]
        window.append([float(x) for x in row])
        if len(window) > self.capacity:
            window.pop(0)
        self.received[key] = [total + float(x) for total, x in zip(self.received[key], row)]

    def keep(self, key, retained):
        store = self.stores[key]
        evicted = [e[2] for i, e in enumerate(store) if i not in retained]
        if evicted:
            self.stores[key] = [store[i] for i in retained]
            self.profiles[key] = [[row[i] for i in retained] for row in self.profiles[key]]
            self.received[key] = [self.received[key][i] for i in retained]
            self.journal.append((key[0], key[1], evicted))
        return evicted


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same(cache: KvCacheState, model: ListCache):
    for (layer, head), store in model.stores.items():
        n = len(store)
        assert cache.occupancy(layer, head) == n
        keys = cache.keys_matrix(layer, head)
        vals = cache.values_matrix(layer, head)
        assert keys.shape[0] == vals.shape[0] == n
        assert bits(keys) == bits([e[0] for e in store])
        assert bits(vals) == bits([e[1] for e in store])
        assert cache.positions(layer, head).tolist() == [e[2] for e in store]
        assert cache.token_ids(layer, head).tolist() == [e[3] for e in store]
        want = model.profiles[(layer, head)]
        assert cache.profile_rows(layer, head) == len(want)
        scores = cache.score_matrix(layer, head)
        assert scores.shape == (len(want), n)
        assert scores.flags.c_contiguous
        for got, row in zip(scores, want):
            assert bits(got) == bits(row)
        assert bits(cache.received(layer, head)) == bits(model.received[(layer, head)])


def pick(n_layers, n_heads, layer, head):
    return layer % n_layers, head % n_heads


ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 1), st.integers(0, 2), st.integers(1, 40)),
        st.tuples(st.just("record"), st.integers(0, 1), st.integers(0, 2), st.just(0)),
        st.tuples(st.just("record_all"), st.just(0), st.just(0), st.just(0)),
        st.tuples(
            st.just("keep"), st.integers(0, 1), st.integers(0, 2), st.sampled_from(["none", "all", "random"])
        ),
    ),
    max_size=25,
)


@settings(max_examples=150, deadline=None)
@given(
    n_layers=st.integers(1, 2),
    n_heads=st.integers(1, 3),
    capacity=st.integers(1, 4),
    ops=ops,
    seed=st.integers(0, 2**32 - 1),
)
@example(
    n_layers=2,
    n_heads=2,
    capacity=3,
    ops=[
        ("append", 1, 1, 2 * INITIAL_ALLOC + 5),
        ("record", 1, 1, 0),
        ("record", 1, 1, 0),
        ("keep", 1, 1, "random"),
        ("append", 1, 1, 3 * INITIAL_ALLOC),
        ("record_all", 0, 0, 0),
        ("keep", 1, 1, "none"),
        ("append", 1, 1, 2),
        ("record", 1, 1, 0),
    ],
    seed=7,
)
def test_matches_list_model(n_layers, n_heads, capacity, ops, seed):
    rng = np.random.default_rng(seed)
    cache = KvCacheState(n_layers, n_heads, window_capacity=capacity)
    model = ListCache(n_layers, n_heads, capacity)
    next_pos = {key: 0 for key in model.stores}
    for kind, a, b, arg in ops:
        key = pick(n_layers, n_heads, a, b)
        n = len(model.stores[key])
        if kind == "append":
            for _ in range(arg):
                pos = next_pos[key]
                next_pos[key] = pos + 1 + int(rng.integers(0, 3))
                entry = (
                    rng.standard_normal(HEAD_DIM), rng.standard_normal(HEAD_DIM), pos, int(rng.integers(0, 50))
                )
                cache.append(*key, *entry)
                model.append(key, entry)
        elif kind == "record":
            row = rng.uniform(size=n)
            cache.record(*key, row)
            model.record(key, row)
        elif kind == "record_all":
            grid = [
                [rng.uniform(size=(GROUP, len(model.stores[(l, h)]))) for h in range(n_heads)]
                for l in range(n_layers)
            ]
            for l, rows in enumerate(grid):
                cache.record_step_profiles(l, rows)
            for (l, h) in model.stores:
                group = grid[l][h]
                model.record((l, h), [group[0][j] + group[1][j] for j in range(group.shape[1])])
        else:
            if arg == "none":
                retained = []
            elif arg == "all":
                retained = list(range(n))
            else:
                retained = sorted(int(i) for i in np.flatnonzero(rng.uniform(size=n) < 0.5))
            assert cache.keep(*key, retained) == model.keep(key, retained)
        assert_same(cache, model)
    assert cache.pop_eviction_events() == model.journal
    assert cache.pop_eviction_events() == []
    cache.validate()


def test_growth_keeps_earlier_rows():
    cache = KvCacheState(1, 1, window_capacity=2)
    total = 4 * INITIAL_ALLOC + 1
    for pos in range(total):
        cache.append(0, 0, np.full(2, float(pos)), np.full(2, -float(pos)), pos, pos)
    np.testing.assert_array_equal(cache.keys_matrix(0, 0)[:, 0], np.arange(total, dtype=float))
    np.testing.assert_array_equal(cache.values_matrix(0, 0)[:, 1], -np.arange(total, dtype=float))
    assert cache.score_matrix(0, 0).shape == (0, total)
    assert cache.received(0, 0).shape == (total,)
    cache.validate()


def test_score_rows_stay_oldest_first_after_growth_and_keep():
    # Rows recorded before, across and after a growth step and an eviction
    # come back oldest first, and the ring keeps only the newest three.
    cache = KvCacheState(1, 1, window_capacity=3)
    model = ListCache(1, 1, 3)
    total = INITIAL_ALLOC + 4
    for pos in range(total):
        cache.append(0, 0, np.zeros(2), np.zeros(2), pos, pos)
        model.append((0, 0), (np.zeros(2), np.zeros(2), pos, pos))
        if pos >= INITIAL_ALLOC - 3:
            row = np.full(pos + 1, float(pos)) + np.arange(pos + 1) / 64
            cache.record(0, 0, row)
            model.record((0, 0), row)
    retained = list(range(0, total, 3)) + [total - 1]
    cache.keep(0, 0, retained)
    model.keep((0, 0), retained)
    scores = cache.score_matrix(0, 0)
    # Entry 0 saw every row; the newest entry only the row of its own step.
    assert scores[:, 0].tolist() == [float(total - 3), float(total - 2), float(total - 1)]
    assert scores[:, -1].tolist() == [0.0, 0.0, float(total - 1) + (total - 1) / 64]
    assert_same(cache, model)


def test_keep_nothing_empties_store_and_window():
    cache = KvCacheState(1, 1, window_capacity=2)
    for pos in range(3):
        cache.append(0, 0, np.zeros(2), np.zeros(2), pos, 0)
    cache.record(0, 0, [0.2, 0.3, 0.5])
    assert cache.keep(0, 0, []) == [0, 1, 2]
    assert cache.occupancy(0, 0) == 0
    assert cache.keys_matrix(0, 0).shape[0] == 0
    assert cache.score_matrix(0, 0).shape == (1, 0)
    assert cache.received(0, 0).shape == (0,)
    cache.validate()


@pytest.mark.parametrize(
    "accessor", ["keys_matrix", "values_matrix", "positions", "token_ids", "received"]
)
def test_returned_views_are_read_only(accessor):
    cache = KvCacheState(1, 1, window_capacity=2)
    for pos in range(3):
        cache.append(0, 0, np.ones(2), np.ones(2), pos, pos)
    view = getattr(cache, accessor)(0, 0)
    before = view.copy()
    with pytest.raises(ValueError):
        view[0] = 7
    with pytest.raises(ValueError):
        view += 1
    np.testing.assert_array_equal(getattr(cache, accessor)(0, 0), before)


@pytest.mark.parametrize("retained", [[0.0, 2.0], [False, True], ["0", "2"], [[0, 2]]])
def test_keep_rejects_non_integer_indices(retained):
    cache = KvCacheState(1, 1, window_capacity=2)
    for pos in range(3):
        cache.append(0, 0, np.ones(2), np.ones(2), pos, pos)
    with pytest.raises(InvalidShape):
        cache.keep(0, 0, retained)
    assert cache.occupancy(0, 0) == 3
