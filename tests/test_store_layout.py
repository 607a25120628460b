"""The array-backed store layout against a plain-list model of the same cache.

Random per-layer ``append`` / ``record_step_profiles`` / ``keep`` sequences
drive both; after every operation keys, values, positions, profile rows
(oldest first), received totals and the eviction journal must agree bit
for bit.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cache_state import no_evictions
from morphkv.cache import KvCacheState
from morphkv.errors import InvalidShape

HEAD_DIM = 3


class ListCache:
    """Entries, window rows and received totals kept as Python lists, per
    (layer, KV head) store, driven by the cache's per-layer operations.

    An entry is a ``(key, value, position)`` tuple."""

    def __init__(self, n_layers, n_heads, capacity):
        self.capacity = capacity
        self.n_heads = n_heads
        self.stores = {(l, h): [] for l in range(n_layers) for h in range(n_heads)}
        self.profiles = {key: [] for key in self.stores}
        self.received = {key: [] for key in self.stores}
        self.journal = [[[] for _ in range(n_heads)] for _ in range(n_layers)]

    def append(self, layer, keys, values, position):
        for head in range(self.n_heads):
            key = (layer, head)
            self.stores[key].append((keys[head], values[head], position))
            for row in self.profiles[key]:
                row.append(0.0)
            self.received[key].append(0.0)

    def record(self, layer, groups):
        for head, group in enumerate(groups):
            key = (layer, head)
            row = [sum(float(r[j]) for r in group) for j in range(len(self.stores[key]))]
            window = self.profiles[key]
            window.append(row)
            if len(window) > self.capacity:
                window.pop(0)
            self.received[key] = [total + x for total, x in zip(self.received[key], row)]

    def keep(self, layer, retained):
        out = []
        for head, kept in enumerate(retained):
            key = (layer, head)
            store = self.stores[key]
            evicted = [e[2] for i, e in enumerate(store) if i not in kept]
            if evicted:
                self.stores[key] = [store[i] for i in kept]
                self.profiles[key] = [[row[i] for i in kept] for row in self.profiles[key]]
                self.received[key] = [self.received[key][i] for i in kept]
                self.journal[layer][head].extend(evicted)
            out.extend(evicted)
        return out

    def layer(self, layer, field):
        return [[e[field] for e in self.stores[(layer, h)]] for h in range(self.n_heads)]


def bits(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def assert_same(cache: KvCacheState, model: ListCache):
    for layer in range(cache.n_layers):
        heads = [model.stores[(layer, h)] for h in range(model.n_heads)]
        n = len(heads[0])
        assert all(len(store) == n for store in heads)
        assert cache.occupancy(layer) == n
        keys, vals = cache.keys_matrix(layer), cache.values_matrix(layer)
        assert keys.shape == vals.shape and keys.shape[:2] == (model.n_heads, n)
        assert bits(keys) == bits(model.layer(layer, 0))
        assert bits(vals) == bits(model.layer(layer, 1))
        assert cache.positions(layer).tolist() == model.layer(layer, 2)
        want = [model.profiles[(layer, h)] for h in range(model.n_heads)]
        assert cache.profile_rows(layer) == len(want[0])
        scores = cache.score_matrix(layer)
        assert scores.shape == (model.n_heads, len(want[0]), n)
        assert scores.flags.c_contiguous
        assert bits(scores) == bits(want)
        received = [model.received[(layer, h)] for h in range(model.n_heads)]
        assert bits(cache.received(layer)) == bits(received)


ops = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(0, 1), st.integers(1, 40)),
        st.tuples(st.just("record"), st.integers(0, 1), st.integers(1, 3)),
        st.tuples(st.just("keep"), st.integers(0, 1), st.sampled_from(["none", "all", "shared", "random"])),
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
        ("append", 1, 37),
        ("record", 1, 2),
        ("record", 1, 1),
        ("keep", 1, "random"),
        ("append", 1, 48),
        ("record", 0, 3),
        ("record", 1, 2),
        ("keep", 1, "none"),
        ("append", 1, 2),
        ("record", 1, 2),
    ],
    seed=7,
)
def test_matches_list_model(n_layers, n_heads, capacity, ops, seed):
    rng = np.random.default_rng(seed)
    # Room for every append, as if no keep evicted anything.
    appends = [0] * n_layers
    for kind, a, arg in ops:
        if kind == "append":
            appends[a % n_layers] += arg
    cache = KvCacheState(n_layers, n_heads, HEAD_DIM, window_capacity=capacity, capacity=max(1, *appends))
    model = ListCache(n_layers, n_heads, capacity)
    next_pos = [0] * n_layers
    for kind, a, arg in ops:
        layer = a % n_layers
        n = cache.occupancy(layer)
        if kind == "append":
            for _ in range(arg):
                pos = next_pos[layer]
                next_pos[layer] = pos + 1 + int(rng.integers(0, 3))
                keys = rng.standard_normal((n_heads, HEAD_DIM))
                values = rng.standard_normal((n_heads, HEAD_DIM))
                cache.append(layer, keys, values, pos)
                model.append(layer, keys, values, pos)
        elif kind == "record":
            groups = rng.uniform(size=(n_heads, arg, n))
            cache.record_step_profiles(layer, groups)
            model.record(layer, groups)
        else:
            if arg == "none":
                retained = np.zeros((n_heads, 0), dtype=np.int64)
            elif arg == "all":
                retained = np.tile(np.arange(n), (n_heads, 1))
            else:
                k = int(rng.integers(0, n + 1))
                rows = 1 if arg == "shared" else n_heads
                picks = [np.sort(rng.choice(n, size=k, replace=False)) for _ in range(rows)]
                retained = np.broadcast_to(np.array(picks).reshape(rows, k), (n_heads, k))
            assert cache.keep(layer, retained) == model.keep(layer, retained.tolist())
        assert_same(cache, model)
    assert cache.pop_evictions() == model.journal
    assert cache.pop_evictions() == no_evictions(cache)
    cache.validate()


def test_a_full_cache_keeps_every_row():
    total = 65
    cache = KvCacheState(1, 2, 2, window_capacity=2, capacity=total)
    for pos in range(total):
        cache.append(0, np.full((2, 2), float(pos)) + [[0], [1]], np.full((2, 2), -float(pos)), pos)
    expected = np.arange(total, dtype=float)
    np.testing.assert_array_equal(cache.keys_matrix(0)[:, :, 0], [expected, expected + 1])
    np.testing.assert_array_equal(cache.values_matrix(0)[:, :, 1], [-expected, -expected])
    assert cache.score_matrix(0).shape == (2, 0, total)
    assert cache.received(0).shape == (2, total)
    cache.validate()


def one_head_entry(pos: int) -> tuple:
    return np.zeros((1, 2)), np.zeros((1, 2)), pos


def test_score_rows_stay_oldest_first_across_a_wrap_and_keep():
    # Rows recorded before and after the ring wraps and an eviction come
    # back oldest first, and the ring keeps only the newest three.
    total = 20
    cache = KvCacheState(1, 1, 2, window_capacity=3, capacity=total)
    model = ListCache(1, 1, 3)
    for pos in range(total):
        cache.append(0, *one_head_entry(pos))
        model.append(0, *one_head_entry(pos))
        if pos >= 13:
            row = np.full(pos + 1, float(pos)) + np.arange(pos + 1) / 64
            cache.record_step_profiles(0, [[row]])
            model.record(0, [[row]])
    retained = [list(range(0, total, 3)) + [total - 1]]
    cache.keep(0, retained)
    model.keep(0, retained)
    scores = cache.score_matrix(0)[0]
    # Entry 0 saw every row; the newest entry only the row of its own step.
    assert scores[:, 0].tolist() == [float(total - 3), float(total - 2), float(total - 1)]
    assert scores[:, -1].tolist() == [0.0, 0.0, float(total - 1) + (total - 1) / 64]
    assert_same(cache, model)


def test_keep_nothing_empties_store_and_window():
    cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=3)
    for pos in range(3):
        cache.append(0, *one_head_entry(pos))
    cache.record_step_profiles(0, [[[0.2, 0.3, 0.5]]])
    assert cache.keep(0, [[]]) == [0, 1, 2]
    assert cache.occupancy(0) == 0
    assert cache.keys_matrix(0).shape == (1, 0, 2)
    assert cache.score_matrix(0).shape == (1, 1, 0)
    assert cache.received(0).shape == (1, 0)
    cache.validate()


@pytest.mark.parametrize(
    "accessor", ["keys_matrix", "values_matrix", "positions", "received"]
)
def test_returned_views_are_read_only(accessor):
    cache = KvCacheState(1, 2, 2, window_capacity=2, capacity=3)
    for pos in range(3):
        cache.append(0, np.ones((2, 2)), np.ones((2, 2)), pos)
    view = getattr(cache, accessor)(0)
    before = view.copy()
    with pytest.raises(ValueError):
        view[0] = 7
    with pytest.raises(ValueError):
        view += 1
    np.testing.assert_array_equal(getattr(cache, accessor)(0), before)


@pytest.mark.parametrize(
    "retained",
    [
        [[0.0, 2.0], [0.0, 1.0]],
        [[False, True], [True, False]],
        [["0", "2"], ["0", "1"]],
        [0, 2],
        [[0, 2]],
        [[0, 2], [2, 1]],
        [[0, 2], [1, 3]],
    ],
)
def test_keep_rejects_non_integer_indices(retained):
    # Non-integer indices, one row for two heads, an unsorted row and an
    # out-of-range index are all rejected before anything is evicted.
    cache = KvCacheState(1, 2, 2, window_capacity=2, capacity=3)
    for pos in range(3):
        cache.append(0, np.ones((2, 2)), np.ones((2, 2)), pos)
    with pytest.raises(InvalidShape):
        cache.keep(0, retained)
    assert cache.occupancy(0) == 3
    assert cache.pop_evictions() == no_evictions(cache)
