"""Per (layer, KV head) KV stores, each with its attention profile.

Alignment is structural: a store keeps every per-entry array (keys,
values, positions, token ids, received attention, profile) on one entry
axis, so one append adds a row to each and one eviction compacts each
with the same fancy index. The profile holds the newest
``window_capacity`` aggregated attention rows as columns, one per ring
slot; a new entry's profile row is zero (a token cannot have attended to
entries created after it), and evicted entries leave with their rows.
Received attention is the running total of every recorded row, prefill
rows included. Scores are never renormalized after a deletion: they are
only ever compared for ranking, and keeping the raw weights keeps dumps
auditable.

Stores evolve independently: after eviction two heads may retain different
position sets, which is why keys are cached post-rotation and positions
are absolute.

Array layout: keys and values are row-major ``(alloc, head_dim)``,
positions, token ids and received attention ``(alloc,)``, and the profile
``(alloc, window_capacity)``; the leading ``n`` rows are the live entries
in entry order. Allocations grow geometrically (by half again when full),
so an append is one row write per array. Profile rows are always read
back oldest first, as a C-contiguous copy, which is the order and layout
:func:`morph.fuse` sums them in.

View lifetime: :meth:`KvCacheState.keys_matrix`, :meth:`values_matrix`,
:meth:`positions`, :meth:`token_ids` and :meth:`received` return
read-only views of the live rows, not copies. A view is valid until the
next :meth:`append`, :meth:`record` or :meth:`keep` on that store; after
that it may show stale or compacted rows. These views and
:meth:`KvCacheState.score_matrix` are the only read paths.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .errors import InternalInvariantViolation, InvalidConfig, InvalidShape

# Rows (store entries) allocated at first use.
INITIAL_ALLOC = 16


def _grown(alloc: int) -> int:
    """Next allocation: 1.5x, which bounds the slack a constant-size store
    carries at one growth step past its budget."""
    return alloc + max(alloc // 2, INITIAL_ALLOC)


def aggregate_group_scores(rows) -> np.ndarray:
    """Sum the attention rows of the query heads sharing one KV head.

    With one query head per KV head (plain multi-head attention) this is
    the identity on the single row.
    """
    try:
        arr = np.asarray(rows, dtype=np.float64)
    except ValueError as exc:
        raise InvalidShape("group rows must share one length") from exc
    if arr.ndim != 2 or arr.shape[0] < 1:
        raise InvalidShape("expected a non-empty stack of equal-length rows")
    return arr.sum(axis=0)


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


# Order of a store's buffers, and their dtypes. Every buffer's first axis
# is the entry axis, so one allocation and one fancy index serve them all.
_KEYS, _VALUES, _POSITIONS, _TOKENS, _RECEIVED, _PROFILE = range(6)
_DTYPES = (np.float64, np.float64, np.int64, np.int64, np.float64, np.float64)


class _KvStore:
    """One (layer, KV head) store with its attention profile.

    ``buffers`` holds keys, values, positions, token ids, received
    attention and profile columns (in the order above) in preallocated
    arrays whose first ``n`` rows are live; ``views`` holds read-only
    views of the same memory. The profile has one column per ring slot:
    ``_count`` slots are filled and ``_start`` is the oldest.
    """

    __slots__ = ("n", "capacity", "buffers", "views", "_start", "_count")

    def __init__(self, capacity: int):
        self.n = 0
        self.capacity = capacity
        self.buffers = ()
        self._allocate(0, (0,))
        self._start = 0
        self._count = 0

    def _allocate(self, rows: int, row_shape: tuple) -> None:
        shapes = [(rows, *row_shape)] * 2 + [(rows,)] * 3 + [(rows, self.capacity)]
        buffers = tuple(np.empty(shape, dtype) for shape, dtype in zip(shapes, _DTYPES))
        if self.n:
            for new, old in zip(buffers, self.buffers):
                new[: self.n] = old[: self.n]
        self.buffers = buffers
        self.views = tuple(_read_only(buf) for buf in buffers)

    def append(self, key, value, position: int, token: int) -> None:
        n = self.n
        keys = self.buffers[_KEYS]
        if n == len(keys):
            # The first entry fixes the row shape.
            self._allocate(_grown(n), np.shape(key) if n == 0 else keys.shape[1:])
        keys, values, positions, tokens, received, profile = self.buffers
        row_shape = keys.shape[1:]
        if np.shape(key) != row_shape or np.shape(value) != row_shape:
            raise InvalidShape(f"cache entries must be vectors of shape {row_shape}")
        keys[n] = key
        values[n] = value
        positions[n] = position
        tokens[n] = token
        # A new entry has received no attention and is in no row held so far.
        received[n] = 0.0
        profile[n] = 0.0
        self.n = n + 1

    def live(self, which: int) -> np.ndarray:
        """Read-only view of the live rows of one buffer."""
        return self.views[which][: self.n]

    def record(self, row: np.ndarray) -> None:
        """Write one attention row into the next ring slot, overwriting the
        oldest once the ring is full, and add it to the received totals."""
        n = self.n
        if row.shape != (n,):
            raise InvalidShape(f"profile row has shape {row.shape} but the store holds {n} entries")
        if self._count < self.capacity:
            # The ring has never wrapped, so ``_start`` is still 0.
            slot = self._count
            self._count += 1
        else:
            slot = self._start
            self._start = (slot + 1) % self.capacity
        self.buffers[_PROFILE][:n, slot] = row
        self.buffers[_RECEIVED][:n] += row

    def score_matrix(self, columns: int) -> np.ndarray:
        order = (self._start + np.arange(self._count)) % self.capacity
        return np.ascontiguousarray(self.buffers[_PROFILE][:columns, order].T)

    def compact(self, idx: np.ndarray) -> None:
        for buf in self.buffers:
            buf[: idx.size] = buf[idx]
        self.n = idx.size


class KvCacheState:
    """Array-backed stores with their attention profiles, one per (layer, KV head).

    Mutations go through :meth:`append`, :meth:`record` and :meth:`keep`.
    Evictions are journaled; the run loop drains the journal once per step
    via :meth:`pop_eviction_events`.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, window_capacity: int):
        if n_layers < 1 or n_kv_heads < 1:
            raise InvalidConfig("need at least one layer and one KV head")
        if window_capacity < 1:
            raise InvalidConfig("window capacity must be >= 1")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.window_capacity = window_capacity
        self._stores: list[list[_KvStore]] = [
            [_KvStore(window_capacity) for _ in range(n_kv_heads)] for _ in range(n_layers)
        ]
        self._journal: list[tuple[int, int, list[int]]] = []

    @classmethod
    def for_model(cls, model: ModelConfig, window_capacity: int) -> "KvCacheState":
        return cls(model.n_layers, model.n_kv_heads, window_capacity)

    def occupancy(self, layer: int, head: int) -> int:
        return self._stores[layer][head].n

    def occupancies(self) -> list[list[int]]:
        return [[store.n for store in layer] for layer in self._stores]

    def total_entries(self) -> int:
        return sum(store.n for layer in self._stores for store in layer)

    def is_empty(self) -> bool:
        return self.total_entries() == 0

    def min_occupancy(self) -> int:
        return min(store.n for layer in self._stores for store in layer)

    def next_position(self) -> int:
        positions = self.positions(0, 0)
        return int(positions[-1]) + 1 if positions.size else 0

    def append(self, layer: int, head: int, key, value, position: int, token: int) -> None:
        """Add one entry: rotated key and value rows, absolute position, token id."""
        self._stores[layer][head].append(key, value, position, token)

    def keys_matrix(self, layer: int, head: int) -> np.ndarray:
        return self._stores[layer][head].live(_KEYS)

    def values_matrix(self, layer: int, head: int) -> np.ndarray:
        return self._stores[layer][head].live(_VALUES)

    def positions(self, layer: int, head: int) -> np.ndarray:
        """Absolute positions of the live entries, strictly increasing."""
        return self._stores[layer][head].live(_POSITIONS)

    def token_ids(self, layer: int, head: int) -> np.ndarray:
        return self._stores[layer][head].live(_TOKENS)

    def received(self, layer: int, head: int) -> np.ndarray:
        """Total attention each live entry has received over every recorded row."""
        return self._stores[layer][head].live(_RECEIVED)

    def profile_rows(self, layer: int, head: int) -> int:
        """Attention rows held in the store's profile, at most ``window_capacity``."""
        return self._stores[layer][head]._count

    def score_matrix(self, layer: int, head: int, columns: int | None = None) -> np.ndarray:
        """C-contiguous ``(rows, columns)`` copy of the profile's leading
        columns (all live entries by default), oldest row first."""
        store = self._stores[layer][head]
        return store.score_matrix(store.n if columns is None else columns)

    def record(self, layer: int, head: int, row) -> None:
        """Add one aggregated attention row over the store's live entries,
        dropping the oldest row once ``window_capacity`` are held."""
        self._stores[layer][head].record(np.asarray(row, dtype=np.float64))

    def keep(self, layer: int, head: int, retained) -> list[int]:
        """Drop every entry not in ``retained`` (sorted, unique indices).

        Returns the absolute positions evicted and journals them.
        """
        store = self._stores[layer][head]
        idx = np.asarray(retained)
        if idx.ndim != 1 or (
            idx.size
            and (
                idx.dtype.kind not in "iu"
                or idx[0] < 0
                or idx[-1] >= store.n
                or bool(np.any(idx[1:] <= idx[:-1]))
            )
        ):
            raise InvalidShape("retained indices must be sorted, unique, integer, and in range")
        idx = idx.astype(np.intp, copy=False)
        if idx.size == store.n:
            return []
        dropped = np.ones(store.n, dtype=bool)
        dropped[idx] = False
        evicted = store.live(_POSITIONS)[dropped].tolist()
        store.compact(idx)
        self._journal.append((layer, head, evicted))
        return evicted

    def record_step_profiles(self, layer: int, group_rows) -> None:
        """Aggregate one token's group rows at ``layer``, one stack per KV
        head, and record them into that layer's stores."""
        for store, rows in zip(self._stores[layer], group_rows, strict=True):
            store.record(aggregate_group_scores(rows))

    def pop_eviction_events(self) -> list[tuple[int, int, list[int]]]:
        events, self._journal = self._journal, []
        return events

    def snapshot(self, fusion: str = "sum") -> dict:
        """JSON-ready dump: retained (position, token) pairs per store plus
        the current fused ranking scores over the distant entries."""
        from .morph import fuse

        layers = []
        for layer in range(self.n_layers):
            heads = []
            for head in range(self.n_kv_heads):
                recorded = self.profile_rows(layer, head)
                scores = fuse(self, layer, head, fusion).tolist() if recorded else []
                pairs = np.stack([self.positions(layer, head), self.token_ids(layer, head)], axis=1)
                heads.append({"entries": pairs.tolist(), "fused_scores": scores})
            layers.append(heads)
        return {"window_capacity": self.window_capacity, "layers": layers}

    def validate(self) -> None:
        """Debug-mode invariant sweep; raises on the first violation."""
        for layer in range(self.n_layers):
            for head in range(self.n_kv_heads):
                positions = self.positions(layer, head)
                if np.any(positions[1:] <= positions[:-1]):
                    raise InternalInvariantViolation(
                        f"store ({layer},{head}) positions not strictly increasing"
                    )
                if not (
                    np.isfinite(self.keys_matrix(layer, head)).all()
                    and np.isfinite(self.values_matrix(layer, head)).all()
                ):
                    raise InternalInvariantViolation("non-finite cache entry")
