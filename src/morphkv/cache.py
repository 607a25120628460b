"""Per-layer KV stores: one block per layer over its KV heads.

Every KV head of a layer holds the same number of entries at every step
(the constant-occupancy contract), so a layer's stores share one entry
count and one profile ring. Which entries each head holds may differ:
after a ranked eviction two heads may retain different positions, which
is why keys are cached post-rotation and positions are absolute.

Alignment is structural: every per-entry array (keys, values, positions,
token ids, received attention, profile) has axes ``(head, entry, ...)``,
so one append adds an entry to each and one ``(heads, kept)`` index
compacts each. Keys and values are ``(heads, alloc, head_dim)``, so each
head's live keys are a row-major ``(n, head_dim)`` block; allocations grow
by half again when full. The profile ``(heads, alloc, window_capacity)``
holds the newest aggregated attention rows as columns, one per ring slot,
read back oldest first as a C-contiguous ``(heads, rows, columns)`` copy,
the order and layout :func:`morph.fuse` sums them in. A new entry's
profile row is zero (a token cannot have attended to entries created
after it), and evicted entries leave with their rows. Received attention
is the running total of every recorded row, prefill rows included. Scores
are never renormalized after a deletion: they are only compared for
ranking, and the raw weights keep dumps auditable.

View lifetime: :meth:`KvCacheState.keys_matrix`, :meth:`values_matrix`,
:meth:`positions`, :meth:`token_ids` and :meth:`received` return
read-only ``(heads, n, ...)`` views of a layer's live entries, not copies.
A view is valid until the next :meth:`append`, :meth:`record_step_profiles`
or :meth:`keep` on that layer; after that it may show stale or compacted
rows. These views and :meth:`KvCacheState.score_matrix` are the only read
paths: the policies, the decoder and ``harness.snapshot`` all go through
them, and nothing here knows how a policy ranks entries.
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


# Order of a store's buffers, and their dtypes. Every buffer's axes are
# (head, entry, ...), so one allocation and one index serve them all.
_KEYS, _VALUES, _POSITIONS, _TOKENS, _RECEIVED, _PROFILE = range(6)
_DTYPES = (np.float64, np.float64, np.int64, np.int64, np.float64, np.float64)


class _LayerStore:
    """One layer's stores, one per KV head, with their attention profiles.

    ``buffers`` holds keys, values, positions, token ids, received
    attention and profile columns (in the order above) in preallocated
    arrays whose first ``n`` entries are live; ``views`` holds read-only
    views of the same memory. The profile has one column per ring slot:
    ``count`` slots are filled and ``start`` is the oldest.
    """

    __slots__ = ("n", "heads", "capacity", "buffers", "views", "start", "count")

    def __init__(self, heads: int, capacity: int):
        self.n = self.start = self.count = 0
        self.heads, self.capacity, self.buffers = heads, capacity, ()
        self._allocate(0, (0,))

    def _allocate(self, rows: int, row_shape: tuple) -> None:
        h = self.heads
        shapes = [(h, rows, *row_shape)] * 2 + [(h, rows)] * 3 + [(h, rows, self.capacity)]
        buffers = tuple(np.empty(shape, dtype) for shape, dtype in zip(shapes, _DTYPES))
        if self.n:
            for new, old in zip(buffers, self.buffers):
                new[:, : self.n] = old[:, : self.n]
        self.buffers, self.views = buffers, tuple(buf.view() for buf in buffers)
        for view in self.views:
            view.flags.writeable = False

    def append(self, keys, values, position: int, token: int) -> None:
        n = self.n
        buf = self.buffers[_KEYS]
        if n == buf.shape[1]:
            # The first entry fixes the row shape.
            self._allocate(_grown(n), np.shape(keys)[1:] if n == 0 else buf.shape[2:])
        k, v, positions, tokens, received, profile = self.buffers
        shape = (self.heads, *k.shape[2:])
        if np.shape(keys) != shape or np.shape(values) != shape:
            raise InvalidShape(f"cache entries must be one vector per KV head, shape {shape}")
        k[:, n], v[:, n], positions[:, n], tokens[:, n] = keys, values, position, token
        # A new entry has received no attention and is in no row held so far.
        received[:, n] = profile[:, n] = 0.0
        self.n = n + 1

    def live(self, which: int) -> np.ndarray:
        """Read-only view of the live entries of one buffer."""
        return self.views[which][:, : self.n]

    def record(self, rows: np.ndarray) -> None:
        """Write one attention row per head into the next ring slot,
        overwriting the oldest once the ring is full, and add the rows to
        the received totals."""
        if self.count < self.capacity:
            # The ring has never wrapped, so ``start`` is still 0.
            slot = self.count
            self.count += 1
        else:
            slot = self.start
            self.start = (slot + 1) % self.capacity
        self.buffers[_PROFILE][:, : self.n, slot] = rows
        self.buffers[_RECEIVED][:, : self.n] += rows

    def score_matrix(self, columns: int) -> np.ndarray:
        order = (self.start + np.arange(self.count)) % self.capacity
        rows = self.buffers[_PROFILE][:, :columns, order]
        return np.ascontiguousarray(rows.transpose(0, 2, 1))

    def compact(self, idx: np.ndarray) -> None:
        """Keep entries ``idx[h]`` of each head ``h``: one gather per buffer,
        through each kept entry's row in the buffer's ``(heads * alloc)`` rows."""
        heads, kept = idx.shape
        alloc = self.buffers[_KEYS].shape[1]
        rows = (idx + np.arange(0, heads * alloc, alloc)[:, None]).ravel()
        for buf in self.buffers:
            flat = buf.reshape(heads * alloc, *buf.shape[2:])
            buf[:, :kept] = flat[rows].reshape(heads, kept, *buf.shape[2:])
        self.n = kept


class KvCacheState:
    """Array-backed stores with their attention profiles, one block per layer.

    Mutations go through :meth:`append`, :meth:`record_step_profiles` and
    :meth:`keep`, each acting on every KV head of one layer. Evictions are
    journaled per (layer, KV head); the run loop drains the journal once
    per step via :meth:`pop_eviction_events`.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, window_capacity: int):
        if n_layers < 1 or n_kv_heads < 1:
            raise InvalidConfig("need at least one layer and one KV head")
        if window_capacity < 1:
            raise InvalidConfig("window capacity must be >= 1")
        self.n_layers, self.n_kv_heads, self.window_capacity = n_layers, n_kv_heads, window_capacity
        self._layers = [_LayerStore(n_kv_heads, window_capacity) for _ in range(n_layers)]
        self._journal: list[tuple[int, int, list[int]]] = []

    @classmethod
    def for_model(cls, model: ModelConfig, window_capacity: int) -> "KvCacheState":
        return cls(model.n_layers, model.n_kv_heads, window_capacity)

    def matches(self, model: ModelConfig) -> bool:
        """Whether the stores have ``model``'s layer and KV head counts and,
        once an entry fixed it (0 before), its head dimension."""
        return (
            self.n_layers == model.n_layers
            and self.n_kv_heads == model.n_kv_heads
            and self._layers[0].buffers[_KEYS].shape[2] in (0, model.head_dim)
        )

    def occupancy(self, layer: int) -> int:
        """Entries each KV head of ``layer`` holds."""
        return self._layers[layer].n

    def occupancies(self) -> list[list[int]]:
        return [[store.n] * self.n_kv_heads for store in self._layers]

    def is_empty(self) -> bool:
        return all(store.n == 0 for store in self._layers)

    def min_occupancy(self) -> int:
        return min(store.n for store in self._layers)

    def next_position(self) -> int:
        positions = self.positions(0)[0]
        return int(positions[-1]) + 1 if positions.size else 0

    def append(self, layer: int, keys, values, position: int, token: int) -> None:
        """Add one entry to every KV head of ``layer``: rotated key and value
        rows ``(heads, head_dim)``, absolute position, token id."""
        self._layers[layer].append(keys, values, position, token)

    def keys_matrix(self, layer: int) -> np.ndarray:
        return self._layers[layer].live(_KEYS)

    def values_matrix(self, layer: int) -> np.ndarray:
        return self._layers[layer].live(_VALUES)

    def positions(self, layer: int) -> np.ndarray:
        """Absolute positions of the live entries, strictly increasing per head."""
        return self._layers[layer].live(_POSITIONS)

    def token_ids(self, layer: int) -> np.ndarray:
        return self._layers[layer].live(_TOKENS)

    def received(self, layer: int) -> np.ndarray:
        """Total attention each live entry has received over every recorded row."""
        return self._layers[layer].live(_RECEIVED)

    def profile_rows(self, layer: int) -> int:
        """Attention rows held in the layer's profiles, at most ``window_capacity``."""
        return self._layers[layer].count

    def score_matrix(self, layer: int, columns: int | None = None) -> np.ndarray:
        """C-contiguous ``(heads, rows, columns)`` copy of the profiles'
        leading columns (all live entries by default), oldest row first."""
        store = self._layers[layer]
        return store.score_matrix(store.n if columns is None else columns)

    def record_step_profiles(self, layer: int, group_rows) -> None:
        """Record one token's attention at ``layer``: ``group_rows`` is
        ``(heads, group, n)``, one row per query head over the live entries.
        Each head's group rows are summed into one profile row, dropping the
        oldest row once ``window_capacity`` are held."""
        store = self._layers[layer]
        try:
            rows = np.asarray(group_rows, dtype=np.float64)
        except ValueError as exc:
            raise InvalidShape("group rows must share one length") from exc
        if rows.ndim != 3 or rows.shape[1] < 1 or rows.shape[::2] != (store.heads, store.n):
            raise InvalidShape(
                f"profile rows have shape {rows.shape} but layer {layer} holds "
                f"{store.n} entries in each of {store.heads} KV heads"
            )
        store.record(rows.sum(axis=1))

    def keep(self, layer: int, retained) -> list[int]:
        """Drop from each KV head of ``layer`` every entry not in its row of
        ``retained`` (``(heads, kept)`` indices, each row sorted and unique).

        Returns the absolute positions evicted, head by head, and journals
        them per (layer, KV head).
        """
        store, idx = self._layers[layer], np.asarray(retained)
        n = store.n
        if idx.ndim != 2 or idx.shape[0] != store.heads or (
            idx.size
            and (
                idx.dtype.kind not in "iu"
                or idx[:, 0].min() < 0
                or idx[:, -1].max() >= n
                or np.any(idx[:, 1:] <= idx[:, :-1])
            )
        ):
            raise InvalidShape(
                "retained indices must be one sorted, unique, integer, in-range row per KV head"
            )
        if idx.shape[1] == n:
            return []
        idx = idx.astype(np.intp, copy=False)
        dropped = np.ones((store.heads, n), dtype=bool)
        dropped[np.arange(store.heads)[:, None], idx] = False
        # Every head drops the same number of entries.
        gone = store.live(_POSITIONS)[dropped].reshape(store.heads, -1).tolist()
        for head, positions in enumerate(gone):
            self._journal.append((layer, head, positions))
        store.compact(idx)
        return [p for positions in gone for p in positions]

    def pop_eviction_events(self) -> list[tuple[int, int, list[int]]]:
        events, self._journal = self._journal, []
        return events

    def validate(self) -> None:
        """Debug-mode check that every live key and value is finite."""
        for store in self._layers:
            if not all(np.isfinite(store.live(which)).all() for which in (_KEYS, _VALUES)):
                raise InternalInvariantViolation("non-finite cache entry")
