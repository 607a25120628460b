"""The KV stores of every layer and KV head as one cache-wide block.

Every KV head of a layer holds the same number of entries at every step
(the constant-occupancy contract), so a layer's stores share one entry
count and one profile ring. Which entries each head holds may differ:
after a ranked eviction two heads may retain different positions, which
is why keys are cached post-rotation and positions are absolute.

Alignment is structural: every per-entry array (keys, values, positions,
received attention, profile) has axes ``(layer, head, entry, ...)``, so
one append adds an entry to each head of a layer and one
``(layers, heads, kept)`` index compacts a stack of layers. Keys and values
are ``(layers, heads, capacity, head_dim)``, so each head's live keys are a
row-major ``(n, head_dim)`` block. Every buffer is allocated once, at the
``capacity`` its run sizes it to (the most entries any store of the run
will hold), and never grows: an append into a full layer is a bug. The
profile ``(layers, heads, capacity, window_capacity)`` holds the newest
aggregated attention rows as columns, a layer's ``r``-th recorded row in
ring slot ``r % window_capacity``, read back oldest first as a C-contiguous
``(..., rows, columns)`` copy, the order and layout :func:`morph.fuse` sums
them in. A new entry's profile row is zero (a token cannot have attended
to entries created after it), and evicted entries leave with their rows.
Received attention is the running total of every recorded row, prefill
rows included, so only the profile depends on the ring's capacity: a copy
re-windowed to a smaller ring, or to any ring before this one has wrapped,
keeps the newest rows in their slots at its capacity and is slot for slot
what a cache of that capacity would hold.
Scores are never renormalized after a deletion: they are only compared for
ranking, and the raw weights keep dumps auditable. Tokens are not cached:
the run's trace holds them, and an entry's position indexes its token.

Stacks: the forward appends and records layer by layer, but a policy acts
between forwards on a ``range`` of consecutive layers that share one
occupancy and recorded-row count. :meth:`KvCacheState.occupancy`, :meth:`received`
and :meth:`score_matrix` take such a range, or one layer as an int, which
drops the layer axis as numpy indexing does; they and :meth:`keep` raise
:class:`InvalidShape` for a stack whose layers differ.

View lifetime: :meth:`KvCacheState.keys_matrix`, :meth:`values_matrix`,
:meth:`positions` and :meth:`received` return read-only views of live
entries, not copies. A view is valid until the next :meth:`append`,
:meth:`record_step_profiles` or :meth:`keep`; after that it may show stale
or compacted rows. These views and :meth:`KvCacheState.score_matrix` are
the only read paths: the policies, the decoder and ``harness.snapshot``
all go through them, and nothing here knows how a policy ranks entries.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .errors import InternalInvariantViolation, InvalidConfig, InvalidParam, InvalidShape

# Order of the cache's buffers, and their dtypes. Every buffer's axes are
# (layer, head, entry, ...), so one allocation and one index serve them all.
_KEYS, _VALUES, _POSITIONS, _RECEIVED, _PROFILE = range(5)
_DTYPES = (np.float64, np.float64, np.int64, np.float64, np.float64)


class KvCacheState:
    """Array-backed stores with their attention profiles, one block of
    ``capacity`` entries per store for the whole cache: layer ``l``'s first
    ``_n[l]`` entries are live, and it has recorded ``_recorded[l]`` profile
    rows, of which its ring holds the newest ``window_capacity``.

    :meth:`append` and :meth:`record_step_profiles` act on every KV head of
    one layer, :meth:`keep` on every KV head of a stack. Evictions are
    journaled per (layer, KV head); the run loop drains the journal once
    per step via :meth:`pop_eviction_events`.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, head_dim: int, window_capacity: int, capacity: int):
        if min(n_layers, n_kv_heads, head_dim, window_capacity, capacity) < 1:
            raise InvalidConfig("a cache needs at least one layer, KV head, head dimension, ring slot and entry")
        self.n_layers, self.n_kv_heads, self.head_dim = n_layers, n_kv_heads, head_dim
        self.window_capacity, self.capacity = window_capacity, capacity
        self._n, self._recorded = [0] * n_layers, [0] * n_layers
        lhc = (n_layers, n_kv_heads, capacity)
        shapes = [(*lhc, head_dim)] * 2 + [lhc] * 2 + [(*lhc, window_capacity)]
        self._buffers = tuple(np.empty(shape, dtype) for shape, dtype in zip(shapes, _DTYPES))
        self._views = tuple(buf.view() for buf in self._buffers)
        for view in self._views:
            view.flags.writeable = False
        self._journal: list[tuple[int, int, list[int]]] = []

    @classmethod
    def for_model(cls, model: ModelConfig, window_capacity: int, capacity: int) -> "KvCacheState":
        return cls(model.n_layers, model.n_kv_heads, model.head_dim, window_capacity, capacity)

    def copy(self, window_capacity: int, capacity: int) -> "KvCacheState":
        """An independent copy, journal empty, of ``capacity`` entries per
        store holding this cache's live entries, whose rings hold each
        layer's newest ``min(profile_rows, window_capacity)`` rows, each in
        its slot at the new capacity. A capacity below the live entries, or
        a wider ring than a full one (which may have dropped rows), is
        :class:`InvalidParam`."""
        live = max(self._n)
        if capacity < live:
            raise InvalidParam(f"a copy of {capacity} entries per store cannot hold {live}")
        if window_capacity > self.window_capacity and max(self._recorded) >= self.window_capacity:
            raise InvalidParam(
                f"a full profile ring of {self.window_capacity} rows cannot give "
                f"{window_capacity}: it may have dropped the older rows"
            )
        twin = KvCacheState(self.n_layers, self.n_kv_heads, self.head_dim, window_capacity, capacity)
        for mine, its in zip(self._buffers[:_PROFILE], twin._buffers):
            its[:, :, :live] = mine[:, :, :live]
        mine, its = self._buffers[_PROFILE][:, :, :live], twin._buffers[_PROFILE][:, :, :live]
        for layer, recorded in enumerate(self._recorded):
            rows = np.arange(recorded - min(recorded, window_capacity), recorded)
            its[layer][..., rows % window_capacity] = mine[layer][..., rows % self.window_capacity]
        twin._n, twin._recorded = list(self._n), list(self._recorded)
        return twin

    def _live(self, which: int, layer: int) -> np.ndarray:
        return self._views[which][layer, :, : self._n[layer]]

    def _stack(self, layers: int | range) -> tuple[int | slice, int]:
        """Index into the layer axis of one layer or of a checked stack, and its first layer."""
        stack = layers if isinstance(layers, range) else range(layers, layers + 1)
        if not (stack and stack.step == 1 and 0 <= stack.start and stack.stop <= self.n_layers):
            raise InvalidShape(f"{layers!r} is not a stack of consecutive layers in 0..{self.n_layers - 1}")
        first, stop = stack.start, stack.stop
        for state in (self._n, self._recorded):
            if state[first:stop].count(state[first]) != stop - first:
                raise InvalidShape(f"layers {first}..{stop - 1} differ in occupancy or recorded profile rows")
        return (layers if stack is not layers else slice(first, stop)), first

    def matches(self, model: ModelConfig) -> bool:
        """Whether the stores have ``model``'s layer, KV head and head dimension counts."""
        return (self.n_layers, self.n_kv_heads, self.head_dim) == (
            model.n_layers, model.n_kv_heads, model.head_dim
        )

    def occupancy(self, layers: int | range) -> int:
        """Entries each KV head of ``layers`` (one layer or a stack) holds."""
        return self._n[self._stack(layers)[1]]

    def occupancies(self) -> list[list[int]]:
        return [[n] * self.n_kv_heads for n in self._n]

    def min_occupancy(self) -> int:
        return min(self._n)

    def max_occupancy(self) -> int:
        return max(self._n)

    def next_position(self) -> int:
        positions = self.positions(0)[0]
        return int(positions[-1]) + 1 if positions.size else 0

    def append(self, layer: int, keys, values, position: int) -> None:
        """Add one entry to every KV head of ``layer``: rotated key and value
        rows ``(heads, head_dim)`` and the entry's absolute position. A full
        layer means the run was sized wrong: :class:`InternalInvariantViolation`."""
        n, shape = self._n[layer], (self.n_kv_heads, self.head_dim)
        if np.shape(keys) != shape or np.shape(values) != shape:
            raise InvalidShape(f"cache entries must be one vector per KV head, shape {shape}")
        if n == self.capacity:
            raise InternalInvariantViolation(f"layer {layer} is full: its stores hold all {n} entries")
        k, v, positions, received, profile = self._buffers
        k[layer, :, n], v[layer, :, n], positions[layer, :, n] = keys, values, position
        # A new entry has received no attention and is in no row held so far.
        received[layer, :, n] = profile[layer, :, n] = 0.0
        self._n[layer] = n + 1

    def keys_matrix(self, layer: int) -> np.ndarray:
        return self._live(_KEYS, layer)

    def values_matrix(self, layer: int) -> np.ndarray:
        return self._live(_VALUES, layer)

    def positions(self, layer: int) -> np.ndarray:
        """Absolute positions of the live entries, strictly increasing per head."""
        return self._live(_POSITIONS, layer)

    def received(self, layers: int | range) -> np.ndarray:
        """Total attention each live entry has received over every recorded row."""
        index, first = self._stack(layers)
        return self._views[_RECEIVED][index, :, : self._n[first]]

    def profile_rows(self, layer: int) -> int:
        """Attention rows held in the layer's profiles, at most ``window_capacity``."""
        return min(self._recorded[layer], self.window_capacity)

    def score_matrix(self, layers: int | range, columns: int | None = None) -> np.ndarray:
        """C-contiguous ``(..., heads, rows, columns)`` copy of the profiles'
        leading columns (all live entries by default), oldest row first."""
        index, first = self._stack(layers)
        recorded = self._recorded[first]
        order = np.arange(recorded - self.profile_rows(first), recorded) % self.window_capacity
        end = self._n[first] if columns is None else columns
        # ``take`` writes a new C-contiguous array in its output's axis order.
        return self._buffers[_PROFILE][index, :, :end].swapaxes(-1, -2).take(order, axis=-2)

    def record_step_profiles(self, layer: int, group_rows) -> None:
        """Record one token's attention at ``layer``: ``group_rows`` is
        ``(heads, group, n)``, one row per query head over the live entries.
        Each head's group rows are summed into one profile row, dropping the
        oldest row once ``window_capacity`` are held."""
        n, heads = self._n[layer], self.n_kv_heads
        try:
            rows = np.asarray(group_rows, dtype=np.float64)
        except ValueError as exc:
            raise InvalidShape("group rows must share one length") from exc
        if rows.ndim != 3 or rows.shape[1] < 1 or rows.shape[::2] != (heads, n):
            raise InvalidShape(
                f"profile rows have shape {rows.shape} but layer {layer} holds "
                f"{n} entries in each of {heads} KV heads"
            )
        summed = rows.sum(axis=1)
        self._buffers[_PROFILE][layer, :, :n, self._recorded[layer] % self.window_capacity] = summed
        self._buffers[_RECEIVED][layer, :, :n] += summed
        self._recorded[layer] += 1

    def keep(self, first_layer: int, retained) -> list[int]:
        """Drop from each KV head of the ``len(retained)`` layers from
        ``first_layer`` every entry not in its row of ``retained``
        (``(layers, heads, kept)`` indices, or ``(heads, kept)`` for one
        layer; each row sorted and unique). Nothing changes unless every
        check passes.

        Returns the absolute positions evicted, store by store, and
        journals them per (layer, KV head).
        """
        idx, heads = np.asarray(retained), self.n_kv_heads
        idx = idx[None] if idx.ndim == 2 else idx
        if idx.ndim != 3 or idx.shape[1] != heads:
            raise InvalidShape(f"retained indices must be (layers, {heads} heads, kept), not {idx.shape}")
        layers = range(first_layer, first_layer + len(idx))
        n = self.occupancy(layers)
        if idx.size and (
            idx.dtype.kind not in "iu"
            or idx[..., 0].min() < 0
            or idx[..., -1].max() >= n
            or np.any(idx[..., 1:] <= idx[..., :-1])
        ):
            raise InvalidShape(
                "retained indices must be one sorted, unique, integer, in-range row per KV head"
            )
        kept, first, stop = idx.shape[2], layers.start, layers.stop
        if kept == n:
            return []
        stores, alloc = len(idx) * heads, self.capacity
        idx = idx.astype(np.intp, copy=False).reshape(stores, kept)
        dropped = np.ones((stores, n), dtype=bool)
        dropped[np.arange(stores)[:, None], idx] = False
        # Every store drops the same number of entries.
        positions = self._views[_POSITIONS][first:stop, :, :n].reshape(stores, n)
        gone = positions[dropped].reshape(stores, -1).tolist()
        for store, evicted in enumerate(gone):
            self._journal.append((first + store // heads, store % heads, evicted))
        # One gather per buffer, through each kept entry's row in the stack's
        # (stores * alloc) rows.
        rows = (idx + np.arange(0, stores * alloc, alloc)[:, None]).ravel()
        for buf in self._buffers:
            block = buf[first:stop]
            flat = block.reshape(stores * alloc, *buf.shape[3:])
            block[:, :, :kept] = flat.take(rows, axis=0).reshape(block[:, :, :kept].shape)
        self._n[first:stop] = [kept] * len(layers)
        return [p for evicted in gone for p in evicted]

    def pop_eviction_events(self) -> list[tuple[int, int, list[int]]]:
        events, self._journal = self._journal, []
        return events

    def validate(self) -> None:
        """Debug-mode check that every live key and value is finite."""
        for layer in range(self.n_layers):
            if not all(np.isfinite(self._live(which, layer)).all() for which in (_KEYS, _VALUES)):
                raise InternalInvariantViolation("non-finite cache entry")
