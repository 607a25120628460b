"""Per (layer, KV head) KV stores and their attention-profile windows.

Alignment contract: every stored profile row has exactly one column per
live cache entry, in entry order. Appending an entry extends all existing
rows with a zero column (a token cannot have attended to entries created
after it); evicting entries deletes their columns from every row. Scores
are never renormalized after a deletion: they are only ever compared for
ranking, and keeping the raw weights keeps dumps auditable.

Stores evolve independently: after eviction two heads may retain different
position sets, which is why keys are cached post-rotation and positions
are absolute.

Array layout: a store is four preallocated arrays, row-major keys and
values of shape ``(alloc, head_dim)`` plus absolute positions and token
ids of shape ``(alloc,)``; the leading ``n`` rows are the live entries in
entry order. A window is one ``(capacity, alloc_width)`` float64 score
array used as a ring of rows; the leading ``width`` columns are live.
Both grow geometrically (by half again when full), so an append is one
row write and padding a window zeroes one column. Eviction compacts each array
with one fancy index. Window rows are always read back oldest first,
which is the order :func:`morph.fuse` sums them in.

View lifetime: :meth:`KvCacheState.keys_matrix`, :meth:`values_matrix`
and :meth:`positions` return read-only views of the live rows, not
copies. A view is valid until the next :meth:`append` or :meth:`keep` on
that store; after that it may show stale or compacted rows. These views
and :meth:`AttentionProfileWindow.score_matrix` are the only read paths.
"""

from __future__ import annotations

import numpy as np

from .config import ModelConfig
from .errors import InternalInvariantViolation, InvalidConfig, InvalidShape

# Rows (store entries) and columns (window width) allocated at first use.
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


class AttentionProfileWindow:
    """The newest ``capacity`` aggregated attention rows of one store."""

    __slots__ = ("capacity", "width", "_scores", "_start", "_count")

    def __init__(self, capacity: int):
        if capacity < 1:
            raise InvalidConfig("window capacity must be >= 1")
        self.capacity = capacity
        # Column count; kept in lockstep with the owning store's occupancy.
        self.width = 0
        self._scores = np.empty((capacity, INITIAL_ALLOC))
        # Ring state: physical row of the oldest row, and rows held.
        self._start = 0
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def _order(self) -> np.ndarray:
        """Physical row indices, oldest first."""
        return (self._start + np.arange(self._count)) % self.capacity

    def score_matrix(self, columns: int | None = None) -> np.ndarray:
        """C-contiguous ``(rows, columns)`` copy of the leading columns, oldest row first."""
        cols = self.width if columns is None else columns
        return self._scores[self._order(), :cols]

    def pad_for_append(self) -> None:
        alloc = self._scores.shape[1]
        if self.width >= alloc:
            grown = np.empty((self.capacity, max(_grown(alloc), self.width + 1)))
            grown[:, :alloc] = self._scores
            self._scores = grown
        self._scores[:, self.width] = 0.0
        self.width += 1

    def keep_columns(self, indices) -> None:
        idx = np.asarray(indices, dtype=np.intp)
        self._scores[:, : idx.size] = self._scores[:, idx]
        self.width = int(idx.size)

    def record(self, scores) -> None:
        """Append one aggregated row, dropping the oldest once past capacity."""
        row = np.asarray(scores, dtype=np.float64)
        if row.ndim != 1 or row.size != self.width:
            raise InvalidShape(
                f"profile row has {row.size} columns but the store holds {self.width} entries"
            )
        if self._count < self.capacity:
            slot = (self._start + self._count) % self.capacity
            self._count += 1
        else:
            slot = self._start
            self._start = (self._start + 1) % self.capacity
        self._scores[slot, : self.width] = row


# Order of a store's buffers, and their dtypes.
_KEYS, _VALUES, _POSITIONS, _TOKENS = range(4)
_DTYPES = (np.float64, np.float64, np.int64, np.int64)


class _KvStore:
    """One (layer, KV head) store.

    ``buffers`` holds keys, values, positions and token ids (in the order
    above) in preallocated arrays whose first ``n`` rows are live;
    ``views`` holds read-only views of the same memory.
    """

    __slots__ = ("n", "buffers", "views")

    def __init__(self):
        self.n = 0
        self.buffers = ()
        self._allocate(0, (0,))

    def _allocate(self, rows: int, row_shape: tuple) -> None:
        shapes = [(rows, *row_shape)] * 2 + [(rows,)] * 2
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
        keys, values, positions, tokens = self.buffers
        row_shape = keys.shape[1:]
        if np.shape(key) != row_shape or np.shape(value) != row_shape:
            raise InvalidShape(f"cache entries must be vectors of shape {row_shape}")
        keys[n] = key
        values[n] = value
        positions[n] = position
        tokens[n] = token
        self.n = n + 1

    def live(self, which: int) -> np.ndarray:
        """Read-only view of the live rows of one buffer."""
        return self.views[which][: self.n]

    def compact(self, idx: np.ndarray) -> None:
        for buf in self.buffers:
            buf[: idx.size] = buf[idx]
        self.n = idx.size


class KvCacheState:
    """Array-backed stores plus profile windows, one pair per (layer, KV head).

    Mutations go through :meth:`append` and :meth:`keep` so the windows
    stay column-aligned with the stores. Evictions are journaled; the run
    loop drains the journal once per step via :meth:`pop_eviction_events`.
    """

    def __init__(self, n_layers: int, n_kv_heads: int, window_capacity: int):
        if n_layers < 1 or n_kv_heads < 1:
            raise InvalidConfig("need at least one layer and one KV head")
        self.n_layers = n_layers
        self.n_kv_heads = n_kv_heads
        self.window_capacity = window_capacity
        self._stores: list[list[_KvStore]] = [
            [_KvStore() for _ in range(n_kv_heads)] for _ in range(n_layers)
        ]
        self.windows: list[list[AttentionProfileWindow]] = [
            [AttentionProfileWindow(window_capacity) for _ in range(n_kv_heads)]
            for _ in range(n_layers)
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
        self.windows[layer][head].pad_for_append()

    def keys_matrix(self, layer: int, head: int) -> np.ndarray:
        return self._stores[layer][head].live(_KEYS)

    def values_matrix(self, layer: int, head: int) -> np.ndarray:
        return self._stores[layer][head].live(_VALUES)

    def positions(self, layer: int, head: int) -> np.ndarray:
        """Absolute positions of the live entries, strictly increasing."""
        return self._stores[layer][head].live(_POSITIONS)

    def token_ids(self, layer: int, head: int) -> np.ndarray:
        return self._stores[layer][head].live(_TOKENS)

    def keep(self, layer: int, head: int, retained) -> list[int]:
        """Drop every entry not in ``retained`` (sorted, unique indices).

        Returns the absolute positions evicted and journals them. Profile
        rows lose the matching columns, so alignment survives.
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
        self.windows[layer][head].keep_columns(idx)
        self._journal.append((layer, head, evicted))
        return evicted

    def record_step_profiles(self, step_output) -> list[list[np.ndarray]]:
        """Aggregate one step's group rows into every window.

        Returns the aggregated row per (layer, head) so callers that rank
        by received attention do not re-aggregate.
        """
        aggregated: list[list[np.ndarray]] = []
        for layer in range(self.n_layers):
            layer_rows = []
            for head in range(self.n_kv_heads):
                agg = aggregate_group_scores(step_output.attn_rows[layer][head])
                self.windows[layer][head].record(agg)
                layer_rows.append(agg)
            aggregated.append(layer_rows)
        return aggregated

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
                window = self.windows[layer][head]
                scores = fuse(window, fusion).tolist() if len(window) else []
                pairs = np.stack([self.positions(layer, head), self.token_ids(layer, head)], axis=1)
                heads.append({"entries": pairs.tolist(), "fused_scores": scores})
            layers.append(heads)
        return {"window_capacity": self.window_capacity, "layers": layers}

    def validate(self) -> None:
        """Debug-mode invariant sweep; raises on the first violation."""
        for layer in range(self.n_layers):
            for head in range(self.n_kv_heads):
                n = self.occupancy(layer, head)
                positions = self.positions(layer, head)
                if np.any(positions[1:] <= positions[:-1]):
                    raise InternalInvariantViolation(
                        f"store ({layer},{head}) positions not strictly increasing"
                    )
                width = self.windows[layer][head].width
                if width != n:
                    raise InternalInvariantViolation(
                        f"window width {width} != occupancy {n} at ({layer},{head})"
                    )
                if not (
                    np.isfinite(self.keys_matrix(layer, head)).all()
                    and np.isfinite(self.values_matrix(layer, head)).all()
                ):
                    raise InternalInvariantViolation("non-finite cache entry")
