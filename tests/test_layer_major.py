"""Layer-wide rules against the per-head loops they replace, bit for bit.

Each KV head of a layer is one row of the layer's store block, and every
rule (fusion, ranking, the window rules, h2o, snapkv, compaction) runs once
per layer over all of its heads. The references below are the per-head
store and per-head loops the layer-wide code replaced, kept here verbatim
in their arithmetic: one store per head, one ``(rows, n)`` C-contiguous
profile copy fused along axis 0, one ``lexsort`` per head, one ``argmin``
per head and one fancy-index compaction per head. Random runs drive both
through the same appends and recorded rows, with more heads than one,
occupancies past ``INITIAL_ALLOC``, a wrapped profile ring, tied scores and
signed zeros, and must agree on the raw bits of every array and on the
eviction journal.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkv import EvictionPolicyConfig, KvCacheState
from morphkv.baselines import h2o_step, keep_window, scissorhands_step, snapkv_policy, streamingllm_step
from morphkv.cache import INITIAL_ALLOC
from morphkv.morph import fuse, morphkv_step, prefill_compress, select_retained

HEAD_DIM = 2
TIED = np.array([0.0, -0.0, 0.25, 0.5, 1.0])


class HeadStore:
    """One (layer, KV head) store as the per-head cache kept it."""

    def __init__(self, capacity: int, alloc: int):
        self.n, self.capacity, self.start, self.count = 0, capacity, 0, 0
        self.keys = np.empty((alloc, HEAD_DIM))
        self.values = np.empty((alloc, HEAD_DIM))
        self.positions = np.empty(alloc, dtype=np.int64)
        self.tokens = np.empty(alloc, dtype=np.int64)
        self.received = np.empty(alloc)
        self.profile = np.empty((alloc, capacity))

    def buffers(self):
        return (self.keys, self.values, self.positions, self.tokens, self.received, self.profile)

    def append(self, key, value, position, token):
        n = self.n
        self.keys[n], self.values[n] = key, value
        self.positions[n], self.tokens[n] = position, token
        self.received[n] = 0.0
        self.profile[n] = 0.0
        self.n = n + 1

    def record(self, group):
        row = np.asarray(group, dtype=np.float64).sum(axis=0)
        if self.count < self.capacity:
            slot = self.count
            self.count += 1
        else:
            slot = self.start
            self.start = (slot + 1) % self.capacity
        self.profile[: self.n, slot] = row
        self.received[: self.n] += row

    def score_matrix(self, columns):
        order = (self.start + np.arange(self.count)) % self.capacity
        return np.ascontiguousarray(self.profile[:columns, order].T)

    def keep(self, head, retained, journal):
        idx = np.asarray(retained, dtype=np.intp)
        if idx.size == self.n:
            return []
        dropped = np.ones(self.n, dtype=bool)
        dropped[idx] = False
        evicted = self.positions[: self.n][dropped].tolist()
        for buf in self.buffers():
            buf[: idx.size] = buf[idx]
        self.n = idx.size
        journal.append((0, head, evicted))
        return evicted


def head_fuse(store, fusion):
    distant = store.n - min(store.capacity, store.n)
    stacked = store.score_matrix(distant)
    if distant == 0:
        return np.zeros(0)
    return stacked.sum(axis=0) if fusion == "sum" else stacked.max(axis=0)


def head_select(occ, scores, distant_capacity, recent_window):
    recent = min(recent_window, occ)
    distant_count = occ - recent
    keep_distant = min(distant_capacity, distant_count)
    order = np.lexsort((np.arange(distant_count), np.asarray(scores, dtype=np.float64)))
    kept = np.zeros(distant_count, dtype=bool)
    kept[order[distant_count - keep_distant :]] = True
    return np.flatnonzero(kept).tolist() + list(range(distant_count, occ))


def head_policy(stores, cfg, journal, prompt_len, fusion):
    """The per-head loop of each policy over one layer's stores."""
    for head, store in enumerate(stores):
        occ = store.n
        if cfg.kind == "morphkv" and occ > cfg.cache_budget:
            kept = head_select(occ, head_fuse(store, fusion), cfg.distant_capacity, cfg.recent_window)
            store.keep(head, kept, journal)
        elif cfg.kind in ("scissorhands", "streamingllm"):
            sinks = cfg.sink_count if cfg.kind == "streamingllm" else 0
            retained = keep_window(occ, sinks, cfg.recent_window)
            if len(retained) < occ:
                store.keep(head, retained, journal)
        elif cfg.kind == "h2o":
            first_decode = int(np.searchsorted(store.positions[:occ], prompt_len))
            if occ - first_decode > cfg.cache_budget:
                recent_start = occ - min(cfg.recent_window, occ)
                victim = first_decode + int(np.argmin(store.received[first_decode:recent_start]))
                store.keep(head, np.delete(np.arange(occ), victim), journal)
        elif cfg.kind == "snapkv" and occ > cfg.prefill_budget:
            budget, recent = cfg.prefill_budget, cfg.recent_window
            if budget <= recent:
                retained = list(range(occ - budget, occ))
            else:
                retained = head_select(occ, head_fuse(store, "sum"), budget - recent, recent)
            store.keep(head, retained, journal)


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


def assert_same_state(cache, stores, journal):
    assert cache.occupancies() == [[store.n for store in stores]]
    reads = (cache.keys_matrix, cache.values_matrix, cache.positions, cache.token_ids, cache.received)
    for head, store in enumerate(stores):
        for read, buf in zip(reads, store.buffers()):
            assert same_bits(read(0)[head], buf[: store.n]), (read.__name__, head)
        assert same_bits(cache.score_matrix(0)[head], store.score_matrix(store.n)), head
    assert cache.pop_eviction_events() == journal
    journal.clear()


class Driver:
    """Feeds the same entries and attention rows to a layer block and to
    one reference store per head."""

    def __init__(self, heads, group, capacity, alloc, ties, seed):
        self.rng = np.random.default_rng(seed)
        self.heads, self.group, self.ties = heads, group, ties
        self.cache = KvCacheState(1, heads, capacity)
        self.stores = [HeadStore(capacity, alloc) for _ in range(heads)]
        self.journal = []
        self.position = 0

    def rows(self, n):
        shape = (self.heads, self.group, n)
        if self.ties:
            return self.rng.choice(TIED, size=shape)
        return self.rng.uniform(size=shape)

    def token(self):
        keys = self.rng.standard_normal((self.heads, HEAD_DIM))
        values = self.rng.standard_normal((self.heads, HEAD_DIM))
        token = int(self.rng.integers(0, 100))
        self.cache.append(0, keys, values, self.position, token)
        for head, store in enumerate(self.stores):
            store.append(keys[head], values[head], self.position, token)
        self.position += 1
        rows = self.rows(self.cache.occupancy(0))
        self.cache.record_step_profiles(0, rows)
        for head, store in enumerate(self.stores):
            store.record(rows[head])

    def check_rankings(self, distant_capacity, recent_window):
        # The recent window is the profile ring's capacity, as in a run.
        occ = self.cache.occupancy(0)
        for fusion in ("sum", "max"):
            scores = fuse(self.cache, 0, fusion)
            kept = select_retained(scores, occ, distant_capacity, recent_window)
            for head, store in enumerate(self.stores):
                want = head_fuse(store, fusion)
                assert same_bits(scores[head], want), (fusion, head)
                assert kept[head].tolist() == head_select(occ, want, distant_capacity, recent_window)

    def assert_same(self):
        assert_same_state(self.cache, self.stores, self.journal)


POLICIES = st.one_of(
    st.builds(
        EvictionPolicyConfig,
        kind=st.just("morphkv"),
        distant_capacity=st.integers(0, 24),
        recent_window=st.integers(1, 8),
        fusion=st.sampled_from(["sum", "max"]),
        prefill_fusion=st.sampled_from([None, "sum", "max"]),
        eviction_interval=st.integers(1, 3),
        compress_prefill=st.booleans(),
    ),
    st.builds(EvictionPolicyConfig, kind=st.just("scissorhands"), recent_window=st.integers(1, 20)),
    st.builds(
        EvictionPolicyConfig,
        kind=st.just("streamingllm"),
        recent_window=st.integers(1, 12),
        sink_count=st.integers(0, 4),
    ),
    st.builds(
        EvictionPolicyConfig,
        kind=st.just("h2o"),
        distant_capacity=st.integers(0, 6),
        recent_window=st.integers(1, 6),
    ),
    st.builds(
        EvictionPolicyConfig,
        kind=st.just("snapkv"),
        recent_window=st.integers(1, 8),
        prefill_budget=st.integers(1, 30),
    ),
)


@settings(max_examples=120, deadline=None)
@given(
    heads=st.integers(1, 4),
    group=st.integers(1, 3),
    prompt=st.integers(1, 2 * INITIAL_ALLOC + 8),
    steps=st.integers(0, 24),
    cfg=POLICIES,
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_policies_match_per_head_loops(heads, group, prompt, steps, cfg, ties, seed):
    # The profile ring is the recent window, as in a run, so a prompt longer
    # than the window wraps it.
    run = Driver(heads, group, cfg.recent_window, prompt + steps + 1, ties, seed)
    for _ in range(prompt):
        run.token()
    run.assert_same()
    if cfg.kind == "snapkv":
        snapkv_policy(run.cache, cfg)
        head_policy(run.stores, cfg, run.journal, prompt, "sum")
    elif cfg.kind == "morphkv" and cfg.compress_prefill:
        prefill_compress(run.cache, cfg)
        head_policy(run.stores, cfg, run.journal, prompt, cfg.effective_prefill_fusion)
    run.assert_same()
    for i in range(steps):
        run.token()
        run.check_rankings(cfg.distant_capacity, cfg.recent_window)
        if cfg.kind == "morphkv":
            morphkv_step(run.cache, None, cfg, i)
            if i % cfg.eviction_interval == 0:
                head_policy(run.stores, cfg, run.journal, prompt, cfg.fusion)
        elif cfg.kind == "scissorhands":
            scissorhands_step(run.cache, None, cfg)
            head_policy(run.stores, cfg, run.journal, prompt, None)
        elif cfg.kind == "streamingllm":
            streamingllm_step(run.cache, None, cfg)
            head_policy(run.stores, cfg, run.journal, prompt, None)
        elif cfg.kind == "h2o":
            h2o_step(run.cache, None, prompt, cfg)
            head_policy(run.stores, cfg, run.journal, prompt, None)
        run.assert_same()


@settings(max_examples=80, deadline=None)
@given(
    heads=st.integers(1, 4),
    capacity=st.integers(1, 5),
    sizes=st.lists(st.integers(1, 2 * INITIAL_ALLOC + 8), min_size=1, max_size=4),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_keep_matches_per_head_compaction(heads, capacity, sizes, ties, seed):
    # Rounds of appends, each followed by a keep that gives every head its
    # own random subset, so the heads' position sets diverge.
    run = Driver(heads, 2, capacity, sum(sizes) + 1, ties, seed)
    for size in sizes:
        for _ in range(size):
            run.token()
        occ = run.cache.occupancy(0)
        k = int(run.rng.integers(0, occ + 1))
        retained = np.sort(
            [run.rng.choice(occ, size=k, replace=False) for _ in range(heads)], axis=1
        ).reshape(heads, k)
        evicted = run.cache.keep(0, retained)
        want = []
        for head, store in enumerate(run.stores):
            want.extend(store.keep(head, retained[head], run.journal))
        assert evicted == want
        run.assert_same()
        run.check_rankings(int(run.rng.integers(0, occ + 1)), capacity)
