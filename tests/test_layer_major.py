"""Layer-wide rules against the per-head loops they replace, bit for bit.

Each KV head of a layer is one row of the layer's store block, and every
rule (fusion, ranking, the window rules, h2o, snapkv, compaction) runs once
per layer over all of its heads. The references below are the per-head
store and per-head loops the layer-wide code replaced, kept here verbatim
in their arithmetic: one store per head, one ``(rows, n)`` C-contiguous
profile copy fused along axis 0, one ``lexsort`` per head, one ``argmin``
per head and one fancy-index compaction per head. Random runs drive both
through the same appends and recorded rows, with more heads than one,
occupancies up to 40 entries, a wrapped profile ring, tied scores and
signed zeros, and must agree on the raw bits of every array and on the
eviction journal. The policies' layer stacks (one fuse, one ranking and
one keep over several layers) are held the same way to the per-layer
loop they replaced, below.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cache_state import no_evictions
from morphkv import EvictionPolicyConfig, KvCacheState, morph
from morphkv.baselines import h2o_step, keep_window, scissorhands_step, snapkv_policy, streamingllm_step
from morphkv.errors import InvalidShape
from morphkv.morph import fuse, morphkv_step, prefill_compress, select_retained
from morphkv.trace import peak_occupancy

HEAD_DIM = 2
TIED = np.array([0.0, -0.0, 0.25, 0.5, 1.0])


class HeadStore:
    """One (layer, KV head) store as the per-head cache kept it."""

    def __init__(self, capacity: int, alloc: int):
        self.n, self.capacity, self.start, self.count = 0, capacity, 0, 0
        self.keys = np.empty((alloc, HEAD_DIM))
        self.values = np.empty((alloc, HEAD_DIM))
        self.positions = np.empty(alloc, dtype=np.int64)
        self.received = np.empty(alloc)
        self.profile = np.empty((alloc, capacity))

    def buffers(self):
        return (self.keys, self.values, self.positions, self.received, self.profile)

    def append(self, key, value, position):
        n = self.n
        self.keys[n], self.values[n], self.positions[n] = key, value, position
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
        journal[head].extend(evicted)
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
    reads = (cache.keys_matrix, cache.values_matrix, cache.positions, cache.received)
    for head, store in enumerate(stores):
        for read, buf in zip(reads, store.buffers()):
            assert same_bits(read(0)[head], buf[: store.n]), (read.__name__, head)
        assert same_bits(cache.score_matrix(0)[head], store.score_matrix(store.n)), head
    assert cache.pop_evictions() == [journal]
    for evicted in journal:
        evicted.clear()


class Driver:
    """Feeds the same entries and attention rows to a layer block and to
    one reference store per head."""

    def __init__(self, heads, group, capacity, alloc, ties, seed):
        self.rng = np.random.default_rng(seed)
        self.heads, self.group, self.ties = heads, group, ties
        self.cache = KvCacheState(1, heads, HEAD_DIM, capacity, alloc)
        self.stores = [HeadStore(capacity, alloc) for _ in range(heads)]
        self.journal = [[] for _ in range(heads)]
        self.position = 0

    def rows(self, n):
        shape = (self.heads, self.group, n)
        if self.ties:
            return self.rng.choice(TIED, size=shape)
        return self.rng.uniform(size=shape)

    def token(self):
        keys = self.rng.standard_normal((self.heads, HEAD_DIM))
        values = self.rng.standard_normal((self.heads, HEAD_DIM))
        self.cache.append(0, keys, values, self.position)
        for head, store in enumerate(self.stores):
            store.append(keys[head], values[head], self.position)
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
    prompt=st.integers(1, 40),
    steps=st.integers(0, 24),
    cfg=POLICIES,
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_policies_match_per_head_loops(heads, group, prompt, steps, cfg, ties, seed):
    # The profile ring is the recent window and the allocation the peak
    # occupancy, as in a run, so a prompt longer than the window wraps it.
    run = Driver(heads, group, cfg.recent_window, peak_occupancy(cfg, prompt, steps, 1), ties, seed)
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
    sizes=st.lists(st.integers(1, 40), min_size=1, max_size=4),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_keep_matches_per_head_compaction(heads, capacity, sizes, ties, seed):
    # Rounds of appends, each followed by a keep that gives every head its
    # own random subset, so the heads' position sets diverge.
    # Allocated for every append, as if no keep evicted anything.
    run = Driver(heads, 2, capacity, sum(sizes), ties, seed)
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


# ---------------------------------------------------------------- layer stacks
#
# The reference is the per-layer loop the stacks replaced: the same rules
# applied one layer at a time through the cache's one-layer reads and keeps.


def layer_policy(cache, cfg, prompt_len, fusion, prefill):
    """Apply ``cfg``'s prefill (``prefill``) or decode rule one layer at a time."""
    for layer in range(cache.n_layers):
        occ = cache.occupancy(layer)
        if cfg.kind == "morphkv" and layer >= cfg.protected_layers and occ > cfg.cache_budget:
            kept = select_retained(fuse(cache, layer, fusion), occ, cfg.distant_capacity, cfg.recent_window)
            cache.keep(layer, kept)
        elif cfg.kind in ("scissorhands", "streamingllm") and not prefill:
            sinks = cfg.sink_count if cfg.kind == "streamingllm" else 0
            retained = keep_window(occ, sinks, cfg.recent_window)
            if len(retained) < occ:
                cache.keep(layer, np.broadcast_to(retained, (cache.n_kv_heads, len(retained))))
        elif cfg.kind == "h2o" and not prefill:
            first_decode = int(np.searchsorted(cache.positions(layer)[0], prompt_len))
            if occ - first_decode > cfg.cache_budget:
                recent_start = occ - min(cfg.recent_window, occ)
                victims = first_decode + np.argmin(cache.received(layer)[:, first_decode:recent_start], axis=1)
                kept = np.arange(occ - 1)
                cache.keep(layer, kept + (kept >= victims[:, None]))
        elif cfg.kind == "snapkv" and prefill and occ > cfg.prefill_budget:
            budget, recent = cfg.prefill_budget, cfg.recent_window
            if budget <= recent:
                retained = np.broadcast_to(np.arange(occ - budget, occ), (cache.n_kv_heads, budget))
            else:
                retained = select_retained(fuse(cache, layer, "sum"), occ, budget - recent, recent)
            cache.keep(layer, retained)


def shipped_policy(cache, cfg, prompt_len, step):
    """The package's own policy call: the one-shot prompt rule at ``step`` None."""
    if step is None:
        if cfg.kind == "snapkv":
            snapkv_policy(cache, cfg)
        elif cfg.kind == "morphkv" and cfg.compress_prefill:
            prefill_compress(cache, cfg)
    elif cfg.kind == "morphkv":
        morphkv_step(cache, None, cfg, step)
    elif cfg.kind == "scissorhands":
        scissorhands_step(cache, None, cfg)
    elif cfg.kind == "streamingllm":
        streamingllm_step(cache, None, cfg)
    elif cfg.kind == "h2o":
        h2o_step(cache, None, prompt_len, cfg)


def layer_reads(cache, layer):
    reads = (cache.keys_matrix, cache.values_matrix, cache.positions, cache.received)
    return [read(layer) for read in reads] + [cache.score_matrix(layer)]


class StackDriver:
    """Feeds the same entries and attention rows, layer by layer as the
    forward does, to a cache under the shipped policy and to one under the
    per-layer reference."""

    def __init__(self, layers, heads, group, capacity, alloc, ties, seed):
        self.rng = np.random.default_rng(seed)
        self.heads, self.group, self.ties = heads, group, ties
        self.caches = [KvCacheState(layers, heads, HEAD_DIM, capacity, alloc) for _ in range(2)]
        self.position = 0

    def token(self):
        for layer in range(self.caches[0].n_layers):
            keys, values = self.rng.standard_normal((2, self.heads, HEAD_DIM))
            shape = (self.heads, self.group, self.caches[0].occupancy(layer) + 1)
            rows = self.rng.choice(TIED, size=shape) if self.ties else self.rng.uniform(size=shape)
            for cache in self.caches:
                cache.append(layer, keys, values, self.position)
                cache.record_step_profiles(layer, rows)
        self.position += 1

    def check_stack_rankings(self, cfg, fusion):
        """Fused scores and retained indices of the evicted stack against each layer's."""
        shipped, reference = self.caches
        layers = range(cfg.protected_layers, shipped.n_layers)
        occ = shipped.occupancy(layers) if layers else 0
        if not layers or occ <= min(shipped.window_capacity, occ):
            return
        scores = fuse(shipped, layers, fusion)
        kept = select_retained(scores, occ, cfg.distant_capacity, cfg.recent_window)
        for layer, layer_scores, layer_kept in zip(layers, scores, kept):
            want = fuse(reference, layer, fusion)
            assert same_bits(layer_scores, want), (fusion, layer)
            assert same_bits(layer_kept, select_retained(want, occ, cfg.distant_capacity, cfg.recent_window))

    def assert_same(self):
        shipped, reference = self.caches
        assert shipped.occupancies() == reference.occupancies()
        assert shipped.pop_evictions() == reference.pop_evictions()
        for layer in range(shipped.n_layers):
            assert shipped.profile_rows(layer) == reference.profile_rows(layer)
            for got, want in zip(layer_reads(shipped, layer), layer_reads(reference, layer)):
                assert same_bits(got, want), layer


@settings(max_examples=100, deadline=None)
@given(
    layers=st.integers(1, 4),
    heads=st.integers(1, 3),
    group=st.integers(1, 2),
    protected=st.integers(0, 4),
    prompt=st.integers(1, 24),
    steps=st.integers(0, 16),
    cfg=POLICIES,
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_stack_policies_match_per_layer_loops(layers, heads, group, protected, prompt, steps, cfg, ties, seed):
    if cfg.kind == "morphkv":
        cfg = replace(cfg, protected_layers=min(protected, layers))
    alloc = peak_occupancy(cfg, prompt, steps, layers)
    run = StackDriver(layers, heads, group, cfg.recent_window, alloc, ties, seed)
    shipped, reference = run.caches
    for _ in range(prompt):
        run.token()
    prefill_fusion = "sum" if cfg.kind == "snapkv" else cfg.effective_prefill_fusion
    if cfg.kind == "snapkv" or (cfg.kind == "morphkv" and cfg.compress_prefill):
        run.check_stack_rankings(cfg, prefill_fusion)
        layer_policy(reference, cfg, prompt, prefill_fusion, prefill=True)
    shipped_policy(shipped, cfg, prompt, None)
    run.assert_same()
    for i in range(steps):
        run.token()
        run.check_stack_rankings(cfg, cfg.fusion)
        shipped_policy(shipped, cfg, prompt, i)
        if cfg.kind != "morphkv" or i % cfg.eviction_interval == 0:
            layer_policy(reference, cfg, prompt, cfg.fusion, prefill=False)
        run.assert_same()


def stacked_cache(layers=3, heads=2, entries=6, capacity=3, room=0):
    """A cache whose layers all hold ``entries`` entries and ``entries``
    recorded profile rows, with ``room`` for more."""
    cache = KvCacheState(layers, heads, HEAD_DIM, capacity, entries + room)
    rng = np.random.default_rng(layers * 100 + entries)
    for position in range(entries):
        for layer in range(layers):
            cache.append(layer, *rng.standard_normal((2, heads, HEAD_DIM)), position)
            cache.record_step_profiles(layer, rng.uniform(size=(heads, 1, position + 1)))
    return cache


def full_state(cache):
    return [
        np.array(read) for layer in range(cache.n_layers) for read in layer_reads(cache, layer)
    ] + [cache.occupancies(), [cache.profile_rows(layer) for layer in range(cache.n_layers)]]


def assert_rejected_unchanged(cache, call):
    before = full_state(cache)
    with pytest.raises(InvalidShape):
        call()
    after = full_state(cache)
    assert len(before) == len(after)
    assert all(same_bits(a, b) if isinstance(a, np.ndarray) else a == b for a, b in zip(before, after))
    assert cache.pop_evictions() == no_evictions(cache)


KEEP_FIRST_FOUR = np.broadcast_to(np.arange(4), (3, 2, 4))


@pytest.mark.parametrize(
    "first, retained",
    [
        (0, np.arange(4)),  # one row for the whole stack
        (0, KEEP_FIRST_FOUR[None]),  # a stack of stacks
        (0, np.zeros((3, 2, 0, 1), dtype=np.intp)),
        (0, np.broadcast_to(np.arange(4), (3, 1, 4))),  # too few KV heads
        (0, np.zeros((0, 2, 4), dtype=np.intp)),  # no layer
        (1, KEEP_FIRST_FOUR),  # past the last layer
        (-1, KEEP_FIRST_FOUR[:2]),
        (0, KEEP_FIRST_FOUR.astype(np.float64)),
        (0, KEEP_FIRST_FOUR[..., ::-1]),  # unsorted
        (0, np.broadcast_to([0, 1, 1, 2], (3, 2, 4))),  # repeated
        (0, np.broadcast_to([0, 1, 2, 6], (3, 2, 4))),  # out of range
        (0, np.broadcast_to([-1, 1, 2, 3], (3, 2, 4))),
    ],
)
def test_keep_rejects_a_malformed_stack_before_any_change(first, retained):
    cache = stacked_cache()
    assert_rejected_unchanged(cache, lambda: cache.keep(first, retained))


@pytest.mark.parametrize("differ", ["occupancy", "ring", "lap"])
def test_stack_of_unequal_layers_is_rejected_before_any_change(differ):
    # Layer 1 runs one entry or one profile row ahead of the others, as
    # inside a forward, or a whole lap of its 3-slot ring ahead, so that its
    # oldest row sits in the same slot as theirs but holds another row;
    # layer 0 alone is still a valid stack.
    cache = stacked_cache(entries=7, room=1)
    if differ == "occupancy":
        cache.append(1, *np.zeros((2, 2, HEAD_DIM)), 7)
    rows_ahead = {"occupancy": 0, "ring": 1, "lap": cache.window_capacity}[differ]
    for _ in range(rows_ahead):
        cache.record_step_profiles(1, np.ones((2, 1, 7)))
    stack = range(3)
    kept = np.broadcast_to(np.arange(1, 7), (3, 2, 6))
    for call in (
        lambda: cache.keep(0, kept),
        lambda: fuse(cache, stack, "sum"),
        lambda: cache.score_matrix(stack),
        lambda: cache.received(stack),
        lambda: cache.occupancy(stack),
        lambda: morphkv_step(cache, None, EvictionPolicyConfig(distant_capacity=2, recent_window=3), 0),
    ):
        assert_rejected_unchanged(cache, call)
    assert cache.keep(0, kept[:1]) == [0, 0]


@pytest.mark.parametrize("layers", [range(3, 4), range(-1, 1), range(0, 2, 2), range(1, 1), 3, -1])
def test_fuse_rejects_layers_outside_the_cache(layers):
    cache = stacked_cache()
    assert_rejected_unchanged(cache, lambda: fuse(cache, layers, "sum"))


def test_one_layer_reads_drop_the_layer_axis():
    cache = stacked_cache()
    for layer in range(3):
        one = range(layer, layer + 1)
        assert same_bits(cache.score_matrix(layer), cache.score_matrix(one)[0])
        assert same_bits(fuse(cache, layer, "max"), fuse(cache, one, "max")[0])
        assert same_bits(cache.received(layer), cache.received(one)[0])
    assert same_bits(cache.score_matrix(range(3))[1:], cache.score_matrix(range(1, 3)))


@pytest.mark.parametrize("n_layers", [1, 2, 5])
def test_one_fuse_select_and_keep_per_evicting_step(n_layers, monkeypatch):
    # The call counts the benchmark's tracer reads: one of each per step,
    # however many layers the stack holds.
    calls = {"fuse": 0, "select_retained": 0, "keep": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(morph, "fuse")
    counted(morph, "select_retained")
    counted(KvCacheState, "keep")
    cache = stacked_cache(layers=n_layers, entries=7)
    cfg = EvictionPolicyConfig(distant_capacity=2, recent_window=3)
    morphkv_step(cache, None, cfg, 0)
    assert cache.occupancies() == [[5, 5]] * n_layers
    assert calls == {"fuse": 1, "select_retained": 1, "keep": 1}
