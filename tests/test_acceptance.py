"""End-to-end acceptance checks, one test per contract claim.

Every test prints a single [PASS] line naming the property it verified
and the tolerance it held at (visible under ``pytest -s``); a failing
test prints [FAIL] before the traceback. The suite is self-contained:
golden inputs live in tests/data and configs/.
"""

import functools
import json
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import reference
from morphkv import (
    EvictionPolicyConfig,
    KvCacheState,
    ModelConfig,
    RunConfig,
    decode_step,
    fuse,
    greedy_token,
    init_model,
    kv_bytes,
    load_run_config,
    morphkv_step,
    oracle_regression,
    prefill,
    repetition_rate,
    run,
    select_retained,
    start_runs,
    step_runs,
)
from morphkv.harness import regression_means, render_regression_csv

REPO = Path(__file__).resolve().parent.parent
DATA = Path(__file__).resolve().parent / "data"

SMALL = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32)


def criterion(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except BaseException:
            print(f"[FAIL] {fn.__name__}")
            raise

    return wrapper


@criterion
def test_constant_cache_size():
    # 20 seeded runs across the supported budget ranges: once a store is
    # saturated, every decode step must leave exactly
    # distant_capacity + recent_window entries in every (layer, head).
    started = time.monotonic()
    cases = [
        (4, 2), (4, 32), (8, 8), (12, 4), (16, 16), (24, 8), (32, 2),
        (32, 32), (48, 16), (64, 2), (64, 32), (5, 3), (10, 30), (20, 12),
        (28, 20), (36, 24), (44, 28), (52, 6), (56, 10), (60, 14),
    ]
    checked = 0
    for seed, (c, r) in enumerate(cases):
        budget = c + r
        # Prompts both above and below the budget, so saturation happens
        # at step 0 for half the runs and mid-decode for the rest.
        prompt_len = budget + 4 if seed % 2 == 0 else max(2, budget - 3)
        config = RunConfig(
            model=replace(SMALL, seed=seed),
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=c, recent_window=r),
            prompt_length=prompt_len,
            decode_steps=10,
            debug_invariants=True,
        )
        result = run(config)
        for rec in result.trace.records:
            if prompt_len + rec.step + 1 > budget:
                for layer in rec.occupancy:
                    for occ in layer:
                        assert occ == budget, (seed, c, r, rec.step, occ)
                        checked += 1
    elapsed = time.monotonic() - started
    assert elapsed < 60.0
    print(
        f"[PASS] constant cache size: {checked} saturated (layer, head, step) cells "
        f"held occupancy C+R exactly over 20 seeded runs in {elapsed:.1f}s (< 60s)"
    )


def greedy_logits(config):
    """A greedy run's trace and its logits after prefill and after each decode step."""
    (decoding,) = start_runs([config], [init_model(config.model)])
    logits = [decoding.out.logits]
    for _ in range(config.decode_steps):
        logits.append(step_runs([decoding], [greedy_token(decoding.out.logits)])[0].logits)
    return decoding.trace, logits


@criterion
def test_degenerate_full_equivalence():
    # With the budget at or above the final sequence length the selective
    # policy never evicts, so its logits must equal full attention bit
    # for bit, not merely within tolerance.
    for seed in range(10):
        model = replace(SMALL, seed=seed)
        base = RunConfig(
            model=model,
            policy=EvictionPolicyConfig(kind="full_attention"),
            prompt_length=6,
            decode_steps=8,
        )
        morph = replace(
            base,
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=10, recent_window=4),
        )
        a, a_logits = greedy_logits(base)
        b, b_logits = greedy_logits(morph)
        assert b.eviction_log() == []
        assert a.consumed_tokens() == b.consumed_tokens()
        for la, lb in zip(a_logits, b_logits, strict=True):
            np.testing.assert_array_equal(la, lb)
    print(
        "[PASS] degenerate equivalence: budget >= sequence length reproduced "
        "full-attention logits bit-identically on 10 seeded runs"
    )


@criterion
def test_scripted_walkthrough_replay():
    # A fully scripted single-store trajectory (C=2, R=2, sum fusion).
    # Four prompt entries, then five decode steps whose attention rows
    # are chosen so the eviction order is forced.
    cfg = EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=2)
    # Four prompt entries plus each step's new one before it evicts.
    cache = KvCacheState(1, 1, 2, window_capacity=2, capacity=5)
    prompt_rows = [
        [1.0],
        [0.5, 0.5],
        [0.2, 0.3, 0.5],
        [0.05, 0.30, 0.40, 0.25],
    ]
    for pos, row in enumerate(prompt_rows):
        cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)), pos)
        cache.record_step_profiles(0, [[row]])
    decode_rows = [
        [0.05, 0.30, 0.15, 0.30, 0.20],
        [0.20, 0.05, 0.15, 0.25, 0.35],
        [0.20, 0.15, 0.35, 0.10, 0.20],
        [0.10, 0.35, 0.02, 0.23, 0.30],
        [0.05, 0.30, 0.12, 0.28, 0.25],
    ]
    # First step, decomposed: after the new entry and its row land, the
    # three distant entries carry fused scores 0.10, 0.60, 0.55, so the
    # 0.10 entry (position 0) must be the unique eviction.
    cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)), 4)
    cache.record_step_profiles(0, [[decode_rows[0]]])
    first_scores = fuse(cache, 0, "sum")
    np.testing.assert_allclose(first_scores, [[0.10, 0.60, 0.55]], atol=1e-12)
    retained = select_retained(first_scores, cache.occupancy(0), 2, 2)
    assert cache.keep(0, retained) == [0]
    cache.pop_evictions()
    # Remaining steps through the policy entry point.
    evictions = [[0]]
    for idx, row in enumerate(decode_rows[1:], start=1):
        pos = 4 + idx
        cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)), pos)
        out = SimpleNamespace(attn_rows=[[np.array([row])]])
        # The decoder records each step's rows before the policy runs.
        cache.record_step_profiles(0, out.attn_rows[0])
        morphkv_step(cache, out, cfg, idx)
        [[evicted]] = cache.pop_evictions()
        evictions.append(evicted)
        assert cache.occupancy(0) == 4
    assert evictions == [[0], [2], [3], [5], [1]]
    survivors = cache.positions(0)[0].tolist()
    assert survivors == [4, 6, 7, 8]
    # The entry appended at the first decode step (position 4) is now the
    # oldest survivor: it outlived every prompt entry and one younger
    # generated entry because the window kept attending to it.
    assert 4 == survivors[0] and all(4 not in ev for ev in evictions)
    print(
        "[PASS] scripted walkthrough: first eviction dropped the 0.10-scored entry "
        "over the 0.60 one (atol 1e-12), eviction order [0,2,3,5,1] reproduced, "
        "position 4 retained to the end"
    )


@criterion
def test_fusion_matches_independent_recomputation():
    rng = np.random.default_rng(2024)
    max_gap = 0.0
    for _ in range(1000):
        capacity = int(rng.integers(1, 7))
        width = int(rng.integers(capacity, capacity + 11))
        rows = rng.uniform(size=(capacity, width))
        cache = KvCacheState(1, 1, 2, window_capacity=capacity, capacity=width)
        for pos in range(width):
            cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)), pos)
        for row in rows:
            cache.record_step_profiles(0, [[row]])
        distant = width - capacity
        sum_scores = fuse(cache, 0, "sum")[0]
        max_scores = fuse(cache, 0, "max")[0]
        np.testing.assert_allclose(
            sum_scores, reference.fuse_loops(rows, distant, "sum"), atol=1e-12
        )
        np.testing.assert_allclose(
            max_scores, reference.fuse_loops(rows, distant, "max"), atol=1e-12
        )
        assert np.all(max_scores <= sum_scores)
        if distant:
            max_gap = max(max_gap, float(np.max(np.abs(
                sum_scores - reference.fuse_loops(rows, distant, "sum")
            ))))
    print(
        f"[PASS] fusion: sum and max matched loop recomputation on 1000 random "
        f"windows (worst gap {max_gap:.2e} <= 1e-12); max <= sum held elementwise"
    )


@criterion
def test_group_aggregation_consistency():
    # Part 1: with one query head per KV head, ranking by the aggregated
    # group row and ranking by the raw single row must make identical
    # eviction decisions; both replays must also match the engine.
    mha = ModelConfig(n_layers=2, n_query_heads=2, n_kv_heads=2, head_dim=4, vocab_size=32)
    policy = EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2)
    for seed in range(10):
        model = replace(mha, seed=seed)
        weights = init_model(model)
        # The 8-token prompt plus each step's new entry before it evicts.
        cache = KvCacheState.for_model(model, policy.recent_window, 9)
        prompt = list(np.random.default_rng([seed, 1]).integers(0, 32, size=8))
        (out,) = prefill([weights], [[int(t) for t in prompt]], [cache])
        replays = {}
        for layer in range(model.n_layers):
            for head in range(model.n_kv_heads):
                live = cache.positions(layer)[head].tolist()
                rows = cache.score_matrix(layer)[head]
                replays[layer, head, True] = reference.RetentionReplay(
                    live, rows, 3, 2, aggregate=True
                )
                replays[layer, head, False] = reference.RetentionReplay(
                    live, rows, 3, 2, aggregate=False
                )
        token = greedy_token(out.logits)
        for i in range(8):
            (out,) = decode_step([weights], [token], [cache])
            groups = [
                [np.array(out.attn_rows[layer][head]) for head in range(model.n_kv_heads)]
                for layer in range(model.n_layers)
            ]
            morphkv_step(cache, out, policy, i)
            engine = cache.pop_evictions()
            for layer in range(model.n_layers):
                for head in range(model.n_kv_heads):
                    agg = replays[layer, head, True].step(8 + i, groups[layer][head])
                    raw = replays[layer, head, False].step(8 + i, groups[layer][head])
                    assert agg == raw == engine[layer][head], (seed, i, layer, head)
            token = greedy_token(out.logits)
    # Part 2: with four query heads per KV head, the row a store records
    # for a group must equal the explicit four-row sum to 1e-12 at every
    # store and step.

    def aggregated(group):
        cache = KvCacheState(1, 1, 2, window_capacity=1, capacity=group.shape[1])
        for pos in range(group.shape[1]):
            cache.append(0, np.zeros((1, 2)), np.zeros((1, 2)), pos)
        cache.record_step_profiles(0, [group])
        return cache.score_matrix(0)[0, 0]

    gqa = ModelConfig(n_layers=2, n_query_heads=8, n_kv_heads=2, head_dim=4, vocab_size=32, seed=3)
    assert gqa.group_size == 4
    (decoding,) = start_runs(
        [
            RunConfig(
                model=gqa,
                policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=4, recent_window=3),
                prompt_length=6,
                decode_steps=8,
            )
        ],
        [init_model(gqa)],
    )
    cells = 0
    for _ in range(8):
        step_rows = step_runs([decoding], [greedy_token(decoding.out.logits)])[0].attn_rows
        for layer_rows in step_rows:
            for group in layer_rows:
                explicit = group[0] + group[1] + group[2] + group[3]
                np.testing.assert_allclose(
                    aggregated(group), explicit, atol=1e-12
                )
                cells += 1
    print(
        "[PASS] group aggregation: single-member groups made identical decisions "
        f"with and without aggregation on 10 seeded runs; 4-member aggregation "
        f"matched the explicit row sum to 1e-12 at {cells} store-steps"
    )


@criterion
def test_policy_equivalence_lattice():
    base_model = replace(SMALL, seed=11)

    def trace_of(policy, **kwargs):
        config = RunConfig(
            model=base_model, policy=policy, prompt_length=8, decode_steps=10, **kwargs
        )
        return run(config).trace

    # Zero distant budget degenerates to the sliding window.
    morph0 = trace_of(EvictionPolicyConfig(kind="morphkv", distant_capacity=0, recent_window=5))
    window = trace_of(EvictionPolicyConfig(kind="scissorhands", recent_window=5))
    assert morph0.to_dict()["steps"] == window.to_dict()["steps"]
    assert morph0.eviction_log() == window.eviction_log()

    # Zero pinned sinks degenerates to the sliding window too.
    sinks0 = trace_of(EvictionPolicyConfig(kind="streamingllm", sink_count=0, recent_window=5))
    assert sinks0.to_dict()["steps"] == window.to_dict()["steps"]

    # Protecting every layer degenerates to full attention.
    protected = RunConfig(
        model=base_model,
        policy=EvictionPolicyConfig(
            kind="morphkv", distant_capacity=2, recent_window=2,
            protected_layers=base_model.n_layers,
        ),
        prompt_length=8,
        decode_steps=10,
    )
    full = replace(protected, policy=EvictionPolicyConfig(kind="full_attention"))
    (a, a_logits), (b, b_logits) = greedy_logits(protected), greedy_logits(full)
    assert a.eviction_log() == b.eviction_log() == []
    assert a.to_dict()["steps"] == b.to_dict()["steps"]
    for la, lb in zip(a_logits, b_logits, strict=True):
        np.testing.assert_array_equal(la, lb)

    # An explicit every-step schedule equals the default schedule.
    per_step = trace_of(
        EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2, eviction_interval=1)
    )
    default = trace_of(EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2))
    assert per_step.to_dict() == default.to_dict()
    print(
        "[PASS] equivalence lattice: zero-distant == sliding window, zero sinks == "
        "sliding window, all-layers-protected == full attention, interval 1 == "
        "default schedule; all step records bit-equal"
    )


@pytest.mark.float_golden
@criterion
def test_exhaustive_oracle_dominance():
    started = time.monotonic()
    config = load_run_config(str(REPO / "configs" / "oracle_tiny.ini"))
    rows = oracle_regression(config, instances=200)  # raises if any policy beats the optimum
    text = render_regression_csv(rows)
    committed = (DATA / "oracle_regression.csv").read_text()
    assert text == committed
    means = regression_means(rows)
    assert means["morphkv_sum"] <= means["scissorhands"]
    for row in rows:
        assert row.error >= row.optimal_error
    elapsed = time.monotonic() - started
    assert elapsed < 300.0
    print(
        f"[PASS] oracle dominance: 200 instances in {elapsed:.1f}s (< 300s); optimum "
        f"<= every policy; mean error {means['morphkv_sum']:.4f} (selective, sum) vs "
        f"{means['scissorhands']:.4f} (recency); CSV bit-equal to committed baseline"
    )


@criterion
def test_memory_ratio_arithmetic():
    # Per-query-head storage costs exactly group_size times grouped
    # storage for the same retained token count, as integers.
    grouped_policy = EvictionPolicyConfig(kind="morphkv")
    all_heads_policy = EvictionPolicyConfig(kind="h2o")
    for n_q, n_kv in [(8, 2), (8, 4), (8, 8), (64, 8)]:
        model = ModelConfig(n_layers=3, n_query_heads=n_q, n_kv_heads=n_kv, head_dim=6)
        for occ in (1, 7, 64):
            grouped = kv_bytes(grouped_policy, [occ], model)[0]
            all_heads = kv_bytes(all_heads_policy, [occ], model)[0]
            assert all_heads == grouped * model.group_size
    # Shape contrast on live runs: one-shot prompt reduction grows every
    # step afterwards, constant-size selection stays flat.
    model = replace(SMALL, seed=19)
    snap = run(
        RunConfig(
            model=model,
            policy=EvictionPolicyConfig(kind="snapkv", recent_window=2, prefill_budget=6),
            prompt_length=12,
            decode_steps=10,
        )
    ).trace.byte_stream()
    morph = run(
        RunConfig(
            model=model,
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=4, recent_window=2),
            prompt_length=12,
            decode_steps=10,
        )
    ).trace.byte_stream()
    assert all(b > a for a, b in zip(snap, snap[1:]))
    assert len(set(morph)) == 1
    print(
        "[PASS] memory ratio: per-query-head bytes == grouped bytes x group_size "
        "exactly across 4 shapes; one-shot-reduction bytes strictly increase over "
        "10 decode steps while constant-size bytes stay flat"
    )


@criterion
def test_coarse_scheduling_tradeoff():
    results = {}
    for name in ("interval1", "interval8"):
        config = load_run_config(str(REPO / "configs" / f"{name}.ini"))
        result = run(config)
        committed = json.loads((DATA / f"trace_{name}.json").read_text())
        assert result.trace.to_dict() == committed
        results[name] = result.trace
    budget = 8
    for rec in results["interval8"].records:
        phase = rec.step % 8
        for layer in rec.occupancy:
            for occ in layer:
                if phase == 0:
                    assert occ == budget
                else:
                    assert budget < occ == budget + phase <= budget + 7
    assert results["interval1"].eviction_log() != results["interval8"].eviction_log()
    assert all(
        occ == budget
        for rec in results["interval1"].records
        for layer in rec.occupancy
        for occ in layer
    )
    print(
        "[PASS] coarse scheduling: interval-8 occupancy stayed in [C+R, C+R+7] and "
        "returned to C+R at every eviction step; decisions diverged from interval-1; "
        "both traces bit-equal to the archived copies"
    )


@criterion
def test_protected_layer_accounting():
    model = ModelConfig(n_layers=4, n_query_heads=8, n_kv_heads=2, head_dim=16, vocab_size=256)
    prompt_len, steps, budget = 96, 20, 64
    for seed in range(3):
        protected_cfg = RunConfig(
            model=replace(model, seed=seed),
            policy=EvictionPolicyConfig(
                kind="morphkv", distant_capacity=48, recent_window=16, protected_layers=3
            ),
            prompt_length=prompt_len,
            decode_steps=steps,
            debug_invariants=True,
        )
        default_cfg = replace(
            protected_cfg,
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=48, recent_window=16),
            debug_invariants=False,
        )
        shielded = run(protected_cfg)
        default = run(default_cfg)
        assert all(layer >= 3 for _, layer, _, _ in shielded.trace.eviction_log())
        # Byte delta per step: 3 shielded layers hold prompt_len + step + 1
        # entries where the trimmed run holds exactly the budget.
        for rec_p, rec_d in zip(shielded.trace.records, default.trace.records):
            extra_entries = 3 * model.n_kv_heads * ((prompt_len + rec_p.step + 1) - budget)
            expected = extra_entries * model.head_dim * 2 * 8
            assert rec_p.bytes - rec_d.bytes == expected
    print(
        "[PASS] protected layers: 3 seeded runs never evicted from the first three "
        "layers; per-step byte overhead equaled the analytic three-layer delta exactly"
    )


@criterion
def test_repetition_metric():
    report = repetition_rate([0, 1, 0, 1, 0, 1], n=2)
    assert report.total_grams == 5
    assert report.distinct_grams == 2
    assert report.repetition_rate == 0.6
    tokens = [3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5, 3, 1, 4]
    base = repetition_rate(tokens, n=3)
    rng = np.random.default_rng(7)
    for _ in range(100):
        perm = rng.permutation(16)
        relabeled = [int(perm[t]) for t in tokens]
        assert repetition_rate(relabeled, n=3) == base
    print(
        "[PASS] repetition metric: alternating-pair example gave rate 0.6 exactly; "
        "100 random relabelings left every count unchanged"
    )
