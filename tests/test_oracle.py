import itertools
import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morphkv import (
    EvictionPolicyConfig,
    ModelConfig,
    RunConfig,
    greedy_token,
    init_model,
    load_run_config,
    optimal_subset,
    oracle_regression,
    shadow_error,
    start_runs,
    step_runs,
)
from morphkv import harness, model, oracle
from morphkv.errors import EmptyCache, InstanceTooLarge, InvalidParam, InvalidShape
from morphkv.numerics import scaled_dot_attention
from morphkv.oracle import ENUMERATION_BOUND, _combination_table, subset_output_error

ORACLE_TINY = Path(__file__).resolve().parents[1] / "configs" / "oracle_tiny.ini"


def instance(seed: int, n: int = 8, d: int = 4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=d), rng.normal(size=(n, d)), rng.normal(size=(n, d))


class TestSubsetError:
    def test_full_subset_has_zero_error(self):
        q, keys, vals = instance(0)
        assert subset_output_error(q, keys, vals, [range(8)]) == [0.0]

    def test_index_order_is_irrelevant(self):
        q, keys, vals = instance(1)
        assert subset_output_error(q, keys, vals, [[5, 1, 3]]) == subset_output_error(
            q, keys, vals, [[1, 3, 5]]
        )

    def test_matches_direct_recomputation(self):
        q, keys, vals = instance(2)
        idx = [0, 2, 6, 7]
        _, full_out = scaled_dot_attention(q, keys, vals)
        _, sub_out = scaled_dot_attention(q, keys[idx], vals[idx])
        expected = float(np.sqrt(((full_out - sub_out) ** 2).sum()))
        assert subset_output_error(q, keys, vals, [idx])[0] == pytest.approx(expected, abs=1e-15)


class TestPickStack:
    def test_each_pick_in_a_stack_scores_as_alone(self):
        rng = np.random.default_rng(40)
        for seed in range(30):
            n = int(rng.integers(2, 12))
            q, keys, vals = instance(seed, n=n, d=int(rng.integers(1, 9)))
            size = int(rng.integers(1, n + 1))
            picks = [rng.permutation(n)[:size].tolist() for _ in range(int(rng.integers(1, 7)))]
            stacked = subset_output_error(q, keys, vals, picks)
            assert stacked == [subset_output_error(q, keys, vals, [pick])[0] for pick in picks]

    def test_regression_rows_equal_one_pick_calls(self, monkeypatch):
        config = load_run_config(str(ORACLE_TINY))

        def sweep():
            seeded = (replace(config, model=replace(config.model, seed=seed)) for seed in (100, 137, 250))
            return [row for c in seeded for row in oracle_regression(c, 2)]

        stacked = sweep()
        monkeypatch.setattr(
            harness,
            "subset_output_error",
            lambda q, keys, vals, picks: [subset_output_error(q, keys, vals, [p])[0] for p in picks],
        )
        assert sweep() == stacked

    @pytest.mark.parametrize(
        "picks",
        [[[0, 8]], [[-1, 2]], [[1, 1]], [[0, 1], [2, 3, 4]], [], [[]], [1, 2]],
        ids=["index-past-end", "negative-index", "repeated-index", "ragged", "empty-stack", "empty-pick", "flat"],
    )
    def test_non_subsets_refused_before_any_attention(self, picks, monkeypatch):
        q, keys, vals = instance(9)
        calls = []
        monkeypatch.setattr(oracle, "scaled_dot_attention", lambda *a: calls.append(a))
        with pytest.raises(InvalidShape):
            subset_output_error(q, keys, vals, picks)
        assert calls == []


class TestInstanceChunks:
    """The regression starts and steps its instances in lockstep chunks of
    ``INSTANCE_CHUNK``; its rows do not depend on the chunk."""

    def test_rows_equal_under_any_chunk(self, monkeypatch):
        config = load_run_config(str(ORACLE_TINY))
        step, start, forward = harness.step_runs, harness.prefill, model._forward
        sweeps = {}

        def counted(runs, tokens):
            sizes.append(len(runs))
            return step(runs, tokens)

        def prefilled(weights, prompts, caches):
            prefills.append(len(caches))
            return start(weights, prompts, caches)

        def forwarded(weights, tokens, positions, caches):
            rows.append(len(tokens))
            return forward(weights, tokens, positions, caches)

        monkeypatch.setattr(harness, "step_runs", counted)
        monkeypatch.setattr(harness, "prefill", prefilled)
        monkeypatch.setattr(model, "_forward", forwarded)
        for chunk in (1, 7, 64):
            sizes, prefills, rows = [], [], []
            monkeypatch.setattr(harness, "INSTANCE_CHUNK", chunk)
            sweeps[chunk] = oracle_regression(config, 15)
            # oracle_tiny prefills 6 tokens, one block, and decodes 8 steps.
            # Per chunk, of 7, 7 and then 1 instances when the chunk is 7:
            # one prefill of every instance's prompt in one forward of 6
            # rows per instance, then one step_runs and one forward per step.
            chunks = [min(chunk, 15 - first) for first in range(0, 15, chunk)]
            assert prefills == chunks
            assert sizes == [n for n in chunks for _ in range(8)]
            assert rows == [r for n in chunks for r in [6 * n] + [n] * 8]
            assert oracle_regression(config, 0) == []
        assert sweeps[1] == sweeps[7] == sweeps[64]
        assert [row.instance_seed for row in sweeps[1]] == [seed for seed in range(100, 115) for _ in range(5)]


class TestCombinationTable:
    @pytest.mark.parametrize("m, r", [(0, 0), (1, 0), (5, 0), (1, 1), (5, 5), (6, 2), (9, 4), (16, 6)])
    def test_rows_follow_itertools_order(self, m, r):
        table = _combination_table(m, r)
        assert table.dtype == np.int8
        assert table.shape == (math.comb(m, r), r)
        assert [tuple(row) for row in table.tolist()] == list(itertools.combinations(range(m), r))

    def test_read_only_and_shared(self):
        table = _combination_table(8, 3)
        with pytest.raises(ValueError):
            table[0, 0] = 5
        assert _combination_table(8, 3) is table

    def test_worst_case_size(self):
        # Stated from the counts, never built: every index fits int8 and the
        # one table kept, at the enumeration bound, is at most r * C(22, r)
        # bytes.
        assert ENUMERATION_BOUND <= np.iinfo(np.int8).max
        worst = max(math.comb(ENUMERATION_BOUND, r) * r for r in range(ENUMERATION_BOUND + 1))
        assert worst == math.comb(22, 11) * 11 == 7_759_752


class TestOptimalSubset:
    def test_budget_equal_to_size_is_exact(self):
        q, keys, vals = instance(3)
        idx, err = optimal_subset(q, keys, vals, budget=8, recent_window=2)
        assert idx == tuple(range(8))
        assert err == 0.0

    def test_beats_every_enumerated_competitor(self):
        q, keys, vals = instance(4, n=9)
        budget, recent = 4, 2
        _, best = optimal_subset(q, keys, vals, budget, recent)
        forced = (7, 8)
        for combo in itertools.combinations(range(7), budget - 2):
            (err,) = subset_output_error(q, keys, vals, [combo + forced])
            assert best <= err

    @pytest.mark.parametrize("force_recent", [True, False])
    def test_rescoring_the_optimum_gives_its_error_bit_for_bit(self, force_recent):
        # A policy's pick is scored by subset_output_error and compared
        # with the enumerated optimum with no tolerance.
        for seed in range(10):
            q, keys, vals = instance(seed, n=9)
            idx, err = optimal_subset(q, keys, vals, 4, 2, force_recent=force_recent)
            assert subset_output_error(q, keys, vals, [idx]) == [err]

    def test_forced_recent_tail_is_always_included(self):
        q, keys, vals = instance(5, n=10)
        idx, _ = optimal_subset(q, keys, vals, budget=5, recent_window=3)
        assert idx[-3:] == (7, 8, 9)

    def test_unconstrained_search_is_at_least_as_good(self):
        for seed in range(10):
            q, keys, vals = instance(seed, n=9)
            _, constrained = optimal_subset(q, keys, vals, 4, 2, force_recent=True)
            _, free = optimal_subset(q, keys, vals, 4, 2, force_recent=False)
            assert free <= constrained

    def test_unconstrained_can_strictly_win(self):
        # Across seeds the free search must sometimes beat the pinned
        # tail, otherwise force_recent would be vacuous.
        wins = 0
        for seed in range(20):
            q, keys, vals = instance(seed, n=9)
            _, constrained = optimal_subset(q, keys, vals, 4, 2, force_recent=True)
            _, free = optimal_subset(q, keys, vals, 4, 2, force_recent=False)
            wins += free < constrained - 1e-12
        assert wins > 0

    def test_instance_beyond_bound_rejected(self):
        n = ENUMERATION_BOUND + 1
        q, keys, vals = instance(6, n=n)
        with pytest.raises(InstanceTooLarge):
            optimal_subset(q, keys, vals, 4, 2)

    def test_bound_is_inclusive(self):
        q, keys, vals = instance(7, n=ENUMERATION_BOUND, d=2)
        idx, err = optimal_subset(q, keys, vals, ENUMERATION_BOUND - 1, 2)
        assert len(idx) == ENUMERATION_BOUND - 1
        assert err >= 0.0

    def test_rejects_empty_and_bad_budget(self):
        q, keys, vals = instance(8)
        with pytest.raises(EmptyCache):
            optimal_subset(q, keys[:0], vals[:0], 1, 1)
        with pytest.raises(InvalidParam):
            optimal_subset(q, keys, vals, 0, 1)
        with pytest.raises(InvalidParam):
            optimal_subset(q, keys, vals, 9, 1)
        with pytest.raises(InvalidParam):
            optimal_subset(q, keys, vals, 4, -1)


class TestShadowError:
    MODEL = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=31)

    def lockstep(self, policy_kind="scissorhands", steps=6):
        """Per-step (full, policy) outputs of one token stream, and the policy's trace."""
        weights = init_model(self.MODEL)
        full, policy = (
            start_runs(
                [
                    RunConfig(
                        model=self.MODEL,
                        policy=EvictionPolicyConfig(kind=kind, recent_window=4),
                        prompt_length=6,
                        decode_steps=steps,
                    )
                ],
                [weights],
            )[0]
            for kind in ("full_attention", policy_kind)
        )
        pairs = []
        for _ in range(steps):
            token = greedy_token(full.out.logits)
            pairs.append((step_runs([full], [token])[0], step_runs([policy], [token])[0]))
        return pairs, policy.result().trace

    def test_self_comparison_is_exactly_zero(self):
        pairs, _ = self.lockstep()
        for full_out, _ in pairs:
            assert shadow_error(full_out, full_out) == [0.0] * 4

    def test_zero_until_first_eviction(self):
        # The window policy first evicts at the step that overflows it;
        # before that both runs hold identical caches, so every per-store
        # error must be exactly zero, and after it some error must appear.
        pairs, trace = self.lockstep()
        first_evict = min(step for step, _, _, _ in trace.eviction_log())
        errors = [shadow_error(full_out, out) for full_out, out in pairs]
        for step_errors in errors[:first_evict]:
            assert step_errors == [0.0] * len(step_errors)
        assert any(e > 0 for step_errors in errors[first_evict:] for e in step_errors)

    def test_matches_direct_snapshot_recomputation(self):
        pairs, _ = self.lockstep()
        for full_out, out in pairs:
            errors = iter(shadow_error(full_out, out))
            for layer in range(self.MODEL.n_layers):
                for head in range(self.MODEL.n_kv_heads):
                    diff = full_out.attn_outputs[layer][head] - out.attn_outputs[layer][head]
                    expected = float(np.sqrt((diff * diff).sum()))
                    assert next(errors) == pytest.approx(expected, abs=1e-12)

    def test_record_grid_is_complete(self):
        pairs, _ = self.lockstep(steps=5)
        assert len(pairs) == 5
        for full_out, out in pairs:
            assert len(shadow_error(full_out, out)) == self.MODEL.n_layers * self.MODEL.n_kv_heads
