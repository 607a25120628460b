import itertools

import numpy as np
import pytest

from morphkv import (
    Decoding,
    EvictionPolicyConfig,
    ModelConfig,
    RunConfig,
    greedy_token,
    init_model,
    optimal_subset,
    shadow_error,
)
from morphkv.errors import EmptyCache, InstanceTooLarge, InvalidParam
from morphkv.numerics import scaled_dot_attention
from morphkv.oracle import ENUMERATION_BOUND, subset_output_error


def instance(seed: int, n: int = 8, d: int = 4):
    rng = np.random.default_rng(seed)
    return rng.normal(size=d), rng.normal(size=(n, d)), rng.normal(size=(n, d))


class TestSubsetError:
    def test_full_subset_has_zero_error(self):
        q, keys, vals = instance(0)
        assert subset_output_error(q, keys, vals, range(8)) == 0.0

    def test_index_order_is_irrelevant(self):
        q, keys, vals = instance(1)
        assert subset_output_error(q, keys, vals, [5, 1, 3]) == subset_output_error(
            q, keys, vals, [1, 3, 5]
        )

    def test_matches_direct_recomputation(self):
        q, keys, vals = instance(2)
        idx = [0, 2, 6, 7]
        _, full_out = scaled_dot_attention(q, keys, vals)
        _, sub_out = scaled_dot_attention(q, keys[idx], vals[idx])
        expected = float(np.sqrt(((full_out - sub_out) ** 2).sum()))
        assert subset_output_error(q, keys, vals, idx) == pytest.approx(expected, abs=1e-15)


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
            err = subset_output_error(q, keys, vals, combo + forced)
            assert best <= err + 1e-15

    def test_forced_recent_tail_is_always_included(self):
        q, keys, vals = instance(5, n=10)
        idx, _ = optimal_subset(q, keys, vals, budget=5, recent_window=3)
        assert idx[-3:] == (7, 8, 9)

    def test_unconstrained_search_is_at_least_as_good(self):
        for seed in range(10):
            q, keys, vals = instance(seed, n=9)
            _, constrained = optimal_subset(q, keys, vals, 4, 2, force_recent=True)
            _, free = optimal_subset(q, keys, vals, 4, 2, force_recent=False)
            assert free <= constrained + 1e-15

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


class TestShadowError:
    MODEL = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=31)

    def lockstep(self, policy_kind="scissorhands", steps=6):
        """Per-step (full, policy) outputs of one token stream, and the policy's trace."""
        weights = init_model(self.MODEL)
        full, policy = (
            Decoding(
                RunConfig(
                    model=self.MODEL,
                    policy=EvictionPolicyConfig(kind=kind, recent_window=4),
                    prompt_length=6,
                    decode_steps=steps,
                ),
                weights,
            )
            for kind in ("full_attention", policy_kind)
        )
        pairs = []
        for _ in range(steps):
            token = greedy_token(full.out.logits)
            pairs.append((full.step(token), policy.step(token)))
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
