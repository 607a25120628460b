"""Rows of a forward return the bits of running each row on its own.

One forward runs rows, each owned by a (cache, position) pair, row ``r``
of ``C`` caches belonging to ``caches[r % C]``: ``prefill`` runs blocks of
``PREFILL_BLOCK`` positions of one cache, or of several caches at once
(``start_runs`` over several seeds), ``decode_step`` runs one row per
cache, one cache alone or many in lockstep, over one weights object or
one per cache. Each layer's dense math is stacked ``(b, C, 1, d) @ W``
matmuls over every row, ``W`` one matrix or a ``(C, d, e)`` stack of one
per cache. That is exact only because numpy runs a stacked
unit-axis matmul as one gemv per row and the norms, rotations and
activations are row-wise, so every comparison here is on the raw bits of
every store array and every returned array, never a tolerance. A 2-D
gemm in place of any stacked matmul sums in another order and fails.
"""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkv import EvictionPolicyConfig, ModelConfig, RunConfig, start_runs, step_runs
from morphkv.cache import KvCacheState
from morphkv.model import PREFILL_BLOCK, decode_step, greedy_token, init_model, prefill

B = PREFILL_BLOCK
# Around and across block boundaries: one token, a partial block, one
# full block, one token past it, two blocks and one more, three blocks.
LENGTHS = (1, B - 1, B, B + 1, 2 * B + 1, 3 * B)
STORE_READS = ("keys_matrix", "values_matrix", "positions", "received", "score_matrix")


def same_bits(a, b) -> bool:
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    if a.shape != b.shape or a.dtype != b.dtype:
        return False
    return np.array_equal(a.view(np.int64), b.view(np.int64))


def blockwise(weights, prompt, capacity):
    cache = KvCacheState.for_model(weights.config, capacity, len(prompt))
    (out,) = prefill([weights], [prompt], [cache])
    return out, cache


def tokenwise(weights, prompt, capacity):
    cache = KvCacheState.for_model(weights.config, capacity, len(prompt))
    (out,) = prefill([weights], [prompt[:1]], [cache])
    for token in prompt[1:]:
        (out,) = decode_step([weights], [token], [cache])
    return out, cache


def assert_same_output(got, want, cfg: ModelConfig):
    assert same_bits(got.logits, want.logits)
    for field in ("attn_rows", "attn_outputs", "queries"):
        got_layers, want_layers = getattr(got, field), getattr(want, field)
        assert len(got_layers) == len(want_layers) == cfg.n_layers
        for got_heads, want_heads in zip(got_layers, want_layers):
            assert len(got_heads) == len(want_heads) == cfg.n_kv_heads
            for a, b in zip(got_heads, want_heads):
                assert same_bits(a, b), field


def assert_same_stores(got_cache, want_cache):
    assert got_cache.profile_rows(0) == want_cache.profile_rows(0)
    for layer in range(got_cache.n_layers):
        for read in STORE_READS:
            a = getattr(got_cache, read)(layer)
            b = getattr(want_cache, read)(layer)
            assert same_bits(a, b), (read, layer)


def assert_same_run(weights, prompt, capacity):
    got, got_cache = blockwise(weights, prompt, capacity)
    want, want_cache = tokenwise(weights, prompt, capacity)
    assert_same_output(got, want, weights.config)
    assert_same_stores(got_cache, want_cache)


def make_prompt(cfg: ModelConfig, length: int, seed: int) -> list[int]:
    return [int(t) for t in np.random.default_rng(seed).integers(0, cfg.vocab_size, size=length)]


@pytest.mark.parametrize("length", LENGTHS)
def test_prompt_lengths_around_block_edges(length):
    cfg = ModelConfig(
        n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=8, vocab_size=48, seed=length
    )
    assert_same_run(init_model(cfg), make_prompt(cfg, length, seed=length), capacity=4)


@settings(max_examples=25, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_kv_heads=st.integers(1, 2),
    group=st.integers(1, 4),
    head_dim=st.sampled_from([2, 4, 8, 16]),
    vocab=st.integers(2, 64),
    length=st.one_of(st.sampled_from(LENGTHS), st.integers(1, 3 * B + 1)),
    capacity=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_block_equals_token_by_token(
    n_layers, n_kv_heads, group, head_dim, vocab, length, capacity, seed
):
    cfg = ModelConfig(
        n_layers=n_layers,
        n_query_heads=n_kv_heads * group,
        n_kv_heads=n_kv_heads,
        head_dim=head_dim,
        vocab_size=vocab,
        seed=seed,
    )
    assert_same_run(init_model(cfg), make_prompt(cfg, length, seed), capacity)


# Policies of every kind of store update, at budgets that keep the runs'
# occupancies apart: no eviction, ranked eviction on every layer and on the
# last layer only, cumulative ranking, prompt reduction and a window.
LOCKSTEP_POLICIES = (
    EvictionPolicyConfig(kind="full_attention", recent_window=2),
    EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2),
    EvictionPolicyConfig(kind="morphkv", distant_capacity=2, recent_window=3, protected_layers=1),
    EvictionPolicyConfig(kind="h2o", distant_capacity=2, recent_window=2),
    EvictionPolicyConfig(kind="snapkv", recent_window=2, prefill_budget=5),
    EvictionPolicyConfig(kind="streamingllm", distant_capacity=4, recent_window=2, sink_count=1),
)
LOCKSTEP_MODEL = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=8, vocab_size=40, seed=7)


def assert_lockstep_equals_alone(
    model, policies, prompt_lengths, steps, teacher_forced, seeds=None, together=False, prompt_file=None
):
    """Step runs over the weights of their seeds (``model.seed`` for every
    run by default; one weights object per distinct seed) through one
    ``step_runs`` per step and, beside them, each run started and stepped
    on its own; every output, the prefill's included, and every store read
    must match on bits. The lockstep runs start each in a ``start_runs``
    of its own or, with ``together``, all in one ``start_runs`` over the
    list of their weights objects, which prefills the distinct objects'
    prompts (of one length, or read from ``prompt_file``) in the same
    forwards and gives the runs of a repeated seed copies."""
    seeds = seeds or [model.seed] * len(policies)
    weights = {seed: init_model(replace(model, seed=seed)) for seed in seeds}
    configs = [
        RunConfig(
            model=replace(model, seed=seed),
            policy=policy,
            prompt_length=length,
            prompt_file=prompt_file,
            decode_steps=steps,
        )
        for policy, length, seed in zip(policies, prompt_lengths, seeds)
    ]
    if together:
        lockstep = start_runs(configs, [weights[cfg.model.seed] for cfg in configs])
    else:
        lockstep = [start_runs([cfg], [weights[cfg.model.seed]])[0] for cfg in configs]
    alone = [start_runs([cfg], [weights[cfg.model.seed]])[0] for cfg in configs]
    for run, single in zip(lockstep, alone):
        assert_same_output(run.out, single.out, model)
        assert_same_stores(run.cache, single.cache)
    for _ in range(steps):
        if teacher_forced:
            tokens = [greedy_token(lockstep[0].out.logits)] * len(lockstep)
        else:
            tokens = [greedy_token(run.out.logits) for run in lockstep]
        outs = step_runs(lockstep, tokens)
        assert len(outs) == len(lockstep)
        for run, single, token, out in zip(lockstep, alone, tokens, outs):
            assert_same_output(out, step_runs([single], [token])[0], model)
            assert_same_stores(run.cache, single.cache)
    for run, single in zip(lockstep, alone):
        assert run.trace.to_dict() == single.trace.to_dict()
    return lockstep


@pytest.mark.parametrize("teacher_forced", [True, False], ids=["teacher_forced", "free_running"])
def test_lockstep_equals_each_run_alone(teacher_forced):
    runs = assert_lockstep_equals_alone(
        LOCKSTEP_MODEL, LOCKSTEP_POLICIES, [9] * len(LOCKSTEP_POLICIES), 8, teacher_forced
    )
    # The runs really did hold different entry counts while stepping together.
    assert len({str(run.cache.occupancies()) for run in runs}) > 2
    if not teacher_forced:
        assert len({tuple(run.trace.consumed_tokens()) for run in runs}) > 1


@pytest.mark.parametrize("teacher_forced", [True, False], ids=["teacher_forced", "free_running"])
def test_lockstep_rows_at_differing_positions(teacher_forced):
    lengths = [1, 6, B + 3, 11, 2, B]
    runs = assert_lockstep_equals_alone(LOCKSTEP_MODEL, LOCKSTEP_POLICIES, lengths, 5, teacher_forced)
    assert len({run.cache.next_position() for run in runs}) == len(runs)


@settings(max_examples=15, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_kv_heads=st.integers(1, 2),
    group=st.integers(1, 3),
    head_dim=st.sampled_from([2, 4, 8]),
    picks=st.lists(st.sampled_from(range(len(LOCKSTEP_POLICIES))), min_size=1, max_size=5),
    lengths=st.lists(st.integers(1, 2 * B), min_size=5, max_size=5),
    teacher_forced=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_lockstep_any_shape(n_layers, n_kv_heads, group, head_dim, picks, lengths, teacher_forced, seed):
    model = ModelConfig(
        n_layers=n_layers,
        n_query_heads=n_kv_heads * group,
        n_kv_heads=n_kv_heads,
        head_dim=head_dim,
        vocab_size=32,
        seed=seed,
    )
    policies = [LOCKSTEP_POLICIES[i] for i in picks]
    policies = [
        replace(p, protected_layers=min(p.protected_layers, n_layers)) for p in policies
    ]
    assert_lockstep_equals_alone(model, policies, lengths, 4, teacher_forced)


# Runs over weights of one shape but several seeds step through stacked
# matrices, one slice per row, with the bits of each run stepped alone.
# Repeated seeds share one weights object among the stacked ones.
LOCKSTEP_SEEDS = (7, 8, 9, 7, 10, 8)


@pytest.mark.parametrize("teacher_forced", [True, False], ids=["teacher_forced", "free_running"])
@pytest.mark.parametrize("lengths", [[9] * 6, [1, 6, B + 3, 11, 2, B]], ids=["equal_positions", "differing_positions"])
def test_lockstep_over_seeds_equals_each_run_alone(lengths, teacher_forced):
    runs = assert_lockstep_equals_alone(
        LOCKSTEP_MODEL, LOCKSTEP_POLICIES, lengths, 6, teacher_forced, seeds=LOCKSTEP_SEEDS
    )
    if not teacher_forced:
        assert len({tuple(run.trace.consumed_tokens()) for run in runs}) > 2


@pytest.mark.parametrize("teacher_forced", [True, False], ids=["teacher_forced", "free_running"])
@pytest.mark.parametrize("prompt", ["random", "file"])
def test_lockstep_start_over_seeds_equals_each_run_alone(prompt, teacher_forced, tmp_path):
    # One start_runs over the six runs: seeds 7, 8, 9 and 10 prefill
    # together, two blocks of rows over four caches, and the second run of
    # seeds 7 and 8 gets a copy of that seed's cache.
    prompt_file = None
    if prompt == "file":
        path = tmp_path / "prompt.txt"
        path.write_text(" ".join(map(str, make_prompt(LOCKSTEP_MODEL, B + 3, seed=3))))
        prompt_file = str(path)
    runs = assert_lockstep_equals_alone(
        LOCKSTEP_MODEL, LOCKSTEP_POLICIES, [B + 3] * 6, 6, teacher_forced,
        seeds=LOCKSTEP_SEEDS, together=True, prompt_file=prompt_file,
    )
    prompts = {tuple(run.trace.prompt) for run in runs}
    assert len(prompts) == (1 if prompt == "file" else 4)
    if not teacher_forced:
        assert len({tuple(run.trace.consumed_tokens()) for run in runs}) > 2


@settings(max_examples=15, deadline=None)
@given(
    n_layers=st.integers(1, 3),
    n_kv_heads=st.integers(1, 2),
    group=st.integers(1, 3),
    head_dim=st.sampled_from([2, 4, 8]),
    vocab=st.integers(2, 48),
    seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=4, unique=True),
    share=st.booleans(),
    picks=st.lists(st.sampled_from(range(len(LOCKSTEP_POLICIES))), min_size=5, max_size=5),
    lengths=st.lists(st.integers(1, 2 * B), min_size=5, max_size=5),
    equal_positions=st.booleans(),
    together=st.booleans(),
    file_prompt=st.booleans(),
    teacher_forced=st.booleans(),
)
def test_lockstep_over_seeds_any_shape(
    n_layers, n_kv_heads, group, head_dim, vocab, seeds, share, picks, lengths, equal_positions, together,
    file_prompt, teacher_forced, tmp_path_factory,
):
    model = ModelConfig(
        n_layers=n_layers,
        n_query_heads=n_kv_heads * group,
        n_kv_heads=n_kv_heads,
        head_dim=head_dim,
        vocab_size=vocab,
        seed=seeds[0],
    )
    # One more run over the first seed's weights object, when ``share``.
    seeds = seeds + seeds[:1] if share else seeds
    policies = [
        replace(LOCKSTEP_POLICIES[i], protected_layers=min(LOCKSTEP_POLICIES[i].protected_layers, n_layers))
        for i in picks[: len(seeds)]
    ]
    # Runs started together share their prompt length; a file prompt is
    # the same for every run.
    prompt_file = None
    if file_prompt:
        path = tmp_path_factory.mktemp("prompt") / "prompt.txt"
        path.write_text(" ".join(map(str, make_prompt(model, lengths[0], seeds[0]))))
        prompt_file = str(path)
    equal = equal_positions or together or file_prompt
    lengths = [lengths[0]] * len(seeds) if equal else lengths[: len(seeds)]
    assert_lockstep_equals_alone(
        model, policies, lengths, 4, teacher_forced, seeds=seeds, together=together, prompt_file=prompt_file
    )
