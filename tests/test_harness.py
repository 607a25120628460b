import gc
import json
import math
import weakref
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cache_state import no_evictions, raw_state
from morphkv import (
    EvictionPolicyConfig,
    ModelConfig,
    RunConfig,
    StepTrace,
    compare,
    harness,
    load_run_config,
    oracle_regression,
    run,
    start_runs,
    step_runs,
)
from morphkv.cache import KvCacheState
from morphkv.errors import (
    InstanceTooLarge,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidShape,
    InvalidToken,
    TraceMismatch,
)
from morphkv.harness import (
    cache_ratios,
    check_regression_baseline,
    make_prompt,
    regression_means,
    render_compare_csv,
    render_metrics_csv,
    render_regression_csv,
    write_compare_outputs,
    write_run_outputs,
)
from morphkv.metrics import kv_bytes
from morphkv.model import decode_step, greedy_token, init_model, prefill
from morphkv.morph import fuse
from morphkv.trace import peak_occupancy

SMALL_MODEL = ModelConfig(n_layers=2, n_query_heads=4, n_kv_heads=2, head_dim=4, vocab_size=32, seed=41)


def small_run_config(kind="morphkv", **policy_kwargs) -> RunConfig:
    defaults = dict(distant_capacity=3, recent_window=2)
    defaults.update(policy_kwargs)
    if kind in ("scissorhands", "streamingllm", "full_attention", "snapkv", "h2o"):
        defaults.setdefault("fusion", "sum")
    return RunConfig(
        model=SMALL_MODEL,
        policy=EvictionPolicyConfig(kind=kind, **defaults),
        prompt_length=6,
        decode_steps=8,
    )


def run_size(config: RunConfig) -> int:
    """The entries per store a run of ``config`` holds at its peak."""
    return peak_occupancy(config.policy, len(make_prompt(config)), config.decode_steps, config.model.n_layers)


def raw_bits(decoding) -> list:
    """A run's whole cache state and its step count."""
    return raw_state(decoding.cache) + [len(decoding.trace.records)]


def live_bits(cache: KvCacheState) -> list:
    """The bytes of every read of each layer's live entries and profiles."""
    reads = (cache.keys_matrix, cache.values_matrix, cache.positions, cache.received)
    return [read(layer).tobytes() for layer in range(cache.n_layers) for read in (*reads, cache.score_matrix)]


class TestRunDeterminism:
    def test_identical_reruns_bit_for_bit(self):
        config = small_run_config()
        a = run(config)
        b = run(config)
        assert a.trace.to_dict() == b.trace.to_dict()
        # Each stepping run draws its own weights, as ``run`` does.
        stepped = [start_runs([config], [init_model(config.model)])[0] for _ in range(2)]
        np.testing.assert_array_equal(stepped[0].out.logits, stepped[1].out.logits)
        for token in a.trace.consumed_tokens():
            la, lb = (step_runs([decoding], [token])[0].logits for decoding in stepped)
            np.testing.assert_array_equal(la, lb)

    def test_seed_changes_trajectory(self):
        config = small_run_config()
        other = replace(config, model=replace(SMALL_MODEL, seed=42))
        assert run(config).trace.consumed_tokens() != run(other).trace.consumed_tokens()

    def test_forced_tokens_replayed_verbatim(self):
        config = small_run_config()
        forced = [1, 2, 3, 4, 5, 6, 7, 8]
        (decoding,) = start_runs([config], [init_model(config.model)])
        for token in forced:
            step_runs([decoding], [token])
        assert decoding.result().trace.consumed_tokens() == forced
        with pytest.raises(InvalidParam, match="all 8 decode steps"):
            step_runs([decoding], [1])

    def test_decoding_rejects_weights_of_another_model(self):
        config = small_run_config()
        with pytest.raises(InvalidParam, match="another model config"):
            start_runs([config], [init_model(replace(SMALL_MODEL, seed=42))])

    def test_zero_decode_steps_is_a_prefill_only_run(self):
        config = replace(small_run_config(), decode_steps=0)
        assert run(config).trace.records == []
        (decoding,) = start_runs([config], [init_model(config.model)])
        assert decoding.out.logits.shape == (SMALL_MODEL.vocab_size,)


class TestRunResult:
    def stepped(self, steps: int):
        config = small_run_config()
        (decoding,) = start_runs([config], [init_model(config.model)])
        for _ in range(steps):
            step_runs([decoding], [greedy_token(decoding.out.logits)])
        return decoding

    def test_a_result_frees_its_runs_cache(self):
        decoding = self.stepped(3)
        result = decoding.result()
        cache = weakref.ref(decoding.cache)
        # Keys, values, positions, received totals and profiles: a view kept
        # by the result would keep its buffer alive without the cache.
        buffers = [weakref.ref(buf) for buf in decoding.cache._buffers]
        del decoding
        gc.collect()
        assert cache() is None
        assert all(buf() is None for buf in buffers)
        assert len(result.trace.records) == 3
        assert len(harness.snapshot(result)["layers"]) == SMALL_MODEL.n_layers

    def test_a_result_taken_mid_run_stays_as_taken(self):
        decoding = self.stepped(3)
        result, cache = decoding.result(), decoding.cache
        for layer in range(cache.n_layers):
            np.testing.assert_array_equal(result.positions[layer], cache.positions(layer))
            np.testing.assert_array_equal(result.fused_scores[layer], fuse(cache, layer, "sum"))
        occupancies, snapshot = result.occupancies(), harness.snapshot(result)
        assert snapshot["window_capacity"] == cache.window_capacity
        assert occupancies == cache.occupancies()
        for _ in range(5):
            step_runs([decoding], [greedy_token(decoding.out.logits)])
        assert harness.snapshot(decoding.result()) != snapshot
        assert harness.snapshot(result) == snapshot
        assert result.occupancies() == occupancies
        assert len(result.trace.records) == 3


class TestDebugInvariants:
    # debug_invariants holds each step record to the trace audit (the
    # policy's occupancy rule, the replayed evictions, recency protection,
    # the byte model) and the cache's positions to the audit's replay.
    @pytest.mark.parametrize(
        "kind,kwargs",
        [
            ("morphkv", dict(distant_capacity=3, recent_window=2)),
            ("morphkv", dict(distant_capacity=3, recent_window=2, compress_prefill=True)),
            ("morphkv", dict(distant_capacity=3, recent_window=2, eviction_interval=3)),
            ("morphkv", dict(distant_capacity=2, recent_window=2, protected_layers=1)),
            ("morphkv", dict(distant_capacity=0, recent_window=2)),
            ("scissorhands", dict(recent_window=4)),
            ("streamingllm", dict(recent_window=3, sink_count=2)),
            ("h2o", dict(distant_capacity=2, recent_window=2)),
            ("snapkv", dict(recent_window=2, prefill_budget=4)),
            ("full_attention", dict()),
            ("snapkv", dict(recent_window=4, prefill_budget=2)),
        ],
    )
    def test_engine_matches_analytic_occupancy(self, kind, kwargs):
        config = replace(small_run_config(kind, **kwargs), debug_invariants=True, decode_steps=10)
        run(config)  # raises InternalInvariantViolation on any drift

    def test_lost_eviction_events_are_a_bug(self, monkeypatch):
        # Every step of this run evicts; the journal drops the third step's
        # events, so the trace records fewer evictions than the cache made.
        pop, calls = KvCacheState.pop_evictions, []

        def lossy(cache):
            calls.append(pop(cache))
            return no_evictions(cache) if len(calls) == 4 else calls[-1]

        monkeypatch.setattr(KvCacheState, "pop_evictions", lossy)
        config = replace(small_run_config(), debug_invariants=True, decode_steps=10)
        with pytest.raises(InternalInvariantViolation, match="step record 2"):
            run(config)
        assert any(evicted for heads in calls[3] for evicted in heads)

    def test_prefill_only_debug_run_audits_the_prefill(self, monkeypatch):
        # With no decode step the prefill is all a debug run has to audit.
        config = replace(
            small_run_config("snapkv", recent_window=2, prefill_budget=4),
            debug_invariants=True,
            decode_steps=0,
        )
        run(config)
        pop = KvCacheState.pop_evictions

        def doubled(cache):
            evictions = pop(cache)
            evictions[0][0].append(evictions[0][0][0])
            return evictions

        monkeypatch.setattr(KvCacheState, "pop_evictions", doubled)
        with pytest.raises(InternalInvariantViolation, match=r"prefill store \(0,0\) evicts \d+ twice"):
            run(config)

    def test_debug_run_flags_nonincreasing_positions(self, monkeypatch):
        # Layer 1 files the third decode entry under its predecessor's
        # position, so its positions stop increasing and leave the replay.
        append = KvCacheState.append

        def stale(cache, layer, keys, values, position):
            append(cache, layer, keys, values, position - (layer == 1 and position == 8))

        monkeypatch.setattr(KvCacheState, "append", stale)
        config = replace(small_run_config("full_attention"), debug_invariants=True, decode_steps=4)
        with pytest.raises(InternalInvariantViolation, match="step 2: cache positions"):
            run(config)


class TestPrompts:
    def test_seeded_prompt_is_reproducible(self):
        config = small_run_config()
        assert make_prompt(config) == make_prompt(config)
        assert len(make_prompt(config)) == 6

    def test_prompt_file_whitespace_tokens(self, tmp_path):
        path = tmp_path / "prompt.txt"
        path.write_text("3 1 4\n1 5\t9")
        config = replace(small_run_config(), prompt_file=str(path))
        assert make_prompt(config) == [3, 1, 4, 1, 5, 9]

    def test_prompt_file_rejects_out_of_vocab(self, tmp_path):
        path = tmp_path / "prompt.txt"
        path.write_text("1 2 99")
        with pytest.raises(InvalidToken):
            make_prompt(replace(small_run_config(), prompt_file=str(path)))

    def test_prompt_file_rejects_empty(self, tmp_path):
        path = tmp_path / "prompt.txt"
        path.write_text(" \n ")
        with pytest.raises(InvalidConfig):
            make_prompt(replace(small_run_config(), prompt_file=str(path)))


class TestTraceIo:
    def test_roundtrip(self):
        trace = run(small_run_config()).trace
        again = StepTrace.from_dict(json.loads(json.dumps(trace.to_dict())))
        assert again.to_dict() == trace.to_dict()
        assert again.eviction_log() == trace.eviction_log()

    def test_unknown_schema_rejected(self):
        data = run(small_run_config()).trace.to_dict()
        data["schema"] = "other-schema"
        with pytest.raises(TraceMismatch):
            StepTrace.from_dict(data)

    def test_run_outputs_written(self, tmp_path):
        out = tmp_path / "out"
        write_run_outputs(run(small_run_config()), str(out))
        trace = json.loads((out / "trace.json").read_text())
        assert trace["schema"] == "kv-eviction-trace-v1"
        snapshot = json.loads((out / "snapshot.json").read_text())
        assert len(snapshot["layers"]) == SMALL_MODEL.n_layers
        csv = (out / "metrics.csv").read_text().splitlines()
        assert csv[0] == "step,policy,occupancy,bytes,ratio"
        assert len(csv) == 1 + 8

    def test_metrics_csv_full_attention_ratio_is_one(self):
        trace = run(small_run_config("full_attention")).trace
        for line in render_metrics_csv(trace).splitlines()[1:]:
            assert line.split(",")[4] == "1"

    def test_eviction_log_matches_occupancy_deltas(self):
        result = run(small_run_config())
        prev = 6 * SMALL_MODEL.n_layers * SMALL_MODEL.n_kv_heads
        for rec in result.trace.records:
            total = sum(o for layer in rec.occupancy for o in layer)
            dropped = sum(len(p) for layer in rec.evicted for p in layer)
            appended = SMALL_MODEL.n_layers * SMALL_MODEL.n_kv_heads
            assert total == prev + appended - dropped
            prev = total


class TestCompare:
    def configs(self):
        # The prompt is longer than every window, so every profile ring has
        # wrapped when the runs' caches are made from the one prefill.
        base = replace(small_run_config("full_attention"), prompt_length=10)
        morph = replace(base, policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2))
        window = replace(base, policy=EvictionPolicyConfig(kind="scissorhands", recent_window=5))
        snap = replace(base, policy=EvictionPolicyConfig(kind="snapkv", prefill_budget=5, recent_window=3))
        compressed = replace(
            base,
            policy=EvictionPolicyConfig(
                kind="morphkv", distant_capacity=2, recent_window=4, prefill_fusion="max", compress_prefill=True
            ),
        )
        return base, morph, window, snap, compressed

    @pytest.mark.parametrize("teacher_forced", [True, False])
    def test_prefills_the_shared_prompt_once(self, monkeypatch, teacher_forced):
        calls = []

        def counted(*args):
            calls.append([len(prompt) for prompt in args[1]])
            return prefill(*args)

        monkeypatch.setattr(harness, "prefill", counted)
        columns = compare(self.configs(), teacher_forced=teacher_forced)
        # One call, for the one prompt all the runs share.
        assert calls == [[10]]
        # Both one-shot prompt policies evicted from their own caches only.
        assert [col.trace.total_evictions() > 0 for col in columns[3:]] == [True, True]
        assert columns[0].trace.total_evictions() == 0

    def test_each_run_steps_a_cache_of_its_own_peak(self, monkeypatch):
        capacities = []

        def recorded(weights, tokens, caches):
            capacities.append([cache.capacity for cache in caches])
            return decode_step(weights, tokens, caches)

        monkeypatch.setattr(harness, "decode_step", recorded)
        configs = self.configs()
        compare(configs)
        # Full attention holds the 10-token prompt and all 8 steps; snapkv
        # its 5-entry prompt budget and the steps; scissorhands, which owns
        # the prefill, and morphkv one entry past the prompt; compressed
        # morphkv only the prompt.
        sizes = [18, 11, 11, 13, 10]
        assert [run_size(cfg) for cfg in configs] == sizes
        assert capacities == [sizes] * 8

    def test_teacher_forced_report(self):
        base, morph, window, *_ = self.configs()
        columns = compare([base, morph, window])
        assert all(col.error_mean is not None for col in columns)
        assert [col.trace.policy.kind for col in columns] == [
            "full_attention",
            "morphkv",
            "scissorhands",
        ]
        full_col = columns[0]
        assert all(e == 0.0 for e in full_col.error_mean)
        assert all(r == 1.0 for r in full_col.ratio)
        morph_col = columns[1]
        assert morph_col.ratio[-1] < 1.0
        assert all(e >= 0.0 for e in morph_col.error_mean)

    def test_duplicate_kind_labels_are_numbered(self):
        base, morph, *_ = self.configs()
        morph_max = replace(
            base,
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2, fusion="max"),
        )
        columns = compare([base, morph, morph_max])
        assert [col.label for col in columns] == [
            "full_attention",
            "morphkv",
            "morphkv-2",
        ]

    def test_free_running_drops_error_columns(self):
        base, morph, *_ = self.configs()
        columns = compare([base, morph], teacher_forced=False)
        assert columns[0].error_mean is None
        header = render_compare_csv(columns).splitlines()[0]
        assert "error" not in header

    # A value unlike the base config's for every field the runs must share.
    OTHER_VALUES = {
        "model": replace(SMALL_MODEL, seed=5),
        "prompt_length": 7,
        "prompt_file": "prompt.txt",
        "decode_steps": 9,
        "bytes_per_scalar": 2,
    }

    @pytest.mark.parametrize(
        "name", [f.name for f in fields(RunConfig) if f.name not in ("policy", "debug_invariants")]
    )
    def test_rejects_differing_field(self, name):
        base, morph, *_ = self.configs()
        with pytest.raises(TraceMismatch, match=f"these differ: {name}$"):
            compare([base, replace(morph, **{name: self.OTHER_VALUES[name]})])

    def test_accepts_configs_differing_in_policy_and_audit(self):
        base, morph, *_ = self.configs()
        columns = compare([base, replace(morph, debug_invariants=True)])
        assert [col.trace.policy.kind for col in columns] == ["full_attention", "morphkv"]

    def test_rejects_single_config(self):
        base, *_ = self.configs()
        with pytest.raises(InvalidParam):
            compare([base])

    def test_free_running_traces_equal_single_runs(self, tmp_path):
        configs = self.configs()
        columns = compare(configs, teacher_forced=False)
        write_compare_outputs(columns, str(tmp_path / "cmp"))
        for cfg, col in zip(configs, columns):
            write_run_outputs(run(cfg), str(tmp_path / col.label))
            written = (tmp_path / "cmp" / f"trace_{col.label}.json").read_bytes()
            assert written == (tmp_path / col.label / "trace.json").read_bytes()

    def test_teacher_forced_matches_hand_stepped_runs(self, tmp_path):
        configs = self.configs()
        columns = compare(configs)
        write_compare_outputs(columns, str(tmp_path))
        weights = init_model(SMALL_MODEL)
        runs = [start_runs([cfg], [weights])[0] for cfg in configs]
        errors = [[] for _ in runs]
        for _ in range(configs[0].decode_steps):
            token = greedy_token(runs[0].out.logits)
            outs = [step_runs([decoding], [token])[0] for decoding in runs]
            for out, run_errors in zip(outs, errors):
                run_errors.append(
                    np.mean(
                        [
                            np.linalg.norm(full - mine)
                            for full_heads, heads in zip(outs[0].attn_outputs, out.attn_outputs)
                            for full, mine in zip(full_heads, heads)
                        ]
                    )
                )
        for decoding, col, run_errors in zip(runs, columns, errors):
            written = json.loads((tmp_path / f"trace_{col.label}.json").read_text())
            assert written == decoding.result().trace.to_dict()
            assert col.error_mean == run_errors

    def test_written_artifacts(self, tmp_path):
        base, morph, *_ = self.configs()
        write_compare_outputs(compare([base, morph]), str(tmp_path))
        header = (tmp_path / "compare.csv").read_text().splitlines()[0]
        assert header.startswith("step,occupancy_full_attention,bytes_full_attention,")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("label,kind,final_bytes,final_ratio")
        assert (tmp_path / "trace_full_attention.json").exists()
        assert (tmp_path / "trace_morphkv.json").exists()


class TestStepRuns:
    """``step_runs`` steps every run or none: each refused call leaves every
    run's cache and trace as they were."""

    def assert_refused(self, error, runs, tokens, match):
        before = [raw_bits(decoding) for decoding in runs]
        with pytest.raises(error, match=match):
            step_runs(runs, tokens)
        assert [raw_bits(decoding) for decoding in runs] == before

    def two_runs(self) -> list:
        weights = init_model(SMALL_MODEL)
        return start_runs([small_run_config(), small_run_config("h2o")], [weights, weights])

    def test_a_token_outside_the_vocabulary(self):
        runs = self.two_runs()
        for tokens in ([1, SMALL_MODEL.vocab_size], [-1, 1]):
            self.assert_refused(InvalidToken, runs, tokens, "outside vocabulary of 32")

    def test_a_token_list_of_another_length(self):
        runs = self.two_runs()
        for tokens in ([1], [1, 2, 3]):
            self.assert_refused(InvalidShape, runs, tokens, f"one token per cache, got {len(tokens)} for 2")

    def test_a_run_with_no_steps_left(self):
        config = small_run_config()
        weights = init_model(config.model)
        live = start_runs([config], [weights])
        # The finished run's cache has room: only its step count refuses it.
        (done,) = start_runs([replace(config, decode_steps=1)], [weights])
        step_runs([done], [1])
        assert done.cache.max_occupancy() < done.cache.capacity
        self.assert_refused(InvalidParam, live + [done], [1, 1], "all 1 decode steps are done")

    def test_runs_over_two_seeds_step_together_as_alone(self):
        # Each run has weights of its own; the shape is the one thing shared.
        configs = [replace(small_run_config(kind), model=replace(SMALL_MODEL, seed=seed))
                   for kind, seed in (("morphkv", 41), ("h2o", 42), ("morphkv", 43))]
        together = [start_runs([cfg], [init_model(cfg.model)])[0] for cfg in configs]
        alone = [start_runs([cfg], [init_model(cfg.model)])[0] for cfg in configs]
        for _ in range(configs[0].decode_steps):
            tokens = [greedy_token(decoding.out.logits) for decoding in together]
            outs = step_runs(together, tokens)
            for decoding, single, token, out in zip(together, alone, tokens, outs):
                np.testing.assert_array_equal(out.logits, step_runs([single], [token])[0].logits)
                assert live_bits(decoding.cache) == live_bits(single.cache)
        for decoding, single in zip(together, alone):
            assert decoding.result().trace.to_dict() == single.result().trace.to_dict()
        assert len({tuple(decoding.trace.consumed_tokens()) for decoding in together}) == 3

    # Another vocabulary, layer count, KV head count or head size at the same
    # d_model, or another d_model: numpy would fail to stack the first and
    # the caches would not match the others.
    @pytest.mark.parametrize(
        "other",
        [dict(vocab_size=33), dict(n_layers=3), dict(n_kv_heads=1), dict(n_kv_heads=4),
         dict(n_query_heads=8, head_dim=2), dict(n_query_heads=8, n_kv_heads=4)],
        ids=["vocab", "layers", "fewer_kv_heads", "more_kv_heads", "head_dim", "d_model"],
    )
    def test_runs_over_another_model_shape(self, other):
        config = small_run_config()
        foreign = replace(config, model=replace(SMALL_MODEL, seed=42, **other))
        runs = [start_runs([cfg], [init_model(cfg.model)])[0] for cfg in (config, foreign, config)]
        self.assert_refused(InvalidParam, runs, [1, 1, 1], "one model shape")

    def test_one_run_listed_twice(self):
        config = small_run_config()
        weights = init_model(config.model)
        (other,), (twice,) = start_runs([config], [weights]), start_runs([config], [weights])
        self.assert_refused(InvalidParam, [other, twice, twice], [1, 1, 1], "same cache twice")

    def test_no_runs(self):
        with pytest.raises(InvalidParam, match="one or more runs"):
            step_runs([], [])
        with pytest.raises(InvalidParam, match="at least one config"):
            start_runs([], [])

    @pytest.mark.parametrize("teacher_forced", [True, False])
    def test_runs_of_two_starts_step_together_as_alone(self, teacher_forced):
        # Different prompt lengths put the runs' rows at different positions.
        configs = [replace(small_run_config(), prompt_length=6), replace(small_run_config("h2o"), prompt_length=11)]
        weights = init_model(SMALL_MODEL)
        together = [start_runs([cfg], [weights])[0] for cfg in configs]
        alone = [start_runs([cfg], [weights])[0] for cfg in configs]
        for _ in range(configs[0].decode_steps):
            if teacher_forced:
                tokens = [greedy_token(together[0].out.logits)] * 2
            else:
                tokens = [greedy_token(decoding.out.logits) for decoding in together]
            outs = step_runs(together, tokens)
            for decoding, single, token, out in zip(together, alone, tokens, outs):
                assert out is decoding.out
                np.testing.assert_array_equal(out.logits, step_runs([single], [token])[0].logits)
                assert live_bits(decoding.cache) == live_bits(single.cache)
        for decoding, single in zip(together, alone):
            assert decoding.result().trace.to_dict() == single.result().trace.to_dict()


class TestStartRunsOverSeeds:
    """``start_runs`` over a list of weights objects prefills the distinct
    objects' prompts in one ``prefill`` call and refuses bad input before
    any cache exists."""

    def configs(self):
        seeded = [(41, "morphkv", 2), (42, "h2o", 2), (41, "scissorhands", 4), (43, "morphkv", 3)]
        return [
            replace(small_run_config(kind, recent_window=window), model=replace(SMALL_MODEL, seed=seed))
            for seed, kind, window in seeded
        ]

    def test_one_prefill_for_every_seed(self, monkeypatch):
        configs = self.configs()
        weights = {seed: init_model(replace(SMALL_MODEL, seed=seed)) for seed in (41, 42, 43)}
        calls = []

        def counted(*args):
            calls.append([len(prompt) for prompt in args[1]])
            return prefill(*args)

        monkeypatch.setattr(harness, "prefill", counted)
        together = start_runs(configs, [weights[cfg.model.seed] for cfg in configs])
        # Seeds 41, 42 and 43 in one call; the second run of seed 41 gets a
        # copy, at its wider window, of the first one's cache.
        assert calls == [[6, 6, 6]]
        assert together[0].cache.window_capacity == 2 and together[2].cache.window_capacity == 4
        for cfg, decoding in zip(configs, together):
            (single,) = start_runs([cfg], [weights[cfg.model.seed]])
            assert decoding.trace.prompt == single.trace.prompt
            assert decoding.out.logits.tobytes() == single.out.logits.tobytes()
            assert live_bits(decoding.cache) == live_bits(single.cache)
            assert decoding.cache.capacity == single.cache.capacity
            assert decoding.cache.window_capacity == single.cache.window_capacity
        assert len({tuple(decoding.trace.prompt) for decoding in together}) == 3

    @pytest.fixture
    def no_cache(self, monkeypatch):
        """Fails the test if ``start_runs`` makes any cache."""

        def refuse(*args):
            raise AssertionError("a cache was made before the input was refused")

        monkeypatch.setattr(harness.KvCacheState, "for_model", refuse)

    @pytest.mark.parametrize(
        "case, error, match",
        [
            ("too_few_weights", InvalidShape, "one weights object per config, got 3 for 4"),
            ("another_shape", InvalidParam, "another model config"),
            ("another_seed", InvalidParam, "another model config"),
            ("another_prompt", TraceMismatch, "these differ: prompt_length$"),
            ("one_object_two_seeds", TraceMismatch, "these differ: model$"),
        ],
    )
    def test_refused_before_any_cache(self, case, error, match, no_cache):
        configs = self.configs()
        weights = [init_model(cfg.model) for cfg in configs]
        if case == "too_few_weights":
            weights = weights[:3]
        elif case == "another_shape":
            weights[1] = init_model(replace(configs[1].model, n_layers=3))
        elif case == "another_seed":
            weights[1] = init_model(replace(configs[1].model, seed=99))
        elif case == "another_prompt":
            configs[3] = replace(configs[3], prompt_length=7)
        else:
            # One weights object for every run: their seeds must agree too.
            weights = [weights[0]] * len(configs)
        with pytest.raises(error, match=match):
            start_runs(configs, weights)

    def test_runs_over_one_object_share_its_seed(self, no_cache):
        # Two configs differing only in seed cannot share one weights object.
        a = small_run_config()
        b = replace(a, model=replace(SMALL_MODEL, seed=SMALL_MODEL.seed + 1))
        w = init_model(a.model)
        with pytest.raises(TraceMismatch, match="these differ: model$"):
            start_runs([a, b], [w, w])


class TestStartRunsCopies:
    """``start_runs`` prefills once and gives every run but the one with the
    largest window a copy of that cache, at its own window and peak."""

    def test_equals_a_run_that_prefills_itself(self):
        config = small_run_config(compress_prefill=True, distant_capacity=1)
        wider = replace(config, policy=replace(config.policy, recent_window=5))
        weights = init_model(config.model)
        handed, _ = start_runs([config, wider], [weights] * 2)
        (own,) = start_runs([config], [weights])
        assert handed.cache.window_capacity == own.cache.window_capacity == 2
        for decoding in (handed, own):
            for _ in range(config.decode_steps):
                step_runs([decoding], [greedy_token(decoding.out.logits)])
        assert handed.result().trace.to_dict() == own.result().trace.to_dict()

    def test_rejects_a_cache_below_the_run_peak(self, monkeypatch):
        config = small_run_config()
        size = run_size(config)
        assert size == len(make_prompt(config)) + 1
        # The prompt fits, but the run's first step would not: a sizing bug.
        monkeypatch.setattr(harness, "peak_occupancy", lambda *args: size - 1)
        (decoding,) = start_runs([config], [init_model(config.model)])
        before = raw_bits(decoding)
        with pytest.raises(InternalInvariantViolation, match="adds 1 to a store with 0 free"):
            step_runs([decoding], [greedy_token(decoding.out.logits)])
        assert raw_bits(decoding) == before


class TestConfigFiles:
    GOOD = """
[model]
n_layers = 2
n_query_heads = 4
n_kv_heads = 2
head_dim = 4
vocab_size = 32
seed = 41

[policy]
kind = morphkv
distant_capacity = 3
recent_window = 2
fusion = sum

[run]
prompt = random:6
decode_steps = 8
"""

    def test_parse_matches_programmatic_config(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text(self.GOOD)
        assert load_run_config(str(path)) == small_run_config()

    def test_inline_comments_are_stripped(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[policy]\nkind = morphkv ; selective\nrecent_window = 2\n")
        config = load_run_config(str(path))
        assert config.policy.kind == "morphkv"

    def test_prompt_file_resolved_relative_to_config(self, tmp_path):
        (tmp_path / "prompt.txt").write_text("1 2 3")
        path = tmp_path / "run.ini"
        path.write_text("[run]\nprompt = file:prompt.txt\n")
        config = load_run_config(str(path))
        assert make_prompt(config) == [1, 2, 3]

    def test_unknown_keys_rejected(self, tmp_path):
        for section, key in [("model", "layers"), ("policy", "budget"), ("run", "steps")]:
            path = tmp_path / f"{section}_{key}.ini"
            path.write_text(f"[{section}]\n{key} = 1\n")
            with pytest.raises(InvalidConfig):
                load_run_config(str(path))

    def test_unknown_section_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[extras]\nx = 1\n")
        with pytest.raises(InvalidConfig):
            load_run_config(str(path))

    def test_bad_prompt_spec_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[run]\nprompt = tokens:1,2\n")
        with pytest.raises(InvalidConfig):
            load_run_config(str(path))

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(InvalidConfig):
            load_run_config(str(tmp_path / "absent.ini"))

    def test_invalid_values_rejected(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[policy]\nkind = mystery\n")
        with pytest.raises(InvalidConfig):
            load_run_config(str(path))

    def test_every_shipped_config_loads(self):
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(config_dir.glob("*.ini"))
        assert len(paths) >= 10
        kinds = {load_run_config(str(path)).policy.kind for path in paths}
        assert kinds == {
            "morphkv",
            "full_attention",
            "scissorhands",
            "streamingllm",
            "h2o",
            "snapkv",
        }


ORACLE_MODEL = ModelConfig(n_layers=1, n_query_heads=1, n_kv_heads=1, head_dim=8, vocab_size=64, seed=100)


def oracle_config(prompt_length=6, decode_steps=8, c=4, r=2) -> RunConfig:
    return RunConfig(
        model=ORACLE_MODEL,
        policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=c, recent_window=r),
        prompt_length=prompt_length,
        decode_steps=decode_steps,
    )


class TestOracleRegression:
    def test_rows_cover_every_policy_and_instance(self):
        rows = oracle_regression(oracle_config(), instances=5)
        assert len(rows) == 5 * 5
        assert {r.policy for r in rows} == {
            "morphkv_sum",
            "morphkv_max",
            "scissorhands",
            "streamingllm",
            "h2o",
        }
        assert {r.instance_seed for r in rows} == {100, 101, 102, 103, 104}

    def test_no_policy_beats_the_optimum(self):
        rows = oracle_regression(oracle_config(), instances=8)
        for row in rows:
            assert row.error >= row.optimal_error

    def test_a_pick_at_the_optimum_scores_exactly_its_error(self):
        # Instance 164's h2o pick is the optimum, and a pick shares the
        # enumeration's arithmetic, so the two errors are the same bits.
        config = replace(oracle_config(), model=replace(ORACLE_MODEL, seed=164))
        rows = {row.policy: row for row in oracle_regression(config, instances=1)}
        assert rows["h2o"].error == rows["h2o"].optimal_error

    def test_deterministic_rerun(self):
        a = render_regression_csv(oracle_regression(oracle_config(), instances=4))
        b = render_regression_csv(oracle_regression(oracle_config(), instances=4))
        assert a == b

    def test_rejects_multi_head_model(self):
        config = replace(oracle_config(), model=ModelConfig(n_layers=1, n_query_heads=2, n_kv_heads=1, head_dim=8))
        with pytest.raises(InvalidConfig):
            oracle_regression(config, instances=1)

    def test_rejects_oversized_instance(self):
        with pytest.raises(InstanceTooLarge):
            oracle_regression(oracle_config(prompt_length=16, decode_steps=8), instances=1)

    def test_rejects_uninformative_budget(self):
        with pytest.raises(InvalidConfig):
            oracle_regression(oracle_config(c=10, r=4), instances=1)

    def test_file_prompt_bounds_by_its_own_length(self, tmp_path):
        # A file prompt leaves ``prompt_length`` at its default of 16, which
        # would count a 4-token prompt as 24 entries, over the bound of 22.
        path = tmp_path / "prompt.txt"
        path.write_text("1 2 3 4\n")
        config = replace(oracle_config(), prompt_length=16, prompt_file=str(path))
        rows = oracle_regression(config, instances=2)
        assert len(rows) == 2 * 5

    def test_file_prompt_read_once_per_start(self, monkeypatch, tmp_path):
        # One read for the length check, then one per lockstep chunk's start.
        path = tmp_path / "prompt.txt"
        path.write_text("5 1 4 1 5 9\n")
        config = replace(oracle_config(), prompt_file=str(path))
        opens, sweeps = [], {}

        def counted(file, *args, **kwargs):
            opens.append(file)
            return open(file, *args, **kwargs)

        monkeypatch.setattr(harness, "open", counted, raising=False)
        for chunk in (1, harness.INSTANCE_CHUNK):
            monkeypatch.setattr(harness, "INSTANCE_CHUNK", chunk)
            opens.clear()
            sweeps[chunk] = oracle_regression(config, instances=25)
            assert opens == [str(path)] * (1 + math.ceil(25 / chunk))
        assert len(sweeps) == 2 and sweeps[1] == sweeps[chunk]

    @pytest.mark.parametrize(
        "tokens, decode_steps, error, message",
        [(20, 8, InstanceTooLarge, "would hold 28 entries"), (1, 4, InvalidConfig, "budget")],
        ids=["too_large", "uninformative"],
    )
    def test_file_prompt_length_reaches_the_checks(
        self, tokens, decode_steps, error, message, tmp_path
    ):
        path = tmp_path / "prompt.txt"
        path.write_text(" ".join(str(t) for t in range(tokens)) + "\n")
        config = replace(oracle_config(decode_steps=decode_steps), prompt_file=str(path))
        with pytest.raises(error, match=message):
            oracle_regression(config, instances=1)

    def test_csv_layout(self):
        rows = oracle_regression(oracle_config(), instances=2)
        lines = render_regression_csv(rows).splitlines()
        assert lines[0] == "instance_seed,policy,error,optimal_error"
        assert len(lines) == 1 + 10
        first = lines[1].split(",")
        assert first[0] == "100" and first[1] == "morphkv_sum"

    def test_baseline_check_accepts_identity(self):
        rows = oracle_regression(oracle_config(), instances=4)
        check_regression_baseline(rows, render_regression_csv(rows))

    def test_baseline_check_flags_drift(self):
        rows = oracle_regression(oracle_config(), instances=4)
        drifted = render_regression_csv(rows).replace("morphkv_sum", "morphkv_sum", 1)
        drifted = drifted.replace("0.", "1.", 1)
        with pytest.raises(InternalInvariantViolation):
            check_regression_baseline(rows, drifted)

    def test_baseline_check_flags_row_count_change(self):
        # A baseline with other rows is from another sweep: bad input, not a bug.
        rows = oracle_regression(oracle_config(), instances=4)
        text = render_regression_csv(rows)
        truncated = "\n".join(text.splitlines()[:-2]) + "\n"
        with pytest.raises(InvalidParam, match="its line 19 is missing"):
            check_regression_baseline(rows, truncated)

    def test_baseline_check_rejects_other_line_endings(self):
        rows = oracle_regression(oracle_config(), instances=2)
        crlf = render_regression_csv(rows).replace("\n", "\r\n")
        with pytest.raises(InvalidParam, match="only in its line endings"):
            check_regression_baseline(rows, crlf)

    def test_means_are_per_policy(self):
        rows = oracle_regression(oracle_config(), instances=6)
        means = regression_means(rows)
        assert set(means) == {"morphkv_sum", "morphkv_max", "scissorhands", "streamingllm", "h2o"}
        manual = np.mean([r.error for r in rows if r.policy == "scissorhands"])
        assert means["scissorhands"] == pytest.approx(float(manual), abs=1e-15)


class TestFullAttentionBytes:
    def test_matches_full_run(self):
        config = small_run_config("full_attention")
        result = run(config)
        # One entry per token seen: the 6-token prompt and each step's.
        analytic = kv_bytes(config.policy, [6 + i + 1 for i in range(8)], SMALL_MODEL, 8)
        assert result.trace.byte_stream() == analytic
        assert cache_ratios(result.trace) == [1.0] * 8
