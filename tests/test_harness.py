import json
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from morphkv import (
    Decoding,
    EvictionPolicyConfig,
    ModelConfig,
    RunConfig,
    StepTrace,
    compare,
    greedy_token,
    init_model,
    load_run_config,
    oracle_regression,
    run,
)
from morphkv.cache import KvCacheState
from morphkv.errors import (
    InstanceTooLarge,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidToken,
    TraceMismatch,
)
from morphkv.harness import (
    check_regression_baseline,
    full_attention_bytes,
    make_prompt,
    regression_means,
    render_compare_csv,
    render_metrics_csv,
    render_regression_csv,
)

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


class TestRunDeterminism:
    def test_identical_reruns_bit_for_bit(self):
        config = small_run_config()
        a = run(config)
        b = run(config)
        assert a.trace.to_dict() == b.trace.to_dict()
        np.testing.assert_array_equal(a.prefill_logits, b.prefill_logits)
        for la, lb in zip(a.logits, b.logits):
            np.testing.assert_array_equal(la, lb)

    def test_seed_changes_trajectory(self):
        config = small_run_config()
        other = replace(config, model=replace(SMALL_MODEL, seed=42))
        assert run(config).trace.consumed_tokens() != run(other).trace.consumed_tokens()

    def test_forced_tokens_replayed_verbatim(self):
        config = small_run_config()
        forced = [1, 2, 3, 4, 5, 6, 7, 8]
        decoding = Decoding(config, init_model(config.model))
        for token in forced:
            decoding.step(token)
        assert decoding.result().trace.consumed_tokens() == forced
        with pytest.raises(InvalidParam, match="all 8 decode steps"):
            decoding.step(1)

    def test_decoding_rejects_weights_of_another_model(self):
        config = small_run_config()
        with pytest.raises(InvalidParam):
            Decoding(config, init_model(replace(SMALL_MODEL, seed=42)))

    def test_zero_decode_steps_is_a_prefill_only_run(self):
        config = replace(small_run_config(), decode_steps=0)
        result = run(config)
        assert result.trace.records == []
        assert result.prefill_logits.shape == (SMALL_MODEL.vocab_size,)


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
        pop, calls = KvCacheState.pop_eviction_events, []

        def lossy(cache):
            calls.append(pop(cache))
            return [] if len(calls) == 4 else calls[-1]

        monkeypatch.setattr(KvCacheState, "pop_eviction_events", lossy)
        config = replace(small_run_config(), debug_invariants=True, decode_steps=10)
        with pytest.raises(InternalInvariantViolation, match="step record 2"):
            run(config)
        assert calls[3]

    def test_debug_run_flags_nonincreasing_positions(self, monkeypatch):
        # Layer 1 files the third decode entry under its predecessor's
        # position, so its positions stop increasing and leave the replay.
        append = KvCacheState.append

        def stale(cache, layer, keys, values, position, token):
            append(cache, layer, keys, values, position - (layer == 1 and position == 8), token)

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
        config = replace(small_run_config(), out_dir=str(out))
        run(config)
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
        base = small_run_config("full_attention")
        morph = replace(base, policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2))
        window = replace(base, policy=EvictionPolicyConfig(kind="scissorhands", recent_window=5))
        return base, morph, window

    def test_teacher_forced_report(self):
        base, morph, window = self.configs()
        report = compare([base, morph, window])
        assert report.teacher_forced
        assert [col.kind for col in report.columns] == [
            "full_attention",
            "morphkv",
            "scissorhands",
        ]
        full_col = report.columns[0]
        assert all(e == 0.0 for e in full_col.error_mean)
        assert all(r == 1.0 for r in full_col.ratio)
        morph_col = report.columns[1]
        assert morph_col.ratio[-1] < 1.0
        assert all(e >= 0.0 for e in morph_col.error_mean)

    def test_duplicate_kind_labels_are_numbered(self):
        base, morph, _ = self.configs()
        morph_max = replace(
            base,
            policy=EvictionPolicyConfig(kind="morphkv", distant_capacity=3, recent_window=2, fusion="max"),
        )
        report = compare([base, morph, morph_max])
        assert [col.label for col in report.columns] == [
            "full_attention",
            "morphkv",
            "morphkv-2",
        ]

    def test_free_running_drops_error_columns(self):
        base, morph, _ = self.configs()
        report = compare([base, morph], teacher_forced=False)
        assert report.columns[0].error_mean is None
        header = render_compare_csv(report).splitlines()[0]
        assert "error" not in header

    def test_rejects_model_mismatch(self):
        base, morph, _ = self.configs()
        with pytest.raises(TraceMismatch):
            compare([base, replace(morph, model=replace(SMALL_MODEL, seed=5))])

    def test_rejects_prompt_mismatch(self):
        base, morph, _ = self.configs()
        with pytest.raises(TraceMismatch):
            compare([base, replace(morph, prompt_length=7)])

    def test_rejects_step_mismatch(self):
        base, morph, _ = self.configs()
        with pytest.raises(TraceMismatch):
            compare([base, replace(morph, decode_steps=9)])

    def test_rejects_single_config(self):
        base, _, _ = self.configs()
        with pytest.raises(InvalidParam):
            compare([base])

    def test_free_running_traces_equal_single_runs(self, tmp_path):
        configs = self.configs()
        report = compare(configs, teacher_forced=False, out_dir=str(tmp_path / "cmp"))
        for cfg, col in zip(configs, report.columns):
            run(replace(cfg, out_dir=str(tmp_path / col.label)))
            written = (tmp_path / "cmp" / f"trace_{col.label}.json").read_bytes()
            assert written == (tmp_path / col.label / "trace.json").read_bytes()

    def test_teacher_forced_matches_hand_stepped_runs(self, tmp_path):
        configs = self.configs()
        report = compare(configs, out_dir=str(tmp_path))
        weights = init_model(SMALL_MODEL)
        runs = [Decoding(cfg, weights) for cfg in configs]
        errors = [[] for _ in runs]
        for _ in range(configs[0].decode_steps):
            token = greedy_token(runs[0].out.logits)
            outs = [decoding.step(token) for decoding in runs]
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
        for decoding, col, run_errors in zip(runs, report.columns, errors):
            written = json.loads((tmp_path / f"trace_{col.label}.json").read_text())
            assert written == decoding.result().trace.to_dict()
            assert col.error_mean == run_errors

    def test_written_artifacts(self, tmp_path):
        base, morph, _ = self.configs()
        compare([base, morph], out_dir=str(tmp_path))
        header = (tmp_path / "compare.csv").read_text().splitlines()[0]
        assert header.startswith("step,occupancy_full_attention,bytes_full_attention,")
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0].startswith("label,kind,final_bytes,final_ratio")
        assert (tmp_path / "trace_full_attention.json").exists()
        assert (tmp_path / "trace_morphkv.json").exists()


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
            assert row.error >= row.optimal_error - 1e-12

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
        rows = oracle_regression(oracle_config(), instances=4)
        text = render_regression_csv(rows)
        truncated = "\n".join(text.splitlines()[:-2]) + "\n"
        with pytest.raises(InternalInvariantViolation):
            check_regression_baseline(rows, truncated)

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
        analytic = full_attention_bytes(SMALL_MODEL, 6, 8, 8)
        assert result.trace.byte_stream() == analytic
