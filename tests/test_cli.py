import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphkv import cli, harness
from morphkv.cli import main
from morphkv.trace import StepAudit

MORPH_INI = """
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

[run]
prompt = random:6
decode_steps = 8
"""

FULL_INI = MORPH_INI.replace("kind = morphkv", "kind = full_attention")

ORACLE_INI = """
[model]
n_layers = 1
n_query_heads = 1
n_kv_heads = 1
head_dim = 8
vocab_size = 64
seed = 100

[policy]
kind = morphkv
distant_capacity = 4
recent_window = 2

[run]
prompt = random:6
decode_steps = 8
"""


# Files the INI parser itself rejects, before any key is looked at.
MALFORMED_INI = {
    "duplicate_section": MORPH_INI + "\n[model]\nseed = 2\n",
    "duplicate_option": MORPH_INI.replace("seed = 41", "seed = 41\nseed = 42"),
    "missing_section_header": "seed = 41\n" + MORPH_INI,
    "bad_interpolation": MORPH_INI.replace("random:6", "random:%6"),
}


# Configs whose arrays no machine holds: a 10^11-token prompt, a 10^11-row
# embedding, and 10^9 layers, whose weights were once drawn layer by layer
# until memory ran out.
UNALLOCATABLE_INI = {
    "prompt": MORPH_INI.replace("random:6", "random:100000000000"),
    "vocab_size": MORPH_INI.replace("vocab_size = 32", "vocab_size = 100000000000"),
    "n_layers": MORPH_INI.replace("n_layers = 2", "n_layers = 1000000000"),
}

# Model dimensions past numpy's signed 64-bit sizes (2**70): init_model used
# to fail on them with a TypeError traceback.
OVERSIZED_INI = """
[model]
n_layers = 1
n_query_heads = {heads}
n_kv_heads = 1
head_dim = {head_dim}
vocab_size = 16

[run]
prompt = random:4
decode_steps = 2
"""

# Runs ``main`` in a child whose address space is capped at 4 GiB, so an
# oversized allocation fails at once instead of touching memory.
CAPPED_MAIN = """
import resource, sys
_, hard = resource.getrlimit(resource.RLIMIT_AS)
limit = 4 << 30
if hard != resource.RLIM_INFINITY:
    limit = min(limit, hard)
resource.setrlimit(resource.RLIMIT_AS, (limit, hard))
from morphkv.cli import main
sys.exit(main(sys.argv[1:]))
"""

SRC = Path(__file__).resolve().parent.parent / "src"


def assert_one_error_line(capsys, *needles: str) -> None:
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
    assert all(needle in lines[0] for needle in needles), lines[0]
    assert captured.out == ""


@pytest.fixture
def morph_config(tmp_path):
    path = tmp_path / "morph.ini"
    path.write_text(MORPH_INI)
    return str(path)


@pytest.fixture
def full_config(tmp_path):
    path = tmp_path / "full.ini"
    path.write_text(FULL_INI)
    return str(path)


@pytest.fixture
def oracle_config_file(tmp_path):
    path = tmp_path / "oracle.ini"
    path.write_text(ORACLE_INI)
    return str(path)


class TestRunCommand:
    def test_success_prints_summary(self, morph_config, capsys):
        assert main(["run", "--config", morph_config]) == 0
        out = capsys.readouterr().out
        assert "policy=morphkv" in out
        assert "final_occupancy=" in out

    def test_summary_reads_the_final_cache(self, morph_config, tmp_path, capsys):
        # A prefill-only run has no step record: its summary still counts
        # the compressed prompt, 2 layers x 2 KV heads x 5 entries of
        # 2 x 4 scalars of 8 bytes.
        path = tmp_path / "prefill_only.ini"
        path.write_text(
            MORPH_INI.replace("random:6", "random:9")
            .replace("decode_steps = 8", "decode_steps = 0")
            .replace("recent_window = 2", "recent_window = 2\ncompress_prefill = true")
        )
        assert main(["run", "--config", str(path)]) == 0
        assert "steps=0 final_occupancy=20 final_bytes=1280 evictions=16" in capsys.readouterr().out
        # With steps, the summary repeats the last record.
        assert main(["run", "--config", morph_config, "--out", str(tmp_path / "run")]) == 0
        last = json.loads((tmp_path / "run" / "trace.json").read_text())["steps"][-1]
        occupancy = sum(map(sum, last["occupancy"]))
        assert f"final_occupancy={occupancy} final_bytes={last['bytes']} " in capsys.readouterr().out

    def test_out_dir_writes_artifacts(self, morph_config, tmp_path, capsys):
        out = tmp_path / "artifacts"
        assert main(["run", "--config", morph_config, "--out", str(out)]) == 0
        assert (out / "trace.json").exists()
        assert (out / "metrics.csv").exists()
        assert (out / "snapshot.json").exists()

    def test_debug_invariants_flag(self, morph_config):
        assert main(["run", "--config", morph_config, "--debug-invariants"]) == 0

    def test_seed_override_changes_output(self, morph_config, capsys):
        main(["run", "--config", morph_config])
        base = capsys.readouterr().out
        main(["run", "--config", morph_config, "--seed", "77"])
        other = capsys.readouterr().out
        assert base.split()[0] == other.split()[0]

    def test_missing_config_is_input_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_bad_config_key_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text("[policy]\nbudget = 9\n")
        assert main(["run", "--config", str(path)]) == 1

    def test_attention_snapshots_key_is_input_error(self, tmp_path, capsys):
        # Snapshots are an internal switch of compare and oracle, not a run key.
        path = tmp_path / "snapshots.ini"
        path.write_text(MORPH_INI + "attention_snapshots = true\n")
        assert main(["run", "--config", str(path)]) == 1
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: ")
        assert "attention_snapshots" in lines[0]
        assert captured.out == ""

    def test_profile_overhead_key_is_input_error(self, tmp_path, capsys):
        # The option is gone; an old config naming it is bad input, not a crash.
        path = tmp_path / "overhead.ini"
        path.write_text(MORPH_INI + "profile_overhead = true\n")
        assert main(["run", "--config", str(path)]) == 1
        assert_one_error_line(capsys, "profile_overhead")

    @pytest.mark.parametrize("case", sorted(MALFORMED_INI))
    def test_malformed_ini_is_input_error(self, case, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(MALFORMED_INI[case])
        assert main(["run", "--config", str(path)]) == 1
        assert_one_error_line(capsys)

    @pytest.mark.parametrize("case", sorted(UNALLOCATABLE_INI))
    def test_unallocatable_config_is_input_error(self, case, tmp_path):
        path = tmp_path / "huge.ini"
        path.write_text(UNALLOCATABLE_INI[case])
        pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-c", CAPPED_MAIN, "run", "--config", str(path)],
            capture_output=True,
            text=True,
            timeout=30,
            # The child writes no bytecode into the source tree, whatever the
            # caller's environment says.
            env={**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"},
        )
        assert proc.returncode == 1, proc.stderr
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr
        assert proc.stdout == ""

    @pytest.mark.parametrize(
        "heads, head_dim", [(1, 2**70), (2**70, 2)], ids=["head_dim", "n_query_heads"]
    )
    def test_oversized_model_dimensions_are_input_error(self, heads, head_dim, tmp_path, capsys):
        path = tmp_path / "oversized.ini"
        path.write_text(OVERSIZED_INI.format(heads=heads, head_dim=head_dim))
        assert main(["run", "--config", str(path)]) == 1
        assert_one_error_line(capsys, "2**63")

    def test_missing_required_flag_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["run"])
        assert exc.value.code == 1

    def test_unknown_subcommand_exits_one(self):
        with pytest.raises(SystemExit) as exc:
            main(["conquer"])
        assert exc.value.code == 1


class TestOverrides:
    # ``--seed`` and ``--debug-invariants`` reach every config a command
    # loads; only ``run`` hands ``--out`` to ``write_run_outputs``.
    @pytest.mark.parametrize(
        "command, target, writes_run_outputs",
        [
            (["run", "--config", "{morph}", "--out", "{out}"], "run", True),
            (["inspect", "--config", "{morph}"], "run", False),
            (["oracle", "--config", "{morph}"], "oracle_regression", False),
            (["compare", "{full}", "{morph}", "--out", "{out}"], "compare", False),
        ],
    )
    def test_flags_reach_loaded_configs(
        self, command, target, writes_run_outputs, full_config, morph_config, tmp_path,
        monkeypatch, capsys,
    ):
        seen, written, result = [], [], object()

        def capture(config, *args, **kwargs):
            seen.append(config)
            if writes_run_outputs:
                return result
            raise ValueError("captured")

        def write(res, out_dir):
            written.append((res, out_dir))
            raise ValueError("captured")

        monkeypatch.setattr(cli, target, capture)
        monkeypatch.setattr(cli, "write_run_outputs", write)
        paths = {"full": full_config, "morph": morph_config, "out": str(tmp_path / "out")}
        argv = [arg.format(**paths) for arg in command]
        assert main(argv + ["--seed", "77", "--debug-invariants"]) == 1
        assert_one_error_line(capsys, "captured")
        configs = seen[0] if isinstance(seen[0], list) else seen
        assert len(configs) == (2 if target == "compare" else 1)
        for config in configs:
            assert config.model.seed == 77 and config.debug_invariants
        assert written == ([(result, paths["out"])] if writes_run_outputs else [])


class TestCompareCommand:
    def test_success(self, full_config, morph_config, capsys):
        assert main(["compare", full_config, morph_config]) == 0
        out = capsys.readouterr().out
        assert "full_attention:" in out
        assert "morphkv:" in out
        assert "mean_error=" in out

    def test_free_running_has_no_error_column(self, full_config, morph_config, capsys):
        assert main(["compare", full_config, morph_config, "--free-running"]) == 0
        assert "mean_error=" not in capsys.readouterr().out

    def test_single_config_is_input_error(self, full_config, capsys):
        assert main(["compare", full_config]) == 1

    def test_help_describes_the_shared_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["compare", "-h"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert "override the model seed" in out
        assert "check invariants every step" in out

    @pytest.mark.parametrize("case", sorted(MALFORMED_INI))
    def test_malformed_ini_is_input_error(self, case, full_config, tmp_path, capsys):
        path = tmp_path / "bad.ini"
        path.write_text(MALFORMED_INI[case])
        assert main(["compare", full_config, str(path)]) == 1
        assert_one_error_line(capsys)

    def test_out_dir(self, full_config, morph_config, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", full_config, morph_config, "--out", str(out)]) == 0
        assert (out / "compare.csv").exists()
        assert (out / "summary.csv").exists()


class TestOracleCommand:
    def test_stdout_csv_and_means(self, oracle_config_file, capsys):
        assert main(["oracle", "--config", oracle_config_file, "--instances", "3"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("instance_seed,policy,error,optimal_error")
        assert "mean_error[morphkv_sum]" in out

    def test_debug_invariants_audits_every_instance(self, oracle_config_file, monkeypatch, capsys):
        # Each instance is a run of its own, audited step by step when asked;
        # lockstep interleaves the instances, so steps are kept per audit
        # object (held here, so no two audits can share a key).
        checked: dict[StepAudit, list[int]] = {}
        check = StepAudit.check

        def counted(audit, record):
            checked.setdefault(audit, []).append(record.step)
            return check(audit, record)

        monkeypatch.setattr(StepAudit, "check", counted)
        argv = ["oracle", "--config", oracle_config_file, "--instances", "3"]
        assert main(argv) == 0
        assert checked == {}
        assert main(argv + ["--debug-invariants"]) == 0
        assert list(checked.values()) == [list(range(8))] * 3

    def test_out_file_and_matching_baseline(self, oracle_config_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        assert main(
            ["oracle", "--config", oracle_config_file, "--instances", "3",
             "--out-file", str(csv_path)]
        ) == 0
        assert csv_path.exists()
        capsys.readouterr()
        assert main(
            ["oracle", "--config", oracle_config_file, "--instances", "3",
             "--baseline", str(csv_path)]
        ) == 0
        assert "matches baseline" in capsys.readouterr().out

    def test_drifted_baseline_is_invariant_violation(self, oracle_config_file, tmp_path, capsys):
        csv_path = tmp_path / "sweep.csv"
        main(["oracle", "--config", oracle_config_file, "--instances", "3",
              "--out-file", str(csv_path)])
        text = csv_path.read_text()
        csv_path.write_text(text.replace("0.", "9.", 1))
        capsys.readouterr()
        assert main(
            ["oracle", "--config", oracle_config_file, "--instances", "3",
             "--baseline", str(csv_path)]
        ) == 2
        assert "invariant violation" in capsys.readouterr().err

    def test_recency_baseline_is_held_without_slack(self, oracle_config_file, monkeypatch, tmp_path, capsys):
        # The sweep's picks are scored exactly, so a selective mean 5e-13
        # above the recency baseline's is a regression, not rounding.
        def rows(ahead):
            return [
                harness.RegressionRow(100, "morphkv_sum", 0.5 + ahead, 0.25),
                harness.RegressionRow(100, "scissorhands", 0.5, 0.25),
            ]

        baseline = tmp_path / "sweep.csv"
        argv = ["oracle", "--config", oracle_config_file, "--instances", "1", "--baseline", str(baseline)]
        for ahead, code in ((0.0, 0), (5e-13, 2)):
            monkeypatch.setattr(cli, "oracle_regression", lambda config, instances, ahead=ahead: rows(ahead))
            baseline.write_text(harness.render_regression_csv(rows(ahead)))
            assert main(argv) == code
        assert "fell behind the recency baseline" in capsys.readouterr().err

    def test_baseline_from_another_sweep_is_input_error(self, oracle_config_file, tmp_path, capsys):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        tiny = SRC.parent / "configs" / "oracle_tiny.ini"
        committed = SRC.parent / "tests" / "data" / "oracle_regression.csv"
        for config, instances, baseline in [(oracle_config_file, 2, empty), (tiny, 0, committed)]:
            argv = ["oracle", "--config", config, "--instances", instances, "--baseline", baseline]
            assert main([str(a) for a in argv]) == 1
            assert "baseline is from another sweep: its line" in capsys.readouterr().err

    def test_seed_range_past_64_bits_is_input_error(self, oracle_config_file, monkeypatch, capsys):
        # Seeds 2**64 - 2 up to 2**64 + 2: the third instance's seed does not
        # fit, so no instance may start.
        draw = harness.init_model

        def refuse(config):
            raise AssertionError(f"instance {config.seed} was started")

        monkeypatch.setattr(harness, "init_model", refuse)
        argv = ["oracle", "--config", oracle_config_file, "--instances", "5"]
        assert main(argv + ["--seed", str(2**64 - 2)]) == 1
        assert_one_error_line(capsys, "instance seeds 18446744073709551614 to 18446744073709551618 pass 2**64 - 1")
        # A range ending at 2**64 - 1 runs.
        monkeypatch.setattr(harness, "init_model", draw)
        assert main(argv + ["--seed", str(2**64 - 5)]) == 0
        assert capsys.readouterr().out.count(f"{2**64 - 1},") == 5

    def test_oversized_instance_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "big.ini"
        path.write_text(ORACLE_INI.replace("prompt = random:6", "prompt = random:20"))
        assert main(["oracle", "--config", str(path), "--instances", "1"]) == 1


class TestMetricsCommand:
    def test_recompute_from_trace(self, morph_config, tmp_path, capsys):
        out = tmp_path / "artifacts"
        main(["run", "--config", morph_config, "--out", str(out)])
        capsys.readouterr()
        assert main(["metrics", "--trace", str(out / "trace.json"), "--ngram", "2"]) == 0
        text = capsys.readouterr().out
        assert text.startswith("step,policy,occupancy,bytes,ratio")
        assert "repetition n=2:" in text

    def test_garbage_trace_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text(json.dumps({"schema": "wrong"}))
        assert main(["metrics", "--trace", str(path)]) == 1

    def test_deeply_nested_trace_is_input_error(self, tmp_path, capsys):
        path = tmp_path / "trace.json"
        path.write_text("[" * 100_000)
        assert main(["metrics", "--trace", str(path)]) == 1
        assert_one_error_line(capsys)


# Input files a command cannot use: a prompt field that is no integer or
# outside MORPH_INI's vocabulary of 32, a prompt that is not UTF-8, and a
# trace cut off after its first byte. The error line must name the file
# (and the prompt's offending field).
UNPARSABLE_INPUTS = {
    "prompt_field": ("run", "prompt.txt", b"3 x 5", "'x'"),
    "prompt_token": ("run", "prompt.txt", b"3 32 5", "token 32 outside"),
    "prompt_bytes": ("run", "prompt.txt", b"3 \xff 5", "0xff"),
    "truncated_trace": ("metrics", "trace.json", b"[", "Expecting value"),
}


@pytest.mark.parametrize("case", sorted(UNPARSABLE_INPUTS))
def test_unparsable_input_file_is_named_in_its_error(case, tmp_path, capsys):
    command, name, content, detail = UNPARSABLE_INPUTS[case]
    path = tmp_path / name
    path.write_bytes(content)
    if command == "run":
        config = tmp_path / "prompted.ini"
        config.write_text(MORPH_INI.replace("random:6", f"file:{name}"))
        argv = ["run", "--config", str(config)]
    else:
        argv = ["metrics", "--trace", str(path)]
    assert main(argv) == 1
    assert_one_error_line(capsys, str(path), detail)


class TestInspectCommand:
    def test_snapshot_json_on_stdout(self, morph_config, capsys):
        assert main(["inspect", "--config", morph_config]) == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert "layers" in snapshot
        assert len(snapshot["layers"]) == 2
        # Every store is at its constant budget at the end of the run.
        for layer in snapshot["layers"]:
            for head in layer:
                assert len(head["entries"]) == 5
