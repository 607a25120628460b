"""The names and call shapes the benchmark uses from outside the package.

``perfbench/tracer.py`` wraps call sites by attribute name and derives
counters from positional arguments and results; ``perfbench/run.py`` loads
configs, draws weights and swaps ``harness.json`` by name. A renamed
function, a changed signature, a dropped result attribute or a call site
the package no longer calls would otherwise surface only in a benchmark
pass, or not at all. The tracer module is loaded by path and never edited;
``perfbench/run.py`` is read, not imported, because it sets BLAS
environment variables on import.
"""

import ast
import importlib.util
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import pytest

from morphkv import baselines, cache, cli, harness, model, morph
from morphkv.config import POLICY_KINDS

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
SRC = REPO / "src"
# The modules the tracer patches, in the namespace shape it takes.
MK = SimpleNamespace(
    cli=cli, harness=harness, baselines=baselines, morph=morph, model=model, cache=cache
)


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location(
        "perfbench_tracer", REPO / "perfbench" / "tracer.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves(tracer):
    targets = tracer.probe_targets(MK) + tracer.layer_targets(MK, tracer.json_proxy())
    missing = [(owner, attr) for owner, attr, _, _ in targets if not hasattr(owner, attr)]
    assert missing == []


def test_traced_commands_run_every_counter(tracer, tmp_path, capsys):
    stand_in = tracer.json_proxy()
    recorder = tracer.Recorder()
    argvs = [
        ["run", "--config", CONFIGS / "interval1.ini"],
        ["compare", CONFIGS / "interval1.ini", CONFIGS / "interval8.ini", "--out", tmp_path],
        ["oracle", "--config", CONFIGS / "oracle_tiny.ini", "--instances", 3],
    ]
    with tracer.replaced(harness, "json", stand_in):
        with recorder.installed(tracer.layer_targets(MK, stand_in)):
            codes = [cli.main([str(a) for a in argv]) for argv in argvs]
    capsys.readouterr()
    assert codes == [0, 0, 0]
    metrics = tracer.layer_metrics(recorder.spans)
    for name in (
        "numerics.attention_flops_computed",
        "oracle.subsets_enumerated_computed",
        "oracle.shadow_records",
        "harness.trace_bytes",
        "morph.step_s",
        "model.decode_calls",
    ):
        assert metrics[name][0] > 0, name
    # One compare of two configs over 24 steps, 2 layers of 2 KV heads.
    assert metrics["oracle.shadow_records"][0] == 2 * 24 * 2 * 2
    assert metrics["harness.snapshot_bytes_computed"][0] == 0


def test_names_the_runner_uses_outside_the_tracer():
    # ``setup_reps`` imports ``morphkv.cli`` into a clean ``sys.modules``,
    # takes the ``MK_MODULES`` from it, then loads every config and draws
    # its weights through ``harness``; ``one_pass`` swaps ``harness.json``
    # and keeps each ``cli.run`` result's trace.
    tree = ast.parse((REPO / "perfbench" / "run.py").read_text(encoding="utf-8"))
    (mk_modules,) = [
        ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and [getattr(t, "id", None) for t in node.targets] == ["MK_MODULES"]
    ]
    code = "import sys, morphkv.cli; print(*sorted(sys.modules))"
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=60,
        # A caller that writes no bytecode must get none from this child either.
        env={
            "PYTHONPATH": str(SRC),
            "OPENBLAS_NUM_THREADS": "1",
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE", ""),
        },
    )
    assert proc.returncode == 0, proc.stderr
    assert {f"morphkv.{name}" for name in mk_modules} <= set(proc.stdout.split())
    config = harness.load_run_config(str(CONFIGS / "interval1.ini"))
    harness.init_model(replace(config.model, seed=3))
    assert callable(harness.json.dump)
    assert cli.run(config).trace.to_dict()["steps"]


POLICIES = {
    "full_attention": "kind = full_attention\n",
    "morphkv": "kind = morphkv\ndistant_capacity = 3\nrecent_window = 2\ncompress_prefill = true\n",
    "h2o": "kind = h2o\ndistant_capacity = 3\nrecent_window = 2\n",
    "snapkv": "kind = snapkv\nprefill_budget = 6\nrecent_window = 2\n",
    "scissorhands": "kind = scissorhands\nrecent_window = 5\n",
    "streamingllm": "kind = streamingllm\nsink_count = 1\nrecent_window = 4\n",
}
SMALL_INI = """[model]
n_layers = 2
n_query_heads = 4
n_kv_heads = 2
head_dim = 4
vocab_size = 32
seed = 5

[policy]
{policy}
[run]
prompt = random:10
decode_steps = 6
"""


def test_every_layer_target_is_called(tracer, tmp_path, capsys):
    # Each target gets a span name of its own, so a call site the package
    # bypasses shows as a target without calls, not as a smaller total.
    paths = {}
    for kind, policy in POLICIES.items():
        paths[kind] = tmp_path / f"{kind}.ini"
        paths[kind].write_text(SMALL_INI.format(policy=policy), encoding="utf-8")
    assert set(POLICIES) == set(POLICY_KINDS)
    sweep = tmp_path / "oracle.csv"
    argvs = [
        ["run", "--config", paths["morphkv"], "--out", tmp_path / "run"],
        ["compare", *paths.values(), "--out", tmp_path / "cmp"],
        ["oracle", "--config", CONFIGS / "oracle_tiny.ini", "--instances", 2, "--out-file", sweep],
        ["oracle", "--config", CONFIGS / "oracle_tiny.ini", "--instances", 2, "--baseline", sweep],
        ["metrics", "--trace", tmp_path / "run" / "trace.json"],
    ]
    stand_in = tracer.json_proxy()
    targets = [
        (owner, attr, f"{index}:{attr}", count)
        for index, (owner, attr, _, count) in enumerate(tracer.layer_targets(MK, stand_in))
    ]
    recorder = tracer.Recorder()
    with tracer.replaced(harness, "json", stand_in):
        with recorder.installed(targets):
            codes = [cli.main([str(a) for a in argv]) for argv in argvs]
    capsys.readouterr()
    assert codes == [0] * len(argvs)
    called = {span[tracer.NAME] for span in recorder.spans}
    uncalled = [(owner, attr) for owner, attr, name, _ in targets if name not in called]
    # ``cli`` binds ``harness.run`` as its own ``run`` and calls that.
    assert uncalled == [(harness, "run")]
