"""The names and call shapes the benchmark's span tracer patches.

``perfbench/tracer.py`` wraps call sites by attribute name from outside the
package and derives counters from positional arguments and results. A
renamed function, a changed signature or a dropped result attribute would
otherwise surface only in a traced benchmark pass. The tracer module is
loaded by path and never edited; ``perfbench/run.py`` is not imported,
because it sets BLAS environment variables on import.
"""

import importlib.util
from pathlib import Path
from types import SimpleNamespace

import pytest

from morphkv import baselines, cache, cli, harness, model, morph

REPO = Path(__file__).resolve().parent.parent
CONFIGS = REPO / "configs"
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
