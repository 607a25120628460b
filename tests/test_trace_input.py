"""Malformed trace documents are input errors: exit 1 with one ``error:`` line."""

import json

import pytest

from morphkv.cli import main
from morphkv.errors import TraceMismatch
from morphkv.harness import StepTrace

INI = """
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
decode_steps = 4
"""


@pytest.fixture(scope="module")
def trace_doc(tmp_path_factory):
    root = tmp_path_factory.mktemp("trace")
    config = root / "morph.ini"
    config.write_text(INI)
    assert main(["run", "--config", str(config), "--out", str(root / "out")]) == 0
    return json.loads((root / "out" / "trace.json").read_text())


def assert_input_error(doc, tmp_path, capsys):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["metrics", "--trace", str(path)]) == 1
    err = capsys.readouterr().err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    with pytest.raises(TraceMismatch):
        StepTrace.from_dict(doc)


def test_missing_model(trace_doc, tmp_path, capsys):
    doc = dict(trace_doc)
    del doc["model"]
    assert_input_error(doc, tmp_path, capsys)


def test_unknown_model_key(trace_doc, tmp_path, capsys):
    doc = dict(trace_doc, model=dict(trace_doc["model"], n_experts=4))
    assert_input_error(doc, tmp_path, capsys)


def test_top_level_list(trace_doc, tmp_path, capsys):
    assert_input_error([trace_doc], tmp_path, capsys)


def test_non_integer_step(trace_doc, tmp_path, capsys):
    steps = [dict(rec) for rec in trace_doc["steps"]]
    steps[1]["step"] = "x"
    assert_input_error(dict(trace_doc, steps=steps), tmp_path, capsys)


def test_wrong_model_value_type(trace_doc, tmp_path, capsys):
    doc = dict(trace_doc, model=dict(trace_doc["model"], seed="41"))
    assert_input_error(doc, tmp_path, capsys)


def test_occupancy_grid_shape_mismatch(trace_doc, tmp_path, capsys):
    steps = [dict(rec) for rec in trace_doc["steps"]]
    steps[0]["occupancy"] = steps[0]["occupancy"][:1]
    assert_input_error(dict(trace_doc, steps=steps), tmp_path, capsys)


def test_record_that_is_not_an_object(trace_doc, tmp_path, capsys):
    assert_input_error(dict(trace_doc, steps=[1, 2]), tmp_path, capsys)
