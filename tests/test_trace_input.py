"""Malformed trace documents are input errors: exit 1 with one ``error:`` line."""

import copy
import json
from pathlib import Path

import pytest

from morphkv.cli import main
from morphkv.errors import TraceMismatch
from morphkv.harness import StepTrace

DATA = Path(__file__).parent / "data"
GOLDENS = ("trace_interval1.json", "trace_interval8.json")

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


# One wrong JSON value per field annotation: a bool is no int, 0 is no bool,
# and only ``str | None`` fields take null.
@pytest.mark.parametrize(
    "section, key, value",
    [
        ("model", "n_layers", True),
        ("policy", "kind", None),
        ("policy", "compress_prefill", 0),
        ("policy", "prefill_fusion", 1),
    ],
)
def test_wrong_value_type_per_annotation(section, key, value, trace_doc, tmp_path, capsys):
    doc = dict(trace_doc, **{section: dict(trace_doc[section], **{key: value})})
    assert_input_error(doc, tmp_path, capsys)


@pytest.mark.parametrize("name", GOLDENS)
def test_golden_traces_load(name, capsys):
    doc = json.loads((DATA / name).read_text())
    assert len(StepTrace.from_dict(doc).records) == len(doc["steps"])
    assert main(["metrics", "--trace", str(DATA / name)]) == 0
    assert capsys.readouterr().err == ""


def test_tampered_golden_occupancy_and_bytes(tmp_path, capsys):
    # An occupancy no morphkv run can reach and a byte count that does not
    # match any occupancy: the loader used to accept both and print them.
    doc = json.loads((DATA / "trace_interval1.json").read_text())
    doc["steps"][3]["occupancy"][0][0] = 999
    doc["steps"][5]["bytes"] = 7
    assert_input_error(doc, tmp_path, capsys)


def test_occupancy_off_the_policy_stream(trace_doc, tmp_path, capsys):
    doc = copy.deepcopy(trace_doc)
    # Every step of this run trims back to the budget of 5; keep the bytes
    # consistent so only the occupancy rule can reject the record.
    rec = doc["steps"][-1]
    rec["occupancy"][1] = [6, 6]
    rec["bytes"] = rec["bytes"] // 20 * 22
    rec["evicted"][1] = [[], []]
    assert_input_error(doc, tmp_path, capsys)


def test_bytes_differ_from_the_occupancy(trace_doc, tmp_path, capsys):
    doc = copy.deepcopy(trace_doc)
    doc["steps"][0]["bytes"] += 1
    assert_input_error(doc, tmp_path, capsys)


@pytest.mark.parametrize("where", ["step", "prefill"])
def test_eviction_count_must_match_the_occupancy_change(where, trace_doc, tmp_path, capsys):
    doc = copy.deepcopy(trace_doc)
    if where == "step":
        doc["steps"][2]["evicted"][0][1].append(0)
    else:
        # One more prefill eviction leaves the first step one entry short.
        doc["prefill_evictions"][1][0] = [0]
    assert_input_error(doc, tmp_path, capsys)
