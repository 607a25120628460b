"""Malformed trace documents are input errors: exit 1 with one ``error:`` line."""

import contextlib
import copy
import io
import json
from dataclasses import asdict
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkv import EvictionPolicyConfig, ModelConfig, StepTrace
from morphkv.cli import main
from morphkv.errors import TraceMismatch
from morphkv.trace import TRACE_SCHEMA

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


# A well-typed config value its dataclass refuses: the model's own rule, the
# rule over the model and policy pair, and a policy kind's own rule.
@pytest.mark.parametrize(
    "doc_name, section, key, value, message",
    [
        ("trace_doc", "model", "n_layers", 0, "n_layers must be >= 1"),
        ("trace_doc", "policy", "protected_layers", 3, "protected_layers exceeds n_layers"),
        ("snapkv_doc", "policy", "prefill_budget", 0, "snapkv needs prefill_budget >= 1"),
    ],
    ids=["model", "pair", "policy"],
)
def test_invalid_config_value(doc_name, section, key, value, message, request, tmp_path, capsys):
    base = request.getfixturevalue(doc_name)
    doc = dict(base, **{section: dict(base[section], **{key: value})})
    assert_input_error(doc, tmp_path, capsys)
    with pytest.raises(TraceMismatch, match=f"^trace config is invalid: {message}$"):
        StepTrace.from_dict(doc)


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


@pytest.fixture(scope="module")
def snapkv_doc(tmp_path_factory):
    # snapkv with prefill_budget <= recent_window keeps fewer prompt entries
    # than the window, so its prefill evicts prompt positions that a decode
    # step could not.
    root = tmp_path_factory.mktemp("snapkv")
    config = root / "snapkv.ini"
    morphkv = "kind = morphkv\ndistant_capacity = 3\nrecent_window = 2\n"
    config.write_text(INI.replace(morphkv, "kind = snapkv\nrecent_window = 4\nprefill_budget = 2\n"))
    assert main(["run", "--config", str(config), "--out", str(root / "out")]) == 0
    doc = json.loads((root / "out" / "trace.json").read_text())
    assert doc["prefill_evictions"][0][0] == [0, 1, 2, 3]
    return doc


def test_prefill_evictions_inside_the_window_load(snapkv_doc, tmp_path):
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(snapkv_doc))
    assert main(["metrics", "--trace", str(path)]) == 0


@pytest.mark.parametrize("position", [0, 6], ids=["duplicate", "not_a_prompt_position"])
def test_prefill_evictions_must_be_distinct_prompt_positions(
    position, snapkv_doc, tmp_path, capsys
):
    doc = copy.deepcopy(snapkv_doc)
    doc["prefill_evictions"][0][0][1] = position
    assert_input_error(doc, tmp_path, capsys)
    with pytest.raises(TraceMismatch, match=r"prefill store \(0,0\)"):
        StepTrace.from_dict(doc)


# Each moves one evicted position of store (0,0) in trace_interval1.json to
# one that store cannot evict, keeping every count: 16 prompt positions,
# step 0 evicts [0, 2, 3, 6, 8, 9, 10, 11, 12] and appends 16, step 1 evicts
# [5].
UNEVICTABLE = {
    "never_live": (0, 0, 10**9),
    "own_new_position": (0, 0, 16),
    "duplicate": (0, 1, 0),
    "evicted_before": (1, 0, 0),
}


@pytest.mark.parametrize("case", sorted(UNEVICTABLE))
def test_golden_with_an_unevictable_position(case, tmp_path, capsys):
    step, index, position = UNEVICTABLE[case]
    doc = json.loads((DATA / "trace_interval1.json").read_text())
    doc["steps"][step]["evicted"][0][0][index] = position
    assert_input_error(doc, tmp_path, capsys)


def window_doc(step_evicts: int) -> dict:
    """A one-store morphkv trace with a 2-entry window, a budget of 5 and a
    6-token prompt: the prefill evicts the newest prompt position, 5, and
    step 0 appends position 6 and evicts ``step_evicts``."""
    model = ModelConfig(n_layers=1, n_query_heads=1, n_kv_heads=1, head_dim=4, vocab_size=16)
    policy = EvictionPolicyConfig(distant_capacity=3, recent_window=2, compress_prefill=True)
    # 5 entries of a 4-scalar key and value, 8 bytes a scalar.
    record = dict(step=0, token=7, occupancy=[[5]], evicted=[[[step_evicts]]], bytes=5 * 4 * 2 * 8)
    return {
        "schema": TRACE_SCHEMA,
        "model": asdict(model),
        "policy": asdict(policy),
        "prompt": [1, 2, 3, 4, 5, 6],
        "bytes_per_scalar": 8,
        "prefill_evictions": [[[5]]],
        "steps": [record],
    }


def test_window_member_behind_an_evicted_newer_position_is_refused():
    # After step 0 the live positions are 0-4 and 6, so the window is 4 and
    # 6: position 4 is a window member although it has a newer position, 5,
    # that the prefill evicted. Evicting 3 instead is a valid trace.
    assert StepTrace.from_dict(window_doc(3)).records[0].evicted == [[[3]]]
    with pytest.raises(
        TraceMismatch, match=r"^step record 0 store \(0,0\) evicts 4, one of its 2 newest positions$"
    ):
        StepTrace.from_dict(window_doc(4))


def test_prefill_that_leaves_too_many_entries_is_refused(tmp_path, capsys):
    # snapkv at prefill_budget 2 keeps 2 of a 5-token prompt, but this
    # prefill evicts nothing; with no step record after it, only the
    # prefill's own count can refuse the trace.
    doc = dict(
        window_doc(3),
        policy=asdict(EvictionPolicyConfig(kind="snapkv", prefill_budget=2)),
        prompt=[1, 2, 3, 4, 5],
        prefill_evictions=[[[]]],
        steps=[],
    )
    path = tmp_path / "trace.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    assert main(["metrics", "--trace", str(path)]) == 1
    assert capsys.readouterr().err == "error: prefill store (0,0) occupancy 5, but snapkv keeps 2\n"


def test_one_byte_scalars_load():
    doc = window_doc(3)
    doc["bytes_per_scalar"], doc["steps"][0]["bytes"] = 1, 5 * 4 * 2
    assert StepTrace.from_dict(doc).bytes_per_scalar == 1


# Fuzzing: one mutation of a golden per example, fed through ``main``. The
# expected verdicts come from the golden's own numbers, not from the audit.
GOLDEN_TEXT = {name: (DATA / name).read_text() for name in GOLDENS}
# Any JSON value a hand-edited trace might hold where another was written.
JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(),
    st.text(max_size=3),
    st.lists(st.integers(-2, 40), max_size=3),
    st.just({}),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "trace.json"


def _evictions(doc) -> list[tuple[int, int, int, int]]:
    """(step, layer, head, index) of every evicted position in the records."""
    return [
        (rec["step"], layer, head, index)
        for rec in doc["steps"]
        for layer, heads in enumerate(rec["evicted"])
        for head, cell in enumerate(heads)
        for index in range(len(cell))
    ]


def _unevictable(doc, step: int, layer: int, head: int, index: int):
    """Positions store (layer, head) cannot evict at ``step`` in place of its
    ``index``-th eviction: never live, evicted already (by an earlier record
    or by this one), or among the ``recent_window`` newest."""
    prompt_len, recent = len(doc["prompt"]), doc["policy"]["recent_window"]
    gone = doc["steps"][step]["evicted"][layer][head]
    again = doc["prefill_evictions"][layer][head] + gone[:index] + gone[index + 1 :]
    again += [p for rec in doc["steps"][:step] for p in rec["evicted"][layer][head]]
    # Step s appends position prompt_len + s, which stays in the window,
    # and so live, for the next ``recent`` steps.
    newest = [prompt_len + step - j for j in range(min(recent, step + 1))]
    choices = [
        st.integers(max_value=-1),
        st.integers(min_value=prompt_len + step + 1),
        st.sampled_from(newest),
    ]
    if again:
        choices.append(st.sampled_from(again))
    return st.one_of(choices)


def _slots(doc) -> list[tuple[object, object]]:
    """Every (container, key) of a trace whose value a mutation may replace."""
    slots = [(doc, key) for key in doc if key != "schema"]
    slots += [(doc[section], key) for section in ("model", "policy") for key in doc[section]]
    slots += [(doc["prompt"], i) for i in range(len(doc["prompt"]))]
    grids = [doc["prefill_evictions"]]
    for rec in doc["steps"]:
        slots += [(rec, key) for key in rec]
        grids += [rec["occupancy"], rec["evicted"]]
    for grid in grids:
        slots += [(heads, head) for heads in grid for head in range(len(heads))]
    # Each evicted position, prefill ones included.
    for grid in [doc["prefill_evictions"]] + [rec["evicted"] for rec in doc["steps"]]:
        slots += [(cell, i) for heads in grid for cell in heads for i in range(len(cell))]
    return slots


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(GOLDENS), data=st.data())
def test_fuzzed_golden_loads_or_is_an_input_error(name, data, fuzz_path):
    doc = json.loads(GOLDEN_TEXT[name])
    mutation = data.draw(st.sampled_from(["unevictable", "evicted", "occupancy", "bytes", "value"]))
    if mutation in ("unevictable", "evicted"):
        step, layer, head, index = data.draw(st.sampled_from(_evictions(doc)))
        if mutation == "unevictable":
            positions = _unevictable(doc, step, layer, head, index)
        else:
            positions = st.integers(-2, len(doc["prompt"]) + len(doc["steps"]) + 2)
        doc["steps"][step]["evicted"][layer][head][index] = data.draw(positions)
    elif mutation == "occupancy":
        heads = data.draw(st.sampled_from([h for rec in doc["steps"] for h in rec["occupancy"]]))
        heads[data.draw(st.integers(0, len(heads) - 1))] = data.draw(st.integers(-1, 50))
    elif mutation == "bytes":
        data.draw(st.sampled_from(doc["steps"]))["bytes"] = data.draw(st.integers(-1, 10**4))
    else:
        container, key = data.draw(st.sampled_from(_slots(doc)))
        container[key] = data.draw(JUNK)
    fuzz_path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["metrics", "--trace", str(fuzz_path)])
    assert code in (0, 1) and "Traceback" not in err.getvalue(), err.getvalue()
    if mutation == "unevictable":
        assert code == 1
