"""Every shipped config, the README's config block and random small valid
configs load and run to completion with per-step invariant checks on, and
every config field survives a trip through INI text."""

import contextlib
import io
import re
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphkv.cli import main
from morphkv.config import FUSION_KINDS, POLICY_KINDS, EvictionPolicyConfig, ModelConfig
from morphkv.errors import InvalidConfig
from morphkv.harness import _RUN_KEYS, RunConfig, load_run_config, make_prompt, run, snapshot

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_runs_under_debug_invariants(path):
    config = replace(load_run_config(str(path)), debug_invariants=True)
    result = run(config)
    assert len(result.trace.records) == config.decode_steps


README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_config_block_loads(tmp_path):
    # The documented block must stay a config the loader accepts.
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```ini\n(.*?)^```", text, flags=re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    path = tmp_path / "readme.ini"
    path.write_text(blocks[0], encoding="utf-8")
    config = load_run_config(str(path))
    assert config.policy.prefill_fusion is None
    assert (config.prompt_length, config.decode_steps) == (96, 200)


@st.composite
def small_configs(draw):
    n_layers = draw(st.integers(1, 2))
    n_kv_heads = draw(st.integers(1, 2))
    model = ModelConfig(
        n_layers=n_layers,
        n_query_heads=n_kv_heads * draw(st.integers(1, 2)),
        n_kv_heads=n_kv_heads,
        head_dim=draw(st.sampled_from([2, 4])),
        vocab_size=draw(st.integers(2, 32)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )
    kind = draw(st.sampled_from(POLICY_KINDS))
    policy = EvictionPolicyConfig(
        kind=kind,
        distant_capacity=draw(st.integers(0, 6)),
        recent_window=draw(st.integers(1, 6)),
        fusion=draw(st.sampled_from(FUSION_KINDS)),
        prefill_fusion=draw(st.sampled_from((None, *FUSION_KINDS))),
        eviction_interval=draw(st.integers(1, 4)),
        protected_layers=draw(st.integers(0, n_layers)),
        sink_count=draw(st.integers(0, 4)),
        prefill_budget=draw(st.integers(1 if kind == "snapkv" else 0, 8)),
        compress_prefill=draw(st.booleans()),
    )
    return RunConfig(
        model=model,
        policy=policy,
        prompt_length=draw(st.integers(1, 12)),
        decode_steps=draw(st.integers(0, 12)),
        debug_invariants=True,
    )


@settings(max_examples=200, deadline=None)
@given(small_configs())
def test_random_small_configs_hold_invariants(config):
    # ``debug_invariants`` holds every step to the trace audit and the cache's
    # positions to the audit's replay; any violation raises.
    result = run(config)
    assert len(result.trace.records) == config.decode_steps
    # Every head's entries, diverged or trimmed at prefill, carry the token
    # the run consumed at their position.
    tokens = make_prompt(config) + result.trace.consumed_tokens()
    for layer, heads in enumerate(snapshot(result)["layers"]):
        for head, store in enumerate(heads):
            occ = result.occupancies()[layer][head]
            assert len(store["entries"]) == occ
            assert all(tok == tokens[pos] for pos, tok in store["entries"])
            assert len(store["fused_scores"]) == occ - min(config.policy.recent_window, occ)


def ini_text(config: RunConfig) -> str:
    """``config`` as a config file naming every model and policy field that is set."""

    def text(value):
        return str(value).lower() if isinstance(value, bool) else str(value)

    lines = []
    for section, obj in (("model", config.model), ("policy", config.policy)):
        lines.append(f"[{section}]")
        for f in fields(obj):
            value = getattr(obj, f.name)
            if value is not None:  # None is spelled by leaving the key out
                lines.append(f"{f.name} = {text(value)}")
    lines += [
        "[run]",
        f"prompt = random:{config.prompt_length}",
        f"decode_steps = {config.decode_steps}",
        f"bytes_per_scalar = {config.bytes_per_scalar}",
        f"debug_invariants = {text(config.debug_invariants)}",
    ]
    return "\n".join(lines) + "\n"


@settings(max_examples=100, deadline=None)
@given(small_configs(), st.integers(1, 16), st.booleans())
def test_ini_round_trip(config, bytes_per_scalar, debug_invariants):
    config = replace(config, bytes_per_scalar=bytes_per_scalar, debug_invariants=debug_invariants)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.ini"
        path.write_text(ini_text(config), encoding="utf-8")
        assert load_run_config(str(path)) == config


@pytest.mark.parametrize("section", ["model", "policy", "run"])
def test_unknown_key_is_input_error(section, tmp_path, capsys):
    path = tmp_path / "unknown.ini"
    path.write_text(f"[{section}]\nbogus = 1\n", encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: unknown {section} key 'bogus'\n"
    assert captured.out == ""


# A value its field's reader refuses names the section and key it sits
# under; a ``random:`` count that is no integer is a bad prompt spec.
@pytest.mark.parametrize(
    "text, message",
    [
        ("[model]\nn_layers = abc\n", "[model] n_layers: invalid literal for int() with base 10: 'abc'"),
        ("[run]\ndebug_invariants = maybe\n", "[run] debug_invariants: Not a boolean: maybe"),
        ("[run]\nprompt = random:abc\n", "prompt must be 'random:N' or 'file:PATH', got 'random:abc'"),
    ],
    ids=["int", "bool", "prompt"],
)
def test_bad_value_names_its_section_and_key(text, message, tmp_path, capsys):
    path = tmp_path / "bad_value.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n"
    assert captured.out == ""


# Every check of the three config classes, with the message it raises. Each
# config checks itself when made, by its constructor or ``replace``.
VALID = {cls: cls() for cls in (ModelConfig, EvictionPolicyConfig, RunConfig)}
INVALID = [
    (ModelConfig, {"n_layers": 0}, "n_layers must be >= 1"),
    (ModelConfig, {"n_kv_heads": 0}, "n_kv_heads must be >= 1"),
    (ModelConfig, {"n_query_heads": 0}, "n_query_heads must be a positive multiple of n_kv_heads"),
    (ModelConfig, {"n_query_heads": 3}, "n_query_heads must be a positive multiple of n_kv_heads"),
    (ModelConfig, {"head_dim": 0}, "head_dim must be even: rotary encoding rotates dimension pairs"),
    (ModelConfig, {"head_dim": 5}, "head_dim must be even: rotary encoding rotates dimension pairs"),
    (ModelConfig, {"vocab_size": 1}, "vocab_size must be >= 2"),
    (
        ModelConfig,
        {"n_query_heads": 2**62, "n_kv_heads": 1, "head_dim": 2},
        "n_query_heads * head_dim and vocab_size must be below 2**63",
    ),
    (ModelConfig, {"vocab_size": 2**63}, "n_query_heads * head_dim and vocab_size must be below 2**63"),
    (ModelConfig, {"seed": -1}, "seed must fit in an unsigned 64-bit integer"),
    (ModelConfig, {"seed": 2**64}, "seed must fit in an unsigned 64-bit integer"),
    (EvictionPolicyConfig, {"kind": "lru"}, "unknown policy kind 'lru'"),
    (EvictionPolicyConfig, {"distant_capacity": -1}, "distant_capacity must be >= 0"),
    (EvictionPolicyConfig, {"recent_window": 0}, "recent_window must be >= 1"),
    (EvictionPolicyConfig, {"fusion": "mean"}, "unknown fusion 'mean'"),
    (EvictionPolicyConfig, {"prefill_fusion": "mean"}, "unknown prefill fusion 'mean'"),
    (EvictionPolicyConfig, {"eviction_interval": 0}, "eviction_interval must be >= 1"),
    (EvictionPolicyConfig, {"protected_layers": -1}, "protected_layers must be >= 0"),
    (EvictionPolicyConfig, {"sink_count": -1}, "sink_count must be >= 0"),
    (EvictionPolicyConfig, {"kind": "snapkv"}, "snapkv needs prefill_budget >= 1"),
    (EvictionPolicyConfig, {"prefill_budget": -1}, "prefill_budget must be >= 0"),
    (RunConfig, {"policy": EvictionPolicyConfig(protected_layers=5)}, "protected_layers exceeds n_layers"),
    (RunConfig, {"prompt_length": 0}, "prompt_length must be >= 1"),
    (RunConfig, {"decode_steps": -1}, "decode_steps must be >= 0"),
    (RunConfig, {"bytes_per_scalar": 0}, "bytes_per_scalar must be >= 1"),
]


@pytest.mark.parametrize("how", ["constructor", "replace"])
@pytest.mark.parametrize(
    "cls, changes, message", INVALID, ids=[f"{cls.__name__}-{'-'.join(changes)}" for cls, changes, _ in INVALID]
)
def test_invalid_config_cannot_be_made(how, cls, changes, message):
    with pytest.raises(InvalidConfig) as exc:
        if how == "constructor":
            cls(**changes)
        else:
            replace(VALID[cls], **changes)
    assert str(exc.value) == message


def test_a_prompt_file_needs_no_prompt_length():
    assert RunConfig(prompt_length=0, prompt_file="prompt.txt").prompt_length == 0


def test_one_byte_scalars_are_valid():
    # The width rule's edge, which the byte model trusts the config to hold.
    assert RunConfig(bytes_per_scalar=1).bytes_per_scalar == 1
    assert replace(VALID[RunConfig], bytes_per_scalar=1).bytes_per_scalar == 1


@pytest.mark.parametrize(
    "text",
    ["[DEFAULT]\nseed = 3\n", "[DEFAULT]\nseed = 3\n\n[policy]\nkind = morphkv\n"],
    ids=["alone", "beside_policy"],
)
def test_default_section_is_input_error(text, tmp_path, capsys):
    # configparser merges [DEFAULT] into every section: alone, its key was
    # silently dropped; beside [policy], it was reported as a policy key.
    path = tmp_path / "default.ini"
    path.write_text(text, encoding="utf-8")
    assert main(["run", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err == "error: unknown config section [DEFAULT]\n"
    assert captured.out == ""


# The real section and key names, plus junk the loader must reject cleanly.
INI_KEYS = {
    "model": [f.name for f in fields(ModelConfig)],
    "policy": [f.name for f in fields(EvictionPolicyConfig)],
    "run": list(_RUN_KEYS),
    "DEFAULT": ["seed", "kind"],
    "bogus": ["bogus"],
}


def junk(max_size: int):
    """One line of arbitrary latin-1 text."""
    return st.text(st.characters(max_codepoint=255, exclude_characters="\n\r"), max_size=max_size)


INI_VALUES = st.one_of(
    st.integers(-(2**80), 2**80).map(str),
    st.integers(-3, 40).map(str),
    st.sampled_from([*POLICY_KINDS, *FUSION_KINDS, "true", "false", "yes", "off", "none"]),
    st.sampled_from(
        ["%(seed)s", "%(nope)s", "%", "%%", "random:", "random:-3", "random:0",
         f"random:{2**70}", "random:x", "file:", "file:missing.txt", "zip:1", "1e999",
         "nan", "0x10", "1_000", "\x00", "\xff\xfe", ""]
    ),
    junk(12),
)
INI_KEY_NAMES = sorted({key for keys in INI_KEYS.values() for key in keys})
INI_LINES = st.one_of(
    st.sampled_from(sorted(INI_KEYS)).map(lambda name: f"[{name}]"),
    st.tuples(
        st.one_of(st.sampled_from(INI_KEY_NAMES), junk(6)),
        st.sampled_from([" = ", "=", ": "]),
        INI_VALUES,
    ).map("".join),
    junk(12),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(INI_LINES, max_size=12), st.sampled_from(["utf-8", "latin-1"]))
def test_hostile_ini_text_is_config_or_input_error(lines, encoding):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "fuzz.ini"
        path.write_bytes("\n".join(lines).encode(encoding))
        try:
            assert isinstance(load_run_config(str(path)), RunConfig)
        except ValueError:
            pass
        # One config: compare rejects it before any run, or the load fails.
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()) as out:
            assert main(["compare", str(path)]) == 1
        assert out.getvalue() == ""
        assert len(err.getvalue().splitlines()) == 1 and err.getvalue().startswith("error: ")
