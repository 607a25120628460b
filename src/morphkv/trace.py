"""The step trace: one record per decode step, and its JSON document.

:meth:`StepTrace.to_dict` writes the ``trace.json`` a run leaves behind;
:meth:`StepTrace.from_dict` reads one back and rejects, with
:class:`TraceMismatch`, any document ``to_dict`` could not have produced.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields

from .config import EvictionPolicyConfig, ModelConfig
from .errors import InvalidConfig, TraceMismatch

TRACE_SCHEMA = "kv-eviction-trace-v1"


@dataclass
class StepRecord:
    step: int
    token: int
    occupancy: list[list[int]]
    evicted: list[list[list[int]]]
    bytes: int


@dataclass
class StepTrace:
    model: ModelConfig
    policy: EvictionPolicyConfig
    prompt: list[int]
    bytes_per_scalar: int
    prefill_evictions: list[list[list[int]]]
    records: list[StepRecord]

    def consumed_tokens(self) -> list[int]:
        return [rec.token for rec in self.records]

    def occupancy_totals(self) -> list[int]:
        return [sum(occ for layer in rec.occupancy for occ in layer) for rec in self.records]

    def byte_stream(self) -> list[int]:
        return [rec.bytes for rec in self.records]

    def eviction_log(self) -> list[tuple[int, int, int, tuple[int, ...]]]:
        log = []
        for rec in self.records:
            for layer, heads in enumerate(rec.evicted):
                for head, positions in enumerate(heads):
                    if positions:
                        log.append((rec.step, layer, head, tuple(positions)))
        return log

    def total_evictions(self) -> int:
        prefill = sum(len(p) for layer in self.prefill_evictions for p in layer)
        return prefill + sum(len(p) for _, _, _, p in self.eviction_log())

    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "model": asdict(self.model),
            "policy": asdict(self.policy),
            "prompt": list(self.prompt),
            "bytes_per_scalar": self.bytes_per_scalar,
            "prefill_evictions": self.prefill_evictions,
            "steps": [asdict(rec) for rec in self.records],
        }

    @classmethod
    def from_dict(cls, data) -> "StepTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises :class:`TraceMismatch` for any document that :meth:`to_dict`
        could not have produced: a missing or unknown key, a wrong type, a
        grid that does not match the model's (layer, KV head) shape, or
        step records out of order.
        """
        if not isinstance(data, dict):
            raise TraceMismatch("a trace must be a JSON object")
        if data.get("schema") != TRACE_SCHEMA:
            raise TraceMismatch(f"unknown trace schema {data.get('schema')!r}")
        _check_keys(data, _TRACE_KEYS, "trace")
        model = _config_from(ModelConfig, data["model"], "model")
        policy = _config_from(EvictionPolicyConfig, data["policy"], "policy")
        try:
            model.validate()
            policy.validate(model.n_layers)
        except InvalidConfig as exc:
            raise TraceMismatch(f"trace config is invalid: {exc}") from exc
        prompt = data["prompt"]
        if not (_is_int_list(prompt) and prompt) or not _in_vocab(prompt, model):
            raise TraceMismatch("trace prompt must be a non-empty list of in-vocabulary tokens")
        per_scalar = data["bytes_per_scalar"]
        if not _is_int(per_scalar) or per_scalar < 1:
            raise TraceMismatch("trace bytes_per_scalar must be an integer >= 1")
        _check_grid(data["prefill_evictions"], model, _is_int_list, "prefill_evictions")
        steps = data["steps"]
        if not isinstance(steps, list):
            raise TraceMismatch("trace steps must be a list")
        for i, rec in enumerate(steps):
            where = f"step record {i}"
            if not isinstance(rec, dict):
                raise TraceMismatch(f"{where} must be an object")
            _check_keys(rec, _RECORD_KEYS, where)
            if not _is_int(rec["step"]) or rec["step"] != i:
                raise TraceMismatch(f"{where} has step {rec['step']!r}, expected {i}")
            if not _is_int(rec["token"]) or not _in_vocab([rec["token"]], model):
                raise TraceMismatch(f"{where} token must be an in-vocabulary integer")
            if not _is_int(rec["bytes"]) or rec["bytes"] < 0:
                raise TraceMismatch(f"{where} bytes must be a non-negative integer")
            _check_grid(rec["occupancy"], model, _is_int, f"{where} occupancy")
            _check_grid(rec["evicted"], model, _is_int_list, f"{where} evicted")
        return cls(
            model=model,
            policy=policy,
            prompt=list(prompt),
            bytes_per_scalar=per_scalar,
            prefill_evictions=data["prefill_evictions"],
            records=[StepRecord(**rec) for rec in steps],
        )


_TRACE_KEYS = frozenset(
    {"schema", "model", "policy", "prompt", "bytes_per_scalar", "prefill_evictions", "steps"}
)
_RECORD_KEYS = frozenset(f.name for f in fields(StepRecord))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


# Field annotations of the config dataclasses (strings, since config.py
# postpones evaluation), mapped to checks on the JSON value.
_FIELD_CHECKS = {
    "int": _is_int,
    "str": lambda v: isinstance(v, str),
    "bool": lambda v: isinstance(v, bool),
    "str | None": lambda v: v is None or isinstance(v, str),
}


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(_is_int(v) for v in value)


def _in_vocab(tokens, model: ModelConfig) -> bool:
    return all(0 <= t < model.vocab_size for t in tokens)


def _check_keys(obj: dict, expected: frozenset, where: str) -> None:
    missing, unknown = expected - obj.keys(), obj.keys() - expected
    if missing or unknown:
        raise TraceMismatch(
            f"{where}: missing keys {sorted(missing)}, unknown keys {sorted(unknown)}"
        )


def _config_from(cls, raw, where: str):
    if not isinstance(raw, dict):
        raise TraceMismatch(f"trace {where} must be an object")
    checks = {f.name: _FIELD_CHECKS[f.type] for f in fields(cls)}
    _check_keys(raw, frozenset(checks), f"trace {where}")
    for key, value in raw.items():
        if not checks[key](value):
            raise TraceMismatch(f"trace {where} key {key!r} has the wrong type: {value!r}")
    return cls(**raw)


def _check_grid(grid, model: ModelConfig, cell_ok, where: str) -> None:
    """A per (layer, KV head) nested list whose cells all pass ``cell_ok``."""
    ok = (
        isinstance(grid, list)
        and len(grid) == model.n_layers
        and all(
            isinstance(heads, list)
            and len(heads) == model.n_kv_heads
            and all(cell_ok(cell) for cell in heads)
            for heads in grid
        )
    )
    if not ok:
        raise TraceMismatch(
            f"{where} must be a {model.n_layers} x {model.n_kv_heads} (layer, KV head) grid"
        )
