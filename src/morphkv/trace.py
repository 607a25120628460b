"""The step trace: one record per decode step, and its JSON document.

:meth:`StepTrace.to_dict` writes the ``trace.json`` a run leaves behind;
:meth:`StepTrace.from_dict` reads one back and rejects, with
:class:`TraceMismatch`, any document ``to_dict`` could not have produced.
Both it and a run under ``debug_invariants`` check records by :class:`StepAudit`.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import asdict, dataclass, fields

from .config import FIELD_TYPES, EvictionPolicyConfig, ModelConfig, field_types, is_int
from .errors import InvalidConfig, TraceMismatch
from .metrics import kv_bytes_from_occupancies

TRACE_SCHEMA = "kv-eviction-trace-v1"


def expected_occupancy_stream(
    policy: EvictionPolicyConfig, prompt_len: int, steps: int, layer: int
) -> list[int]:
    """Per-store occupancy a correct engine must show at ``layer`` after
    each decode step. Layers that morphkv protects never evict."""
    kind = policy.kind
    budget = policy.cache_budget
    if kind == "morphkv" and layer >= policy.protected_layers:
        alive = min(prompt_len, budget) if policy.compress_prefill else prompt_len
        out = []
        for i in range(steps):
            alive += 1
            if i % policy.eviction_interval == 0 and alive > budget:
                alive = budget
            out.append(alive)
        return out
    seen = [prompt_len + i + 1 for i in range(steps)]
    if kind == "scissorhands":
        return [min(total, policy.recent_window) for total in seen]
    if kind == "streamingllm":
        return [min(total, policy.sink_count + policy.recent_window) for total in seen]
    if kind == "h2o":
        return [prompt_len + min(i + 1, budget) for i in range(steps)]
    if kind == "snapkv":
        return [min(prompt_len, policy.prefill_budget) + i + 1 for i in range(steps)]
    return seen


def _evict(evicted: list[int], gone: list[int], size: int, recent: int, where: str) -> None:
    """Add ``gone`` to a store's sorted ``evicted``: live positions, in ``range(size)``
    and not evicted yet, other than the store's ``recent`` newest."""
    window = min(recent, size - len(evicted))
    for p in gone:
        i = bisect_left(evicted, p)
        if not 0 <= p < size or (i < len(evicted) and evicted[i] == p):
            raise TraceMismatch(f"{where} evicts {p} twice or while it is not live")
        # Live positions newer than p; the newest ``window`` are never evicted.
        if size - 1 - p - (len(evicted) - i) < window:
            raise TraceMismatch(f"{where} evicts {p}, one of its {window} newest positions")
        evicted.insert(i, p)


class StepAudit:
    """Replays each store's evictions: its live positions are the ``size``
    handed out so far less its ``evicted``. :meth:`check` raises
    :class:`TraceMismatch` unless each store evicts distinct live positions
    outside its ``recent_window`` newest (counted after the step's append),
    its occupancy equals the replay and :func:`expected_occupancy_stream`,
    and the bytes equal the byte model. Prefill evictions need only be
    distinct prompt positions (snapkv may keep fewer than the window)."""

    def __init__(self, model, policy, per_scalar, prompt_len, prefill_evictions, steps):
        self.model, self.policy, self.per_scalar = model, policy, per_scalar
        self.streams = [
            expected_occupancy_stream(policy, prompt_len, steps, layer)
            for layer in range(model.n_layers)
        ]
        self.size, self.evicted = prompt_len, [[[] for _ in heads] for heads in prefill_evictions]
        for layer, heads in enumerate(prefill_evictions):
            for head, (gone, dropped) in enumerate(zip(heads, self.evicted[layer])):
                _evict(dropped, gone, prompt_len, 0, f"prefill store ({layer},{head})")

    def check(self, step: int, occupancy, evicted, nbytes) -> None:
        """Check record ``step``, the next in order, and replay its evictions."""
        where = f"step record {step}"
        self.size += 1
        for layer, (stream, heads, occs) in enumerate(zip(self.streams, evicted, occupancy)):
            for head, (gone, occ, dropped) in enumerate(zip(heads, occs, self.evicted[layer])):
                store = f"{where} store ({layer},{head})"
                _evict(dropped, gone, self.size, self.policy.recent_window, store)
                if not occ == self.size - len(dropped) == stream[step]:
                    raise TraceMismatch(
                        f"{store} occupancy {occ}, but its evictions leave "
                        f"{self.size - len(dropped)} and {self.policy.kind} keeps {stream[step]}"
                    )
        expected = kv_bytes_from_occupancies(occupancy, self.model, self.policy, self.per_scalar)
        if nbytes != expected:
            raise TraceMismatch(f"{where} bytes {nbytes}, expected {expected}")

    def live(self, layer: int) -> list[list[int]]:
        """Each KV head's replayed live positions at ``layer``, oldest first."""
        drops = map(set, self.evicted[layer])
        return [[p for p in range(self.size) if p not in drop] for drop in drops]


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
        """The ``trace.json`` document. It shares the trace's lists, not copies:
        ``prefill_evictions`` and each step's occupancy and eviction grids."""
        return {
            "schema": TRACE_SCHEMA,
            "model": asdict(self.model),
            "policy": asdict(self.policy),
            "prompt": list(self.prompt),
            "bytes_per_scalar": self.bytes_per_scalar,
            "prefill_evictions": self.prefill_evictions,
            "steps": [dict(vars(rec)) for rec in self.records],
        }

    @classmethod
    def from_dict(cls, data) -> "StepTrace":
        """Rebuild a trace from :meth:`to_dict` output.

        Raises :class:`TraceMismatch` for any document that :meth:`to_dict`
        could not have produced: a missing or unknown key, a wrong type, a
        grid that does not match the model's (layer, KV head) shape, step
        records out of order, or a record that fails its :class:`StepAudit`.
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
        if not is_int(per_scalar) or per_scalar < 1:
            raise TraceMismatch("trace bytes_per_scalar must be an integer >= 1")
        prefill, steps = data["prefill_evictions"], data["steps"]
        _check_grid(prefill, model, _is_int_list, "prefill_evictions")
        if not isinstance(steps, list):
            raise TraceMismatch("trace steps must be a list")
        audit = StepAudit(model, policy, per_scalar, len(prompt), prefill, len(steps))
        for i, rec in enumerate(steps):
            where = f"step record {i}"
            if not isinstance(rec, dict):
                raise TraceMismatch(f"{where} must be an object")
            _check_keys(rec, _RECORD_KEYS, where)
            if not is_int(rec["step"]) or rec["step"] != i:
                raise TraceMismatch(f"{where} has step {rec['step']!r}, expected {i}")
            if not is_int(rec["token"]) or not _in_vocab([rec["token"]], model):
                raise TraceMismatch(f"{where} token must be an in-vocabulary integer")
            if not is_int(rec["bytes"]) or rec["bytes"] < 0:
                raise TraceMismatch(f"{where} bytes must be a non-negative integer")
            _check_grid(rec["occupancy"], model, is_int, f"{where} occupancy")
            _check_grid(rec["evicted"], model, _is_int_list, f"{where} evicted")
            audit.check(i, rec["occupancy"], rec["evicted"], rec["bytes"])
        return cls(
            model=model,
            policy=policy,
            prompt=list(prompt),
            bytes_per_scalar=per_scalar,
            prefill_evictions=prefill,
            records=[StepRecord(**rec) for rec in steps],
        )


_TRACE_KEYS = frozenset(
    {"schema", "model", "policy", "prompt", "bytes_per_scalar", "prefill_evictions", "steps"}
)
_RECORD_KEYS = frozenset(f.name for f in fields(StepRecord))


def _is_int_list(value) -> bool:
    return isinstance(value, list) and all(is_int(v) for v in value)


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
    types = field_types(cls)
    _check_keys(raw, frozenset(types), f"trace {where}")
    for key, value in raw.items():
        if not FIELD_TYPES[types[key]].check(value):
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
