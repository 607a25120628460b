"""The step trace: one record per decode step, and its JSON document.

:meth:`StepTrace.to_dict` writes the ``trace.json`` a run leaves behind;
:meth:`StepTrace.from_dict` reads one back and rejects, with
:class:`TraceMismatch`, any document ``to_dict`` could not have produced.
Both it and a run under ``debug_invariants`` hand a :class:`StepTrace`, then
each :class:`StepRecord` as it is added, to one :class:`StepAudit`.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import asdict, dataclass, fields
from itertools import count, islice

from .config import FIELD_TYPES, EvictionPolicyConfig, ModelConfig, RunConfig, field_types, is_int
from .errors import InvalidConfig, TraceMismatch
from .metrics import kv_bytes_from_occupancies

TRACE_SCHEMA = "kv-eviction-trace-v1"


def expected_occupancy_stream(policy: EvictionPolicyConfig, prompt_len: int, layer: int) -> Iterator[int]:
    """Per-store occupancy a correct engine must show at ``layer``: after
    the one-shot prompt policy, then after each decode step, without end.
    A store starts at its count after the prompt policy and grows by one a
    step, cut back to its cap on each selecting step; stores with no cap
    never evict."""
    kind, budget = policy.kind, policy.cache_budget
    alive, cap, interval = prompt_len, None, 1
    if kind == "morphkv" and layer >= policy.protected_layers:
        alive = min(prompt_len, budget) if policy.compress_prefill else prompt_len
        cap, interval = budget, policy.eviction_interval
    elif kind == "snapkv":
        alive = min(prompt_len, policy.prefill_budget)
    elif kind == "scissorhands":
        cap = policy.recent_window
    elif kind == "streamingllm":
        cap = policy.sink_count + policy.recent_window
    elif kind == "h2o":
        cap = prompt_len + budget  # prompt entries are immortal
    yield alive
    for i in count():
        alive += 1
        if cap is not None and i % interval == 0:
            alive = min(alive, cap)
        yield alive


def peak_occupancy(policy: EvictionPolicyConfig, prompt_len: int, steps: int, n_layers: int) -> int:
    """The most entries any store of a run holds: the prompt, or a step's
    count after its append and before its eviction, one more than the
    prompt policy or the step before left. Each layer's walk ends at its
    stream's second stop, a value no higher than the one before it: the
    first stop leaves the store at its cap, each stop after it cuts the
    store back to that cap, and the rise between them repeats."""
    peak = prompt_len
    for layer in range(n_layers):
        before, stops = None, 0
        for occ in islice(expected_occupancy_stream(policy, prompt_len, layer), steps):
            if before is not None and occ <= before:
                stops += 1
                if stops == 2:
                    break
            peak, before = max(peak, occ + 1), occ
    return peak


def _evict(live: list[int], gone: list[int], recent: int, where: str) -> None:
    """Remove ``gone`` from a store's sorted ``live`` positions. Each must be live
    and outside the store's ``min(recent, len(live))`` newest, counted before any removal."""
    window = min(recent, len(live))
    for p in gone:
        i = bisect_left(live, p)
        if i == len(live) or live[i] != p:
            raise TraceMismatch(f"{where} evicts {p} twice or while it is not live")
        # Live positions newer than p; the newest ``window`` are never evicted.
        if len(live) - 1 - i < window:
            raise TraceMismatch(f"{where} evicts {p}, one of its {window} newest positions")
        del live[i]


class StepAudit:
    """Replays each store of ``trace`` on ``live[layer][head]``, its live positions
    oldest first, so its memory and per-step work follow each store's occupancy,
    not the run's length. Made, it raises :class:`TraceMismatch` unless the prefill
    evicts distinct prompt positions outside each store's
    ``min(recent_window, kept)`` newest, ``kept`` being what the prompt policy
    leaves; :meth:`check` raises it unless each store of a record evicts distinct
    live positions outside its ``recent_window`` newest (counted after the step's
    append) and the bytes equal the byte model. After the prefill and after each
    step, every store's occupancy must equal both the replay and
    :func:`expected_occupancy_stream`, whose first value is ``kept``."""

    def __init__(self, trace: StepTrace):
        self.trace, self.size = trace, len(trace.prompt)
        self.streams = [expected_occupancy_stream(trace.policy, self.size, n) for n in range(trace.model.n_layers)]
        self.live = [[list(range(self.size)) for _ in heads] for heads in trace.prefill_evictions]
        for layer, (stream, heads) in enumerate(zip(self.streams, trace.prefill_evictions)):
            kept = next(stream)
            for head, (gone, live) in enumerate(zip(heads, self.live[layer])):
                store = f"prefill store ({layer},{head})"
                _evict(live, gone, min(trace.policy.recent_window, kept), store)
                if len(live) != kept:
                    raise TraceMismatch(f"{store} occupancy {len(live)}, but {trace.policy.kind} keeps {kept}")

    def check(self, record: StepRecord) -> None:
        """Check ``record``, the next in order, and replay its evictions."""
        trace, where = self.trace, f"step record {record.step}"
        self.size += 1
        for layer, (stream, heads, occs) in enumerate(zip(self.streams, record.evicted, record.occupancy)):
            kept = next(stream)
            for head, (gone, occ, live) in enumerate(zip(heads, occs, self.live[layer])):
                store = f"{where} store ({layer},{head})"
                live.append(self.size - 1)
                _evict(live, gone, trace.policy.recent_window, store)
                if not occ == len(live) == kept:
                    raise TraceMismatch(
                        f"{store} occupancy {occ}, but its evictions leave "
                        f"{len(live)} and {trace.policy.kind} keeps {kept}"
                    )
        expected = kv_bytes_from_occupancies(record.occupancy, trace.model, trace.policy, trace.bytes_per_scalar)
        if record.bytes != expected:
            raise TraceMismatch(f"{where} bytes {record.bytes}, expected {expected}")


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
        config value its dataclass refuses, a grid that does not match the
        model's (layer, KV head) shape, step records out of order, or a
        prefill or record that fails its :class:`StepAudit`.
        """
        if not isinstance(data, dict):
            raise TraceMismatch("a trace must be a JSON object")
        if data.get("schema") != TRACE_SCHEMA:
            raise TraceMismatch(f"unknown trace schema {data.get('schema')!r}")
        _check_keys(data, _TRACE_KEYS, "trace")
        try:
            model = _config_from(ModelConfig, data["model"], "model")
            policy = _config_from(EvictionPolicyConfig, data["policy"], "policy")
            RunConfig(model=model, policy=policy)
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
        trace = cls(model, policy, list(prompt), per_scalar, prefill, [])
        audit = StepAudit(trace)
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
            record = StepRecord(**rec)
            audit.check(record)
            trace.records.append(record)
        return trace


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
