"""Run configuration, the decode loop, comparisons, and regression sweeps.

A run is fully determined by its config: seeded weights, seeded or
file-sourced prompt, greedy decoding, one policy application per decode
step. ``Decoding`` is one run stepped a token at a time; ``run`` steps it
on its own greedy tokens. ``compare`` steps several runs in lockstep:
teacher forcing feeds every run the reference's token, so their outputs
are comparable step by step; free running lets each policy follow its
own greedy trajectory, in which case only aggregate metrics are
comparable.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import keep_window, policy_step, snapkv_policy
from .cache import KvCacheState
from .config import FIELD_TYPES, EvictionPolicyConfig, ModelConfig, field_types
from .errors import (
    InstanceTooLarge,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidToken,
    TraceMismatch,
)
from .metrics import kv_bytes, kv_bytes_from_occupancies, relative_cache_ratio, repetition_rate
from .model import DecoderWeights, StepOutput, decode_step, greedy_token, init_model, prefill
from .morph import fuse, prefill_compress, select_retained
from .oracle import optimal_subset, shadow_error, subset_output_error
from .trace import StepAudit, StepRecord, StepTrace


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    policy: EvictionPolicyConfig = field(default_factory=EvictionPolicyConfig)
    prompt_length: int = 16
    prompt_file: str | None = None
    decode_steps: int = 32
    bytes_per_scalar: int = 8
    debug_invariants: bool = False
    out_dir: str | None = None

    def validate(self) -> "RunConfig":
        self.model.validate()
        self.policy.validate(self.model.n_layers)
        if self.prompt_file is None and self.prompt_length < 1:
            raise InvalidConfig("prompt_length must be >= 1")
        if self.decode_steps < 0:
            raise InvalidConfig("decode_steps must be >= 0")
        if self.bytes_per_scalar < 1:
            raise InvalidConfig("bytes_per_scalar must be >= 1")
        return self


@dataclass
class RunResult:
    config: RunConfig
    trace: StepTrace
    cache: KvCacheState
    prefill_logits: np.ndarray
    logits: list[np.ndarray]
    # Not a field: perfbench's tracer.snapshot_bytes reads it and counts 0 for None.
    attn_outputs = None


def make_prompt(config: RunConfig) -> list[int]:
    """Seeded random prompt, or one integer token per whitespace field."""
    vocab = config.model.vocab_size
    if config.prompt_file is not None:
        with open(config.prompt_file, "r", encoding="utf-8") as fh:
            tokens = [int(tok) for tok in fh.read().split()]
        if not tokens:
            raise InvalidConfig(f"prompt file {config.prompt_file} holds no tokens")
        for tok in tokens:
            if not 0 <= tok < vocab:
                raise InvalidToken(f"prompt token {tok} outside vocabulary of {vocab}")
        return tokens
    rng = np.random.default_rng([config.model.seed, 1])
    return [int(t) for t in rng.integers(0, vocab, size=config.prompt_length)]


class Decoding:
    """One run stepped a token at a time over given weights.

    The constructor prefills the prompt and applies any one-shot prompt
    policy; ``out`` is the last ``StepOutput``. Each :meth:`step` decodes
    one token, applies the policy and records the step; :meth:`result`
    builds the run's result and writes ``out_dir``.
    """

    def __init__(self, config: RunConfig, weights: DecoderWeights):
        config.validate()
        if weights.config != config.model:
            raise InvalidParam("weights were drawn for another model config")
        self.config, self.weights = config, weights
        self.cache = KvCacheState.for_model(config.model, config.policy.recent_window)
        self.prompt = make_prompt(config)
        self.out = prefill(weights, self.prompt, self.cache)
        self.prefill_logits = self.out.logits
        if config.policy.kind == "snapkv":
            snapkv_policy(self.cache, config.policy)
        elif config.policy.kind == "morphkv" and config.policy.compress_prefill:
            prefill_compress(self.cache, config.policy)
        # The trace keeps every eviction of every store; one int object per
        # evicted position, whichever stores evict it, keeps that list small.
        self._shared: dict[int, int] = {}
        self.prefill_evictions = self._evictions()
        self.records: list[StepRecord] = []
        self.logits: list[np.ndarray] = []
        self._audit = None

    def _evictions(self) -> list[list[list[int]]]:
        """Evicted positions per (layer, KV head) since the last call."""
        model = self.config.model
        grid = [[[] for _ in range(model.n_kv_heads)] for _ in range(model.n_layers)]
        for layer, head, positions in self.cache.pop_eviction_events():
            grid[layer][head].extend([self._shared.setdefault(p, p) for p in positions])
        return grid

    def step(self, token: int) -> StepOutput:
        """Decode ``token``, apply the policy and record the step."""
        config, cache, i = self.config, self.cache, len(self.records)
        if i == config.decode_steps:
            raise InvalidParam(f"all {i} decode steps are done")
        token = int(token)
        self.out = decode_step(self.weights, token, cache)
        policy_step(cache, self.out, config.policy, i, len(self.prompt))
        occupancy = cache.occupancies()
        record = StepRecord(
            step=i,
            token=token,
            occupancy=occupancy,
            evicted=self._evictions(),
            bytes=kv_bytes_from_occupancies(
                occupancy, config.model, config.policy, config.bytes_per_scalar
            ),
        )
        self.records.append(record)
        self.logits.append(self.out.logits)
        if config.debug_invariants:
            cache.validate()
            # A run's own trace failing its audit, prefill included, is a bug.
            try:
                if self._audit is None:
                    self._audit = StepAudit(
                        config.model,
                        config.policy,
                        config.bytes_per_scalar,
                        len(self.prompt),
                        self.prefill_evictions,
                        config.decode_steps,
                    )
                self._audit.check(i, record.occupancy, record.evicted, record.bytes)
            except TraceMismatch as exc:
                raise InternalInvariantViolation(f"run trace fails its audit: {exc}") from exc
            live = self._audit.live
            if any(cache.positions(n).tolist() != live(n) for n in range(cache.n_layers)):
                raise InternalInvariantViolation(f"step {i}: cache positions differ from the audit")
        return self.out

    def result(self) -> RunResult:
        """The run so far as a ``RunResult``; writes ``out_dir`` if set."""
        config = self.config
        trace = StepTrace(
            model=config.model,
            policy=config.policy,
            prompt=self.prompt,
            bytes_per_scalar=config.bytes_per_scalar,
            prefill_evictions=self.prefill_evictions,
            records=self.records,
        )
        result = RunResult(config, trace, self.cache, self.prefill_logits, self.logits)
        if config.out_dir is not None:
            write_run_outputs(result, config.out_dir)
        return result


def run(config: RunConfig) -> RunResult:
    """Prefill, apply any one-shot prompt policy, then decode greedily with eviction."""
    decoding = Decoding(config.validate(), init_model(config.model))
    for _ in range(config.decode_steps):
        decoding.step(greedy_token(decoding.out.logits))
    return decoding.result()


def full_attention_bytes(
    model: ModelConfig, prompt_len: int, steps: int, bytes_per_scalar: int
) -> list[int]:
    """Analytic full-attention byte stream: one entry per token seen."""
    full = EvictionPolicyConfig(kind="full_attention")
    return kv_bytes(full, [prompt_len + i + 1 for i in range(steps)], model, bytes_per_scalar)


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def render_metrics_csv(trace: StepTrace) -> str:
    full = full_attention_bytes(
        trace.model, len(trace.prompt), len(trace.records), trace.bytes_per_scalar
    )
    ratios = relative_cache_ratio(trace.byte_stream(), full) if trace.records else []
    lines = ["step,policy,occupancy,bytes,ratio"]
    for rec, occ, ratio in zip(trace.records, trace.occupancy_totals(), ratios):
        lines.append(f"{rec.step},{trace.policy.kind},{occ},{rec.bytes},{_format_float(ratio)}")
    return "\n".join(lines) + "\n"


def write_run_outputs(result: RunResult, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "trace.json"), "w", encoding="utf-8") as fh:
        json.dump(result.trace.to_dict(), fh, sort_keys=True, indent=1)
        fh.write("\n")
    with open(os.path.join(out_dir, "metrics.csv"), "w", encoding="utf-8") as fh:
        fh.write(render_metrics_csv(result.trace))
    snapshot = result.cache.snapshot(result.config.policy.fusion)
    with open(os.path.join(out_dir, "snapshot.json"), "w", encoding="utf-8") as fh:
        json.dump(snapshot, fh, sort_keys=True, indent=1)
        fh.write("\n")


@dataclass
class PolicyColumn:
    label: str
    kind: str
    occupancy: list[int]
    bytes: list[int]
    ratio: list[float]
    error_mean: list[float] | None
    error_max: list[float] | None
    repetition: float
    total_evictions: int


@dataclass
class CompareReport:
    steps: int
    teacher_forced: bool
    columns: list[PolicyColumn]


def compare(configs, teacher_forced: bool = True, out_dir: str | None = None, ngram: int = 10) -> CompareReport:
    """Step several policies over one set of weights in lockstep.

    The first config is the reference: with teacher forcing (the default)
    it picks each token greedily, every run consumes that token, and each
    run's per-step output error against the reference is reported as the
    outputs are produced. Free-running keeps each policy on its own greedy
    trajectory and drops the error columns.
    """
    configs = list(configs)
    if len(configs) < 2:
        raise InvalidParam("compare needs at least two configs")
    base = configs[0]
    if base.decode_steps < 1:
        raise InvalidParam("compare needs at least one decode step")
    for cfg in configs[1:]:
        if cfg.model != base.model:
            raise TraceMismatch("compare requires identical model configs")
        if (cfg.prompt_length, cfg.prompt_file) != (base.prompt_length, base.prompt_file):
            raise TraceMismatch("compare requires an identical prompt source")
        if cfg.decode_steps != base.decode_steps:
            raise TraceMismatch("compare requires identical decode_steps")
        if cfg.bytes_per_scalar != base.bytes_per_scalar:
            raise TraceMismatch("compare requires identical bytes_per_scalar")
    weights = init_model(base.model)
    runs = [Decoding(replace(cfg, out_dir=None), weights) for cfg in configs]
    errors: list[list[list[float]]] = [[] for _ in runs]
    for _ in range(base.decode_steps):
        token = greedy_token(runs[0].out.logits)
        for decoding, run_errors in zip(runs, errors):
            decoding.step(token if teacher_forced else greedy_token(decoding.out.logits))
            if teacher_forced:
                run_errors.append(shadow_error(runs[0].out, decoding.out))
    full = full_attention_bytes(
        base.model, len(runs[0].prompt), base.decode_steps, base.bytes_per_scalar
    )
    seen: dict[str, int] = {}
    columns, traces = [], [decoding.result().trace for decoding in runs]
    for trace, per_step in zip(traces, errors):
        kind = trace.policy.kind
        seen[kind] = seen.get(kind, 0) + 1
        columns.append(
            PolicyColumn(
                label=kind if seen[kind] == 1 else f"{kind}-{seen[kind]}",
                kind=kind,
                occupancy=trace.occupancy_totals(),
                bytes=trace.byte_stream(),
                ratio=relative_cache_ratio(trace.byte_stream(), full),
                error_mean=[float(np.mean(v)) for v in per_step] if teacher_forced else None,
                error_max=[float(np.max(v)) for v in per_step] if teacher_forced else None,
                repetition=repetition_rate(trace.consumed_tokens(), ngram).repetition_rate,
                total_evictions=trace.total_evictions(),
            )
        )
    report = CompareReport(steps=base.decode_steps, teacher_forced=teacher_forced, columns=columns)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "compare.csv"), "w", encoding="utf-8") as fh:
            fh.write(render_compare_csv(report))
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
            fh.write(render_summary_csv(report))
        for trace, col in zip(traces, report.columns):
            path = os.path.join(out_dir, f"trace_{col.label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(trace.to_dict(), fh, sort_keys=True, indent=1)
                fh.write("\n")
    return report


def render_compare_csv(report: CompareReport) -> str:
    header = ["step"]
    for col in report.columns:
        header.extend([f"occupancy_{col.label}", f"bytes_{col.label}", f"ratio_{col.label}"])
        if col.error_mean is not None:
            header.append(f"error_{col.label}")
    lines = [",".join(header)]
    for step in range(report.steps):
        row = [str(step)]
        for col in report.columns:
            row.extend(
                [str(col.occupancy[step]), str(col.bytes[step]), _format_float(col.ratio[step])]
            )
            if col.error_mean is not None:
                row.append(_format_float(col.error_mean[step]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_summary_csv(report: CompareReport) -> str:
    lines = ["label,kind,final_bytes,final_ratio,mean_error,max_error,evictions,repetition_rate"]
    for col in report.columns:
        mean_err = (
            _format_float(float(np.mean(col.error_mean))) if col.error_mean is not None else ""
        )
        max_err = (
            _format_float(float(np.max(col.error_max))) if col.error_max is not None else ""
        )
        lines.append(
            ",".join(
                [
                    col.label,
                    col.kind,
                    str(col.bytes[-1]),
                    _format_float(col.ratio[-1]),
                    mean_err,
                    max_err,
                    str(col.total_evictions),
                    _format_float(col.repetition),
                ]
            )
        )
    return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class RegressionRow:
    instance_seed: int
    policy: str
    error: float
    optimal_error: float


REGRESSION_POLICIES = ("morphkv_sum", "morphkv_max", "scissorhands", "streamingllm", "h2o")
_REGRESSION_SINKS = 2


def oracle_regression(config: RunConfig, instances: int) -> list[RegressionRow]:
    """Score every policy's retention rule against the exhaustive optimum.

    Each instance is a fresh seeded single-head, single-layer run under
    full attention. At the final step the policies each pick a subset of
    the live entries at the same ``distant_capacity + recent_window``
    budget, and the output error of each choice is recorded next to the
    enumerated optimum. Raises if any policy beats the optimum, which
    would mean the oracle itself is wrong.
    """
    config.validate()
    model = config.model
    if model.n_layers != 1 or model.n_query_heads != 1 or model.n_kv_heads != 1:
        raise InvalidConfig("oracle regression needs a single-layer, single-head model")
    if config.policy.kind != "morphkv":
        raise InvalidConfig("oracle regression takes the budget from a morphkv policy")
    if instances < 0:
        raise InvalidParam("instances must be >= 0")
    final_occupancy = config.prompt_length + config.decode_steps
    if final_occupancy > 22:
        raise InstanceTooLarge(
            f"instance would hold {final_occupancy} entries; the enumeration bound is 22"
        )
    c = config.policy.distant_capacity
    r = config.policy.recent_window
    budget = c + r
    if budget >= final_occupancy:
        raise InvalidConfig("budget must be below the final occupancy to be informative")
    rows: list[RegressionRow] = []
    for i in range(instances):
        seed = model.seed + i
        inst = replace(
            config,
            model=replace(model, seed=seed),
            policy=EvictionPolicyConfig(kind="full_attention", recent_window=r),
            out_dir=None,
            debug_invariants=False,
        )
        decoding = Decoding(inst, init_model(inst.model))
        # Decode rows only: ``cache.received`` also counts the prefill rows,
        # which would change how this pick ranks the prompt entries.
        cumulative = np.zeros(len(decoding.prompt) + inst.decode_steps)
        for _ in range(inst.decode_steps):
            row = decoding.step(greedy_token(decoding.out.logits)).attn_rows[0][0][0]
            cumulative[: row.size] += row
        cache = decoding.cache
        keys = cache.keys_matrix(0)[0]
        vals = cache.values_matrix(0)[0]
        query = decoding.out.queries[0][0][0]
        n = keys.shape[0]
        _, optimal_error = optimal_subset(query, keys, vals, budget, r)
        picks: dict[str, list[int]] = {
            "morphkv_sum": select_retained(fuse(cache, 0, "sum"), n, c, r)[0].tolist(),
            "morphkv_max": select_retained(fuse(cache, 0, "max"), n, c, r)[0].tolist(),
            "scissorhands": keep_window(n, 0, budget),
        }
        sinks = min(_REGRESSION_SINKS, budget - r)
        picks["streamingllm"] = keep_window(n, sinks, budget - sinks)
        picks["h2o"] = select_retained(cumulative[None, : n - r], n, budget - r, r)[0].tolist()
        for policy_name in REGRESSION_POLICIES:
            err = subset_output_error(query, keys, vals, picks[policy_name])
            if err < optimal_error - 1e-12:
                raise InternalInvariantViolation(
                    f"instance {seed}: {policy_name} beat the exhaustive optimum"
                )
            rows.append(RegressionRow(seed, policy_name, err, optimal_error))
    return rows


def render_regression_csv(rows: list[RegressionRow]) -> str:
    lines = ["instance_seed,policy,error,optimal_error"]
    for row in rows:
        lines.append(
            f"{row.instance_seed},{row.policy},{_format_float(row.error)},"
            f"{_format_float(row.optimal_error)}"
        )
    return "\n".join(lines) + "\n"


def regression_means(rows: list[RegressionRow]) -> dict[str, float]:
    sums: dict[str, list[float]] = {}
    for row in rows:
        sums.setdefault(row.policy, []).append(row.error)
    return {policy: float(np.mean(v)) for policy, v in sums.items()}


def check_regression_baseline(rows: list[RegressionRow], baseline_text: str) -> None:
    """Fail if the sweep drifted from the committed baseline.

    Exact text equality catches any numeric drift; the mean bound states
    the actual quality contract so the message names what regressed.
    """
    current = render_regression_csv(rows)
    means = regression_means(rows)
    if means.get("morphkv_sum", 0.0) > means.get("scissorhands", np.inf) + 1e-12:
        raise InternalInvariantViolation(
            "selective retention fell behind the recency baseline at equal budget"
        )
    if current != baseline_text:
        cur_lines = current.splitlines()
        base_lines = baseline_text.splitlines()
        for idx, (a, b) in enumerate(zip(cur_lines, base_lines)):
            if a != b:
                raise InternalInvariantViolation(
                    f"regression line {idx} drifted: {a!r} != baseline {b!r}"
                )
        raise InternalInvariantViolation(
            f"regression row count {len(cur_lines)} != baseline {len(base_lines)}"
        )


# ``[run]`` is not a dataclass: ``prompt`` sets ``prompt_length`` or
# ``prompt_file``, and ``out_dir`` is for callers only, so a config file
# cannot set it.
_RUN_KEYS = {
    "prompt": "str",
    "decode_steps": "int",
    "bytes_per_scalar": "int",
    "debug_invariants": "bool",
}


def load_run_config(path: str) -> RunConfig:
    """Parse a flat key/value config file with [model], [policy], [run] sections.

    Whatever the INI parser rejects (a duplicate section or option, a
    missing section header, a bad interpolation) is an ``InvalidConfig``
    with a one-line message.
    """
    try:
        return _parse_run_config(path)
    except configparser.Error as exc:
        raise InvalidConfig(f"malformed config file: {' '.join(str(exc).split())}") from exc


def _parse_run_config(path: str) -> RunConfig:
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise InvalidConfig(f"cannot read config file {path}")
    # configparser merges [DEFAULT] into every section and leaves it out of
    # sections(), so its keys would be dropped or blamed on another section.
    if parser.defaults():
        raise InvalidConfig(f"unknown config section [{parser.default_section}]")
    for section in parser.sections():
        if section not in ("model", "policy", "run"):
            raise InvalidConfig(f"unknown config section [{section}]")
    model = ModelConfig(**_read_section(parser, "model", field_types(ModelConfig)))
    policy = EvictionPolicyConfig(
        **_read_section(parser, "policy", field_types(EvictionPolicyConfig))
    )
    run_kwargs = _read_section(parser, "run", _RUN_KEYS)
    spec = run_kwargs.pop("prompt", None)
    if spec is not None:
        spec = spec.strip()
        if spec.startswith("random:"):
            run_kwargs["prompt_length"] = int(spec.split(":", 1)[1])
        elif spec.startswith("file:"):
            rel = spec.split(":", 1)[1]
            run_kwargs["prompt_file"] = os.path.join(os.path.dirname(os.path.abspath(path)), rel)
        else:
            raise InvalidConfig(f"prompt must be 'random:N' or 'file:PATH', got {spec!r}")
    return RunConfig(model=model, policy=policy, **run_kwargs).validate()


def _read_section(parser, name: str, types: dict[str, str]) -> dict:
    """Every key of section ``name``, read by its annotation in ``types``."""
    if not parser.has_section(name):
        return {}
    values = {}
    for key in parser[name]:
        if key not in types:
            raise InvalidConfig(f"unknown {name} key {key!r}")
        values[key] = FIELD_TYPES[types[key]].read(parser, name, key)
    return values
