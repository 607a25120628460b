"""Run configuration, the decode loop, comparisons, and regression sweeps.

A run is fully determined by its config: seeded weights, seeded or
file-sourced prompt, greedy decoding, one policy application per decode
step. Teacher forcing replays another run's token stream through a
different policy so their caches are comparable step by step; free
running lets each policy follow its own greedy trajectory, in which case
only aggregate metrics are comparable.
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
from .model import decode_step, greedy_token, init_model, prefill
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
    attention_snapshots: bool = False
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
    last_output: object
    attn_outputs: list | None = None
    attn_rows: list | None = None


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


def _eviction_grid(events, model: ModelConfig, shared: dict[int, int]) -> list[list[list[int]]]:
    """Evicted positions per (layer, KV head), each position as its ``shared`` int."""
    grid = [[[] for _ in range(model.n_kv_heads)] for _ in range(model.n_layers)]
    for layer, head, positions in events:
        grid[layer][head].extend([shared.setdefault(p, p) for p in positions])
    return grid


def run(config: RunConfig, forced_tokens=None) -> RunResult:
    """Prefill, apply any one-shot prompt policy, then decode with eviction.

    ``forced_tokens`` replays a given token stream instead of the model's
    own greedy choices; it must cover every decode step.
    """
    config.validate()
    model_cfg, policy, steps = config.model, config.policy, config.decode_steps
    per_scalar = config.bytes_per_scalar
    weights = init_model(model_cfg)
    cache = KvCacheState.for_model(model_cfg, policy.recent_window)
    prompt = make_prompt(config)
    out = prefill(weights, prompt, cache)
    prefill_logits = out.logits
    if policy.kind == "snapkv":
        snapkv_policy(cache, policy)
    elif policy.kind == "morphkv" and policy.compress_prefill:
        prefill_compress(cache, policy)
    # The trace keeps every eviction of every store; one int object per
    # evicted position, whichever stores evict it, keeps that list small.
    shared: dict[int, int] = {}
    prefill_evictions = _eviction_grid(cache.pop_eviction_events(), model_cfg, shared)

    if forced_tokens is not None:
        forced_tokens = [int(t) for t in forced_tokens]
        if len(forced_tokens) < steps:
            raise TraceMismatch(
                f"forced token stream covers {len(forced_tokens)} of {steps} decode steps"
            )
    audit = None
    records: list[StepRecord] = []
    logits: list[np.ndarray] = []
    attn_outputs = [] if config.attention_snapshots else None
    attn_rows = [] if config.attention_snapshots else None
    for i in range(steps):
        token = forced_tokens[i] if forced_tokens is not None else greedy_token(out.logits)
        out = decode_step(weights, token, cache)
        policy_step(cache, out, policy, i, len(prompt))
        occupancy = cache.occupancies()
        record = StepRecord(
            step=i,
            token=token,
            occupancy=occupancy,
            evicted=_eviction_grid(cache.pop_eviction_events(), model_cfg, shared),
            bytes=kv_bytes_from_occupancies(occupancy, model_cfg, policy, per_scalar),
        )
        records.append(record)
        logits.append(out.logits)
        if config.attention_snapshots:
            attn_outputs.append(out.attn_outputs)
            attn_rows.append(out.attn_rows)
        if config.debug_invariants:
            cache.validate()
            # A run's own trace failing its audit, prefill included, is a bug.
            try:
                if audit is None:
                    audit = StepAudit(
                        model_cfg, policy, per_scalar, len(prompt), prefill_evictions, steps
                    )
                audit.check(i, record.occupancy, record.evicted, record.bytes)
            except TraceMismatch as exc:
                raise InternalInvariantViolation(f"run trace fails its audit: {exc}") from exc
            if any(cache.positions(n).tolist() != audit.live(n) for n in range(cache.n_layers)):
                raise InternalInvariantViolation(f"step {i}: cache positions differ from the audit")
    trace = StepTrace(
        model=model_cfg,
        policy=policy,
        prompt=prompt,
        bytes_per_scalar=per_scalar,
        prefill_evictions=prefill_evictions,
        records=records,
    )
    result = RunResult(
        config=config,
        trace=trace,
        cache=cache,
        prefill_logits=prefill_logits,
        logits=logits,
        last_output=out,
        attn_outputs=attn_outputs,
        attn_rows=attn_rows,
    )
    if config.out_dir is not None:
        write_run_outputs(result, config.out_dir)
    return result


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
    """Run several policies over one model and align their step streams.

    The first config is the reference: with teacher forcing (the default)
    every other run replays its token stream, and per-step output errors
    against it are reported. Free-running keeps each policy on its own
    greedy trajectory and drops the error columns.
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
    base_run = run(replace(base, attention_snapshots=teacher_forced, out_dir=None))
    forced = base_run.trace.consumed_tokens() if teacher_forced else None
    full = full_attention_bytes(
        base.model, len(base_run.trace.prompt), base.decode_steps, base.bytes_per_scalar
    )
    seen: dict[str, int] = {}
    columns, traces = [], []

    def fold(result: RunResult) -> None:
        """Fold a finished run into its column, keeping only its trace."""
        kind = result.trace.policy.kind
        seen[kind] = seen.get(kind, 0) + 1
        label = kind if seen[kind] == 1 else f"{kind}-{seen[kind]}"
        errors_mean = errors_max = None
        if teacher_forced:
            records = shadow_error(base_run, result)
            per_step: list[list[float]] = [[] for _ in range(base.decode_steps)]
            for rec in records:
                per_step[rec.step].append(rec.l2_error)
            errors_mean = [float(np.mean(v)) for v in per_step]
            errors_max = [float(np.max(v)) for v in per_step]
        columns.append(
            PolicyColumn(
                label=label,
                kind=kind,
                occupancy=result.trace.occupancy_totals(),
                bytes=result.trace.byte_stream(),
                ratio=relative_cache_ratio(result.trace.byte_stream(), full),
                error_mean=errors_mean,
                error_max=errors_max,
                repetition=repetition_rate(result.trace.consumed_tokens(), ngram).repetition_rate,
                total_evictions=result.trace.total_evictions(),
            )
        )
        traces.append(result.trace)

    fold(base_run)
    for cfg in configs[1:]:
        fold(run(replace(cfg, attention_snapshots=teacher_forced, out_dir=None), forced))
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
            attention_snapshots=True,
            out_dir=None,
            debug_invariants=False,
        )
        result = run(inst)
        cache = result.cache
        keys = cache.keys_matrix(0)[0]
        vals = cache.values_matrix(0)[0]
        query = result.last_output.queries[0][0][0]
        n = keys.shape[0]
        _, optimal_error = optimal_subset(query, keys, vals, budget, r)
        # Decode rows only: ``cache.received`` also counts the prefill rows,
        # which would change how this pick ranks the prompt entries.
        cumulative = np.zeros(n)
        for step_rows in result.attn_rows:
            row = step_rows[0][0][0]
            cumulative[: row.size] += row
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
# ``prompt_file``, and ``attention_snapshots`` and ``out_dir`` are for
# callers only, so a config file cannot set them.
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
