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

from .baselines import make_policy_state, policy_step, snapkv_policy
from .cache import KvCacheState
from .config import EvictionPolicyConfig, ModelConfig
from .errors import (
    InstanceTooLarge,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidToken,
    TraceMismatch,
)
from .metrics import (
    kv_bytes,
    kv_bytes_from_occupancies,
    profile_overhead_bytes,
    relative_cache_ratio,
    repetition_rate,
)
from .model import decode_step, greedy_token, init_model, prefill
from .morph import fuse, prefill_compress, select_retained
from .oracle import optimal_subset, shadow_error, subset_output_error
from .trace import StepRecord, StepTrace


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
    profile_overhead: bool = False
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


def _expected_occupancy_stream(policy: EvictionPolicyConfig, prompt_len: int, steps: int) -> list[int]:
    """Per-store occupancy a correct engine must show after each decode step."""
    kind = policy.kind
    budget = policy.cache_budget
    out = []
    if kind == "morphkv":
        alive = min(prompt_len, budget) if policy.compress_prefill else prompt_len
        for i in range(steps):
            alive += 1
            if i % policy.eviction_interval == 0 and alive > budget:
                alive = budget
            out.append(alive)
        return out
    for i in range(steps):
        total = prompt_len + i + 1
        if kind == "scissorhands":
            out.append(min(total, policy.recent_window))
        elif kind == "streamingllm":
            out.append(min(total, policy.sink_count + policy.recent_window))
        elif kind == "h2o":
            out.append(prompt_len + min(i + 1, budget))
        elif kind == "snapkv":
            out.append(min(prompt_len, policy.prefill_budget) + i + 1)
        else:
            out.append(total)
    return out


def _debug_check(cache, policy, prompt_len, step_index, expected, events) -> None:
    cache.validate()
    for layer, head, positions in events:
        live = cache.positions(layer, head)
        recent = min(policy.recent_window, live.size)
        if recent and max(positions) >= live[-recent]:
            raise InternalInvariantViolation(
                f"step {step_index}: evicted a recent-window position at ({layer},{head})"
            )
    for layer, heads in enumerate(cache.occupancies()):
        protected = policy.kind == "morphkv" and layer < policy.protected_layers
        want = prompt_len + step_index + 1 if protected else expected
        for head, occ in enumerate(heads):
            if occ != want:
                raise InternalInvariantViolation(
                    f"step {step_index}: occupancy {occ} at ({layer},{head}), expected {want}"
                )


def run(config: RunConfig, forced_tokens=None) -> RunResult:
    """Prefill, apply any one-shot prompt policy, then decode with eviction.

    ``forced_tokens`` replays a given token stream instead of the model's
    own greedy choices; it must cover every decode step.
    """
    config.validate()
    model_cfg, policy = config.model, config.policy
    weights = init_model(model_cfg)
    cache = KvCacheState.for_model(model_cfg, policy.recent_window)
    prompt = make_prompt(config)
    out = prefill(weights, prompt, cache)
    prefill_logits = out.logits
    if policy.kind == "snapkv":
        snapkv_policy(cache, policy)
    elif policy.kind == "morphkv" and policy.compress_prefill:
        prefill_compress(cache, policy)
    prefill_evictions: list[list[list[int]]] = [
        [[] for _ in range(model_cfg.n_kv_heads)] for _ in range(model_cfg.n_layers)
    ]
    for layer, head, positions in cache.pop_eviction_events():
        prefill_evictions[layer][head].extend(positions)

    if forced_tokens is not None:
        forced_tokens = [int(t) for t in forced_tokens]
        if len(forced_tokens) < config.decode_steps:
            raise TraceMismatch(
                f"forced token stream covers {len(forced_tokens)} of "
                f"{config.decode_steps} decode steps"
            )
    state = make_policy_state(policy, model_cfg, len(prompt))
    expected = _expected_occupancy_stream(policy, len(prompt), config.decode_steps)
    token = forced_tokens[0] if forced_tokens is not None else greedy_token(prefill_logits)
    records: list[StepRecord] = []
    # The trace keeps every eviction of every store; one int object per
    # evicted position, whichever stores evict it, keeps that list small.
    shared: dict[int, int] = {}
    logits: list[np.ndarray] = []
    attn_outputs = [] if config.attention_snapshots else None
    attn_rows = [] if config.attention_snapshots else None
    for i in range(config.decode_steps):
        out = decode_step(weights, token, cache)
        policy_step(cache, out, policy, i, state)
        events = cache.pop_eviction_events()
        evicted = [
            [[] for _ in range(model_cfg.n_kv_heads)] for _ in range(model_cfg.n_layers)
        ]
        for layer, head, positions in events:
            evicted[layer][head].extend([shared.setdefault(p, p) for p in positions])
        step_bytes = kv_bytes_from_occupancies(
            cache.occupancies(), model_cfg, policy, config.bytes_per_scalar
        )
        if config.profile_overhead:
            step_bytes += profile_overhead_bytes(cache, config.bytes_per_scalar)
        records.append(
            StepRecord(
                step=i,
                token=token,
                occupancy=cache.occupancies(),
                evicted=evicted,
                bytes=step_bytes,
            )
        )
        logits.append(out.logits)
        if config.attention_snapshots:
            attn_outputs.append(out.attn_outputs)
            attn_rows.append(out.attn_rows)
        if config.debug_invariants:
            _debug_check(cache, policy, len(prompt), i, expected[i], events)
        if i + 1 < config.decode_steps:
            token = (
                forced_tokens[i + 1]
                if forced_tokens is not None
                else greedy_token(out.logits)
            )
    trace = StepTrace(
        model=model_cfg,
        policy=policy,
        prompt=prompt,
        bytes_per_scalar=config.bytes_per_scalar,
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
    for rec, ratio in zip(trace.records, ratios):
        occ = sum(o for layer in rec.occupancy for o in layer)
        lines.append(
            f"{rec.step},{trace.policy.kind},{occ},{rec.bytes},{_format_float(ratio)}"
        )
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
    runs = []
    base_run = run(replace(base, attention_snapshots=teacher_forced, out_dir=None))
    runs.append(base_run)
    forced = base_run.trace.consumed_tokens() if teacher_forced else None
    for cfg in configs[1:]:
        runs.append(
            run(replace(cfg, attention_snapshots=teacher_forced, out_dir=None), forced_tokens=forced)
        )
    full = full_attention_bytes(
        base.model, len(base_run.trace.prompt), base.decode_steps, base.bytes_per_scalar
    )
    seen: dict[str, int] = {}
    columns = []
    for result in runs:
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
    report = CompareReport(steps=base.decode_steps, teacher_forced=teacher_forced, columns=columns)
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "compare.csv"), "w", encoding="utf-8") as fh:
            fh.write(render_compare_csv(report))
        with open(os.path.join(out_dir, "summary.csv"), "w", encoding="utf-8") as fh:
            fh.write(render_summary_csv(report))
        for result, col in zip(runs, report.columns):
            path = os.path.join(out_dir, f"trace_{col.label}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(result.trace.to_dict(), fh, sort_keys=True, indent=1)
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
        keys = cache.keys_matrix(0, 0)
        vals = cache.values_matrix(0, 0)
        query = result.last_output.queries[0][0][0]
        n = keys.shape[0]
        _, optimal_error = optimal_subset(query, keys, vals, budget, r)
        window = cache.windows[0][0]
        live = cache.positions(0, 0)
        cumulative = np.zeros(n)
        for step_rows in result.attn_rows:
            row = step_rows[0][0][0]
            cumulative[: row.size] += row
        recent = list(range(n - r, n))
        distant_count = n - r
        picks: dict[str, list[int]] = {
            "morphkv_sum": select_retained(live, fuse(window, "sum"), c, r),
            "morphkv_max": select_retained(live, fuse(window, "max"), c, r),
            "scissorhands": list(range(n - budget, n)),
        }
        sinks = min(_REGRESSION_SINKS, budget - r)
        picks["streamingllm"] = list(range(sinks)) + list(range(n - (budget - sinks), n))
        order = sorted(range(distant_count), key=lambda k: (cumulative[k], k), reverse=True)
        picks["h2o"] = sorted(order[: budget - r]) + recent
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


_MODEL_KEYS = {"n_layers", "n_query_heads", "n_kv_heads", "head_dim", "vocab_size", "seed"}
_POLICY_INT_KEYS = {
    "distant_capacity",
    "recent_window",
    "eviction_interval",
    "protected_layers",
    "sink_count",
    "prefill_budget",
}
_RUN_KEYS = {
    "prompt",
    "decode_steps",
    "bytes_per_scalar",
    "debug_invariants",
    "attention_snapshots",
    "profile_overhead",
}


def load_run_config(path: str) -> RunConfig:
    """Parse a flat key/value config file with [model], [policy], [run] sections."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    read = parser.read(path)
    if not read:
        raise InvalidConfig(f"cannot read config file {path}")
    for section in parser.sections():
        if section not in ("model", "policy", "run"):
            raise InvalidConfig(f"unknown config section [{section}]")
    model_kwargs = {}
    if parser.has_section("model"):
        for key in parser["model"]:
            if key not in _MODEL_KEYS:
                raise InvalidConfig(f"unknown model key {key!r}")
            model_kwargs[key] = parser["model"].getint(key)
    model = ModelConfig(**model_kwargs)
    policy_kwargs = {}
    if parser.has_section("policy"):
        for key in parser["policy"]:
            if key in _POLICY_INT_KEYS:
                policy_kwargs[key] = parser["policy"].getint(key)
            elif key in ("kind", "fusion", "prefill_fusion"):
                policy_kwargs[key] = parser["policy"].get(key)
            elif key == "compress_prefill":
                policy_kwargs[key] = parser["policy"].getboolean(key)
            else:
                raise InvalidConfig(f"unknown policy key {key!r}")
    policy = EvictionPolicyConfig(**policy_kwargs)
    run_kwargs: dict = {}
    if parser.has_section("run"):
        section = parser["run"]
        for key in section:
            if key not in _RUN_KEYS:
                raise InvalidConfig(f"unknown run key {key!r}")
        if "prompt" in section:
            spec = section.get("prompt").strip()
            if spec.startswith("random:"):
                run_kwargs["prompt_length"] = int(spec.split(":", 1)[1])
            elif spec.startswith("file:"):
                rel = spec.split(":", 1)[1]
                run_kwargs["prompt_file"] = os.path.join(os.path.dirname(os.path.abspath(path)), rel)
            else:
                raise InvalidConfig(f"prompt must be 'random:N' or 'file:PATH', got {spec!r}")
        if "decode_steps" in section:
            run_kwargs["decode_steps"] = section.getint("decode_steps")
        if "bytes_per_scalar" in section:
            run_kwargs["bytes_per_scalar"] = section.getint("bytes_per_scalar")
        for flag in ("debug_invariants", "attention_snapshots", "profile_overhead"):
            if flag in section:
                run_kwargs[flag] = section.getboolean(flag)
    return RunConfig(model=model, policy=policy, **run_kwargs).validate()
