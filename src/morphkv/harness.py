"""Run configuration, the decode loop, comparisons, and regression sweeps.

A run is fully determined by its config: seeded weights, seeded or
file-sourced prompt, greedy decoding, one policy application per decode
step. ``start_runs`` starts runs over one weights object per run: those
over one object share its prompt, prefilled once, each from a copy
re-windowed to its profile ring, and the prompts of several objects of
one model shape (the oracle regression's lockstep chunks of instances)
prefill in the same forwards. ``step_runs`` steps runs, one forward for
all of them per step. ``run`` starts ``[w]`` and steps it on its own
greedy tokens; ``compare`` starts ``[w] * len(configs)`` and steps them
in lockstep: teacher forcing feeds every run the
reference's token, so their outputs are comparable step by step; free
running lets each policy follow its own greedy trajectory, in which case
only aggregate metrics are comparable. A computation never decides where
its files go:
``write_run_outputs`` (a run's trace, metrics and cache ``snapshot``) and
``write_compare_outputs`` (a comparison's CSVs and traces) write to a
directory their caller names.
"""

from __future__ import annotations

import configparser
import json
import os
from dataclasses import dataclass, field, fields, replace
from itertools import zip_longest

import numpy as np

from .baselines import keep_window, policy_step, snapkv_policy
from .cache import KvCacheState
from .config import FIELD_TYPES, EvictionPolicyConfig, ModelConfig, field_types
from .errors import (
    InstanceTooLarge,
    InternalInvariantViolation,
    InvalidConfig,
    InvalidParam,
    InvalidShape,
    InvalidToken,
    TraceMismatch,
)
from .metrics import kv_bytes, kv_bytes_from_occupancies, relative_cache_ratio, repetition_rate
from .model import DecoderWeights, StepOutput, decode_step, greedy_token, init_model, prefill
from .morph import fuse, prefill_compress, select_retained
from .oracle import ENUMERATION_BOUND, INSTANCE_CHUNK, optimal_subset, shadow_error, subset_output_error
from .trace import StepAudit, StepRecord, StepTrace, peak_occupancy


@dataclass(frozen=True)
class RunConfig:
    model: ModelConfig = field(default_factory=ModelConfig)
    policy: EvictionPolicyConfig = field(default_factory=EvictionPolicyConfig)
    prompt_length: int = 16
    prompt_file: str | None = None
    decode_steps: int = 32
    bytes_per_scalar: int = 8
    debug_invariants: bool = False

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
    """A run's trace and what :func:`snapshot` reads of its final cache:
    the ring capacity and, per layer, each store's retained positions
    ``(heads, entries)`` and fused distant scores ``(heads, distant)``,
    arrays that own their memory. It holds no weights and no cache on
    purpose: perfbench keeps one pass's result while the next pass runs,
    and keeping the ``Decoding`` instead raised ``long_prompt``'s peak RSS
    from about 55 to 61 MiB, and keeping its ``KvCacheState`` (keys, values,
    profile and received totals) held it at about 55.5 MiB, against about
    52.6 MiB with these arrays alone."""

    trace: StepTrace
    window_capacity: int
    positions: list[np.ndarray]
    fused_scores: list[np.ndarray]
    # Not a field: perfbench's tracer.snapshot_bytes reads it and counts 0 for None.
    attn_outputs = None

    def occupancies(self) -> list[list[int]]:
        """Entries per (layer, KV head), as ``KvCacheState.occupancies``."""
        return [[p.shape[1]] * p.shape[0] for p in self.positions]


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
    """One run of a :func:`start_runs` call, stepped by :func:`step_runs`.

    The constructor takes the run's prompt, its cache holding that prompt
    and the prefill's output ``out``, the last ``StepOutput``; it applies
    any one-shot prompt policy and starts ``trace`` with the prefill
    evictions. A debug run audits the prefill and every step as they happen.
    """

    def __init__(
        self, config: RunConfig, weights: DecoderWeights, prompt: list[int], cache: KvCacheState, out: StepOutput
    ):
        self.config, self.weights, self.cache, self.out = config, weights, cache, out
        if config.policy.kind == "snapkv":
            snapkv_policy(cache, config.policy)
        elif config.policy.kind == "morphkv" and config.policy.compress_prefill:
            prefill_compress(cache, config.policy)
        # The trace keeps every eviction of every store; one int object per
        # evicted position, whichever stores evict it, keeps that list small.
        self._shared: dict[int, int] = {}
        self.trace = StepTrace(
            model=config.model,
            policy=config.policy,
            prompt=prompt,
            bytes_per_scalar=config.bytes_per_scalar,
            prefill_evictions=self._evictions(),
            records=[],
        )
        if config.debug_invariants:
            self._check("prefill")

    def _evictions(self) -> list[list[list[int]]]:
        """Evicted positions per (layer, KV head) since the last call."""
        model = self.config.model
        grid = [[[] for _ in range(model.n_kv_heads)] for _ in range(model.n_layers)]
        for layer, head, positions in self.cache.pop_eviction_events():
            grid[layer][head].extend([self._shared.setdefault(p, p) for p in positions])
        return grid

    def _finish_step(self, token: int, out: StepOutput) -> None:
        """Apply the policy after ``out``, this run's output of a forward of
        ``token``, and record the step."""
        config, cache, i = self.config, self.cache, len(self.trace.records)
        self.out = out
        policy_step(cache, out, config.policy, i, len(self.trace.prompt))
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
        self.trace.records.append(record)
        if config.debug_invariants:
            self._check(f"step {i}", record)

    def _check(self, where: str, record: StepRecord | None = None) -> None:
        """Check the cache, audit the prefill (no ``record``) or one step
        record, and hold the cache's positions to the audit's replay."""
        config, cache = self.config, self.cache
        cache.validate()
        # A run's own trace failing its audit, prefill included, is a bug.
        try:
            if record is None:
                self._audit = StepAudit(
                    config.model, config.policy, config.bytes_per_scalar, len(self.trace.prompt),
                    self.trace.prefill_evictions, config.decode_steps,
                )
            else:
                self._audit.check(record.step, record.occupancy, record.evicted, record.bytes)
        except TraceMismatch as exc:
            raise InternalInvariantViolation(f"run trace fails its audit: {exc}") from exc
        live = self._audit.live
        if any(cache.positions(n).tolist() != live(n) for n in range(cache.n_layers)):
            raise InternalInvariantViolation(f"{where}: cache positions differ from the audit")

    def result(self) -> RunResult:
        """The run so far as a ``RunResult``, which later steps leave as it is."""
        cache, fusion = self.cache, self.config.policy.fusion
        layers = range(cache.n_layers)
        return RunResult(
            replace(self.trace, records=list(self.trace.records)),
            cache.window_capacity,
            [cache.positions(layer).copy() for layer in layers],
            [fuse(cache, layer, fusion) for layer in layers],
        )


def start_runs(configs, weights) -> list[Decoding]:
    """Start one run per config over ``weights``, one weights object per
    config. The configs may differ only in their policy, in whether they
    audit themselves and, between runs over different weights objects, in
    the model seed: runs over one object share its model, seed included.

    Runs over one weights object share one prompt: one ``prefill`` of it,
    at the largest ``recent_window`` among them, serves them all, each run
    starting from a ``KvCacheState.copy`` at its own window and peak
    occupancy, bit-equal to a prefill of its own. The distinct weights
    objects' prompts (random ones drawn per seed, a file read once) prefill
    together in that one ``prefill`` call, one forward per block for all of
    them. Each run then applies its own one-shot prompt policy. Every input
    is checked before any cache exists.
    """
    configs, weights = [cfg.validate() for cfg in configs], list(weights)
    if not configs:
        raise InvalidParam("start_runs needs at least one config")
    if len(weights) != len(configs):
        raise InvalidShape(f"start_runs needs one weights object per config, got {len(weights)} for {len(configs)}")
    # Runs over one weights object form a group and share its model; its run
    # with the largest window owns the prefill and the others copy its cache.
    groups: dict[int, list[int]] = {}
    for i, w in enumerate(weights):
        groups.setdefault(id(w), []).append(i)
    base = configs[0]
    shared = [f.name for f in fields(RunConfig) if f.name not in ("model", "policy", "debug_invariants")]
    for cfg, w in zip(configs, weights):
        differ = [name for name in shared if getattr(cfg, name) != getattr(base, name)]
        if cfg.model != configs[groups[id(w)][0]].model or not cfg.model.same_shape(base.model):
            differ.insert(0, "model")
        if differ:
            raise TraceMismatch(f"compare configs may differ only in [policy]; these differ: {', '.join(differ)}")
    if any(w.config != cfg.model for w, cfg in zip(weights, configs)):
        raise InvalidParam("weights were drawn for another model config")
    windows = [cfg.policy.recent_window for cfg in configs]
    owners = [max(group, key=windows.__getitem__) for group in groups.values()]
    if base.prompt_file is None:
        prompts = [make_prompt(configs[i]) for i in owners]
    else:
        prompts = [make_prompt(base)] * len(owners)
    sizes = [peak_occupancy(cfg.policy, len(prompts[0]), cfg.decode_steps, cfg.model.n_layers) for cfg in configs]
    sources = [KvCacheState.for_model(base.model, windows[i], sizes[i]) for i in owners]
    outs = prefill([weights[i] for i in owners], prompts, sources)
    runs = [None] * len(configs)
    for group, owner, prompt, source, out in zip(groups.values(), owners, prompts, sources, outs):
        # Every copy is made before any run's prompt policy changes the source.
        caches = {i: source if i == owner else source.copy(windows[i], sizes[i]) for i in group}
        for i, cache in caches.items():
            runs[i] = Decoding(configs[i], weights[i], prompt, cache, out)
    return runs


def step_runs(runs: list[Decoding], tokens) -> list[StepOutput]:
    """Decode ``tokens[i]`` in ``runs[i]``, all runs, from any
    :func:`start_runs` calls over weights of one model shape (one weights
    object, or several seeds of one shape), through one ``decode_step``;
    then apply each run's policy, record its step and return its output.
    A finished run, runs over another model shape or a bad ``decode_step``
    input is refused before any cache changes.
    """
    if not runs:
        raise InvalidParam("step_runs needs one or more runs")
    for decoding in runs:
        if len(decoding.trace.records) == decoding.config.decode_steps:
            raise InvalidParam(f"all {decoding.config.decode_steps} decode steps are done")
    outs = decode_step([decoding.weights for decoding in runs], tokens, [decoding.cache for decoding in runs])
    for decoding, token, out in zip(runs, tokens, outs):
        decoding._finish_step(int(token), out)
    return outs


def run(config: RunConfig) -> RunResult:
    """Prefill, apply any one-shot prompt policy, then decode greedily with eviction."""
    (decoding,) = start_runs([config], [init_model(config.validate().model)])
    for _ in range(config.decode_steps):
        step_runs([decoding], [greedy_token(decoding.out.logits)])
    return decoding.result()


def full_attention_bytes(
    model: ModelConfig, prompt_len: int, steps: int, bytes_per_scalar: int
) -> list[int]:
    """Analytic full-attention byte stream: one entry per token seen."""
    full = EvictionPolicyConfig(kind="full_attention")
    return kv_bytes(full, [prompt_len + i + 1 for i in range(steps)], model, bytes_per_scalar)


def _format_float(x: float) -> str:
    return f"{x:.17g}"


def cache_ratios(trace: StepTrace) -> list[float]:
    """Each step's bytes over full attention's at the same step."""
    full = full_attention_bytes(
        trace.model, len(trace.prompt), len(trace.records), trace.bytes_per_scalar
    )
    return relative_cache_ratio(trace.byte_stream(), full) if trace.records else []


def render_metrics_csv(trace: StepTrace) -> str:
    lines = ["step,policy,occupancy,bytes,ratio"]
    for rec, occ, ratio in zip(trace.records, trace.occupancy_totals(), cache_ratios(trace)):
        lines.append(f"{rec.step},{trace.policy.kind},{occ},{rec.bytes},{_format_float(ratio)}")
    return "\n".join(lines) + "\n"


def snapshot(result: RunResult) -> dict:
    """JSON-ready dump of a run's cache as ``result`` keeps it: retained
    (position, token) pairs per store, the tokens read from the trace,
    plus the fused ranking scores over the distant entries."""
    trace = result.trace
    tokens = np.array(trace.prompt + trace.consumed_tokens())
    layers = []
    for positions, scores in zip(result.positions, result.fused_scores):
        pairs = np.stack([positions, tokens[positions]], axis=2).tolist()
        layers.append([{"entries": p, "fused_scores": s} for p, s in zip(pairs, scores.tolist())])
    return {"window_capacity": result.window_capacity, "layers": layers}


def _write(out_dir: str, name: str, content) -> None:
    """Write ``content`` to ``out_dir/name``: a str as it is, anything else as JSON."""
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
        if isinstance(content, str):
            fh.write(content)
        else:
            json.dump(content, fh, sort_keys=True, indent=1)
            fh.write("\n")


def write_run_outputs(result: RunResult, out_dir: str) -> None:
    """Write a run's ``trace.json``, ``metrics.csv`` and ``snapshot.json`` to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "trace.json", result.trace.to_dict())
    _write(out_dir, "metrics.csv", render_metrics_csv(result.trace))
    _write(out_dir, "snapshot.json", snapshot(result))


@dataclass
class PolicyColumn:
    label: str
    trace: StepTrace
    ratio: list[float]
    error_mean: list[float] | None
    error_max: list[float] | None
    repetition: float

    @property
    def mean_error(self) -> float:
        """The mean per-step error that ``summary.csv`` holds and ``compare`` prints."""
        return float(np.mean(self.error_mean))


REPETITION_NGRAM = 10  # n-gram length of the repetition rate compare reports


def compare(configs, teacher_forced: bool = True) -> list[PolicyColumn]:
    """Step several policies over one set of weights in lockstep: the runs
    of one :func:`start_runs`, through one :func:`step_runs` per step.

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
    runs = start_runs(configs, [init_model(base.model)] * len(configs))
    errors: list[list[list[float]]] = [[] for _ in runs]
    for _ in range(base.decode_steps):
        if teacher_forced:
            tokens = [greedy_token(runs[0].out.logits)] * len(runs)
        else:
            tokens = [greedy_token(decoding.out.logits) for decoding in runs]
        outs = step_runs(runs, tokens)
        if teacher_forced:
            for out, run_errors in zip(outs, errors):
                run_errors.append(shadow_error(outs[0], out))
    seen: dict[str, int] = {}
    columns = []
    for trace, per_step in zip((decoding.trace for decoding in runs), errors):
        kind = trace.policy.kind
        seen[kind] = seen.get(kind, 0) + 1
        columns.append(
            PolicyColumn(
                label=kind if seen[kind] == 1 else f"{kind}-{seen[kind]}",
                trace=trace,
                ratio=cache_ratios(trace),
                error_mean=[float(np.mean(v)) for v in per_step] if teacher_forced else None,
                error_max=[float(np.max(v)) for v in per_step] if teacher_forced else None,
                repetition=repetition_rate(trace.consumed_tokens(), REPETITION_NGRAM).repetition_rate,
            )
        )
    return columns


def write_compare_outputs(columns: list[PolicyColumn], out_dir: str) -> None:
    """Write ``compare.csv``, ``summary.csv`` and a ``trace_<label>.json`` per column to ``out_dir``."""
    os.makedirs(out_dir, exist_ok=True)
    _write(out_dir, "compare.csv", render_compare_csv(columns))
    _write(out_dir, "summary.csv", render_summary_csv(columns))
    for col in columns:
        _write(out_dir, f"trace_{col.label}.json", col.trace.to_dict())


def render_compare_csv(columns: list[PolicyColumn]) -> str:
    header = ["step"]
    for col in columns:
        header.extend([f"occupancy_{col.label}", f"bytes_{col.label}", f"ratio_{col.label}"])
        if col.error_mean is not None:
            header.append(f"error_{col.label}")
    lines = [",".join(header)]
    occupancies = [col.trace.occupancy_totals() for col in columns]
    for step in range(len(columns[0].ratio)):
        row = [str(step)]
        for col, occupancy in zip(columns, occupancies):
            nbytes = str(col.trace.records[step].bytes)
            row.extend([str(occupancy[step]), nbytes, _format_float(col.ratio[step])])
            if col.error_mean is not None:
                row.append(_format_float(col.error_mean[step]))
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


def render_summary_csv(columns: list[PolicyColumn]) -> str:
    lines = ["label,kind,final_bytes,final_ratio,mean_error,max_error,evictions,repetition_rate"]
    for col in columns:
        trace, forced = col.trace, col.error_mean is not None
        cells = [
            col.label,
            trace.policy.kind,
            str(trace.records[-1].bytes),
            _format_float(col.ratio[-1]),
            _format_float(col.mean_error) if forced else "",
            _format_float(float(np.max(col.error_max))) if forced else "",
            str(trace.total_evictions()),
            _format_float(col.repetition),
        ]
        lines.append(",".join(cells))
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
    enumerated optimum. The ``h2o`` pick ranks every distant entry, prompt
    included, once by cumulative decode attention; it is not ``h2o_step``.
    Every pick keeps the forced recent tail, and the five are scored as one
    stack by the enumeration's arithmetic, so one below the optimum, which
    would mean the oracle itself is wrong, raises. ``INSTANCE_CHUNK``
    instances at a time run in lockstep: one ``start_runs`` over their
    seeded weights, which prefills all their prompts in one forward per
    block, then one ``step_runs`` per decode step. That leaves every
    instance's bits as if it were started and stepped alone. A seed range
    past ``2**64 - 1`` is refused before any instance starts.
    """
    config.validate()
    model = config.model
    if model.n_layers != 1 or model.n_query_heads != 1 or model.n_kv_heads != 1:
        raise InvalidConfig("oracle regression needs a single-layer, single-head model")
    if config.policy.kind != "morphkv":
        raise InvalidConfig("oracle regression takes the budget from a morphkv policy")
    if instances < 0:
        raise InvalidParam("instances must be >= 0")
    if model.seed + instances > 2**64:
        raise InvalidConfig(f"instance seeds {model.seed} to {model.seed + instances - 1} pass 2**64 - 1")
    # A random prompt's length is known without drawing it, however large.
    prompt_len = config.prompt_length if config.prompt_file is None else len(make_prompt(config))
    final_occupancy = prompt_len + config.decode_steps
    if final_occupancy > ENUMERATION_BOUND:
        raise InstanceTooLarge(
            f"instance would hold {final_occupancy} entries; "
            f"the enumeration bound is {ENUMERATION_BOUND}"
        )
    c = config.policy.distant_capacity
    r = config.policy.recent_window
    budget = c + r
    if budget >= final_occupancy:
        raise InvalidConfig("budget must be below the final occupancy to be informative")
    sinks = min(_REGRESSION_SINKS, budget - r)
    rows: list[RegressionRow] = []
    policy = EvictionPolicyConfig(kind="full_attention", recent_window=r)
    for first in range(0, instances, INSTANCE_CHUNK):
        seeds = range(model.seed + first, model.seed + min(first + INSTANCE_CHUNK, instances))
        configs = [replace(config, model=replace(model, seed=seed), policy=policy) for seed in seeds]
        runs = start_runs(configs, [init_model(inst.model) for inst in configs])
        # Decode rows only: ``cache.received`` also counts the prefill rows,
        # which would change how this pick ranks the prompt entries.
        cumulative = np.zeros((len(runs), final_occupancy))
        for _ in range(config.decode_steps):
            outs = step_runs(runs, [greedy_token(decoding.out.logits) for decoding in runs])
            for total, out in zip(cumulative, outs):
                row = out.attn_rows[0][0][0]
                total[: row.size] += row
        for seed, decoding, total in zip(seeds, runs, cumulative):
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
            picks["streamingllm"] = keep_window(n, sinks, budget - sinks)
            picks["h2o"] = select_retained(total[None, : n - r], n, budget - r, r)[0].tolist()
            errors = subset_output_error(query, keys, vals, [picks[name] for name in REGRESSION_POLICIES])
            for policy_name, err in zip(REGRESSION_POLICIES, errors):
                if err < optimal_error:
                    raise InternalInvariantViolation(
                        f"instance {seed}: {policy_name} beat the exhaustive optimum"
                    )
                rows.append(RegressionRow(seed, policy_name, err, optimal_error))
        # Freed before the next chunk starts, so two chunks are never live.
        del runs
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
    the actual quality contract so the message names what regressed. A
    baseline whose header or ``(instance_seed, policy)`` rows differ from
    the sweep's comes from another sweep, which is bad input, not drift.
    """
    current = render_regression_csv(rows)
    means = regression_means(rows)
    if means.get("morphkv_sum", 0.0) > means.get("scissorhands", np.inf):
        raise InternalInvariantViolation(
            "selective retention fell behind the recency baseline at equal budget"
        )
    if current == baseline_text:
        return
    cur_lines, base_lines = current.splitlines(), baseline_text.splitlines()

    def layout(lines):
        return lines[:1] + [",".join(line.split(",")[:2]) for line in lines[1:]]

    for idx, (a, b) in enumerate(zip_longest(layout(cur_lines), layout(base_lines))):
        if a != b:
            a, b = ("missing" if x is None else repr(x) for x in (a, b))
            raise InvalidParam(f"baseline is from another sweep: its line {idx} is {b}, the sweep's {a}")
    for idx, (a, b) in enumerate(zip(cur_lines, base_lines)):
        if a != b:
            raise InternalInvariantViolation(
                f"regression line {idx} drifted: {a!r} != baseline {b!r}"
            )
    raise InvalidParam("baseline differs from the sweep only in its line endings")


# ``[run]`` is not a dataclass: ``prompt`` sets ``prompt_length`` or
# ``prompt_file``.
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
