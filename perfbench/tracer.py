"""Span recording from outside the package.

A :class:`Recorder` wraps callables at the attribute where their caller
looks them up (a module global such as ``morphkv.harness.decode_step``, or
a class attribute such as ``KvCacheState.keys_matrix``) and records one
span per call: name, start, end, parent span and run id (the index of the
enclosing ``harness.run`` span, so one decode run's spans share it), plus an
optional count derived from the call's arguments or result. Spans stay in memory and
are written out once the run ends. Nothing under ``src/`` is edited; the
wrappers are removed again when :meth:`Recorder.installed` exits.
"""

from __future__ import annotations

import contextlib
import csv
import functools
import json
import math
import time
import types

# Span fields, in the order they are stored.
NAME, START, END, PARENT, RUN, COUNT = range(6)
# The span that opens a run; spans outside every run get run id -1.
RUN_SPAN = "harness.run"


class Recorder:
    def __init__(self):
        self.spans: list[list] = []
        self._stack = [-1]

    def wrap(self, name, fn, count=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        opens_run = name == RUN_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent, index = stack[-1], len(spans)
            run = index if opens_run else spans[parent][RUN] if parent >= 0 else -1
            span = [name, 0, 0, parent, run, 0]
            stack.append(index)
            spans.append(span)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count is not None:
                span[COUNT] = count(args, kwargs, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self, targets):
        """Patch every ``(owner, attr, span_name, count)`` target, then restore."""
        saved = []
        try:
            for owner, attr, name, count in targets:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original, count))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["index", "name", "start_ns", "end_ns", "parent", "run", "count"])
            for idx, span in enumerate(self.spans):
                out.writerow([idx, *span])


@contextlib.contextmanager
def replaced(owner, attr, value):
    original = getattr(owner, attr)
    setattr(owner, attr, value)
    try:
        yield value
    finally:
        setattr(owner, attr, original)


# ---------------------------------------------------------------- counters
# Each is derived from array shapes or entry counts, never from a clock.


def stacked_bytes(args, kwargs, result) -> int:
    return int(result.nbytes)


def attention_flops(args, kwargs, result) -> int:
    # keys @ q and weights @ vals: one multiply and one add per element each.
    n, d = args[1].shape
    return 4 * n * d


def subsets_enumerated(args, kwargs, result) -> int:
    keys, budget, recent = args[1], args[3], args[4]
    force = args[5] if len(args) > 5 else kwargs.get("force_recent", True)
    n = len(keys)
    forced = min(recent, budget) if force else 0
    return math.comb(n - forced, budget - forced)


def result_length(args, kwargs, result) -> int:
    return len(result)


def written_position(args, kwargs, result) -> int:
    # Every trace file is opened fresh and dumped once, so the position is its size.
    return int(args[1].tell())


def snapshot_bytes(args, kwargs, result) -> int:
    if result.attn_outputs is None:
        return 0
    total = 0
    for snapshots in (result.attn_outputs, result.attn_rows):
        for step in snapshots:
            for layer in step:
                total += sum(int(arr.nbytes) for arr in layer)
    return total


def stores_examined(args, kwargs, result) -> int:
    cache, _, cfg, step_index = args[:4]
    if step_index % cfg.eviction_interval:
        return 0
    return (cache.n_layers - cfg.protected_layers) * cache.n_kv_heads


# ------------------------------------------------------------------ targets


def probe_targets(mk):
    """The two boundaries every run needs for prefill and decode timing."""
    return [
        (mk.cli, "run", RUN_SPAN, None),
        (mk.harness, "run", RUN_SPAN, None),
        (mk.harness, "decode_step", "model.decode", None),
    ]


def json_proxy():
    """Stands in for ``harness.json``, whose only use is ``json.dump``."""
    return types.SimpleNamespace(dump=json.dump)


def layer_targets(mk, json_stand_in):
    """Every public call site the traced run instruments, by layer.

    ``json_stand_in`` must replace ``harness.json`` while the targets are
    installed, so trace writes are timed without touching the json module.
    """
    cli, harness, baselines, morph, model = mk.cli, mk.harness, mk.baselines, mk.morph, mk.model
    cache_cls = mk.cache.KvCacheState
    targets = [
        (cli, "main", "cli.main", None),
        (cli, "load_run_config", "config.load", None),
        (cli, "compare", "harness.compare", None),
        (cli, "oracle_regression", "harness.regression", None),
        (cli, "check_regression_baseline", "harness.regression_check", None),
        (cli, "repetition_rate", "metrics.repetition", None),
        (harness, "init_model", "model.init", None),
        (harness, "prefill", "model.prefill", None),
        (harness, "policy_step", "baselines.policy_step", None),
        (harness, "snapkv_policy", "baselines.snapkv", None),
        (harness, "prefill_compress", "morph.prefill_compress", None),
        (harness, "kv_bytes_from_occupancies", "metrics.bytes", None),
        (harness, "kv_bytes", "metrics.bytes", None),
        (harness, "relative_cache_ratio", "metrics.ratio", None),
        (harness, "repetition_rate", "metrics.repetition", None),
        (harness, "shadow_error", "oracle.shadow_error", result_length),
        (harness, "optimal_subset", "oracle.optimal_subset", subsets_enumerated),
        (harness, "subset_output_error", "oracle.subset_error", None),
        (harness, "fuse", "morph.fuse", None),
        (harness, "select_retained", "morph.select", None),
        (json_stand_in, "dump", "harness.trace_write", written_position),
        (baselines, "morphkv_step", "morph.step", stores_examined),
        (baselines, "scissorhands_step", "baselines.window", None),
        (baselines, "streamingllm_step", "baselines.window", None),
        (baselines, "h2o_step", "baselines.h2o", None),
        (baselines, "fuse", "morph.fuse", None),
        (baselines, "select_retained", "morph.select", None),
        (morph, "fuse", "morph.fuse", None),
        (morph, "select_retained", "morph.select", None),
        (model, "apply_rope", "numerics.rope", None),
        (model, "scaled_dot_attention", "numerics.attention", attention_flops),
        (cache_cls, "keys_matrix", "cache.stack", stacked_bytes),
        (cache_cls, "values_matrix", "cache.stack", stacked_bytes),
        (cache_cls, "append", "cache.append", None),
        (cache_cls, "keep", "cache.keep", result_length),
        (cache_cls, "record_step_profiles", "cache.record", None),
    ]
    return [
        (cli, "run", RUN_SPAN, snapshot_bytes),
        (harness, "run", RUN_SPAN, snapshot_bytes),
        (harness, "decode_step", "model.decode", None),
    ] + targets


# ---------------------------------------------------------------- analysis


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def run_timings(spans):
    """Prefill times and decode times of each run, and the decode step count.

    Prefill is run entry to the first decode-step entry. Decode time runs
    from the first decode-step entry to the run's exit, so it includes
    policy and bookkeeping time between steps.
    """
    first_decode: dict[int, int] = {}
    steps = 0
    for s in spans:
        if s[NAME] == "model.decode":
            first_decode.setdefault(s[PARENT], s[START])
            steps += 1
    prefill = [first_decode[run] - spans[run][START] for run in first_decode]
    decode = [spans[run][END] - first_decode[run] for run in first_decode]
    return prefill, decode, steps


LAYERS = ("config", "model", "numerics", "cache", "morph", "baselines", "oracle", "metrics", "harness", "cli")


def layer_metrics(spans) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced pass, as ``name -> (value, unit)``.

    ``<fn>_s`` is the time inside that call (its children included) and
    ``<fn>_calls`` the number of calls. ``*_self_s`` and ``<layer>.self_share``
    subtract the time child spans cover. ``*_computed`` counters come from
    array shapes and entry counts.
    """
    own = self_times(spans)
    inclusive: dict[str, int] = {}
    own_by_name: dict[str, int] = {}
    calls: dict[str, int] = {}
    counts: dict[str, int] = {}
    trimmed = 0
    for idx, s in enumerate(spans):
        name = s[NAME]
        inclusive[name] = inclusive.get(name, 0) + s[END] - s[START]
        own_by_name[name] = own_by_name.get(name, 0) + own[idx]
        calls[name] = calls.get(name, 0) + 1
        counts[name] = counts.get(name, 0) + s[COUNT]
        if name == "cache.keep" and s[COUNT] and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "morph.step":
            trimmed += 1

    def secs(*names):
        return (sum(inclusive.get(n, 0) for n in names) / 1e9, "s")

    def self_secs(*names):
        return (sum(own_by_name.get(n, 0) for n in names) / 1e9, "s")

    def n_calls(name):
        return (calls.get(name, 0), "count")

    def counted(name, unit):
        return (counts.get(name, 0), unit)

    examined = counts.get("morph.step", 0)
    out = {
        "cache.stack_s": secs("cache.stack"),
        "cache.stack_calls": n_calls("cache.stack"),
        "cache.stack_bytes_computed": counted("cache.stack", "bytes"),
        "cache.append_s": secs("cache.append"),
        "cache.append_calls": n_calls("cache.append"),
        "cache.keep_s": secs("cache.keep"),
        "cache.keep_calls": n_calls("cache.keep"),
        "cache.evicted_entries": counted("cache.keep", "count"),
        "cache.record_s": secs("cache.record"),
        "cache.record_calls": n_calls("cache.record"),
        "morph.step_s": secs("morph.step"),
        "morph.fuse_s": secs("morph.fuse"),
        "morph.fuse_calls": n_calls("morph.fuse"),
        "morph.select_s": secs("morph.select"),
        "morph.select_calls": n_calls("morph.select"),
        "morph.trim_ratio": (trimmed / examined if examined else 0.0, "ratio"),
        "baselines.policy_step_s": secs("baselines.policy_step"),
        "baselines.policy_step_calls": n_calls("baselines.policy_step"),
        "baselines.h2o_s": secs("baselines.h2o"),
        "baselines.window_s": secs("baselines.window"),
        "baselines.snapkv_s": secs("baselines.snapkv"),
        "numerics.attention_s": secs("numerics.attention"),
        "numerics.attention_calls": n_calls("numerics.attention"),
        "numerics.attention_flops_computed": counted("numerics.attention", "flop"),
        "numerics.rope_s": secs("numerics.rope"),
        "numerics.rope_calls": n_calls("numerics.rope"),
        "model.init_s": secs("model.init"),
        "model.prefill_s": secs("model.prefill"),
        "model.decode_s": secs("model.decode"),
        "model.decode_calls": n_calls("model.decode"),
        "model.self_s": self_secs("model.prefill", "model.decode"),
        "oracle.optimal_subset_s": secs("oracle.optimal_subset"),
        "oracle.optimal_subset_calls": n_calls("oracle.optimal_subset"),
        "oracle.subsets_enumerated_computed": counted("oracle.optimal_subset", "count"),
        "oracle.subset_error_s": secs("oracle.subset_error"),
        "oracle.subset_error_calls": n_calls("oracle.subset_error"),
        "oracle.shadow_error_s": secs("oracle.shadow_error"),
        "oracle.shadow_records": counted("oracle.shadow_error", "count"),
        "metrics.bytes_s": secs("metrics.bytes"),
        "metrics.bytes_calls": n_calls("metrics.bytes"),
        "metrics.repetition_s": secs("metrics.repetition"),
        "harness.run_s": secs("harness.run"),
        "harness.loop_self_s": self_secs("harness.run"),
        "harness.snapshot_bytes_computed": counted("harness.run", "bytes"),
        "harness.trace_write_s": secs("harness.trace_write"),
        "harness.trace_bytes": counted("harness.trace_write", "bytes"),
        "harness.regression_self_s": self_secs("harness.regression"),
        "harness.regression_check_s": secs("harness.regression_check"),
        "config.load_s": secs("config.load"),
        "cli.main_s": secs("cli.main"),
    }
    total = sum(own) or 1
    for layer in LAYERS:
        layer_own = sum(v for n, v in own_by_name.items() if n.split(".", 1)[0] == layer)
        out[f"{layer}.self_share"] = (layer_own / total, "ratio")
    return out
