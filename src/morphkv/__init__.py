"""Desk-scale autoregressive attention runtime with pluggable KV eviction.

The package is organized bottom up: `numerics` holds the shared float64
primitives, `model` the deterministic toy decoder, `cache` the cache-wide
KV block with its attention profiles, `morph` the constant-size
selective retention policy, `baselines` the comparison policies,
`oracle` the exhaustive ground truth, `metrics` byte accounting and
degeneration measures, `trace` the per-step trace and its JSON document,
and `harness` the run loop and sweeps.
"""

from .cache import KvCacheState
from .config import EvictionPolicyConfig, ModelConfig
from .harness import (
    Decoding,
    RunConfig,
    RunResult,
    compare,
    load_run_config,
    oracle_regression,
    run,
)
from .metrics import RepetitionReport, kv_bytes, relative_cache_ratio, repetition_rate
from .model import (
    DecoderWeights,
    StepOutput,
    decode_step,
    greedy_token,
    init_model,
    prefill,
    weights_checksum,
)
from .morph import fuse, morphkv_step, prefill_compress, select_retained
from .baselines import h2o_step, scissorhands_step, snapkv_policy, streamingllm_step
from .numerics import apply_rope, scaled_dot_attention, softmax
from .oracle import optimal_subset, shadow_error
from .trace import StepRecord, StepTrace

__version__ = "0.1.0"

__all__ = [
    "DecoderWeights",
    "Decoding",
    "EvictionPolicyConfig",
    "KvCacheState",
    "ModelConfig",
    "RepetitionReport",
    "RunConfig",
    "RunResult",
    "StepOutput",
    "StepRecord",
    "StepTrace",
    "apply_rope",
    "compare",
    "decode_step",
    "fuse",
    "greedy_token",
    "h2o_step",
    "init_model",
    "kv_bytes",
    "load_run_config",
    "morphkv_step",
    "optimal_subset",
    "oracle_regression",
    "prefill",
    "prefill_compress",
    "relative_cache_ratio",
    "repetition_rate",
    "run",
    "scaled_dot_attention",
    "scissorhands_step",
    "select_retained",
    "shadow_error",
    "snapkv_policy",
    "softmax",
    "streamingllm_step",
    "weights_checksum",
]
