"""Desk-scale autoregressive attention runtime with pluggable KV eviction.

The package is organized bottom up: `numerics` holds the shared float64
primitives, `model` the deterministic toy decoder, `cache` the cache-wide
KV block with its attention profiles, `morph` the constant-size
selective retention policy, `baselines` the comparison policies,
`oracle` the exhaustive ground truth, `metrics` byte accounting and
degeneration measures, `trace` the per-step trace and its JSON document,
and `harness` the run loop and sweeps.

The package exports the configs, the runs built from them and their
results; every other name is internal to its module and may move.
"""

from .config import EvictionPolicyConfig, ModelConfig, RunConfig
from .harness import RunResult, compare, load_run_config, oracle_regression, run, start_runs, step_runs
from .trace import StepTrace

__version__ = "0.1.0"

__all__ = [
    "EvictionPolicyConfig",
    "ModelConfig",
    "RunConfig",
    "RunResult",
    "StepTrace",
    "compare",
    "load_run_config",
    "oracle_regression",
    "run",
    "start_runs",
    "step_runs",
]
