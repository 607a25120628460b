"""Every shipped run config decides each ranking and each greedy token by a
margin far above the relative drift between SIMD dispatches and BLAS
kernels, so no float bit that differs between machines can change which
entries a store keeps or which token a run picks."""

from pathlib import Path

import pytest

from margins import decision_margins
from morphkv.harness import load_run_config

MARGIN_FLOOR = 1e-9
# oracle_tiny.ini configures the oracle sweep, not a run.
CONFIGS = sorted(
    path for path in (Path(__file__).resolve().parent.parent / "configs").glob("*.ini")
    if path.name != "oracle_tiny.ini"
)
RANKED_KINDS = ("morphkv", "h2o", "snapkv")


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_every_decision_clears_the_floor(path, monkeypatch):
    config = load_run_config(str(path))
    rankings, tokens = decision_margins(config, monkeypatch)
    # A ranked policy that records no ranking would hold nothing to the floor.
    assert bool(rankings) == (config.policy.kind in RANKED_KINDS), path.name
    assert len(tokens) == config.decode_steps
    smallest = min(rankings + tokens, key=lambda margin: margin.value)
    assert smallest.value > MARGIN_FLOOR, f"{path.name} {smallest}"
