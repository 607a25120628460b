"""Every shipped config runs to completion with per-step invariant checks on."""

from dataclasses import replace
from pathlib import Path

import pytest

from morphkv.harness import load_run_config, run

CONFIGS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.ini"))


def test_configs_are_shipped():
    assert CONFIGS


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_runs_under_debug_invariants(path):
    config = replace(load_run_config(str(path)), debug_invariants=True)
    result = run(config)
    assert len(result.trace.records) == config.decode_steps
