"""Golden bytes of the cache snapshot, and the split between decision
goldens and float goldens.

A float golden pins float bits, which hold only under the default SIMD
dispatch and BLAS kernels, so it carries the ``float_golden`` marker and
must stay out of CI's ``PORTABLE_TESTS``, the list run under other
dispatches and kernels as well.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from morphkv.cli import main

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "tier1.yml"

# sha256 of ``run --out``'s snapshot.json: a wrapped profile ring
# (morphkv), one copy per query head (h2o) and protected layers.
SNAPSHOT_DIGESTS = {
    "morphkv": "ffdbcd18919d914e969853b5507309b3313f9c6ee77ab321d974aaf887edec55",
    "h2o": "40be30e90713b083582af1aadc853aa975c82601a84b82d9c1a2257ae02afb52",
    "protected": "6e089e4875f65bfd95c5f1d57d401f3fc24d693b4c53a4f476ac90571796446e",
}
FLOAT_GOLDENS = [
    "tests/test_acceptance.py::test_exhaustive_oracle_dominance",
    *(f"tests/test_goldens.py::test_snapshot_bytes[{name}]" for name in SNAPSHOT_DIGESTS),
]


@pytest.mark.float_golden
@pytest.mark.parametrize("name", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["run", "--config", str(REPO / "configs" / f"{name}.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "snapshot.json").read_bytes()).hexdigest() == SNAPSHOT_DIGESTS[name]


def portable_tests() -> list[str]:
    """The entries of the workflow's ``PORTABLE_TESTS`` folded scalar."""
    lines = WORKFLOW.read_text(encoding="utf-8").splitlines()
    (start,) = [i for i, line in enumerate(lines) if line.strip() == "PORTABLE_TESTS: >-"]
    indent = len(lines[start]) - len(lines[start].lstrip())
    entries = []
    for line in lines[start + 1 :]:
        if line.strip() and len(line) - len(line.lstrip()) <= indent:
            break
        entries.extend(line.split())
    return entries


def collect_float_goldens(entries: list[str]) -> list[str]:
    """Node ids among ``entries`` that carry the ``float_golden`` marker,
    collected by pytest in a child process."""
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "-m", "float_golden", *entries],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=REPO,
        # The child writes no bytecode into the source tree, whatever the
        # caller's environment says.
        env={**os.environ, "PYTHONPATH": str(REPO / "src"), "OPENBLAS_NUM_THREADS": "1", "PYTHONDONTWRITEBYTECODE": "1"},
    )
    # Exit 5: every test was deselected, so none was collected.
    assert proc.returncode in (0, 5), proc.stdout + proc.stderr
    return [line for line in proc.stdout.splitlines() if "::" in line]


def test_no_float_golden_is_portable():
    entries = portable_tests()
    assert "tests/test_configs.py" in entries
    assert collect_float_goldens(entries) == []
    # The marker selects what it should, so an empty collection above means something.
    assert sorted(collect_float_goldens(FLOAT_GOLDENS)) == sorted(FLOAT_GOLDENS)
