"""Golden bytes of the cache snapshot and of ``metrics.csv``.

A float golden pins float bits, which hold only under the default SIMD
dispatch and BLAS kernels, so it carries the ``float_golden`` marker; CI
runs ``pytest -m "not float_golden"`` under other dispatches and kernels.
"""

import hashlib
import json
from pathlib import Path

import pytest

from morphkv import StepTrace
from morphkv.cli import main
from morphkv.harness import render_metrics_csv

REPO = Path(__file__).resolve().parent.parent

# sha256 of ``run --out``'s snapshot.json: a wrapped profile ring
# (morphkv), one copy per query head (h2o) and protected layers.
SNAPSHOT_DIGESTS = {
    "morphkv": "ffdbcd18919d914e969853b5507309b3313f9c6ee77ab321d974aaf887edec55",
    "h2o": "40be30e90713b083582af1aadc853aa975c82601a84b82d9c1a2257ae02afb52",
    "protected": "6e089e4875f65bfd95c5f1d57d401f3fc24d693b4c53a4f476ac90571796446e",
}
# sha256 of ``metrics.csv`` as ``render_metrics_csv`` writes it for each
# committed trace. A decision golden: its occupancies and bytes are integers
# read from the trace, and each ratio is one correctly rounded quotient of
# two of them, so no machine-dependent bit reaches it.
METRICS_CSV_DIGESTS = {
    "trace_interval1.json": "eb6c15b2f3d3e5ea15b457445e4db1ed0b2c6f863d64dc589f6e74684bd7206c",
    "trace_interval8.json": "628b22b5cf19b6025db8426397ce3ed19668a27e69a5963526960dcac39f71a7",
}


@pytest.mark.float_golden
@pytest.mark.parametrize("name", sorted(SNAPSHOT_DIGESTS))
def test_snapshot_bytes(name, tmp_path, capsys):
    out = tmp_path / name
    assert main(["run", "--config", str(REPO / "configs" / f"{name}.ini"), "--out", str(out)]) == 0
    capsys.readouterr()
    assert hashlib.sha256((out / "snapshot.json").read_bytes()).hexdigest() == SNAPSHOT_DIGESTS[name]


@pytest.mark.parametrize("name", sorted(METRICS_CSV_DIGESTS))
def test_metrics_csv_bytes(name):
    trace = StepTrace.from_dict(json.loads((REPO / "tests" / "data" / name).read_text(encoding="utf-8")))
    digest = hashlib.sha256(render_metrics_csv(trace).encode("utf-8")).hexdigest()
    assert digest == METRICS_CSV_DIGESTS[name]
