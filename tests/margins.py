"""Decision margins: how far each of a run's decisions is from flipping.

A run decides two things from floats: which entries each ranked store keeps
(every ranking goes through ``select_retained``) and which token greedy
decoding picks. A ranking's margin is the lowest kept distant score minus
the highest evicted one, and a token's is the top logit minus the second;
each is divided by the largest magnitude it compared, so a margin above the
relative float drift between machines means no bit that drifts can change
the decision.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from morphkv import baselines, morph
from morphkv.harness import start_runs, step_runs
from morphkv.model import greedy_token, init_model


@dataclass(frozen=True)
class Margin:
    """One decision's relative margin, where it was made: ``step`` is
    ``"prefill"`` or a decode step index; a token has no layer or head."""

    value: float
    step: int | str
    layer: int | None = None
    head: int | None = None

    def __str__(self) -> str:
        store = "" if self.layer is None else f" layer {self.layer} KV head {self.head}"
        return f"step {self.step}{store}: margin {self.value:.3g}"


def _relative(gap: float, values: np.ndarray) -> float:
    # An all-zero row compares equal values: a tie.
    scale = float(np.abs(values).max())
    return gap / scale if scale else 0.0


def ranking_margins(scores, retained, n_layers: int, n_kv_heads: int, step) -> list[Margin]:
    """The margin of each store ``select_retained`` ranked that kept some
    but not all of its distant entries. A ranked stack always ends at the
    last layer, so row ``row`` of the stack's stores is at layer
    ``n_layers - depth + row // n_kv_heads``."""
    rows = np.asarray(scores, dtype=np.float64)
    distant = rows.shape[-1]
    rows = rows.reshape(-1, distant)
    kept_rows = np.asarray(retained).reshape(len(rows), -1)
    first = n_layers - len(rows) // n_kv_heads
    margins = []
    for row, (values, kept_idx) in enumerate(zip(rows, kept_rows)):
        kept = np.zeros(distant, dtype=bool)
        kept[kept_idx[kept_idx < distant]] = True
        if kept.all() or not kept.any():
            continue
        gap = float(values[kept].min() - values[~kept].max())
        margins.append(Margin(_relative(gap, values), step, first + row // n_kv_heads, row % n_kv_heads))
    return margins


def token_margin(logits, step) -> Margin:
    """The margin of the greedy pick over ``logits``."""
    logits = np.asarray(logits, dtype=np.float64)
    second, top = np.partition(logits, -2)[-2:]
    return Margin(_relative(float(top - second), logits), step)


def decision_margins(config, monkeypatch) -> tuple[list[Margin], list[Margin]]:
    """Every ranking margin and every token margin of ``config`` run alone.
    Step ``i``'s token margin is that of the logits that picked its token."""
    model, select = config.model, morph.select_retained
    rankings, step = [], "prefill"

    def recording(scores, occupancy, distant_capacity, recent_window):
        retained = select(scores, occupancy, distant_capacity, recent_window)
        rankings.extend(ranking_margins(scores, retained, model.n_layers, model.n_kv_heads, step))
        return retained

    monkeypatch.setattr(morph, "select_retained", recording)
    monkeypatch.setattr(baselines, "select_retained", recording)
    (decoding,) = start_runs([config], [init_model(model)])
    tokens = []
    for step in range(config.decode_steps):
        tokens.append(token_margin(decoding.out.logits, step))
        step_runs([decoding], [greedy_token(decoding.out.logits)])
    return rankings, tokens
