"""Ground truth for the eviction layer.

``optimal_subset`` brute-forces the reduced cache that best preserves one
query's attention output, which is the quantity every retention heuristic
is trying to approximate. ``shadow_error`` streams the per-store output
distance between a full-attention run and a policy run replaying the same
tokens. Both are plain and exact: the enumeration scores a chunk of
subsets per attention call, with bits equal to scoring them one by one.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import EmptyCache, InstanceTooLarge, InvalidParam, InvalidShape, TraceMismatch
from .numerics import scaled_dot_attention

# Hard cap on enumeration: C(22, 11) ~ 705k subsets is the most a desk run
# should ever grind through.
ENUMERATION_BOUND = 22
# Subsets scored per attention call; bounds the gathered (chunk, budget, d)
# key and value stacks.
SUBSET_CHUNK = 4096


@dataclass(frozen=True)
class ErrorRecord:
    step: int
    layer: int
    kv_head: int
    l2_error: float


def subset_output_error(query, keys, vals, indices) -> float:
    """L2 distance between full attention output and the subset's output."""
    keys = np.asarray(keys, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    idx = np.asarray(sorted(indices), dtype=np.intp)
    _, full_out = scaled_dot_attention(query, keys, vals)
    _, sub_out = scaled_dot_attention(query, keys[idx], vals[idx])
    return float(np.linalg.norm(full_out - sub_out))


def optimal_subset(
    query,
    keys,
    vals,
    budget: int,
    recent_window: int,
    force_recent: bool = True,
) -> tuple[tuple[int, ...], float]:
    """Exhaustively find the budget-sized entry subset closest to full output.

    With ``force_recent`` (the default) the last ``min(recent_window,
    budget)`` entries are pinned and only the distant complement is
    enumerated, mirroring the retention rule every policy here obeys; pass
    ``False`` to search over all subsets. Ties keep the first subset in
    lexicographic enumeration order, so results are reproducible. Subsets
    are scored ``SUBSET_CHUNK`` at a time; each error is the square root of
    the stacked ``diff @ diff``, the bits ``np.linalg.norm`` gives.
    """
    keys = np.asarray(keys, dtype=np.float64)
    vals = np.asarray(vals, dtype=np.float64)
    if keys.ndim != 2:
        raise InvalidShape("keys must be 2-D (entries, head_dim)")
    n = keys.shape[0]
    if n == 0:
        raise EmptyCache("optimal_subset needs at least one entry")
    if n > ENUMERATION_BOUND:
        raise InstanceTooLarge(f"{n} entries exceeds the enumeration bound {ENUMERATION_BOUND}")
    if not 1 <= budget <= n:
        raise InvalidParam(f"budget must be in [1, {n}]")
    _, full_out = scaled_dot_attention(query, keys, vals)
    forced = tuple(range(n - min(recent_window, budget), n)) if force_recent else ()
    combos = itertools.combinations(range(n - len(forced)), budget - len(forced))
    best_idx: tuple[int, ...] | None = None
    best_err = np.inf
    while chunk := [combo + forced for combo in itertools.islice(combos, SUBSET_CHUNK)]:
        sel = np.array(chunk, dtype=np.intp)
        _, sub_out = scaled_dot_attention(query, keys[sel], vals[sel])
        diff = full_out - sub_out
        errs = np.sqrt(np.matmul(diff[:, None, :], diff[:, :, None])[:, 0, 0])
        j = int(np.argmin(errs))
        if errs[j] < best_err:
            best_err = float(errs[j])
            best_idx = chunk[j]
    assert best_idx is not None
    return best_idx, best_err


def shadow_error(full_run, policy_run) -> list[ErrorRecord]:
    """Per (step, layer, KV head) output distance between two aligned runs.

    Both runs must come from `harness.run` with attention snapshots
    enabled, share model config and seed, and have consumed the same
    tokens (the policy run teacher-forced from the full run). The error at
    a step is the Frobenius distance between the group's pre-projection
    attention outputs, so it is exactly zero when the policy retained
    everything the full run saw.
    """
    ft, pt = full_run.trace, policy_run.trace
    if ft.model != pt.model or ft.model.seed != pt.model.seed:
        raise TraceMismatch("runs use different models or seeds")
    if ft.prompt != pt.prompt:
        raise TraceMismatch("runs consumed different prompts")
    if ft.consumed_tokens() != pt.consumed_tokens():
        raise TraceMismatch("policy run did not replay the full run's tokens")
    if full_run.attn_outputs is None or policy_run.attn_outputs is None:
        raise TraceMismatch("shadow_error needs runs with attention snapshots enabled")
    records = []
    for step, (full_step, policy_step) in enumerate(
        zip(full_run.attn_outputs, policy_run.attn_outputs)
    ):
        for layer, (full_heads, policy_heads) in enumerate(zip(full_step, policy_step)):
            for head, (fo, po) in enumerate(zip(full_heads, policy_heads)):
                records.append(
                    ErrorRecord(step, layer, head, float(np.linalg.norm(fo - po)))
                )
    return records
