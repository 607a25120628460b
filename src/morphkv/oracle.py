"""Ground truth for the eviction layer.

``optimal_subset`` brute-forces the reduced cache that best preserves one
query's attention output, which is the quantity every retention heuristic
is trying to approximate. ``shadow_error`` gives the per-store output
distance between two decode steps of the same token, one under full
attention and one under a policy. Both are plain and exact: the
enumeration scores a chunk of subsets per attention call, with bits equal
to scoring them one by one.
"""

from __future__ import annotations

import itertools

import numpy as np

from .errors import EmptyCache, InstanceTooLarge, InvalidParam, InvalidShape
from .numerics import scaled_dot_attention

# Hard cap on enumeration: C(22, 11) ~ 705k subsets is the most a desk run
# should ever grind through.
ENUMERATION_BOUND = 22
# Subsets scored per attention call; bounds the gathered (chunk, budget, d)
# key and value stacks.
SUBSET_CHUNK = 4096


def _subset_errors(query, keys, vals, subsets) -> list[float]:
    """Output distance from full attention of each subset in ``subsets``, a
    ``(count, size)`` stack of sorted index rows, gathered into one attention call."""
    _, full_out = scaled_dot_attention(query, keys, vals)
    _, sub_out = scaled_dot_attention(query, np.take(keys, subsets, axis=0), np.take(vals, subsets, axis=0))
    return _distances(full_out, sub_out)


def _distances(full, outputs) -> list[float]:
    """L2 distance of each output in the stack ``outputs`` from ``full``: the
    square root of one BLAS dot of the raveled difference, numpy's 2-norm."""
    diffs = (full - outputs).reshape(len(outputs), 1, -1)
    return np.sqrt(np.matmul(diffs, diffs.transpose(0, 2, 1))[:, 0, 0]).tolist()


def subset_output_error(query, keys, vals, indices) -> float:
    """L2 distance between full attention output and the subset's output."""
    return _subset_errors(query, keys, vals, np.array([sorted(indices)], dtype=np.intp))[0]


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
    are scored ``SUBSET_CHUNK`` at a time, with the bits
    ``subset_output_error`` gives each one.
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
    forced = tuple(range(n - min(recent_window, budget), n)) if force_recent else ()
    combos = itertools.combinations(range(n - len(forced)), budget - len(forced))
    winners = []
    while chunk := [combo + forced for combo in itertools.islice(combos, SUBSET_CHUNK)]:
        errs = _subset_errors(query, keys, vals, np.array(chunk, dtype=np.intp))
        j = int(np.argmin(errs))
        winners.append((errs[j], chunk[j]))
    # Equal errors keep the subset enumerated first, which is the smaller tuple.
    best_err, best_idx = min(winners)
    return best_idx, best_err


def shadow_error(full_out, policy_out) -> list[float]:
    """Output distance per (layer, KV head), layer-major, between two steps.

    Both are ``StepOutput``s of the same token over one model, the first
    under full attention (``compare`` steps the runs in lockstep). Each
    error is the Frobenius distance between the group's pre-projection
    attention outputs, so it is exactly zero when the policy retained
    everything the full run saw.
    """
    return _distances(np.concatenate(full_out.attn_outputs), np.concatenate(policy_out.attn_outputs))
