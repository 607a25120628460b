"""Ground truth for the eviction layer.

``optimal_subset`` brute-forces the reduced cache that best preserves one
query's attention output, which is the quantity every retention heuristic
is trying to approximate. ``subset_output_error`` scores a stack of
equal-sized picks, such as the regression's five policy picks, with the
enumeration's own arithmetic. ``shadow_error`` gives the per-store output
distance between two decode steps of the same token, one under full
attention and one under a policy. All are plain and exact: a stack of
subsets is scored in one attention call, with bits equal to scoring them
one by one. The enumeration reads its subsets from one read-only int8
index table per ``(entries, budget)`` shape, built once in
``itertools.combinations`` order and kept while the shape repeats.
"""

from __future__ import annotations

import functools
import itertools
import math

import numpy as np

from .errors import EmptyCache, InstanceTooLarge, InvalidParam, InvalidShape
from .numerics import scaled_dot_attention

# Hard cap on enumeration: C(22, 11) ~ 705k subsets is the most a desk run
# should ever grind through.
ENUMERATION_BOUND = 22
# Subsets scored per attention call; bounds the gathered (chunk, budget, d)
# key and value stacks.
SUBSET_CHUNK = 4096
# Regression instances stepped in lockstep; bounds how many runs, and how
# many stacked copies of their weights, are live at once.
INSTANCE_CHUNK = 20


# A sweep enumerates one (entries, budget) shape for every instance, so only
# the last table is kept: C(m, r) * r int8 entries, at most C(22, 11) * 11
# bytes (about 7.8 MB) at ENUMERATION_BOUND.
@functools.lru_cache(maxsize=1)
def _combination_table(m: int, r: int) -> np.ndarray:
    """Every ``r``-subset of ``range(m)`` in ``itertools.combinations`` order,
    as a read-only ``(C(m, r), r)`` int8 array."""
    count = math.comb(m, r)
    flat = itertools.chain.from_iterable(itertools.combinations(range(m), r))
    table = np.fromiter(flat, dtype=np.int8, count=count * r).reshape(count, r)
    table.flags.writeable = False
    return table


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


def subset_output_error(query, keys, vals, picks) -> list[float]:
    """L2 distance between full attention output and each pick's output.

    ``picks`` is a stack of equal-sized index lists, in any order within a
    pick, all scored in one attention call; each error has the bits that
    pick scored alone, or enumerated by ``optimal_subset``, gets. A stack
    that is empty or ragged, or a pick with an index outside the entries or
    a repeated index, is an ``InvalidShape``, raised before any attention.
    """
    message = f"picks must be a non-empty stack of equal-sized, non-empty index lists, distinct in [0, {len(keys)})"
    try:
        subsets = np.sort(np.array(picks, dtype=np.intp), axis=-1)
    except ValueError as exc:
        raise InvalidShape(message) from exc
    if (
        subsets.ndim != 2
        or subsets.size == 0
        or subsets[:, 0].min() < 0
        or subsets[:, -1].max() >= len(keys)
        or (subsets[:, 1:] == subsets[:, :-1]).any()
    ):
        raise InvalidShape(message)
    return _subset_errors(query, keys, vals, subsets)


def optimal_subset(
    query,
    keys,
    vals,
    budget: int,
    recent_window: int,
) -> tuple[tuple[int, ...], float]:
    """Exhaustively find the budget-sized entry subset closest to full output.

    The last ``min(recent_window, budget)`` entries are pinned and only the
    distant complement is enumerated, mirroring the retention rule every
    policy here obeys; ``recent_window = 0`` searches over all subsets.
    Ties keep the first subset in lexicographic enumeration order, so
    results are reproducible. Subsets are scored ``SUBSET_CHUNK`` at a
    time, with the bits ``subset_output_error`` gives each one.
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
    if recent_window < 0:
        raise InvalidParam("recent_window must be >= 0")
    forced = min(recent_window, budget)
    free = budget - forced
    table = _combination_table(n - forced, free)
    chunk = np.empty((min(SUBSET_CHUNK, len(table)), budget), dtype=np.intp)
    chunk[:, free:] = np.arange(n - forced, n)
    winners = []
    for start in range(0, len(table), SUBSET_CHUNK):
        rows = table[start : start + SUBSET_CHUNK]
        chunk[: len(rows), :free] = rows
        errs = _subset_errors(query, keys, vals, chunk[: len(rows)])
        j = errs.index(min(errs))
        winners.append((errs[j], start + j))
    # Equal errors keep the subset enumerated first.
    best_err, best_row = min(winners)
    return tuple(table[best_row].tolist()) + tuple(range(n - forced, n)), best_err


def shadow_error(full_out, policy_out) -> list[float]:
    """Output distance per (layer, KV head), layer-major, between two steps.

    Both are ``StepOutput``s of the same token over one model, the first
    under full attention (``compare`` steps the runs in lockstep). Each
    error is the Frobenius distance between the group's pre-projection
    attention outputs, so it is exactly zero when the policy retained
    everything the full run saw.
    """
    return _distances(np.concatenate(full_out.attn_outputs), np.concatenate(policy_out.attn_outputs))
