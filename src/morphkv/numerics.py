"""Dense float64 math shared by the decoder and the oracles.

Every operation is pure: results depend only on the numeric inputs, never
on global state, so equal seeds reproduce equal bits. Attention broadcasts
over leading axes but never changes a slice's summation order: batching a
group of heads, or a stack of key subsets, returns the bits of the
single-query calls it replaces.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import EmptyCache, InvalidParam, InvalidShape, NonFiniteInput

ROPE_BASE = 10000.0


def softmax(logits) -> np.ndarray:
    """Numerically stable softmax over a 1-D array of finite logits.

    The max is subtracted before exponentiating, so adding a constant to
    every logit leaves the output unchanged and large logits cannot
    overflow. Entries are positive and sum to 1.
    """
    x = np.asarray(logits, dtype=np.float64)
    if x.ndim != 1 or x.size == 0:
        raise InvalidShape("softmax expects a non-empty 1-D array")
    return _softmax_rows(x)


def _softmax_rows(x: np.ndarray) -> np.ndarray:
    """`softmax` of every row along the last axis; rows must be non-empty."""
    if not np.isfinite(x).all():
        raise NonFiniteInput("softmax input must be finite")
    weights = np.exp(x - x.max(axis=-1, keepdims=True))
    return weights / weights.sum(axis=-1, keepdims=True)


def scaled_dot_attention(q, keys, vals) -> tuple[np.ndarray, np.ndarray]:
    """Attention of ``q (..., d)`` over cached rows ``keys``/``vals (..., n, d)``.

    Leading axes broadcast, so one call serves a group of query heads over
    one store, or one query over a stack of key subsets. Returns
    ``(weights (..., n), output (..., d))`` where ``weights`` is the softmax
    of ``keys @ q / sqrt(d)`` and ``output = weights @ vals``; ``output``
    owns its memory. Every product is a stacked matmul with a unit axis,
    which numpy runs as one gemv per slice, so each slice's bits equal a
    single-query call; a 2-D gemm would sum in another order.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(keys, dtype=np.float64)
    v = np.asarray(vals, dtype=np.float64)
    if k.ndim < 2 or v.ndim < 2:
        raise InvalidShape("keys and vals must be (..., entries, head_dim)")
    if k.shape[-2] == 0:
        raise EmptyCache("attention needs at least one cached entry")
    if q.ndim == 0 or k.shape[-1] != q.shape[-1] or v.shape != k.shape:
        raise InvalidShape("query/key/value dimensions disagree")
    try:
        logits = np.matmul(k, q[..., :, None])[..., 0]
    except ValueError:
        raise InvalidShape("query and key leading axes do not broadcast") from None
    weights = _softmax_rows(logits / math.sqrt(q.shape[-1]))
    output = np.empty(weights.shape[:-1] + q.shape[-1:])
    np.matmul(weights[..., None, :], v, out=output[..., None, :])
    return weights, output


@functools.lru_cache(maxsize=None)
def _inv_freq(head_dim: int) -> np.ndarray:
    half = head_dim // 2
    freq = ROPE_BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / head_dim)
    freq.flags.writeable = False
    return freq


def apply_rope(v, position) -> np.ndarray:
    """Rotary position encoding: rotate consecutive dimension pairs.

    Pair ``(2i, 2i+1)`` is rotated by ``position * ROPE_BASE**(-2i/d)``
    radians. Position 0 is the identity and the 2-norm is preserved.
    Accepts a single vector or a stack of row vectors; the last axis is
    the head dimension. ``position`` is an int, or a 1-D sequence of ints
    holding one position per index of the leading axis; each row then
    gets the bits of a single-position call.
    """
    x = np.asarray(v, dtype=np.float64)
    pos = np.asarray(position)
    if x.ndim == 0 or x.shape[-1] % 2:
        raise InvalidShape("rotary encoding needs an even head dimension")
    if pos.ndim and (pos.ndim > 1 or x.ndim < 2 or len(pos) != len(x)):
        raise InvalidShape("a position vector must match the leading axis")
    if pos.min(initial=0) < 0:
        raise InvalidParam("position must be >= 0")
    angles = pos.reshape((-1,) + (1,) * (x.ndim - 1)) * _inv_freq(x.shape[-1])
    cos, sin = np.cos(angles), np.sin(angles)
    even, odd = x[..., 0::2], x[..., 1::2]
    out = np.empty_like(x)
    out[..., 0::2] = even * cos - odd * sin
    out[..., 1::2] = even * sin + odd * cos
    return out
