"""Independent reference implementations used as test oracles.

Everything here recomputes results through a different arithmetic path
than the package: plain Python loops, mpmath where extra precision
matters, and whole-sequence matrix passes instead of cached decoding.
Nothing imports the package's numeric kernels, so agreement is evidence,
not tautology.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np

ROPE_BASE = 10000.0


def softmax_highprec(logits, dps: int = 60) -> list[float]:
    """Softmax evaluated with 60 decimal digits, rounded at the end."""
    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(float(x))) for x in logits]
        total = mpmath.fsum(exps)
        return [float(e / total) for e in exps]


def attention_naive(q, keys, vals):
    """Double-loop attention with per-element accumulation."""
    n = len(keys)
    d = len(q)
    scale = 1.0 / math.sqrt(d)
    logits = []
    for row in keys:
        acc = 0.0
        for a, b in zip(q, row):
            acc += float(a) * float(b)
        logits.append(acc * scale)
    m = max(logits)
    exps = [math.exp(x - m) for x in logits]
    total = sum(exps)
    weights = [e / total for e in exps]
    out = [0.0] * d
    for w, row in zip(weights, vals):
        for j in range(d):
            out[j] += w * float(row[j])
    return weights, out


def rope_pairwise(v, position: int) -> list[float]:
    """Explicit 2x2 rotation of each (2i, 2i+1) pair."""
    v = [float(x) for x in v]
    d = len(v)
    out = [0.0] * d
    for i in range(d // 2):
        theta = position * ROPE_BASE ** (-2.0 * i / d)
        c, s = math.cos(theta), math.sin(theta)
        out[2 * i] = v[2 * i] * c - v[2 * i + 1] * s
        out[2 * i + 1] = v[2 * i] * s + v[2 * i + 1] * c
    return out


def fuse_loops(rows, distant: int, kind: str) -> list[float]:
    """Fusion recomputed with explicit loops over the distant columns."""
    out = []
    for k in range(distant):
        column = [float(row[k]) for row in rows]
        out.append(sum(column) if kind == "sum" else max(column))
    return out


class RetentionReplay:
    """Pure-Python mirror of one store's selective-retention decisions.

    Seeded from the live positions and windowed rows of a store, then fed
    one (position, group_rows) pair per decode step. Everything inside is
    plain lists and loops; ``aggregate=False`` ranks by the group's first
    row alone, which must be equivalent when the group has one member.
    """

    def __init__(self, live, window_rows, distant_capacity, recent_window,
                 fusion="sum", aggregate=True):
        self.live = list(live)
        self.window = [[float(x) for x in row] for row in window_rows]
        self.c = distant_capacity
        self.r = recent_window
        self.fusion = fusion
        self.aggregate = aggregate

    def step(self, position, group_rows):
        self.live.append(position)
        for row in self.window:
            row.append(0.0)
        n = len(self.live)
        if self.aggregate:
            row = [sum(float(g[k]) for g in group_rows) for k in range(n)]
        else:
            row = [float(x) for x in group_rows[0]]
        self.window.append(row)
        if len(self.window) > self.r:
            self.window.pop(0)
        if n <= self.c + self.r:
            return []
        distant = n - min(self.r, n)
        scores = fuse_loops(self.window, distant, self.fusion)
        order = sorted(range(distant), key=lambda k: (scores[k], k), reverse=True)
        keep = sorted(order[: self.c]) + list(range(distant, n))
        keep_set = set(keep)
        evicted = [p for i, p in enumerate(self.live) if i not in keep_set]
        self.live = [self.live[i] for i in keep]
        self.window = [[row[i] for i in keep] for row in self.window]
        return evicted


def occupancy_closed_form(policy, prompt: int, layer: int, step: int) -> int:
    """Entries a store at ``layer`` keeps, over a ``prompt``-token prompt,
    after decode step ``step`` (-1: after the prompt policy), in closed form
    rather than step by step. A morphkv store that evicts holds
    ``min(budget, start + j + 1)`` after its newest selecting step ``j`` and
    then grows by one a step."""
    added, recent = step + 1, policy.recent_window
    budget = policy.distant_capacity + recent
    if policy.kind == "morphkv" and layer >= policy.protected_layers:
        start = min(prompt, budget) if policy.compress_prefill else prompt
        if step < 0:
            return start
        last = step - step % policy.eviction_interval
        return min(budget, start + last + 1) + step - last
    if policy.kind == "snapkv":
        return min(prompt, policy.prefill_budget) + added
    if step < 0 or policy.kind in ("morphkv", "full_attention"):
        return prompt + added
    if policy.kind == "scissorhands":
        return min(prompt + added, recent)
    if policy.kind == "streamingllm":
        return min(prompt + added, policy.sink_count + recent)
    return prompt + min(added, budget)  # h2o: prompt entries are immortal


class LiveSetReplay:
    """Set-based replay of a trace's (layer, KV head) stores, a mirror of
    ``trace.StepAudit`` on another path. Each store is a ``set`` of live
    positions; a step adds the next position, ``size``, and its newest
    window is ``sorted(live)[-min(recent, len(live)):]``, taken after that
    append and before the step's evictions.

    :meth:`prefill` and :meth:`step` return the first rule the evictions
    break, as ``(layer, head, rule)`` with ``rule`` one of ``"live"`` (a
    position not live: never handed out, out of range or evicted before),
    ``"window"`` or ``"occupancy"``; or None when they break none.
    """

    def __init__(self, n_layers, n_kv_heads, prompt_len, recent):
        self.size, self.recent = prompt_len, recent
        self.stores = [[set(range(prompt_len)) for _ in range(n_kv_heads)] for _ in range(n_layers)]

    def prefill(self, evictions, kept):
        """Replay the prefill's evictions; ``kept[layer]`` is what the
        prompt policy leaves there, ``occupancy_closed_form`` at step -1."""
        for layer, heads in enumerate(evictions):
            for head, gone in enumerate(heads):
                live = self.stores[layer][head]
                for p in gone:
                    if p not in live:
                        return layer, head, "live"
                    live.remove(p)
                if len(live) != kept[layer]:
                    return layer, head, "occupancy"
        return None

    def step(self, evictions, occupancy, kept):
        """Replay one step; ``kept[layer]`` is what the policy leaves there."""
        position = self.size
        self.size += 1
        for layer, heads in enumerate(evictions):
            for head, gone in enumerate(heads):
                live = self.stores[layer][head]
                live.add(position)
                newest = set(sorted(live)[-min(self.recent, len(live)):])
                for p in gone:
                    if p not in live:
                        return layer, head, "live"
                    if p in newest:
                        return layer, head, "window"
                    live.remove(p)
                if not occupancy[layer][head] == len(live) == kept[layer]:
                    return layer, head, "occupancy"
        return None

    def sorted_stores(self):
        return [[sorted(live) for live in heads] for heads in self.stores]


def kv_bytes_spreadsheet(occupancy, heads, layers, head_dim, bytes_per_scalar) -> int:
    """Cell-by-cell byte count: every store, every entry, key then value."""
    total = 0
    for _ in range(layers):
        for _ in range(heads):
            for _ in range(occupancy):
                total += head_dim * bytes_per_scalar  # key vector
                total += head_dim * bytes_per_scalar  # value vector
    return total


def _rms(x: np.ndarray) -> np.ndarray:
    return x / np.sqrt(np.mean(x * x) + 1e-8)


def full_forward(weights, tokens):
    """Whole-sequence causal forward pass with no cache.

    Returns ``(logits, rows)`` where ``logits[t]`` is the next-token
    distribution input at position ``t`` and ``rows[layer][head][t]`` is
    the (group_size, t+1) attention row block of position ``t``.
    """
    cfg = weights.config
    T = len(tokens)
    g = cfg.group_size
    hd = cfg.head_dim
    X = np.array([weights.embedding[int(t)] for t in tokens], dtype=np.float64)
    rows = [
        [[None] * T for _ in range(cfg.n_kv_heads)] for _ in range(cfg.n_layers)
    ]
    for li, lw in enumerate(weights.layers):
        Xn = np.array([_rms(x) for x in X])
        Q = (Xn @ lw.w_q).reshape(T, cfg.n_query_heads, hd)
        K = (Xn @ lw.w_k).reshape(T, cfg.n_kv_heads, hd)
        V = (Xn @ lw.w_v).reshape(T, cfg.n_kv_heads, hd)
        for t in range(T):
            for m in range(cfg.n_query_heads):
                Q[t, m] = rope_pairwise(Q[t, m], t)
            for h in range(cfg.n_kv_heads):
                K[t, h] = rope_pairwise(K[t, h], t)
        attn = np.zeros((T, cfg.d_model))
        for t in range(T):
            for h in range(cfg.n_kv_heads):
                block = np.empty((g, t + 1))
                for j in range(g):
                    m = h * g + j
                    w, out = attention_naive(Q[t, m], K[: t + 1, h], V[: t + 1, h])
                    block[j] = w
                    attn[t, m * hd : (m + 1) * hd] = out
                rows[li][h][t] = block
        X = X + attn @ lw.w_o
        X = X + np.tanh(np.array([_rms(x) for x in X]) @ lw.w_in) @ lw.w_out
    logits = np.array([_rms(x) for x in X]) @ weights.embedding.T
    return logits, rows
