"""``StepAudit`` against an independent set-based replay.

Hypothesis draws tiny models, policies of every kind and eviction grids
that follow the policy's occupancy rule, then corrupts some of them with
one bad eviction, one occupancy or one prefill eviction too many or too
few. ``StepAudit`` must refuse exactly the record, store and rule that
``reference.LiveSetReplay`` refuses first, and until then hold the
reference's live positions after the prefill and after every step.
"""

import re

from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphkv import EvictionPolicyConfig, ModelConfig
from morphkv.config import POLICY_KINDS
from morphkv.errors import TraceMismatch
from morphkv.metrics import kv_bytes_from_occupancies
from morphkv.trace import StepAudit, StepRecord, StepTrace

from reference import LiveSetReplay, occupancy_closed_form

PER_SCALAR = 8
# A corruption puts one bad position into an eviction cell, shifts one
# occupancy or changes a prefill cell's count: "evicted" is a position
# evicted before, "range" one never handed out, "repeated" one the cell
# already holds, "window" one of the store's newest, in a step or in the
# prefill; "prefill_count" drops one of a prefill cell's evictions or evicts
# one more prompt position.
CORRUPTIONS = ("none", "evicted", "range", "repeated", "window", "occupancy", "prefill_count")
RULES = {"twice or while it is not live": "live", "newest positions": "window", "occupancy": "occupancy"}
WHERE = re.compile(r"^(?:prefill|step record (\d+)) store \((\d+),(\d+)\) ")


@st.composite
def audit_cases(draw):
    """A model, a policy, a prompt length, a prefill eviction grid and step
    records ``(evicted, occupancy)``, at most one of them corrupted."""
    n_layers, n_kv = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    model = ModelConfig(n_layers=n_layers, n_query_heads=n_kv, n_kv_heads=n_kv, head_dim=2, vocab_size=4)
    policy = EvictionPolicyConfig(
        kind=draw(st.sampled_from(POLICY_KINDS)),
        distant_capacity=draw(st.integers(0, 3)),
        recent_window=draw(st.integers(1, 3)),
        eviction_interval=draw(st.integers(1, 3)),
        protected_layers=draw(st.integers(0, n_layers)),
        sink_count=draw(st.integers(0, 2)),
        prefill_budget=draw(st.integers(1, 4)),
        compress_prefill=draw(st.booleans()),
    )
    prompt_len, steps = draw(st.integers(1, 6)), draw(st.integers(0, 8))
    stores = [[set(range(prompt_len)) for _ in range(n_kv)] for _ in range(n_layers)]
    # Per record (prefill first): each store's live positions before its
    # evictions, and the evicted and occupancy grids.
    records = []
    for step in range(-1, steps):
        position = prompt_len + step
        before = [[] for _ in stores]
        evicted = [[] for _ in stores]
        occupancy = [[] for _ in stores]
        for layer, heads in enumerate(stores):
            kept = occupancy_closed_form(policy, prompt_len, layer, step)
            # The prompt policy keeps a store's newest min(recent_window, kept).
            window = policy.recent_window if step >= 0 else min(policy.recent_window, kept)
            for live in heads:
                if step >= 0:
                    live.add(position)
                ordered = sorted(live)
                evictable = ordered[: len(ordered) - min(window, len(ordered))]
                assert 0 <= len(live) - kept <= len(evictable)
                gone = draw(st.permutations(evictable))[: len(live) - kept]
                live.difference_update(gone)
                before[layer].append(ordered)
                evicted[layer].append(gone)
                occupancy[layer].append(kept)
        records.append((before, evicted, occupancy))
    corruption = draw(st.sampled_from(CORRUPTIONS))
    if corruption != "none":
        _corrupt(draw, corruption, records, prompt_len, policy.recent_window)
    prefill = records[0][1]
    return model, policy, prompt_len, prefill, [(ev, occ) for _, ev, occ in records[1:]]


def _corrupt(draw, corruption, records, prompt_len, recent):
    """Apply ``corruption`` to one (record, store) it can apply to."""
    targets = []
    for index, (before, evicted, occupancy) in enumerate(records):
        size = prompt_len + index  # positions handed out by this record
        for layer, heads in enumerate(before):
            for head, live in enumerate(heads):
                cell = evicted[layer][head]
                window = recent if index else min(recent, occupancy[layer][head])
                pool = {
                    "evicted": sorted(set(range(size)) - set(live)),
                    "range": [-1, -3, size, size + 2],
                    "repeated": list(cell),
                    "window": live[-min(window, len(live)) :],
                    "occupancy": [-2, -1, 1, 2] if index else [],
                    # Whole replacement cells, one eviction fewer or one more.
                    "prefill_count": [] if index else (
                        [cell[:i] + cell[i + 1 :] for i in range(len(cell))]
                        + [cell + [p] for p in live if p not in cell]
                    ),
                }[corruption]
                if pool:
                    targets.append((index, layer, head, pool))
    if not targets:
        return
    index, layer, head, pool = draw(st.sampled_from(targets))
    value = draw(st.sampled_from(pool))
    _, evicted, occupancy = records[index]
    if corruption == "occupancy":
        occupancy[layer][head] += value
    elif corruption == "prefill_count":
        evicted[layer][head] = value
    else:
        cell = evicted[layer][head]
        cell.insert(draw(st.integers(0, len(cell))), value)


def _refusal(exc: TraceMismatch):
    """``(record, layer, head, rule)`` of a refusal, record None for the prefill."""
    message = str(exc)
    where = WHERE.match(message)
    assert where, message
    rule = next(rule for text, rule in RULES.items() if text in message)
    record = None if where[1] is None else int(where[1])
    return record, int(where[2]), int(where[3]), rule


# A store no larger than its window may evict none of it: position 0 of
# a two-entry store under a window of 3 is refused by the window rule, before
# the occupancy rule would refuse the record too.
ONE_STORE = ModelConfig(n_layers=1, n_query_heads=1, n_kv_heads=1, head_dim=2, vocab_size=4)
SHORT_STORE = (ONE_STORE, EvictionPolicyConfig(distant_capacity=0, recent_window=3), 1, [[[]]], [([[[0]]], [[1]])])
# A snapkv prefill that evicts nothing leaves all 5 prompt entries where
# its budget keeps 2: refused by the occupancy rule before any step.
UNCUT_PREFILL = (ONE_STORE, EvictionPolicyConfig(kind="snapkv", prefill_budget=2), 5, [[[]]], [])
# A compressed prefill with a window of 2 that evicts position 5, the newest
# of a 6-token prompt: refused by the window rule, its count being right.
NEWEST_PREFILL = (
    ONE_STORE,
    EvictionPolicyConfig(distant_capacity=3, recent_window=2, compress_prefill=True),
    6,
    [[[5]]],
    [],
)


@settings(max_examples=300, deadline=None)
@given(case=audit_cases())
@example(case=SHORT_STORE)
@example(case=UNCUT_PREFILL)
@example(case=NEWEST_PREFILL)
def test_audit_refuses_where_the_set_replay_does_and_holds_its_live_positions(case):
    model, policy, prompt_len, prefill, records = case
    reference = LiveSetReplay(model.n_layers, model.n_kv_heads, prompt_len, policy.recent_window)

    def kept(step):
        return [occupancy_closed_form(policy, prompt_len, layer, step) for layer in range(model.n_layers)]

    expected = reference.prefill(prefill, kept(-1))
    try:
        audit = StepAudit(StepTrace(model, policy, [0] * prompt_len, PER_SCALAR, prefill, []))
    except TraceMismatch as exc:
        assert expected is not None and _refusal(exc) == (None, *expected), exc
        return
    assert expected is None and audit.live == reference.sorted_stores()
    for step, (evicted, occupancy) in enumerate(records):
        expected = reference.step(evicted, occupancy, kept(step))
        nbytes = kv_bytes_from_occupancies(occupancy, model, policy, PER_SCALAR)
        try:
            audit.check(StepRecord(step, 0, occupancy, evicted, nbytes))
        except TraceMismatch as exc:
            assert expected is not None and _refusal(exc) == (step, *expected), exc
            return
        assert expected is None and audit.live == reference.sorted_stores()
        if policy.kind == "morphkv":
            # An evicting layer is at the budget after each selecting step
            # and grows by one a step until the next.
            bound = policy.cache_budget + step % policy.eviction_interval
            for layer in range(policy.protected_layers, model.n_layers):
                assert all(len(live) <= bound for live in audit.live[layer])
