"""Reference :func:`repro.approx.iact.iact_invoke` (test oracle).

The einsum distance scan with ``argmin`` nearest-entry selection, boolean
gathers for the hit path, and a writer election over boolean-indexed
subsets.  Decides through the reference
:func:`tests.reference.hierarchy.decide`.  Frozen: change only with an
intentional behaviour change.
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import IACTParams, RegionSpec, RegionStats
from repro.approx.hierarchy import Decision
from repro.approx.iact import _INT64_MAX, check_uniform_inputs, get_state
from repro.gpusim.context import GridContext
from tests.reference.hierarchy import decide


def iact_invoke(
    ctx: GridContext,
    spec: RegionSpec,
    inputs: np.ndarray,
    compute,
    mask: np.ndarray | None = None,
    stats: RegionStats | None = None,
    policy: str = "round_robin",
) -> tuple[np.ndarray, Decision]:
    """Reference :func:`repro.approx.iact.iact_invoke`."""
    params: IACTParams = spec.params  # type: ignore[assignment]
    ow = max(spec.out_width, 1)
    st = get_state(ctx, spec, policy)
    x = check_uniform_inputs(inputs, spec)
    tid = st.table_of_lane
    total = ctx.total_threads
    lanes = (total,)

    m = ctx.mask if mask is None else np.logical_and(ctx.mask, mask)

    # --------------------------------------------------------------
    # Read phase: every lane scans its table for the nearest valid
    # entry.  Paid on every invocation — iACT's unavoidable decision
    # cost.
    # --------------------------------------------------------------
    ctx.shared_access(float(params.table_size * spec.in_width), m)
    ctx.flops(3.0 * params.table_size * spec.in_width, m)
    diffs = st.keys[tid].astype(np.float64) - x[:, None, :]
    dist2 = np.einsum("lti,lti->lt", diffs, diffs)
    dist2 = np.where(st.valid[tid], dist2, np.inf)
    nearest_slot = np.argmin(dist2, axis=1)
    nearest_d2 = dist2[np.arange(total), nearest_slot]
    has_entry = np.isfinite(nearest_d2)

    want = np.logical_and.reduce([m, has_entry, nearest_d2 <= params.threshold**2])
    dec = decide(ctx, want, spec.level, m)

    approx = np.logical_and(dec.approx_mask, has_entry)
    fallback = np.logical_and(dec.approx_mask, np.logical_not(has_entry))
    accurate = np.logical_or(dec.accurate_mask, fallback)

    values = np.zeros((total, ow), dtype=np.float64)

    # --- approximate path: return the nearest cached output ---------------
    if approx.any():
        ctx.shared_access(float(ow), approx)
        values[approx] = st.vals[tid[approx], nearest_slot[approx]]
        st.policy.on_hit(tid[approx], nearest_slot[approx])

    # --- accurate path + write phase ---------------------------------------
    if accurate.any():
        computed = np.asarray(compute(accurate), dtype=np.float64)
        if computed.ndim == 1:
            computed = computed[:, None]
        values[accurate] = computed[accurate]

        # Warp barrier between read and write phases (§3.3).
        ctx._charge_intrinsic(2.0, m)

        # Single-writer election: per table, the missing lane with the
        # largest distance from any cached value inserts its pair.  Lanes
        # with empty tables have +inf distance and always win.
        lane_idx = ctx.thread_id
        ntab = st.keys.shape[0]
        score = np.where(accurate, np.where(has_entry, nearest_d2, np.inf), -np.inf)
        best = np.full(ntab, -np.inf)
        np.maximum.at(best, tid[accurate], score[accurate])
        cand = np.logical_and(accurate, score == best[tid])
        winner = np.full(ntab, _INT64_MAX, dtype=np.int64)
        np.minimum.at(winner, tid[cand], lane_idx[cand])
        writer = np.logical_and(cand, lane_idx == winner[tid])
        ctx._charge_intrinsic(float(np.log2(ctx.warp_size)), m)  # election scan

        wtabs = tid[writer]
        if len(wtabs):
            slots = st.policy.choose_slots(wtabs)
            st.keys[wtabs, slots] = x[writer].astype(np.float32)
            st.vals[wtabs, slots] = computed[writer].astype(np.float32)
            st.valid[wtabs, slots] = True
            ctx.shared_table_write(
                spec.name,
                tid,
                writer,
                accesses=float(spec.in_width + ow) + st.policy.cost_accesses(),
            )

    if stats is not None:
        stats.invocations += int(m.sum())
        stats.approximated += int(approx.sum())
        stats.forced += int(np.logical_and(dec.forced, has_entry).sum())
        stats.denied += int(dec.denied.sum())
        stats.fallback_accurate += int(fallback.sum())

    return values, dec
