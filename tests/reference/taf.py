"""Reference :func:`repro.approx.taf.taf_invoke` (test oracle).

Boolean gathers and scatters over freshly allocated masks and value
planes, and the RSD evaluated over every lane.  Decides through the
reference :func:`tests.reference.hierarchy.decide`.  Frozen: change only
with an intentional behaviour change.
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import RegionSpec, RegionStats, TAFParams
from repro.approx.hierarchy import Decision
from repro.approx.taf import ACCUMULATING, STABLE, get_state, window_rsd
from repro.gpusim.context import GridContext
from tests.reference.hierarchy import decide


def taf_invoke(
    ctx: GridContext,
    spec: RegionSpec,
    compute,
    mask: np.ndarray | None = None,
    stats: RegionStats | None = None,
) -> tuple[np.ndarray, Decision]:
    """Reference :func:`repro.approx.taf.taf_invoke`."""
    params: TAFParams = spec.params  # type: ignore[assignment]
    ow = max(spec.out_width, 1)
    st = get_state(ctx, spec)
    m = ctx.mask if mask is None else np.logical_and(ctx.mask, mask)

    # Activation function: read the per-thread state machine (shared
    # memory) and evaluate the criterion.
    ctx.shared_access(1.0, m)
    ctx.flops(2.0, m)
    want = np.logical_and.reduce(
        [m, st.state == STABLE, st.pred_left > 0]
    )
    dec = decide(ctx, want, spec.level, m)

    # Lanes the group forces to approximate can only comply if they have
    # a replayable value; warm-up lanes fall back to the accurate path.
    can = st.hist_len > 0
    approx = np.logical_and(dec.approx_mask, can)
    fallback = np.logical_and(dec.approx_mask, np.logical_not(can))
    accurate = np.logical_or(dec.accurate_mask, fallback)

    values = np.zeros((ctx.total_threads, ow), dtype=np.float64)

    # --- approximate path: replay the last accurate output ---------------
    if approx.any():
        ctx.shared_access(float(ow), approx)
        values[approx] = st.last[approx]
        st.pred_left[approx] -= 1
        done = np.logical_and(approx, st.pred_left <= 0)
        if done.any():
            # Prediction budget exhausted: flush the window and
            # re-monitor.
            st.state[done] = ACCUMULATING
            st.hist_len[done] = 0

    # --- accurate path: execute the region and update the window ---------
    if accurate.any():
        computed = np.asarray(compute(accurate), dtype=np.float64)
        if computed.ndim == 1:
            computed = computed[:, None]
        values[accurate] = computed[accurate]

        # Append to the sliding window (shift when full).
        full = st.hist_len >= params.history_size
        shift = np.logical_and(accurate, full)
        if shift.any():
            st.history[shift, :-1] = st.history[shift, 1:]
            st.history[shift, -1] = computed[shift]
        grow = np.logical_and(accurate, np.logical_not(full))
        if grow.any():
            st.history[grow, st.hist_len[grow]] = computed[grow]
            st.hist_len[grow] += 1
        st.last[accurate] = computed[accurate]
        ctx.shared_access(float(ow) + 1.0, accurate)

        # Windows that just became full evaluate the RSD criterion.
        ready = np.logical_and(accurate, st.hist_len >= params.history_size)
        if ready.any():
            ctx.flops(3.0 * params.history_size * ow, ready)
            ctx.sfu(2.0, ready)  # sqrt for sigma, divide for sigma/mu
            rsd = window_rsd(
                st.history,
                st.hist_len,
                params.history_size,
                mode=spec.meta.get("rsd_mode", "components"),
            )
            arm = np.logical_and(ready, rsd < params.rsd_threshold)
            if arm.any():
                st.state[arm] = STABLE
                st.pred_left[arm] = params.prediction_size

    if stats is not None:
        stats.invocations += int(m.sum())
        stats.approximated += int(approx.sum())
        stats.forced += int(np.logical_and(dec.forced, can).sum())
        stats.denied += int(dec.denied.sum())
        stats.fallback_accurate += int(fallback.sum())

    return values, dec
