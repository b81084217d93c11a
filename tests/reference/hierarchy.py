"""Reference :func:`repro.approx.hierarchy.decide` (test oracle).

Per-lane votes through the public collectives (``ballot``,
``warp_active_count``, ``block_count``, ``block_active_count``) and freshly
allocated masks.  Frozen: change only with an intentional behaviour change.
"""

from __future__ import annotations

import numpy as np

from repro.approx.base import HierarchyLevel
from repro.approx.hierarchy import Decision
from repro.gpusim.context import GridContext


def decide(
    ctx: GridContext,
    want_approx: np.ndarray,
    level: HierarchyLevel,
    mask: np.ndarray | None = None,
) -> Decision:
    """Reference :func:`repro.approx.hierarchy.decide`."""
    m = ctx.mask if mask is None else np.logical_and(ctx.mask, mask)
    want = np.logical_and(np.asarray(want_approx, dtype=bool), m)

    if level is HierarchyLevel.THREAD:
        approx = want
    elif level is HierarchyLevel.WARP:
        votes = ctx.ballot(want, m)
        active = ctx.warp_active_count(m)
        approve = votes * 2 > active
        approx = np.logical_and(approve, m)
    elif level is HierarchyLevel.TEAM:
        votes = ctx.block_count(want, m)
        active = ctx.block_active_count(m)
        approve = votes * 2 > active
        approx = np.logical_and(approve, m)
    else:  # pragma: no cover - exhaustive enum
        raise ValueError(f"unknown hierarchy level {level!r}")

    accurate = np.logical_and(m, np.logical_not(approx))
    forced = np.logical_and(approx, np.logical_not(want))
    denied = np.logical_and(want, np.logical_not(approx))
    return Decision(approx_mask=approx, accurate_mask=accurate, forced=forced, denied=denied)
