"""Parallel, checkpointed execution of DSE sweeps.

The paper's exploration is the harness's hot path: Table 2 enumerates
57,288 configurations at up to 988 GPU-hours per benchmark (§4), and each
point is independent of every other — embarrassingly parallel by
construction.  This module keeps the PR-1 sweep API
(:func:`run_sweep_parallel`: one app/device, a list of points) but the
execution itself now lives in :mod:`repro.harness.batch`, the general
batch-evaluation engine shared with the figure entry points and the smart
searches.  Going through the batch layer buys the sweep path three things
for free:

* each unique (app, device) baseline is computed once in the parent and
  shipped to every worker, instead of once per worker;
* chunks are sized adaptively from observed points/sec instead of the
  fixed :data:`DEFAULT_CHUNK_SIZE` (pin them via ``config.chunk_size``);
* duplicate points in the input collapse to a single evaluation.

Execution policy arrives as one frozen
:class:`~repro.harness.config.SweepConfig` (the PR-1/PR-3 loose keywords
remain accepted through a :class:`DeprecationWarning` shim), and passing
``engine=`` routes the sweep through a persistent
:class:`~repro.harness.batch.BatchEngine` — its warm worker pool and
session record cache — instead of a per-call pool.

Durability is unchanged: completed records stream into a
:class:`~repro.harness.database.CheckpointWriter` as chunks finish, and a
restarted sweep loads the file and skips every point whose label is
already recorded — a crash at point 56k costs one chunk, not the
campaign.  Worker failures degrade the same way infeasible configurations
already do: a point that raises an unexpected exception is retried (on a
freshly rebuilt runner, in case the exception poisoned the old one's
caches), then recorded as an infeasible row carrying the error note
instead of aborting the sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.gpusim.device import DeviceSpec
from repro.harness.batch import (
    TARGET_CHUNK_SECONDS,  # noqa: F401 — canonical home is harness.config
    BatchJob,
    _default_factory,  # noqa: F401 — re-exported for pickling compatibility
    run_batch,
    run_point_with_retry,  # noqa: F401 — public retry wrapper lives in batch
)
from repro.harness.config import UNSET, SweepConfig, resolve_config
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint

#: Legacy fixed points-per-chunk bound (PR 1).  The batch layer now sizes
#: chunks adaptively; pass ``SweepConfig(chunk_size=DEFAULT_CHUNK_SIZE)``
#: to restore the old static sharding.
DEFAULT_CHUNK_SIZE = 16


@dataclass
class SweepReport:
    """Outcome of one :func:`run_sweep_parallel` invocation."""

    #: All requested records in input-point order (checkpointed + fresh).
    records: list[RunRecord]
    #: Points actually executed by this invocation.
    evaluated: int
    #: Points satisfied from the checkpoint without running.
    skipped: int
    #: Points recorded as infeasible by the static preflight, unsimulated.
    pruned: int = 0
    elapsed: float = 0.0
    checkpoint: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def feasible(self) -> int:
        return sum(1 for r in self.records if r.feasible)

    @property
    def infeasible(self) -> int:
        return len(self.records) - self.feasible


def run_sweep_parallel(
    app: str,
    device: str | DeviceSpec,
    points: list[SweepPoint],
    *,
    site: str | None = None,
    problems: dict | None = None,
    seed: int = 2023,
    config: SweepConfig | None = None,
    engine=None,
    runner_factory: Callable[..., ExperimentRunner] | None = None,
    factory_args: tuple | None = None,
    **legacy,
) -> SweepReport:
    """Execute ``points`` for one app/device, in parallel, resumably.

    Execution policy lives in ``config`` (a frozen
    :class:`~repro.harness.config.SweepConfig`):

    * ``workers > 1`` shards the pending points into chunks on a process
      pool; ``workers`` of 1 runs in-process with identical
      retry/checkpoint/progress behaviour, so the two paths produce
      byte-identical records (the simulation is deterministic per seed).
    * ``checkpoint`` names a JSONL (or ``.jsonl.gz``) file: existing
      records for this (app, device) are trusted and their points skipped;
      fresh records are appended and flushed as each chunk completes.  The
      resume key is (app, device, point label), which does not distinguish
      ``site`` overrides.
    * ``chunk_size`` pins the shard size; by default chunks are sized
      adaptively toward ``target_chunk_seconds`` of work from observed
      points/sec.  ``share_baselines`` (default) computes the (app, device)
      baseline once in the parent and ships it to every worker.
    * ``progress`` is ``True`` for a stderr status line per chunk, or a
      callable receiving :class:`~repro.harness.reporting.SweepProgress`.
    * ``preflight`` statically vets each pending point before dispatch:
      ``True`` uses :func:`repro.analysis.preflight.make_preflight`; a
      callable ``(app, device, point, site=...) -> RunRecord | None`` is
      used directly.  A non-None return is recorded as an infeasible row
      (the diagnostic code in its note) without entering the simulator;
      feasible points are unaffected, so the surviving records are
      byte-identical to a preflight-disabled run.  Pruned records are
      checkpointed like any other, so a resumed sweep does not re-vet them.

    The PR-1 loose keywords (``max_workers=``, ``checkpoint=``, ...) remain
    accepted and are overlaid onto ``config`` with a
    :class:`DeprecationWarning`.

    ``engine`` routes the sweep through an existing persistent
    :class:`~repro.harness.batch.BatchEngine` — reusing its warm worker
    pool and session record cache — with this call's ``config`` overlaid
    on the engine's for the duration of the call.

    ``runner_factory``/``factory_args`` override worker construction (it
    must be a picklable top-level callable); the default builds
    ``ExperimentRunner(problems=problems, seed=seed)``.  Custom factories
    disable baseline sharing (the factory may not build an
    :class:`ExperimentRunner` at all).
    """
    cfg = resolve_config(config, "run_sweep_parallel", **legacy)
    if cfg.prune:
        # Lattice pruning dispatches ancestor-first as dependencies
        # resolve — a different driver entirely (see
        # repro.harness.pruning).  The records of every point it does
        # evaluate are byte-identical to this path's.
        if runner_factory is not None:
            raise ValueError(
                "SweepConfig(prune=...) requires the stock runner; "
                "runner_factory is not supported"
            )
        from repro.harness.pruning import run_sweep_pruned

        return run_sweep_pruned(
            app, device, points,
            site=site, problems=problems, seed=seed,
            config=cfg, engine=engine,
        )
    jobs = [BatchJob(app, device, pt, site=site) for pt in points]
    if engine is not None:
        report = engine.submit(jobs, config=cfg).report()
    else:
        report = run_batch(
            jobs,
            problems=problems,
            seed=seed,
            config=cfg,
            runner_factory=runner_factory,
            factory_args=factory_args,
        )
    return SweepReport(
        records=report.records,
        evaluated=report.evaluated,
        skipped=report.skipped,
        pruned=report.pruned,
        elapsed=report.elapsed,
        checkpoint=report.checkpoint,
        extra={
            "deduped": report.deduped,
            "baseline_runs": report.baseline_runs,
            "worker_baseline_runs": report.worker_baseline_runs,
            "variant_hits": report.variant_hits,
            **report.extra,
        },
    )
