"""Heterogeneous batch evaluation: one persistent, streaming parallel engine.

PR 1 parallelized *single* sweeps; PR 3 widened the unit of work to
arbitrary heterogeneous ``device × app × technique × point`` batches with
parent-resolved baselines and adaptive chunk sizing.  Two costs remained,
both named in ROADMAP: every ``run_jobs`` call still paid a fresh
``ProcessPoolExecutor`` spawn, and consumers blocked on the whole batch
instead of seeing records as chunks landed.  This revision removes both:

* :class:`WorkerPool` keeps one ``ProcessPoolExecutor`` alive for a whole
  :class:`BatchEngine` session — spawned lazily on first use, reaped after
  a configurable idle TTL, respawned automatically (with the
  poisoned-runner rebuild) when a worker process crashes — so a session of
  generation-sized batches pays the spawn cost once (``stats.pool_spawns``
  makes "exactly one pool" assertable).
* :class:`BatchStream` / :meth:`BatchEngine.submit` stream records to the
  caller as chunks complete, while checkpoint writes, progress callbacks,
  and the engine cache absorb them in the background.  The blocking
  :func:`run_batch` / :meth:`BatchEngine.run_jobs` paths are now thin
  drains of the same stream, so the streamed and blocking record sets are
  identical by construction.
* :class:`StreamSession` is the incremental variant — ``put()`` one job at
  a time, consume results in submission order while later jobs evaluate —
  feeding the steady-state evolutionary search; in completion order it
  feeds the dependency-driven pruned sweep
  (:func:`repro.harness.pruning.run_sweep_pruned`).

Execution policy (workers, chunking, checkpoint, retries, progress,
preflight, sanitize, baseline sharing, idle TTL) lives in one frozen
:class:`~repro.harness.config.SweepConfig`; the PR-3 loose keywords remain
accepted through a :class:`DeprecationWarning` shim.

The serial path (``workers <= 1``) runs the same code in-process and
produces byte-identical records (the simulation is deterministic per
seed), so every caller keeps a ``parallel=0`` escape hatch that matches
the old behaviour exactly.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.gpusim.device import DeviceSpec, get_device
from repro.harness.config import (
    TARGET_CHUNK_SECONDS,
    UNSET,
    SweepConfig,
    resolve_config,
)
from repro.harness.database import CheckpointWriter, ResultsDB
from repro.harness.reporting import SweepProgress, progress_callback
from repro.harness.runner import ExperimentRunner, RunRecord
from repro.harness.sweep import SweepPoint

#: Chunk size used for a group before any throughput has been observed —
#: deliberately small so the controller gets feedback after little work.
INITIAL_CHUNK_SIZE = 2
MIN_CHUNK_SIZE = 1
MAX_CHUNK_SIZE = 64
#: Pool respawns one batch/session tolerates before recording the affected
#: jobs as infeasible (a chunk that reliably kills workers must not respawn
#: forever).
MAX_POOL_RESPAWNS = 3


def _default_factory(problems: dict | None, seed: int) -> ExperimentRunner:
    return ExperimentRunner(problems=problems, seed=seed)


@dataclass(frozen=True)
class BatchJob:
    """One unit of work: evaluate ``point`` for ``app`` on ``device``."""

    app: str
    device: str | DeviceSpec
    point: SweepPoint
    site: str | None = None


@dataclass
class BatchReport:
    """Outcome of one :func:`run_batch` invocation."""

    #: One record per input job, in job order (checkpointed + fresh; a
    #: deduplicated slot shares its record with the slot it collapsed into).
    records: list[RunRecord]
    #: Points actually simulated by this invocation.
    evaluated: int
    #: Job slots satisfied from the checkpoint without running.
    skipped: int
    #: Duplicate job slots collapsed within this batch.
    deduped: int = 0
    #: Points recorded as infeasible by the static preflight, unsimulated.
    pruned: int = 0
    #: Job slots served from the content-hash variant cache.
    variant_hits: int = 0
    #: Unique (app, device) baselines computed in the parent for sharing.
    baseline_runs: int = 0
    #: Baselines computed inside pool workers (0 when sharing is on).
    worker_baseline_runs: int = 0
    elapsed: float = 0.0
    checkpoint: str | None = None
    extra: dict = field(default_factory=dict)

    @property
    def feasible(self) -> int:
        return sum(1 for r in self.records if r.feasible)

    @property
    def infeasible(self) -> int:
        return len(self.records) - self.feasible


class AdaptiveChunker:
    """Feedback controller sizing chunks from observed points/sec.

    Each (app, device) group keeps an exponentially-smoothed throughput
    estimate; the next chunk for a group carries
    ``rate × target_seconds`` points, clamped to
    [``min_size``, ``max_size``].  Until a group has been observed it gets
    ``initial`` points, so the first measurement arrives quickly even for
    slow apps."""

    def __init__(
        self,
        target_seconds: float = TARGET_CHUNK_SECONDS,
        initial: int = INITIAL_CHUNK_SIZE,
        min_size: int = MIN_CHUNK_SIZE,
        max_size: int = MAX_CHUNK_SIZE,
        smoothing: float = 0.5,
    ) -> None:
        self.target_seconds = target_seconds
        self.initial = initial
        self.min_size = min_size
        self.max_size = max_size
        self.smoothing = smoothing
        self.rates: dict = {}
        #: (group, points, seconds) per observed chunk, for introspection.
        self.log: list[tuple] = []

    def next_size(self, group=None) -> int:
        rate = self.rates.get(group)
        if rate is None:
            return self.initial
        want = int(round(rate * self.target_seconds)) or 1
        return max(self.min_size, min(self.max_size, want))

    def observe(self, group, points: int, seconds: float) -> None:
        if points <= 0:
            return
        rate = points / max(seconds, 1e-9)
        prev = self.rates.get(group)
        self.rates[group] = (
            rate if prev is None
            else self.smoothing * rate + (1.0 - self.smoothing) * prev
        )
        self.log.append((group, points, seconds))


# ----------------------------------------------------------------------
# Retry wrapper.  Shared by the serial and worker paths.
def run_point_with_retry(
    runner,
    app: str,
    device: str | DeviceSpec,
    point: SweepPoint,
    site: str | None = None,
    retries: int = 1,
    rebuild: Callable[[], object] | None = None,
    sanitize: bool = False,
) -> RunRecord:
    """``runner.run_point`` hardened for sweep duty.

    ``run_point`` already records infeasible configurations gracefully;
    this catches everything else (harness bugs, partial region stats, a
    poisoned worker), retries ``retries`` times, and on persistent failure
    returns an infeasible record carrying the exception so one bad point
    cannot abort a 57k-point campaign.

    ``rebuild`` is called before each retry to replace the runner: an
    unexpected exception can leave the per-process runner's baseline/app
    caches or region state half-mutated, and retrying on the poisoned
    instance can fail for the wrong reason.  The callable should also
    update whatever slot the caller reuses across points (the worker
    global, a closure variable) so later points get the fresh instance."""
    # ``sanitize`` is forwarded only when set, so stub runners whose
    # run_point lacks the keyword keep working.
    kwargs = {"sanitize": True} if sanitize else {}
    last: Exception | None = None
    for attempt in range(max(0, retries) + 1):
        if attempt and rebuild is not None:
            try:
                runner = rebuild()
            except Exception:  # noqa: BLE001 — keep the old instance over losing the point
                pass
        try:
            return runner.run_point(app, device, point, site=site, **kwargs)
        except Exception as exc:  # noqa: BLE001 — sweep must survive anything
            last = exc
    return RunRecord(
        app=app,
        device=get_device(device).name,
        technique=point.technique,
        params=dict(point.params),
        level=point.level,
        items_per_thread=point.items_per_thread,
        feasible=False,
        note=(
            f"WorkerError after {retries + 1} attempts: "
            f"{type(last).__name__}: {last}"
        ),
    )


def _crash_record(job: BatchJob, why: str) -> RunRecord:
    """Infeasible record for a job lost to repeated pool crashes."""
    return RunRecord(
        app=job.app,
        device=get_device(job.device).name,
        technique=job.point.technique,
        params=dict(job.point.params),
        level=job.point.level,
        items_per_thread=job.point.items_per_thread,
        feasible=False,
        note=f"WorkerCrash: {why}",
    )


# ----------------------------------------------------------------------
# Worker side.  Each pool process builds one runner in its initializer and
# reuses it for every chunk; baselines arrive *with the chunks* (a
# persistent pool outlives any single batch's baseline set) and accumulate
# in ``_BATCH_BASELINES`` so a retry rebuild re-primes everything seen.
_BATCH_FACTORY: Callable | None = None
_BATCH_ARGS: tuple = ()
_BATCH_BASELINES: dict = {}
_BATCH_RUNNER = None
_BATCH_RETIRED_COMPUTES = 0


def _build_worker_runner():
    runner = _BATCH_FACTORY(*_BATCH_ARGS)
    if _BATCH_BASELINES and hasattr(runner, "prime_baselines"):
        runner.prime_baselines(_BATCH_BASELINES)
    return runner


def _rebuild_batch_runner():
    """Replace a possibly-poisoned worker runner with a fresh, primed one."""
    global _BATCH_RUNNER, _BATCH_RETIRED_COMPUTES
    _BATCH_RETIRED_COMPUTES += getattr(_BATCH_RUNNER, "baseline_computes", 0)
    _BATCH_RUNNER = _build_worker_runner()
    return _BATCH_RUNNER


def _init_batch_worker(factory: Callable, args: tuple) -> None:
    global _BATCH_FACTORY, _BATCH_ARGS, _BATCH_BASELINES
    _BATCH_FACTORY, _BATCH_ARGS, _BATCH_BASELINES = factory, args, {}
    _rebuild_batch_runner()


def _worker_baseline_computes() -> int:
    return _BATCH_RETIRED_COMPUTES + getattr(_BATCH_RUNNER, "baseline_computes", 0)


def _run_batch_chunk(
    chunk: list[tuple],
    retries: int,
    baselines: dict | None = None,
    sanitize: bool = False,
) -> tuple[list, float, int]:
    """Run one heterogeneous chunk; returns (records, seconds, baseline runs).

    ``seconds`` is measured in the worker so the adaptive controller sees
    compute time, not queue wait."""
    assert _BATCH_RUNNER is not None, "pool initializer did not run"
    if baselines:
        _BATCH_BASELINES.update(baselines)
        if hasattr(_BATCH_RUNNER, "prime_baselines"):
            _BATCH_RUNNER.prime_baselines(baselines)
    before = _worker_baseline_computes()
    t0 = time.monotonic()
    records = [
        run_point_with_retry(
            _BATCH_RUNNER, app, device, point, site=site,
            retries=retries, rebuild=_rebuild_batch_runner, sanitize=sanitize,
        )
        for app, device, point, site in chunk
    ]
    return records, time.monotonic() - t0, _worker_baseline_computes() - before


# ----------------------------------------------------------------------
class WorkerPool:
    """A kept-alive ``ProcessPoolExecutor`` for batch workers.

    Spawned lazily on the first submission, kept warm between batches so a
    session of ``run_jobs`` calls pays the interpreter-spawn cost once,
    reaped after ``idle_ttl`` seconds without work (a daemon timer; the
    next submission transparently respawns), and replaced wholesale by
    :meth:`respawn` when a crashed worker breaks the executor.  ``spawns``
    / ``respawns`` count pool creations so "exactly one pool per session"
    is assertable rather than assumed.
    """

    def __init__(
        self,
        max_workers: int,
        factory: Callable = _default_factory,
        args: tuple = (None, 2023),
        idle_ttl: float | None = None,
    ) -> None:
        self.max_workers = max(1, int(max_workers))
        self.factory = factory
        self.args = args
        self.idle_ttl = idle_ttl
        self.spawns = 0
        self.respawns = 0
        self._executor: ProcessPoolExecutor | None = None
        self._lock = threading.RLock()
        self._timer: threading.Timer | None = None
        self._active = 0
        self._last_used = time.monotonic()

    @property
    def alive(self) -> bool:
        return self._executor is not None

    def _cancel_timer(self) -> None:
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None

    def _ensure(self) -> ProcessPoolExecutor:
        self._cancel_timer()
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self.max_workers,
                initializer=_init_batch_worker,
                initargs=(self.factory, self.args),
            )
            self.spawns += 1
        self._last_used = time.monotonic()
        return self._executor

    def submit(self, fn, *args):
        with self._lock:
            return self._ensure().submit(fn, *args)

    def acquire(self) -> None:
        """Mark the pool in-use: suspends idle reaping until released."""
        with self._lock:
            self._active += 1
            self._cancel_timer()

    def release(self) -> None:
        """Mark one user done; schedules the idle reap when none remain."""
        with self._lock:
            self._active = max(0, self._active - 1)
            self._last_used = time.monotonic()
            if self._active == 0 and self.idle_ttl is not None and self.alive:
                self._cancel_timer()
                self._timer = threading.Timer(self.idle_ttl, self.reap_idle)
                self._timer.daemon = True
                self._timer.start()

    def reap_idle(self, force: bool = False) -> bool:
        """Shut the executor down if it has sat idle past the TTL.

        Returns True if the pool was reaped.  ``force=True`` reaps an idle
        pool regardless of elapsed time (deterministic tests)."""
        with self._lock:
            if self._executor is None or self._active:
                return False
            idle = time.monotonic() - self._last_used
            # The timer can fire a scheduler tick early; allow 1% slack.
            if not force and (
                self.idle_ttl is None or idle < self.idle_ttl * 0.99
            ):
                return False
            self._cancel_timer()
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None
            return True

    def respawn(self) -> ProcessPoolExecutor:
        """Replace a broken executor with a fresh one (counted)."""
        with self._lock:
            old, self._executor = self._executor, None
            if old is not None:
                old.shutdown(wait=False, cancel_futures=True)
            self.respawns += 1
            return self._ensure()

    def shutdown(self) -> None:
        with self._lock:
            self._cancel_timer()
            if self._executor is not None:
                self._executor.shutdown(wait=False, cancel_futures=True)
                self._executor = None

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


# ----------------------------------------------------------------------
def _job_keys(jobs: list[BatchJob], dev_names: dict[str, str]) -> list[tuple]:
    """Checkpoint-label-space identity per job (device presets memoized)."""
    keys = []
    for job in jobs:
        if isinstance(job.device, DeviceSpec):
            name = job.device.name
        else:
            name = dev_names.get(job.device)
            if name is None:
                name = get_device(job.device).name
                dev_names[job.device] = name
        keys.append((job.app, name, job.point.label()))
    return keys


def _order_pending(
    pending: "OrderedDict[tuple, BatchJob]",
    order,
    done: dict,
    bound: float | None = None,
) -> "OrderedDict[tuple, BatchJob]":
    """Reorder the pending frontier per ``SweepConfig.order``.

    A callable receives the pending job list and must return a permutation
    of it (checked by identity in the checkpoint label space); ``True``
    scores each job with the incremental surrogate fitted from already-done
    records (checkpoint rows of this very campaign), descending, stable."""
    entries = list(pending.items())
    if callable(order):
        ordered_jobs = list(order([job for _key, job in entries]))
        new_keys = _job_keys(ordered_jobs, {})
        if sorted(new_keys) != sorted(pending):
            raise ValueError(
                "order callable must return a permutation of the pending jobs"
            )
        return OrderedDict((key, pending[key]) for key in new_keys)
    from repro.harness.pruning import DEFAULT_QOI_BOUND, Surrogate

    surrogate = Surrogate()
    surrogate.observe_records(done.values())
    b = bound if bound is not None else DEFAULT_QOI_BOUND
    scores = {key: surrogate.score(job.point, b) for key, job in entries}
    return OrderedDict(sorted(entries, key=lambda kv: -scores[kv[0]]))


class BatchStream:
    """Iterator over a batch's records, yielded as they become available.

    Construction resolves job identities, loads the checkpoint, collapses
    duplicates, runs the static preflight, and resolves shared baselines;
    iteration drives the dispatch loop.  Slots satisfied without
    simulation (checkpoint, preflight prune, duplicate of an earlier slot)
    yield first, in job order; fresh evaluations yield as their chunks
    complete — while checkpoint writes and progress callbacks absorb them
    in the background — so a consumer overlaps its own work with the
    pool's.  :meth:`records` / :meth:`report` drain the stream and return
    the job-ordered result, byte-identical to the blocking path.

    With ``pool=None`` and ``config.workers > 1`` the stream owns a
    transient :class:`WorkerPool` (shut down when the stream finishes);
    passing a shared pool — what :class:`BatchEngine` does — reuses its
    warm workers and leaves its lifecycle to the owner.
    """

    def __init__(
        self,
        jobs: Iterable[BatchJob],
        *,
        problems: dict | None = None,
        seed: int = 2023,
        config: SweepConfig | None = None,
        pool: WorkerPool | None = None,
        baseline_source: ExperimentRunner | None = None,
        serial_runner: ExperimentRunner | None = None,
        runner_factory: Callable[..., ExperimentRunner] | None = None,
        factory_args: tuple | None = None,
        on_result: Callable[[tuple, RunRecord], None] | None = None,
        on_done: Callable[["BatchStream"], None] | None = None,
        variant_cache=None,
    ) -> None:
        cfg = config if config is not None else SweepConfig()
        self.config = cfg
        self.jobs = list(jobs)
        self._on_result = on_result
        self._on_done = on_done
        self._t0 = time.monotonic()
        self._factory = runner_factory or _default_factory
        self._args = factory_args if factory_args is not None else (problems, seed)
        default_runner = runner_factory is None

        self._slot_keys = _job_keys(self.jobs, {})
        self._slots_by_key: dict[tuple, list[int]] = {}
        for idx, key in enumerate(self._slot_keys):
            self._slots_by_key.setdefault(key, []).append(idx)

        # Checkpointed jobs are trusted and never dispatched.
        self._done: dict[tuple, RunRecord] = {}
        if cfg.checkpoint is not None and Path(cfg.checkpoint).exists():
            index: dict[tuple, RunRecord] = {}
            for rec in ResultsDB.load(cfg.checkpoint):
                index[(rec.app, rec.device, SweepPoint.of_record(rec).label())] = rec
            for key in self._slots_by_key:
                if key in index:
                    self._done[key] = index[key]
        self.skipped = sum(
            1 for key in self._slot_keys if key in self._done
        )

        # In-batch dedupe: first job per identity wins, later slots share it.
        pending: OrderedDict[tuple, BatchJob] = OrderedDict()
        for job, key in zip(self.jobs, self._slot_keys):
            if key not in self._done and key not in pending:
                pending[key] = job
        self.deduped = (len(self.jobs) - self.skipped) - len(pending)

        # Static preflight: vet pending jobs in the parent (cheap — no
        # simulation) and divert the statically infeasible ones straight to
        # the results, so the pool only ever sees points that might run.
        pre = cfg.preflight
        pruned: list[tuple[tuple, RunRecord]] = []
        if pre:
            if pre is True:
                from repro.analysis.preflight import make_preflight

                pre = make_preflight(problems)
            survivors: OrderedDict[tuple, BatchJob] = OrderedDict()
            for key, job in pending.items():
                rec = pre(job.app, job.device, job.point, site=job.site)
                if rec is None:
                    survivors[key] = job
                else:
                    pruned.append((key, rec))
            pending = survivors
        self.pruned = len(pruned)

        # Content-hash variant cache: identical lowered configurations from
        # *other* campaigns (different checkpoint files, figures, apps) are
        # served without simulating.  Only sound for the stock runner — a
        # custom runner_factory may not be content-deterministic.
        self.variant_hits = 0
        self._vcache = None
        self._vkeys: dict[tuple, str] = {}
        vhits: list[tuple[tuple, RunRecord]] = []
        if default_runner:
            if variant_cache is not None:
                self._vcache = variant_cache
            elif cfg.variant_cache is not None:
                from repro.harness.pruning import resolve_variant_cache

                self._vcache = resolve_variant_cache(cfg.variant_cache)
        if self._vcache is not None:
            fresh_pending: OrderedDict[tuple, BatchJob] = OrderedDict()
            for key, job in pending.items():
                vkey = self._vcache.key_for(
                    job.app, job.device, job.point, site=job.site,
                    seed=self._args[1], problem=self._args[0],
                    sanitize=cfg.sanitize,
                )
                rec = self._vcache.get(vkey)
                if rec is None:
                    self._vkeys[key] = vkey
                    fresh_pending[key] = job
                else:
                    vhits.append((key, rec))
            pending = fresh_pending
            self.variant_hits = len(vhits)

        # Surrogate (or caller-supplied) ordering of the pending frontier:
        # changes dispatch order only — records stay slot-ordered, so the
        # result set is byte-identical either way.
        if cfg.order and len(pending) > 1:
            pending = _order_pending(
                pending,
                cfg.order,
                self._done,
                bound=(
                    float(cfg.prune)
                    if isinstance(cfg.prune, float)
                    else None
                ),
            )

        # Baseline pre-resolution: every unique (app, device) among the
        # pending jobs, computed exactly once, shipped to workers alongside
        # their chunks (a persistent pool outlives any one batch, so the
        # old ship-once-via-initializer channel no longer exists).
        self.baseline_runs = 0
        self._group_baselines: dict[tuple, dict] = {}
        src: ExperimentRunner | None = None
        pairs: OrderedDict[tuple, BatchJob] = OrderedDict()
        for key, job in pending.items():
            pairs.setdefault((job.app, key[1]), job)
        if cfg.share_baselines and default_runner and pending:
            src = baseline_source or serial_runner or ExperimentRunner(
                problems=problems, seed=seed
            )
            before = src.baseline_computes
            for (_app, _dev), job in pairs.items():
                src.baseline(job.app, job.device)
            self.baseline_runs = src.baseline_computes - before
            for cache_key, result in src.export_baselines().items():
                pair = (cache_key[0], cache_key[1])
                if pair in pairs:
                    self._group_baselines.setdefault(pair, {})[cache_key] = result

        self._report_progress = progress_callback(cfg.progress)

        self._writer = (
            CheckpointWriter(cfg.checkpoint) if cfg.checkpoint is not None else None
        )
        self.evaluated = self._feasible = self._infeasible = 0
        self.worker_baseline_runs = 0
        self.pool_respawns = 0
        self.elapsed = 0.0

        # Early-resolved slots yield first, in job order.
        self._ready: deque[int] = deque()
        for key in list(self._done):
            self._notify(key, self._done[key])
        if pruned:
            if self._writer is not None:
                self._writer.write([rec for _key, rec in pruned])
            for key, rec in pruned:
                self._done[key] = rec
                self._notify(key, rec)
        if vhits:
            # Variant-cache hits come from other campaigns' caches, so they
            # are written into *this* checkpoint to keep it self-contained.
            if self._writer is not None:
                self._writer.write([rec for _key, rec in vhits])
            for key, rec in vhits:
                self._done[key] = rec
                self._notify(key, rec)

        # Group pending jobs by (app, device): the adaptive controller's
        # unit of throughput, and the worker's unit of app-cache locality.
        self._chunker = AdaptiveChunker(target_seconds=cfg.target_chunk_seconds)
        self._groups: OrderedDict[tuple, deque] = OrderedDict()
        for key, job in pending.items():
            self._groups.setdefault((job.app, key[1]), deque()).append((key, job))
        self._total_pending = len(pending)

        self._workers = max(1, int(cfg.workers))
        self._inflight: dict = {}
        self._respawns_left = MAX_POOL_RESPAWNS
        self._pool: WorkerPool | None = None
        self._owns_pool = False
        self._runner: ExperimentRunner | None = None
        if self._workers > 1 and pending:
            if pool is not None:
                self._pool = pool
                self._pool.acquire()
            else:
                self._pool = WorkerPool(self._workers, self._factory, self._args)
                self._owns_pool = True
        else:
            runner = serial_runner or src or self._factory(*self._args)
            if (
                self._group_baselines
                and runner is not src
                and hasattr(runner, "prime_baselines")
            ):
                for entry in self._group_baselines.values():
                    runner.prime_baselines(entry)
            self._runner = runner
        self._yielded = 0
        self._finished = False

    # -- bookkeeping ----------------------------------------------------
    def _notify(self, key: tuple, record: RunRecord) -> None:
        self._ready.extend(self._slots_by_key.get(key, ()))
        if self._on_result is not None:
            self._on_result(key, record)

    def _absorb(self, keys: list[tuple], records: list[RunRecord]) -> None:
        if self._writer is not None:
            self._writer.write(records)
        for key, rec in zip(keys, records):
            self._done[key] = rec
            self.evaluated += 1
            self._feasible += rec.feasible
            self._infeasible += not rec.feasible
            if (
                self._vcache is not None
                and key in self._vkeys
                and not (rec.note or "").startswith(("WorkerError", "WorkerCrash"))
            ):
                # Crash/retry-exhaustion records reflect machine state, not
                # the configuration's content — never cache them.
                self._vcache.put(self._vkeys[key], rec)
            self._notify(key, rec)
        if self._report_progress is not None:
            self._report_progress(
                SweepProgress(
                    total=self._total_pending,
                    done=self.evaluated,
                    feasible=self._feasible,
                    infeasible=self._infeasible,
                    skipped=self.skipped,
                    elapsed=time.monotonic() - self._t0,
                    deduped=self.deduped,
                )
            )

    def _next_chunk(self) -> tuple[tuple | None, list]:
        """Pop the next chunk, round-robin across groups for fair mixing."""
        if not self._groups:
            return None, []
        group = next(iter(self._groups))
        queue = self._groups[group]
        size = self.config.chunk_size or self._chunker.next_size(group)
        chunk = [queue.popleft() for _ in range(min(size, len(queue)))]
        if queue:
            self._groups.move_to_end(group)
        else:
            del self._groups[group]
        return group, chunk

    # -- dispatch -------------------------------------------------------
    def _dispatch(self, group: tuple, keys: list[tuple], jobs: list[BatchJob]) -> None:
        payload = [(job.app, job.device, job.point, job.site) for job in jobs]
        try:
            fut = self._pool.submit(
                _run_batch_chunk, payload, self.config.retries,
                self._group_baselines.get(group), self.config.sanitize,
            )
        except Exception:  # noqa: BLE001 — broken pool surfaces at submit too
            self._recover([(group, keys, jobs)])
            return
        self._inflight[fut] = (group, keys, jobs)

    def _recover(self, casualties: list[tuple]) -> None:
        """Respawn a broken pool and re-run its lost chunks (budgeted)."""
        casualties = casualties + list(self._inflight.values())
        self._inflight.clear()
        if self._respawns_left > 0:
            self._respawns_left -= 1
            self.pool_respawns += 1
            self._pool.respawn()
            for group, keys, jobs in casualties:
                self._dispatch(group, keys, jobs)
        else:
            why = (
                f"process pool broke {MAX_POOL_RESPAWNS + 1} times; "
                f"chunk abandoned"
            )
            for _group, keys, jobs in casualties:
                self._absorb(keys, [_crash_record(j, why) for j in jobs])

    def _pump(self) -> bool:
        """Advance the batch one step; False when no work remains."""
        if self._finished:
            return False
        if self._pool is None:
            group, chunk = self._next_chunk()
            if not chunk:
                return False

            def rebuild():
                self._runner = self._factory(*self._args)
                if hasattr(self._runner, "prime_baselines"):
                    for entry in self._group_baselines.values():
                        self._runner.prime_baselines(entry)
                return self._runner

            t_chunk = time.monotonic()
            records = [
                run_point_with_retry(
                    self._runner, job.app, job.device, job.point, site=job.site,
                    retries=self.config.retries, rebuild=rebuild,
                    sanitize=self.config.sanitize,
                )
                for _key, job in chunk
            ]
            self._chunker.observe(group, len(chunk), time.monotonic() - t_chunk)
            self._absorb([key for key, _job in chunk], records)
            return True
        while len(self._inflight) < self._workers and self._groups:
            group, chunk = self._next_chunk()
            if not chunk:
                break
            self._dispatch(
                group, [key for key, _job in chunk], [job for _key, job in chunk]
            )
        if not self._inflight:
            return False
        finished, _ = wait(self._inflight, return_when=FIRST_COMPLETED)
        casualties = []
        for fut in finished:
            group, keys, jobs = self._inflight.pop(fut)
            try:
                records, seconds, computes = fut.result()
            except Exception:  # noqa: BLE001 — a dead worker breaks the pool
                casualties.append((group, keys, jobs))
                continue
            self.worker_baseline_runs += computes
            self._chunker.observe(group, len(keys), seconds)
            self._absorb(keys, records)
        if casualties:
            self._recover(casualties)
        return True

    # -- iteration ------------------------------------------------------
    def __iter__(self) -> Iterator[RunRecord]:
        return self

    def __next__(self) -> RunRecord:
        try:
            while not self._ready:
                if not self._pump():
                    break
        except BaseException:
            self._finish()
            raise
        if not self._ready:
            self._finish()
            raise StopIteration
        idx = self._ready.popleft()
        self._yielded += 1
        if self._yielded == len(self.jobs):
            self._finish()
        return self._done[self._slot_keys[idx]]

    @property
    def pending(self) -> int:
        """Job slots not yet yielded."""
        return len(self.jobs) - self._yielded

    def records(self) -> list[RunRecord]:
        """Drain the stream; all records in job order (blocking-equivalent)."""
        for _ in self:
            pass
        return [self._done[key] for key in self._slot_keys]

    def report(self) -> BatchReport:
        """Drain the stream into a blocking-path :class:`BatchReport`."""
        records = self.records()
        return BatchReport(
            records=records,
            evaluated=self.evaluated,
            skipped=self.skipped,
            deduped=self.deduped,
            pruned=self.pruned,
            variant_hits=self.variant_hits,
            baseline_runs=self.baseline_runs,
            worker_baseline_runs=self.worker_baseline_runs,
            elapsed=self.elapsed,
            checkpoint=(
                str(self.config.checkpoint)
                if self.config.checkpoint is not None else None
            ),
            extra={
                "chunk_log": list(self._chunker.log),
                "pool_respawns": self.pool_respawns,
                "variant_hits": self.variant_hits,
            },
        )

    def close(self) -> None:
        """Stop dispatching; absorb in-flight chunks, drop the rest.

        Everything already completed stays in the checkpoint and the
        engine cache, so a partially-consumed stream never loses finished
        work; slots never evaluated are simply never yielded."""
        if self._finished:
            return
        self._groups.clear()
        while self._inflight:
            if not self._pump():
                break
        self._finish()

    def _finish(self) -> None:
        if self._finished:
            return
        self._finished = True
        self.elapsed = time.monotonic() - self._t0
        if self._writer is not None:
            self._writer.close()
        if self._pool is not None:
            if self._owns_pool:
                self._pool.shutdown()
            else:
                self._pool.release()
        if self._on_done is not None:
            self._on_done(self)

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._finished:
                self._groups.clear()
                self._inflight.clear()
                self._finish()
        except Exception:
            pass


# ----------------------------------------------------------------------
def run_batch(
    jobs: list[BatchJob],
    *,
    problems: dict | None = None,
    seed: int = 2023,
    config: SweepConfig | None = None,
    pool: WorkerPool | None = None,
    baseline_source: ExperimentRunner | None = None,
    serial_runner: ExperimentRunner | None = None,
    runner_factory: Callable[..., ExperimentRunner] | None = None,
    factory_args: tuple | None = None,
    **legacy,
) -> BatchReport:
    """Execute heterogeneous ``jobs``, in parallel, resumably, deduplicated.

    Identity of a job is ``(app, device name, point label)`` — the same
    label space the PR-1 checkpoints use — so duplicate jobs within the
    batch evaluate once, and ``config.checkpoint`` (a JSONL or
    ``.jsonl.gz`` file, shared across any mix of apps and devices)
    satisfies previously-run jobs without simulating.  ``site`` overrides
    are honoured per job but are *not* part of the identity (records do
    not store them); do not mix site variants of the same point in one
    label space.

    Execution policy lives in ``config`` (:class:`SweepConfig`); the PR-3
    loose keywords (``max_workers``, ``chunk_size``, ...) remain accepted
    through a :class:`DeprecationWarning` shim.  This is the blocking
    drain of :class:`BatchStream` — construct the stream directly (or use
    :meth:`BatchEngine.submit`) to consume records as chunks complete.

    ``pool`` reuses a caller-owned :class:`WorkerPool` (its worker
    processes stay warm afterwards); without one, ``config.workers > 1``
    spins up a transient pool for this call only.
    """
    cfg = resolve_config(config, "run_batch", **legacy)
    return BatchStream(
        jobs,
        problems=problems,
        seed=seed,
        config=cfg,
        pool=pool,
        baseline_source=baseline_source,
        serial_runner=serial_runner,
        runner_factory=runner_factory,
        factory_args=factory_args,
    ).report()


# ----------------------------------------------------------------------
@dataclass
class EngineStats:
    """Cumulative counters across one :class:`BatchEngine`'s lifetime."""

    #: Job slots requested through the engine.
    submitted: int = 0
    #: Points actually simulated.
    executed: int = 0
    #: Slots served from the engine's session cache (cross-call dedupe).
    cache_hits: int = 0
    #: Duplicate slots collapsed inside single calls.
    deduped: int = 0
    #: Slots served from the checkpoint file.
    skipped: int = 0
    #: Slots recorded by the static preflight without simulating.
    pruned: int = 0
    #: Slots served from the content-hash variant cache (cross-campaign
    #: dedupe; see :class:`repro.harness.pruning.VariantCache`).
    variant_hits: int = 0
    #: Unique (app, device) baselines computed, session-wide.
    baseline_runs: int = 0
    #: Baselines recomputed inside workers (0 when sharing works).
    worker_baseline_runs: int = 0
    #: Process pools spawned for this engine (1 for a whole session once
    #: warm; idle reaps and crash respawns add to it).
    pool_spawns: int = 0
    #: Pools respawned after a worker crash broke the executor.
    pool_respawns: int = 0
    elapsed: float = 0.0


class BatchEngine:
    """Session-scoped, persistent front-end to the batch layer.

    Holds one parent :class:`ExperimentRunner` (the baseline cache and the
    serial executor), one in-memory record cache keyed by the checkpoint
    label space — so *independent callers* (Fig 6 and Fig 7, a search and
    a figure) share overlapping points instead of simulating them twice —
    and, for ``config.workers > 1``, one kept-alive :class:`WorkerPool`
    reused by every :meth:`run_jobs` / :meth:`submit` / session call, so
    consecutive batches amortize the pool spawn (``stats.pool_spawns``
    asserts it).  ``close()`` (or the context manager) releases the pool;
    ``config.idle_ttl`` reaps it automatically between bursts.
    """

    def __init__(
        self,
        *,
        problems: dict | None = None,
        seed: int = 2023,
        config: SweepConfig | None = None,
        runner: ExperimentRunner | None = None,
        **legacy,
    ) -> None:
        self.config = resolve_config(config, "BatchEngine", **legacy)
        self.runner = runner or ExperimentRunner(problems=problems, seed=seed)
        self.stats = EngineStats()
        self.variant_cache = None
        if self.config.variant_cache is not None:
            from repro.harness.pruning import resolve_variant_cache

            self.variant_cache = resolve_variant_cache(self.config.variant_cache)
        self._cache: dict[tuple, RunRecord] = {}
        self._dev_names: dict[str, str] = {}
        self.pool: WorkerPool | None = (
            WorkerPool(
                self.config.workers,
                _default_factory,
                (self.runner.problems, self.runner.seed),
                idle_ttl=self.config.idle_ttl,
            )
            if self.config.workers > 1
            else None
        )
        self._closed = False

    #: Back-compat: PR-3 callers read ``engine.max_workers``.
    @property
    def max_workers(self) -> int:
        return self.config.workers

    def _key(self, job: BatchJob) -> tuple:
        if isinstance(job.device, DeviceSpec):
            name = job.device.name
        else:
            name = self._dev_names.get(job.device)
            if name is None:
                name = get_device(job.device).name
                self._dev_names[job.device] = name
        return (job.app, name, job.point.label())

    def _baseline_entries(self, app: str, device: str | DeviceSpec) -> dict:
        """Resolve (and count) the pair's baseline in the parent runner."""
        before = self.runner.baseline_computes
        self.runner.baseline(app, device)
        self.stats.baseline_runs += self.runner.baseline_computes - before
        name = get_device(device).name
        return {
            k: v for k, v in self.runner.export_baselines().items()
            if k[0] == app and k[1] == name
        }

    def _sync_pool_stats(self) -> None:
        if self.pool is not None:
            self.stats.pool_spawns = self.pool.spawns
            self.stats.pool_respawns = self.pool.respawns

    def _on_result(self, key: tuple, record: RunRecord) -> None:
        self._cache[key] = record

    def _on_stream_done(self, stream: BatchStream) -> None:
        self.stats.executed += stream.evaluated
        self.stats.skipped += stream.skipped
        self.stats.pruned += stream.pruned
        self.stats.variant_hits += stream.variant_hits
        self.stats.worker_baseline_runs += stream.worker_baseline_runs
        self.stats.elapsed += stream.elapsed
        self._sync_pool_stats()

    def submit(
        self, jobs: list[BatchJob], *, config: SweepConfig | None = None
    ) -> "EngineStream":
        """Start evaluating ``jobs``; returns a stream of their records.

        The stream yields each job slot's :class:`RunRecord` as it becomes
        available — cache hits immediately, fresh evaluations as their
        chunks complete — so the caller overlaps consumption with the
        pool's execution.  ``records()`` on the stream (what
        :meth:`run_jobs` calls) drains it into the job-ordered list,
        identical to the blocking path.  ``config`` overlays per-call
        policy (e.g. a checkpoint) onto the engine's."""
        cfg = self.config.merged(config)
        keys = [self._key(job) for job in jobs]
        self.stats.submitted += len(jobs)
        fresh: OrderedDict[tuple, BatchJob] = OrderedDict()
        hits = 0
        for job, key in zip(jobs, keys):
            if key in self._cache:
                hits += 1
            elif key not in fresh:
                fresh[key] = job
        deduped = (len(jobs) - hits) - len(fresh)
        self.stats.cache_hits += hits
        self.stats.deduped += deduped
        inner: BatchStream | None = None
        if fresh:
            inner = BatchStream(
                list(fresh.values()),
                problems=self.runner.problems,
                seed=self.runner.seed,
                config=cfg,
                pool=self.pool,
                baseline_source=self.runner,
                serial_runner=self.runner if cfg.workers <= 1 else None,
                on_result=self._on_result,
                on_done=self._on_stream_done,
                variant_cache=self.variant_cache,
            )
            self.stats.baseline_runs += inner.baseline_runs
        return EngineStream(
            self, jobs, keys, inner, cache_hits=hits, deduped=deduped
        )

    def run_jobs(self, jobs: list[BatchJob]) -> list[RunRecord]:
        """Evaluate ``jobs``, returning one record per job in job order."""
        return self.submit(jobs).records()

    def open_stream(
        self, *, config: SweepConfig | None = None, completion_order: bool = False
    ) -> "StreamSession":
        """Open an incremental submit/consume session on this engine."""
        return StreamSession(
            self, config=config, completion_order=completion_order
        )

    def run_sweep(
        self,
        app: str,
        device: str | DeviceSpec,
        points: list[SweepPoint],
        site: str | None = None,
    ) -> list[RunRecord]:
        """Drop-in for :meth:`ExperimentRunner.run_sweep` through the engine."""
        return self.run_jobs([BatchJob(app, device, pt, site=site) for pt in points])

    def run_point(
        self,
        app: str,
        device: str | DeviceSpec,
        point: SweepPoint,
        site: str | None = None,
    ) -> RunRecord:
        """Drop-in for :meth:`ExperimentRunner.run_point` through the engine."""
        return self.run_jobs([BatchJob(app, device, point, site=site)])[0]

    def close(self) -> None:
        """Release the persistent pool (cache and stats stay readable)."""
        if self._closed:
            return
        self._closed = True
        if self.pool is not None:
            self._sync_pool_stats()
            self.pool.shutdown()

    def __enter__(self) -> "BatchEngine":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class EngineStream:
    """Records for one :meth:`BatchEngine.submit` call, as they land.

    Yields one :class:`RunRecord` per submitted job slot: slots already in
    the engine cache (or satisfied by the checkpoint / preflight) first,
    in job order, then fresh evaluations in completion order — duplicates
    of the same identity yield together.  ``records()`` drains the stream
    and returns the job-ordered list, byte-identical to
    :meth:`BatchEngine.run_jobs`."""

    def __init__(
        self,
        engine: BatchEngine,
        jobs: list[BatchJob],
        keys: list[tuple],
        inner: BatchStream | None,
        cache_hits: int = 0,
        deduped: int = 0,
    ) -> None:
        self._engine = engine
        self._keys = keys
        self._inner = inner
        self.cache_hits = cache_hits
        self.deduped = deduped
        self._ready: deque[int] = deque()
        self._waiting: OrderedDict[tuple, list[int]] = OrderedDict()
        for idx, key in enumerate(keys):
            if key in engine._cache:
                self._ready.append(idx)
            else:
                self._waiting.setdefault(key, []).append(idx)
        self._yielded = 0

    def _promote(self) -> None:
        cache = self._engine._cache
        for key in [k for k in self._waiting if k in cache]:
            self._ready.extend(self._waiting.pop(key))

    def __iter__(self) -> Iterator[RunRecord]:
        return self

    def __next__(self) -> RunRecord:
        while not self._ready and self._inner is not None:
            nxt = next(self._inner, None)
            if nxt is None and self._inner.pending == 0:
                self._inner = None
            self._promote()
        if not self._ready:
            raise StopIteration
        idx = self._ready.popleft()
        self._yielded += 1
        return self._engine._cache[self._keys[idx]]

    @property
    def pending(self) -> int:
        """Job slots not yet yielded."""
        return len(self._keys) - self._yielded

    def records(self) -> list[RunRecord]:
        """Drain the stream; all records in job order."""
        for _ in self:
            pass
        cache = self._engine._cache
        return [cache[key] for key in self._keys]

    def report(self) -> BatchReport:
        """Drain into a blocking-path :class:`BatchReport`.

        Engine cache hits count as ``skipped`` — like checkpoint hits,
        they are slots satisfied without running this call."""
        inner = self._inner
        records = self.records()
        if inner is None:
            return BatchReport(
                records=records,
                evaluated=0,
                skipped=self.cache_hits,
                deduped=self.deduped,
            )
        return BatchReport(
            records=records,
            evaluated=inner.evaluated,
            skipped=inner.skipped + self.cache_hits,
            deduped=inner.deduped + self.deduped,
            pruned=inner.pruned,
            variant_hits=inner.variant_hits,
            baseline_runs=inner.baseline_runs,
            worker_baseline_runs=inner.worker_baseline_runs,
            elapsed=inner.elapsed,
            checkpoint=(
                str(inner.config.checkpoint)
                if inner.config.checkpoint is not None else None
            ),
            extra={"pool_respawns": inner.pool_respawns},
        )

    def close(self) -> None:
        """Stop early; completed work stays absorbed, the rest is dropped."""
        if self._inner is not None:
            self._inner.close()
            self._inner = None


@dataclass(frozen=True)
class Completion:
    """One settled ticket of a completion-order :class:`StreamSession`."""

    ticket: int
    record: RunRecord
    #: How the record was obtained: ``"run"`` (simulated by this session),
    #: ``"cache"`` (engine record cache), ``"variant"`` (variant cache), or
    #: ``"preflight"`` (statically infeasible, never simulated).
    origin: str


class StreamSession:
    """Incremental submit / consume session on an engine.

    :meth:`put` enqueues one :class:`BatchJob` (:meth:`put_chunk` several,
    dispatched as one pool chunk) and returns its integer ticket, while
    earlier tickets keep evaluating on the engine's persistent pool.  Two
    consumption modes, fixed at construction:

    * ticket order (default): iteration yields ``(ticket, record)``
      strictly in ticket order, buffering out-of-order completions.
      Because consumption order is submission order — not completion
      order — an algorithm that decides its next submission from consumed
      results (the steady-state evolutionary search) behaves identically
      at any worker count.
    * completion order (``completion_order=True``): :meth:`next_completed`
      returns each ticket's :class:`Completion` as soon as it settles —
      the feed of dependency-driven schedulers (the pruned sweep), which
      keep :attr:`capacity` chunks :attr:`inflight` so no worker idles.

    With a serial engine (``workers <= 1``) evaluation happens lazily on
    consumption, in submission order, producing identical records.  The
    session shares the engine's record cache, baseline cache, variant
    cache, static preflight, and crash respawn policy; results stream into
    ``config.checkpoint`` when set (the file is *written*, not consulted —
    the engine cache is the in-session dedupe).
    """

    def __init__(
        self,
        engine: BatchEngine,
        *,
        config: SweepConfig | None = None,
        completion_order: bool = False,
    ):
        self._engine = engine
        self._t0 = time.monotonic()
        self._cfg = engine.config.merged(config)
        self._completion_order = completion_order
        self._records: dict[int, RunRecord] = {}
        self._completed: deque[Completion] = deque()
        self._next_ticket = 0
        self._next_out = 0
        self._futures: dict = {}
        self._queue: deque = deque()
        self._key_tickets: dict[tuple, list[int]] = {}
        self._vkeys: dict[tuple, str] = {}
        self._respawns_left = MAX_POOL_RESPAWNS
        self._chunker = AdaptiveChunker(
            target_seconds=self._cfg.target_chunk_seconds
        )
        pre = self._cfg.preflight
        if pre is True:
            from repro.analysis.preflight import make_preflight

            pre = make_preflight(engine.runner.problems)
        self._preflight = pre or None
        self._vcache = engine.variant_cache
        if self._vcache is None and self._cfg.variant_cache is not None:
            from repro.harness.pruning import resolve_variant_cache

            self._vcache = resolve_variant_cache(self._cfg.variant_cache)
        self._writer = (
            CheckpointWriter(self._cfg.checkpoint)
            if self._cfg.checkpoint is not None else None
        )
        self._serial_base0 = (
            engine.runner.baseline_computes if engine.pool is None else None
        )
        if engine.pool is not None:
            engine.pool.acquire()
        self._closed = False

    # -- submission -----------------------------------------------------
    @property
    def capacity(self) -> int:
        """Chunks worth keeping in flight: one per pool worker plus one
        queued, so a worker finishing a chunk starts the next without a
        round trip through the parent (1 in-process)."""
        pool = self._engine.pool
        return pool.max_workers + 1 if pool is not None else 1

    @property
    def inflight(self) -> int:
        """Chunks dispatched (or queued in-process) and not yet settled."""
        return len(self._futures) + len(self._queue)

    def chunk_size(self, ready: int, group=None) -> int:
        """Points for the next chunk when ``ready`` points wait: spread
        them over the free slots, within ``config.chunk_size`` or the
        adaptive size for ``group`` (always 1 in-process, where chunking
        buys nothing and delays feedback)."""
        if self._engine.pool is None:
            return 1
        idle = max(1, self.capacity - self.inflight)
        cap = self._cfg.chunk_size or self._chunker.next_size(group)
        return max(1, min(-(-ready // idle), cap))

    def put(self, job: BatchJob) -> int:
        """Enqueue one job; returns its ticket."""
        return self.put_chunk([job])[0]

    def put_chunk(self, jobs: list[BatchJob]) -> list[int]:
        """Enqueue ``jobs``; the ones needing simulation share one chunk.

        Each job is resolved without simulating when it can be — engine
        cache, a duplicate of an outstanding job, the static preflight,
        the variant cache, in that order — and settles immediately."""
        if self._closed:
            raise RuntimeError("session is closed")
        engine = self._engine
        tickets: list[int] = []
        chunk: list[tuple] = []
        for job in jobs:
            ticket = self._next_ticket
            self._next_ticket += 1
            tickets.append(ticket)
            key = engine._key(job)
            engine.stats.submitted += 1
            if key in engine._cache:
                engine.stats.cache_hits += 1
                self._deliver(ticket, engine._cache[key], "cache")
                continue
            if key in self._key_tickets:
                engine.stats.deduped += 1
                self._key_tickets[key].append(ticket)
                continue
            if self._preflight is not None:
                rec = self._preflight(job.app, job.device, job.point, site=job.site)
                if rec is not None:
                    engine.stats.pruned += 1
                    self._resolve(key, rec, [ticket], "preflight")
                    continue
            vcache = self._vcache
            if vcache is not None:
                vkey = vcache.key_for(
                    job.app, job.device, job.point, site=job.site,
                    seed=engine.runner.seed, problem=engine.runner.problems,
                    sanitize=self._cfg.sanitize,
                )
                rec = vcache.get(vkey)
                if rec is not None:
                    engine.stats.variant_hits += 1
                    self._resolve(key, rec, [ticket], "variant")
                    continue
                self._vkeys[key] = vkey
            self._key_tickets[key] = [ticket]
            chunk.append((key, job))
        if chunk:
            if engine.pool is None:
                self._queue.append(chunk)
            else:
                self._dispatch(chunk)
        return tickets

    def _dispatch(self, chunk: list[tuple]) -> None:
        baselines = None
        if self._cfg.share_baselines:
            baselines = {}
            for pair in dict.fromkeys((job.app, job.device) for _key, job in chunk):
                baselines.update(self._engine._baseline_entries(*pair))
        payload = [(job.app, job.device, job.point, job.site) for _key, job in chunk]
        try:
            fut = self._engine.pool.submit(
                _run_batch_chunk, payload, self._cfg.retries,
                baselines, self._cfg.sanitize,
            )
        except Exception:  # noqa: BLE001 — broken pool surfaces at submit too
            self._recover([chunk])
            return
        self._futures[fut] = chunk

    # -- completion -----------------------------------------------------
    def _deliver(self, ticket: int, record: RunRecord, origin: str) -> None:
        if self._completion_order:
            self._completed.append(Completion(ticket, record, origin))
        else:
            self._records[ticket] = record

    def _resolve(
        self, key: tuple, record: RunRecord, tickets: list[int], origin: str
    ) -> None:
        self._engine._cache[key] = record
        if self._writer is not None:
            self._writer.write([record])
        for ticket in tickets:
            self._deliver(ticket, record, origin)

    def _settle(self, key: tuple, record: RunRecord) -> None:
        self._engine.stats.executed += 1
        vkey = self._vkeys.pop(key, None)
        if vkey is not None and not (record.note or "").startswith(
            ("WorkerError", "WorkerCrash")
        ):
            self._vcache.put(vkey, record)
        self._resolve(key, record, self._key_tickets.pop(key, []), "run")

    def _recover(self, casualties: list[list]) -> None:
        casualties = casualties + list(self._futures.values())
        self._futures.clear()
        if self._respawns_left > 0:
            self._respawns_left -= 1
            self._engine.pool.respawn()
            for chunk in casualties:
                self._dispatch(chunk)
        else:
            why = (
                f"process pool broke {MAX_POOL_RESPAWNS + 1} times; "
                f"job abandoned"
            )
            for chunk in casualties:
                for key, job in chunk:
                    self._settle(key, _crash_record(job, why))

    def _advance(self) -> None:
        """Resolve at least one outstanding chunk."""
        engine = self._engine
        if engine.pool is None:
            for key, job in self._queue.popleft():
                record = run_point_with_retry(
                    engine.runner, job.app, job.device, job.point, site=job.site,
                    retries=self._cfg.retries, sanitize=self._cfg.sanitize,
                )
                self._settle(key, record)
            return
        finished, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        casualties = []
        for fut in finished:
            chunk = self._futures.pop(fut)
            try:
                records, seconds, computes = fut.result()
            except Exception:  # noqa: BLE001 — dead worker broke the pool
                casualties.append(chunk)
                continue
            engine.stats.worker_baseline_runs += computes
            key0, job0 = chunk[0]
            self._chunker.observe((job0.app, key0[1]), len(chunk), seconds)
            for (key, _job), record in zip(chunk, records):
                self._settle(key, record)
        if casualties:
            self._recover(casualties)

    @property
    def outstanding(self) -> int:
        """Tickets submitted but not yet consumed."""
        return self._next_ticket - self._next_out

    @property
    def settled(self) -> int:
        """Completion-order tickets settled and not yet returned."""
        return len(self._completed)

    def next_completed(self) -> Completion | None:
        """The next settled ticket in completion order, blocking while work
        is in flight; ``None`` once every ticket has been returned."""
        if not self._completion_order:
            raise RuntimeError("session consumes in ticket order")
        try:
            while not self._completed and self.inflight:
                self._advance()
        except BaseException:
            self.close()
            raise
        if not self._completed:
            return None
        self._next_out += 1
        return self._completed.popleft()

    def __iter__(self) -> Iterator[tuple[int, RunRecord]]:
        return self

    def __next__(self) -> tuple[int, RunRecord]:
        if self._completion_order:
            raise RuntimeError("session consumes in completion order")
        if self._next_out >= self._next_ticket:
            raise StopIteration
        try:
            while self._next_out not in self._records:
                self._advance()
        except BaseException:
            self.close()
            raise
        ticket = self._next_out
        self._next_out += 1
        return ticket, self._records.pop(ticket)

    def close(self) -> None:
        """Absorb in-flight work into the engine cache and release the pool."""
        if self._closed:
            return
        self._closed = True
        self._queue.clear()
        while self._futures:
            self._advance()
        if self._writer is not None:
            self._writer.close()
        if self._engine.pool is not None:
            self._engine.pool.release()
        elif self._serial_base0 is not None:
            self._engine.stats.baseline_runs += (
                self._engine.runner.baseline_computes - self._serial_base0
            )
        self._engine.stats.elapsed += time.monotonic() - self._t0
        self._engine._sync_pool_stats()

    def __enter__(self) -> "StreamSession":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - GC safety net
        try:
            if not self._closed:
                self._futures.clear()
                self.close()
        except Exception:
            pass
