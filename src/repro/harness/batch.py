"""Heterogeneous batch evaluation: one persistent engine, one ticketed stream.

Every record the harness simulates comes out of one place:

* :class:`WorkerPool` keeps one ``ProcessPoolExecutor`` alive for a whole
  :class:`BatchEngine` session — spawned lazily on first use, reaped after
  a configurable idle TTL, respawned automatically (with the
  poisoned-runner rebuild) when a worker process crashes — so a session of
  generation-sized batches pays the spawn cost once (``stats.pool_spawns``
  makes "exactly one pool" assertable).
* :class:`EngineStream` is the engine's only way to evaluate jobs.  Each
  job gets a ticket and settles without simulating when it can — an
  earlier slot of the stream, the engine cache, the checkpoint, the static
  preflight, the variant cache — or rides a chunk to an executor.  The
  stream yields tickets in submission order or records in completion
  order, and drains into a job-ordered :class:`BatchReport`.
  :meth:`BatchEngine.submit` / :meth:`~BatchEngine.run_jobs`,
  :func:`run_batch`, the sweeps, the searches and the pruned-sweep driver
  are all feeds and drains of it.

"Serial" (``workers <= 1``) is the same stream with an in-process
executor: chunks run on a :class:`_RunnerSlot` — the object every pool
worker holds — when the consumer awaits them, so retries, the
poisoned-runner rebuild and baseline priming are one piece of code at any
worker count, and serial and pooled records are identical by construction
(the simulation is deterministic per seed).

Execution policy (workers, chunking, checkpoint, retries, progress,
preflight, sanitize, baseline sharing, idle TTL, ordering, variant cache)
lives in one frozen :class:`~repro.harness.config.SweepConfig`.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from functools import partial
from pathlib import Path
from typing import Callable, Iterable, Iterator

from repro.gpusim.device import DeviceSpec, get_device
from repro.harness.config import TARGET_CHUNK_SECONDS, SweepConfig
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
    """Outcome of one drained :class:`EngineStream`."""

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
# Retry wrapper.  Shared by every executor, in-process or pooled.
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
# Executor side.  A _RunnerSlot is one executor's runner: every pool
# process builds one in its initializer, and a pool-less engine holds one
# in-process.  Baselines arrive *with the chunks* (a persistent pool
# outlives any single batch's baseline set) and accumulate in the slot, so
# a retry rebuild re-primes everything seen.
class _RunnerSlot:
    """The runner one executor reuses across chunks, rebuilt on retry."""

    def __init__(self, factory: Callable, args: tuple, runner=None) -> None:
        self.factory = factory
        self.args = args
        self.baselines: dict = {}
        self.retired_computes = 0
        self.runner = runner if runner is not None else factory(*args)

    def rebuild(self):
        """Replace a possibly-poisoned runner with a fresh, primed one."""
        self.retired_computes += getattr(self.runner, "baseline_computes", 0)
        self.runner = self.factory(*self.args)
        if self.baselines and hasattr(self.runner, "prime_baselines"):
            self.runner.prime_baselines(self.baselines)
        return self.runner

    def computes(self) -> int:
        return self.retired_computes + getattr(self.runner, "baseline_computes", 0)

    def run(
        self,
        chunk: list[tuple],
        retries: int,
        baselines: dict | None = None,
        sanitize: bool = False,
    ) -> tuple[list, float, int]:
        """Run one heterogeneous chunk; returns (records, seconds, baseline runs).

        ``seconds`` is measured where the chunk runs so the adaptive
        controller sees compute time, not queue wait."""
        if baselines:
            self.baselines.update(baselines)
            if hasattr(self.runner, "prime_baselines"):
                self.runner.prime_baselines(baselines)
        before = self.computes()
        t0 = time.monotonic()
        records = [
            run_point_with_retry(
                self.runner, app, device, point, site=site,
                retries=retries, rebuild=self.rebuild, sanitize=sanitize,
            )
            for app, device, point, site in chunk
        ]
        return records, time.monotonic() - t0, self.computes() - before


_WORKER_SLOT: _RunnerSlot | None = None


def _init_batch_worker(factory: Callable, args: tuple) -> None:
    global _WORKER_SLOT
    _WORKER_SLOT = _RunnerSlot(factory, args)


def _run_batch_chunk(
    chunk: list[tuple],
    retries: int,
    baselines: dict | None = None,
    sanitize: bool = False,
) -> tuple[list, float, int]:
    """Pool entry point: run ``chunk`` on this worker process's slot."""
    assert _WORKER_SLOT is not None, "pool initializer did not run"
    return _WORKER_SLOT.run(chunk, retries, baselines, sanitize)


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
def _order_pending(
    pending: "OrderedDict[tuple, BatchJob]",
    order,
    done: dict,
    bound: float | None,
    key: Callable[[BatchJob], tuple],
) -> "OrderedDict[tuple, BatchJob]":
    """Reorder the pending frontier per ``SweepConfig.order``.

    A callable receives the pending job list and must return a permutation
    of it (checked by identity in the checkpoint label space, ``key``);
    ``True`` scores each job with the incremental surrogate fitted from
    already-done records (checkpoint rows of this very campaign),
    descending, stable."""
    entries = list(pending.items())
    if callable(order):
        new_keys = [key(job) for job in order([job for _key, job in entries])]
        if sorted(new_keys) != sorted(pending):
            raise ValueError(
                "order callable must return a permutation of the pending jobs"
            )
        return OrderedDict((k, pending[k]) for k in new_keys)
    from repro.harness.pruning import DEFAULT_QOI_BOUND, Surrogate

    surrogate = Surrogate()
    surrogate.observe_records(done.values())
    b = bound if bound is not None else DEFAULT_QOI_BOUND
    scores = {k: surrogate.score(job.point, b) for k, job in entries}
    return OrderedDict(sorted(entries, key=lambda kv: -scores[kv[0]]))


def run_batch(
    jobs: list[BatchJob],
    *,
    problems: dict | None = None,
    seed: int = 2023,
    config: SweepConfig | None = None,
    runner_factory: Callable[..., ExperimentRunner] | None = None,
    factory_args: tuple | None = None,
) -> BatchReport:
    """Execute heterogeneous ``jobs``, in parallel, resumably, deduplicated.

    Identity of a job is ``(app, device name, point label)`` — the label
    space the checkpoints use — so duplicate jobs within the batch
    evaluate once, and ``config.checkpoint`` (a JSONL or ``.jsonl.gz``
    file, shared across any mix of apps and devices) satisfies
    previously-run jobs without simulating.  ``site`` overrides are
    honoured per job but are *not* part of the identity (records do not
    store them); do not mix site variants of the same point in one label
    space.

    This is a transient :class:`BatchEngine` drained once; keep an engine
    (and :meth:`BatchEngine.submit`) to reuse warm workers across calls or
    consume records as chunks complete.
    """
    with BatchEngine(
        problems=problems, seed=seed, config=config,
        runner_factory=runner_factory, factory_args=factory_args,
    ) as engine:
        return engine.submit(jobs).report()


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

    Holds one parent :class:`ExperimentRunner` (the baseline cache, and
    the in-process executor when ``config.workers <= 1``), one in-memory
    record cache keyed by the checkpoint label space — so *independent
    callers* (Fig 6 and Fig 7, a search and a figure) share overlapping
    points instead of simulating them twice — and, for
    ``config.workers > 1``, one kept-alive :class:`WorkerPool` reused by
    every stream, so consecutive batches amortize the pool spawn
    (``stats.pool_spawns`` asserts it).  ``close()`` (or the context
    manager) releases the pool; ``config.idle_ttl`` reaps it automatically
    between bursts.

    ``runner_factory``/``factory_args`` replace how executors build their
    runner (pool workers and the in-process slot alike; for a pool it must
    be a picklable top-level callable).  This is the fault-injection hook:
    a custom factory may not build a content-deterministic
    :class:`ExperimentRunner`, so it turns baseline sharing and the
    variant cache off.
    """

    def __init__(
        self,
        *,
        problems: dict | None = None,
        seed: int = 2023,
        config: SweepConfig | None = None,
        runner: ExperimentRunner | None = None,
        runner_factory: Callable[..., ExperimentRunner] | None = None,
        factory_args: tuple | None = None,
    ) -> None:
        self.config = config if config is not None else SweepConfig()
        self.runner = runner or ExperimentRunner(problems=problems, seed=seed)
        self._stock = runner_factory is None
        self._factory = runner_factory or _default_factory
        self._args = (
            factory_args
            if factory_args is not None
            else (self.runner.problems, self.runner.seed)
        )
        self.stats = EngineStats()
        self.variant_cache = None
        if self._stock and self.config.variant_cache is not None:
            from repro.harness.pruning import resolve_variant_cache

            self.variant_cache = resolve_variant_cache(self.config.variant_cache)
        self._cache: dict[tuple, RunRecord] = {}
        self._dev_names: dict[str, str] = {}
        self._slot: _RunnerSlot | None = None
        self.pool: WorkerPool | None = (
            WorkerPool(
                self.config.workers,
                self._factory,
                self._args,
                idle_ttl=self.config.idle_ttl,
            )
            if self.config.workers > 1
            else None
        )
        self._closed = False

    def _key(self, job: BatchJob) -> tuple:
        if isinstance(job.device, DeviceSpec):
            name = job.device.name
        else:
            name = self._dev_names.get(job.device)
            if name is None:
                name = get_device(job.device).name
                self._dev_names[job.device] = name
        return (job.app, name, job.point.label())

    def _baselines_for(self, pairs: dict) -> tuple[dict, int]:
        """Resolve the baselines of ``pairs`` (``(app, device name) ->
        device``) in the parent runner; returns the cache entries to ship
        with a chunk and how many had to be computed."""
        runner = self.runner
        before = runner.baseline_computes
        for (app, _name), device in pairs.items():
            runner.baseline(app, device)
        entries = {
            k: v for k, v in runner.export_baselines().items()
            if (k[0], k[1]) in pairs
        }
        return entries, runner.baseline_computes - before

    def _inline_slot(self) -> _RunnerSlot:
        """The in-process executor: the engine's own runner for the stock
        factory (its baseline cache is the parent's), else a factory-built
        one, created on first use."""
        if self._slot is None:
            self._slot = _RunnerSlot(
                self._factory, self._args, self.runner if self._stock else None
            )
        return self._slot

    def _sync_pool_stats(self) -> None:
        if self.pool is not None:
            self.stats.pool_spawns = self.pool.spawns
            self.stats.pool_respawns = self.pool.respawns

    def submit(
        self, jobs: list[BatchJob], *, config: SweepConfig | None = None
    ) -> "EngineStream":
        """Start evaluating ``jobs``; returns the stream of their records.

        The stream yields each job slot's :class:`RunRecord` as it settles
        — cache, checkpoint, preflight and variant-cache slots at once,
        fresh evaluations as their chunks complete — so the caller
        overlaps consumption with the pool's execution.  ``records()`` /
        ``report()`` drain it into the job-ordered result (what
        :meth:`run_jobs` returns).  ``config`` overlays per-call policy
        (e.g. a checkpoint) onto the engine's."""
        stream = EngineStream(self, config=config, completion_order=True)
        stream._submit(jobs)
        return stream

    def run_jobs(self, jobs: list[BatchJob]) -> list[RunRecord]:
        """Evaluate ``jobs``, returning one record per job in job order."""
        return self.submit(jobs).records()

    def open_stream(
        self, *, config: SweepConfig | None = None, completion_order: bool = False
    ) -> "EngineStream":
        """Open an empty stream to feed incrementally with ``put``."""
        return EngineStream(self, config=config, completion_order=completion_order)

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


@dataclass(frozen=True)
class Completion:
    """One settled ticket of a completion-order :class:`EngineStream`."""

    ticket: int
    record: RunRecord
    #: How the record was obtained: ``"run"`` (simulated by this stream),
    #: ``"cache"`` (engine record cache, or an earlier slot of the stream),
    #: ``"checkpoint"`` (resumed from ``config.checkpoint``),
    #: ``"variant"`` (variant cache), or ``"preflight"`` (statically
    #: infeasible, never simulated).
    origin: str


class _InlineChunk:
    """A chunk run in-process when first awaited: the serial stand-in for
    a pool future, so both paths settle through one loop."""

    def __init__(self, fn: Callable, *args) -> None:
        self._call = partial(fn, *args)

    def result(self):
        return self._call()


class EngineStream:
    """A ticketed stream of evaluations on a :class:`BatchEngine`.

    Jobs enter through :meth:`put` (one), :meth:`put_chunk` (several,
    dispatched as one chunk) or :meth:`BatchEngine.submit` (a whole batch:
    ordered per ``config.order``, then cut into :class:`AdaptiveChunker`-
    sized chunks round-robin across (app, device) groups as slots free
    up).  Each job gets an integer ticket.  A job settles at once when an
    earlier slot of the stream, the engine cache, ``config.checkpoint``
    (counted ``skipped``), the static preflight or the variant cache
    answers it; the rest are simulated.  Every record this stream settles
    lands in the engine cache and — unless the file already holds the row
    — in ``config.checkpoint``.

    Two consumption modes, fixed at construction:

    * ticket order (default): iteration yields ``(ticket, record)``
      strictly in ticket order, buffering out-of-order completions.
      Because consumption order is submission order — not completion
      order — an algorithm that decides its next submission from consumed
      results (the steady-state evolutionary search) behaves identically
      at any worker count.
    * completion order (``completion_order=True``, what
      :meth:`BatchEngine.submit` opens): :meth:`next_completed` returns
      each ticket's :class:`Completion` as soon as it settles — the feed
      of dependency-driven schedulers (the pruned sweep), which keep
      :attr:`capacity` chunks :attr:`inflight` so no worker idles — and
      iteration yields the bare records in that order.

    In-process chunks (``workers <= 1``) run when the consumer awaits
    them.  :meth:`records` / :meth:`report` drain the stream into the
    ticket-ordered result; a drained stream closes itself.
    """

    def __init__(
        self,
        engine: BatchEngine,
        *,
        config: SweepConfig | None = None,
        completion_order: bool = False,
    ) -> None:
        self._engine = engine
        self._t0 = time.monotonic()
        self.config = cfg = engine.config.merged(config)
        self._completion_order = completion_order
        #: This stream's share of the engine's counters.
        self._counts = EngineStats()
        self.pool_respawns = 0
        self.elapsed = 0.0
        self._records: dict[int, RunRecord] = {}
        self._completed: deque[Completion] = deque()
        self._next_ticket = 0
        self._next_out = 0
        self._seen: set[tuple] = set()
        #: Keys being simulated -> the tickets waiting on them.
        self._key_tickets: dict[tuple, list[int]] = {}
        self._vkeys: dict[tuple, str] = {}
        self._futures: dict = {}
        self._backlog: OrderedDict[tuple, deque] = OrderedDict()
        self._queued = self._feasible = 0
        self._respawns_left = MAX_POOL_RESPAWNS
        self._chunker = AdaptiveChunker(target_seconds=cfg.target_chunk_seconds)
        self._shares = engine._stock and cfg.share_baselines
        #: ``True`` until first use builds the stock analyzer.
        self._preflight = cfg.preflight or None
        self._vcache = None
        if engine._stock:
            self._vcache = engine.variant_cache
            if self._vcache is None and cfg.variant_cache is not None:
                from repro.harness.pruning import resolve_variant_cache

                self._vcache = resolve_variant_cache(cfg.variant_cache)
        self._progress = progress_callback(cfg.progress)
        #: Checkpoint rows by key (loaded on first admission), plus the
        #: ones resumed by this stream (the surrogate's training set).
        self._ck_rows: dict[tuple, RunRecord] | None = None
        self._resumed: dict[tuple, RunRecord] = {}
        self._writer: CheckpointWriter | None = None
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
        """Chunks dispatched and not yet settled."""
        return len(self._futures)

    def chunk_size(self, ready: int, group=None) -> int:
        """Points for the next chunk when ``ready`` points wait: spread
        them over the free slots, within ``config.chunk_size`` or the
        adaptive size for ``group`` (always 1 in-process, where chunking
        buys nothing and delays feedback)."""
        if self._engine.pool is None:
            return 1
        idle = max(1, self.capacity - self.inflight)
        cap = self.config.chunk_size or self._chunker.next_size(group)
        return max(1, min(-(-ready // idle), cap))

    def put(self, job: BatchJob) -> int:
        """Enqueue one job; returns its ticket."""
        return self.put_chunk([job])[0]

    def put_chunk(self, jobs: list[BatchJob]) -> list[int]:
        """Enqueue ``jobs``; the ones needing simulation share one chunk."""
        tickets, fresh = self._admit(jobs)
        if fresh:
            self._queued += len(fresh)
            self._dispatch(fresh)
        return tickets

    def _submit(self, jobs: Iterable[BatchJob]) -> None:
        """Enqueue a whole batch into the round-robin backlog."""
        _tickets, fresh = self._admit(jobs)
        if not fresh:
            return
        self._queued += len(fresh)
        pending = OrderedDict(fresh)
        cfg = self.config
        if cfg.order and len(pending) > 1:
            # Changes dispatch order only: records stay ticket-ordered.
            pending = _order_pending(
                pending, cfg.order, self._resumed,
                float(cfg.prune) if isinstance(cfg.prune, float) else None,
                self._engine._key,
            )
        for key, job in pending.items():
            self._backlog.setdefault((job.app, key[1]), deque()).append((key, job))
        self._fill()

    def _admit(self, jobs: Iterable[BatchJob]) -> tuple[list[int], list[tuple]]:
        """Ticket ``jobs``, settling every one that needs no simulation;
        returns the tickets and the ``(key, job)`` entries left to run."""
        if self._closed:
            raise RuntimeError("stream is closed")
        engine = self._engine
        if self.config.checkpoint is not None and self._ck_rows is None:
            self._ck_rows = self._load_checkpoint()
        tickets: list[int] = []
        fresh: list[tuple] = []
        rows: list[tuple] = []
        for job in jobs:
            ticket = self._next_ticket
            self._next_ticket += 1
            tickets.append(ticket)
            key = engine._key(job)
            self._tally("submitted")
            if key in self._seen:
                self._tally("deduped")
                if key in self._key_tickets:
                    self._key_tickets[key].append(ticket)
                else:
                    self._deliver(ticket, engine._cache[key], "cache")
                continue
            self._seen.add(key)
            if key in engine._cache:
                self._tally("cache_hits")
                rec, origin = engine._cache[key], "cache"
            elif self._ck_rows is not None and key in self._ck_rows:
                self._tally("skipped")
                rec, origin = self._ck_rows[key], "checkpoint"
                self._resumed[key] = rec
            elif self._preflight and (rec := self._vet(job)) is not None:
                self._tally("pruned")
                origin = "preflight"
            elif (rec := self._variant_hit(key, job)) is not None:
                self._tally("variant_hits")
                origin = "variant"
            else:
                self._key_tickets[key] = [ticket]
                fresh.append((key, job))
                continue
            engine._cache[key] = rec
            rows.append((key, rec))
            self._deliver(ticket, rec, origin)
        self._checkpoint(rows)
        return tickets, fresh

    def _load_checkpoint(self) -> dict[tuple, RunRecord]:
        rows: dict[tuple, RunRecord] = {}
        if Path(self.config.checkpoint).exists():
            for rec in ResultsDB.load(self.config.checkpoint):
                rows[(rec.app, rec.device, SweepPoint.of_record(rec).label())] = rec
        return rows

    def _vet(self, job: BatchJob) -> RunRecord | None:
        """The static preflight's verdict (``None``: may run)."""
        if self._preflight is True:
            from repro.analysis.preflight import make_preflight

            self._preflight = make_preflight(self._engine.runner.problems)
        return self._preflight(job.app, job.device, job.point, site=job.site)

    def _variant_hit(self, key: tuple, job: BatchJob) -> RunRecord | None:
        """A record of the identical lowered configuration from another
        campaign; on a miss, remember the content key for the result."""
        if self._vcache is None:
            return None
        runner = self._engine.runner
        vkey = self._vcache.key_for(
            job.app, job.device, job.point, site=job.site,
            seed=runner.seed, problem=runner.problems,
            sanitize=self.config.sanitize,
        )
        rec = self._vcache.get(vkey)
        if rec is None:
            self._vkeys[key] = vkey
        return rec

    def _tally(self, name: str, n: int = 1) -> None:
        for counts in (self._counts, self._engine.stats):
            setattr(counts, name, getattr(counts, name) + n)

    def _checkpoint(self, rows: list[tuple]) -> None:
        """Append the ``(key, record)`` rows ``config.checkpoint`` lacks."""
        if self._ck_rows is None:
            return
        new = []
        for key, rec in rows:
            if key not in self._ck_rows:
                self._ck_rows[key] = rec
                new.append(rec)
        if new:
            if self._writer is None:
                self._writer = CheckpointWriter(self.config.checkpoint)
            self._writer.write(new)

    # -- dispatch -------------------------------------------------------
    def _fill(self) -> None:
        """Dispatch backlog chunks, round-robin across (app, device)
        groups for fair mixing, while a slot is free."""
        while self._backlog and len(self._futures) < self.capacity:
            group, queue = next(iter(self._backlog.items()))
            size = self.config.chunk_size or self._chunker.next_size(group)
            chunk = [queue.popleft() for _ in range(min(size, len(queue)))]
            if queue:
                self._backlog.move_to_end(group)
            else:
                del self._backlog[group]
            self._dispatch(chunk)

    def _dispatch(self, chunk: list[tuple]) -> None:
        engine = self._engine
        cfg = self.config
        baselines = None
        if self._shares:
            baselines, computed = engine._baselines_for(
                {(job.app, key[1]): job.device for key, job in chunk}
            )
            self._tally("baseline_runs", computed)
        payload = [(job.app, job.device, job.point, job.site) for _key, job in chunk]
        if engine.pool is None:
            fut = _InlineChunk(
                engine._inline_slot().run, payload, cfg.retries, baselines,
                cfg.sanitize,
            )
        else:
            try:
                fut = engine.pool.submit(
                    _run_batch_chunk, payload, cfg.retries, baselines, cfg.sanitize
                )
            except Exception:  # noqa: BLE001 — broken pool surfaces at submit too
                self._recover([chunk])
                return
        self._futures[fut] = chunk

    # -- completion -----------------------------------------------------
    def _deliver(self, ticket: int, record: RunRecord, origin: str) -> None:
        self._records[ticket] = record
        if self._completion_order:
            self._completed.append(Completion(ticket, record, origin))

    def _settle(self, chunk: list[tuple], records: list[RunRecord]) -> None:
        """Absorb one simulated chunk into the caches, the checkpoint, the
        waiting tickets and the progress callback."""
        cache = self._engine._cache
        for (key, _job), record in zip(chunk, records):
            self._tally("executed")
            self._feasible += record.feasible
            vkey = self._vkeys.pop(key, None)
            if vkey is not None and not (record.note or "").startswith(
                ("WorkerError", "WorkerCrash")
            ):
                # Crash/retry-exhaustion records reflect machine state, not
                # the configuration's content — never cache them.
                self._vcache.put(vkey, record)
            cache[key] = record
            for ticket in self._key_tickets.pop(key, ()):
                self._deliver(ticket, record, "run")
        self._checkpoint([(key, rec) for (key, _job), rec in zip(chunk, records)])
        if self._progress is not None:
            done = self._counts.executed
            self._progress(SweepProgress(
                total=self._queued,
                done=done,
                feasible=self._feasible,
                infeasible=done - self._feasible,
                skipped=self._counts.skipped,
                elapsed=time.monotonic() - self._t0,
                deduped=self._counts.deduped,
            ))

    def _recover(self, casualties: list[list]) -> None:
        """Respawn a broken pool and re-run its lost chunks (budgeted)."""
        casualties = casualties + list(self._futures.values())
        self._futures.clear()
        if self._respawns_left > 0:
            self._respawns_left -= 1
            self.pool_respawns += 1
            self._engine.pool.respawn()
            for chunk in casualties:
                self._dispatch(chunk)
        else:
            why = (
                f"process pool broke {MAX_POOL_RESPAWNS + 1} times; "
                f"chunk abandoned"
            )
            for chunk in casualties:
                self._settle(chunk, [_crash_record(job, why) for _key, job in chunk])

    def _advance(self) -> None:
        """Settle at least one dispatched chunk, then refill free slots."""
        self._fill()
        if not self._futures:
            return
        pool = self._engine.pool
        if pool is None:
            finished = [next(iter(self._futures))]
        else:
            finished, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        casualties = []
        for fut in finished:
            chunk = self._futures.pop(fut)
            try:
                records, seconds, computes = fut.result()
            except Exception:  # noqa: BLE001 — a dead worker breaks the pool
                if pool is None:
                    raise
                casualties.append(chunk)
                continue
            self._tally("worker_baseline_runs", computes)
            key0, job0 = chunk[0]
            self._chunker.observe((job0.app, key0[1]), len(chunk), seconds)
            self._settle(chunk, records)
        if casualties:
            self._recover(casualties)
        self._fill()

    # -- consumption ----------------------------------------------------
    @property
    def pending(self) -> int:
        """Tickets submitted but not yet consumed."""
        return self._next_ticket - self._next_out

    outstanding = pending

    @property
    def settled(self) -> int:
        """Completion-order tickets settled and not yet returned."""
        return len(self._completed)

    def next_completed(self) -> Completion | None:
        """The next settled ticket in completion order, blocking while work
        is in flight; ``None`` once every ticket has been returned."""
        if not self._completion_order:
            raise RuntimeError("stream consumes in ticket order")
        try:
            while not self._completed and (self._futures or self._backlog):
                self._advance()
        except BaseException:
            self.close()
            raise
        if not self._completed:
            return None
        self._next_out += 1
        return self._completed.popleft()

    def __iter__(self) -> Iterator:
        return self

    def __next__(self):
        if self._completion_order:
            done = self.next_completed()
            if done is None:
                self.close()
                raise StopIteration
            return done.record
        if self._next_out >= self._next_ticket:
            self.close()
            raise StopIteration
        try:
            while self._next_out not in self._records:
                self._advance()
        except BaseException:
            self.close()
            raise
        ticket = self._next_out
        self._next_out += 1
        return ticket, self._records[ticket]

    def records(self) -> list[RunRecord]:
        """Drain the stream; one record per ticket, in ticket (job) order."""
        for _ in self:
            pass
        return [self._records[t] for t in range(self._next_ticket)]

    def report(self) -> BatchReport:
        """Drain into a :class:`BatchReport`.

        Engine cache hits count as ``skipped`` — like checkpoint rows,
        they are slots satisfied without running this call."""
        records = self.records()
        counts = self._counts
        return BatchReport(
            records=records,
            evaluated=counts.executed,
            skipped=counts.skipped + counts.cache_hits,
            deduped=counts.deduped,
            pruned=counts.pruned,
            variant_hits=counts.variant_hits,
            baseline_runs=counts.baseline_runs,
            worker_baseline_runs=counts.worker_baseline_runs,
            elapsed=self.elapsed,
            checkpoint=(
                str(self.config.checkpoint)
                if self.config.checkpoint is not None else None
            ),
            extra={
                "chunk_log": list(self._chunker.log),
                "pool_respawns": self.pool_respawns,
                "variant_hits": counts.variant_hits,
            },
        )

    def close(self) -> None:
        """Stop dispatching and release the pool.

        Chunks already on the pool are absorbed (engine cache, checkpoint),
        so a partially-consumed stream never loses finished work; the
        backlog and unstarted in-process chunks are dropped."""
        if self._closed:
            return
        self._closed = True
        self._backlog.clear()
        engine = self._engine
        if engine.pool is None:
            self._futures.clear()
        while self._futures:
            self._advance()
        if self._writer is not None:
            self._writer.close()
        if engine.pool is not None:
            engine.pool.release()
        self.elapsed = time.monotonic() - self._t0
        engine.stats.elapsed += self.elapsed
        engine._sync_pool_stats()

    def __enter__(self) -> "EngineStream":
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
