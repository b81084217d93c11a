"""The three sweep workloads, their serial references and their metrics.

Every workload follows the same shape:

* ``__init__`` derives the inputs from the seed alone (the program sees
  only the generated points, problems and runner seed);
* ``setup()`` builds the state a user pays for before the first point —
  runner, engine with a warm pool, split campaign — and returns a fresh
  :class:`State`;
* ``run(state, tracer)`` is the timed, closed-loop region; it returns a
  :class:`Outcome` with the records keyed in input order;
* ``reference(runs)`` returns the :class:`Reference` every timed record
  is compared against: a serial, in-process evaluation of the same seed.

See ``perfbench/README.md`` for why each workload exists and which layers
it loads.
"""

from __future__ import annotations

import os
import random
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent

#: Both scaled devices: 32- and 64-wide warps load the collectives
#: differently.
DEVICES = ("v100_small", "amd_small")

#: Shrunk problems for the pool workload: a point costs ~5-15 ms, so the
#: harness, pool IPC and pruning waves dominate rather than the simulator.
POOL_PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 2},
    "kmeans": {"num_obs": 1024, "max_iters": 4},
    "binomial": {"num_options": 128, "steps": 8},
    "leukocyte": {"num_cells": 2, "window": 16, "iterations": 10},
}
#: Points sampled per (app, device, technique) cell of the pool workload.
POOL_POINTS_PER_CELL = 24
#: The paper's 10% QoI bound, used for lattice pruning.
QOI_BOUND = 0.10

CAMPAIGN_APP = "kmeans"
CAMPAIGN_DEVICE = "v100_small"
CAMPAIGN_PROBLEMS = {"kmeans": {"num_obs": 1024, "max_iters": 4}}
CAMPAIGN_POINTS = 160
#: Many more shards than workers, so lease claims recur.
CAMPAIGN_SHARDS = 16
#: A campaign worker still running after this long is killed and its
#: shards count as failed.
WORKER_TIMEOUT_S = 120
#: A reference worker still running after this long fails the run.
REFERENCE_TIMEOUT_S = 150


def nproc() -> int:
    return len(os.sched_getaffinity(0))


# ---------------------------------------------------------------------------
# Process accounting
# ---------------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of a live process, from ``/proc/<pid>/stat``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields_ = fh.read().rsplit(")", 1)[1].split()
    return (int(fields_[11]) + int(fields_[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int | str = "self") -> float:
    """VmHWM (peak resident set) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def pool_children() -> list:
    import multiprocessing

    return multiprocessing.active_children()


def reap_pool_children(timeout: float = 60.0) -> None:
    """Wait for every multiprocessing child (the engine pool shuts down
    with ``wait=False``, so its workers may still be exiting)."""
    for proc in pool_children():
        proc.join(timeout)
        if proc.is_alive():
            proc.terminate()
            proc.join(timeout)


# ---------------------------------------------------------------------------
@dataclass
class State:
    """What ``setup()`` built; consumed by one ``run()``."""

    objects: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)


@dataclass
class Outcome:
    """What one timed region produced."""

    wall_s: float
    #: Points resolved: ok + infeasible + pruned records.
    points: int
    #: Seconds per point of each timed unit (a run_point call, a sweep, a
    #: shard), keyed by unit, for the point_s percentiles.
    unit_s: dict
    #: key -> dumps_record line, in input order.
    records: dict
    peak_rss_mb: float
    #: Failure causes outside record content (worker exits, lost leases).
    lost_points: int = 0
    #: Whole-file bytes to compare with the reference (campaign merge).
    merged_bytes: bytes | None = None
    layer: dict = field(default_factory=dict)


@dataclass
class Reference:
    """The correctness oracle of one run."""

    #: key -> dumps_record line.
    records: dict
    #: Simulated launches and warp-cycles of the reference.
    totals: dict
    #: Whole-file bytes the campaign merge must equal.
    merged_bytes: bytes | None = None


def run_reference(tasks: list, workdir: Path) -> Reference:
    """Evaluate independent reference tasks (e.g. one per device), each
    serially in a fresh interpreter (``reference_worker.py``), at most
    ``nproc`` at a time, after the timed region.  Every worker is waited
    for, on every path out."""
    import json
    import pickle

    parts = []
    width = max(1, nproc())
    for start in range(0, len(tasks), width):
        batch = tasks[start:start + width]
        outs = [workdir / f"reference-{start + i}.pkl" for i in range(len(batch))]
        procs = []
        try:
            for task, out in zip(batch, outs):
                procs.append(subprocess.Popen(
                    [sys.executable, str(HERE / "reference_worker.py"),
                     json.dumps(list(task)), str(out)]))
            codes = [proc.wait(timeout=REFERENCE_TIMEOUT_S) for proc in procs]
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if any(codes):
            raise RuntimeError(f"reference worker(s) exited with {codes} for {batch}")
        parts += [pickle.loads(out.read_bytes()) for out in outs]
    ref = Reference({}, {"launches": 0, "sim_warp_cycles": 0.0})
    for records, totals in parts:
        ref.records.update(records)
        for key in ref.totals:
            ref.totals[key] += totals[key]
    return ref


def sim_totals(lines) -> dict:
    """Summed speedups and errors of a record set — a speed-only change
    must leave them identical."""
    import json

    speedup = error = 0.0
    for line in lines:
        rec = json.loads(line)
        if isinstance(rec.get("speedup"), (int, float)):
            speedup += rec["speedup"]
        if isinstance(rec.get("error"), (int, float)):
            error += rec["error"]
    return {"speedup_sum": speedup, "error_sum": error}


def _count_launch_cycles():
    """Wrap ``launch`` (both bindings) to sum simulated warp-cycles; used
    only by the untimed reference.  Returns the running totals."""
    import repro.gpusim.kernel as kernel_mod
    import repro.openmp.runtime as omp_runtime

    totals = {"launches": 0, "sim_warp_cycles": 0.0}
    original = kernel_mod.launch

    def launch(*args, **kwargs):
        result = original(*args, **kwargs)
        totals["launches"] += 1
        totals["sim_warp_cycles"] += float(result.timing.total_warp_cycles)
        return result

    kernel_mod.launch = omp_runtime.launch = launch
    return totals


# ---------------------------------------------------------------------------
# fig-grid-serial
# ---------------------------------------------------------------------------
class FigGrid:
    """The curated figure grid, one point at a time on one runner, at
    default problem sizes."""

    name = "fig-grid-serial"
    #: Every simulated launch runs in the benchmark process, so a traced
    #: pass must count exactly the reference's warp-cycles.
    traces_all_launches = True

    def __init__(self, seed: int, workdir: Path) -> None:
        from repro.harness.figures import CANDIDATES

        self.seed = seed
        self.workdir = workdir
        self.jobs = [
            (dev, app, tech, i)
            for dev in DEVICES
            for (app, tech), pts in CANDIDATES.items()
            for i in range(len(pts))
        ]
        self.order = list(self.jobs)
        random.Random(seed).shuffle(self.order)
        self.pairs = sorted({(dev, app) for dev, app, _t, _i in self.jobs})

    def params(self) -> dict:
        return {"devices": list(DEVICES), "points": len(self.jobs),
                "baselines": len(self.pairs), "order": "seeded shuffle"}

    def setup(self) -> State:
        from repro.harness.runner import ExperimentRunner

        return State({"runner": ExperimentRunner(seed=self.seed)})

    def run(self, state: State, tracer=None) -> Outcome:
        from repro.harness.database import dumps_record
        from repro.harness.figures import CANDIDATES

        runner = state.objects["runner"]
        unit_s, records, per_app = {}, {}, {}
        t0 = time.perf_counter()
        for dev, app in self.pairs:
            runner.baseline(app, dev)
        baseline_s = time.perf_counter() - t0
        for key in self.order:
            dev, app, tech, i = key
            point = CANDIDATES[(app, tech)][i]
            t = time.perf_counter()
            rec = runner.run_point(app, dev, point)
            dt = time.perf_counter() - t
            unit_s[key] = dt
            per_app.setdefault(app, []).append(dt)
            records[key] = dumps_record(rec)
        wall = time.perf_counter() - t0
        layer = {
            "runner.baseline_s": baseline_s,
            "runner.baseline_computes": runner.baseline_computes,
            "per_app_point_s": per_app,
        }
        return Outcome(wall, len(records), unit_s,
                       {k: records[k] for k in self.jobs},
                       proc_peak_rss_mb(), layer=layer)

    def reference(self, runs: list) -> Reference:
        """Canonical order on a fresh runner, one process per device."""
        return run_reference([("fig", self.seed, dev) for dev in DEVICES], self.workdir)

    def teardown(self, state: State) -> None:
        pass


def _fig_reference(seed: int, dev: str) -> tuple[dict, dict]:
    from repro.harness.database import dumps_record
    from repro.harness.figures import CANDIDATES
    from repro.harness.runner import ExperimentRunner

    totals = _count_launch_cycles()
    runner = ExperimentRunner(seed=seed)
    out = {}
    for (app, tech), pts in CANDIDATES.items():
        for i, point in enumerate(pts):
            out[(dev, app, tech, i)] = dumps_record(runner.run_point(app, dev, point))
    return out, totals


# ---------------------------------------------------------------------------
# table2-pruned-pool
# ---------------------------------------------------------------------------
def _pool_grid(app: str, dev: str, tech: str):
    """The thinned Table-2 grid of one cell, at the app's safe hierarchy
    levels (Binomial must decide per team, §4.1)."""
    from repro.apps import get_benchmark
    from repro.harness.sweep import table2_space

    bench = get_benchmark(app)
    scale = bench.taf_threshold_scale if tech == "taf" else bench.iact_threshold_scale
    safe = set(bench.sites()[0].levels)
    levels = [lvl for lvl in ("thread", "warp") if lvl in safe] or sorted(safe)
    return table2_space(tech, dev, threshold_scale=scale, hierarchy_levels=levels)


def pool_cells(seed: int) -> list[tuple]:
    """(app, device, technique, sampled points) per sweep, grid order kept
    so the lattice sees its chains.

    Each (app, device, technique) sample is swept in one pruned sweep per
    items-per-thread value: that axis is not an aggressiveness axis, so no
    lattice chain crosses it and pruning is the same as one big sweep,
    while the workload gets enough sweeps for a p90 of per-sweep cost."""
    cells = []
    for app in POOL_PROBLEMS:
        for dev in DEVICES:
            for tech in ("taf", "iact"):
                grid = _pool_grid(app, dev, tech)
                rng = random.Random(f"{seed}:{app}:{dev}:{tech}")
                keep = sorted(rng.sample(range(len(grid)), min(POOL_POINTS_PER_CELL, len(grid))))
                by_ipt: dict = {}
                for i in keep:
                    by_ipt.setdefault(grid[i].items_per_thread, []).append(grid[i])
                cells += [(app, dev, tech, pts) for _ipt, pts in sorted(by_ipt.items())]
    return cells


def _pool_config(workers: int, checkpoint=None):
    from repro.harness.config import SweepConfig

    return SweepConfig(workers=workers, preflight=True, prune=QOI_BOUND,
                       order=True, checkpoint=checkpoint)


class PoolSweep:
    """Pruned Table-2 sample through one pooled BatchEngine."""

    name = "table2-pruned-pool"
    traces_all_launches = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.cells = pool_cells(seed)
        self.workers = nproc()
        self._runs = 0

    def params(self) -> dict:
        return {"apps": list(POOL_PROBLEMS), "devices": list(DEVICES),
                "problems": POOL_PROBLEMS, "points_per_cell": POOL_POINTS_PER_CELL,
                "cells": len(self.cells), "workers": self.workers,
                "qoi_bound": QOI_BOUND,
                "points": sum(len(c[3]) for c in self.cells)}

    def setup(self) -> State:
        from repro.harness.batch import BatchEngine
        from repro.harness.config import SweepConfig

        engine = BatchEngine(problems=POOL_PROBLEMS, seed=self.seed,
                             config=SweepConfig(workers=self.workers, preflight=True))
        # Warm the pool: fork-started executors launch every worker on the
        # first submission; one short task per worker lets initializers run.
        futures = [engine.pool.submit(time.sleep, 0.05) for _ in range(2 * self.workers)]
        for fut in futures:
            fut.result()
        cpu0 = {p.pid: proc_cpu_s(p.pid) for p in pool_children()}
        return State({"engine": engine, "cpu0": cpu0})

    def run(self, state: State, tracer=None) -> Outcome:
        from repro.harness import pruning
        from repro.harness.database import dumps_record

        engine = state.objects["engine"]
        self._runs += 1
        ckdir = self.workdir / f"pool-{self._runs}"
        ckdir.mkdir(parents=True)
        unit_s, records, per_app = {}, {}, {}
        evaluated = preflight = lattice = waves = 0
        cpu_parent0 = time.process_time()
        t0 = time.perf_counter()
        for app, dev, tech, points in self.cells:
            ipt = points[0].items_per_thread
            cfg = _pool_config(self.workers, ckdir / f"{app}-{dev}-{tech}-{ipt}.jsonl")
            t = time.perf_counter()
            rep = pruning.run_sweep_pruned(app, dev, points, problems=POOL_PROBLEMS,
                                           seed=self.seed, config=cfg, engine=engine)
            per_point = (time.perf_counter() - t) / len(points)
            unit_s[(app, dev, tech, ipt)] = per_point
            per_app.setdefault(app, []).append(per_point)
            evaluated += rep.evaluated
            preflight += rep.pruned
            lattice += rep.extra["lattice_pruned"]
            waves += rep.extra["waves"]
            for point, rec in zip(points, rep.records):
                records[(app, dev, tech, point.label())] = dumps_record(rec)
        wall = time.perf_counter() - t0
        parent_cpu = time.process_time() - cpu_parent0
        # Pool workers are read from /proc before close(): the pool shuts
        # down without waiting, so RUSAGE_CHILDREN never sees them.
        children = pool_children()
        cpu0 = state.objects["cpu0"]
        worker_cpu = sum(proc_cpu_s(p.pid) - cpu0.get(p.pid, 0.0) for p in children)
        peak = max([proc_peak_rss_mb()] + [proc_peak_rss_mb(p.pid) for p in children])
        ck_bytes = sum(f.stat().st_size for f in ckdir.iterdir())
        stats = engine.stats
        attempted = sum(len(c[3]) for c in self.cells)
        layer = {
            "batch.parent_cpu_s": parent_cpu,
            "batch.worker_cpu_s": worker_cpu,
            "batch.executed": stats.executed,
            "batch.cache_hits": stats.cache_hits,
            "batch.pruned": stats.pruned,
            "batch.baseline_runs": stats.baseline_runs,
            "batch.worker_baseline_runs": stats.worker_baseline_runs,
            "batch.pool_spawns": stats.pool_spawns,
            "batch.pool_respawns": stats.pool_respawns,
            "pruning.evaluated": evaluated,
            "pruning.attempted": attempted,
            "pruning.lattice_pruned": lattice,
            "pruning.preflight_pruned": preflight,
            "pruning.waves": waves,
            "database.checkpoint_bytes": ck_bytes,
            "database.records": len(records),
            "per_app_point_s": per_app,
        }
        return Outcome(wall, len(records), unit_s, records, peak, layer=layer)

    def teardown(self, state: State) -> None:
        state.objects["engine"].close()
        reap_pool_children()

    def reference(self, runs: list) -> Reference:
        return run_reference([("pool", self.seed, dev) for dev in DEVICES], self.workdir)


def _pool_reference(seed: int, dev: str) -> tuple[dict, dict]:
    from repro.harness.batch import BatchEngine
    from repro.harness.config import SweepConfig
    from repro.harness.database import dumps_record
    from repro.harness.pruning import run_sweep_pruned

    totals = _count_launch_cycles()
    out = {}
    engine = BatchEngine(problems=POOL_PROBLEMS, seed=seed,
                         config=SweepConfig(workers=1, preflight=True))
    for app, cdev, tech, points in pool_cells(seed):
        if cdev != dev:
            continue
        rep = run_sweep_pruned(app, dev, points, problems=POOL_PROBLEMS, seed=seed,
                               config=_pool_config(1), engine=engine)
        for point, rec in zip(points, rep.records):
            out[(app, dev, tech, point.label())] = dumps_record(rec)
    engine.close()
    return out, totals


# ---------------------------------------------------------------------------
# campaign-shards
# ---------------------------------------------------------------------------
def campaign_spec(seed: int):
    from repro.harness.campaign import CampaignSpec
    from repro.harness.sweep import table2_space

    grid = table2_space("taf", CAMPAIGN_DEVICE)
    rng = random.Random(f"{seed}:campaign")
    keep = sorted(rng.sample(range(len(grid)), CAMPAIGN_POINTS))
    return CampaignSpec(
        app=CAMPAIGN_APP, device=CAMPAIGN_DEVICE,
        points=tuple(CampaignSpec.point_dict(grid[i]) for i in keep),
        seed=seed, problems=CAMPAIGN_PROBLEMS,
    )


class CampaignShards:
    """A pinned Table-2 sample drained by ``campaign work`` subprocesses."""

    name = "campaign-shards"
    traces_all_launches = False

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.spec = campaign_spec(seed)
        self.workers = nproc()
        self._runs = 0

    def params(self) -> dict:
        return {"app": CAMPAIGN_APP, "device": CAMPAIGN_DEVICE,
                "problems": CAMPAIGN_PROBLEMS, "points": CAMPAIGN_POINTS,
                "shards": CAMPAIGN_SHARDS, "workers": self.workers,
                "technique": "taf"}

    def setup(self) -> State:
        from repro.harness.campaign import split_campaign

        self._runs += 1
        directory = self.workdir / f"campaign-{self._runs}"
        t = time.perf_counter()
        split_campaign(directory, self.spec, shards=CAMPAIGN_SHARDS)
        return State({"dir": directory},
                     {"campaign.split_s": time.perf_counter() - t})

    def run(self, state: State, tracer=None) -> Outcome:
        import json

        from repro import api
        from repro.harness.campaign import CampaignError, load_campaign
        from repro.harness.database import ResultsDB, dumps_record
        from repro.harness.sweep import SweepPoint

        directory = state.objects["dir"]
        summaries = [directory / f"worker-{i}.json" for i in range(self.workers)]
        ru0 = resource.getrusage(resource.RUSAGE_CHILDREN)
        t0 = time.perf_counter()
        started = time.time()
        procs = [
            subprocess.Popen([sys.executable, str(HERE / "campaign_worker.py"),
                              str(directory), f"worker-{i}",
                              "1" if tracer is not None else "0", str(summaries[i])])
            for i in range(self.workers)
        ]
        codes = []
        try:
            for proc in procs:
                try:
                    codes.append(proc.wait(timeout=WORKER_TIMEOUT_S))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    codes.append(proc.wait())
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        work_s = time.perf_counter() - t0
        t = time.perf_counter()
        try:
            merged = api.campaign_merge(str(directory))
        except CampaignError as exc:
            # An unfinished shard: every spec point counts as missing.
            print(f"campaign merge failed: {exc}", file=sys.stderr)
            merged = None
        merge_s = time.perf_counter() - t
        wall = time.perf_counter() - t0
        ru1 = resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu = (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime)

        reports = [json.loads(s.read_text()) for s in summaries if s.exists()]
        # Seconds per point of each shard: between its owner's previous
        # completion (or the moment the worker, imports done, began
        # claiming) and its own.
        table = load_campaign(directory).queue().table()
        last = {r["owner"]: r["started_at"] for r in reports}
        done = sorted(
            (e["done"]["completed_at"], e["done"]["owner"], e["done"]["records"], job)
            for job, e in table.items() if "done" in e
        )
        unit_s = {}
        for at, owner, n, job in done:
            unit_s[job] = (at - last.get(owner, started)) / max(1, n)
            last[owner] = at
        records = {} if merged is None else {
            SweepPoint.of_record(r).label(): dumps_record(r)
            for r in ResultsDB.load(merged.output).records
        }
        shard_points = -(-CAMPAIGN_POINTS // CAMPAIGN_SHARDS)
        leases_lost = sum(r["leases_lost"] for r in reports)
        lost = leases_lost * shard_points + sum(
            shard_points for c in codes if c != 0
        )
        peak = max([proc_peak_rss_mb()] + [r["peak_rss_mb"] for r in reports])
        layer = {
            "campaign.worker_cpu_s": worker_cpu,
            "campaign.work_s": work_s,
            "campaign.jobs_done": sum(r["jobs_done"] for r in reports),
            "campaign.leases_lost": leases_lost,
            "campaign.rejected_stale": 0 if merged is None else merged.rejected_stale,
            "campaign.merge_s": merge_s,
            "worker_traces": [r["trace"] for r in reports if r.get("trace")],
            "per_app_point_s": {CAMPAIGN_APP: list(unit_s.values())},
        }
        return Outcome(wall, len(records), unit_s, records, peak,
                       lost_points=lost,
                       merged_bytes=None if merged is None else Path(merged.output).read_bytes(),
                       layer=layer)

    def teardown(self, state: State) -> None:
        shutil.rmtree(state.objects["dir"], ignore_errors=True)

    def reference(self, runs: list) -> Reference:
        """Serial records plus the serial checkpoint file, which the merged
        file must equal byte for byte (the fabric's own contract)."""
        path = self.workdir / "campaign-serial.jsonl"
        ref = run_reference([("campaign", self.seed, str(path))], self.workdir)
        ref.merged_bytes = path.read_bytes()
        return ref


def _campaign_reference(seed: int, path: str) -> tuple[dict, dict]:
    """The serial checkpoint of the spec: the file the merge must equal."""
    from repro.harness.database import CheckpointWriter, dumps_record
    from repro.harness.runner import ExperimentRunner

    totals = _count_launch_cycles()
    spec = campaign_spec(seed)
    runner = ExperimentRunner(problems=spec.problems, seed=spec.seed)
    out = {}
    with CheckpointWriter(path) as writer:
        for point in spec.resolve_points():
            rec = runner.run_point(spec.app, spec.device, point)
            writer.write(rec)
            out[point.label()] = dumps_record(rec)
    return out, totals


# ---------------------------------------------------------------------------
def reference_task(task: tuple) -> tuple[dict, dict]:
    """Evaluate one reference task (runs in ``reference_worker.py``)."""
    kind, *args = task
    fn = {"fig": _fig_reference, "pool": _pool_reference,
          "campaign": _campaign_reference}[kind]
    return fn(*args)


WORKLOADS = {cls.name: cls for cls in (FigGrid, PoolSweep, CampaignShards)}
