"""Sweep-throughput benchmark for the HPAC-Offload reproduction.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig-grid-serial --seed 1 --seconds 10 --trace 0

Workloads: ``fig-grid-serial``, ``table2-pruned-pool``, ``campaign-shards``
(see ``perfbench/README.md``).  With ``--trace 0`` the result carries the
end-to-end metrics of an untraced run; with ``--trace 1`` the same run is
repeated with span wrappers installed around every layer and the result
carries the per-layer metrics.  Every record is compared with a serial
in-process reference of the same seed; the last stdout line is the JSON
result and the exit code is nonzero if any record differs.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

#: prctl option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36
#: Seconds leftover children get to exit on SIGTERM before SIGKILL.
STOP_GRACE_S = 10.0

#: Subprocess set-ups per run; setup_s is their median.
SETUP_SAMPLES = 7
APPS = ("lulesh", "leukocyte", "binomial", "minife", "blackscholes", "lavamd", "kmeans")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (q in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def become_subreaper() -> None:
    """Adopt descendants whose parent exits first (a pool worker of a
    set-up probe, say), so that :func:`stop_children` reaps them too."""
    import ctypes

    try:
        ctypes.CDLL(None, use_errno=True).prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def child_pids() -> list[int]:
    me, pids = os.getpid(), []
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat") as fh:
                ppid = int(fh.read().rsplit(")", 1)[1].split()[1])
        except (OSError, ValueError, IndexError):
            continue
        if ppid == me:
            pids.append(int(entry.name))
    return pids


def stop_children() -> None:
    """Reap every child still around, adopted orphans included: SIGTERM
    first, SIGKILL after ``STOP_GRACE_S``.  Returns once none is left."""
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        try:
            pid, _status = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        sig = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in child_pids():
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        time.sleep(0.05)


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str | None:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None if out.returncode == 0 else None


def provenance(args, workload) -> dict:
    import numpy
    import scipy

    return {
        "commit": commit(),
        "source_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "seed": args.seed,
        "seconds": args.seconds,
        "workload": workload.name,
        "params": workload.params(),
    }


def measure_setup(name: str, seed: int, workdir: Path) -> list[float]:
    samples = []
    for i in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed),
             str(workdir / f"probe-{i}")],
            capture_output=True, text=True, timeout=170, check=True,
        )
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


@dataclass
class Passes:
    """Aggregate of the timed passes of one measurement."""

    outcomes: list
    tracer: object = None

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def points(self) -> int:
        return sum(o.points for o in self.outcomes)

    @property
    def pass_rates(self) -> list:
        return [o.points / o.wall_s for o in self.outcomes]

    @property
    def points_per_s(self) -> float:
        """Best pass.  Every pass does the same work, and contention from
        other tenants of the host only ever slows a pass down."""
        return max(self.pass_rates)

    @property
    def unit_s(self) -> list:
        """Every unit (point, sweep or shard) sample of every pass.  The
        percentiles of the pooled samples average over the whole run; a
        per-unit best pass swung with the few fastest moments of the host."""
        return [value for o in self.outcomes for value in o.unit_s.values()]

    @property
    def peak_rss_mb(self) -> float:
        return max(o.peak_rss_mb for o in self.outcomes)

    def layer(self) -> dict:
        """Per-pass layer numbers summed (lists concatenated)."""
        out: dict = {}
        for o in self.outcomes:
            for key, value in o.layer.items():
                if isinstance(value, dict):
                    merged = out.setdefault(key, {})
                    for k, v in value.items():
                        merged.setdefault(k, []).extend(v)
                elif isinstance(value, list):
                    out.setdefault(key, []).extend(value)
                else:
                    out[key] = out.get(key, 0) + value
        return out


def measure(workload, seconds: float, traced: bool, passes: int | None = None) -> Passes:
    """Timed passes, each on freshly set-up state, until ``seconds`` of
    timed work have accumulated (or exactly ``passes`` passes).  A pass is
    the workload's whole input, so every pass does the same work."""
    import tracer as tracing

    result = Passes([], tracing.Tracer() if traced else None)
    while True:
        state = workload.setup()
        try:
            if traced:
                # Installed after set-up: pool workers forked in set-up stay
                # untraced (their spans could not be collected anyway).
                tracing.install(result.tracer)
            try:
                outcome = workload.run(state, result.tracer)
            finally:
                if traced:
                    result.tracer.uninstall()
        finally:
            workload.teardown(state)
        outcome.layer.update(state.timings)
        result.outcomes.append(outcome)
        if passes is not None:
            if len(result.outcomes) >= passes:
                return result
        elif result.wall_s >= seconds:
            return result


def check(outcome, reference: dict, ref_bytes: bytes | None) -> tuple[int, list, list]:
    """Compare one pass with the reference.

    Returns (failed points, output mismatches, other failures).  A
    mismatch — a record missing, extra, different or in error status, or a
    merged file that is not byte-identical — makes the run incorrect.
    Points on a worker that exited nonzero or lost a lease count as failed
    even when their records came out right."""
    from repro.harness.database import loads_record, record_status

    failed, mismatches, others = 0, [], []
    for key, line in reference.items():
        got = outcome.records.get(key)
        if got is None:
            mismatches.append(f"missing record {key}")
        elif got != line:
            mismatches.append(f"record differs from reference: {key}")
        elif record_status(loads_record(got)) == "error":
            mismatches.append(f"error record: {key}")
    failed += len(mismatches)
    extra = set(outcome.records) - set(reference)
    mismatches += [f"record not in reference: {key}" for key in sorted(map(str, extra))]
    if outcome.lost_points:
        failed += outcome.lost_points
        others.append(f"{outcome.lost_points} point(s) on exited workers or lost "
                      f"leases ({outcome.layer.get('campaign.leases_lost', 0)} lease(s) "
                      f"lost, {outcome.layer.get('campaign.rejected_stale', 0)} stale "
                      f"record(s) rejected by the merge)")
    if ref_bytes is not None and outcome.merged_bytes != ref_bytes:
        mismatches.append("merged campaign file is not byte-identical to the serial checkpoint")
    return min(failed, len(reference)), mismatches, others


def per_layer_metrics(traced: Passes, untraced: Passes, workers: int,
                      overhead: float, failed_ratio: float) -> dict:
    import tracer as tracing
    from repro.harness.database import loads_record

    layer = traced.layer()
    s = tracing.merge_summaries(
        [tracing.layer_summary(traced.tracer)] + layer.get("worker_traces", [])
    )
    self_s, span_calls, total_s, counts = s["self_s"], s["span_calls"], s["total_s"], s["counts"]
    invocations = approximated = 0
    for outcome in traced.outcomes:
        for line in outcome.records.values():
            for stats in loads_record(line).region_stats.values():
                invocations += stats.get("invocations", 0)
                approximated += stats.get("approximated", 0)
    cycles = counts.get("gpusim.sim_warp_cycles", 0.0)
    gpusim_self = self_s.get("gpusim", 0.0)
    per_app = untraced.layer().get("per_app_point_s", {})

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    m = {
        "gpusim.self_s": (gpusim_self, "s"),
        "gpusim.calls": (s["calls"].get("gpusim", 0), "count"),
        "gpusim.memory.self_s": (self_s.get("gpusim.memory", 0.0), "s"),
        "gpusim.collectives.self_s": (self_s.get("gpusim.collectives", 0.0), "s"),
        "gpusim.launches": (counts.get("gpusim.launches", 0), "count"),
        "gpusim.sim_warp_cycles": (cycles, "cycles"),
        "gpusim.host_us_per_kcycle": (ratio(gpusim_self * 1e6, cycles / 1e3), "us/kcycle"),
        "approx.self_s": (self_s.get("approx", 0.0), "s"),
        "approx.taf.self_s": (self_s.get("approx.taf", 0.0), "s"),
        "approx.iact.self_s": (self_s.get("approx.iact", 0.0), "s"),
        "approx.perfo.self_s": (self_s.get("approx.perfo", 0.0), "s"),
        "approx.invocations": (invocations, "count"),
        "approx.approx_fraction": (ratio(approximated, invocations), "ratio"),
        "apps.self_s": (self_s.get("apps", 0.0), "s"),
    }
    for app in APPS:
        values = per_app.get(app)
        m[f"apps.{app}.point_s"] = (statistics.median(values) if values else 0.0, "s")
    m.update({
        "openmp.self_s": (self_s.get("openmp", 0.0), "s"),
        "openmp.target_teams.calls": (span_calls.get("openmp.target_teams", 0), "count"),
        "runner.baseline_s": (
            layer.get("runner.baseline_s", total_s.get("runner.baseline", 0.0)), "s"),
        "runner.baseline_computes": (
            layer.get("runner.baseline_computes", layer.get("batch.baseline_runs", 0)),
            "count"),
        "runner.record_s": (self_s.get("runner.run_point", 0.0), "s"),
        "batch.parent_cpu_s": (layer.get("batch.parent_cpu_s", 0.0), "s"),
        "batch.worker_cpu_s": (layer.get("batch.worker_cpu_s", 0.0), "s"),
        "batch.worker_util": (
            ratio(layer.get("batch.worker_cpu_s", 0.0), traced.wall_s * workers)
            if "batch.worker_cpu_s" in layer else 0.0, "ratio"),
    })
    for name in ("batch.executed", "batch.cache_hits", "batch.pruned",
                 "batch.baseline_runs", "batch.worker_baseline_runs",
                 "batch.pool_spawns", "batch.pool_respawns"):
        m[name] = (layer.get(name, 0), "count")
    m["pruning.evaluated_ratio"] = (
        ratio(layer.get("pruning.evaluated", 0), layer.get("pruning.attempted", 0)), "ratio")
    for name in ("pruning.lattice_pruned", "pruning.preflight_pruned", "pruning.waves"):
        m[name] = (layer.get(name, 0), "count")
    m["database.write_s"] = (total_s.get("database.write", 0.0), "s")
    m["database.checkpoint_bytes_per_record"] = (
        ratio(layer.get("database.checkpoint_bytes", 0), layer.get("database.records", 0)),
        "bytes")
    m["campaign.claims"] = (span_calls.get("campaign.claim", 0), "count")
    m["campaign.heartbeats"] = (span_calls.get("campaign.heartbeat", 0), "count")
    m["campaign.heartbeat_s"] = (total_s.get("campaign.heartbeat", 0.0), "s")
    m["campaign.worker_cpu_s"] = (layer.get("campaign.worker_cpu_s", 0.0), "s")
    m["campaign.worker_util"] = (
        ratio(layer.get("campaign.worker_cpu_s", 0.0),
              layer.get("campaign.work_s", 0.0) * workers), "ratio")
    for name in ("campaign.jobs_done", "campaign.leases_lost", "campaign.rejected_stale"):
        m[name] = (layer.get(name, 0), "count")
    m["campaign.merge_s"] = (layer.get("campaign.merge_s", 0.0), "s")
    m["campaign.split_s"] = (layer.get("campaign.split_s", 0.0) / len(traced.outcomes), "s")
    m["trace.overhead"] = (overhead, "ratio")
    m["failed_ratio"] = (failed_ratio, "ratio")
    return m


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(choose from {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    work_root = ROOT / ".perfbench_work"
    workdir = work_root / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    become_subreaper()
    try:
        return _run(args, WORKLOADS[args.workload], workdir, work_root)
    finally:
        stop_children()
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload_cls, workdir: Path, work_root: Path) -> int:
    from workloads import nproc, sim_totals

    setup_samples = measure_setup(workload_cls.name, args.seed, workdir)
    workload = workload_cls(args.seed, workdir)
    prov = provenance(args, workload)
    print(f"provenance {json.dumps(prov, sort_keys=True)}")

    untraced = measure(workload, args.seconds, traced=False)
    runs = [untraced]
    traced = None
    if args.trace:
        traced = measure(workload, args.seconds, traced=True, passes=len(untraced.outcomes))
        runs.append(traced)
        trace_dir = work_root / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        traced.tracer.dump(trace_dir / f"{workload.name}.spans.jsonl")

    ref = workload.reference(runs)
    ref_records = ref.records
    failed, mismatches, others = 0, [], []
    ref_sums = sim_totals(ref_records.values())
    totals_ok = True
    outcomes = [o for run in runs for o in run.outcomes]
    for outcome in outcomes:
        f, m, o = check(outcome, ref_records, ref.merged_bytes)
        failed += f
        mismatches += m
        others += o
        totals_ok &= sim_totals(outcome.records[k] for k in ref_records
                                if k in outcome.records) == ref_sums
    if traced is not None and workload.traces_all_launches:
        per_pass = traced.tracer.counts.get("gpusim.sim_warp_cycles", 0.0) / len(traced.outcomes)
        totals_ok &= per_pass == ref.totals["sim_warp_cycles"]
    if not totals_ok:
        mismatches.append("simulated totals differ from the reference")
    attempted = len(ref_records) * len(outcomes)
    correct = not mismatches
    for note in mismatches[:20]:
        print(f"MISMATCH {note}")
    for note in others:
        print(f"FAILED {note}")
    print(f"sim_totals sim_warp_cycles={ref.totals['sim_warp_cycles']!r} "
          f"launches={ref.totals['launches']} speedup_sum={ref_sums['speedup_sum']!r} "
          f"error_sum={ref_sums['error_sum']!r} (reference; timed records "
          f"{'match' if totals_ok else 'DIFFER'})")
    failed_ratio = failed / attempted
    print(f"failed_ratio {failed_ratio:.6g} ratio ({failed} failed / {attempted} attempted)")

    u = untraced
    unit_s = u.unit_s or [u.wall_s]  # no unit finished: a failed run
    p90 = percentile(unit_s, 0.9)
    end_to_end = {
        "points_per_s": (u.points_per_s, "1/s"),
        "point_s.p50": (statistics.median(unit_s), "s"),
        "point_s.p90": (p90, "s"),
        "setup_s": (statistics.median(setup_samples), "s"),
        "peak_rss_mb": (u.peak_rss_mb, "MB"),
    }
    print(f"points_per_s {end_to_end['points_per_s'][0]:.6g} 1/s (best of "
          f"{len(u.outcomes)} pass(es): {', '.join(f'{v:.4g}' for v in u.pass_rates)}; "
          f"{u.points} points / {u.wall_s:.4f} s in all)")
    print(f"point_s.p50 {end_to_end['point_s.p50'][0]:.6g} s (n={len(unit_s)} unit "
          f"samples over {len(u.outcomes)} pass(es))")
    print(f"point_s.p90 {p90:.6g} s (n={len(unit_s)}, "
          f"{sum(1 for v in unit_s if v > p90)} beyond)")
    print(f"setup_s {end_to_end['setup_s'][0]:.6g} s (median of "
          f"{', '.join(f'{v:.4f}' for v in setup_samples)})")
    print(f"peak_rss_mb {u.peak_rss_mb:.6g} MB")

    per_app = u.layer().get("per_app_point_s", {})
    if per_app:
        from repro.harness.sweep import full_space_size

        space = full_space_size("v100")
        projected = sum(statistics.median(v) * space for v in per_app.values())
        print(f"projected_table2_campaign {projected / 3600:.4g} h (informational, "
              f"not gated: per-app median point_s x {space} points, summed over "
              f"{len(per_app)} app(s) at this workload's problem sizes, one host "
              f"process)")

    if traced is not None:
        overhead = traced.wall_s / untraced.wall_s - 1.0
        metrics = per_layer_metrics(traced, untraced, nproc(), overhead, failed_ratio)
        for name, (value, unit) in metrics.items():
            print(f"{name} {value:.6g} {unit}")
    else:
        metrics = end_to_end
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
