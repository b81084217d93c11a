"""Perf micro for the simulator core against the reference oracle.

Run as a script (``python benchmarks/perf_micro.py``).  Measures the
steady-state per-invocation cost of the two stateful approximation
techniques plus the raw charging primitives, always running the **same
workload through production and the frozen reference formulation in
``tests/reference``** (``ReferenceGridContext`` with the reference
``taf_invoke``/``iact_invoke``) in one process:

1. **TAF microbenchmark** — a replay-dominant steady state (short history,
   long prediction window): after warmup ~95% of invocations take the
   prediction path, which is exactly the regime HPAC-Offload's runtime
   lives in (§3.2).
2. **iACT microbenchmark** — a hit-dominant steady state (small per-warp
   tables, generous threshold, cycling inputs): after the tables fill,
   every invocation is a read-phase hit with no write phase.
3. **Uniform-mask primitive microbenchmark** — flops/shared/streamed-global
   charges under the base all-true mask: production's O(warps)
   bookkeeping and deferred counter journal versus the reference's
   per-lane mask reductions.  This is the stretch path (~10x).

Every measurement **asserts byte identity** (warp cycles and every
counter) between production and the reference before its speedup counts,
and two full application runs (one TAF, one iACT, both with ApproxSan
attached) must reproduce their committed digests in
``tests/approx/goldens/equivalence.json``.  The production TAF run also
snapshots the scratch arena mid-kernel: after warmup, further invocations
must be served entirely from cache (misses frozen).

Everything lands in the ``perf_micro`` section of ``BENCH_harness.json``.
Exit status is the CI contract:

* nonzero if any production/reference pair is not byte-identical (cycles,
  counters), or a full-app digest differs from its golden;
* nonzero if the TAF or iACT microbenchmark speedup is below 2x, or the
  primitive microbenchmark below 2x;
* nonzero if arena misses keep growing in steady state.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))
sys.path.insert(0, str(REPO))

import numpy as np  # noqa: E402

from repro.approx.base import (  # noqa: E402
    HierarchyLevel,
    IACTParams,
    RegionSpec,
    TAFParams,
    Technique,
)
from repro.approx.iact import iact_invoke  # noqa: E402
from repro.approx.taf import taf_invoke  # noqa: E402
from repro.gpusim import launch, nvidia_v100  # noqa: E402

from tests import reference  # noqa: E402
from tests.approx.equivalence_util import (  # noqa: E402
    SANITIZED_CELLS,
    load_goldens,
    run_combo,
)

DEV = nvidia_v100()
NUM_BLOCKS = 128
THREADS_PER_BLOCK = 256
STEPS = 60
REPS = 7
FLOOR = 2.0

TAF_SPEC = RegionSpec(
    name="t",
    technique=Technique.TAF,
    params=TAFParams(history_size=2, prediction_size=30, rsd_threshold=0.5),
    level=HierarchyLevel.WARP,
    in_width=0,
    out_width=1,
)
IACT_SPEC = RegionSpec(
    name="i",
    technique=Technique.IACT,
    params=IACTParams(table_size=4, threshold=2.0, tables_per_warp=1),
    level=HierarchyLevel.WARP,
    in_width=1,
    out_width=1,
)

arena_snapshots: list[dict] = []


def taf_kernel(ctx, invoke=taf_invoke):
    base = np.sin(ctx.thread_id.astype(np.float64))
    for step in range(STEPS):
        def compute(mask, s=step):
            ctx.flops(4.0, mask)
            return (base * (1.0 + 1e-6 * (s % 3)))[:, None]

        invoke(ctx, TAF_SPEC, compute)
        if invoke is taf_invoke and step in (STEPS // 2, STEPS - 1):
            arena_snapshots.append(ctx.arena.snapshot())


def iact_kernel(ctx, invoke=iact_invoke):
    t = ctx.thread_id.astype(np.float64)
    xs = [np.cos(t + k)[:, None] for k in range(3)]
    for step in range(STEPS):
        x = xs[step % 3]

        def compute(mask):
            ctx.flops(8.0, mask)
            return x

        invoke(ctx, IACT_SPEC, x, compute)


def primitive_kernel(ctx):
    for _ in range(400):
        ctx.flops(4.0)
        ctx.shared_access(2.0)
        ctx.charge_global_streamed(1.0, itemsize=8)


def reference_taf_kernel(ctx):
    taf_kernel(ctx, reference.taf_invoke)


def reference_iact_kernel(ctx):
    iact_kernel(ctx, reference.iact_invoke)


def bench(kernel, launcher=launch):
    """Best-of-REPS wall clock plus the last result for identity checks."""
    best = float("inf")
    result = None
    for _ in range(REPS):
        t0 = time.perf_counter()
        result = launcher(kernel, DEV, NUM_BLOCKS, THREADS_PER_BLOCK)
        best = min(best, time.perf_counter() - t0)
    return best, result


def identical(a, b) -> bool:
    return bool(
        np.array_equal(a.context.warp_cycles, b.context.warp_cycles)
        and vars(a.counters) == vars(b.counters)
    )


def main() -> int:
    failures: list[str] = []
    report: dict = {
        "grid": f"{NUM_BLOCKS}x{THREADS_PER_BLOCK}",
        "steps": STEPS,
        "reps": REPS,
        "floor": FLOOR,
    }

    for label, kernel, reference_kernel in (
        ("taf", taf_kernel, reference_taf_kernel),
        ("iact", iact_kernel, reference_iact_kernel),
        ("primitives", primitive_kernel, primitive_kernel),
    ):
        t_prod, r_prod = bench(kernel)
        t_ref, r_ref = bench(reference_kernel, reference.reference_launch)
        same = identical(r_prod, r_ref)
        speedup = t_ref / t_prod
        report[label] = {
            "reference_seconds": t_ref,
            "seconds": t_prod,
            "speedup": round(speedup, 3),
            "identical": same,
        }
        print(
            f"{label:10s} reference={t_ref * 1e3:8.2f}ms production={t_prod * 1e3:8.2f}ms "
            f"x{speedup:5.2f} identical={same}"
        )
        if not same:
            failures.append(f"{label}: not byte-identical to the reference")
        if speedup < FLOOR:
            failures.append(f"{label}: speedup {speedup:.2f}x below {FLOOR}x floor")

    # Arena steady state: between the mid-kernel and final snapshots of the
    # last production TAF launch, misses must be frozen while hits keep
    # climbing.
    warm, final = arena_snapshots[-2], arena_snapshots[-1]
    report["arena"] = {"warm": warm, "final": final}
    print(f"arena      warm={warm} final={final}")
    if final["misses"] != warm["misses"]:
        failures.append(f"arena misses grew in steady state: {warm} -> {final}")
    if final["hits"] <= warm["hits"]:
        failures.append("arena hits did not grow in steady state")

    # Sanitizer no-regression: attaching ApproxSan (now carrying the v3
    # launch-lineage/sync-clock planes) must never change simulated cycles
    # or counters — it observes, it does not charge.  The wall-clock
    # overhead ratio is recorded as information, not gated: shadow
    # tracking is allowed to cost host time, never simulated time.
    from repro.analysis.sanitizer import Sanitizer

    t_plain, r_plain = bench(primitive_kernel)
    t_san, r_san = float("inf"), None
    for _ in range(REPS):
        t0 = time.perf_counter()
        r_san = launch(primitive_kernel, DEV, NUM_BLOCKS, THREADS_PER_BLOCK,
                       sanitizer=Sanitizer())
        t_san = min(t_san, time.perf_counter() - t0)
    same = identical(r_plain, r_san)
    report["sanitizer"] = {
        "plain_seconds": t_plain,
        "attached_seconds": t_san,
        "overhead": round(t_san / t_plain, 3),
        "identical": same,
    }
    print(
        f"sanitizer  plain={t_plain * 1e3:8.2f}ms attached={t_san * 1e3:8.2f}ms "
        f"x{t_san / t_plain:5.2f} identical={same}"
    )
    if not same:
        failures.append("sanitizer: attaching ApproxSan changed simulated results")

    # Full applications, sanitizer attached: the whole record must digest
    # to its committed golden.
    goldens = load_goldens()
    apps = {}
    for name, tech, level in SANITIZED_CELLS:
        key = f"{name}/{tech}/{level}+san"
        digest = run_combo(name, tech, level, sanitize=True)
        ok = digest == goldens[key]
        apps[key] = {"identical": ok, "digest": digest[:16]}
        print(f"{name:12s} {tech}/{level} +san identical={ok}")
        if not ok:
            failures.append(f"{key}: full-app record differs from its golden")
    report["full_app"] = apps
    report["failures"] = failures

    bench_path = REPO / "BENCH_harness.json"
    data = json.loads(bench_path.read_text()) if bench_path.exists() else {}
    data["perf_micro"] = report
    bench_path.write_text(json.dumps(data, indent=2) + "\n")
    print(f"wrote perf_micro section to {bench_path}")

    if failures:
        print("FAILURES:")
        for f in failures:
            print(f"  - {f}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
