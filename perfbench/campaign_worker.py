"""Benchmark-owned ``campaign work`` entry: one worker process.

Usage: ``python3 perfbench/campaign_worker.py DIR OWNER TRACE SUMMARY``

Drains the campaign in ``DIR`` through :func:`repro.api.campaign_work`
and writes a JSON summary (jobs done, leases lost, peak RSS and, with
``TRACE=1``, the per-layer span digest including the ``FileQueue``
claim/heartbeat/complete spans) to ``SUMMARY``.  Exits nonzero if the
worker raises.
"""

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))


def main(argv: list[str]) -> int:
    directory, owner, trace, summary = argv
    tracing = tracer = None
    if trace == "1":
        import tracer as tracing

        tracer = tracing.install(tracing.Tracer())
        tracing.install_queue(tracer)
    from repro import api
    from workloads import proc_peak_rss_mb

    started_at = time.time()
    report = api.campaign_work(directory, owner).report
    out = {
        "owner": owner,
        "jobs_done": report.jobs_done,
        "evaluated": report.evaluated,
        "leases_lost": report.leases_lost,
        "peak_rss_mb": proc_peak_rss_mb(),
        "started_at": started_at,
        "trace": None,
    }
    if tracer is not None:
        out["trace"] = tracing.layer_summary(tracer)
        trace_dir = HERE.parent / ".perfbench_work" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        tracer.dump(trace_dir / f"campaign-shards.{owner}.spans.jsonl")
    Path(summary).write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
