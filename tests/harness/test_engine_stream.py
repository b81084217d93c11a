"""Persistent-engine and streaming-consumption tests.

The acceptance bar from the issue: one engine session running several
consecutive batches spawns exactly one process pool (counter-asserted),
streaming yields records before the batch completes while the final
record set is byte-identical to the blocking path, a crashed worker's
pool is respawned transparently, and an idle pool is reaped after its
TTL then respawned on the next use.
"""

import os
import signal

import pytest

from repro.harness.batch import BatchEngine, BatchJob, WorkerPool, run_batch
from repro.harness.config import SweepConfig
from repro.harness.database import CheckpointWriter, ResultsDB, dumps_record
from repro.harness.executor import run_sweep_parallel
from repro.harness.pruning import VariantCache
from repro.harness.runner import ExperimentRunner
from repro.harness.sweep import SweepPoint

PROBLEMS = {
    "blackscholes": {"num_options": 2048, "num_runs": 4},
    "kmeans": {"num_obs": 2048, "max_iters": 8},
}


def _taf(h, p, t, ipt=2):
    return SweepPoint("taf", {"hsize": h, "psize": p, "threshold": t}, "thread", ipt)


def _jobs(n=6):
    pts = [
        _taf(h, p, t)
        for h in (1, 2)
        for p in (4, 8, 16)
        for t in (0.3, 0.9, 3.0)
    ]
    return [BatchJob("blackscholes", "v100_small", pt) for pt in pts[:n]]


@pytest.fixture(scope="module")
def blocking_dicts():
    with BatchEngine(problems=PROBLEMS, config=SweepConfig(workers=2)) as eng:
        return [r.to_dict() for r in eng.run_jobs(_jobs())]


class TestStreaming:
    def test_streamed_records_identical_to_blocking(self, blocking_dicts):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            streamed = [r.to_dict() for r in eng.submit(_jobs())]
            # records() (what run_jobs drains) is job-ordered and must be
            # byte-identical to the blocking path; direct iteration yields
            # the same set in readiness order.
            ordered = [r.to_dict() for r in eng.submit(_jobs()).records()]
        assert ordered == blocking_dicts
        key = lambda d: sorted(d["params"].items())  # noqa: E731
        assert sorted(streamed, key=key) == sorted(blocking_dicts, key=key)

    def test_stream_yields_before_batch_completes(self, blocking_dicts):
        # chunk_size=1 so each record lands individually: after the first
        # yield, later slots must still be pending (the consumer overlaps
        # the pool), yet the drained set matches the blocking one.  Yield
        # order is readiness order — chunks complete out of job order —
        # so the comparison is order-insensitive.
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2, chunk_size=1)
        ) as eng:
            stream = eng.submit(_jobs())
            first = next(stream)
            assert stream.pending > 0
            rest = list(stream)
        streamed = [r.to_dict() for r in [first] + rest]
        key = lambda d: sorted(d["params"].items())  # noqa: E731
        assert sorted(streamed, key=key) == sorted(blocking_dicts, key=key)
        assert stream.pending == 0

    def test_serial_stream_identical(self, blocking_dicts):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=1)
        ) as eng:
            streamed = [r.to_dict() for r in eng.submit(_jobs())]
        assert streamed == blocking_dicts

    def test_stream_serves_cache_hits_immediately(self):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.run_jobs(_jobs(2))
            stream = eng.submit(_jobs(2) + _jobs(4))
            # Both cached slots yield without touching the pool again.
            assert next(stream) is not None
            assert next(stream) is not None
            assert eng.stats.cache_hits >= 2
            list(stream)


class TestPersistentPool:
    def test_one_pool_across_three_batches(self):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.run_jobs(_jobs(2))
            eng.run_jobs(_jobs(4)[2:])
            eng.run_jobs(
                [BatchJob("kmeans", "v100_small", _taf(1, 7, 0.9, ipt=8))]
            )
            assert eng.stats.executed == 5
            assert eng.stats.pool_spawns == 1
            assert eng.stats.pool_respawns == 0

    def test_crashed_worker_pool_respawned(self, blocking_dicts):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            eng.run_jobs(_jobs(1))  # spawn the pool
            for pid in list(eng.pool._executor._processes):
                os.kill(pid, signal.SIGKILL)
            records = eng.run_jobs(_jobs())
            assert eng.stats.pool_respawns >= 1
            assert all(r.feasible for r in records)
            assert [r.to_dict() for r in records] == blocking_dicts

    def test_idle_ttl_reaps_then_respawns(self):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2, idle_ttl=3600.0)
        ) as eng:
            eng.run_jobs(_jobs(1))
            assert eng.pool.alive
            # Deterministic reap (the timer would fire after idle_ttl).
            assert eng.pool.reap_idle(force=True)
            assert not eng.pool.alive
            # The next batch transparently respawns — same records, one
            # extra spawn on the counter.
            records = eng.run_jobs(_jobs(2))
            assert all(r.feasible for r in records)
            assert eng.pool.spawns == 2
            assert eng.stats.pool_spawns == 2

    def test_reap_refuses_while_acquired(self):
        pool = WorkerPool(2, idle_ttl=0.01)
        pool.submit(max, 1, 2).result()
        pool.acquire()
        try:
            assert not pool.reap_idle(force=True)
            assert pool.alive
        finally:
            pool.release()
            pool.shutdown()


class TestStreamSession:
    def test_tickets_yield_in_submission_order(self):
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            with eng.open_stream() as session:
                tickets = [session.put(j) for j in _jobs(4)]
                assert tickets == [0, 1, 2, 3]
                out = list(session)
            assert [t for t, _ in out] == tickets

    def test_serial_and_parallel_sessions_identical(self):
        def drive(workers):
            with BatchEngine(
                problems=PROBLEMS, config=SweepConfig(workers=workers)
            ) as eng:
                with eng.open_stream() as session:
                    for j in _jobs(4):
                        session.put(j)
                    return [r.to_dict() for _, r in session]

        assert drive(1) == drive(2)

    def test_incremental_put_between_consumes(self):
        # A consumer that decides its next submission from the last
        # result (the steady-state search's access pattern).
        jobs = _jobs(4)
        with BatchEngine(
            problems=PROBLEMS, config=SweepConfig(workers=2)
        ) as eng:
            with eng.open_stream() as session:
                session.put(jobs[0])
                seen = []
                for ticket, rec in session:
                    seen.append((ticket, rec.to_dict()))
                    if len(seen) < len(jobs):
                        session.put(jobs[len(seen)])
                assert session.outstanding == 0
        assert [t for t, _ in seen] == [0, 1, 2, 3]
        serial = ExperimentRunner(problems=PROBLEMS)
        assert [d for _, d in seen] == [
            serial.run_point(j.app, j.device, j.point).to_dict() for j in jobs
        ]


def _iact(tsize, tperwarp, ipt):
    return SweepPoint(
        "iact", {"tsize": tsize, "threshold": 0.3, "tperwarp": tperwarp},
        "thread", ipt,
    )


def _key(job):
    return (job.app, job.device, job.point.label())


#: One heterogeneous batch covering every way a slot can settle.
CK = [
    BatchJob("blackscholes", "v100_small", _taf(1, 4, 0.3)),
    BatchJob("kmeans", "v100_small", _taf(1, 7, 0.9, ipt=8)),
]
VARIANT = [
    BatchJob("blackscholes", "amd_small", _taf(1, 4, 0.3)),
    BatchJob("blackscholes", "v100_small", _taf(2, 8, 0.9)),
]
#: Over V100's shared memory (HPAC020) and an unshareable tperwarp (HPAC023).
PREFLIGHT = [
    BatchJob("blackscholes", "v100_small", _iact(8, 32, 8)),
    BatchJob("blackscholes", "v100_small", _iact(2, 48, 2)),
]
FRESH = [
    BatchJob("blackscholes", "v100_small", _taf(2, 16, 0.3)),
    BatchJob("kmeans", "amd_small", _taf(1, 7, 0.9, ipt=8)),
    BatchJob("blackscholes", "amd_small", _taf(2, 8, 3.0)),
]
MIXED = [
    FRESH[0], CK[0], PREFLIGHT[0], VARIANT[0], FRESH[1], FRESH[0],
    CK[1], VARIANT[1], PREFLIGHT[1], CK[0], FRESH[2],
]


@pytest.fixture(scope="module")
def reference():
    runner = ExperimentRunner(problems=PROBLEMS)
    return {
        _key(j): runner.run_point(j.app, j.device, j.point)
        for j in CK + VARIANT + FRESH
    }


class TestOneStream:
    """Serial and pooled drains of the one stream agree on everything."""

    def _drive(self, tmp_path, workers, reference):
        ck = tmp_path / f"ck-{workers}.jsonl"
        with CheckpointWriter(ck) as out:
            out.write([reference[_key(j)] for j in CK])
        cache = VariantCache()
        for j in VARIANT:
            cache.put(
                VariantCache.key_for(
                    j.app, j.device, j.point, seed=2023, problem=PROBLEMS
                ),
                reference[_key(j)],
            )
        report = run_batch(
            MIXED,
            problems=PROBLEMS,
            config=SweepConfig(
                workers=workers, checkpoint=ck, preflight=True,
                variant_cache=cache,
            ),
        )
        rows = sorted(dumps_record(r) for r in ResultsDB.load(ck))
        return report, rows

    def test_serial_and_pool_identical(self, tmp_path, reference):
        serial, serial_rows = self._drive(tmp_path, 1, reference)
        pooled, pooled_rows = self._drive(tmp_path, 2, reference)
        assert [r.to_dict() for r in serial.records] == [
            r.to_dict() for r in pooled.records
        ]

        def counters(rep):
            return (
                rep.evaluated, rep.skipped, rep.deduped, rep.pruned,
                rep.variant_hits, rep.baseline_runs, rep.worker_baseline_runs,
            )

        # 3 fresh points over 3 (app, device) pairs; the repeated fresh
        # point and the repeated checkpoint row are the 2 deduped slots.
        assert counters(serial) == counters(pooled) == (3, 2, 2, 2, 2, 3, 0)
        assert serial_rows == pooled_rows
        assert len(serial_rows) == len(CK + VARIANT + PREFLIGHT + FRESH)
        for job, rec in zip(MIXED, serial.records):
            if job in PREFLIGHT:
                assert rec.note.startswith("preflight HPAC")
            else:
                assert rec.to_dict() == reference[_key(job)].to_dict()

    def test_sweep_extra_keys_same_with_engine(self):
        pts = [_taf(1, 4, 0.3), _taf(2, 8, 0.3)]
        plain = run_sweep_parallel(
            "blackscholes", "v100_small", pts, problems=PROBLEMS
        )
        with BatchEngine(problems=PROBLEMS) as eng:
            routed = run_sweep_parallel(
                "blackscholes", "v100_small", pts, problems=PROBLEMS, engine=eng
            )
        assert set(routed.extra) == set(plain.extra)
        assert "chunk_log" in routed.extra

    def test_engine_cache_hits_reach_the_checkpoint(self, tmp_path):
        # The second call is served wholly from the engine cache; its
        # checkpoint must still end up holding every row, so a later
        # resume from it simulates nothing.
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        pts = [_taf(1, p, 0.3) for p in (4, 8, 16)]
        with BatchEngine(problems=PROBLEMS) as eng:
            run_sweep_parallel(
                "blackscholes", "v100_small", pts, problems=PROBLEMS,
                engine=eng, config=SweepConfig(checkpoint=a),
            )
            r2 = run_sweep_parallel(
                "blackscholes", "v100_small", pts, problems=PROBLEMS,
                engine=eng, config=SweepConfig(checkpoint=b),
            )
        assert r2.checkpoint == str(b)
        assert len(ResultsDB.load(b)) == 3
        resumed = run_sweep_parallel(
            "blackscholes", "v100_small", pts, problems=PROBLEMS,
            config=SweepConfig(checkpoint=b),
        )
        assert resumed.evaluated == 0 and resumed.skipped == 3


class _PoisonedRunner(ExperimentRunner):
    """A runner whose every run_point raises, as after a corrupted cache."""

    def run_point(self, *args, **kwargs):
        raise RuntimeError("poisoned runner")


class TestSerialRetry:
    def test_serial_retry_rebuilds_runner(self):
        # The in-process executor must rebuild a failing runner exactly as
        # a pool worker does, not retry the poisoned instance in place.
        job = _jobs(1)[0]
        eng = BatchEngine(runner=_PoisonedRunner(problems=PROBLEMS))
        with eng, eng.open_stream() as stream:
            stream.put(job)
            [(_ticket, rec)] = list(stream)
        fresh = ExperimentRunner(problems=PROBLEMS).run_point(
            job.app, job.device, job.point
        )
        assert rec.feasible
        assert rec.to_dict() == fresh.to_dict()
