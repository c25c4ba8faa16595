"""Job-queue lifecycle: FIFO ordering, cancellation rules, and the disk
spool surviving daemon restarts."""

import json

import pytest

from repro.service.queue import JobQueue, JobState, QueueError


def payload(i):
    return {
        "backend": "Atomique",
        "circuit": {"name": f"circ-{i}", "num_qubits": 2, "gates": []},
        "options": None,
    }


class TestOrdering:
    def test_jobs_listed_in_submission_order(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(payload(i), shard=i % 2).job_id for i in range(6)]
        assert [r.job_id for r in queue.jobs()] == ids
        assert [r.seq for r in queue.jobs()] == list(range(1, 7))

    def test_pending_is_fifo_and_tracks_transitions(self, tmp_path):
        queue = JobQueue(tmp_path)
        ids = [queue.submit(payload(i), shard=0).job_id for i in range(3)]
        queue.acquire(ids[0])
        assert [r.job_id for r in queue.pending()] == ids[1:]
        queue.mark_done(ids[0], {"benchmark": "circ-0"})
        assert queue.get(ids[0]).state is JobState.DONE

    def test_job_ids_are_unique_for_identical_payloads(self, tmp_path):
        queue = JobQueue(tmp_path)
        a = queue.submit(payload(0), shard=0)
        b = queue.submit(payload(0), shard=0)
        assert a.job_id != b.job_id


class TestCancellation:
    def test_pending_job_cancels(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        assert queue.cancel(job_id) is True
        assert queue.get(job_id).state is JobState.CANCELLED

    def test_running_job_cancels_via_lease_revocation(self, tmp_path):
        queue = JobQueue(tmp_path)
        running = queue.submit(payload(0), shard=0).job_id
        queue.acquire(running, owner="d1", lease_seconds=30)
        assert queue.cancel(running) is True
        record = queue.get(running)
        assert record.state is JobState.CANCELLED
        assert record.owner is None and record.lease_deadline is None
        # the in-flight attempt's late result is discarded, not resurrected
        assert queue.mark_done(running, {}) is False
        assert record.state is JobState.CANCELLED

    def test_finished_jobs_do_not_cancel(self, tmp_path):
        queue = JobQueue(tmp_path)
        done = queue.submit(payload(1), shard=0).job_id
        queue.acquire(done)
        queue.mark_done(done, {})
        assert queue.cancel(done) is False
        assert queue.get(done).state is JobState.DONE

    def test_unknown_job_raises(self, tmp_path):
        with pytest.raises(QueueError):
            JobQueue(tmp_path).cancel("job-999999-nope")


class TestResults:
    def test_result_only_for_done_jobs(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        assert queue.load_result(job_id) is None
        queue.mark_done(job_id, {"benchmark": "circ-0", "depth": 3})
        assert queue.load_result(job_id) == {"benchmark": "circ-0", "depth": 3}


class TestSpoolPersistence:
    def test_restart_sees_same_records_and_results(self, tmp_path):
        first = JobQueue(tmp_path)
        done = first.submit(payload(0), shard=1).job_id
        pending = first.submit(payload(1), shard=0).job_id
        first.acquire(done)
        first.mark_done(done, {"benchmark": "circ-0", "depth": 5})

        reborn = JobQueue(tmp_path)
        assert reborn.get(done).state is JobState.DONE
        assert reborn.get(done).shard == 1
        assert reborn.load_result(done) == {"benchmark": "circ-0", "depth": 5}
        assert reborn.get(pending).state is JobState.PENDING
        # seq continues, so ordering across restarts stays global FIFO
        assert reborn.submit(payload(2), shard=0).seq == 3

    def test_running_jobs_demote_to_pending_on_restart(self, tmp_path):
        first = JobQueue(tmp_path)
        job_id = first.submit(payload(0), shard=0).job_id
        first.acquire(job_id)

        reborn = JobQueue(tmp_path)
        assert reborn.get(job_id).state is JobState.PENDING
        assert [r.job_id for r in reborn.pending()] == [job_id]
        # the demotion is itself persisted
        data = json.loads((tmp_path / "jobs" / f"{job_id}.json").read_text())
        assert data["state"] == "pending"

    def test_torn_spool_file_is_quarantined_not_fatal(self, tmp_path):
        first = JobQueue(tmp_path)
        kept = first.submit(payload(0), shard=0).job_id
        (tmp_path / "jobs" / "job-999999-torn.json").write_text("{not json")

        reborn = JobQueue(tmp_path)
        assert [r.job_id for r in reborn.jobs()] == [kept]
        assert reborn.quarantined == ["job-999999-torn.json"]
        # moved aside for post-mortem, not deleted, and out of the boot path
        assert (tmp_path / "quarantine" / "job-999999-torn.json").exists()
        assert not (tmp_path / "jobs" / "job-999999-torn.json").exists()
        assert JobQueue(tmp_path).quarantined == []


class TestTerminalRecordsDropTheCircuit:
    """A finished job's gate list is dead weight for the daemon's whole
    life: terminal records keep only what their summary reports."""

    def finish_every_way(self, queue):
        done, failed, cancelled, dead, pending = (
            queue.submit(payload(i), shard=0, max_retries=1).job_id
            for i in range(5)
        )
        queue.acquire(done)
        queue.mark_done(done, {})
        queue.mark_failed(failed, "boom")
        queue.cancel(cancelled)
        queue.acquire(dead)
        assert queue.retry_or_fail(dead, "crashed") is JobState.FAILED
        return [done, failed, cancelled, dead], pending

    def test_no_terminal_record_holds_a_circuit(self, tmp_path):
        queue = JobQueue(tmp_path)
        finished, pending = self.finish_every_way(queue)
        for job_id in finished:
            record = queue.get(job_id)
            assert record.payload == {
                "backend": "Atomique",
                "circuit": {"name": record.payload["circuit"]["name"]},
            }
            on_disk = json.loads(
                (tmp_path / "jobs" / f"{job_id}.json").read_text()
            )
            assert "gates" not in on_disk["payload"]["circuit"]
        # a job still to run keeps its whole payload
        assert queue.get(pending).payload == payload(4)

    def test_summaries_keep_backend_and_benchmark_across_restart(
        self, tmp_path
    ):
        queue = JobQueue(tmp_path)
        finished, _ = self.finish_every_way(queue)
        for reborn in (queue, JobQueue(tmp_path)):
            summaries = {r.job_id: r.summary() for r in reborn.jobs()}
            for i, job_id in enumerate(finished):
                assert summaries[job_id]["backend"] == "Atomique"
                assert summaries[job_id]["benchmark"] == f"circ-{i}"

    def test_old_spool_records_load_without_their_circuit(self, tmp_path):
        # spool files written before terminal records were cut carry the
        # gates; a restarted daemon does not keep them
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        path = tmp_path / "jobs" / f"{job_id}.json"
        data = json.loads(path.read_text())
        data["state"] = "done"
        path.write_text(json.dumps(data))
        record = JobQueue(tmp_path).get(job_id)
        assert record.state is JobState.DONE
        assert record.payload["circuit"] == {"name": "circ-0"}
        assert record.summary()["benchmark"] == "circ-0"


class TestSpoolCompression:
    def test_large_results_deflate_on_disk_and_sniff_back(self, tmp_path):
        from repro.service.queue import (
            SPOOL_COMPRESS_THRESHOLD,
            SPOOL_DEFLATE_MAGIC,
        )

        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        result = {"benchmark": "big", "pad": "x" * SPOOL_COMPRESS_THRESHOLD}
        queue.mark_done(job_id, result)
        raw = (tmp_path / "results" / f"{job_id}.json").read_bytes()
        assert raw.startswith(SPOOL_DEFLATE_MAGIC)
        assert len(raw) < SPOOL_COMPRESS_THRESHOLD  # x*N deflates well
        assert queue.load_result(job_id) == result
        # a restarted queue sniffs the compressed record too
        assert JobQueue(tmp_path).load_result(job_id) == result

    def test_small_results_stay_plain_json(self, tmp_path):
        from repro.service.queue import SPOOL_DEFLATE_MAGIC

        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.mark_done(job_id, {"benchmark": "small", "depth": 3})
        raw = (tmp_path / "results" / f"{job_id}.json").read_bytes()
        assert not raw.startswith(SPOOL_DEFLATE_MAGIC)
        json.loads(raw)  # a plain JSON document, as every old reader expects

    def test_old_plain_spool_results_still_load(self, tmp_path):
        # a result written by a pre-compression daemon: plain JSON on disk
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.mark_done(job_id, {"benchmark": "x"})
        (tmp_path / "results" / f"{job_id}.json").write_text(
            json.dumps({"benchmark": "legacy", "depth": 9})
        )
        assert JobQueue(tmp_path).load_result(job_id) == {
            "benchmark": "legacy",
            "depth": 9,
        }

    def test_corrupt_result_payload_is_none_not_fatal(self, tmp_path):
        from repro.service.queue import SPOOL_DEFLATE_MAGIC

        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.mark_done(job_id, {"benchmark": "x"})
        (tmp_path / "results" / f"{job_id}.json").write_bytes(
            SPOOL_DEFLATE_MAGIC + b"\x00not-deflate"
        )
        assert JobQueue(tmp_path).load_result(job_id) is None


class TestProgramSpool:
    def _done_job(self, queue):
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.mark_done(job_id, {"benchmark": "x"})
        return job_id

    def test_binary_programs_spool_to_bin_files(self, tmp_path):
        from repro.core import binformat
        from repro.core.program import ProgramStore

        store = ProgramStore(num_qubits=2)
        store.end_stage()
        record = binformat.encode_program(store)
        queue = JobQueue(tmp_path)
        job_id = self._done_job(queue)
        queue.store_program(job_id, record)
        assert (tmp_path / "programs" / f"{job_id}.bin").read_bytes() == record
        assert queue.load_program_bytes(job_id) == record
        assert binformat.decode_program(record).num_qubits == 2
        # a job that captured nothing has no record
        assert queue.load_program_bytes(self._done_job(queue)) is None


class TestLeases:
    def test_acquire_stamps_lease_and_counts_attempt(self, tmp_path):
        now = [1000.0]
        queue = JobQueue(tmp_path, clock=lambda: now[0])
        job_id = queue.submit(payload(0), shard=0).job_id
        record = queue.acquire(job_id, owner="daemon-1", lease_seconds=30)
        assert record.state is JobState.RUNNING
        assert record.attempts == 1
        assert record.owner == "daemon-1"
        assert record.lease_deadline == 1030.0

    def test_acquire_rejects_non_pending(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.acquire(job_id)
        with pytest.raises(QueueError, match="running"):
            queue.acquire(job_id)

    def test_heartbeat_extends_until_expiry(self, tmp_path):
        now = [1000.0]
        queue = JobQueue(tmp_path, clock=lambda: now[0])
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.acquire(job_id, owner="d1", lease_seconds=10)
        now[0] = 1008.0
        assert queue.heartbeat(job_id, lease_seconds=10) is True
        now[0] = 1017.0  # inside the extended lease
        assert queue.expired_leases() == []
        now[0] = 1018.5  # past it
        assert [r.job_id for r in queue.expired_leases()] == [job_id]
        # heartbeat on a job that left RUNNING reports the loss
        queue.cancel(job_id)
        assert queue.heartbeat(job_id, lease_seconds=10) is False

    def test_requeue_releases_lease_and_can_refund(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.acquire(job_id, owner="d1", lease_seconds=10)
        queue.requeue(job_id)
        record = queue.get(job_id)
        assert record.state is JobState.PENDING
        assert record.attempts == 1  # crash-path requeue keeps the charge
        queue.acquire(job_id)
        queue.requeue(job_id, refund_attempt=True)
        assert queue.get(job_id).attempts == 1  # clean hand-back refunds


class TestRetryAndDeadLetter:
    def test_retries_until_exhausted_then_dead_letters(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0, max_retries=3).job_id
        for attempt in range(1, 3):
            queue.acquire(job_id)
            assert (
                queue.retry_or_fail(job_id, f"boom {attempt}")
                is JobState.PENDING
            )
        queue.acquire(job_id)
        assert queue.retry_or_fail(job_id, "boom 3") is JobState.FAILED
        record = queue.get(job_id)
        assert record.attempts == 3
        assert record.error == "boom 3"
        assert [r.job_id for r in queue.failed()] == [job_id]

    def test_retry_preserves_last_error_until_success(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.acquire(job_id)
        queue.retry_or_fail(job_id, "transient crash")
        assert queue.get(job_id).error == "transient crash"
        queue.acquire(job_id)
        queue.mark_done(job_id, {})
        assert queue.get(job_id).error is None

    def test_cancelled_job_wins_over_late_retry(self, tmp_path):
        queue = JobQueue(tmp_path)
        job_id = queue.submit(payload(0), shard=0).job_id
        queue.acquire(job_id)
        queue.cancel(job_id)
        assert queue.retry_or_fail(job_id, "late crash") is JobState.CANCELLED
        assert queue.get(job_id).state is JobState.CANCELLED

    def test_exhausted_running_job_dead_letters_at_boot(self, tmp_path):
        first = JobQueue(tmp_path)
        job_id = first.submit(payload(0), shard=0, max_retries=2).job_id
        first.acquire(job_id)
        first.retry_or_fail(job_id, "worker crash")
        first.acquire(job_id)  # attempts now == max_retries, daemon "dies"

        reborn = JobQueue(tmp_path)
        record = reborn.get(job_id)
        assert record.state is JobState.FAILED
        assert "attempts exhausted: 2" in record.error

    def test_healthy_running_job_requeues_at_boot_with_charge(self, tmp_path):
        first = JobQueue(tmp_path)
        job_id = first.submit(payload(0), shard=0).job_id
        first.acquire(job_id, owner="d1", lease_seconds=30)

        reborn = JobQueue(tmp_path)
        record = reborn.get(job_id)
        assert record.state is JobState.PENDING
        assert record.attempts == 1  # the lost attempt stays charged
        assert record.owner is None and record.lease_deadline is None


class TestIdempotentSubmission:
    def test_same_key_returns_same_record(self, tmp_path):
        queue = JobQueue(tmp_path)
        a = queue.submit(payload(0), shard=0, job_key="k1")
        b = queue.submit(payload(0), shard=0, job_key="k1")
        assert a.job_id == b.job_id
        assert len(queue.jobs()) == 1
        assert queue.by_key("k1").job_id == a.job_id
        assert queue.by_key("missing") is None

    def test_keys_survive_restart(self, tmp_path):
        first = JobQueue(tmp_path)
        a = first.submit(payload(0), shard=0, job_key="k1")
        reborn = JobQueue(tmp_path)
        assert reborn.submit(payload(0), shard=0, job_key="k1").job_id == a.job_id
        assert len(reborn.jobs()) == 1

    def test_keyless_submissions_never_deduplicate(self, tmp_path):
        queue = JobQueue(tmp_path)
        a = queue.submit(payload(0), shard=0)
        b = queue.submit(payload(0), shard=0)
        assert a.job_id != b.job_id
