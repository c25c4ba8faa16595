"""Streaming smoke test (CI ``stream-smoke`` job, ``-m stream``, excluded
from tier-1): boot ``python -m repro serve`` as a real subprocess, submit a
large circuit with ``keep_program``, stream the result back over binary
frames with per-pass progress, and assert the streamed program is
bit-identical to the classic single-shot fetch while the client's peak
RSS stays bounded.

The circuit size scales with ``REPRO_STREAM_SMOKE_GATES`` (total gate
count target, default 100_000) so CI can dial the job up or down."""

import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from repro.baselines.registry import CompileOptions
from repro.circuits.random_circuits import random_circuit
from repro.core.serialize import dumps
from repro.experiments import raa_for
from repro.experiments.batch import CompileJob
from repro.service import ServiceClient

pytestmark = pytest.mark.stream

SRC = str(Path(__file__).resolve().parents[2] / "src")

#: client-side peak-RSS budget for the streamed fetch; generous, but far
#: below what materialising a multi-hundred-MB JSON document would need
MAX_CLIENT_RSS_MB = int(os.environ.get("REPRO_STREAM_SMOKE_RSS_MB", "2048"))


def smoke_circuit():
    gates = int(os.environ.get("REPRO_STREAM_SMOKE_GATES", "100000"))
    num_qubits = 64
    return random_circuit(
        num_qubits, max(1, gates // num_qubits), 4, seed=17
    )


def test_streamed_program_is_bit_identical_and_bounded(tmp_path):
    circuit = smoke_circuit()
    socket_path = tmp_path / "repro.sock"
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    daemon = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--socket",
            str(socket_path),
            "--spool",
            str(tmp_path / "spool"),
            "--shards",
            "1",
        ],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        client = ServiceClient(socket_path=socket_path, timeout=1800.0)
        client.wait_ready(timeout=60.0)
        assert client.ping()

        job = CompileJob(
            "Atomique", circuit, CompileOptions(raa=raa_for(circuit))
        )
        job_id = client.submit(job, keep_program=True)

        events = []
        metrics, store = client.result_stream(
            job_id, timeout=1800.0, on_event=events.append
        )

        # Per-pass progress arrived, in order, covering the pipeline.
        assert events, "no progress events during a large compile"
        assert [e["index"] for e in events] == list(
            range(1, len(events) + 1)
        )
        assert events[-1]["index"] == events[-1]["total"]

        # The transfer actually rode the binary columnar codec: the
        # program arrived as one packed v3 record.
        assert store is not None and store.num_stages > 0
        stats = client.last_stream_stats
        assert stats == {"binary_chunks": 1}, stats

        # The streamed program reassembles bit-identically to the classic
        # whole-document fetch.
        assert metrics.num_2q_gates > 0
        streamed = dumps(store)
        classic = dumps(client.program(job_id))
        assert streamed == classic

        # Bounded client memory: the whole exchange (frames, record,
        # decode) stayed within the RSS budget.
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assert peak_kb < MAX_CLIENT_RSS_MB * 1024, (
            f"client peak RSS {peak_kb / 1024:.0f} MB exceeds "
            f"{MAX_CLIENT_RSS_MB} MB"
        )
    finally:
        daemon.terminate()
        try:
            daemon.wait(timeout=30.0)
        except subprocess.TimeoutExpired:
            daemon.kill()
            daemon.wait(timeout=30.0)
