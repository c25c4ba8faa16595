"""Compile-farm chaos: real multi-daemon subprocesses, SIGKILL failover,
and the HTTP gateway front door (the CI ``farm-smoke`` job, ``-m farm``).

The headline test is the farm's acceptance bar: a fig13-scale mix spread
across **three** daemons sharing one spool, one daemon SIGKILLed
mid-run, and every job must still complete exactly once — no job lost,
no job double-completed — with metrics bit-identical to a serial
``compile_many`` run.  The second test boots two farm daemons plus a
real ``python -m repro gateway`` subprocess and drives the whole stack
over plain HTTP.
"""

import json
import signal
import subprocess
import sys
import time

import pytest

from repro.experiments.batch import compile_many
from repro.service import ServiceClient

from .test_chaos import _daemon_env, fig13_mix
from .test_http import http
from .test_service import stable

pytestmark = pytest.mark.farm


def _boot_farm_daemon(
    socket_path,
    spool,
    node,
    prefix,
    log,
    shards=6,
    workers=2,
    shard_lease=3.0,
    lease=5.0,
):
    """One farm member.  Output goes to a file, not a pipe: a SIGKILLed
    daemon leaves orphaned pool workers holding the pipe's write end, so
    a pipe read() after the kill would hang the test."""
    with open(log, "ab") as log_file:
        return subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--socket", str(socket_path),
                "--spool", str(spool),
                "--farm",
                "--node", node,
                "--shards", str(shards),
                "--workers", str(workers),
                "--shard-lease", str(shard_lease),
                "--lease", str(lease),
                "--prefix-cache", str(prefix),
            ],
            env=_daemon_env(),
            stdout=log_file,
            stderr=subprocess.STDOUT,
        )


def _kill_all(daemons):
    for daemon in daemons.values():
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)


def test_three_daemon_farm_survives_sigkill_bit_identical(tmp_path):
    """THE farm acceptance test: fig13-scale mix across three daemons on
    one spool, SIGKILL whichever daemon owns the most shards mid-run, and
    require the survivors to adopt its shards, requeue its RUNNING jobs,
    and finish everything exactly once — bit-identical to serial."""
    spool = tmp_path / "spool"
    jobs = fig13_mix()
    serial = compile_many(jobs)
    log = tmp_path / "farm.log"

    nodes = ("node-a", "node-b", "node-c")
    daemons, clients = {}, {}
    for node in nodes:
        daemons[node] = _boot_farm_daemon(
            tmp_path / f"{node}.sock", spool, node, tmp_path / f"px-{node}",
            log,
        )
        clients[node] = ServiceClient(
            socket_path=tmp_path / f"{node}.sock",
            timeout=300.0,
            backoff_seed=0,
        )
    try:
        for node in nodes:
            clients[node].wait_ready(timeout=60.0)

        job_ids = [
            clients["node-a"].submit(job, key=f"mix-{i}")
            for i, job in enumerate(jobs)
        ]

        # Kill the daemon holding the most shards as soon as the mix is
        # genuinely mid-run (at least one job has left PENDING).
        deadline = time.monotonic() + 240.0
        while time.monotonic() < deadline:
            states = {j["state"] for j in clients["node-b"].jobs()}
            if states - {"pending"}:
                break
            time.sleep(0.05)
        victim = max(
            nodes,
            key=lambda n: len(clients[n].stats()["owned_shards"]),
        )
        daemons[victim].send_signal(signal.SIGKILL)
        assert daemons[victim].wait(timeout=30) == -signal.SIGKILL
        survivors = [n for n in nodes if n != victim]
        poller = clients[survivors[0]]

        # Survivors finish the whole backlog: zero lost, zero duplicated.
        recovered = poller.results(job_ids)
        listed = poller.jobs()
        assert len(listed) == len(jobs)
        assert {j["state"] for j in listed} == {"done"}
        # resubmission with the original keys maps back to the same jobs:
        resubmitted = [
            poller.submit(job, key=f"mix-{i}") for i, job in enumerate(jobs)
        ]
        assert resubmitted == job_ids
        # and the recovered metrics are bit-identical to the serial run:
        assert [stable(m) for m in recovered] == [stable(m) for m in serial]

        # The dead daemon's shards were adopted: within a couple of shard
        # leases the survivors own the whole board between them.
        deadline = time.monotonic() + 60.0
        while time.monotonic() < deadline:
            owned = [clients[n].stats()["owned_shards"] for n in survivors]
            if sum(len(o) for o in owned) == 6 and not (
                set(owned[0]) & set(owned[1])
            ):
                break
            time.sleep(0.2)
        else:
            pytest.fail(f"survivors never adopted the board: {owned}")
        assert sum(
            clients[n].stats()["shards_claimed"] for n in survivors
        ) >= 6

        for node in survivors:
            clients[node].drain()
            assert daemons[node].wait(timeout=120) == 0
        # Claims are released: every attempt, the dead daemon's included
        # (its lease reaped or its stale claim buried), settled its claim.
        assert not sorted((spool / "claims").glob("*.json"))
    finally:
        _kill_all(daemons)
        print(log.read_text() if log.exists() else "")


def test_gateway_fronts_a_two_daemon_farm_over_http(tmp_path):
    """Two real farm daemons + a real ``python -m repro gateway``
    subprocess: token-authenticated submits over plain HTTP land on the
    shared spool, either daemon may compile them, and the REST results
    decode bit-identical to a serial run."""
    spool = tmp_path / "spool"
    jobs = fig13_mix()[:3]
    serial = compile_many(jobs)
    log = tmp_path / "farm.log"
    auth_file = tmp_path / "tokens.json"
    auth_file.write_text(
        json.dumps({"tokens": [{"token": "ci-token", "name": "ci",
                                "quota": 10}]})
    )

    daemons = {
        node: _boot_farm_daemon(
            tmp_path / f"{node}.sock", spool, node, tmp_path / f"px-{node}",
            log, shards=4, workers=1,
        )
        for node in ("node-a", "node-b")
    }
    gateway = None
    try:
        for node in daemons:
            ServiceClient(
                socket_path=tmp_path / f"{node}.sock", timeout=60.0
            ).wait_ready(timeout=60.0)

        gateway = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "gateway",
                "--daemon-socket", str(tmp_path / "node-a.sock"),
                "--port", "0",
                "--auth-file", str(auth_file),
            ],
            env=_daemon_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            text=True,
        )
        ready = gateway.stdout.readline()
        assert "repro-gateway: listening on " in ready, ready
        url = ready.split("listening on ", 1)[1].strip()

        status, body = http("GET", f"{url}/healthz")
        assert status == 200 and body["ok"] is True

        from repro.service.wire import decode_metrics, encode_job

        status, body = http(
            "POST", f"{url}/v1/jobs", body={"job": encode_job(jobs[0])}
        )
        assert status == 401  # the farm's front door is not open

        job_ids = []
        for i, job in enumerate(jobs):
            status, body = http(
                "POST", f"{url}/v1/jobs",
                body={"job": encode_job(job), "key": f"http-{i}"},
                token="ci-token",
            )
            assert status == 202
            job_ids.append(body["id"])

        rest_metrics = []
        for job_id in job_ids:
            status, body = http(
                "GET",
                f"{url}/v1/jobs/{job_id}/result?wait=1&timeout=240",
                token="ci-token",
                timeout=300.0,
            )
            assert status == 200
            rest_metrics.append(decode_metrics(body["metrics"]))
        assert [stable(m) for m in rest_metrics] == [
            stable(m) for m in serial
        ]

        status, body = http("GET", f"{url}/v1/stats", token="ci-token")
        assert status == 200
        assert body["stats"]["farm"] is True
        assert body["stats"]["node"] == "node-a"
        assert body["gateway"]["submits_per_client"] == {"ci": 3}

        gateway.terminate()
        assert gateway.wait(timeout=30) == 0
        gateway = None

        for node in daemons:
            ServiceClient(
                socket_path=tmp_path / f"{node}.sock", timeout=120.0
            ).drain()
            assert daemons[node].wait(timeout=120) == 0
    finally:
        if gateway is not None and gateway.poll() is None:
            gateway.kill()
            gateway.wait(timeout=10)
        _kill_all(daemons)
        print(log.read_text() if log.exists() else "")
