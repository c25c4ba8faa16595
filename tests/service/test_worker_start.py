"""How shard workers start.

- Import budget (tier-1): the daemon and client modules load no scipy;
  workers get it from the forkserver's preload instead.  A batch worker's
  initializer loads no part of the compile service.
- Orphans (tier-1): a pool worker, shard or batch, exits once its parent
  is hard-killed, and takes the forkserver and resource tracker with it.
- Listener isolation (``-m service_smoke``, excluded from tier-1): once a
  real ``python -m repro serve`` has warmed every shard, no process in
  its tree but the daemon itself (not the forkserver, not a worker)
  holds the listening socket, so a worker orphaned by a daemon
  hard-kill cannot keep answering connects meant for its replacement.
  Checked through ``/proc/<pid>/fd`` and skipped without ``/proc``.
"""

import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.baselines.registry import CompileOptions
from repro.experiments import raa_for
from repro.experiments.batch import CompileJob
from repro.generators import qaoa_random
from repro.service import ServiceClient

SRC = str(Path(__file__).resolve().parents[2] / "src")
PROC = Path("/proc")


def _env() -> dict[str, str]:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [SRC, path]))}


def test_daemon_and_client_imports_leave_scipy_unloaded():
    code = (
        "import sys\n"
        "import repro.service.server\n"
        "import repro.service.client\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


def test_batch_worker_start_leaves_the_service_unloaded():
    code = (
        "import sys\n"
        "from repro.experiments.batch import init_worker_prefix_cache\n"
        "init_worker_prefix_cache()\n"
        "print(sorted(m for m in sys.modules if m.startswith('repro.service')))\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=_env(), capture_output=True, text=True, timeout=120, check=True,
    )
    assert out.stdout.strip() == "[]"


#: Builds ``pool`` in a child interpreter: a daemon's shard pool (forked
#: from the preloaded forkserver), or a ``compile_many``-style fork pool.
_ORPHAN_POOLS = {
    "shard": (
        "from repro.service.server import CompileService\n"
        "pool = CompileService(spool_dir={spool!r})._make_pool()\n"
    ),
    "batch": (
        "from concurrent.futures import ProcessPoolExecutor\n"
        "from repro.experiments.batch import init_worker_prefix_cache\n"
        "pool = ProcessPoolExecutor(1, initializer=init_worker_prefix_cache)\n"
    ),
}


def _running(pid: int) -> bool:
    """True while *pid* exists and is not a zombie."""
    try:
        stat = (PROC / str(pid) / "stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] not in ("Z", "X")


@pytest.mark.skipif(not PROC.exists(), reason="needs Linux /proc")
@pytest.mark.parametrize("kind", sorted(_ORPHAN_POOLS))
def test_orphaned_workers_exit_with_their_parent(kind, tmp_path):
    code = _ORPHAN_POOLS[kind].format(spool=str(tmp_path / "spool")) + (
        "import os\n"
        "from multiprocessing import forkserver, resource_tracker\n"
        "pids = [pool.submit(os.getpid).result(timeout=120),\n"
        "        forkserver._forkserver._forkserver_pid,\n"
        "        resource_tracker._resource_tracker._pid]\n"
        "print(*[p for p in pids if p], flush=True)\n"
        "os._exit(0)\n"  # no pool shutdown: the worker is orphaned
    )
    # Output to a file, not a pipe: every process left behind would hold a
    # pipe open.
    log = tmp_path / "pids.txt"
    with log.open("w") as out:
        subprocess.run(
            [sys.executable, "-c", code],
            env=_env(), stdout=out, timeout=120, check=True,
        )
    pids = [int(p) for p in log.read_text().split()]
    try:
        deadline = time.monotonic() + 10.0
        while any(_running(pid) for pid in pids):
            assert time.monotonic() < deadline, [
                pid for pid in pids if _running(pid)
            ]
            time.sleep(0.05)
    finally:
        for pid in pids:
            if _running(pid):
                os.kill(pid, 9)


def _descendants(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for stat in PROC.glob("[0-9]*/stat"):
        try:
            fields = stat.read_text().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited meanwhile
        children.setdefault(int(fields[1]), []).append(int(stat.parent.name))
    found, todo = [], [root]
    while todo:
        kids = children.get(todo.pop(), [])
        found += kids
        todo += kids
    return found


def _socket_inodes(pid: int) -> set[str]:
    inodes = set()
    for fd in (PROC / str(pid) / "fd").glob("*"):
        try:
            target = os.readlink(fd)
        except OSError:
            continue
        if target.startswith("socket:["):
            inodes.add(target[len("socket:[") : -1])
    return inodes


def _unix_listener_inode(path: Path) -> str:
    """Inode of the Unix socket bound to *path*, from ``/proc/net/unix``."""
    for line in (PROC / "net" / "unix").read_text().splitlines()[1:]:
        fields = line.split()
        if len(fields) == 8 and fields[7] == str(path):
            return fields[6]
    raise AssertionError(f"no socket bound to {path}")


@pytest.mark.service_smoke
@pytest.mark.skipif(
    not (PROC / "net" / "unix").exists(), reason="needs Linux /proc"
)
def test_only_the_daemon_holds_its_listener(tmp_path):
    socket_path = tmp_path / "repro.sock"
    shards = 2
    # A log file, not a pipe: a worker that did inherit the daemon's fds
    # would hold a pipe open past the daemon's exit.
    log = tmp_path / "daemon.log"
    with log.open("wb") as out:
        daemon = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve",
             "--socket", str(socket_path), "--spool", str(tmp_path / "spool"),
             "--shards", str(shards)],
            env=_env(), stdout=out, stderr=subprocess.STDOUT,
        )
    try:
        client = ServiceClient(socket_path=socket_path, timeout=120.0)
        client.wait_ready(timeout=60.0)
        jobs = [
            CompileJob("Atomique", c, CompileOptions(raa=raa_for(c)))
            for c in (qaoa_random(6, seed=s) for s in range(8))
        ]
        job_ids = client.submit_many(jobs)
        client.results(job_ids)
        assert {client.status(j)["shard"] for j in job_ids} == set(range(shards))

        listener = _unix_listener_inode(socket_path)
        assert listener in _socket_inodes(daemon.pid)
        tree = _descendants(daemon.pid)
        # the forkserver and one worker per shard, at least
        assert len(tree) > shards, tree
        holders = [pid for pid in tree if listener in _socket_inodes(pid)]
        assert holders == []

        client.drain()
        assert daemon.wait(timeout=60) == 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait(timeout=10)
        print(log.read_text())
