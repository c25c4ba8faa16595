"""Timing statistics, peak-RSS sampling and the host fingerprint."""

from __future__ import annotations

import hashlib
import heapq
import os
import platform
import random
import statistics
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def per_job_median(samples: dict[str, list[float]]) -> float:
    """The median of each job's samples, averaged over the jobs that have
    any, so a pool of unequal jobs reads the same whichever job ran last."""
    medians = [statistics.median(v) for v in samples.values() if v]
    return sum(medians) / len(medians)


#: Seconds the host probe takes at the reference speed: about its median
#: time on a quiet 2-vCPU Xeon (Sapphire Rapids) KVM guest.
PROBE_REFERENCE_S = 0.012


class HostSpeed:
    """Converts op seconds to reference seconds: seconds on a host running
    at the reference speed.

    The benchmark's hosts are shared, and their speed drifts by up to 2x
    over minutes (a fixed pure-Python loop, and the same compile, both
    slowed by that much within one 25-minute series of runs), so raw op
    times of two runs a few minutes apart are not comparable.  Between
    every two measured ops this times a fixed probe that does not touch
    the program under test (object-graph shortest paths, sorting, numpy
    argsort and an arithmetic loop), and scales each op by
    ``PROBE_REFERENCE_S / probe time``, the probe time being the mean of
    the probes just before and just after the op.  A slower program still
    reads slower; a slower host mostly does not."""

    REPEATS = 3

    def __init__(self) -> None:
        rng = random.Random(7)
        self._edges = [[rng.randrange(600) for _ in range(6)] for _ in range(600)]
        self._array = np.random.default_rng(7).random(20_000)
        self.probes: list[float] = []
        self._last = self.probe()

    def _work(self) -> int:
        edges = self._edges
        dist = {0: 0}
        queue = [(0, 0)]
        while queue:
            d, i = heapq.heappop(queue)
            if d > dist[i]:
                continue
            for j in edges[i]:
                nd = d + 1 + (j * 7 + i) % 5
                if nd < dist.get(j, 1 << 30):
                    dist[j] = nd
                    heapq.heappush(queue, (nd, j))
        layers: dict[int, list[int]] = {}
        for node, d in dist.items():
            layers.setdefault(d, []).append(node)
        order = sorted(((len(v), k) for k, v in layers.items()), reverse=True)
        total = int(np.argsort(self._array)[0]) + len(order)
        for i in range(100_000):
            total += i * i % 7
        return total

    def probe(self) -> float:
        """Median seconds of a few runs of the probe, now."""
        times = []
        for _ in range(self.REPEATS):
            t0 = time.perf_counter()
            self._work()
            times.append(time.perf_counter() - t0)
        seconds = statistics.median(times)
        self.probes.append(seconds)
        return seconds

    def scale(self, seconds: float) -> float:
        """*seconds* of the op that just ended, in reference seconds."""
        after = self.probe()
        host = (self._last + after) / 2
        self._last = after
        return seconds * PROBE_REFERENCE_S / host


class Latencies:
    """Seconds of each measured op, per job, as measured and in reference
    seconds.  Add each op right after it ends: that times the probe that
    closes it."""

    def __init__(self) -> None:
        self.speed = HostSpeed()
        self.raw: dict[str, list[float]] = defaultdict(list)
        self.ref: dict[str, list[float]] = defaultdict(list)

    def add(self, job: str, seconds: float) -> None:
        self.raw[job].append(seconds)
        self.ref[job].append(self.speed.scale(seconds))

    def report(self, info: dict) -> float:
        """``latency_s``; the as-measured figures go to *info*."""
        info["latency"] = {
            "samples": sum(map(len, self.raw.values())),
            "measured_median_s": per_job_median(self.raw),
            "measured_best_s": sum(map(min, self.raw.values())) / len(self.raw),
            "probe_median_s": statistics.median(self.speed.probes),
        }
        return per_job_median(self.ref)


def median(samples: list[float]) -> float:
    return statistics.median(samples)


def host_fingerprint() -> dict:
    """Enough of the machine to tell two hosts apart in stored results."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    facts = {
        "nproc": nproc(),
        "cpu": cpu,
        "machine": platform.machine(),
        "python": platform.python_version(),
        "mem_kb": _meminfo_total_kb(),
    }
    digest = hashlib.sha256(repr(sorted(facts.items())).encode()).hexdigest()
    return {**facts, "fingerprint": digest[:16]}


def _meminfo_total_kb() -> int:
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemTotal:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def proc_stats():
    """``(pid, state, ppid, pgid)`` of every process in /proc."""
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            stat = Path(entry.path, "stat").read_text()
        except OSError:
            continue  # exited while we looked
        state, ppid, pgid = stat.rsplit(")", 1)[1].split()[:3]
        yield int(entry.name), state, int(ppid), int(pgid)


def _process_tree(root: int) -> list[int]:
    """*root* and every live descendant."""
    children: dict[int, list[int]] = {}
    for pid, _state, ppid, _pgid in proc_stats():
        children.setdefault(ppid, []).append(pid)
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def _hwm_kb(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


#: Seconds between peak-RSS samples; a /proc scan costs a few ms of CPU.
RSS_SAMPLE_PERIOD = 0.5


class PeakRss:
    """Samples the summed peak RSS (VmHWM) of this process and all of its
    descendants on a background thread; :attr:`peak_mb` is the largest
    sum seen.  Use as a context manager around the measured phase."""

    def __init__(self) -> None:
        self.peak_kb = 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._loop, daemon=True)

    def sample(self) -> None:
        total = sum(_hwm_kb(pid) for pid in _process_tree(os.getpid()))
        self.peak_kb = max(self.peak_kb, total)

    def _loop(self) -> None:
        while not self._stop.wait(RSS_SAMPLE_PERIOD):
            self.sample()

    def __enter__(self) -> "PeakRss":
        self.sample()
        self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        self._thread.join()
        self.sample()

    @property
    def peak_mb(self) -> float:
        return self.peak_kb / 1024.0
