"""The benchmark's own tests.

    python3 -m pytest perfbench/selftest.py

Tiny-size runs of every workload (a few seconds each, one of them boots a
daemon), plus unit tests of the ledger and the per-job median.  The file
name keeps these out of the repository's default test collection.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT))

from perfbench.ledger import Ledger  # noqa: E402
from perfbench.measure import per_job_median  # noqa: E402
from perfbench.run import LEDGER, WORKLOADS  # noqa: E402

QUALITY = ("num_2q_gates", "two_qubit_depth", "neg_log10_fidelity", "program_exec_s")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, seed=0, trace=0, expected=None, cwd=ROOT, check=True):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--seconds", "1",
           "--trace", str(trace), "--size", "tiny"]
    if expected is not None:
        cmd += ["--expected", str(expected)]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    if not check:
        return proc
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.splitlines()[-1])


@lru_cache(maxsize=None)
def tiny(workload, trace=0, repeat=0):
    """One tiny run per argument tuple, shared between tests."""
    return run(workload, trace=trace)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_end_to_end_metric(workload):
    result = tiny(workload)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, result
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {name: v["unit"] for name, v in result["metrics"].items()}
    assert got == want
    for name, value in result["metrics"].items():
        assert value["value"] != 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_traced_run_prints_the_ledger(workload):
    result = tiny(workload, trace=1)
    assert result["correct"], result
    metrics = {n: v["value"] for n, v in result["metrics"].items()}
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {n: v["unit"] for n, v in result["metrics"].items()} == want
    total = sum(metrics[m] for m in LEDGER.values())
    assert total == pytest.approx(metrics["trace.e2e_s"], rel=1e-9)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_gives_identical_quality(workload):
    first, second = tiny(workload), tiny(workload, repeat=1)
    for name in QUALITY:
        assert first["metrics"][name] == second["metrics"][name]


def test_corrupted_expected_output_is_an_error(tmp_path):
    table = json.loads((HERE / "expected.json").read_text())
    entry = table["flagship/tiny"]["0"]
    name = next(iter(entry))
    entry[name] = "0" * 64
    corrupted = tmp_path / "expected.json"
    corrupted.write_text(json.dumps(table))
    result = run("flagship", expected=corrupted)
    assert not result["correct"]
    assert result["failed"] > 0
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run("flagship", cwd=tmp_path, check=False)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_service_run_leaves_no_daemon():
    tiny("service-program")
    for entry in os.scandir("/proc"):
        if not entry.name.isdigit():
            continue
        try:
            cmdline = Path(entry.path, "cmdline").read_bytes().split(b"\0")
        except OSError:
            continue
        assert not any(b"perfbench/out" in arg for arg in cmdline), cmdline


def _files_outside_scratch() -> dict[str, tuple[int, int]]:
    skip = {".git", "out", "__pycache__", ".pytest_cache", ".hypothesis"}
    found = {}
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = [d for d in dirnames if d not in skip]
        for name in filenames:
            st = os.stat(os.path.join(dirpath, name))
            found[os.path.join(dirpath, name)] = (st.st_mtime_ns, st.st_size)
    return found


@pytest.mark.parametrize("workload", ["sweep", "service-program"])
def test_run_writes_only_its_scratch_directory(workload):
    before = _files_outside_scratch()
    run(workload, trace=1)
    assert _files_outside_scratch() == before


def test_ledger_self_times_add_up():
    ledger = Ledger("t")
    with ledger.span("op") as op:
        with ledger.span("a"):
            with ledger.span("b"):
                pass
        with ledger.span("c") as c:
            ledger.report("worker", 0.0, c)
    ledger.report("remote", 0.0, op)
    ops, e2e, by_name = ledger.totals("op")
    assert ops == 1
    assert sum(by_name.values()) == pytest.approx(e2e, rel=1e-12)
    assert set(by_name) == {"op", "a", "b", "c", "worker", "remote"}


def test_ledger_reported_child_is_subtracted_from_parent():
    ledger = Ledger("t")
    ledger.add("op", 0.0, 10.0)
    ledger.report("remote", 4.0, 0)
    _ops, e2e, by_name = ledger.totals("op")
    assert e2e == 10.0
    assert by_name == {"op": 6.0, "remote": 4.0}


def test_per_job_median_is_the_mean_of_each_jobs_median():
    assert per_job_median({"a": [3.0, 1.0, 2.0], "b": [5.0, 4.0], "c": []}) == 3.25
