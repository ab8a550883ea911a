"""Tests of the benchmark itself: run with ``python3 -m pytest perfbench``.

Each workload runs a small traced saturated phase twice with the same
seed; the count metrics must repeat exactly. Every metric name must be
well formed and every metric ``BENCHMARK.json`` lists must be reported.
A paced phase whose backlog grows must make the run incorrect.
"""

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run as bench

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")

#: Counts that depend only on the seed and the number of cycles.
REPEATED_COUNTS = (
    "core.notifications",
    "cluster.frames",
    "wire_bytes_per_mutation",
    "wal_bytes_per_mutation",
    "dra.terms_evaluated",
    "dra.kernel_rows",
)


def run(workload, trace, seconds=1, cwd=ROOT):
    argv = [
        sys.executable,
        str(Path(cwd) / "perfbench" / "run.py"),
        "--workload", workload,
        "--seed", "7",
        "--seconds", str(seconds),
        "--trace", str(trace),
    ]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=600)
    return proc


def result(proc):
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    for name, metric in out["metrics"].items():
        assert NAME.fullmatch(name), name
        assert set(metric) == {"value", "unit"}
    return out["metrics"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_with_the_same_seed(workload):
    first = result(run(workload, trace=1, seconds=0.3))
    second = result(run(workload, trace=1, seconds=0.3))
    assert set(first) == {m["name"] for m in SPEC["per_layer"]}
    for name in REPEATED_COUNTS:
        assert first[name]["value"] == second[name]["value"], name
    assert first["core.notifications"]["value"] > 0
    bytes_moved = (
        first["wire_bytes_per_mutation"]["value"]
        + first["wal_bytes_per_mutation"]["value"]
    )
    assert bytes_moved > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_all_reported(workload):
    metrics = result(run(workload, trace=0, seconds=2))
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {name: m["unit"] for name, m in metrics.items()} == expected
    assert all(m["value"] > 0 for m in metrics.values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = run(WORKLOADS[0], trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == "" or not proc.stdout.strip().splitlines()[-1].startswith("{")


class StubWorkload:
    """A program stand-in whose commits each take ``COMMIT_S``."""

    COMMIT_S = 0.0

    def __init__(self, seed, workdir, shard_spans=None):
        pass

    def setup(self):
        pass

    def subscribers(self):
        return ["s"]

    def next_txn(self):
        return [("mod", 0, 0)]

    def commit(self, ops):
        time.sleep(self.COMMIT_S)
        return len(ops)

    def refresh(self):
        return 1

    def check(self, names):
        return len(names), 0

    def wire_bytes(self):
        return 0

    def wal_bytes(self):
        return 0

    def close(self):
        pass


@pytest.mark.parametrize("commit_s, grows", [(0.0, False), (0.01, True)])
def test_growing_backlog_fails_the_run(monkeypatch, capsys, commit_s, grows):
    # At 200 transactions/s a 10 ms commit lets the loop serve only half
    # of them, so lag grows over the paced phase.
    monkeypatch.syspath_prepend(str(bench.SRC))
    import cq_workloads

    stub = type("Stub", (StubWorkload,), {"COMMIT_S": commit_s})
    profile = {"setups": 1, "batch": 1, "rate": 200, "sample": 1, "trace_cycles": 1}
    monkeypatch.setitem(bench.PROFILES, "stub", profile)
    monkeypatch.setitem(cq_workloads.WORKLOADS, "stub", stub)
    code = bench.main(["--workload", "stub", "--seed", "1", "--seconds", "1"])
    out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert out["correct"] is not grows
    assert code == (1 if grows else 0)
    assert (out["failed"] > 0) is grows
