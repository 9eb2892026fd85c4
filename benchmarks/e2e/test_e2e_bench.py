"""Checks on the benchmark itself (not tier-1):

    PYTHONPATH=src python -m pytest benchmarks/e2e -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))

import client  # noqa: E402
import estimate  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
import workloads as wl  # noqa: E402


def _layout(jobs: int = 10_000):
    """A settled two-site layout: 256 running per site, the rest queued."""
    ids = [f"task-{i:06d}" for i in range(1, jobs + 1)]
    running = {"siteA": ids[0:256], "siteB": ids[256:512]}
    rest = ids[512:]
    queued = {"siteA": rest[0::2], "siteB": rest[1::2]}
    priorities = {tid: i % wl.PRIORITY_BANDS for i, tid in enumerate(ids)}
    return {"task_ids": ids, "running": running, "queued": queued}, priorities


def _build(name: str, seed: int) -> wl.Workload:
    layout, priorities = _layout(400 if name == "wire_pipelined" else 10_000)
    if name == "wire_pipelined":
        layout["running"] = {"siteA": layout["task_ids"][:200], "siteB": layout["task_ids"][200:]}
        layout["queued"] = {"siteA": [], "siteB": []}
    return wl.build_workload(name, seed, layout, priorities)


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_cycles_are_a_function_of_the_seed(name):
    assert _build(name, 7).cycles == _build(name, 7).cycles
    assert _build(name, 7).cycles != _build(name, 8).cycles


def test_rig_inputs_are_a_function_of_the_seed():
    spec = wl.WORKLOADS["poll_uncached"][1]
    assert wl.rig_inputs(7, spec) == wl.rig_inputs(7, spec)
    assert wl.rig_inputs(7, spec)["work_seconds"] != wl.rig_inputs(8, spec)["work_seconds"]
    # Stratified: every seed has the same priority-band sizes.
    for seed in (7, 8):
        priorities = wl.rig_inputs(seed, spec)["priorities"]
        assert [priorities.count(b) for b in range(wl.PRIORITY_BANDS)] == [2000] * 5


def test_poll_workloads_share_one_cycle():
    assert _build("poll_uncached", 7).cycles == _build("poll_cached", 7).cycles


@pytest.mark.parametrize("seed", [7, 8])
def test_method_counts_match_the_stated_shares(seed):
    for parity in (0, 1):
        assert _build("poll_uncached", seed).method_counts(parity) == wl.POLL_MIX
        assert _build("wire_pipelined", seed).method_counts(parity) == wl.WIRE_MIX
        assert _build("steer_mixed", seed).method_counts(parity) == {
            method: n * wl.STEER_GROUPS for method, n in wl.STEER_GROUP.items()
        }
    assert sum(wl.POLL_MIX.values()) == wl.K
    assert sum(wl.WIRE_MIX.values()) == wl.K * wl.BATCH
    assert sum(wl.STEER_GROUP.values()) * wl.STEER_GROUPS == wl.K


def test_steering_cycle_is_state_periodic():
    workload = _build("steer_mixed", 7)
    even = [op[0] for op in workload.cycles[0]]
    odd = [op[0] for op in workload.cycles[1]]
    sites = set(wl.SITES)
    for (method, a), (method_odd, b) in zip(even, odd):
        assert method == method_odd
        if method == "steering.move":
            assert a[0] == b[0] and {a[1], b[1]} == sites
        elif method == "steering.set_priority":
            assert a[0] == b[0] and a[1] == (b[1] + 1) % wl.PRIORITY_BANDS
        else:
            assert a == b
    # Every pause has its resume two operations later, nothing left hanging.
    for i, (method, params) in enumerate(even):
        if method == "steering.pause":
            assert even[i + 2] == ("steering.resume", params)
    movers = [p[0] for m, p in even if m == "steering.move"]
    bumped = [p[0] for m, p in even if m == "steering.set_priority"]
    assert len(set(movers)) == len(movers) and not set(movers) & set(bumped)


def test_wire_batches_are_full_and_scans_fall_freely():
    workload = _build("wire_pipelined", 7)
    assert len(workload.cycles[0]) == wl.K
    assert all(len(op) == wl.BATCH for op in workload.cycles[0])
    scans = [sum(m == "jobmon.running_tasks" for m, _ in op) for op in workload.cycles[0]]
    assert sum(scans) == wl.WIRE_MIX["jobmon.running_tasks"]
    assert scans != [
        sum(m == "jobmon.running_tasks" for m, _ in op)
        for op in _build("wire_pipelined", 8).cycles[0]
    ]


def test_poll_mix_keeps_the_stated_shares():
    share = {method: n / wl.K for method, n in wl.POLL_MIX.items()}
    assert share["jobmon.job_status"] == 0.45 and share["jobmon.progress"] == 0.15
    assert share["jobmon.queue_position"] == share["jobmon.job_info"] == 0.10
    assert share["monalisa.grid_weather"] + share["monalisa.site_load"] == 0.10
    assert share["estimator.history_size"] == 0.04 and share["system.multicall"] == 0.03
    assert share["steering.set_priority"] == 0.005
    assert wl.HOT_TASKS == 64


def test_a_position_keeps_its_second_smallest_sample():
    assert estimate.second_smallest([0.003, 0.001, 0.002, 0.009]) == 0.002
    assert estimate.second_smallest([0.004]) == 0.004
    samples = [[0.003, 0.001, 0.002], [0.004, 0.004, 0.050]]
    metrics = estimate.filtered_metrics(samples, 1)
    assert metrics["calls_per_s"] == pytest.approx(2 / 0.006)
    assert metrics["p50_ms"] == pytest.approx(3.0)


def test_an_injected_outlier_does_not_move_the_filtered_metrics():
    clean = [[0.001 * (1 + i % 7)] * 10 for i in range(400)]
    dirty = [list(samples) for samples in clean]
    for i in range(0, 400, 3):
        dirty[i][i % 10] *= 10.0  # one 10x stall in every third position
    assert estimate.filtered_metrics(dirty, 1) == estimate.filtered_metrics(clean, 1)
    raw_clean = estimate.raw_metrics(clean, 1)
    raw_dirty = estimate.raw_metrics(dirty, 1)
    assert raw_dirty["raw.calls_per_s"] < raw_clean["raw.calls_per_s"] * 0.8


def test_a_setup_unit_counts_its_minimum_over_the_builds():
    builds = [{"a": 1.0, "b": 5.0}, {"a": 2.0, "b": 3.0}]
    assert estimate.unit_minima(builds) == {"a": 1.0, "b": 3.0}


class _FakeTransport:
    def __init__(self):
        self.sent = []

    def call_pipelined(self, op, token="", window=1):
        self.sent.append(op)
        return [(True, {"ok": True})] * len(op)


def _tiny_workload():
    even = [(("jobmon.job_status", ["t"]),), (("steering.set_priority", ["t", 1]),)]
    odd = [(("jobmon.job_status", ["t"]),), (("steering.set_priority", ["t", 0]),)]
    return wl.Workload("tiny", (even, odd), 1)


def test_drive_leaves_out_the_warm_up_and_alternates_parities():
    transport = _FakeTransport()
    ended = []
    samples, attempted, failed, _ = client.drive(
        transport, "tok", _tiny_workload(), None, 3, ended.append
    )
    assert [len(s) for s in samples] == [3, 3] and ended == [0, 1, 2, 3]
    assert (attempted, failed) == (6, 0)
    priorities = [op[0][1][1] for op in transport.sent if op[0][0] == "steering.set_priority"]
    assert priorities == [1, 0, 1, 0]


def test_a_failed_steering_reply_is_a_failed_operation():
    op = (("steering.move", ["t", "siteB"]),)
    assert client.op_failed(op, [(True, {"ok": False, "detail": "no"})])
    assert client.op_failed(op, [(False, RuntimeError("fault"))])
    assert not client.op_failed(op, [(True, {"ok": True})])


def test_benchmark_json_names_what_the_runner_emits():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert declared["paths"] == ["benchmarks/e2e"]
    assert declared["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [w["name"] for w in declared["workloads"]] == list(wl.WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [why for why, _ in wl.WORKLOADS.values()]
    assert [m["name"] for m in declared["end_to_end"]] == list(run.E2E_METRICS)
    # A timing that cannot hold ISSUE 13's bound is not gated at a wider one.
    # ``setup_s`` has to be gated (the builder's contract) and cannot hold
    # 0.10 either (README, *What is gated*): it carries the contract's maximum.
    assert {m["name"]: m["bound"] for m in declared["end_to_end"]} == {
        "setup_s": 0.25, "peak_rss_mb": 0.05,
    }
    assert not set(run.TIMINGS) & set(run.E2E_METRICS)
    per_layer = {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]}
    assert per_layer == traced.PER_LAYER
    assert 1 <= declared["run_seconds"] <= 60


def test_ruff_is_clean():
    ruff = shutil.which("ruff")
    if ruff is None:
        pytest.skip("ruff is not installed here")
    subprocess.run([ruff, "check", "benchmarks"], cwd=ROOT, check=True)
