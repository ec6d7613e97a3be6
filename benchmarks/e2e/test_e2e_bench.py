"""Tests of the benchmark itself. Run with ``python -m pytest benchmarks/e2e``
from the repo root (tier-1's ``testpaths = ["tests"]`` does not collect it).
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import driver  # noqa: E402
import phases  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from reference import build_script, golden_key, load_golden  # noqa: E402
from workloads import WORKLOADS, Op, build_world, digest_requests  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def smoke_script(name: str, seed: int = run.DEFAULT_SEED):
    world = build_world(WORKLOADS[name].smoke(), seed)
    return world, build_script(world, run.SMOKE_ROUNDS)


# -- the contract ------------------------------------------------------------


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == list(phases.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]] + list(WORKLOADS)
    assert len(set(names)) == len(names)
    assert all(NAME.fullmatch(name) for name in names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert SPEC["paths"] == ["benchmarks/e2e"]
    for workload in SPEC["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why


# -- determinism and the reference ---------------------------------------------


def test_same_seed_same_request_bytes():
    _, first = smoke_script("sharded_bulk", seed=7)
    _, again = smoke_script("sharded_bulk", seed=7)
    _, other = smoke_script("sharded_bulk", seed=8)
    assert digest_requests(first.all_ops()) == digest_requests(again.all_ops())
    assert first.digests() == again.digests()
    assert digest_requests(first.all_ops()) != digest_requests(other.all_ops())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_default_seed_matches_golden(name):
    _, script = smoke_script(name)
    assert load_golden()[golden_key(name, run.SMOKE_ROUNDS, True)] == script.digests()


def test_spill_bounded_shares_scan_dense_world_and_stream():
    dense = build_world(WORKLOADS["scan_dense"], 3)
    spill = build_world(WORKLOADS["spill_bounded"], 3)
    assert (dense.nodes, dense.edges, dense.subscriptions) == (
        spill.nodes,
        spill.edges,
        spill.subscriptions,
    )
    assert dense.records(400) == spill.records(400)


def test_world_shapes_do_not_depend_on_the_seed():
    for seed in (1, 2):
        world = build_world(WORKLOADS["fanout_wide"], seed)
        followers: dict[int, int] = {}
        for follows in world.subscriptions.values():
            assert len(set(follows)) == len(follows)
            for author in follows:
                followers[author] = followers.get(author, 0) + 1
        assert set(followers.values()) == {400}


# -- the estimators ------------------------------------------------------------


def synthetic_rounds(count: int, seconds: float, slowdown: float = 1.0) -> list[dict]:
    calib = driver.REFERENCE_OP_S * slowdown
    rounds = [
        {
            "elapsed": seconds * slowdown,
            "latencies": [seconds * slowdown / 10] * 10,
            "kinds": ["read"] * 10,
            "after": index + 1,
        }
        for index in range(count)
    ]
    driver.scale_rounds(rounds, [calib] * (count + 1), driver.RoundTimer.WINDOW)
    return rounds


def test_median_of_rounds_is_unmoved_by_one_10x_round():
    clean = synthetic_rounds(24, 0.2)
    hit = synthetic_rounds(24, 0.2)
    hit[5]["elapsed"] *= 10
    hit[5]["latencies"] = [lat * 10 for lat in hit[5]["latencies"]]
    assert driver.median_round_seconds(hit) == driver.median_round_seconds(clean)
    assert driver.median_round_p50(hit) == driver.median_round_p50(clean)
    mean = sum(r["elapsed"] for r in hit) / len(hit)
    assert mean > 1.3 * driver.median_round_seconds(hit)  # what a mean would have said


def test_calibration_scaling_cancels_a_slow_machine():
    fast = synthetic_rounds(24, 0.2)
    slow = synthetic_rounds(24, 0.2, slowdown=1.4)
    assert driver.median_round_seconds(slow) == pytest.approx(driver.median_round_seconds(fast))
    assert driver.median_round_p50(slow) == pytest.approx(driver.median_round_p50(fast))


# -- failed ops ----------------------------------------------------------------


def reply(status: int, body: dict) -> bytes:
    return f"HTTP/1.0 {status} X\r\nContent-Type: application/json\r\n\r\n".encode() + json.dumps(
        body
    ).encode()


def test_wrong_receivers_non_200_and_timeouts_are_failed_ops():
    expect = {"accepted": 1, "post_id": 1, "receivers": [1, 2], "deliveries": 2, "deduplicated": False}
    op = Op("single", b"", expect, posts=1)
    replies = [
        reply(200, expect),
        reply(200, {**expect, "receivers": [1, 3]}),
        reply(500, expect),
        b"",  # socket error or 10 s timeout
    ]
    assert driver.failed_ops([op] * 4, replies) == 3


# -- against a real server -------------------------------------------------------


@pytest.fixture
def run_dir(tmp_path):
    yield tmp_path
    shutil.rmtree(tmp_path, ignore_errors=True)


@pytest.fixture
def calibrator():
    reference = driver.Calibrator()
    yield reference
    reference.close()


def test_process_tree_accounting_sees_the_shard_workers(run_dir, calibrator):
    world, script = smoke_script("sharded_bulk")
    phases.write_world(world, run_dir)
    result = phases.run_normal(world, script, run_dir, calibrator, repeats=False)
    assert result["failures"] == [] and result["failed"] == 0
    extras = result["extras"]
    assert extras["tree_processes"] >= 3
    # A parent-only reading under-counts: the shards burn CPU too.
    assert extras["tree_cpu_s"] > extras["parent_cpu_s"]


def test_probe_rung_guard_trips_on_a_too_small_budget(run_dir, calibrator):
    starved = replace(WORKLOADS["spill_bounded"].smoke(), memory_budget=150_000)
    world = build_world(starved, run.DEFAULT_SEED)
    script = build_script(world, run.SMOKE_ROUNDS)
    phases.write_world(world, run_dir)
    result = phases.run_normal(world, script, run_dir, calibrator, repeats=False)
    assert any("probe guard" in failure for failure in result["failures"])
    assert result["failed"] >= 1


def test_smoke_cli_runs_all_four_workloads():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )  # fmt: skip
    assert proc.returncode == 0, proc.stdout + proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert [r["workload"] for r in results] == list(WORKLOADS)
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {name for name, _ in phases.END_TO_END}
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    """In a directory holding only BENCHMARK.json and the benchmark, there
    is nothing to measure: exit non-zero and print no result."""
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "fanout_wide", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )  # fmt: skip
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
