"""Smoke tests of the benchmark itself, at tiny sizes.

Run from the root of the checkout::

    python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
from tracing import LAYER_METRICS, traced_run  # noqa: E402
from workloads import (  # noqa: E402
    DEFAULT_SEED, WORKLOADS, mismatched_points, recorded_digests, row_digest)

TINY_SIZES = {
    "star-islip-saturated": 2_000,      # bytes per flow
    "star-safc-bursty-sweep": 1_000,    # bytes per flow
    "link-ber-sweep": 2_000,            # slots per BER point
}


@pytest.fixture(params=list(WORKLOADS))
def tiny(request):
    return replace(WORKLOADS[request.param], size=TINY_SIZES[request.param])


def test_each_workload_runs_at_a_tiny_size(tiny):
    result = run.timed(tiny, DEFAULT_SEED, seconds=0)
    points = len(tiny.setup(DEFAULT_SEED).points)
    assert result["runs"] == 1
    assert (result["attempted"], result["failed"]) == (points, 0)
    assert not result["fingerprint_recorded"]
    assert all(value > 0 for value in result["metrics"].values())


def test_an_altered_row_trips_the_fingerprint_check(tmp_path):
    sweep = replace(WORKLOADS["star-safc-bursty-sweep"], size=1_000)
    setup = sweep.setup(DEFAULT_SEED)
    rows, _ = sweep.run(setup, tmp_path)
    recorded = [row_digest(row) for row in rows]
    rows[3]["p99"] = str(int(rows[3]["p99"]) + 1)
    assert mismatched_points([row_digest(row) for row in rows],
                             recorded) == {3}
    assert mismatched_points(recorded[:-1], recorded) == {len(recorded) - 1}


def test_a_recorded_mismatch_fails_every_timed_point(monkeypatch):
    point = replace(WORKLOADS["star-islip-saturated"], size=2_000)
    monkeypatch.setattr(run, "recorded_digests", lambda *_: ["0" * 64])
    result = run.timed(point, DEFAULT_SEED, seconds=0)
    assert result["failed"] == result["attempted"] == 1


def test_recorded_fingerprints_cover_every_workload():
    for workload in WORKLOADS.values():
        digests = recorded_digests(workload, DEFAULT_SEED)
        assert digests is not None, workload.name
        assert len(digests) == len(workload.setup(DEFAULT_SEED).points)
        assert recorded_digests(workload, DEFAULT_SEED + 1) is None


def test_traced_calls_fit_inside_the_traced_wall(tiny):
    from cellswitch.link import LinkEndpoint

    emit = LinkEndpoint.__dict__["emit"]
    result = traced_run(tiny.setup(DEFAULT_SEED), tiny.link, seconds=0)
    metrics = result["metrics"]
    assert set(metrics) == set(LAYER_METRICS)
    assert result["failed"] == 0
    assert 0 < metrics["trace.wrapped_s"] <= metrics["trace.wall_s"]
    assert (metrics["engine.self_s"] + metrics["trace.wrapped_s"]
            == pytest.approx(metrics["trace.wall_s"]))
    assert LinkEndpoint.__dict__["emit"] is emit


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
            == LAYER_METRICS)


def test_without_sources_it_fails_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "link-ber-sweep",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
