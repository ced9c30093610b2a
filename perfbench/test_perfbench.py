"""Small-size smoke runs of every benchmark workload.

Run with ``PYTHONPATH=src python -m pytest perfbench -q`` from the
repository root.
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench import bench, report
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: (commuters, --seconds) per workload: one live day on a small world, or
#: three bursts of the benchmark's own 150 listeners.  ``hot_reads`` keeps
#: the full crowd because the recommender's share of it grows in small
#: worlds: with 12 listeners seeds 4 and 5 read ~11%, with 150 seeds 1-7
#: read 7.6-8.7%.
SMOKE_SIZES = {"commute": (6, 2.0), "device_upload": (12, 2.0), "hot_reads": (150, 1.2)}


def _smoke_run(name, seed, tmp_path_factory):
    commuters, seconds = SMOKE_SIZES[name]
    return bench.run(
        name,
        seed=seed,
        seconds=seconds,
        trace=True,
        commuters=commuters,
        work_root=tmp_path_factory.mktemp("work"),
    )


@pytest.fixture(scope="module", params=sorted(WORKLOADS))
def traced(request, tmp_path_factory):
    return _smoke_run(request.param, 3, tmp_path_factory)


def _names_and_units(entries):
    return [(entry["name"], entry["unit"]) for entry in entries]


def test_spec_lists_the_workloads_and_metrics_the_code_reports():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert _names_and_units(SPEC["end_to_end"]) == [(n, u) for n, u, _fn in report.END_TO_END]
    assert _names_and_units(SPEC["per_layer"]) == [(n, u) for n, u, _fn in report.PER_LAYER]


def test_run_is_correct_without_throttling(traced):
    for check in traced.correctness:
        assert check.digest_match and check.fingerprint_match
        assert check.failed == 0
        assert check.rate_limited == 0
    assert traced.correct


def test_metrics_carry_their_names_and_units(traced):
    for trace, table in ((False, report.END_TO_END), (True, report.PER_LAYER)):
        metrics = report.metrics(traced, trace)
        assert list(metrics) == [name for name, _unit, _fn in table]
        for name, unit, _fn in table:
            value = metrics[name]["value"]
            assert metrics[name]["unit"] == unit
            assert isinstance(value, (int, float)) and value == value, name
    end_to_end = report.metrics(traced, False)
    assert all(end_to_end[name]["value"] > 0 for name in end_to_end)


def test_ledger_partitions_every_request(traced):
    ledger = traced.ledger
    assert ledger.requests == traced.traced.attempted
    assert ledger.ok, (ledger.ledger_violations, ledger.orphan_worker_spans, ledger.misparented_tasks)


def test_each_workload_stresses_its_layer(traced, tmp_path_factory):
    per_layer = {name: entry["value"] for name, entry in report.metrics(traced, True).items()}
    recommend_share = report.wire_share_pct(traced, "recommend")
    name = traced.workload.name
    if name == "commute":
        assert recommend_share > 50.0
        assert per_layer["pool.map_calls"] > 0
    elif name == "hot_reads":
        # One run's share moves by about a point, so take the median of three seeds.
        shares = [recommend_share] + [
            report.wire_share_pct(_smoke_run(name, seed, tmp_path_factory), "recommend")
            for seed in (4, 5)
        ]
        assert statistics.median(shares) < 10.0, shares
        assert per_layer["etag.hit_ratio"] > 0.5
    else:
        assert per_layer["recommend.calls"] == 0
        assert per_layer["pool.map_calls"] == 0
        assert per_layer["wal.appends"] > 0
        assert traced.ledger.calls["compaction.tick"] > 0
        assert traced.ledger_counters["compaction.fixes_removed"] > 0


def test_scripts_replay_whole_units(traced):
    """commute and device_upload replay whole live days, hot_reads whole bursts."""
    script = traced.script
    if traced.workload.name == "hot_reads":
        assert script.metadata["bursts"] >= 1
        return
    days = {int(event.t_s // 86400) for event in script}
    assert len(days) == script.metadata["live_days"] >= 1
    if traced.workload.name == "commute":
        phases = {event.tag("phase") for event in script if event.path == "/v1/feedback"}
        assert phases == {"mid", "arrival"}


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "commute", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode != 0
    assert '"correct"' not in completed.stdout


def _outcome(*results):
    return bench.RunOutcome(
        workload=WORKLOADS["device_upload"],
        seed=1,
        commuters=1,
        script=None,
        server_lines=[],
        results=list(results),
        correctness=[],
        setup_s=[1.0],
        peak_rss_mb=1.0,
    )


def test_split_cuts_into_non_empty_runs():
    assert bench._split(100, 4) == [0, 25, 50, 75, 100]
    assert bench._split(5, 20) == [0, 1, 2, 3, 4, 5]
    assert bench._split(0, 3) == []


def test_sustained_p50_is_held_in_nine_of_ten_windows():
    window = bench.LATENCY_WINDOW
    one_slow = bench.ReplayResult()
    one_slow.latencies_s["ingest"] = [0.003] * window + [0.001] * 19 * window
    three_slow = bench.ReplayResult()
    three_slow.latencies_s["ingest"] = [0.003] * 3 * window + [0.001] * 17 * window
    assert _outcome(one_slow).sustained_p50_ms("ingest") == pytest.approx(1.0)
    assert _outcome(three_slow).sustained_p50_ms("ingest") == pytest.approx(3.0)
    assert _outcome(one_slow).sustained_p50_ms("rec") is None


def test_sustained_rps_counts_each_class_at_its_sustained_mean_plus_ticks():
    window = bench.LATENCY_WINDOW
    result = bench.ReplayResult(attempted=21 * window, tick_s=1.0)
    result.latencies_s["ingest"] = [0.003] * window + [0.001] * 19 * window
    result.latencies_s["feedback"] = [0.002] * window
    busy_s = 1.0 + 20 * window * 0.001 + window * 0.002
    assert _outcome(result).sustained_rps == pytest.approx(21 * window / busy_s)
