"""Self-test of the benchmark harness: python3 -m pytest bench -q"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import run
import tracing
from d2dlan import scenarios
from d2dlan.scenarios import SessionConfig, generate_topology

ROOT = Path(__file__).resolve().parent.parent
TINY_MC = harness.Workload("tiny_mc", (3, 4, 5), ("mcrcd",), runs=2,
                           ref_cycles=1)
TINY_CLI = harness.Workload("tiny_cli", (3, 4), harness.ALL_SCENARIOS,
                            runs=2, ref_cycles=1, via_cli=True)


def _measure(workload, tmp_path, seed=3):
    messages = []
    report = harness.measure(workload, seed, 0.0, tmp_path, messages.append)
    return report, messages


def test_raising_runner_fails_its_block_only(tmp_path, monkeypatch):
    real = scenarios.SCENARIO_RUNNERS["mcrcd"]

    def flaky(topology, config):
        if topology.mu_count == 4:
            raise RuntimeError("injected")
        return real(topology, config)

    monkeypatch.setitem(scenarios.SCENARIO_RUNNERS, "mcrcd", flaky)
    report, messages = _measure(TINY_MC, tmp_path)
    assert report["attempted"] == 6
    assert report["failed"] == 2
    assert report["violations"] == []
    assert len(messages) == 1
    assert "workload=tiny_mc K=4 master_seed=3000000" in messages[0]
    assert "injected" in messages[0]


def test_corrupted_result_trips_the_check(tmp_path, monkeypatch):
    real = scenarios.SCENARIO_RUNNERS["mcrcd"]

    def corrupt(topology, config):
        res = real(topology, config)
        return replace(res, per_mu_throughput=(math.nan,) * topology.mu_count)

    monkeypatch.setitem(scenarios.SCENARIO_RUNNERS, "mcrcd", corrupt)
    report, _ = _measure(TINY_MC, tmp_path)
    assert report["failed"] == 0
    assert len(report["violations"]) == 6
    assert "finite" in report["violations"][0]


def test_check_run_rules():
    config = SessionConfig(mu_count=4, runs=2, master_seed=1)
    topology = generate_topology(config, 0)
    results = {name: scenarios.SCENARIO_RUNNERS[name](topology, config)
               for name in harness.ALL_SCENARIOS}
    assert results["mcrcd"].feasible_fraction > 0.0
    assert harness.check_run(4, results) == []
    base = results["multicast"]
    cases = {
        "feasible_fraction": replace(results["mcrcd"], feasible_fraction=1.5),
        "efficiency below": replace(
            results["mcrcd"],
            per_mu_efficiency=tuple(0.5 * e for e in base.per_mu_efficiency)),
        "mcrcd total energy": replace(
            results["mcrcd"],
            per_mu_energy=tuple(2 * e for e in base.per_mu_energy)),
        "4 finite": replace(results["mcrcd"], per_mu_cev=(0.5,)),
    }
    for needle, bad in cases.items():
        problems = harness.check_run(4, {**results, "mcrcd": bad})
        assert any(needle in p for p in problems), (needle, problems)
    heavy_plan = replace(results["optimal"], per_mu_energy=tuple(
        2 * e for e in base.per_mu_energy))
    problems = harness.check_run(4, {"multicast": base, "optimal": heavy_plan})
    assert problems == ["optimal total energy above multicast"]


def test_csv_rounding_is_not_a_violation():
    # 9808876.832345003 and 9808876.832345 round to different 12-digit
    # strings; equal efficiencies must not read as mcrcd below multicast
    config = SessionConfig(mu_count=4, runs=2, master_seed=1)
    topology = generate_topology(config, 0)
    results = {name: scenarios.SCENARIO_RUNNERS[name](topology, config)
               for name in harness.ALL_SCENARIOS}

    def read_back(eff):
        return (float(f"{eff:.12g}"),) * 4

    csv_like = {**results,
                "multicast": replace(results["multicast"],
                                     per_mu_efficiency=read_back(
                                         9808876.832345003)),
                "mcrcd": replace(results["mcrcd"],
                                 per_mu_efficiency=read_back(9808876.832345))}
    assert harness.check_run(4, csv_like) != []
    assert harness.check_run(4, csv_like, harness.CSV_REL_ERR) == []
    dropped = {**csv_like, "mcrcd": replace(
        results["mcrcd"], per_mu_efficiency=read_back(9808876.82))}
    assert harness.check_run(4, dropped, harness.CSV_REL_ERR) != []


def test_cli_workload_reads_back_and_checks_csv(tmp_path):
    report, messages = _measure(TINY_CLI, tmp_path)
    assert messages == []
    assert report["attempted"] == 4
    assert report["violations"] == []
    detail, summary = harness.read_csvs(tmp_path)   # the last block, K = 4
    runs, rows = harness.block_runs(TINY_CLI, (detail, summary))
    assert [k for k, _, _ in runs] == [4, 4]
    assert len(rows) == len(summary.splitlines()) - 1
    header, first, *rest = detail.splitlines()
    bad = "\n".join([header, first.rsplit(",", 1)[0] + ",1.5", *rest])
    runs, _ = harness.block_runs(TINY_CLI, (bad, summary))
    assert any(harness.check_run(k, res) for k, _, res in runs)


def test_screened_blocks_hold_one_topology_without_star():
    seed = harness.screened_seed(6, 7, 3)
    config = SessionConfig(mu_count=6, runs=3, master_seed=seed)
    stars = [harness.has_full_star(generate_topology(config, i))
             for i in range(3)]
    assert stars.count(False) == 1


def test_traced_run_matches_untraced_and_restores(tmp_path):
    original = scenarios.estimate_graph
    report = harness.traced(TINY_MC, 3, tmp_path, print)
    assert scenarios.estimate_graph is original
    assert scenarios.SCENARIO_RUNNERS["mcrcd"] is scenarios.run_mcrcd
    assert report["violations"] == []
    assert report["digest"] == _measure(TINY_MC, tmp_path)[0]["digest"]
    metrics = {k: v["value"] for k, v in report["per_layer"].items()}
    assert list(metrics) == [name for name, _ in tracing.PER_LAYER_METRICS]
    assert metrics["scenarios.run_optimal.exact_calls"] == 0
    assert metrics["mechanism.solve_schedule.calls"] == 6 * 10
    assert metrics["lp.solve.calls"] >= metrics["mechanism.solve_schedule.calls"]
    assert 0.9 < metrics["trace.coverage_frac"] <= 1.0
    assert (ROOT / report["spans_file"]).is_file()


def test_self_time_subtracts_children():
    spans = [["a", 0, 100, -1, None, None], ["b", 10, 40, 0, "0:0", None],
             ["c", 20, 30, 1, "0:0", "x"], ["b", 50, 60, 0, "0:1", None]]
    table = tracing.layer_table(spans)
    assert (table["a"].calls, table["a"].self_ns) == (1, 60)
    assert (table["b"].calls, table["b"].self_ns) == (2, 30)
    assert table["c"].tags["x"] == 1


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert list(run.WORKLOADS) == list(harness.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(tracing.PER_LAYER_METRICS)
    assert [m["name"] for m in spec["end_to_end"]] == \
        ["runs_per_s", "setup_s", "peak_rss_mb"]


def test_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mcrcd_small",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(autouse=True)
def _no_threads(monkeypatch):
    monkeypatch.delenv("MCRCD_THREADS", raising=False)
