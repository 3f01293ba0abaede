"""Tests of the benchmark itself (not collected by the repository's
tier-1 run).  Run with ``python -m pytest perfbench/tests -q``."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]

from gate import Gate, compare_replay  # noqa: E402
from inputs import replay_platform, write_lu_trace  # noqa: E402
from spans import Tracer, self_times  # noqa: E402
from workloads import (END_TO_END, PER_LAYER, WORKLOADS,  # noqa: E402
                       oracle_replay)

from repro.core.replay import TraceReplayer  # noqa: E402
from repro.simkernel import Platform  # noqa: E402
from repro.smpi import round_robin_deployment  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


# -- self-time arithmetic ----------------------------------------------------
def test_self_times_subtract_children_and_sum_to_root():
    spans = [
        (0, "replay", 0.0, 10.0, None),
        (1, "ingest.tic_load", 0.0, 1.0, 0),
        (2, "lmm.patch", 2.0, 5.0, 0),
        (3, "lmm.fill", 3.0, 4.0, 2),      # nested inside the patch
        (4, "lmm.fill", 6.0, 7.5, 0),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({"replay": 4.5, "ingest.tic_load": 1.0,
                                   "lmm.patch": 2.0, "lmm.fill": 2.5})
    assert sum(selfs.values()) == pytest.approx(10.0)


def test_self_times_count_overlapping_children_once():
    spans = [(0, "job", 0.0, 10.0, None),
             (1, "scenario", 1.0, 6.0, 0),
             (2, "scenario", 4.0, 8.0, 0)]
    assert self_times(spans)["job"] == pytest.approx(3.0)


def test_tracer_nests_spans_and_writes_them_once(tmp_path):
    tracer = Tracer("w")
    with tracer.span("outer") as outer:
        with tracer.span("inner") as inner:
            pass
    assert [s[4] for s in tracer.spans] == [outer, None]
    assert tracer.subtree(outer)[1][0] == inner
    path = tmp_path / "spans.jsonl"
    tracer.write(str(path), {"nproc": 1})
    lines = path.read_text().splitlines()
    assert json.loads(lines[0]) == {"fingerprint": {"nproc": 1}}
    assert json.loads(lines[2])["name"] == "outer"


# -- names -------------------------------------------------------------------
def test_benchmark_names_and_units_are_well_formed():
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"] + bench["per_layer"]
    assert sorted(names) == sorted(WORKLOADS)
    for name in names + [m["name"] for m in metrics]:
        assert NAME.fullmatch(name), name
    assert len({m["name"] for m in metrics}) == len(metrics)
    assert all(m["bound"] <= 0.25 for m in bench["end_to_end"])


def test_declared_metrics_match_the_manifest():
    bench = load_benchmark()
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == PER_LAYER


# -- correctness gate --------------------------------------------------------
def _perturbed_platform(n_ranks: int) -> Platform:
    platform = Platform()
    platform.add_cluster(
        "c", n_ranks, speed=1e9, link_bw=1.2e9, link_lat=1e-6,
        backbone_bw=1.25e10, backbone_lat=1e-6, backbone_sharing="fatpipe",
    )
    return platform


def test_golden_check_flags_a_replay_on_a_perturbed_platform():
    n_ranks = 16
    with tempfile.TemporaryDirectory() as trace_dir:
        n_actions = write_lu_trace(trace_dir, n_ranks, 1, 4, seed=3)
        golden = oracle_replay(trace_dir, n_ranks)
        golden = {"n_actions": n_actions,
                  "simulated_time": golden.simulated_time,
                  "per_rank_time": golden.per_rank_time}
        results = {}
        for label, platform in (("same", replay_platform(n_ranks)),
                                ("perturbed", _perturbed_platform(n_ranks))):
            result = TraceReplayer(
                platform, round_robin_deployment(platform, n_ranks),
            ).replay(trace_dir)
            results[label] = compare_replay(
                golden, result.simulated_time, result.per_rank_time,
                result.n_actions)
    assert results["same"] == []
    assert results["perturbed"]
    gate = Gate()
    gate.record("same", results["same"])
    gate.record("perturbed", results["perturbed"])
    assert (gate.attempted, gate.failed) == (2, 1)


# -- the command -------------------------------------------------------------
@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_mode_runs_every_workload(workload, trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), "--workload",
         workload, "--seed", "5", "--seconds", "0.2", "--trace", str(trace),
         "--smoke"],
        capture_output=True, text=True, cwd=ROOT, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    bench = load_benchmark()
    declared = {m["name"]: m["unit"]
                for m in bench["per_layer" if trace else "end_to_end"]}
    assert {name: metric["unit"] for name, metric
            in result["metrics"].items()} == declared
    if not trace:
        assert all(metric["value"] > 0
                   for metric in result["metrics"].values())


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout == ""
