"""Every committed ``BENCH_<pr>.json`` at the repository root follows one schema, and every run in it passed.

A file records one change's benchmark runs: the harness's ``# env`` object,
the ``perfbench/run.py`` arguments, and for each run the tree it ran on
(``anchor``, ``parent`` or ``change``), its workload, seed and place in the
run order, and the harness's result line.  Each file runs a fixed anchor
tree in the same session, so files from different sessions compare by their
ratio to it.
"""

import json
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCH_FILES = sorted(ROOT.glob("BENCH_*.json"))
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {metric["name"]: metric["unit"] for metric in SPEC["end_to_end"]}
WORKLOADS = {workload["name"] for workload in SPEC["workloads"]}
COMMIT = re.compile(r"[0-9a-f]{7,40}")


@pytest.fixture(params=BENCH_FILES, ids=lambda path: path.name)
def bench(request):
    path = request.param
    bench = json.loads(path.read_text())
    assert isinstance(bench, dict) and set(bench) == {"pr", "parent", "anchor", "env", "command", "runs"}
    assert type(bench["pr"]) is int and path.name == f"BENCH_{bench['pr']}.json"
    return bench


def test_header(bench):
    assert COMMIT.fullmatch(bench["parent"]) and COMMIT.fullmatch(bench["anchor"])
    assert isinstance(bench["env"], dict) and bench["env"]
    command = bench["command"]
    assert isinstance(command, list) and all(isinstance(arg, str) for arg in command)
    assert "perfbench/run.py" in command and "--seconds" in command and "--trace" in command


def test_runs(bench):
    runs = bench["runs"]
    assert isinstance(runs, list) and runs
    for run in runs:
        assert set(run) == {"tree", "workload", "seed", "order", "result"}
        assert run["tree"] in ("anchor", "parent", "change")
        assert run["workload"] in WORKLOADS
        assert type(run["seed"]) is int and type(run["order"]) is int
    orders = [run["order"] for run in runs]
    assert len(set(orders)) == len(orders)


def test_results_passed_with_the_declared_metrics(bench):
    for run in bench["runs"]:
        result = run["result"]
        assert result["correct"] is True and result["failed"] == 0
        assert type(result["attempted"]) is int and result["attempted"] > 0
        metrics = result["metrics"]
        assert {name: metric["unit"] for name, metric in metrics.items()} == UNITS
        assert all(isinstance(metric["value"], (int, float)) for metric in metrics.values())


def test_anchor_and_change_run_each_workload_on_seeds_one_and_two(bench):
    seen = {(run["tree"], run["workload"], run["seed"]) for run in bench["runs"]}
    for tree in ("anchor", "change"):
        for workload in WORKLOADS:
            for seed in (1, 2):
                assert (tree, workload, seed) in seen
