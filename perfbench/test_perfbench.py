"""Tests of the benchmark itself: python3 -m pytest perfbench"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (pins BLAS threads and locates src/)

sys.path.insert(0, str(run.SRC))

import workloads  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def bench(*argv: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *argv], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_runs_every_job_and_prints_every_metric(workload, trace):
    done = bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", trace, "--size", "smoke")
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1

    metrics = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in metrics)
    for m in metrics:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(f"# metric {m['name']} = ") and f" {m['unit']} (" in line for line in lines), m
    assert any(line.startswith("# metric failed_ratio = 0 ratio (n=") for line in lines)


class CorruptingCli:
    """Stands in for qmarkov.cli: runs the real command, then damages the victim command's output."""

    def __init__(self, cli, victim: list[str]):
        self.cli, self.victim = cli, victim

    def run(self, argv):
        buffer = StringIO()
        with redirect_stdout(buffer):
            code = self.cli.run(argv)
        text = buffer.getvalue()
        if argv[0] == self.victim[0] and self.victim[1:] == argv[-2:]:
            d = json.loads(text)
            d["distribution"][0]["probability"] += 1e-3
            text = json.dumps(d)
        sys.stdout.write(text)
        return code


def test_corrupted_output_counts_in_failed_ratio(tmp_path):
    jobs = workloads.build_pass("words", 7, 0, tmp_path / "inputs", "smoke")
    runner = run.Runner(tmp_path)
    runner.cli = CorruptingCli(runner.cli, victim=["measure", "--format", "json"])
    for job in jobs:
        runner.run(job)
    failed = [r for r in runner.records if r.error]
    assert [r.kind for r in failed] == ["measure/kraus-t2", "measure/markov-t2"]  # the two JSON outputs
    summary = run.summarize(runner.records, {}, {})
    assert summary["failed"] == 2 and summary["attempted"] == len(jobs) and summary["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = bench("--workload", "words", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert "correct" not in done.stdout


def test_inputs_and_oracles_do_not_import_qmarkov():
    code = "import sys; sys.path.insert(0, 'perfbench'); import workloads; print('qmarkov' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], cwd=REPO, capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "False"


def test_same_seed_gives_same_inputs(tmp_path):
    first = workloads.build_pass("chains", 3, 2, tmp_path / "a", "smoke")
    second = workloads.build_pass("chains", 3, 2, tmp_path / "b", "smoke")
    for a, b in zip(first, second):
        files_a = [Path(x) for x in a.argv if x.startswith(str(tmp_path))]
        files_b = [Path(x) for x in b.argv if x.startswith(str(tmp_path))]
        assert [f.read_bytes() for f in files_a] == [f.read_bytes() for f in files_b]


def test_time_outside_spans_fails_the_traced_run(tmp_path, monkeypatch):
    import tracer

    real = tracer.Tracer.run_job

    def late(self, job_id, fn, *args):
        time.sleep(2 * run.UNACCOUNTED_TOLERANCE_S)  # wall time that no span covers
        return real(self, job_id, fn, *args)

    monkeypatch.setattr(tracer.Tracer, "run_job", late)
    args = argparse.Namespace(workload="words", seed=1, seconds=0, size="smoke")
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    with pytest.raises(RuntimeError, match="do not account"):
        run.per_layer(args, workloads, run.Runner(tmp_path), tmp_path, lambda line: None, units)


def test_cesaro_meter_refuses_an_unreadable_error_message():
    import tracer

    chain = SimpleNamespace(operator=SimpleNamespace(n=4))
    with pytest.raises(RuntimeError, match="cannot read"):
        tracer._cesaro((chain,), {}, None, RuntimeError("did not converge"))


def test_harrell_davis_median():
    assert run.harrell_davis_median([2.5]) == pytest.approx(2.5)
    assert run.harrell_davis_median([1.0, 3.0]) == pytest.approx(2.0)
    assert run.harrell_davis_median([1.0, 2.0, 3.0, 10.0, 0.5]) == pytest.approx(2.3765, abs=1e-3)  # scipy.stats.beta weights
    assert run.harrell_davis_median([7.0] * 40) == pytest.approx(7.0)


def test_scaled_time_divides_by_the_reference_slowdown():
    import reference

    assert reference.slowdown([reference.NOMINAL_S, 3 * reference.NOMINAL_S]) == pytest.approx(2.0)
    assert reference.run() > 0
