"""qmarkov benchmark: seeded CLI workloads run in-process in a closed loop.

    python3 perfbench/run.py --workload chains --seed 1 --seconds 15 --trace 0

One client sends one job at a time: a job is one ``qmarkov.cli.run(argv)``
call with stdout going to a file, and every job's output is checked by an
oracle from ``oracles.py``.  Each pass writes fresh inputs at fixed sizes;
passes repeat until ``--seconds`` of job time is measured.  qmarkov runs on
one thread and has no queues, so nothing waits and there is no waiting-time
metric.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` replays every
pass with and without the span tracer (``tracer.py``) and reports per-layer
metrics.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are the human
report.  ``--size smoke`` runs tiny inputs (see ``test_perfbench.py``).
"""

from __future__ import annotations

import os

# BLAS is pinned to one thread before numpy loads; the chains workload adds
# one information-only pass at nproc threads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import tracemalloc  # noqa: E402
import traceback  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO = HERE.parent
SRC = REPO / "src"
OUT_DIR = REPO / ".perfbench"

# setup_s starts one interpreter per second of timed scaled CPU time,
# between the passes, and tops up to at least this many.
SETUP_INTERPRETERS = {"full": 15, "smoke": 2}

# Timed passes stop after --seconds of scaled job CPU time (see
# reference.py), so that a run does the same work whatever the host's
# speed, or after WALL_CAP times --seconds of wall time on a slow host.
WALL_CAP = 3

# A traced job's wall time exceeds the sum of its spans' self times by the
# tracer's own call and bookkeeping: about 10 us per job, at most 40 us over
# a words run on a 2-core Xeon VM.  A job over this tolerance has time no
# span accounts for.  The run fails when more than 1 + 1% of its traced jobs
# are over it, so that one scheduler preemption in that short window does not.
UNACCOUNTED_TOLERANCE_S = 2e-3


@dataclass
class Record:
    job_id: int
    kind: str
    seconds: float
    cpu_s: float
    scaled_s: float
    bytes_out: int
    error: str | None
    peak_mb: float = 0.0


class Terminated(BaseException):
    """SIGTERM arrived; unwinds past the per-job handlers so cleanup still runs."""


def _terminate(signum, frame):
    raise Terminated


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def measure_setup(count: int) -> list[float]:
    """Scaled CPU seconds a fresh interpreter spends until ``import qmarkov.cli`` returns.

    The child prints its own CPU time once the import is done, so neither
    interpreter teardown nor time the host gives other guests is counted,
    and then times the reference kernel, which scales that CPU time.
    """
    import reference

    path = [str(SRC), str(HERE), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
    code = ("import time, qmarkov.cli; cpu = time.process_time(); import reference; reference.run(); "
            "print(cpu, reference.run(), reference.run())")
    times = []
    for _ in range(count):
        cpu, *ref = map(float, subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=60,
                                              capture_output=True, text=True).stdout.split())
        times.append(cpu / reference.slowdown(ref))
    return times


class Runner:
    """Runs jobs one at a time and judges each output with its oracle."""

    def __init__(self, workdir: Path):
        from qmarkov import cli

        self.cli = cli
        self.workdir = workdir
        self.records: list[Record] = []
        self.next_id = 0

    def run(self, job, tracer=None, track_memory: bool = False, scale: bool = False) -> Record:
        """Run one job; ``scale`` times the reference kernel before and after it."""
        import reference

        job_id = self.next_id
        self.next_id += 1
        before = reference.run() if scale else 0.0
        out_path = self.workdir / "stdout.txt"
        err_path = self.workdir / "stderr.txt"
        gc.collect()
        with open(out_path, "w") as out, open(err_path, "w") as err, redirect_stdout(out), redirect_stderr(err):
            if track_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            start, cpu_start = time.perf_counter(), time.process_time()
            try:
                code = tracer.run_job(job_id, self.cli.run, job.argv) if tracer else self.cli.run(job.argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:
                code = "uncaught exception"
                traceback.print_exc()
            seconds = time.perf_counter() - start
            cpu_s = time.process_time() - cpu_start
            peak = (tracemalloc.get_traced_memory()[1] - base) / 2**20 if track_memory else 0.0
        scaled_s = cpu_s / reference.slowdown([before, reference.run()]) if scale else cpu_s
        text = out_path.read_text()
        error = None
        if code != job.exit_code:
            error = f"exit code {code!r}, expected {job.exit_code}: {err_path.read_text()[-400:]}"
        else:
            try:
                job.check(text)
            except Exception as exc:  # any oracle failure, parse errors included
                error = f"{type(exc).__name__}: {exc}"
        record = Record(job_id, job.kind, seconds, cpu_s, scaled_s, out_path.stat().st_size, error, peak)
        self.records.append(record)
        return record


def harrell_davis_median(values: list[float]) -> float:
    """Harrell-Davis estimate of the median: a mean of all order statistics.

    The i-th smallest of n values weighs the Beta((n+1)/2, (n+1)/2)
    probability of ((i-1)/n, i/n).  The weights fall off smoothly from the
    middle rank, so the estimate does not jump from one value to the next as
    the plain median does.  The integral uses 64 midpoints per rank.
    """
    ordered = sorted(values)
    n = len(ordered)
    t = (np.arange(64 * n) + 0.5) / (64 * n)
    density = np.exp((n - 1) / 2 * np.log(4 * t * (1 - t)))
    weights = density.reshape(n, 64).sum(axis=1)
    return float(weights @ ordered / weights.sum())


def percentile(values: list[float], pct: float) -> tuple[float, int]:
    """Nearest-rank percentile and the number of values beyond it."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def end_to_end(args, workloads, runner: Runner, workdir: Path, report, units: dict) -> dict:
    import envinfo

    # The memory pass runs first, untimed, and also warms up the process.
    jobs = workloads.build_pass(args.workload, args.seed, 0, workdir / "inputs", args.size)
    tracemalloc.start()
    try:
        memory = [runner.run(job, track_memory=True) for job in jobs]
    finally:
        tracemalloc.stop()
    shutil.rmtree(workdir / "inputs")

    timed: list[Record] = []
    setup: list[float] = []
    scaled_s = 0.0
    pass_index = 1
    started = time.perf_counter()
    while not timed or (scaled_s < args.seconds and time.perf_counter() - started < WALL_CAP * args.seconds):
        while len(setup) <= scaled_s:
            setup += measure_setup(1)
        jobs = workloads.build_pass(args.workload, args.seed, pass_index, workdir / "inputs", args.size)
        records = [runner.run(job, scale=True) for job in jobs]
        timed += records
        scaled_s += sum(r.scaled_s for r in records)
        shutil.rmtree(workdir / "inputs")
        pass_index += 1
    setup += measure_setup(max(0, SETUP_INTERPRETERS[args.size] - len(setup)))
    report(f"setup_s samples {[round(s, 4) for s in setup]}")
    passes = pass_index - 1

    if args.workload == "chains":
        nproc = os.cpu_count() or 1
        if envinfo.set_blas_threads(nproc):
            jobs = workloads.build_pass(args.workload, args.seed, pass_index, workdir / "inputs", args.size,
                                        cesaro_only=True)
            start = time.perf_counter()
            threaded = [runner.run(job) for job in jobs]
            seconds = time.perf_counter() - start
            envinfo.set_blas_threads(1)
            shutil.rmtree(workdir / "inputs")
            report(
                f"info Cesaro jobs_per_s at {nproc} BLAS threads = {len(threaded) / seconds:.6g} 1/s wall clock "
                f"(n={len(threaded)} jobs, one pass, not gated)"
            )
        else:
            report("info BLAS thread count cannot be changed at run time; nproc pass skipped")

    jobs_path = OUT_DIR / f"jobs-{args.workload}-seed{args.seed}.jsonl"
    with open(jobs_path, "w") as fh:
        for r in timed:
            fh.write(json.dumps({"job": r.job_id, "kind": r.kind, "seconds": r.seconds, "cpu_s": r.cpu_s,
                                 "scaled_s": r.scaled_s,                                  "bytes_out": r.bytes_out}) + "\n")
    report(f"job times written to {jobs_path.relative_to(REPO)}")

    # Every time below is scaled CPU time (see reference.py).  A job kind's
    # time is its median over the passes; the tail is the slowest kind's.
    by_kind: dict[str, list[Record]] = {}
    for r in timed:
        by_kind.setdefault(r.kind, []).append(r)
    kinds = sorted((statistics.median(r.scaled_s for r in rs), kind) for kind, rs in by_kind.items())
    tail = kinds[-1]
    peak = max(memory, key=lambda r: r.peak_mb)
    each = f"median of n={passes} passes"
    metrics = {
        "jobs_per_scaled_s": (len(kinds) / sum(t for t, _ in kinds), f"{len(kinds)} job kinds, each the {each}"),
        "job_scaled_s_p50": (harrell_davis_median([r.scaled_s for r in timed]),
                             f"Harrell-Davis median of n={len(timed)} executions of {len(kinds)} job kinds"),
        "job_scaled_s_tail": (tail[0], f"slowest of {len(kinds)} job kinds: {tail[1]}, {each}"),
        "peak_mem_mb": (peak.peak_mb, f"n={len(memory)} jobs in one tracemalloc pass, largest: {peak.kind}"),
        "setup_s": (statistics.median(setup), f"median scaled CPU time of n={len(setup)} interpreters"),
    }
    for name, (value, note) in metrics.items():
        report(f"metric {name} = {value:.6g} {units[name]} ({note})")
    for clock, name in (("scaled_s", "scaled CPU time"), ("cpu_s", "CPU time"), ("seconds", "wall clock")):
        times = [getattr(r, clock) for r in timed]
        raw_tail, raw_beyond = percentile(times, 90)
        report(f"info every execution by {name}: {len(times) / sum(times):.6g} jobs/s over {sum(times):.3f} s, "
               f"p50 {statistics.median(times):.6g} s, p90 {raw_tail:.6g} s ({raw_beyond} beyond), n={len(times)}")
    for scaled, kind in kinds:
        rs = by_kind[kind]
        report(f"info job {kind}: scaled median {scaled:.6g} s, min {min(r.scaled_s for r in rs):.6g} s, "
               f"max {max(r.scaled_s for r in rs):.6g} s; wall min {min(r.seconds for r in rs):.6g} s, "
               f"max {max(r.seconds for r in rs):.6g} s (n={len(rs)})")
    return {name: value for name, (value, _) in metrics.items()}


def per_layer(args, workloads, runner: Runner, workdir: Path, report, units: dict) -> dict:
    from tracer import Tracer

    tracer = Tracer()
    per_pass: list[dict[str, float]] = []
    job_s = {False: 0.0, True: 0.0}
    unaccounted: list[float] = []
    pass_index = 1
    started = time.perf_counter()
    # an even number of passes, alternating which replay goes first, so
    # neither side always meets freshly written inputs
    while time.perf_counter() - started < args.seconds or pass_index % 2 == 0 or not per_pass:
        jobs = workloads.build_pass(args.workload, args.seed, pass_index, workdir / "inputs", args.size)
        for traced in (False, True) if pass_index % 2 else (True, False):
            if traced:
                tracer.install()
            try:
                records = [runner.run(job, tracer if traced else None) for job in jobs]
            finally:
                tracer.uninstall()
            job_s[traced] += sum(r.seconds for r in records)
            if traced:
                ids = {r.job_id for r in records}
                totals = tracer.layer_totals(ids)
                totals["cli.bytes_out"] = sum(r.bytes_out for r in records)
                per_pass.append(totals)
                self_s = tracer.self_s_by_job(ids)
                unaccounted += [r.seconds - self_s[r.job_id] for r in records]
        shutil.rmtree(workdir / "inputs")
        pass_index += 1

    over = sum(1 for gap in unaccounted if gap > UNACCOUNTED_TOLERANCE_S)
    if min(unaccounted) < -1e-9 or over > 1 + len(unaccounted) // 100:
        raise RuntimeError(f"span self times do not account for the jobs' measured wall time: gaps "
                           f"{min(unaccounted):.3e} to {max(unaccounted):.3e} s, {over} jobs over "
                           f"{UNACCOUNTED_TOLERANCE_S} s")

    def median(key: str) -> float:
        return statistics.median(p.get(key, 0.0) for p in per_pass)

    metrics = {name: median(name) for name in units}
    metrics["cli.self_s"] = median("cli.busy_s")
    defined = [p["oom.prediction_matrix.defined"] / p["oom.prediction_matrix.rows"] for p in per_pass
               if p.get("oom.prediction_matrix.rows")]
    metrics["oom.prediction_matrix.defined_ratio"] = statistics.median(defined) if defined else 0.0
    metrics["trace.overhead_ratio"] = job_s[True] / job_s[False]

    spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
    tracer.dump(spans_path)
    report(f"spans written to {spans_path.relative_to(REPO)} ({len(tracer.spans)} spans, {len(per_pass)} passes)")
    report(f"info wall time outside all spans per traced job: median {statistics.median(unaccounted):.3e} s, "
           f"max {max(unaccounted):.3e} s, {over} over {UNACCOUNTED_TOLERANCE_S} s, "
           f"total {sum(unaccounted):.3e} of {job_s[True]:.3f} s (n={len(unaccounted)})")
    for name, unit in units.items():
        report(f"metric {name} = {metrics[name]:.6g} {unit} ({len(per_pass)} traced passes)")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("chains", "words"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the timed passes run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    started = time.perf_counter()

    if not (SRC / "qmarkov" / "cli.py").is_file():
        fail(f"qmarkov sources not found under {SRC}; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import envinfo
    import workloads

    def report(line: str) -> None:
        print(f"# {line}", flush=True)

    report(f"qmarkov benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} "
           f"trace={args.trace} size={args.size}")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    report(f"why: {why}")
    report(f"env {json.dumps(envinfo.record())}")
    report("closed loop, one client, one job at a time; no queues, so no waiting-time metric")

    signal.signal(signal.SIGTERM, _terminate)
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        runner = Runner(workdir)
        measure = per_layer if args.trace else end_to_end
        values = measure(args, workloads, runner, workdir, report, units)
    except Terminated:
        print("perfbench: terminated", file=sys.stderr)
        return 128 + signal.SIGTERM
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report(f"info run wall time {time.perf_counter() - started:.3f} s")
    for r in [r for r in runner.records if r.error][:10]:
        print(f"perfbench: job {r.job_id} ({r.kind}) failed: {r.error}", file=sys.stderr)
    result = summarize(runner.records, values, units)
    report(f"metric failed_ratio = {result['failed'] / result['attempted']:.6g} ratio "
           f"(n={result['attempted']} attempted jobs)")
    print(json.dumps(result))
    return 0


def summarize(records: list[Record], values: dict, units: dict) -> dict:
    """The result line: every attempted job counts, failed ones are those with an error."""
    failed = sum(1 for r in records if r.error)
    return {
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
