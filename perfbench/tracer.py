"""Span tracer that wraps qmarkov's public functions from outside the program.

``Tracer.install()`` replaces each traced function at every name a qmarkov
module looks it up under (``qmarkov.cli.cesaro_average``,
``qmarkov.walk.cesaro_average``, ``qmarkov.io.from_kraus``, ...), so calls
made inside the program are seen as well as the CLI's own.  Each call records
a span (name, start, end, parent span, job id) plus the work counts its
meter derives from the arguments and result.  Spans stay in memory until the
run writes them out.  A layer's self time is its span duration minus the
time its child spans cover; the job's root span is the ``cli`` layer.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field


def _bytes_in(args, kwargs, result, exc) -> dict:
    return {"bytes_in": os.path.getsize(args[0])}


def _kraus_n4(args, kwargs, result, exc) -> dict:
    n2 = result.shape[0] if exc is None else 0  # the superoperator is n^2 x n^2
    return {"n4_sum": n2 * n2}


def _cesaro(args, kwargs, result, exc) -> dict:
    """Doublings done and the flops of their two n^2 x n^2 products each."""
    n2 = args[0].operator.n ** 2
    if exc is None:
        doublings = int(math.log2(result.iterations)) if result.iterations else 0
    else:
        # "... after {t} steps" or "... (t = {t}); ..." names the horizon reached
        found = re.search(r"after (\d+) steps|\(t = (\d+)\)", str(exc))
        if found and found.group(1):
            doublings = int(math.log2(int(found.group(1))))
        elif found:
            doublings = int(math.log2(int(found.group(2)))) + 1
        else:
            raise RuntimeError(f"cannot read the horizon reached from ConvergenceError: {exc}")
    return {"doublings": doublings, "flops_computed": doublings * 4 * n2**3, "errors": int(exc is not None)}


def _steps(args, kwargs, result, exc) -> dict:
    return {"steps": kwargs.get("steps", args[-1])}


def _words(args, kwargs, result, exc) -> dict:
    return {"words": 0 if exc else len(result)}


def _entropy_words(args, kwargs, result, exc) -> dict:
    k = len(args[0].scale)
    return {"words": sum(k**t for t in range(1, kwargs.get("t_max", args[-1]) + 1))}


def _hankel(args, kwargs, result, exc) -> dict:
    if exc:
        return {}
    matrix = result[0]
    return {"hankel_cells": matrix.values.size, "defined": len(matrix.col_words), "rows": len(matrix.row_words)}


# (module, function) -> (layer name, meter).  Loaders share one layer, as do
# the dict serializers the CLI formats output with.
TRACED = {
    ("io", "load_channel"): ("io.load", _bytes_in),
    ("io", "load_density"): ("io.load", _bytes_in),
    ("io", "load_measurement"): ("io.load", _bytes_in),
    ("io", "load_graph"): ("io.load", _bytes_in),
    ("io", "load_oom"): ("io.load", _bytes_in),
    ("io", "load_state_table"): ("io.load", _bytes_in),
    ("io", "matrix_to_dict"): ("io.to_dict", None),
    ("io", "lift_to_dict"): ("io.to_dict", None),
    ("operators", "kraus_superop"): ("operators.kraus_superop", _kraus_n4),
    ("operators", "from_kraus"): ("operators.from_kraus", None),
    ("hermitian", "coords"): ("hermitian.coords", None),
    ("hermitian", "from_coords"): ("hermitian.from_coords", None),
    ("chain", "cesaro_average"): ("chain.cesaro_average", _cesaro),
    ("chain", "evolve"): ("chain.evolve", _steps),
    ("walk", "walk"): ("walk.walk", _steps),
    ("walk", "limiting_node_distribution"): ("walk.limiting_node_distribution", None),
    ("measurement", "word_distribution"): ("measurement.word_distribution", _words),
    ("measurement", "as_markov_measurement"): ("measurement.as_markov_measurement", None),
    ("oom", "entropy_rate"): ("oom.entropy_rate", _entropy_words),
    ("oom", "prediction_matrix"): ("oom.prediction_matrix", _hankel),
    ("oom", "word_probability"): ("oom.word_probability", None),
    ("oom", "lift_hidden_states"): ("oom.lift_hidden_states", None),
    ("hidden", "bell_check"): ("hidden.bell_check", None),
    ("hidden", "feynman_state"): ("hidden.feynman_state", None),
}

ROOT = "cli"


@dataclass
class Span:
    name: str
    job: int
    parent: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    child_s: float = 0.0

    @property
    def self_s(self) -> float:
        return self.end - self.start - self.child_s


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []
        self.job = -1

    # -- recording ---------------------------------------------------------

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, self.job, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, index: int) -> Span:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent is not None:
            self.spans[span.parent].child_s += span.end - span.start
        return span

    def run_job(self, job_id: int, fn, *args):
        """Call fn(*args) as the root span of one job."""
        self.job = job_id
        index = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(index)

    def _wrap(self, fn, name: str, meter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(name)
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as err:
                exc = err
                raise
            finally:
                span = self._close(index)
                if meter is not None:
                    span.counts = meter(args, kwargs, result, exc)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function under each qmarkov module attribute bound to it."""
        modules = [m for key, m in sys.modules.items() if key == "qmarkov" or key.startswith("qmarkov.")]
        wrappers = {}
        for (mod, attr), (name, meter) in TRACED.items():
            fn = getattr(sys.modules[f"qmarkov.{mod}"], attr)
            wrappers[id(fn)] = self._wrap(fn, name, meter)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and callable(value):
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)])

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patched):
            setattr(module, attr, value)
        self._patched.clear()

    # -- aggregation -------------------------------------------------------

    def layer_totals(self, jobs: set[int]) -> dict[str, float]:
        """Self seconds, call counts and summed work counts per layer for some jobs."""
        out: dict[str, float] = defaultdict(float)
        for span in self.spans:
            if span.job not in jobs:
                continue
            out[f"{span.name}.calls"] += 1
            out[f"{span.name}.busy_s"] += span.self_s
            for key, value in span.counts.items():
                out[f"{span.name}.{key}"] += value
        return out

    def self_s_by_job(self, jobs: set[int]) -> dict[int, float]:
        """Summed self seconds of each job's spans.

        They add up to the job's root span by construction; a job's measured
        wall time minus this sum is the time no span covers.
        """
        out: dict[int, float] = defaultdict(float)
        for span in self.spans:
            if span.job in jobs:
                out[span.job] += span.self_s
        return out

    def dump(self, path) -> None:
        """One JSON object per span; times in seconds from the first span's start."""
        origin = self.spans[0].start if self.spans else 0.0
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                record = {"id": i, "name": s.name, "job": s.job, "parent": s.parent,
                          "start_s": s.start - origin, "end_s": s.end - origin, "self_s": s.self_s, **s.counts}
                fh.write(json.dumps(record) + "\n")
