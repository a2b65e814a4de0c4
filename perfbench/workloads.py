"""The two benchmark workloads as seeded lists of CLI jobs.

A job is one ``qmarkov.cli.run(argv)`` call.  ``build_pass`` writes fresh
input files for one pass of a workload (sizes fixed, content drawn from the
seed and the pass index) and returns the jobs with their oracles.  ``SIZES``
holds the measured sizes and the tiny ones the smoke mode uses.

``chains`` runs the Cesaro jobs (Kraus files, operator files, a unitary,
walk limits, a Jordan block) and the trajectory jobs (step-by-step
``chain-evolve`` and ``walk --steps`` from operator files, ``feynman``);
``words`` runs the word-enumeration jobs on small models.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import gen
import oracles as orc

WORKLOADS = ("chains", "words")

SIZES = {
    "full": {
        "chains": {
            "kraus_n": (8, 12, 16, 20),
            "operator_n": (16, 24),
            "unitary_n": 16,
            "walk_limit": ((6, 20, "csv"), (4, 12, "json")),
            "jordan_n": 8,
            "evolve": ((8, 2000, "csv"), (16, 200, "json")),
            "walk_steps": (8, 24, ((2000, "csv"), (300, "json"))),
        },
        "words": {
            "measure_n": 4,
            "measure_steps": ((6, "json"), (8, "csv"), (9, "csv")),
            "entropy": ((8, 3, 12), (6, 2, 18)),
            "rank": ((6, 2, 9), (8, 3, 5)),
            "lift": (8, 3),
            "prob": (8, 3, 100, 20),
            "table_states": 12,
        },
    },
    "smoke": {
        "chains": {
            "kraus_n": (2, 3),
            "operator_n": (3,),
            "unitary_n": 3,
            "walk_limit": ((3, 5, "csv"), (2, 4, "json")),
            "jordan_n": 3,
            "evolve": ((3, 6, "csv"), (2, 4, "json")),
            "walk_steps": (3, 5, ((6, "csv"), (4, "json"))),
        },
        "words": {
            "measure_n": 2,
            "measure_steps": ((2, "json"), (3, "csv")),
            "entropy": ((3, 3, 4), (2, 2, 5)),
            "rank": ((2, 2, 3), (3, 3, 2)),
            "lift": (3, 2),
            "prob": (3, 2, 5, 4),
            "table_states": 4,
        },
    },
}

SYMBOLS = "abc"


@dataclass
class Job:
    kind: str
    argv: list[str]
    check: Callable[[str], None]
    exit_code: int = 0


class _Files:
    """Numbered input files of one pass inside a work directory."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.count = 0

    def __call__(self, stem: str, suffix: str = ".json") -> Path:
        self.count += 1
        return self.workdir / f"{self.count:02d}-{stem}{suffix}"


def build_pass(workload: str, seed: int, pass_index: int, workdir: Path, size: str = "full",
               cesaro_only: bool = False) -> list[Job]:
    """One pass of ``workload``; ``cesaro_only`` keeps the chains workload's Cesaro jobs."""
    rng = np.random.default_rng([seed, pass_index, WORKLOADS.index(workload)])
    workdir.mkdir(parents=True, exist_ok=True)
    files, sizes = _Files(workdir), SIZES[size][workload]
    if workload == "words":
        return _words(rng, files, sizes)
    jobs = _cesaro_jobs(rng, files, sizes)
    return jobs if cesaro_only else jobs + _trajectory_jobs(rng, files, sizes)


def _oracle_seed(rng: np.random.Generator) -> int:
    return int(rng.integers(2**31))


# -- chains: Cesaro jobs ------------------------------------------------------


def _cesaro_argv(op_path, rho_path) -> list[str]:
    return ["chain-cesaro", "--operator", str(op_path), "--density", str(rho_path)]


def _cesaro_jobs(rng, files: _Files, s) -> list[Job]:
    jobs = []
    for n in s["kraus_n"]:
        kraus = gen.kraus_family(rng, n, 2)
        op = gen.write_kraus(files(f"kraus-n{n}"), kraus)
        rho = gen.write_density(files(f"rho-n{n}"), gen.density(rng, n))
        jobs.append(Job(f"cesaro/kraus-n{n}", _cesaro_argv(op, rho), orc.check_cesaro(kraus)))
    for n in s["operator_n"]:
        kraus = gen.kraus_family(rng, n, 2)
        op = gen.write_operator(files(f"op-n{n}"), n, gen.superop(kraus))
        rho = gen.write_density(files(f"rho-n{n}"), gen.density(rng, n))
        jobs.append(Job(f"cesaro/operator-n{n}", _cesaro_argv(op, rho), orc.check_cesaro(kraus)))

    n = s["unitary_n"]
    u = gen.spaced_unitary(rng, n)
    op = gen.write_kraus(files(f"unitary-n{n}"), [u])
    rho = gen.write_density(files(f"rho-n{n}"), gen.density(rng, n))
    jobs.append(Job(f"cesaro/unitary-n{n}", _cesaro_argv(op, rho), orc.check_cesaro([u])))

    for nodes, edge_count, fmt in s["walk_limit"]:
        edges = gen.graph(rng, nodes, edge_count)
        kraus = gen.kraus_family(rng, edge_count, 2)
        start = gen.density(rng, edge_count)
        argv = [
            "walk",
            "--graph", str(gen.write_graph(files("graph", ".txt"), edges)),
            "--operator", str(gen.write_kraus(files(f"kraus-n{edge_count}"), kraus)),
            "--density", str(gen.write_density(files(f"rho-n{edge_count}"), start)),
            "--limiting",
            "--format", fmt,
        ]
        check = orc.check_walk_limit(kraus, edges, nodes, start, fmt)
        jobs.append(Job(f"walk-limit/e{edge_count}-{fmt}", argv, check))

    n = s["jordan_n"]
    m = gen.jordan_stochastic(rng, n)
    matrix = np.zeros((n * n, n * n))
    matrix[:n, :n] = m
    op = gen.write_operator(files(f"jordan-n{n}"), n, matrix)
    rho = gen.write_density(files(f"rho-n{n}"), np.diag(rng.dirichlet(np.ones(n))).astype(complex))
    jobs.append(Job(f"cesaro/jordan-n{n}", _cesaro_argv(op, rho), orc.check_empty, exit_code=3))
    return jobs


# -- words --------------------------------------------------------------------


def _oom_file(rng, files: _Files, m: int, k: int):
    ops, pi = gen.hmm_oom(rng, m, k)
    symbols = SYMBOLS[:k]
    return gen.write_oom(files(f"oom-m{m}-k{k}"), symbols, ops, pi), symbols, ops, pi


def _words(rng, files: _Files, s) -> list[Job]:
    jobs = []
    n = s["measure_n"]
    symbols = SYMBOLS
    rho = gen.density(rng, n)
    rho_path = gen.write_density(files(f"rho-n{n}"), rho)

    kraus = gen.kraus_family(rng, n, len(symbols))
    kraus_path = gen.write_json(
        files(f"kraus-meas-n{n}"),
        {"n": n, "scale": list(symbols), "kraus": {a: gen.matrix_dict(k) for a, k in zip(symbols, kraus)}},
    )
    # A Markov measurement that is not a Kraus measurement: shift a random
    # map between two symbols, which keeps the symbol sum trace preserving.
    ops = [gen.superop([k]) for k in gen.kraus_family(rng, n, len(symbols))]
    shift = 0.05 * rng.standard_normal(ops[0].shape)
    ops[0], ops[1] = ops[0] + shift, ops[1] - shift
    markov_path = gen.write_json(
        files(f"markov-meas-n{n}"),
        {"scale": list(symbols), "operators": {a: op.tolist() for a, op in zip(symbols, ops)}},
    )
    for label, path, value in (
        ("kraus", kraus_path, orc.kraus_word_value(kraus, rho)),
        ("markov", markov_path, orc.coordinate_word_value(ops, rho)),
    ):
        for steps, fmt in s["measure_steps"]:
            argv = ["measure", "--measurement", str(path), "--density", str(rho_path),
                    "--steps", str(steps), "--format", fmt]
            check = orc.check_measure(symbols, value, steps, fmt, _oracle_seed(rng))
            jobs.append(Job(f"measure/{label}-t{steps}", argv, check))

    for m, k, t_max in s["entropy"]:
        path, _, ops, pi = _oom_file(rng, files, m, k)
        argv = ["oom-entropy", "--oom", str(path), "--t-max", str(t_max)]
        jobs.append(Job(f"oom-entropy/m{m}-k{k}-t{t_max}", argv, orc.check_entropy(ops, pi, t_max, min(t_max, 5))))

    for m, k, length in s["rank"]:
        path, *_ = _oom_file(rng, files, m, k)
        argv = ["oom-rank", "--oom", str(path), "--max-length", str(length)]
        jobs.append(Job(f"oom-rank/m{m}-k{k}-l{length}", argv, orc.check_rank(m, k, length)))

    m, k = s["lift"]
    path, symbols_k, ops, pi = _oom_file(rng, files, m, k)
    jobs.append(Job(f"oom-lift/m{m}-k{k}", ["oom-lift", "--oom", str(path)],
                    orc.check_lift(symbols_k, ops, pi, _oracle_seed(rng))))

    m, k, count, length = s["prob"]
    for fmt in ("csv", "json"):
        path, symbols_k, ops, pi = _oom_file(rng, files, m, k)
        words = [tuple(int(a) for a in rng.integers(k, size=length)) for _ in range(count)]
        argv = ["oom-prob", "--oom", str(path), "--format", fmt]
        for word in words:
            argv += ["--word", "".join(symbols_k[a] for a in word)]
        jobs.append(Job(f"oom-prob/m{m}-w{count}-{fmt}", argv, orc.check_oom_prob(ops, pi, words, fmt)))

    jobs.append(Job("bell/builtin", ["bell", "--builtin", "five-state"], orc.check_bell(4 / 3, 0.0, False)))

    states = s["table_states"]
    xyz = rng.choice([-1, 1], size=(3, states))
    q = rng.dirichlet(np.ones(states))
    table = {
        "states": [f"s{i}" for i in range(states)],
        "functions": {name: [int(v) for v in row] for name, row in zip("XYZ", xyz)},
        "q": q.tolist(),
    }
    path = gen.write_json(files("table"), table)
    jobs.append(Job("bell/table", ["bell", "--table", str(path)], orc.check_bell(*orc.bell_sides(*xyz, q))))
    return jobs


# -- chains: trajectory jobs --------------------------------------------------


def _trajectory_jobs(rng, files: _Files, s) -> list[Job]:
    jobs = []
    for n, steps, fmt in s["evolve"]:
        kraus = gen.kraus_family(rng, n, 2)
        start = gen.density(rng, n)
        argv = [
            "chain-evolve",
            "--operator", str(gen.write_operator(files(f"op-n{n}"), n, gen.superop(kraus))),
            "--density", str(gen.write_density(files(f"rho-n{n}"), start)),
            "--steps", str(steps),
            "--format", fmt,
        ]
        sampled = _sampled_times(rng, steps)
        jobs.append(Job(f"chain-evolve/n{n}-{fmt}", argv, orc.check_evolve(kraus, start, steps, fmt, sampled)))

    nodes, edge_count, runs = s["walk_steps"]
    for steps, fmt in runs:
        edges = gen.graph(rng, nodes, edge_count)
        kraus = gen.kraus_family(rng, edge_count, 2)
        start = gen.density(rng, edge_count)
        argv = [
            "walk",
            "--graph", str(gen.write_graph(files("graph", ".txt"), edges)),
            "--operator", str(gen.write_operator(files(f"op-n{edge_count}"), edge_count, gen.superop(kraus))),
            "--density", str(gen.write_density(files(f"rho-n{edge_count}"), start)),
            "--steps", str(steps),
            "--format", fmt,
        ]
        check = orc.check_walk_steps(kraus, edges, nodes, start, steps, fmt, _sampled_times(rng, steps))
        jobs.append(Job(f"walk/e{edge_count}-{fmt}", argv, check))

    sx, sy = (float(v) for v in rng.uniform(-0.3, 0.3, size=2))
    argv = ["feynman", "--sx", repr(sx), "--sy", repr(sy), "--sz", repr(sy)]
    jobs.append(Job("feynman", argv, orc.check_feynman(sx, sy, sy)))
    return jobs


def _sampled_times(rng: np.random.Generator, steps: int) -> set[int]:
    return {0, 1, steps} | {int(t) for t in rng.integers(steps + 1, size=4)}
