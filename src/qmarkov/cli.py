"""Batch command-line front end.

Loads models from files, runs the analysis pipelines and emits CSV or JSON.
Exit codes: 0 success, 2 validation failure (malformed input, violated
invariant, a size too large for memory or numpy's index type), 3 analysis
failure (e.g. a Cesaro residual that cannot be reached).  Output is
deterministic for identical inputs; CSV floats carry 17 significant digits
so values round trip losslessly.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
from itertools import chain, product
from pathlib import Path

import numpy as np

from . import io as qio
from .chain import ConvergenceError, MarkovChain, cesaro_average, evolve
from .hermitian import BELL_TOL, CESARO_MAX_DOUBLINGS, CESARO_TOL, RANK_TOL, SIGN_TOL, coords
from .hidden import bell_check, feynman_state, five_state_example
from .measurement import _word_values
from .oom import (
    entropy_rate,
    lift_hidden_states,
    prediction_matrix,
    word_probability,
)
from .walk import limiting_node_distribution, walk

__all__ = ["run"]


def _emit(args, text: str) -> None:
    if getattr(args, "output", None):
        Path(args.output).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(args, payload) -> None:
    _emit(args, qio._json_text(payload) + "\n")


def _emit_csv(args, header: str, lines) -> None:
    """Write a header and the row lines; floats in rows are ``%.17g`` text."""
    _emit(args, "\n".join(chain((header,), lines)) + "\n")


def _step_lines(values: np.ndarray):
    """Lines "t,k,value" of a (steps+1, m) array, one row template per step."""
    return chain.from_iterable(
        map(f"{t},%d,%.17g".__mod__, enumerate(row)) for t, row in enumerate(values.tolist())
    )


def _parse_word(scale, text: str) -> tuple:
    """Parse a word argument: comma-separated symbols, or one character each."""
    if text == "":
        return ()
    if "," in text:
        parts = text.split(",")
    elif all(isinstance(s, str) and len(s) == 1 for s in scale.symbols):
        parts = list(text)
    else:
        parts = [text]
    word = []
    for p in parts:
        if p not in scale:
            raise ValueError(f"unknown symbol {p!r}, scale is {scale.symbols!r}")
        word.append(p)
    return tuple(word)


def _cmd_measure(args) -> None:
    meas = qio.load_measurement(args.measurement)
    density = qio.load_density(args.density)
    values = np.concatenate(list(_word_values(meas, density, args.steps, None)))
    symbols = [str(s) for s in meas.scale]
    words = product(symbols, repeat=args.steps)
    if args.format == "json":
        payload = {
            "steps": args.steps,
            "scale": symbols,
            "observable": bool(values.min() >= -args.tol),
            "distribution": [
                {"word": list(w), "probability": p} for w, p in zip(words, values.tolist())
            ],
        }
        _emit_json(args, payload)
    else:
        texts = map("".join, words)
        _emit_csv(args, "word,probability", map("%s,%.17g".__mod__, zip(texts, values.tolist())))


def _cmd_chain_evolve(args) -> None:
    operator = qio.load_channel(args.operator)
    density = qio.load_density(args.density)
    densities = evolve(MarkovChain(operator=operator, start=density), args.steps)
    if args.format == "json":
        payload = [
            {"t": t, "matrix": qio.matrix_to_dict(d, kind="hermitian")}
            for t, d in enumerate(densities)
        ]
        _emit_json(args, payload)
    else:
        path = coords(densities)
        del densities  # the CSV rows need only the coordinates
        _emit_csv(args, "t,coordinate_index,value", _step_lines(path))


def _cmd_chain_cesaro(args) -> None:
    operator = qio.load_channel(args.operator)
    density = qio.load_density(args.density)
    result = cesaro_average(
        MarkovChain(operator=operator, start=density),
        tol=args.tol,
        max_doublings=args.max_doublings,
    )
    payload = {
        "average": qio.matrix_to_dict(result.average, kind="density"),
        "iterations": result.iterations,
        "residual": result.residual,
    }
    _emit_json(args, payload)


def _cmd_walk(args) -> None:
    graph = qio.load_graph(args.graph)
    operator = qio.load_channel(args.operator)
    density = qio.load_density(args.density)
    if args.limiting:
        dist = limiting_node_distribution(graph, operator, density, tol=args.tol)
        if args.format == "json":
            _emit_json(args, {"nodes": graph.node_count, "distribution": dist.tolist()})
        else:
            _emit_csv(args, "node,probability", map("%d,%.17g".__mod__, enumerate(dist.tolist())))
        return
    trace = walk(graph, operator, density, args.steps)
    if args.format == "json":
        payload = [
            {"t": t, "probabilities": probs}
            for t, probs in enumerate(trace.node_probabilities.tolist())
        ]
        _emit_json(args, payload)
    else:
        _emit_csv(args, "t,node,probability", _step_lines(trace.node_probabilities))


def _cmd_bell(args) -> None:
    if args.builtin:
        example = five_state_example()
        x, y, z, state = example.x, example.y, example.z, example.state
    else:
        _, functions, state = qio.load_state_table(args.table)
        for name in ("X", "Y", "Z"):
            if name not in functions:
                raise ValueError(f"{args.table}: bell check needs functions named X, Y and Z")
        x, y, z = functions["X"], functions["Y"], functions["Z"]
    result = bell_check(x, y, z, state, tol=args.tol)
    _emit_json(args, dataclasses.asdict(result))


def _cmd_feynman(args) -> None:
    state = feynman_state(args.sx, args.sy, args.sz)
    _emit_json(
        args,
        {"states": list(state.space.states), "q": [float(v) for v in state.values]},
    )


def _cmd_oom_prob(args) -> None:
    model = qio.load_oom(args.oom)
    words = [_parse_word(model.scale, w) for w in args.word]
    if args.format == "json":
        payload = [
            {"word": [str(s) for s in w], "probability": word_probability(model, w)}
            for w in words
        ]
        _emit_json(args, payload)
    else:
        lines = ["%s,%.17g" % ("".join(w), word_probability(model, w)) for w in words]
        _emit_csv(args, "word,probability", lines)


def _cmd_oom_rank(args) -> None:
    model = qio.load_oom(args.oom)
    matrix, rank = prediction_matrix(model, args.max_length, rank_tol=args.tol)
    _emit_json(
        args,
        {
            "rank": rank,
            "rows": len(matrix.row_words),
            "cols": len(matrix.col_words),
            "max_length": args.max_length,
        },
    )


def _cmd_oom_lift(args) -> None:
    model = qio.load_oom(args.oom)
    _emit_json(args, qio.lift_to_dict(lift_hidden_states(model)))


def _cmd_oom_entropy(args) -> None:
    model = qio.load_oom(args.oom)
    rows = entropy_rate(model, args.t_max)
    if args.format == "json":
        payload = [
            {"t": t, "entropy_per_symbol": a, "entropy_increment": d} for t, a, d in rows
        ]
        _emit_json(args, payload)
    else:
        _emit_csv(args, "t,entropy_per_symbol,entropy_increment", map("%d,%.17g,%.17g".__mod__, rows))


def _add_output_options(p, formats=("csv", "json"), default="csv") -> None:
    if formats:
        p.add_argument("--format", choices=formats, default=default, help="output format")
    p.add_argument("--output", help="output path (default: standard output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkov",
        description="Markov-density toolkit: measurements, chains, walks, Bell tables, OOMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", help="outcome/word distribution of a measurement")
    p.add_argument("--measurement", required=True, help="measurement JSON file")
    p.add_argument("--density", required=True, help="density JSON file")
    p.add_argument("--steps", type=int, default=1, help="word length (default 1)")
    p.add_argument("--tol", type=float, default=SIGN_TOL, help="observability tolerance")
    _add_output_options(p)
    p.set_defaults(func=_cmd_measure)

    p = sub.add_parser("chain-evolve", help="iterate a Markov chain, emitting coordinates")
    p.add_argument("--operator", required=True, help="operator or Kraus JSON file")
    p.add_argument("--density", required=True, help="start density JSON file")
    p.add_argument("--steps", type=int, required=True, help="number of steps")
    _add_output_options(p)
    p.set_defaults(func=_cmd_chain_evolve)

    p = sub.add_parser("chain-cesaro", help="Cesaro average of a Markov chain")
    p.add_argument("--operator", required=True, help="operator or Kraus JSON file")
    p.add_argument("--density", required=True, help="start density JSON file")
    p.add_argument("--tol", type=float, default=CESARO_TOL, help="stationarity residual target")
    p.add_argument("--max-doublings", type=int, default=CESARO_MAX_DOUBLINGS, help="horizon doublings to try")
    _add_output_options(p, formats=())
    p.set_defaults(func=_cmd_chain_cesaro)

    p = sub.add_parser("walk", help="quantum walk on a directed graph")
    p.add_argument("--graph", required=True, help="graph file ('u v' lines or JSON)")
    p.add_argument("--operator", required=True, help="operator or Kraus JSON file")
    p.add_argument("--density", required=True, help="start density JSON file")
    p.add_argument("--steps", type=int, default=0, help="number of steps")
    p.add_argument("--limiting", action="store_true", help="emit the limiting node distribution")
    p.add_argument("--tol", type=float, default=CESARO_TOL, help="Cesaro residual target (with --limiting)")
    _add_output_options(p)
    p.set_defaults(func=_cmd_walk)

    p = sub.add_parser("bell", help="Bell inequality check on a hidden-state table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=["five-state"], help="named built-in instance")
    group.add_argument("--table", help="table JSON file with functions X, Y, Z")
    p.add_argument("--tol", type=float, default=BELL_TOL, help="inequality slack")
    _add_output_options(p, formats=())
    p.set_defaults(func=_cmd_bell)

    p = sub.add_parser("feynman", help="two-spin average table as a Markov state")
    p.add_argument("--sx", type=float, required=True)
    p.add_argument("--sy", type=float, required=True)
    p.add_argument("--sz", type=float, required=True)
    _add_output_options(p, formats=())
    p.set_defaults(func=_cmd_feynman)

    p = sub.add_parser("oom-prob", help="word probabilities of an OOM")
    p.add_argument("--oom", required=True, help="OOM JSON file")
    p.add_argument(
        "--word",
        action="append",
        required=True,
        help="word (single-character symbols concatenated, or comma-separated); repeatable",
    )
    _add_output_options(p)
    p.set_defaults(func=_cmd_oom_prob)

    p = sub.add_parser("oom-rank", help="numerical rank of the truncated prediction matrix")
    p.add_argument("--oom", required=True, help="OOM JSON file")
    p.add_argument("--max-length", type=int, required=True, help="word length bound")
    p.add_argument("--tol", type=float, default=RANK_TOL, help="relative singular value cutoff")
    _add_output_options(p, formats=())
    p.set_defaults(func=_cmd_oom_rank)

    p = sub.add_parser("oom-lift", help="hidden-state lift of an OOM")
    p.add_argument("--oom", required=True, help="OOM JSON file")
    _add_output_options(p, formats=())
    p.set_defaults(func=_cmd_oom_lift)

    p = sub.add_parser("oom-entropy", help="block entropies of an OOM process")
    p.add_argument("--oom", required=True, help="OOM JSON file")
    p.add_argument("--t-max", type=int, required=True, help="largest word length")
    _add_output_options(p)
    p.set_defaults(func=_cmd_oom_entropy)

    return parser


def run(argv=None) -> int:
    """Parse arguments and run one command, returning the exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except ConvergenceError as exc:
        print(f"qmarkov: analysis failed: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"qmarkov: invalid input: {exc}", file=sys.stderr)
        return 2
    except (MemoryError, OverflowError) as exc:
        print(f"qmarkov: input too large: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(run())
