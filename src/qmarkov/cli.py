"""Batch command-line front end.

Loads models from files, runs the analysis pipelines and emits CSV or JSON.
Exit codes: 0 success, 2 validation failure (malformed input, violated
invariant, a size too large for memory or numpy's index type) or an output
closed by its reader, 3 analysis failure (e.g. a Cesaro residual that
cannot be reached).  Output is deterministic for identical inputs; CSV
floats carry 17 significant digits so values round trip losslessly.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import os
import re
import sys
from contextlib import nullcontext
from itertools import chain, islice, product

from . import io as qio
from .chain import ConvergenceError, MarkovChain, _density_blocks, _path_blocks, cesaro_average
from .hermitian import BELL_TOL, CESARO_MAX_DOUBLINGS, CESARO_TOL, RANK_TOL, SIGN_TOL
from .hermitian import _require_count, _require_tol, coords
from .hidden import bell_check, feynman_state, five_state_example
from .measurement import _word_values
from .oom import (
    entropy_rate,
    lift_hidden_states,
    prediction_matrix,
    word_probabilities,
)
from .walk import _node_blocks, _NodeValueLimitError, limiting_node_distribution

__all__ = ["run"]

ROW_CHUNK = 1024  # rows per text chunk of a word table: its cells, floats and text stay near one word block


def _emit(args, chunks) -> None:
    """Write text chunks to ``--output`` or stdout as they are made.

    The file is opened once the first chunk exists, so an error raised
    before it creates no file; one raised later leaves the chunks written.
    """
    chunks = iter(chunks)
    first = next(chunks)
    with open(args.output, "w") if args.output else nullcontext(sys.stdout) as out:
        out.write(first)
        out.writelines(chunks)


def _json(payload):
    """JSON chunks of ``payload`` (see :func:`qio._json_chunks`) and the final newline."""
    return chain(qio._json_chunks(payload), ("\n",))


def _csv(header: str, chunks):
    """CSV chunks: the header line joined to the first text chunk of complete lines, then the others.

    The header leaves with the first rows, so an error raised while they
    are computed writes nothing.
    """
    chunks = iter(chunks)
    yield header + "\n" + next(chunks, "")
    yield from chunks


def _numbered(blocks):
    """The rows of consecutive blocks of a path as (t, row) pairs, one iterator per block."""
    t = 0
    for block in blocks:
        yield enumerate(block, t)
        t += len(block)


def _step_lines(blocks):
    """Lines "t,k,value" of the (rows, m) blocks of a step table, one text chunk per block.

    A block's template holds its lines with t and k written in, joined per
    row at C level, and takes the block's values in one ``%``.
    """
    t = 0
    for block in blocks:
        rows, m = block.shape
        parts = ["", *("%d,%%.17g\n" % k for k in range(m))]
        template = "".join([("%d," % s).join(parts) for s in range(t, t + rows)])
        yield template % tuple(block.ravel().tolist())
        t += rows


def _concatenated(texts) -> bool:
    """The word rule: a word is its symbol texts concatenated when each is one character
    that a CSV cell holds as is (not a quote or a line break), else comma-joined."""
    return all(len(text) == 1 and text not in '"\r\n' for text in texts)


def _word_cells(texts: list[str]):
    """Map from a word, as symbol texts, to its CSV cell, which :func:`_parse_words` reads back."""
    return "".join if _concatenated(texts) else lambda word: _csv_cell(",".join(word))


def _csv_cell(text: str) -> str:
    """``text`` quoted as CSV quotes a cell: when it holds a comma, a quote or a line break."""
    return '"%s"' % text.replace('"', '""') if re.search('[",\r\n]', text) else text


def _parse_words(scale, texts) -> list[tuple]:
    """Parse word arguments into scale symbols, each named by its text ``str(symbol)``.

    Parts are comma-separated, or one character each when the scale's texts
    concatenate (:func:`_concatenated`) and the argument has no comma.
    """
    names = dict(zip(qio._text_keys(scale), scale))
    concatenated = _concatenated(names)

    def parse(text: str) -> tuple:
        if text == "":
            return ()
        parts = list(text) if concatenated and "," not in text else text.split(",")
        return tuple(names.get(p, p) for p in parts)  # an unknown part fails in word_probabilities

    return list(map(parse, texts))


def _word_rows(fmt: str, texts: list[str], words, blocks):
    """Rows of ``words`` (as symbol texts, of the scale ``texts``) and their blocks of probabilities,
    in chunks of at most ROW_CHUNK rows: CSV text of lines "cell,probability", or lists of JSON
    {"word", "probability"} records."""
    words = iter(words) if fmt == "json" else map(_word_cells(texts), words)
    chunk = _word_records if fmt == "json" else _word_lines
    for block in blocks:
        for start in range(0, len(block), ROW_CHUNK):
            # the chunk's floats live in the call only, not in this frame while the chunk is written
            yield chunk(words, block[start : start + ROW_CHUNK].tolist())


def _word_lines(cells, values: list[float]) -> str:
    """CSV lines "cell,probability" of ``values`` and as many next ``cells``, by one template."""
    return ("%s,%.17g\n" * len(values)) % tuple(chain.from_iterable(zip(islice(cells, len(values)), values)))


def _word_records(words, values: list[float]) -> list[dict]:
    """JSON records of ``values`` and as many next ``words``; a tuple prints as a list."""
    return [{"word": w, "probability": p} for w, p in zip(islice(words, len(values)), values)]


def _cmd_measure(args) -> None:
    tol = _require_tol(args.tol)  # read by the JSON output only, checked for both
    meas = qio.load_measurement(args.measurement)
    density = qio.load_density(args.density)
    blocks = list(_word_values(meas, density, args.steps))
    texts = qio._text_keys(meas.scale)
    rows = _word_rows(args.format, texts, product(texts, repeat=args.steps), blocks)
    if args.format == "json":
        observable = all(b.min() >= -tol for b in blocks)
        _emit(args, _json({"steps": args.steps, "scale": texts, "observable": observable, "distribution": rows}))
    else:
        _emit(args, _csv("word,probability", rows))


def _cmd_chain_evolve(args) -> None:
    operator = qio.load_channel(args.operator)
    density = qio.load_density(args.density)
    markov_chain = MarkovChain(operator=operator, start=density)
    if args.format == "json":
        densities = enumerate(chain.from_iterable(_density_blocks(markov_chain, args.steps)))
        size = max(1, ROW_CHUNK // operator.n**2)  # densities of n^2 entries per chunk, which may span path blocks
        chunks = iter(lambda: list(islice(densities, size)), [])
        items = ([{"t": t, "matrix": qio.matrix_to_dict(d, kind="hermitian")} for t, d in rows] for rows in chunks)
        _emit(args, _json(items))
    else:
        blocks = _path_blocks(operator, coords(markov_chain.start), args.steps)
        _emit(args, _csv("t,coordinate_index,value", _step_lines(blocks)))


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
    _emit(args, _json(payload))


def _cmd_walk(args) -> None:
    graph = qio.load_graph(args.graph)
    operator = qio.load_channel(args.operator)
    density = qio.load_density(args.density)
    try:
        _walk_output(args, graph, operator, density)
    except _NodeValueLimitError as exc:  # the library cannot name the file whose node count it refuses
        raise ValueError(f"{exc} (graph {args.graph})") from None


def _walk_output(args, graph, operator, density) -> None:
    if args.limiting:
        dist = limiting_node_distribution(graph, operator, density, tol=args.tol)
        if args.format == "json":
            _emit(args, _json({"nodes": graph.node_count, "distribution": dist.tolist()}))
        else:
            lines = ("%d,%.17g\n" * len(dist)) % tuple(chain.from_iterable(enumerate(dist.tolist())))
            _emit(args, _csv("node,probability", [lines]))
        return
    _require_tol(args.tol)  # read with --limiting only, checked in every mode
    blocks = _node_blocks(graph, operator, density, args.steps)
    if args.format == "json":
        items = (
            [{"t": t, "probabilities": probs} for t, probs in rows]
            for rows in _numbered(block.tolist() for block in blocks)
        )
        _emit(args, _json(items))
    else:
        _emit(args, _csv("t,node,probability", _step_lines(blocks)))


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
    _emit(args, _json(dataclasses.asdict(result)))


def _cmd_feynman(args) -> None:
    state = feynman_state(args.sx, args.sy, args.sz)
    _emit(args, _json({"states": list(state.space.states), "q": [float(v) for v in state.values]}))


def _cmd_oom_prob(args) -> None:
    if not all(isinstance(text, str) for text in args.word):  # argparse leaves [] where it dropped a "--" value
        raise ValueError("--word: argparse drops the value '--'; give that word as --word=-,-")
    model = qio.load_oom(args.oom)
    words = _parse_words(model.scale, args.word)
    probabilities = word_probabilities(model, words)  # before the word texts exist, as they would raise its peak
    texts = [tuple(map(str, w)) for w in words]
    rows = _word_rows(args.format, qio._text_keys(model.scale), texts, [probabilities])
    _emit(args, _json(rows) if args.format == "json" else _csv("word,probability", rows))


def _cmd_oom_rank(args) -> None:
    model = qio.load_oom(args.oom)
    matrix, rank = prediction_matrix(model, args.max_length, rank_tol=args.tol)
    payload = {
        "rank": rank,
        "rows": len(matrix.row_words),
        "cols": len(matrix.col_words),
        "max_length": args.max_length,
    }
    _emit(args, _json(payload))


def _cmd_oom_lift(args) -> None:
    model = qio.load_oom(args.oom)
    _emit(args, _json(qio.lift_to_dict(lift_hidden_states(model))))


def _cmd_oom_entropy(args) -> None:
    model = qio.load_oom(args.oom)
    rows = entropy_rate(model, args.t_max)
    if args.format == "json":
        payload = [
            {"t": t, "entropy_per_symbol": a, "entropy_increment": d} for t, a, d in rows
        ]
        _emit(args, _json(payload))
    else:
        lines = ("%d,%.17g,%.17g\n" * len(rows)) % tuple(chain.from_iterable(rows))
        _emit(args, _csv("t,entropy_per_symbol,entropy_increment", [lines]))


class _Parser(argparse.ArgumentParser):
    """An argparse parser (and subparser class) reading -7.9e-05, -1e5, -inf and -nan as numbers, like -0.5."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(?:\d*\.?\d+(?:[eE][-+]?\d+)?|(?i:inf(?:inity)?|nan))$")


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser; every ``type=int`` option is a count, which :func:`run` checks.

    An option that several commands share is declared once, in a parent parser; argparse lists it first.
    """
    parser = _Parser(
        prog="qmarkov",
        description="Markov-density toolkit: measurements, chains, walks, Bell tables, OOMs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    output, formatted, chain_files, oom = (argparse.ArgumentParser(add_help=False) for _ in range(4))
    output.add_argument("--output", help="output path (default: standard output)")
    formatted.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    chain_files.add_argument("--operator", required=True, help="operator or Kraus JSON file")
    chain_files.add_argument("--density", required=True, help="start density JSON file")
    oom.add_argument("--oom", required=True, help="OOM JSON file")

    def command(name, func, help, *parents):
        p = sub.add_parser(name, help=help, parents=[*parents, output])
        p.set_defaults(func=func)
        return p

    p = command("measure", _cmd_measure, "outcome/word distribution of a measurement", formatted)
    p.add_argument("--measurement", required=True, help="measurement JSON file")
    p.add_argument("--density", required=True, help="density JSON file")
    p.add_argument("--steps", type=int, default=1, help="word length (default 1)")
    p.add_argument("--tol", type=float, default=SIGN_TOL, help="observability tolerance")

    p = command("chain-evolve", _cmd_chain_evolve, "iterate a Markov chain, emitting coordinates",
                chain_files, formatted)
    p.add_argument("--steps", type=int, required=True, help="number of steps")

    p = command("chain-cesaro", _cmd_chain_cesaro, "Cesaro average of a Markov chain", chain_files)
    p.add_argument("--tol", type=float, default=CESARO_TOL, help="stationarity residual target")
    p.add_argument("--max-doublings", type=int, default=CESARO_MAX_DOUBLINGS, help="horizon doublings to try")

    p = command("walk", _cmd_walk, "quantum walk on a directed graph", chain_files, formatted)
    p.add_argument("--graph", required=True, help="graph file ('u v' lines or JSON)")
    p.add_argument("--steps", type=int, default=0, help="number of steps")
    p.add_argument("--limiting", action="store_true", help="emit the limiting node distribution")
    p.add_argument("--tol", type=float, default=CESARO_TOL, help="Cesaro residual target (with --limiting)")

    p = command("bell", _cmd_bell, "Bell inequality check on a hidden-state table")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--builtin", choices=["five-state"], help="named built-in instance")
    group.add_argument("--table", help="table JSON file with functions X, Y, Z")
    p.add_argument("--tol", type=float, default=BELL_TOL, help="inequality slack")

    p = command("feynman", _cmd_feynman, "two-spin average table as a Markov state")
    p.add_argument("--sx", type=float, required=True)
    p.add_argument("--sy", type=float, required=True)
    p.add_argument("--sz", type=float, required=True)

    p = command("oom-prob", _cmd_oom_prob, "word probabilities of an OOM", oom, formatted)
    p.add_argument(
        "--word",
        action="append",
        required=True,
        help="word (single-character symbols concatenated, or comma-separated); repeatable",
    )

    p = command("oom-rank", _cmd_oom_rank, "numerical rank of the truncated prediction matrix", oom)
    p.add_argument("--max-length", type=int, required=True, help="word length bound")
    p.add_argument("--tol", type=float, default=RANK_TOL, help="relative singular value cutoff")

    command("oom-lift", _cmd_oom_lift, "hidden-state lift of an OOM", oom)

    p = command("oom-entropy", _cmd_oom_entropy, "block entropies of an OOM process", oom, formatted)
    p.add_argument("--t-max", type=int, required=True, help="largest word length")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`run`: built on the first call, then reused by every call in the process."""
    return build_parser()


def _discard_stdout() -> None:
    """Point stdout at the null device if its pipe is closed, so that the flush at exit, which
    would fail again on the bytes still buffered, prints no second error."""
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        null = os.open(os.devnull, os.O_WRONLY)
        os.dup2(null, sys.stdout.fileno())
        os.close(null)


def run(argv=None) -> int:
    """Parse arguments and run one command, returning the exit code; count options are checked first."""
    args = _parser().parse_args(argv)
    try:
        for dest, value in vars(args).items():
            if type(value) is int:  # the count options; a flag is a bool
                _require_count(value, dest)
        args.func(args)
        sys.stdout.flush()  # output that fits stdout's buffer meets a closed pipe here, not at exit
    except BrokenPipeError:  # an OSError, but the output's reader is gone, not the input bad
        print("qmarkov: output closed", file=sys.stderr)
        _discard_stdout()
        return 2
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
