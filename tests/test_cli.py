import argparse
import contextlib
import csv
import gc
import io
import itertools
import json
import os
import subprocess
import time
import tracemalloc

import numpy as np
import pytest

from conftest import deadline, fresh_python, random_hmm, random_kraus_family, random_oom
from qmarkov import (
    DirectedGraph,
    KrausMeasurement,
    MarkovChain,
    ObservableOperatorModel,
    Scale,
    evolve,
    from_kraus,
    hmm_to_oom,
    identity_operator,
    pure_state,
    random_quantum_density,
    shift_unitary,
    walk,
    word_distribution,
    word_probabilities,
)
from qmarkov import io as qio
from qmarkov import chain as qchain
from qmarkov import cli
from qmarkov import measurement as qmeasurement
from qmarkov import operators as qoperators
from qmarkov.chain import _path_blocks
from qmarkov.hermitian import BELL_TOL, CESARO_MAX_DOUBLINGS, CESARO_TOL, RANK_TOL, SIGN_TOL, coords
from qmarkov.cli import run


@pytest.fixture
def files(tmp_path):
    """Model files shared across CLI tests."""
    paths = {}
    paths["id_op"] = tmp_path / "id.json"
    qio.save_operator(paths["id_op"], identity_operator(2))

    paths["density"] = tmp_path / "d.json"
    qio.save_matrix(paths["density"], np.diag([0.3, 0.7]).astype(complex), kind="density")

    paths["swap"] = tmp_path / "swap.json"
    swap = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    paths["swap"].write_text(json.dumps({"n": 2, "kraus": [qio.matrix_to_dict(swap)]}))

    paths["graph"] = tmp_path / "g.txt"
    paths["graph"].write_text("0 1\n1 2\n2 0\n")
    cycle = DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0)))
    paths["shift"] = tmp_path / "shift.json"
    paths["shift"].write_text(
        json.dumps({"n": 3, "kraus": [qio.matrix_to_dict(shift_unitary(cycle))]})
    )
    paths["edge0"] = tmp_path / "edge0.json"
    qio.save_matrix(paths["edge0"], pure_state(np.eye(3)[0]), kind="density")

    paths["zmeas"] = tmp_path / "zmeas.json"
    paths["zmeas"].write_text(
        json.dumps(
            {
                "n": 2,
                "scale": ["0", "1"],
                "kraus": {
                    "0": qio.matrix_to_dict(np.diag([1.0, 0.0]).astype(complex)),
                    "1": qio.matrix_to_dict(np.diag([0.0, 1.0]).astype(complex)),
                },
            }
        )
    )

    paths["oom"] = tmp_path / "oom.json"
    paths["oom"].write_text(
        json.dumps(
            {
                "dim": 2,
                "scale": ["a", "b"],
                "operators": {"a": [[0.5, 0.5], [0.0, 0.0]], "b": [[0.0, 0.0], [0.5, 0.5]]},
                "pi": [0.5, 0.5],
            }
        )
    )
    paths["tmp"] = tmp_path
    return paths


class TestBell:
    def test_builtin_five_state(self, capsys):
        assert run(["bell", "--builtin", "five-state"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lhs"] == pytest.approx(4 / 3, abs=1e-12)
        assert out["rhs"] == pytest.approx(0.0, abs=1e-12)
        assert out["satisfied"] is False
        assert out["pairwise_observable"] is True
        assert out["jointly_observable"] is False
        assert out["e_xy"] == pytest.approx(1.0, abs=1e-12)
        assert out["e_yz"] == pytest.approx(-1 / 3, abs=1e-12)
        assert out["e_xz"] == pytest.approx(1.0, abs=1e-12)

    def test_table_file(self, files, capsys):
        table = files["tmp"] / "table.json"
        table.write_text(
            json.dumps(
                {
                    "states": ["w1", "w2", "w3", "w4", "w5"],
                    "functions": {
                        "X": [-1, 1, -1, -1, -1],
                        "Y": [1, 1, -1, 1, -1],
                        "Z": [1, 1, 1, -1, -1],
                    },
                    "q": [-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3],
                }
            )
        )
        assert run(["bell", "--table", str(table)]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["satisfied"] is False

    def test_missing_function_rejected(self, files, capsys):
        table = files["tmp"] / "incomplete.json"
        table.write_text(
            json.dumps({"states": ["a"], "functions": {"X": [1]}, "q": [1.0]})
        )
        assert run(["bell", "--table", str(table)]) == 2
        assert "X, Y and Z" in capsys.readouterr().err

    def test_short_function_named_once(self, files, capsys):
        table = files["tmp"] / "short.json"
        table.write_text(
            json.dumps(
                {
                    "states": ["a", "b", "c", "d"],
                    "functions": {"X": [1, 1, -1, -1], "Y": [1, -1, 1], "Z": [1, -1, -1, 1]},
                    "q": [0.25, 0.25, 0.25, 0.25],
                }
            )
        )
        assert run(["bell", "--table", str(table)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"qmarkov: invalid input: {table}: function 'Y': "
            "need one value per hidden state: 3 values, 4 states\n"
        )


class TestFeynman:
    def test_worked_point(self, capsys):
        assert run(["feynman", "--sx", "0.5", "--sy", "0.5", "--sz", "0.5"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["q"] == [0.625, 0.125, 0.375, -0.125]
        assert out["states"] == ["++", "+-", "-+", "--"]

    def test_invalid_point_exit_code(self, capsys):
        assert run(["feynman", "--sx", "0.3", "--sy", "0.1", "--sz", "0.5"]) == 2
        err = capsys.readouterr().err
        assert "1.2" in err

    @pytest.mark.parametrize("value", ["-7.930237318254374e-05", "-1e5", "-1E+3", "-0.5", "-.5", "-3"])
    def test_negative_numbers_read_as_values(self, capsys, value):
        # "--sy=value" never reads as an option; the separate form must give the same table
        assert run(["feynman", "--sx", "0.1", f"--sy={value}", f"--sz={value}"]) == 0
        want = capsys.readouterr().out
        assert run(["feynman", "--sx", "0.1", "--sy", value, "--sz", value]) == 0
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("value", ["-x", "-e5", "--sz"])
    def test_option_like_values_stay_usage_errors(self, capsys, value):
        with pytest.raises(SystemExit) as exited:
            run(["feynman", "--sx", "0.1", "--sy", value, "--sz", "0.2"])
        assert exited.value.code == 2
        assert "--sy: expected one argument" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-inf", "-Infinity", "-INF", "-nan", "-NaN"])
    def test_negative_inf_and_nan_read_as_values(self, files, capsys, value):
        # they reach the library, whose message names the value's fault, not argparse's usage error
        assert run(["feynman", "--sx", value, "--sy", "0", "--sz", "0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qmarkov: invalid input: spin-average table must sum to 1, got non-finite entries" in captured.err
        cesaro = ["chain-cesaro", "--operator", str(files["swap"]), "--density", str(files["density"])]
        assert run([*cesaro, "--tol", value]) == 2
        assert "qmarkov: invalid input: tol must be positive and finite, got " in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["-infx", "-in", "-nana", "-inf1"])
    def test_words_near_inf_and_nan_stay_usage_errors(self, capsys, value):
        with pytest.raises(SystemExit) as exited:
            run(["feynman", "--sx", "0.1", "--sy", value, "--sz", "0.2"])
        assert exited.value.code == 2
        assert "--sy: expected one argument" in capsys.readouterr().err


class TestChainCommands:
    def test_cesaro_identity(self, files, capsys):
        assert (
            run(
                [
                    "chain-cesaro",
                    "--operator",
                    str(files["id_op"]),
                    "--density",
                    str(files["density"]),
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["iterations"] == 0
        assert out["residual"] == 0.0
        entries = out["average"]["entries"]
        assert entries[0] == [0.3, 0.0]
        assert entries[3] == [0.7, 0.0]

    def test_evolve_csv(self, files, capsys):
        assert (
            run(
                [
                    "chain-evolve",
                    "--operator",
                    str(files["swap"]),
                    "--density",
                    str(files["density"]),
                    "--steps",
                    "2",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,coordinate_index,value"
        assert len(lines) == 1 + 3 * 4
        first = dict((tuple(l.split(",")[:2]), float(l.split(",")[2])) for l in lines[1:])
        assert first[("0", "0")] == pytest.approx(0.3)
        assert first[("1", "0")] == pytest.approx(0.7)
        assert first[("2", "0")] == pytest.approx(0.3)

    def test_cesaro_failure_exit_code(self, files, capsys):
        # defective column-sum-1 matrix: averages never become stationary
        bad = files["tmp"] / "jordan.json"
        from qmarkov import from_stochastic

        qio.save_operator(bad, from_stochastic(np.array([[2.0, 1.0], [-1.0, 0.0]])))
        code = run(
            [
                "chain-cesaro",
                "--operator",
                str(bad),
                "--density",
                str(files["density"]),
                "--max-doublings",
                "20",
            ]
        )
        assert code == 3
        assert "analysis failed" in capsys.readouterr().err

    def test_cesaro_peak_about_two_matrices(self, tmp_path):
        rng = np.random.default_rng(117)
        op = from_kraus(random_kraus_family(rng, 16, 2))
        path, rho, out = tmp_path / "op.json", tmp_path / "rho.json", tmp_path / "out.json"
        path.write_text(json.dumps(qio.operator_to_dict(op), separators=(",", ":")))  # the smallest layout
        g = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
        qio.save_matrix(rho, g @ g.conj().T / np.trace(g @ g.conj().T).real, kind="density")
        argv = ["chain-cesaro", "--operator", str(path), "--density", str(rho), "--output", str(out)]

        def peak():
            gc.collect(1)
            tracemalloc.start()
            try:
                assert run(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # imports and first-call caches
        # the file's bytes, at 2.6 times the matrix here, would set the peak if read whole
        assert peak() < 2.5 * op.matrix.nbytes


class TestWalkCommand:
    def test_trace_rows_sum_to_one(self, files, capsys):
        assert (
            run(
                [
                    "walk",
                    "--graph",
                    str(files["graph"]),
                    "--operator",
                    str(files["shift"]),
                    "--density",
                    str(files["edge0"]),
                    "--steps",
                    "5",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,node,probability"
        totals = {}
        for line in lines[1:]:
            t, _, p = line.split(",")
            totals[t] = totals.get(t, 0.0) + float(p)
        for total in totals.values():
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_limiting_distribution(self, files, capsys):
        assert (
            run(
                [
                    "walk",
                    "--graph",
                    str(files["graph"]),
                    "--operator",
                    str(files["shift"]),
                    "--density",
                    str(files["edge0"]),
                    "--limiting",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "node,probability"
        values = [float(l.split(",")[1]) for l in lines[1:]]
        np.testing.assert_allclose(values, np.full(3, 1 / 3), atol=1e-8)

    @pytest.mark.parametrize("node", ["1_0", "+1", "\u0661"])
    def test_node_ids_are_ascii_digits(self, files, capsys, node):
        graph = files["tmp"] / "ids.txt"
        graph.write_text(f"0 1\n1 {node}\n2 0\n", encoding="utf-8")
        argv = ["walk", "--graph", str(graph), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        assert run([*argv, "--steps", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"qmarkov: invalid input: {graph}:2: node ids must be integers, got {'1 ' + node!r}\n"


class TestMeasureCommand:
    def test_csv_output(self, files, capsys):
        assert (
            run(
                [
                    "measure",
                    "--measurement",
                    str(files["zmeas"]),
                    "--density",
                    str(files["density"]),
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "word,probability"
        values = dict(l.split(",") for l in lines[1:])
        assert float(values["0"]) == pytest.approx(0.3)
        assert float(values["1"]) == pytest.approx(0.7)

    def test_json_word_depth(self, files, capsys):
        assert (
            run(
                [
                    "measure",
                    "--measurement",
                    str(files["zmeas"]),
                    "--density",
                    str(files["density"]),
                    "--steps",
                    "2",
                    "--format",
                    "json",
                ]
            )
            == 0
        )
        out = json.loads(capsys.readouterr().out)
        assert out["observable"] is True
        dist = {tuple(d["word"]): d["probability"] for d in out["distribution"]}
        assert dist[("0", "0")] == pytest.approx(0.3)
        assert dist[("0", "1")] == pytest.approx(0.0)

    def test_kraus_n_checked_against_matrices(self, files, capsys):
        bad = files["tmp"] / "zmeas_n3.json"
        bad.write_text(json.dumps({**json.loads(files["zmeas"].read_text()), "n": 3}))
        assert run(["measure", "--measurement", str(bad), "--density", str(files["density"])]) == 2
        assert "kraus['0'] has shape (2, 2), expected (3, 3)" in capsys.readouterr().err


class TestOomCommands:
    def test_prob(self, files, capsys):
        assert (
            run(["oom-prob", "--oom", str(files["oom"]), "--word", "ab", "--word", "a"]) == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        values = dict(l.split(",") for l in lines[1:])
        assert float(values["ab"]) == pytest.approx(0.25)
        assert float(values["a"]) == pytest.approx(0.5)

    def test_prob_unknown_symbol(self, files, capsys):
        assert run(["oom-prob", "--oom", str(files["oom"]), "--word", "xy"]) == 2
        assert "unknown symbol" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_prob_unknown_last_word_writes_nothing(self, files, capsys, fmt):
        # every word is mapped to scale indices before any value is formatted
        out = files["tmp"] / "prob.out"
        argv = ["oom-prob", "--oom", str(files["oom"]), "--format", fmt, "--word", "ab", "--word", "", "--word", "abz"]
        assert run([*argv, "--output", str(out)]) == 2
        assert not out.exists()
        assert run(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.count("qmarkov: invalid input: unknown symbol 'z', scale is ('a', 'b')\n") == 2

    def test_prob_integer_symbols(self, files, capsys):
        path = files["tmp"] / "int_oom.json"
        qio.save_oom(
            path,
            ObservableOperatorModel(
                scale=Scale((0, 1)), operators=(np.array([[0.3]]), np.array([[0.7]])), pi=np.array([1.0])
            ),
        )
        argv = ["oom-prob", "--oom", str(path), "--word", "01", "--word", "1,1", "--word", ""]
        assert run(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "word,probability"
        assert [l.split(",")[0] for l in lines[1:]] == ["01", "11", ""]
        for line, expected in zip(lines[1:], (0.3 * 0.7, 0.7 * 0.7, 1.0)):
            assert float(line.split(",")[1]) == pytest.approx(expected, abs=1e-15)
        assert run([*argv, "--format", "json"]) == 0
        rows = json.loads(capsys.readouterr().out)
        assert [r["word"] for r in rows] == [["0", "1"], ["1", "1"], []]
        assert rows[0]["probability"] == pytest.approx(0.21, abs=1e-15)
        for word in ("2", "0,2", "012"):
            assert run(["oom-prob", "--oom", str(path), "--word", word]) == 2
            assert "unknown symbol '2'" in capsys.readouterr().err

    def test_prob_dropped_double_dash_exits_two(self, files, capsys):
        # argparse takes "--" for the end of options and drops it, even from --word=--
        path = files["tmp"] / "dash_oom.json"
        path.write_text(
            json.dumps({"dim": 1, "scale": ["-", "a"], "operators": {"-": [[0.5]], "a": [[0.5]]}, "pi": [1.0]})
        )
        argv = ["oom-prob", "--oom", str(path)]
        for dropped in (["--word=--"], ["--word=a", "--word=--", "--word=a"]):
            assert run([*argv, *dropped]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "qmarkov: invalid input: --word: argparse drops the value '--'; give that word as --word=-,-\n"
            )
        assert run([*argv, "--word=-,-"]) == 0
        assert capsys.readouterr().out == "word,probability\n--,0.25\n"
        for empty in (["--word="], ["--word", ""]):
            assert run([*argv, *empty]) == 0
            assert capsys.readouterr().out == "word,probability\n,1\n"

    def test_prob_word_parts_named_by_text(self):
        assert cli._parse_words(Scale((0, 1)), ["0,1"])[0] == (0, 1)
        assert cli._parse_words(Scale((10, 2)), ["10,2"])[0] == (10, 2)
        assert cli._parse_words(Scale((10, 2)), ["10"])[0] == (10,)
        assert cli._parse_words(Scale(("a", "bc")), ["bc"])[0] == ("bc",)

    def test_rank(self, files, capsys):
        assert run(["oom-rank", "--oom", str(files["oom"]), "--max-length", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["rank"] == 1

    @pytest.mark.parametrize("tol", ["nan", "0", "-1"])
    def test_rank_tol_must_be_positive(self, files, capsys, tol):
        assert run(["oom-rank", "--oom", str(files["oom"]), "--max-length", "3", "--tol", tol]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qmarkov: invalid input: rank_tol must be positive" in captured.err

    def test_symbols_sharing_a_text_exit_two(self, files, capsys):
        path = files["tmp"] / "shared.json"
        path.write_text(json.dumps({"dim": 1, "scale": [1, "1"], "operators": {"1": [[0.5]]}, "pi": [1.0]}))
        assert run(["oom-prob", "--oom", str(path), "--word", "1"]) == 2
        assert "scale symbols 1 and '1' share the JSON key '1'" in capsys.readouterr().err

    def test_lift(self, files, capsys):
        assert run(["oom-lift", "--oom", str(files["oom"])]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["states"] == [["a", 0], ["a", 1], ["b", 0], ["b", 1]]
        assert out["pi"] == [0.25, 0.25, 0.25, 0.25]
        model = qio.load_oom(files["oom"])
        for i, symbol in enumerate(model.scale):  # block row i of symbol i's lifted operator repeats M_i
            selector = np.zeros((2, 2))
            selector[i] = 1.0
            assert out["operators"][symbol] == np.kron(selector, model.operators[i]).tolist()

    def test_entropy(self, files, capsys):
        assert run(["oom-entropy", "--oom", str(files["oom"]), "--t-max", "3"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,entropy_per_symbol,entropy_increment"
        for line in lines[1:]:
            _, avg, inc = line.split(",")
            assert float(avg) == pytest.approx(1.0)
            assert float(inc) == pytest.approx(1.0)


class TestWordCells:
    """A CSV word cell names its word alone and is read back by ``--word``, whatever the symbol texts."""

    SCALE = ("a", "ab", "b", 'q"')

    def _rows(self, out):
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["word", "probability"]
        return rows[1:]

    def test_oom_prob_cells_round_trip(self, tmp_path, capsys):
        path = tmp_path / "oom.json"
        ops = tuple(np.array([[p]]) for p in (0.4, 0.3, 0.2, 0.1))
        qio.save_oom(path, ObservableOperatorModel(scale=Scale(self.SCALE), operators=ops, pi=np.array([1.0])))
        words = [("ab", "b"), ("a", "b", "b"), ("ab",), ('q"', "a"), ()]
        argv = ["oom-prob", "--oom", str(path), "--format", "csv"]
        for word in words:
            argv += ["--word", ",".join(word)]
        assert run(argv) == 0
        rows = self._rows(capsys.readouterr().out)
        assert cli._parse_words(Scale(self.SCALE), [cell for cell, _ in rows]) == words
        assert len({cell for cell, _ in rows}) == len(words)
        for cell, value in rows:
            assert run(["oom-prob", "--oom", str(path), "--word", cell]) == 0
            assert self._rows(capsys.readouterr().out) == [[cell, value]]

    @pytest.mark.parametrize("steps", [1, 2, 3])
    def test_measure_cells_round_trip(self, tmp_path, capsys, steps):
        path, rho = tmp_path / "meas.json", tmp_path / "rho.json"
        kraus = random_kraus_family(np.random.default_rng(2007), 2, len(self.SCALE))
        mats = {s: qio.matrix_to_dict(k) for s, k in zip(self.SCALE, kraus)}
        path.write_text(json.dumps({"n": 2, "scale": list(self.SCALE), "kraus": mats}))
        qio.save_matrix(rho, np.diag([0.3, 0.7]), kind="density")
        assert run(["measure", "--measurement", str(path), "--density", str(rho), "--steps", str(steps)]) == 0
        rows = self._rows(capsys.readouterr().out)
        words = list(itertools.product(self.SCALE, repeat=steps))
        assert cli._parse_words(Scale(self.SCALE), [cell for cell, _ in rows]) == words

    def test_one_character_texts_concatenate(self):
        assert cli._word_cells(["a", "b"])(("a", "b", "b")) == "abb"
        assert cli._word_cells(["a", "ab"])(("ab", "a")) == '"ab,a"'
        assert cli._word_cells(["a", "ab"])(("ab",)) == "ab"
        assert cli._word_cells(["a", 'q"'])(('q"',)) == '"q"""'


def _out(argv) -> str:
    """Stdout of one CLI call, which must succeed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert run(argv) == 0, argv
    return out.getvalue()


def _cell_round_trip(workdir, rng, symbols) -> None:
    """Assert that every word up to length 2 over ``symbols`` reads back from its CSV cell.

    ``oom-prob`` prints all of them, and ``measure --steps`` 1 and 2 those
    of one length.  Each row parses into two cells, the cells of a table
    differ, and ``--word=CELL`` names the same word in ``oom-prob`` JSON,
    whose probability is the value of the ``oom-prob`` CSV row.
    """
    texts, k = [str(s) for s in symbols], len(symbols)
    oom, meas, rho = workdir / "oom.json", workdir / "meas.json", workdir / "rho.json"
    # distinct weights, so the words of one length have distinct probabilities
    weights = {t: [[2 * (i + 1) / (k * (k + 1))]] for i, t in enumerate(texts)}
    oom.write_text(json.dumps({"dim": 1, "scale": symbols, "operators": weights, "pi": [1.0]}))
    kraus = {t: qio.matrix_to_dict(m) for t, m in zip(texts, random_kraus_family(rng, 2, k))}
    meas.write_text(json.dumps({"n": 2, "scale": symbols, "kraus": kraus}))
    qio.save_matrix(rho, np.diag([0.3, 0.7]), kind="density")
    words = [w for n in range(3) for w in itertools.product(texts, repeat=n)]
    tables = [(words, _out(["oom-prob", "--oom", str(oom), *(f"--word={','.join(w)}" for w in words)]))]
    for steps in (1, 2):
        argv = ["measure", "--measurement", str(meas), "--density", str(rho), "--steps", str(steps)]
        tables.append((list(itertools.product(texts, repeat=steps)), _out(argv)))
    for i, (expected, out) in enumerate(tables):
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["word", "probability"] and all(len(row) == 2 for row in rows), rows
        cells = [cell for cell, _ in rows[1:]]
        assert len(cells) == len(set(cells)) == len(expected), cells
        back = json.loads(_out(["oom-prob", "--oom", str(oom), "--format", "json", *(f"--word={c}" for c in cells)]))
        assert [r["word"] for r in back] == [list(w) for w in expected], cells
        if i == 0:
            assert [r["probability"] for r in back] == [float(value) for _, value in rows[1:]], rows


class TestRandomScaleCells:
    """Seeded random scales mix texts a CSV cell must quote with plain and integer ones; every cell reads back."""

    # a lone "-" is left out: argparse reads "--word=--", the cell of the word (-, -), as the end of options
    POOL = ("a", "b", '"', "\n", "\r", " ", "ab", 'a"b', "x\ny", "é", "'", "\"a", 7, 10)

    def test_cells_round_trip(self, tmp_path):
        rng = np.random.default_rng(2025)
        _cell_round_trip(tmp_path, np.random.default_rng(2026), ['"', "\n", "a"])
        broken = []
        for _ in range(300):
            symbols = [self.POOL[i] for i in rng.choice(len(self.POOL), int(rng.integers(1, 5)), replace=False)]
            try:
                _cell_round_trip(tmp_path, rng, symbols)
            except (AssertionError, csv.Error) as exc:  # csv.Error: a row that does not parse
                broken.append((symbols, exc))
        assert not broken, f"{len(broken)} of 300 scales break, the first {broken[0]}"

    @pytest.mark.parametrize("text", ['"', "\r", "\n"])
    def test_quote_and_line_break_texts_comma_join(self, text):
        assert not cli._concatenated([text, "a"]) and not cli._concatenated([text])
        cell = cli._word_cells([text, "a"])((text, "a"))
        assert cell == '"%s,a"' % text.replace('"', '""')
        assert list(csv.reader(io.StringIO(f"{cell},0.5\n"))) == [[f"{text},a", "0.5"]]
        assert cli._parse_words(Scale((text, "a")), [f"{text},a"])[0] == (text, "a")

    def test_empty_text_exits_two(self, tmp_path, capsys):
        oom = tmp_path / "oom.json"
        payload = {"dim": 1, "scale": ["a", ""], "operators": {"a": [[0.5]], "": [[0.5]]}, "pi": [1.0]}
        oom.write_text(json.dumps(payload))
        assert run(["oom-prob", "--oom", str(oom), "--word", ""]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"qmarkov: invalid input: {oom}: scale symbol '' has an empty text" in captured.err


class TestWordCapRefusal:
    """Word lengths whose count has billions of digits are refused by the cap, not by formatting the count."""

    @pytest.fixture(autouse=True)
    def _deadline(self):  # a cap defect would enumerate up to 10^9 words: fail it after 10 s of wall time
        with deadline(10):
            yield

    @pytest.fixture
    def word_files(self, files):
        rng = np.random.default_rng(126)
        path = files["tmp"] / "meas3.json"
        kraus = random_kraus_family(rng, 2, 3)
        path.write_text(
            json.dumps({"n": 2, "scale": list("xyz"), "kraus": {s: qio.matrix_to_dict(k) for s, k in zip("xyz", kraus)}})
        )
        one = files["tmp"] / "one_symbol_oom.json"
        one.write_text(json.dumps({"dim": 1, "scale": ["a"], "operators": {"a": [[1.0]]}, "pi": [1.0]}))
        return {"meas": path, "density": files["density"], "oom": files["oom"], "one": one}

    @pytest.mark.parametrize(
        "argv",
        [
            ["measure", "--measurement", "{meas}", "--density", "{density}", "--steps"],
            ["oom-entropy", "--oom", "{oom}", "--t-max"],
            ["oom-rank", "--oom", "{oom}", "--max-length"],
            ["oom-entropy", "--oom", "{one}", "--t-max"],  # one word per length: 10^9 words in all
        ],
        ids=["measure", "oom-entropy", "oom-rank", "oom-entropy-one-symbol"],
    )
    def test_huge_length_exits_two_with_cap_message(self, word_files, capsys, argv):
        argv = [a.format(**word_files) for a in argv] + [str(10**9)]
        start = time.process_time()
        assert run(argv) == 2
        assert time.process_time() - start < 1.0
        err = capsys.readouterr().err
        assert "word enumeration cap exceeded" in err and "QMARKOV_ENUM_CAP" in err

    def test_one_symbol_length_past_the_cap_exits_two(self, files, capsys, monkeypatch):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", "100")
        path = files["tmp"] / "one_symbol.json"
        path.write_text(json.dumps({"dim": 1, "scale": ["a"], "operators": {"a": [[1.0]]}, "pi": [1.0]}))
        assert run(["oom-entropy", "--oom", str(path), "--t-max", "101"]) == 2
        assert "word enumeration cap exceeded: 101 words > 100" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "1e6", "0", "-5"])
    def test_invalid_cap_setting_exits_two_naming_it(self, files, capsys, monkeypatch, value):
        monkeypatch.setenv("QMARKOV_ENUM_CAP", value)
        argv = ["measure", "--measurement", str(files["zmeas"]), "--density", str(files["density"]), "--steps", "2"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err == f"qmarkov: invalid input: QMARKOV_ENUM_CAP must be a positive integer, got '{value}'\n"


def _subparsers() -> dict:
    """The subparsers of the parser :func:`run` uses, by command name."""
    (action,) = [a for a in cli._parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def _checked_option_cases():
    """(command, flag, dest, value): each count option at -1 and 10**21, each --tol at nan, -1 and inf."""
    for name, sub in _subparsers().items():
        for action in sub._actions:
            if action.type is int or action.dest == "tol":
                flag = action.option_strings[-1]
                for value in ["-1", str(10**21)] if action.type is int else ["nan", "-1", "inf"]:
                    yield pytest.param(name, flag, action.dest, value, id=f"{name}{flag}={value}")


def _modes(command) -> list[list[str]]:
    """Every mode of a subcommand: each --format choice, with and without each flag."""
    actions = _subparsers()[command]._actions
    formats = [[["--format", f] for f in a.choices] for a in actions if a.dest == "format"]
    flags = [[[], a.option_strings] for a in actions if isinstance(a, argparse._StoreTrueAction)]
    return [list(itertools.chain.from_iterable(parts)) for parts in itertools.product(*formats, *flags)]


class TestCliContract:
    def test_malformed_file_exit_two(self, files, capsys):
        bad = files["tmp"] / "broken.json"
        bad.write_text("{oops")
        code = run(
            ["chain-cesaro", "--operator", str(bad), "--density", str(files["density"])]
        )
        assert code == 2
        assert "malformed JSON" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, flag, depth",
        [("oom-rank", "--oom", 3000), ("measure", "--measurement", 3000), ("bell", "--table", 3000),
         ("chain-cesaro", "--operator", 100000)],
    )
    def test_nesting_past_the_parser_depth_exits_two(self, files, capsys, command, flag, depth):
        deep = files["tmp"] / "deep.json"
        deep.write_text("[" * depth + "]" * depth)
        rest = {
            "oom-rank": ["--max-length", "2"],
            "measure": ["--density", str(files["density"])],
            "bell": [],
            "chain-cesaro": ["--density", str(files["density"])],
        }[command]
        assert run([command, flag, str(deep), *rest]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"qmarkov: invalid input: {deep}: malformed JSON (maximum recursion depth")

    def test_missing_file_exit_two(self, files, capsys):
        code = run(
            [
                "chain-cesaro",
                "--operator",
                str(files["tmp"] / "nope.json"),
                "--density",
                str(files["density"]),
            ]
        )
        assert code == 2

    def test_completeness_violation_cites_invariant(self, files, capsys):
        bad = files["tmp"] / "bad_kraus.json"
        bad.write_text(
            json.dumps(
                {"n": 2, "kraus": [qio.matrix_to_dict(np.diag([1.0, 0.999]).astype(complex))]}
            )
        )
        code = run(
            ["chain-cesaro", "--operator", str(bad), "--density", str(files["density"])]
        )
        assert code == 2
        assert "sum up to the identity" in capsys.readouterr().err

    def test_malformed_kraus_file_exit_two(self, files, capsys):
        swap = qio.matrix_to_dict(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        cases = (
            ({"kraus": 5}, "'kraus' must be a non-empty list"),
            ({"n": None, "kraus": [swap]}, "'n' must be a positive integer"),
            ({"kraus": [qio.matrix_to_dict(np.eye(k) * w) for k, w in ((2, 0.6), (3, 0.8))]}, "kraus[1] has shape (3, 3)"),
        )
        bad = files["tmp"] / "bad_kraus_list.json"
        for payload, message in cases:
            bad.write_text(json.dumps(payload))
            code = run(
                ["chain-cesaro", "--operator", str(bad), "--density", str(files["density"])]
            )
            assert code == 2
            assert message in capsys.readouterr().err

    @pytest.mark.parametrize("n", [2.0, True, "2", 0, None])
    def test_kraus_n_must_be_positive_integer(self, files, capsys, n):
        channel = files["tmp"] / "kraus_n.json"
        channel.write_text(json.dumps({**json.loads(files["swap"].read_text()), "n": n}))
        meas = files["tmp"] / "meas_n.json"
        meas.write_text(json.dumps({**json.loads(files["zmeas"].read_text()), "n": n}))
        density = ["--density", str(files["density"])]
        for argv in (["chain-cesaro", "--operator", str(channel)], ["measure", "--measurement", str(meas)]):
            assert run([*argv, *density]) == 2
            captured = capsys.readouterr()
            assert f"'n' must be a positive integer, got {n!r}" in captured.err
            assert captured.out == ""

    @pytest.mark.parametrize(
        "command, options",
        [
            ("chain-cesaro", ["--max-doublings", "-1"]),
            ("chain-cesaro", ["--tol", "nan"]),
            ("chain-cesaro", ["--tol", "0"]),
            ("walk", ["--limiting", "--tol", "nan"]),
            ("walk", ["--limiting", "--tol", "-1"]),
        ],
    )
    def test_cesaro_arguments_that_cannot_succeed_exit_two(self, files, capsys, command, options):
        if command == "walk":
            argv = ["walk", "--graph", str(files["graph"]), "--operator", str(files["shift"])]
            argv += ["--density", str(files["edge0"])]
        else:
            argv = ["chain-cesaro", "--operator", str(files["swap"]), "--density", str(files["density"])]
        out_path = files["tmp"] / "never.json"
        for output in ([], ["--output", str(out_path)]):
            assert run([*argv, *options, *output]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert "qmarkov: invalid input: " in captured.err
            assert "must be" in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize(
        "command, options, message",
        [
            pytest.param(
                "bell", ["--tol", "nan"], "qmarkov: invalid input: tol must be nonnegative and finite, got nan", id="bell-tol"
            ),
            pytest.param(
                "measure", ["--format", "json", "--tol", "nan"], "qmarkov: invalid input: tol must be nonnegative", id="measure-tol"
            ),
            pytest.param(
                "chain-cesaro", ["--tol", "inf"], "qmarkov: invalid input: tol must be positive and finite", id="cesaro-tol"
            ),
            pytest.param(
                "chain-cesaro", ["--max-doublings", str(10**21)], f"max_doublings = {10**21}", id="cesaro-doublings"
            ),
            pytest.param("chain-evolve", ["--steps", str(10**21)], f"steps = {10**21}", id="evolve-steps"),
        ],
    )
    def test_values_that_reversed_an_answer_exit_two(self, files, capsys, command, options, message):
        # each default run answers (Bell satisfied, outcomes observable, an average); the drawn
        # value once turned that answer around or ran without end, with exit 0
        table = files["tmp"] / "satisfied.json"
        table.write_text(json.dumps({"states": ["u", "v"], "functions": {k: [1, -1] for k in "XYZ"}, "q": [0.5, 0.5]}))
        density = ["--density", str(files["density"])]
        argv = {
            "bell": ["bell", "--table", str(table)],
            "measure": ["measure", "--measurement", str(files["zmeas"]), *density, "--format", "json"],
            "chain-cesaro": ["chain-cesaro", "--operator", str(files["swap"]), *density],
            "chain-evolve": ["chain-evolve", "--operator", str(files["swap"]), *density, "--steps", "2"],
        }[command]
        assert run(argv) == 0
        out = capsys.readouterr().out
        if command != "chain-evolve":
            assert json.loads(out).get({"bell": "satisfied", "measure": "observable"}.get(command), True) is True
        out_path = files["tmp"] / "never.txt"
        for output in ([], ["--output", str(out_path)]):
            assert run([*argv, *options, *output]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert message in captured.err
            assert "Traceback" not in captured.err and "islice" not in captured.err
        assert not out_path.exists()

    @pytest.mark.parametrize("command, flag, dest, value", list(_checked_option_cases()))
    def test_options_the_mode_does_not_read_are_checked(self, files, capsys, command, flag, dest, value):
        # an option the chosen mode does not read is checked all the same: walk --tol without
        # --limiting, walk --steps with it and measure --tol with CSV output
        density = ["--density", str(files["density"])]
        argv = {
            "measure": ["measure", "--measurement", str(files["zmeas"]), *density],
            "chain-evolve": ["chain-evolve", "--operator", str(files["swap"]), *density, "--steps", "2"],
            "chain-cesaro": ["chain-cesaro", "--operator", str(files["swap"]), *density],
            "walk": ["walk", "--graph", str(files["graph"]), "--operator", str(files["shift"])]
            + ["--density", str(files["edge0"]), "--steps", "2"],
            "bell": ["bell", "--builtin", "five-state"],
            "oom-rank": ["oom-rank", "--oom", str(files["oom"]), "--max-length", "2"],
            "oom-entropy": ["oom-entropy", "--oom", str(files["oom"]), "--t-max", "2"],
        }[command]
        out_path = files["tmp"] / "never.txt"
        for mode in _modes(command):
            assert run([*argv, *mode]) == 0, mode
            capsys.readouterr()
            for output in ([], ["--output", str(out_path)]):
                assert run([*argv, *mode, flag, value, *output]) == 2, (mode, output)
                captured = capsys.readouterr()
                assert captured.out == ""
                assert dest in captured.err and "Traceback" not in captured.err
                assert not out_path.exists()

    def test_malformed_oom_and_operator_fields_exit_two(self, files, capsys):
        oom = {"dim": 1, "scale": ["a"], "operators": {"a": [[1.0]]}, "pi": [1.0]}
        rank = ["oom-rank", "--max-length", "1", "--oom"]
        cesaro = ["chain-cesaro", "--density", str(files["density"]), "--operator"]
        cases = (
            ({**oom, "dim": None}, rank, "'dim' must be a positive integer"),
            ({**oom, "dim": 1.5}, rank, "'dim' must be a positive integer"),
            ({**oom, "scale": [{}]}, rank, "strings or integers"),
            ({"n": None, "basis": qio.BASIS_TAG, "matrix": [[1.0]]}, cesaro, "'n' must be a positive integer"),
        )
        bad = files["tmp"] / "bad_model.json"
        for payload, argv, message in cases:
            bad.write_text(json.dumps(payload))
            assert run([*argv, str(bad)]) == 2
            assert message in capsys.readouterr().err

    def test_dimension_mismatch_exit_two(self, files, capsys):
        code = run(
            [
                "walk",
                "--graph",
                str(files["graph"]),
                "--operator",
                str(files["id_op"]),
                "--density",
                str(files["density"]),
                "--steps",
                "1",
            ]
        )
        assert code == 2
        assert "dimension mismatch" in capsys.readouterr().err

    def test_malformed_graph_json_names_path(self, files, capsys):
        bad = files["tmp"] / "bad_graph.json"
        bad.write_text('{"nodes": 3, edges: []}')
        argv = ["walk", "--graph", str(bad), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        assert run([*argv, "--steps", "1"]) == 2
        assert f"{bad}: malformed JSON (Expecting property name" in capsys.readouterr().err

    def test_non_number_in_large_operator_reported_short(self, files, capsys):
        # one null among the 331776 entries of an n=24 operator file
        n = 24
        matrix = np.eye(n * n).tolist()
        matrix[3][17] = None
        bad = files["tmp"] / "null_op.json"
        bad.write_text(json.dumps({"n": n, "basis": qio.BASIS_TAG, "matrix": matrix}))
        density = files["tmp"] / "d24.json"
        qio.save_matrix(density, np.eye(n, dtype=complex) / n, kind="density")
        assert run(["chain-cesaro", "--operator", str(bad), "--density", str(density)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) < 1024
        assert err.startswith(f"qmarkov: invalid input: {bad}: ")
        assert "None at [3][17]" in err

    def test_undecodable_graph_names_path(self, files, capsys):
        bad = files["tmp"] / "utf16_graph.txt"
        bad.write_bytes(b"\xff\xfe0 1\n")
        argv = ["walk", "--graph", str(bad), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        assert run([*argv, "--steps", "1"]) == 2
        assert capsys.readouterr().err.startswith(f"qmarkov: invalid input: {bad}: 'utf-8' codec can't decode")

    def test_input_too_large_exit_two(self, files, capsys):
        # 10**17 nodes: the node values alone would need exbibytes, beyond any
        # address space, so numpy refuses the allocation before touching memory
        huge = files["tmp"] / "huge_graph.json"
        huge.write_text(json.dumps({"nodes": 10**17, "edges": [[0, 1], [1, 2], [2, 0]]}))
        argv = ["walk", "--graph", str(huge), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        for mode in (["--steps", "1"], ["--limiting"]):
            assert run([*argv, *mode]) == 2
            assert "qmarkov: input too large: Unable to allocate" in capsys.readouterr().err
        # 10**30 nodes overflow numpy's index type before any allocation
        huge.write_text(json.dumps({"nodes": 10**30, "edges": [[0, 1], [1, 2], [2, 0]]}))
        assert run([*argv, "--limiting"]) == 2
        assert "qmarkov: input too large: Python int too large" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", [["--steps", "1"], ["--limiting"]])
    def test_node_count_past_node_values_names_the_field(self, files, capsys, mode):
        # 2**62 float64 node values take more bytes than numpy's index type counts
        huge = files["tmp"] / "huge_graph.json"
        huge.write_text(json.dumps({"nodes": 2**62, "edges": [[0, 1], [1, 2], [2, 0]]}))
        argv = ["walk", "--graph", str(huge), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        assert run([*argv, *mode]) == 2
        assert capsys.readouterr().err.startswith(f"qmarkov: invalid input: {huge}: 'nodes' must be at most ")

    def test_count_field_past_index_type_names_the_file(self, files, capsys):
        big = files["tmp"] / "bign.json"
        big.write_text(json.dumps({"n": 2**63, "basis": qio.BASIS_TAG, "matrix": [[1.0]]}))
        assert run(["chain-cesaro", "--operator", str(big), "--density", str(files["density"])]) == 2
        assert capsys.readouterr().err == (
            f"qmarkov: input too large: Python int too large for numpy's index type: 'n' = {2**63} (in {big})\n"
        )

    def test_deterministic_output(self, files, capsys):
        rng = np.random.default_rng(113)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        path = files["tmp"] / "chan.json"
        qio.save_operator(path, op)
        argv = [
            "chain-cesaro",
            "--operator",
            str(path),
            "--density",
            str(files["density"]),
        ]
        assert run(argv) == 0
        first = capsys.readouterr().out
        assert run(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_output_file(self, files):
        out_path = files["tmp"] / "result.json"
        assert (
            run(
                [
                    "bell",
                    "--builtin",
                    "five-state",
                    "--output",
                    str(out_path),
                ]
            )
            == 0
        )
        out = json.loads(out_path.read_text())
        assert out["satisfied"] is False

    def test_distribution_rows_sum_to_one(self, files, capsys):
        assert (
            run(
                [
                    "measure",
                    "--measurement",
                    str(files["zmeas"]),
                    "--density",
                    str(files["density"]),
                    "--steps",
                    "3",
                ]
            )
            == 0
        )
        lines = capsys.readouterr().out.strip().splitlines()
        total = sum(float(l.split(",")[1]) for l in lines[1:])
        assert total == pytest.approx(1.0, abs=1e-9)


def _old_csv(header, rows):
    """CSV text as the CLI formatted it before row templates: f"{x:.17g}" cells joined per row."""
    return "\n".join([header] + [",".join(cells) for cells in rows]) + "\n"


def _g17(x):
    return f"{float(x):.17g}"


def _csv_word_cell(word, symbols):
    """A word's CSV cell: the symbol texts concatenated when every text of the scale is one
    character, else the texts joined by commas, as csv.writer writes that cell."""
    texts = [str(s) for s in word]
    if all(len(str(s)) == 1 for s in symbols):
        return "".join(texts)
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow([",".join(texts), ""])
    return out.getvalue()[: -len(",\n")]


def _measure_expected(dist, symbols, steps):
    """Expected ``measure`` CSV text and JSON payload, one word of ``dist`` at a time."""
    return {
        "csv": _old_csv("word,probability", [(_csv_word_cell(w, symbols), _g17(p)) for w, p in dist.items()]),
        "json": {
            "steps": steps,
            "scale": [str(s) for s in symbols],
            "observable": True,
            "distribution": [{"word": [str(s) for s in w], "probability": p} for w, p in dist.items()],
        },
    }


class TestOutputBytes:
    """CSV and JSON bytes of the table commands equal the per-value formatting they replaced."""

    @pytest.fixture
    def inputs(self, tmp_path):
        rng = np.random.default_rng(114)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        rho = g @ g.conj().T
        rho /= np.trace(rho).real
        rho[0, 1] = rho[1, 0] = 0.0  # exact zeros, so signed zeros reach the output
        paths = {"op": tmp_path / "op.json", "rho": tmp_path / "rho.json", "meas": tmp_path / "meas.json"}
        op = from_kraus(random_kraus_family(rng, 3, 2))
        qio.save_operator(paths["op"], op)
        qio.save_matrix(paths["rho"], rho, kind="density")
        rho = qio.load_density(paths["rho"])
        kraus = random_kraus_family(rng, 3, 3)
        symbols = ["x", "yy", 7]
        paths["meas"].write_text(
            json.dumps(
                {"n": 3, "scale": symbols, "kraus": {str(s): qio.matrix_to_dict(k) for s, k in zip(symbols, kraus)}}
            )
        )
        paths["graph"] = tmp_path / "g.txt"
        paths["graph"].write_text("0 1\n1 2\n2 0\n")
        graph = qio.load_graph(paths["graph"])
        op = qio.load_channel(paths["op"])  # the saved operator is a dense file, stepped as the CLI steps it
        densities = evolve(MarkovChain(operator=op, start=rho), 5)
        path = np.concatenate([block.copy() for block in _path_blocks(op, coords(rho), 5)])
        probabilities = walk(graph, op, rho, 5).node_probabilities
        meas = KrausMeasurement(scale=Scale(tuple(symbols)), kraus=tuple(kraus))
        measure = {t: _measure_expected(word_distribution(meas, rho, t), symbols, t) for t in (0, 1, 3)}
        expected = {
            # CSV prints the path kernel's own coordinates
            "chain-evolve-csv": _old_csv(
                "t,coordinate_index,value",
                [(str(t), str(k), _g17(v)) for t, c in enumerate(path) for k, v in enumerate(c)],
            ),
            "chain-evolve-json": [
                {
                    "t": t,
                    "matrix": {
                        "rows": 3,
                        "cols": 3,
                        "entries": [[float(z.real), float(z.imag)] for z in d.reshape(-1)],
                        "kind": "hermitian",
                    },
                }
                for t, d in enumerate(densities)
            ],
            "walk-csv": _old_csv(
                "t,node,probability",
                [(str(t), str(v), _g17(p)) for t, probs in enumerate(probabilities) for v, p in enumerate(probs)],
            ),
            "walk-json": [
                {"t": t, "probabilities": [float(p) for p in probs]} for t, probs in enumerate(probabilities)
            ],
            "measure-csv": measure[3]["csv"],
            "measure-json": measure[3]["json"],
            "measure-by-steps": measure,
        }
        return paths, expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("command", ["chain-evolve", "walk", "measure"])
    def test_bytes_match_per_value_formatting(self, inputs, capsys, command, fmt):
        paths, expected = inputs
        chain_args = ["--operator", str(paths["op"]), "--density", str(paths["rho"]), "--steps", "5"]
        args = {
            "chain-evolve": chain_args,
            "walk": ["--graph", str(paths["graph"]), *chain_args],
            "measure": ["--measurement", str(paths["meas"]), "--density", str(paths["rho"]), "--steps", "3"],
        }[command]
        assert run([command, *args, "--format", fmt]) == 0
        want = expected[f"{command}-{fmt}"]
        if fmt == "json":
            want = json.dumps(want, indent=2) + "\n"
        assert capsys.readouterr().out == want

    # the empty word prints as "" in CSV and [] in JSON
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("steps", [0, 1])
    def test_measure_bytes_at_short_lengths(self, inputs, capsys, steps, fmt):
        paths, expected = inputs
        args = ["--measurement", str(paths["meas"]), "--density", str(paths["rho"]), "--steps", str(steps)]
        assert run(["measure", *args, "--format", fmt]) == 0
        want = expected["measure-by-steps"][steps][fmt]
        if fmt == "json":
            want = json.dumps(want, indent=2) + "\n"
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_measure_bytes_across_word_blocks(self, inputs, capsys, monkeypatch, fmt):
        # blocks of 3 words: each block's labels must continue where the last block's stopped
        monkeypatch.setattr(qmeasurement, "WORD_BLOCK", 2)
        paths, _ = inputs
        meas, rho = qio.load_measurement(paths["meas"]), qio.load_density(paths["rho"])
        want = _measure_expected(word_distribution(meas, rho, 3), list(meas.scale), 3)[fmt]
        args = ["--measurement", str(paths["meas"]), "--density", str(paths["rho"]), "--steps", "3"]
        assert run(["measure", *args, "--format", fmt]) == 0
        if fmt == "json":
            want = json.dumps(want, indent=2) + "\n"
        assert capsys.readouterr().out == want

    # 27 words: ROW_CHUNK + 1, ROW_CHUNK and ROW_CHUNK - 1 of them
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("chunk", [26, 27, 28])
    def test_measure_bytes_at_chunk_edges(self, inputs, capsys, monkeypatch, chunk, fmt):
        monkeypatch.setattr(cli, "ROW_CHUNK", chunk)
        paths, expected = inputs
        args = ["--measurement", str(paths["meas"]), "--density", str(paths["rho"]), "--steps", "3"]
        assert run(["measure", *args, "--format", fmt]) == 0
        want = expected["measure-by-steps"][3][fmt]
        if fmt == "json":
            want = json.dumps(want, indent=2) + "\n"
        assert capsys.readouterr().out == want

    @pytest.mark.parametrize("offset", [-1, 0, 1])
    def test_oom_prob_bytes_at_chunk_edges(self, tmp_path, capsys, offset):
        rng = np.random.default_rng(116)
        model = random_oom(rng, 3, ("a", "b", "c"))
        path = tmp_path / "oom.json"
        qio.save_oom(path, model)
        words = ["".join(rng.choice(list("abc"), size=8)) for _ in range(cli.ROW_CHUNK + offset)]
        values = word_probabilities(model, [tuple(w) for w in words]).tolist()
        argv = ["oom-prob", "--oom", str(path), *("--word=" + w for w in words)]
        assert run([*argv, "--format", "csv"]) == 0
        assert capsys.readouterr().out == _old_csv("word,probability", [(w, _g17(p)) for w, p in zip(words, values)])
        assert run([*argv, "--format", "json"]) == 0
        records = [{"word": list(w), "probability": p} for w, p in zip(words, values)]
        assert capsys.readouterr().out == json.dumps(records, indent=2) + "\n"

    # PATH_BLOCK = 32 rows: 32, 33 and 34 rows end inside, at and past a block's end
    @pytest.mark.parametrize("steps", [31, 32, 33])
    def test_step_tables_at_block_edges(self, inputs, capsys, steps):
        paths, _ = inputs
        op, rho = qio.load_channel(paths["op"]), qio.load_density(paths["rho"])
        path = np.concatenate([block.copy() for block in _path_blocks(op, coords(rho), steps)])
        probabilities = walk(qio.load_graph(paths["graph"]), op, rho, steps).node_probabilities
        chain_args = ["--operator", str(paths["op"]), "--density", str(paths["rho"]), "--steps", str(steps)]
        assert run(["chain-evolve", *chain_args]) == 0
        rows = [(str(t), str(k), _g17(v)) for t, c in enumerate(path) for k, v in enumerate(c)]
        assert capsys.readouterr().out == _old_csv("t,coordinate_index,value", rows)
        assert run(["walk", "--graph", str(paths["graph"]), *chain_args]) == 0
        rows = [(str(t), str(v), _g17(p)) for t, probs in enumerate(probabilities) for v, p in enumerate(probs)]
        assert capsys.readouterr().out == _old_csv("t,node,probability", rows)

    # the empty word, a repeat and lengths 0 to 4: records of no one form, written item by item
    MIXED_WORDS = ["", "a", "ab", "cab", "a", "bbcc", "c"]

    @pytest.fixture
    def json_args(self, inputs, tmp_path):
        """Arguments of each command whose JSON no other byte test covers."""
        paths, _ = inputs
        rng = np.random.default_rng(2711)
        oom = tmp_path / "hmm.json"
        qio.save_oom(oom, hmm_to_oom(*random_hmm(rng, 3, ("a", "b", "c"))))
        table = tmp_path / "table.json"
        q = rng.random(5) + 0.05
        q /= q.sum()  # a classical distribution, so every pair is observable
        functions = {"X": [-1, 1, -1, -1, -1], "Y": [1, 1, -1, 1, -1], "Z": [1, 1, 1, -1, -1]}
        table.write_text(json.dumps({"states": ["w1", "w2", "w3", "w4", "w5"], "functions": functions, "q": q.tolist()}))
        chain_args = ["--operator", str(paths["op"]), "--density", str(paths["rho"])]
        return {
            "bell-builtin": ["bell", "--builtin", "five-state"],
            "bell-table": ["bell", "--table", str(table)],
            "feynman": ["feynman", "--sx", "0.5", "--sy", "-0.25", "--sz", "-0.25"],
            "chain-cesaro": ["chain-cesaro", *chain_args],
            "oom-rank": ["oom-rank", "--oom", str(oom), "--max-length", "3"],
            "oom-lift": ["oom-lift", "--oom", str(oom)],
            "oom-entropy": ["oom-entropy", "--oom", str(oom), "--t-max", "4", "--format", "json"],
            "walk-limiting": ["walk", "--graph", str(paths["graph"]), *chain_args, "--limiting", "--format", "json"],
            "oom-prob-mixed": ["oom-prob", "--oom", str(oom), "--format", "json", *(f"--word={w}" for w in self.MIXED_WORDS)],
        }

    @pytest.mark.parametrize(
        "name",
        [
            "bell-builtin",
            "bell-table",
            "feynman",
            "chain-cesaro",
            "oom-rank",
            "oom-lift",
            "oom-entropy",
            "walk-limiting",
            "oom-prob-mixed",
        ],
    )
    def test_json_bytes_equal_json_dumps(self, json_args, capsys, name):
        assert run(json_args[name]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), indent=2) + "\n"

    def test_mixed_length_words_share_no_form(self, json_args, capsys):
        assert run(json_args["oom-prob-mixed"]) == 0
        records = json.loads(capsys.readouterr().out)
        assert [r["word"] for r in records] == [list(w) for w in self.MIXED_WORDS]
        assert qio._json_form(records, "\n  ") is None


def _bad_density(path, n):
    """A trace-1 matrix file whose matrix is not Hermitian, so no density loader accepts it."""
    m = np.eye(n, dtype=complex) / n
    m[0, -1] = 0.25
    path.write_text(json.dumps(qio.matrix_to_dict(m)))
    return path


class TestStreamedOutput:
    """Tables leave as the kernels yield them, through one writer."""

    @pytest.fixture
    def chain_files(self, tmp_path):
        rng = np.random.default_rng(115)
        # n = 4: a density's 16 [re, im] pairs format through 32-tuples, which
        # CPython keeps no free list for (it does below 20 items)
        op = from_kraus(random_kraus_family(rng, 4, 2))
        paths = {"op": tmp_path / "op.json", "rho": tmp_path / "rho.json", "bad": tmp_path / "bad.json"}
        qio.save_operator(paths["op"], op)
        _bad_density(paths["bad"], 4)
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        qio.save_matrix(paths["rho"], g @ g.conj().T / np.trace(g @ g.conj().T).real, kind="density")
        return paths, op

    def test_evolve_csv_rows_are_path_blocks(self, chain_files, capsys, monkeypatch):
        monkeypatch.setattr(qchain, "PATH_BLOCK", 4)
        paths, _ = chain_files
        steps = 25  # > n^2 = 16, so rows past the first block are blocked products; the last block is partial
        op, rho = qio.load_channel(paths["op"]), qio.load_density(paths["rho"])  # a dense operator file
        path = np.concatenate([b.copy() for b in _path_blocks(op, coords(rho), steps)])
        assert len(path) == steps + 1
        argv = ["chain-evolve", "--operator", str(paths["op"]), "--density", str(paths["rho"])]
        assert run([*argv, "--steps", str(steps)]) == 0
        rows = [(str(t), str(k), _g17(v)) for t, c in enumerate(path) for k, v in enumerate(c)]
        assert capsys.readouterr().out == _old_csv("t,coordinate_index,value", rows)

    @pytest.mark.parametrize("fmt, steps", [("csv", 2000), ("json", 200)])
    def test_peak_memory_flat_in_steps(self, chain_files, fmt, steps):
        paths, _ = chain_files
        out = paths["op"].parent / "out.txt"
        argv = ["chain-evolve", "--operator", str(paths["op"]), "--density", str(paths["rho"]), "--format", fmt]

        def peak(count):
            gc.collect(1)  # every run starts with empty young generations
            tracemalloc.start()
            try:
                assert run([*argv, "--steps", str(count), "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(10 * steps)  # imports and first-call caches
        small, large = peak(steps), peak(10 * steps)
        assert out.read_text().count("\n") > 10 * steps
        assert large <= 1.25 * small, (small, large)

    # n^2 = 16 entries a density: 1, 5 and 64 densities a chunk; 5 cuts the 32-row path blocks, 64 holds two
    @pytest.mark.parametrize("row_chunk, chunks", [(16, 71), (80, 15), (1024, 2)])
    def test_evolve_json_chunks_span_path_blocks(self, chain_files, capsys, monkeypatch, row_chunk, chunks):
        monkeypatch.setattr(cli, "ROW_CHUNK", row_chunk)
        paths, _ = chain_files
        steps = 70  # 71 densities in path blocks of 32, 32 and 7
        op, rho = qio.load_channel(paths["op"]), qio.load_density(paths["rho"])
        densities = evolve(MarkovChain(operator=op, start=rho), steps)
        payload = [{"t": t, "matrix": qio.matrix_to_dict(d, kind="hermitian")} for t, d in enumerate(densities)]
        written, emit = [], cli._emit

        def counted(args, texts):
            written.extend(texts)
            emit(args, written)

        monkeypatch.setattr(cli, "_emit", counted)
        argv = ["chain-evolve", "--operator", str(paths["op"]), "--density", str(paths["rho"]), "--format", "json"]
        assert run([*argv, "--steps", str(steps)]) == 0
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"
        assert len(written) == chunks + 2  # each chunk of densities, then the list's "]" and the final newline

    def test_evolve_json_peak_within_chunks_at_n16(self, tmp_path):
        # 4 densities a chunk, 1.3 MB measured; a chunk per 32-density path block peaked at 3.9 MB
        rng = np.random.default_rng(126)
        op, rho, out = tmp_path / "op16.json", tmp_path / "rho16.json", tmp_path / "out.json"
        qio.save_operator(op, from_kraus(random_kraus_family(rng, 16, 2)))
        qio.save_matrix(rho, random_quantum_density(16, rng), kind="density")
        argv = ["chain-evolve", "--operator", str(op), "--density", str(rho), "--format", "json"]

        def peak(steps):
            gc.collect(1)
            tracemalloc.start()
            try:
                assert run([*argv, "--steps", str(steps), "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(2)  # imports and first-call caches
        assert peak(200) < 2 * 2**20
        assert out.read_text().count('"t": ') == 201

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_walk_peak_memory_flat_in_steps(self, files, fmt):
        out = files["tmp"] / "walk.txt"
        argv = ["walk", "--graph", str(files["graph"]), "--operator", str(files["shift"]),
                "--density", str(files["edge0"]), "--format", fmt, "--output", str(out)]

        def peak(steps):
            gc.collect(1)
            tracemalloc.start()
            try:
                assert run([*argv, "--steps", str(steps)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(20000)  # imports and first-call caches
        small, large = peak(2000), peak(20000)
        assert out.read_text().count("\n") > 20000
        assert large <= 1.25 * small, (small, large)

    # a writer that formatted each 2^15-word block whole peaked at about 5.7 MB (CSV) and 26.6 MB (JSON)
    @pytest.mark.parametrize("fmt, bound", [("csv", 2.5 * 2**20), ("json", 8 * 2**20)])
    def test_measure_peak_memory_bounded_by_chunks(self, tmp_path, fmt, bound):
        rng = np.random.default_rng(117)
        meas, rho, out = tmp_path / "meas.json", tmp_path / "rho.json", tmp_path / "out.txt"
        kraus = dict(zip("abc", map(qio.matrix_to_dict, random_kraus_family(rng, 2, 3))))
        meas.write_text(json.dumps({"n": 2, "scale": list("abc"), "kraus": kraus}))
        qio.save_matrix(rho, random_quantum_density(2, rng), kind="density")
        argv = ["measure", "--measurement", str(meas), "--density", str(rho), "--steps", "10", "--format", fmt]

        def peak():
            gc.collect(1)
            tracemalloc.start()
            try:
                assert run([*argv, "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # imports and first-call caches
        assert peak() < bound
        assert out.read_text().count("\n") > 3**10

    def test_measure_chunk_memory_within_one_word_block(self, tmp_path):
        # beyond the 3^9 values, a CSV run holds one chunk of rows: its cells,
        # floats and text take under 256 bytes a row (about 182 measured), and
        # a chunk of ROW_CHUNK rows stays within one word block
        rng = np.random.default_rng(117)
        meas, rho, out = tmp_path / "meas.json", tmp_path / "rho.json", tmp_path / "out.csv"
        kraus = dict(zip("abc", map(qio.matrix_to_dict, random_kraus_family(rng, 2, 3))))
        meas.write_text(json.dumps({"n": 2, "scale": list("abc"), "kraus": kraus}))
        qio.save_matrix(rho, random_quantum_density(2, rng), kind="density")
        argv = ["measure", "--measurement", str(meas), "--density", str(rho), "--steps", "9", "--format", "csv"]

        def peak():
            gc.collect(1)
            tracemalloc.start()
            try:
                assert run([*argv, "--output", str(out)]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak()  # imports and first-call caches
        assert peak() - 8 * 3**9 < 256 * cli.ROW_CHUNK <= 8 * qmeasurement.WORD_BLOCK
        assert out.read_text().count("\n") == 3**9 + 1

    @pytest.mark.parametrize(
        "case", ["chain-evolve", "walk", "measure", "chain-evolve-negative-steps", "walk-huge-graph-csv"]
    )
    def test_invalid_input_writes_nothing(self, files, chain_files, capsys, case):
        paths, _ = chain_files
        out = files["tmp"] / "never.txt"
        # 2**62 nodes: numpy refuses the first block's node array without allocating it
        huge = files["tmp"] / "huge_graph.json"
        huge.write_text(json.dumps({"nodes": 2**62, "edges": [[0, 1], [1, 0]]}))
        evolve_args = ["chain-evolve", "--operator", str(paths["op"]), "--density"]
        argv = {
            "chain-evolve": [*evolve_args, str(paths["bad"]), "--steps", "40"],
            "walk": ["walk", "--graph", str(files["graph"]), "--operator", str(files["shift"]),
                     "--density", str(paths["bad"]), "--steps", "5"],
            "measure": ["measure", "--measurement", str(files["zmeas"]),
                        "--density", str(_bad_density(files["tmp"] / "bad2.json", 2)), "--steps", "2"],
            # the JSON path checks --steps only when the writer draws the first block
            "chain-evolve-negative-steps": [*evolve_args, str(paths["rho"]), "--steps", "-1", "--format", "json"],
            # the CSV header leaves with the first block of rows, not before it
            "walk-huge-graph-csv": ["walk", "--graph", str(huge), "--operator", str(files["id_op"]),
                                    "--density", str(files["density"]), "--steps", "1"],
        }[case]
        assert run([*argv, "--output", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "qmarkov: invalid input" in captured.err
        assert not out.exists()

    def test_real_process_output(self, chain_files, capsys):
        paths, _ = chain_files
        args = ["chain-evolve", "--operator", str(paths["op"]), "--steps", "2000", "--density"]
        assert run([*args, str(paths["rho"])]) == 0
        want = capsys.readouterr().out

        def real_run(density, *extra, **streams):
            return fresh_python("-m", "qmarkov.cli", *args, str(density), *extra, **streams)

        redirected = paths["op"].parent / "stdout.txt"
        with open(redirected, "w") as stdout:
            done = real_run(paths["rho"], stdout=stdout, stderr=subprocess.PIPE)
        assert done.returncode == 0, done.stderr
        assert redirected.read_text() == want
        written, never = paths["op"].parent / "written.txt", paths["op"].parent / "never.txt"
        done = real_run(paths["rho"], "--output", str(written), capture_output=True)
        assert (done.returncode, done.stdout) == (0, b"")
        assert written.read_text() == want
        done = real_run(paths["bad"], "--output", str(never), capture_output=True)
        assert (done.returncode, done.stdout) == (2, b"")
        assert b"qmarkov: invalid input" in done.stderr
        assert not never.exists()


class TestParserReuse:
    """``run`` builds its parser once per process, and one run leaves nothing behind for the next."""

    @staticmethod
    def _outcome(argv, capsys, out_file):
        """Exit code, stdout, stderr and ``--output`` text of one run."""
        try:
            code = run(argv)
        except SystemExit as exc:  # argparse usage errors and --help
            code = exc.code
        captured = capsys.readouterr()
        written = out_file.read_text() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        return code, captured.out, captured.err, written

    @staticmethod
    def _sequence(files):
        oom, out = str(files["oom"]), str(files["tmp"] / "out.txt")
        measure = ["measure", "--measurement", str(files["zmeas"]), "--density", str(files["density"]), "--steps", "2"]
        cesaro = ["chain-cesaro", "--operator", str(files["swap"]), "--density", str(files["density"])]
        return [
            ["oom-prob", "--oom", oom, "--word", "ab", "--word", "a"],  # an append action
            ["oom-prob", "--oom", oom, "--word", "b"],
            [*measure, "--output", out],
            measure,
            [*measure, "--format", "json"],
            [*cesaro, "--tol", "0.1"],
            cesaro,
            ["oom-rank", "--oom", oom],  # usage error: --max-length is required
            ["measure", "--help"],
        ]

    def test_built_once(self, files, monkeypatch):
        built = []
        build = cli.build_parser
        monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
        cli._parser.cache_clear()
        try:
            for argv in self._sequence(files)[:3]:
                assert run(argv) == 0
        finally:
            cli._parser.cache_clear()
        assert len(built) == 1

    def test_not_built_at_import(self):
        fresh_python("-c", "import qmarkov.cli as c; assert c._parser.cache_info().currsize == 0", check=True)

    @pytest.mark.parametrize("order", ["forward", "reversed"])
    def test_runs_leak_no_state(self, files, capsys, monkeypatch, order):
        out_file = files["tmp"] / "out.txt"
        sequence = self._sequence(files)
        if order == "reversed":
            sequence.reverse()
        with monkeypatch.context() as m:
            m.setattr(cli, "_parser", cli.build_parser)  # a fresh parser for every run
            fresh = [self._outcome(argv, capsys, out_file) for argv in sequence]
        shared = [self._outcome(argv, capsys, out_file) for argv in sequence]
        assert shared == fresh
        assert sorted(code for code, *_ in fresh) == [0] * 8 + [2]  # --help exits 0, the usage error 2

    def test_every_help_renders(self, capsys):
        parser = cli.build_parser()
        (action,) = [a for a in parser._actions if a.dest == "command"]
        assert "qmarkov" in parser.format_help()
        for name, sub in action.choices.items():
            assert sub.format_help().startswith(f"usage: qmarkov {name}")
            with pytest.raises(SystemExit) as done:
                run([name, "--help"])
            assert done.value.code == 0 and capsys.readouterr().out == sub.format_help()


_STORE = "_StoreAction"
_HELP = (("-h", "--help"), "help", None, argparse.SUPPRESS, None, False, "_HelpAction", "show this help message and exit")
_OUTPUT = (("--output",), "output", None, None, None, False, _STORE, "output path (default: standard output)")
_FORMAT = (("--format",), "format", None, "csv", ("csv", "json"), False, _STORE, "output format")
_OPERATOR = (("--operator",), "operator", None, None, None, True, _STORE, "operator or Kraus JSON file")
_START = (("--density",), "density", None, None, None, True, _STORE, "start density JSON file")
_OOM = (("--oom",), "oom", None, None, None, True, _STORE, "OOM JSON file")


class TestOptionContract:
    """Every subcommand's options: (flags, dest, type, default, choices, required, action class, help), in any order."""

    COMMANDS = {
        "measure": ("outcome/word distribution of a measurement", [
            (("--measurement",), "measurement", None, None, None, True, _STORE, "measurement JSON file"),
            (("--density",), "density", None, None, None, True, _STORE, "density JSON file"),
            (("--steps",), "steps", int, 1, None, False, _STORE, "word length (default 1)"),
            (("--tol",), "tol", float, SIGN_TOL, None, False, _STORE, "observability tolerance"),
            _FORMAT,
        ]),
        "chain-evolve": ("iterate a Markov chain, emitting coordinates", [
            _OPERATOR,
            _START,
            (("--steps",), "steps", int, None, None, True, _STORE, "number of steps"),
            _FORMAT,
        ]),
        "chain-cesaro": ("Cesaro average of a Markov chain", [
            _OPERATOR,
            _START,
            (("--tol",), "tol", float, CESARO_TOL, None, False, _STORE, "stationarity residual target"),
            (("--max-doublings",), "max_doublings", int, CESARO_MAX_DOUBLINGS, None, False, _STORE,
             "horizon doublings to try"),
        ]),
        "walk": ("quantum walk on a directed graph", [
            (("--graph",), "graph", None, None, None, True, _STORE, "graph file ('u v' lines or JSON)"),
            _OPERATOR,
            _START,
            (("--steps",), "steps", int, 0, None, False, _STORE, "number of steps"),
            (("--limiting",), "limiting", None, False, None, False, "_StoreTrueAction",
             "emit the limiting node distribution"),
            (("--tol",), "tol", float, CESARO_TOL, None, False, _STORE, "Cesaro residual target (with --limiting)"),
            _FORMAT,
        ]),
        "bell": ("Bell inequality check on a hidden-state table", [
            (("--builtin",), "builtin", None, None, ("five-state",), False, _STORE, "named built-in instance"),
            (("--table",), "table", None, None, None, False, _STORE, "table JSON file with functions X, Y, Z"),
            (("--tol",), "tol", float, BELL_TOL, None, False, _STORE, "inequality slack"),
        ]),
        "feynman": ("two-spin average table as a Markov state", [
            ((flag,), flag[2:], float, None, None, True, _STORE, None) for flag in ("--sx", "--sy", "--sz")
        ]),
        "oom-prob": ("word probabilities of an OOM", [
            _OOM,
            (("--word",), "word", None, None, None, True, "_AppendAction",
             "word (single-character symbols concatenated, or comma-separated); repeatable"),
            _FORMAT,
        ]),
        "oom-rank": ("numerical rank of the truncated prediction matrix", [
            _OOM,
            (("--max-length",), "max_length", int, None, None, True, _STORE, "word length bound"),
            (("--tol",), "tol", float, RANK_TOL, None, False, _STORE, "relative singular value cutoff"),
        ]),
        "oom-lift": ("hidden-state lift of an OOM", [_OOM]),
        "oom-entropy": ("block entropies of an OOM process", [
            _OOM,
            (("--t-max",), "t_max", int, None, None, True, _STORE, "largest word length"),
            _FORMAT,
        ]),
    }

    @staticmethod
    def _row(action) -> tuple:
        choices = None if action.choices is None else tuple(action.choices)
        return (tuple(action.option_strings), action.dest, action.type, action.default, choices, action.required,
                type(action).__name__, action.help)

    def test_commands_and_their_help(self):
        parser = cli.build_parser()
        (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        helps = {choice.dest: choice.help for choice in action._choices_actions}
        assert helps == {name: help_text for name, (help_text, _) in self.COMMANDS.items()}

    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_option_table(self, command):
        sub = _subparsers()[command]
        expected = [_HELP, _OUTPUT, *self.COMMANDS[command][1]]
        assert sorted(map(self._row, sub._actions), key=repr) == sorted(expected, key=repr)
        groups = [(group.required, [a.dest for a in group._group_actions]) for group in sub._mutually_exclusive_groups]
        assert groups == ([(True, ["builtin", "table"])] if command == "bell" else [])
        assert sub._defaults == {"func": getattr(cli, "_cmd_" + command.replace("-", "_"))}


class TestWalkNodeValueLimit:
    """A graph whose node values numpy's index type cannot count exits 2 naming the node count."""

    CASES = [
        ("json", np.iinfo(np.intp).max // 8, ["--steps", "1"]),  # the most nodes io.load_graph accepts
        ("json", 10**17, ["--steps", "40"]),
        ("lines", 2**62 + 1, ["--limiting"]),
        ("lines", 2**62 + 1, ["--steps", "1"]),
    ]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("kind, nodes, mode", CASES)
    def test_exit_two_naming_the_node_count(self, files, capsys, kind, nodes, mode, fmt):
        graph = files["tmp"] / f"huge_graph.{'json' if kind == 'json' else 'txt'}"
        if kind == "json":
            graph.write_text(json.dumps({"nodes": nodes, "edges": [[0, 1], [1, 2], [2, 0]]}))
        else:
            graph.write_text(f"0 1\n1 {nodes - 1}\n{nodes - 1} 0\n")
        out_path = files["tmp"] / "walk_out.txt"
        argv = ["walk", "--graph", str(graph), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        assert run([*argv, *mode, "--format", fmt, "--output", str(out_path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("qmarkov: invalid input: node values of ")
        assert f" x {nodes} (rows x nodes)" in captured.err
        assert "array is too big" not in captured.err
        assert not out_path.exists()


class TestWalkRefusalNamesTheGraph:
    """The walk's node-value refusal ends with the ``--graph`` file; other walk errors do not name it."""

    @pytest.mark.parametrize("mode", [["--limiting"], ["--steps", "1"]])
    def test_line_graph_with_node_id_two_to_the_62(self, files, capsys, mode):
        graph = files["tmp"] / "huge_graph.txt"
        graph.write_text(f"0 1\n1 {2**62}\n{2**62} 0\n")
        argv = ["walk", "--graph", str(graph), "--operator", str(files["shift"]), "--density", str(files["edge0"])]
        assert run([*argv, *mode]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qmarkov: invalid input: node values of ")
        assert f" x {2**62 + 1} (rows x nodes)" in err
        assert err.endswith(f" (graph {graph})\n")

    def test_other_walk_errors_do_not_name_the_graph(self, files, capsys):
        argv = ["walk", "--graph", str(files["graph"]), "--operator", str(files["id_op"]),
                "--density", str(files["edge0"]), "--steps", "1"]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert "dimension mismatch" in err and "(graph " not in err


class TestRecoveredRoute:
    """A dense n = 24 file of Choi rank 2 steps as a recovered Kraus stack, the same in every run."""

    def test_two_runs_print_the_same_bytes(self, tmp_path, capsys, monkeypatch):
        rng = np.random.default_rng(144)
        matrix = qoperators.kraus_superop(random_kraus_family(rng, 24, 2))
        op_path, rho_path = tmp_path / "op.json", tmp_path / "rho.json"
        qio.save_operator(op_path, qoperators.MarkovOperator(n=24, matrix=matrix))
        qio.save_matrix(rho_path, random_quantum_density(24, rng), kind="density")
        recoveries, recover = [], qoperators._recover_kraus

        def counted(k, n):
            recoveries.append(recover(k, n))
            return recoveries[-1]

        monkeypatch.setattr(qoperators, "_recover_kraus", counted)
        argv = ["chain-evolve", "--operator", str(op_path), "--density", str(rho_path), "--steps", "100"]
        outs = []
        for _ in range(2):
            assert run(argv) == 0
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        assert len(recoveries) == 2 and all(stack is not None and len(stack) == 2 for stack in recoveries)


class TestClosedPipe:
    """A reader that closes stdout early ends the run with exit 2 and one line, ``qmarkov: output closed``."""

    def test_reader_gone_after_one_line(self, files):
        # 2**16 rows, far more than a pipe holds, so the writer is still writing when the reader goes
        argv = ["-m", "qmarkov.cli", "measure", "--measurement", str(files["zmeas"]), "--density",
                str(files["density"]), "--steps", "16"]
        with fresh_python(*argv, start=subprocess.Popen, stdout=subprocess.PIPE, stderr=subprocess.PIPE) as proc:
            assert proc.stdout.readline() == b"word,probability\n"
            proc.stdout.close()
            err = proc.stderr.read()
            code = proc.wait(timeout=120)
        assert (code, err) == (2, b"qmarkov: output closed\n")

    def test_reader_gone_before_a_short_output(self):
        # the whole output fits stdout's buffer, so the pipe shows closed only when it is flushed
        read, write = os.pipe()
        os.close(read)
        try:
            done = fresh_python("-m", "qmarkov.cli", "bell", "--builtin", "five-state", stdout=write, stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (done.returncode, done.stderr) == (2, b"qmarkov: output closed\n")
