import json
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import random_hermitian, random_kraus_family
from qmarkov import (
    KrausMeasurement,
    MarkovMeasurement,
    MarkovOperator,
    ObservableOperatorModel,
    Scale,
    from_kraus,
    identity_operator,
    lift_hidden_states,
)
from qmarkov import io as qio


class TestMatrixRoundTrip:
    def test_bit_exact(self, tmp_path):
        rng = np.random.default_rng(110)
        m = random_hermitian(rng, 4)
        path = tmp_path / "m.json"
        qio.save_matrix(path, m, kind="hermitian")
        loaded = qio.load_matrix(path)
        np.testing.assert_array_equal(loaded, m)

    def test_density_kind_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        qio.save_matrix(path, np.eye(2), kind=None)
        payload = json.loads(path.read_text())
        payload["kind"] = "density"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="trace 1"):
            qio.load_matrix(path)

    def test_hermitian_kind_validated(self, tmp_path):
        path = tmp_path / "bad.json"
        qio.save_matrix(path, np.array([[0.0, 1.0], [0.0, 0.0]]), kind=None)
        payload = json.loads(path.read_text())
        payload["kind"] = "hermitian"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="not Hermitian"):
            qio.load_matrix(path)

    def test_entry_count_checked(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]}))
        with pytest.raises(ValueError, match="entries"):
            qio.load_matrix(path)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ValueError, match="malformed JSON"):
            qio.load_matrix(path)

    @pytest.mark.parametrize(
        "text", ["[" * 3000 + "]" * 3000, '{"a": ' * 3000 + "1" + "}" * 3000], ids=["lists", "objects"]
    )
    def test_nesting_past_the_parser_depth_is_malformed(self, tmp_path, text):
        path = tmp_path / "deep.json"
        path.write_text(text)
        with pytest.raises(ValueError, match=re.escape(f"{path}: malformed JSON (maximum recursion depth")):
            qio.load_matrix(path)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match=re.escape("unknown kind 'unitary' (expected 'hermitian' or 'density')")):
            qio.matrix_from_dict({"rows": 1, "cols": 1, "entries": [[1.0, 0.0]], "kind": "unitary"})

    VALID = {"rows": 1, "cols": 2, "entries": [[1.0, 0.0], [0.0, 0.0]]}

    @pytest.mark.parametrize("field", ["rows", "cols"])
    @pytest.mark.parametrize("value", [None, "1", 1.5, True, 0])
    def test_shape_must_be_positive_integers(self, field, value):
        with pytest.raises(ValueError, match=f"'{field}' must be a positive integer"):
            qio.matrix_from_dict({**self.VALID, field: value})

    @pytest.mark.parametrize("entries", [[[1.0, None], [0.0, 0.0]], [[1.0, "0"], [0.0, 0.0]], [[1.0], [0.0]], None, {}])
    def test_entries_must_be_number_pairs(self, entries):
        with pytest.raises(ValueError, match="entries"):
            qio.matrix_from_dict({**self.VALID, "entries": entries})

    def test_ragged_entries_rejected(self):
        with pytest.raises(ValueError, match="expected numbers in rows of equal length"):
            qio.matrix_from_dict({**self.VALID, "entries": [[1.0, 0.0], [0.0]]})

    def test_signed_zeros_and_subnormals_kept(self):
        m = qio.matrix_from_dict({"rows": 1, "cols": 2, "entries": [[-0.0, -0.0], [5e-324, -1.0]]})
        assert np.signbit(m.real).tolist() == [[True, False]]
        assert np.signbit(m.imag).tolist() == [[True, True]]
        assert m[0, 1] == complex(5e-324, -1.0)
        assert qio.matrix_to_dict(m)["entries"] == [[-0.0, -0.0], [5e-324, -1.0]]


class TestOperatorRoundTrip:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(111)
        op = from_kraus(random_kraus_family(rng, 2, 2))
        path = tmp_path / "op.json"
        qio.save_operator(path, op)
        loaded = qio.load_operator(path)
        np.testing.assert_array_equal(loaded.matrix, op.matrix)
        assert loaded.n == op.n

    def test_numpy_integer_n_round_trip(self, tmp_path):
        # the size is stored as a Python int, which JSON can write and np.int64 is not
        op = MarkovOperator(n=np.int64(1), matrix=[[1.0]])
        assert type(op.n) is int and op.n == 1
        path = tmp_path / "op.json"
        qio.save_operator(path, op)
        loaded = qio.load_operator(path)
        assert loaded.n == 1
        np.testing.assert_array_equal(loaded.matrix, [[1.0]])

    def test_basis_tag_checked(self, tmp_path):
        path = tmp_path / "op.json"
        qio.save_operator(path, identity_operator(2))
        payload = json.loads(path.read_text())
        payload["basis"] = "something-else"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="unsupported basis"):
            qio.load_operator(path)


class TestChannelLoading:
    def test_kraus_file(self, tmp_path):
        rng = np.random.default_rng(112)
        mats = random_kraus_family(rng, 2, 2)
        path = tmp_path / "kraus.json"
        path.write_text(
            json.dumps({"n": 2, "kraus": [qio.matrix_to_dict(m) for m in mats]})
        )
        op = qio.load_channel(path)
        np.testing.assert_allclose(op.matrix, from_kraus(mats).matrix, atol=1e-15)

    def test_incomplete_kraus_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        bad = np.diag([1.0, 0.999]).astype(complex)
        path.write_text(json.dumps({"n": 2, "kraus": [qio.matrix_to_dict(bad)]}))
        with pytest.raises(ValueError, match="sum up to the identity"):
            qio.load_channel(path)


    def test_ragged_kraus_without_n_names_the_entry(self, tmp_path):
        path = tmp_path / "mixed.json"
        mats = [np.eye(2) * 0.6, np.eye(3) * 0.8]
        path.write_text(json.dumps({"kraus": [qio.matrix_to_dict(m) for m in mats]}))
        with pytest.raises(ValueError, match=r"mixed\.json: kraus\[1\] has shape \(3, 3\), expected \(2, 2\)$"):
            qio.load_channel(path)


class TestMeasurementLoading:
    def test_kraus_variant(self, tmp_path):
        path = tmp_path / "meas.json"
        payload = {
            "n": 2,
            "scale": ["0", "1"],
            "kraus": {
                "0": qio.matrix_to_dict(np.diag([1.0, 0.0]).astype(complex)),
                "1": qio.matrix_to_dict(np.diag([0.0, 1.0]).astype(complex)),
            },
        }
        path.write_text(json.dumps(payload))
        meas = qio.load_measurement(path)
        assert isinstance(meas, KrausMeasurement)
        assert meas.scale.symbols == ("0", "1")

    def test_operator_variant(self, tmp_path):
        path = tmp_path / "meas.json"
        payload = {
            "scale": ["a", "b"],
            "operators": {
                "a": (0.5 * np.eye(4)).tolist(),
                "b": (0.5 * np.eye(4)).tolist(),
            },
        }
        path.write_text(json.dumps(payload))
        meas = qio.load_measurement(path)
        assert isinstance(meas, MarkovMeasurement)
        assert meas.n == 2

    def test_missing_family(self, tmp_path):
        path = tmp_path / "meas.json"
        path.write_text(json.dumps({"scale": ["a"]}))
        with pytest.raises(ValueError, match="'kraus' or 'operators'"):
            qio.load_measurement(path)

    @pytest.mark.parametrize(
        "family",
        [
            {"n": 1, "kraus": {"1": qio.matrix_to_dict(np.eye(1, dtype=complex))}},
            {"operators": {"1": [[1.0]]}},
        ],
        ids=["kraus", "markov"],
    )
    def test_symbols_sharing_a_text_not_loaded(self, tmp_path, family):
        path = tmp_path / "meas.json"
        path.write_text(json.dumps({"scale": [1, "1"], **family}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: scale symbols 1 and '1' share the JSON key '1'")):
            qio.load_measurement(path)


class TestGraphLoading:
    def test_text_three_cycle(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2\n2 0\n")
        g = qio.load_graph(path)
        assert g.node_count == 3
        assert g.edges == ((0, 1), (1, 2), (2, 0))

    def test_json_graph(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": 4, "edges": [[0, 1], [1, 0]]}))
        g = qio.load_graph(path)
        assert g.node_count == 4
        assert g.edge_count == 2

    def test_blank_and_comment_lines_skipped(self, tmp_path):
        from qmarkov import DirectedGraph

        path = tmp_path / "g.txt"
        path.write_text("# a three-cycle\n\n0 1\n   \n  # 1 2 is next\n1 2\n2 0\n\n")
        assert qio.load_graph(path) == DirectedGraph(node_count=3, edges=((0, 1), (1, 2), (2, 0)))
        path.write_text("# no edges\n\n")
        with pytest.raises(ValueError, match="graph file contains no edges"):
            qio.load_graph(path)

    def test_bad_line_reported(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\n1 2 3\n")
        with pytest.raises(ValueError, match=":2:"):
            qio.load_graph(path)

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"nodes": None, "edges": [[0, 1]]}, "'nodes' must be a positive integer"),
            ({"nodes": "3", "edges": [[0, 1]]}, "'nodes' must be a positive integer"),
            ({"nodes": 3, "edges": None}, "'edges' must be a list"),
            ({"nodes": 3, "edges": [[0, 1.0]]}, "'edges' must be a list"),
            ({"nodes": 3, "edges": [[0, 1, 2]]}, "'edges' must be a list"),
            ({"nodes": 3, "edges": [[True, 0]]}, "'edges' must be a list"),
            ({"nodes": 3}, "needs 'nodes' and 'edges'"),
        ],
    )
    def test_json_fields_checked(self, tmp_path, payload, message):
        path = tmp_path / "g.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=message):
            qio.load_graph(path)

    def test_round_trip(self, tmp_path):
        from qmarkov import DirectedGraph

        g = DirectedGraph(node_count=3, edges=((0, 1), (1, 2)))
        path = tmp_path / "g.json"
        qio.save_graph(path, g)
        assert qio.load_graph(path) == g

    def test_numpy_integer_node_count_round_trip(self, tmp_path):
        from qmarkov import DirectedGraph

        g = DirectedGraph(node_count=np.int64(3), edges=((np.int64(0), np.int64(1)), (1, np.int32(2))))
        assert {type(x) for x in (g.node_count, *g.edges[0], *g.edges[1])} == {int}
        path = tmp_path / "g.json"
        qio.save_graph(path, g)
        assert qio.load_graph(path) == DirectedGraph(node_count=3, edges=((0, 1), (1, 2)))

    @pytest.mark.parametrize("node", ["1_0", "+1", "\u0661", "\uff11"])
    def test_node_ids_are_ascii_digits(self, tmp_path, node):
        # int() reads 1_0 as 10, +1 as 1 and Arabic-Indic or fullwidth digits as numbers
        path = tmp_path / "g.txt"
        path.write_text(f"0 {node}\n{node} 0\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}:1: node ids must be integers, got {'0 ' + node!r}")):
            qio.load_graph(path)

    def test_negative_node_id_reaches_the_graph_check(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 -1\n")
        with pytest.raises(ValueError, match=re.escape(f"{path}: edge endpoint must be nonnegative, got -1")):
            qio.load_graph(path)


BIG = 2**63  # one past numpy's largest index


class TestCountFieldOverflow:
    @pytest.mark.parametrize(
        "field, load, payload",
        [
            ("n", qio.load_operator, {"n": BIG, "basis": qio.BASIS_TAG, "matrix": [[1.0]]}),
            ("n", qio.load_channel, {"n": BIG, "kraus": [{"rows": 1, "cols": 1, "entries": [[1.0, 0.0]]}]}),
            ("rows", qio.load_matrix, {"rows": BIG, "cols": 1, "entries": [[1.0, 0.0]]}),
            ("cols", qio.load_matrix, {"rows": 1, "cols": BIG, "entries": [[1.0, 0.0]]}),
            ("nodes", qio.load_graph, {"nodes": BIG, "edges": [[0, 1]]}),
            ("dim", qio.load_oom, {"dim": BIG, "scale": ["a"], "operators": {"a": [[1.0]]}, "pi": [1.0]}),
        ],
    )
    def test_message_names_the_file(self, tmp_path, field, load, payload):
        # the message keeps numpy's start, which the CLI's too-large report shows first
        path = tmp_path / "bign.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(OverflowError) as info:
            load(path)
        assert str(info.value) == f"Python int too large for numpy's index type: {field!r} = {BIG} (in {path})"


class TestGraphNodeLimit:
    LIMIT = np.iinfo(np.intp).max // 8  # the most float64 node values whose bytes numpy can count

    @pytest.mark.parametrize("nodes", [LIMIT + 1, 2**62, np.iinfo(np.intp).max])
    def test_count_past_node_values_names_the_field(self, tmp_path, nodes):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": nodes, "edges": [[0, 1]]}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: 'nodes' must be at most {self.LIMIT}, got {nodes}")):
            qio.load_graph(path)

    def test_count_at_limit_loads(self, tmp_path):
        path = tmp_path / "g.json"
        path.write_text(json.dumps({"nodes": self.LIMIT, "edges": [[0, 1]]}))
        assert qio.load_graph(path).node_count == self.LIMIT


class TestOomRoundTrip:
    def test_round_trip(self, tmp_path):
        model = ObservableOperatorModel(
            scale=Scale(("a", "b")),
            operators=(np.array([[0.5, 0.5], [0.0, 0.0]]), np.array([[0.0, 0.0], [0.5, 0.5]])),
            pi=np.array([0.5, 0.5]),
        )
        path = tmp_path / "oom.json"
        qio.save_oom(path, model)
        loaded = qio.load_oom(path)
        assert loaded.scale == model.scale
        np.testing.assert_array_equal(loaded.pi, model.pi)
        for a, b in zip(loaded.operators, model.operators):
            np.testing.assert_array_equal(a, b)

    def test_shape_mismatch_reported(self, tmp_path):
        path = tmp_path / "oom.json"
        path.write_text(
            json.dumps({"dim": 2, "scale": ["a"], "operators": {"a": [[1.0]]}, "pi": [1.0, 0.0]})
        )
        with pytest.raises(ValueError, match="shape"):
            qio.load_oom(path)

    VALID = {"dim": 1, "scale": ["a"], "operators": {"a": [[1.0]]}, "pi": [1.0]}

    @pytest.mark.parametrize("dim", [None, 1.5, True, 0, -1, "1", 1.0])
    def test_dim_must_be_positive_integer(self, dim):
        with pytest.raises(ValueError, match="'dim' must be a positive integer"):
            qio.oom_from_dict({**self.VALID, "dim": dim})

    @pytest.mark.parametrize("symbol", [{"x": 1}, ["a"], None, 1.5, True])
    def test_symbols_must_be_strings_or_integers(self, symbol):
        with pytest.raises(ValueError, match="scale symbols must be strings or integers"):
            qio.oom_from_dict({**self.VALID, "scale": [symbol]})

    def test_integer_symbols_accepted(self):
        model = qio.oom_from_dict({**self.VALID, "scale": [7], "operators": {"7": [[1.0]]}})
        assert model.scale.symbols == (7,)

    @pytest.mark.parametrize(
        "field, value", [("operators", {"a": [[{}]]}), ("pi", [10**400]), ("pi", "x"), ("pi", [None, 1.0])]
    )
    def test_non_numeric_entries_rejected(self, field, value):
        with pytest.raises(ValueError, match="expected numbers"):
            qio.oom_from_dict({**self.VALID, field: value})

    def test_non_finite_pi_rejected(self):
        payload = {"dim": 2, "scale": ["a"], "operators": {"a": np.eye(2).tolist()}, "pi": [np.inf, -np.inf]}
        with pytest.raises(ValueError, match="non-finite"):
            qio.oom_from_dict(payload)

    # 1 and "1" are distinct symbols with one text, and a JSON key is text only
    SHARED = ObservableOperatorModel(
        scale=Scale((1, "1")), operators=(np.array([[0.3]]), np.array([[0.7]])), pi=np.array([1.0])
    )
    SHARED_MESSAGE = r"scale symbols 1 and '1' share the JSON key '1'"

    def test_symbols_sharing_a_text_not_saved(self, tmp_path):
        path = tmp_path / "oom.json"
        with pytest.raises(ValueError, match=self.SHARED_MESSAGE):
            qio.save_oom(path, self.SHARED)
        assert not path.exists()
        with pytest.raises(ValueError, match=self.SHARED_MESSAGE):
            qio.lift_to_dict(lift_hidden_states(self.SHARED))

    def test_symbols_sharing_a_text_not_loaded(self, tmp_path):
        path = tmp_path / "oom.json"
        path.write_text(json.dumps({"dim": 1, "scale": [1, "1"], "operators": {"1": [[0.5]]}, "pi": [1.0]}))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + self.SHARED_MESSAGE):
            qio.load_oom(path)


class TestStateTable:
    def test_load(self, tmp_path):
        path = tmp_path / "table.json"
        payload = {
            "states": ["w1", "w2", "w3", "w4", "w5"],
            "functions": {
                "X": [-1, 1, -1, -1, -1],
                "Y": [1, 1, -1, 1, -1],
                "Z": [1, 1, 1, -1, -1],
            },
            "q": [-1 / 3, 1 / 3, 1 / 3, 1 / 3, 1 / 3],
        }
        path.write_text(json.dumps(payload))
        space, functions, state = qio.load_state_table(path)
        assert len(space) == 5
        assert set(functions) == {"X", "Y", "Z"}
        assert functions["X"].values == (-1, 1, -1, -1, -1)
        assert state.values.sum() == pytest.approx(1.0, abs=1e-12)

    def test_bad_state_sum(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(
            json.dumps({"states": ["a"], "functions": {"X": [1]}, "q": [0.5]})
        )
        with pytest.raises(ValueError, match="sum to 1"):
            qio.load_state_table(path)


@pytest.mark.parametrize(
    "load, payload, message",
    [
        (qio.load_operator, {"n": 1, "basis": qio.BASIS_TAG, "matrix": [[2.0]]}, "not trace preserving"),
        (qio.load_channel, {"n": 1, "kraus": [{"rows": 1, "cols": 1, "entries": [[0.5, 0.0]]}]}, "identity"),
        (qio.load_measurement, {"scale": ["a"], "operators": {"a": [[2.0]]}}, "not a Markov operator"),
        (qio.load_oom, {"dim": 1, "scale": ["a"], "operators": {"a": [[2.0]]}, "pi": [1.0]}, "column sums 1"),
        (qio.load_state_table, {"states": ["a"], "functions": {}, "q": [0.5]}, "sum to 1"),
        (qio.load_graph, {"nodes": 3, "edges": [[0, 5]]}, "out of range"),
    ],
    ids=["operator", "kraus", "measurement", "oom", "state-table", "graph"],
)
def test_constructor_violation_names_file(tmp_path, load, payload, message):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=message) as caught:
        load(path)
    assert str(caught.value).startswith(f"{path}: ")



ROOT_HALF = qio.matrix_to_dict(np.array([[0.5**0.5]]))  # two of them make a complete Kraus pair on H_1


@pytest.mark.parametrize(
    "load, payload, symbol",
    [
        (qio.load_measurement, {"scale": ["a", "b,c"], "operators": {"a": [[0.5]], "b,c": [[0.5]]}}, "b,c"),
        (qio.load_measurement, {"n": 1, "scale": ["a", "b,c"], "kraus": {"a": ROOT_HALF, "b,c": ROOT_HALF}}, "b,c"),
        (qio.load_oom, {"dim": 1, "scale": ["a", "b,c"], "operators": {"a": [[0.5]], "b,c": [[0.5]]}, "pi": [1.0]}, "b,c"),
        (qio.load_oom, {"dim": 1, "scale": [",", "a"], "operators": {",": [[0.5]], "a": [[0.5]]}, "pi": [1.0]}, ","),
    ],
    ids=["markov-measurement", "kraus-measurement", "oom", "oom-bare-comma"],
)
def test_symbol_text_with_a_comma_not_loaded(tmp_path, load, payload, symbol):
    # --word and CSV word cells split on commas, so no word over such a symbol could be named
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(f"{path}: scale symbol {symbol!r} holds a comma")):
        load(path)
    path.write_text(json.dumps(payload).replace(json.dumps(symbol), '"x"'))
    load(path)  # the same model under a comma-free text loads


# an empty text would name the empty word, and --word and CSV cells split on a comma
UNNAMEABLE = [("", "has an empty text"), ("b,c", "holds a comma")]


@pytest.mark.parametrize("text, fault", UNNAMEABLE, ids=["empty", "comma"])
def test_unnameable_symbol_text_not_saved(tmp_path, text, fault):
    model = ObservableOperatorModel(
        scale=Scale(("a", text)), operators=(np.array([[0.5]]), np.array([[0.5]])), pi=np.array([1.0])
    )
    path = tmp_path / "oom.json"
    message = re.escape(f"scale symbol {text!r} {fault}")
    with pytest.raises(ValueError, match=message):
        qio.save_oom(path, model)
    assert not path.exists()
    with pytest.raises(ValueError, match=message):
        qio.lift_to_dict(lift_hidden_states(model))


@pytest.mark.parametrize(
    "load, payload",
    [
        (qio.load_measurement, {"scale": ["a", ""], "operators": {"a": [[0.5]], "": [[0.5]]}}),
        (qio.load_measurement, {"n": 1, "scale": ["a", ""], "kraus": {"a": ROOT_HALF, "": ROOT_HALF}}),
        (qio.load_oom, {"dim": 1, "scale": ["a", ""], "operators": {"a": [[0.5]], "": [[0.5]]}, "pi": [1.0]}),
    ],
    ids=["markov-measurement", "kraus-measurement", "oom"],
)
def test_empty_symbol_text_not_loaded(tmp_path, load, payload):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match=re.escape(f"{path}: scale symbol '' has an empty text")):
        load(path)


def _whole_text_load(path, channel: bool):
    """``load_channel`` (or ``load_operator``) as it reads the file whole: one text, one ``json.loads``."""
    with qio._within(path):
        d = qio._read_json(path)
        if channel and isinstance(d, dict) and "kraus" in d:
            return from_kraus(qio._kraus_list(d))
        return qio.operator_from_dict(d)


def _outcome(load, *args):
    """What ``load(*args)`` returns, or the exception it raises."""
    try:
        return load(*args)
    except Exception as exc:  # every error type and message is compared
        return exc


def _assert_same(got, want):
    if isinstance(want, Exception):
        assert (type(got), str(got)) == (type(want), str(want))
    else:
        assert isinstance(got, MarkovOperator) and got.n == want.n
        assert got.matrix.dtype == want.matrix.dtype and got.matrix.shape == want.matrix.shape
        np.testing.assert_array_equal(got.matrix.view(np.int64), want.matrix.view(np.int64))


def _channel_rows(seed: int, n: int) -> list:
    rng = np.random.default_rng(seed)
    return from_kraus(random_kraus_family(rng, n, 1 + seed % 3)).matrix.tolist()


INT64 = st.integers(min_value=-(2**63), max_value=2**63 - 1)
NUMBERS = st.floats() | INT64 | st.integers(min_value=-(2**70), max_value=2**70)
ITEMS = NUMBERS | st.booleans() | st.none() | st.text(max_size=2) | st.lists(st.floats(), max_size=2)
MATRICES = st.one_of(
    st.builds(_channel_rows, st.integers(0, 2**16), st.integers(1, 3)),  # valid operators
    st.integers(1, 4).flatmap(lambda c: st.lists(st.lists(NUMBERS, min_size=c, max_size=c), min_size=1, max_size=4)),
    st.lists(st.lists(NUMBERS, min_size=1, max_size=3), min_size=2, max_size=3),  # ragged rows
    st.lists(st.lists(ITEMS, max_size=3), max_size=3),  # empty and nested rows, non-numbers
    ITEMS | st.dictionaries(st.text(max_size=2), ITEMS, max_size=2),
)
EXTRAS = st.dictionaries(
    st.sampled_from(["note", "kraus", "extra"]),
    st.one_of(
        st.just("\u00e9"),  # a non-ASCII text
        st.just(int(qio._PLACEHOLDER)),  # the decoder's own stand-in
        st.just({"matrix": [[1.0]]}),  # a nested matrix key
        st.just([qio.matrix_to_dict(np.eye(1))]),  # a Kraus list
        ITEMS,
    ),
    max_size=2,
)
SPACE = st.text(alphabet=" \t\n\r", max_size=3)
LAYOUTS = st.one_of(
    st.just({"separators": (",", ":")}),  # compact
    st.just({}),  # json.dumps's default
    st.just({"indent": 2}),  # save_operator's layout
    st.builds(
        lambda indent, a, b, c, d: {"indent": indent, "separators": (a + "," + b, c + ":" + d)},
        SPACE, SPACE, SPACE, SPACE, SPACE,
    ),
)
# text edits that take the whole-text path: a BOM, bytes that are no UTF-8, a cut text, a stray
# byte, a repeated key (spelled plainly, or escaped before or after the real one), an array on top
EDITS = st.one_of(
    st.just(None),
    st.just(("prefix", "\ufeff".encode())),
    st.tuples(st.sampled_from(["insert", "truncate"]), st.integers(0, 10**6), st.sampled_from(list(b'\xff[],":0 \n\x00'))),
    st.just(("after", b'{"matrix": [[0.5]], ')),
    st.just(("after", b'{"m\\u0061trix": [[0.5]], ')),
    st.just(("before", b', "m\\u0061trix": [[0.5]]}')),
    st.just(("wrap", b"[")),
)


def _edited(data: bytes, edit) -> bytes:
    if edit is None:
        return data
    if edit[0] == "prefix":
        return edit[1] + data
    if edit[0] == "after":
        return data.replace(b"{", edit[1], 1)
    if edit[0] == "before":
        cut = data.rindex(b"}")
        return data[:cut] + edit[1] + data[cut + 1:]
    if edit[0] == "wrap":
        return b"[" + data + b"]"
    kind, at, byte = edit
    at %= len(data) + 1
    return data[:at] + bytes([byte]) + data[at:] if kind == "insert" else data[:at]


class TestRowByRowDecode:
    """A dense operator file's matrix is decoded one row at a time, to the bit of the whole-text decode."""

    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(1, 3) | INT64,
        basis=st.sampled_from([qio.BASIS_TAG, "other", "\u00e9"]),
        matrix=MATRICES,
        extras=EXTRAS,
        order=st.permutations(range(3)),
        layout=LAYOUTS,
        ascii_only=st.booleans(),
        edit=EDITS,
    )
    def test_same_as_whole_text(self, tmp_path, n, basis, matrix, extras, order, layout, ascii_only, edit):
        fields = [("n", n), ("basis", basis), ("matrix", matrix)]
        payload = dict([fields[i] for i in order], **extras)
        text = json.dumps(payload, ensure_ascii=ascii_only, **layout)
        path = tmp_path / "op.json"
        path.write_bytes(_edited(text.encode(), edit))
        for channel, load in ((False, qio.load_operator), (True, qio.load_channel)):
            _assert_same(_outcome(load, path), _outcome(_whole_text_load, path, channel))

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "basis": "%s", "matrix": [[1.0]x}',  # a stray byte where the matrix closes
            '{"n": 1, "basis": "%s", "matrix": [[1.0] [1.0]]}',  # rows without a comma
            '{"n": 1, "basis": "%s", "matrix": [[1.0],]}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0]]',
            '{"n": 1, "basis": "%s", "matrix": [[1.0]]5}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0]]}5',
            '{"n": 1, "basis": "%s", "matrix": [[1.0], [2.0, 3.0]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0], []]}',
            '{"n": 1, "basis": "%s", "matrix": [[[1.0]]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0, {"a": 1}]]}',
            '{"n": 1, "basis": "%s", "matrix": [["1.0"]]}',
            '{"n": 1, "basis": "%s", "matrix": [["]"]]}',
            '{"n": 1, "basis": "%s", "matrix": [[null]]}',
            '{"n": 1, "basis": "%s", "matrix": [[true]]}',
            '{"n": 1, "basis": "%s", "matrix": [[true, 1.0]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1]]}',
            '{"n": 1, "basis": "%s", "matrix": [[NaN]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1_0]]}',
            '{"n": 1, "basis": "%s", "matrix": [[9223372036854775808], [2]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1, 2], [3, 9223372036854775808]]}',
            '{"n": 1, "basis": "%s", "matrix": [[18446744073709551616]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0]], "m\\u0061trix": [[0.5]]}',  # the key again, escaped
            '{"m\\u0061trix": [[0.5]], "n": 1, "basis": "%s", "matrix": [[1.0]]}',
            '{"a \\"matrix": [[0.5]], "n": 1, "basis": "%s", "m\\u0061trix": [[1.0]]}',
            '{"n": 1, "basis": "%s", "nested": {"matrix": [[1.0]]}, "m\\u0061trix": 31415926535897932384626433832795}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0]], "x": "\\"matrix\\": [[2.0]]"}',
            '[{"n": 1, "basis": "%s", "matrix": [[1.0]]}]',
            '\ufeff{"n": 1, "basis": "%s", "matrix": [[1.0]]}',
            '{"n": 1, "basis": "%s", "matrix": [[1.0]], "note": "\u00e9"}',
            '{\r\n"n": 1, "basis": "%s",\r\n"matrix": [\r\n[\r\n1.0\r\n]\r\n]}',
        ],
    )
    def test_edge_texts_same_as_whole_text(self, tmp_path, text):
        path = tmp_path / "op.json"
        path.write_bytes((text % qio.BASIS_TAG).encode())
        for channel, load in ((False, qio.load_operator), (True, qio.load_channel)):
            _assert_same(_outcome(load, path), _outcome(_whole_text_load, path, channel))

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("layout", [{"separators": (",", ":")}, {"indent": 2}, {"indent": "\r\n\t "}])
    def test_saved_operator_decoded_by_rows(self, tmp_path, n, layout):
        rows = _channel_rows(n, n)
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": n, "basis": qio.BASIS_TAG, "matrix": rows}, **layout))
        d = qio._with_matrix_rows(path)
        assert d is not None and d["matrix"].dtype == np.float64
        np.testing.assert_array_equal(d["matrix"].view(np.int64), np.array(rows).view(np.int64))

    def test_decode_peak_below_file_plus_matrix(self, tmp_path):
        op = from_kraus(random_kraus_family(np.random.default_rng(113), 16, 2))
        matrix_bytes = op.matrix.nbytes
        path = tmp_path / "op16.json"
        qio.save_operator(path, op)
        tracemalloc.start()
        try:
            loaded = qio.load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.matrix, op.matrix)
        # the whole text plus a Python float per entry would be about 2.4 times the file
        assert peak < path.stat().st_size + 1.25 * matrix_bytes


def _assert_same_decode(got, want):
    """Two results of ``_with_matrix_rows``: both None, or the same keys and values, the matrix in dtype and bits."""
    assert (got is None) == (want is None)
    if want is not None:
        assert got["matrix"].dtype == want["matrix"].dtype and got["matrix"].shape == want["matrix"].shape
        assert got["matrix"].tobytes() == want["matrix"].tobytes()
        assert repr({**got, "matrix": None}) == repr({**want, "matrix": None})


WINDOWS = (1, 2, 3, 7, 64)


class TestWindowedDecode:
    """The file is read a fixed window at a time; no window edge changes what is decoded."""

    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        n=st.integers(1, 3) | INT64,
        basis=st.sampled_from([qio.BASIS_TAG, "other", "\u00e9"]),
        matrix=MATRICES,
        extras=EXTRAS,
        order=st.permutations(range(3)),
        layout=LAYOUTS,
        ascii_only=st.booleans(),
        edit=EDITS,
    )
    def test_tiny_windows_same_as_whole_text(
        self, tmp_path, monkeypatch, n, basis, matrix, extras, order, layout, ascii_only, edit
    ):
        # windows this small put every part of the text across an edge: the key, the colon, the
        # space between rows, each row (longer than the window), the matrix's "]" and the tail
        fields = [("n", n), ("basis", basis), ("matrix", matrix)]
        payload = dict([fields[i] for i in order], **extras)
        text = json.dumps(payload, ensure_ascii=ascii_only, **layout)
        path = tmp_path / "op.json"
        path.write_bytes(_edited(text.encode(), edit))
        whole = [_outcome(_whole_text_load, path, channel) for channel in (False, True)]
        decoded = qio._with_matrix_rows(path)  # the file fits one default window
        for window in WINDOWS:
            with monkeypatch.context() as patch:  # undone before the next example's default-window decode
                patch.setattr(qio, "_WINDOW", window)
                _assert_same_decode(qio._with_matrix_rows(path), decoded)
                for want, load in zip(whole, (qio.load_operator, qio.load_channel)):
                    _assert_same(_outcome(load, path), want)

    @pytest.mark.parametrize("window", WINDOWS)
    @pytest.mark.parametrize("layout", [{"separators": (",", ":")}, {"indent": 2}, {"indent": "\r\n\t "}])
    def test_saved_operator_decoded_by_rows_at_any_window(self, tmp_path, monkeypatch, window, layout):
        rows = _channel_rows(3, 3)
        path = tmp_path / "op.json"
        path.write_text(json.dumps({"n": 3, "basis": qio.BASIS_TAG, "matrix": rows, "note": "x"}, **layout))
        monkeypatch.setattr(qio, "_WINDOW", window)
        d = qio._with_matrix_rows(path)
        assert d is not None and d["matrix"].dtype == np.float64 and d["note"] == "x"
        np.testing.assert_array_equal(d["matrix"].view(np.int64), np.array(rows).view(np.int64))

    def test_decode_peak_independent_of_the_file_size(self, tmp_path):
        op = from_kraus(random_kraus_family(np.random.default_rng(119), 16, 2))
        matrix_bytes = op.matrix.nbytes
        path = tmp_path / "op16.json"
        path.write_text(json.dumps(qio.operator_to_dict(op), indent=12))  # a wide layout
        assert path.stat().st_size >= 6 * matrix_bytes
        tracemalloc.start()
        try:
            loaded = qio.load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.matrix, op.matrix)
        # the one decoded matrix, which the operator keeps, a row and the windows; the file's bytes never
        assert peak < 1.25 * matrix_bytes + 4 * qio._WINDOW


class TestOneMatrixLoad:
    """A loaded operator keeps the matrix its file decodes to, read-only: one matrix, no copy."""

    def test_load_peak_within_one_matrix_at_n24(self, tmp_path):
        op = from_kraus(random_kraus_family(np.random.default_rng(124), 24, 2))
        path = tmp_path / "op24.json"
        qio.save_operator(path, op)
        tracemalloc.start()
        try:
            loaded = qio.load_operator(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        np.testing.assert_array_equal(loaded.matrix, op.matrix)
        # the 2.53 MiB matrix and a row block, 2.68 MiB measured; a second copy of the matrix would not fit
        assert peak < 1.25 * op.matrix.nbytes

    def test_file_too_small_for_the_first_rows_square(self, tmp_path):
        # 1000 numbers in one 4 kB row: 1000 rows of them, 8 MB as floats, would take at least 2 MB of text
        path = tmp_path / "op.json"
        path.write_text('{"n": 1, "basis": "%s", "matrix": [[%s]]}' % (qio.BASIS_TAG, ",".join(["0.0"] * 1000)))
        tracemalloc.start()
        try:
            assert qio._with_matrix_rows(path) is None
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    @pytest.mark.parametrize("load", [qio.load_operator, qio.load_channel])
    def test_decoded_matrix_is_kept_read_only(self, tmp_path, monkeypatch, load):
        path = tmp_path / "op.json"
        qio.save_operator(path, from_kraus(random_kraus_family(np.random.default_rng(125), 3, 2)))
        decoded = []
        decode = qio._with_matrix_rows
        monkeypatch.setattr(qio, "_with_matrix_rows", lambda p: decoded.append(decode(p)) or decoded[-1])
        op = load(path)
        assert op.matrix is decoded[0]["matrix"]
        with pytest.raises(ValueError, match="read-only"):
            op.matrix[0, 0] = 2.0

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 2, "basis": "%s", "matrix": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]}',
            '{"n": 1, "basis": "%s", "m\\u0061trix": [[1.0]]}',  # the key escaped, so found by the parser only
        ],
        ids=["integer-rows", "escaped-key"],
    )
    @pytest.mark.parametrize("load", [qio.load_operator, qio.load_channel])
    def test_whole_text_matrix_is_read_only(self, tmp_path, load, text):
        path = tmp_path / "op.json"
        path.write_text(text % qio.BASIS_TAG)
        assert qio._with_matrix_rows(path) is None
        op = load(path)
        assert op.matrix.dtype == np.float64 and not op.matrix.flags.writeable
        np.testing.assert_array_equal(op.matrix, np.eye(op.n**2))
