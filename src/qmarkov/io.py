"""JSON/text serialization for all model types.

Complex entries are stored as [re, im] pairs, row-major, so every file round
trips bit-exactly through Python floats.  Superoperator matrices are tagged
with the basis identifier "canonical-hermitian-v1" (see
:func:`qmarkov.hermitian.hermitian_basis`).  Files and CLI output are
written as the text of ``json.dumps(payload, indent=2)``.
"""

from __future__ import annotations

import json
import math
import os
import re
import reprlib
from collections.abc import Iterator
from contextlib import contextmanager
from itertools import chain
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from pathlib import Path
from typing import Any, Mapping

import numpy as np

from .hermitian import _require_count, require_hermitian, require_markov_density
from .measurement import KrausMeasurement, MarkovMeasurement, Scale
from .oom import HiddenStateLift, ObservableOperatorModel
from .hidden import HiddenStateSpace, InformationFunction, MarkovState
from .operators import MarkovOperator, from_kraus
from .walk import DirectedGraph, _MAX_NODE_VALUES

__all__ = [
    "BASIS_TAG",
    "matrix_to_dict",
    "matrix_from_dict",
    "save_matrix",
    "load_matrix",
    "load_density",
    "operator_to_dict",
    "operator_from_dict",
    "save_operator",
    "load_operator",
    "load_channel",
    "load_measurement",
    "save_graph",
    "load_graph",
    "oom_to_dict",
    "oom_from_dict",
    "save_oom",
    "load_oom",
    "lift_to_dict",
    "load_state_table",
]

BASIS_TAG = "canonical-hermitian-v1"


@contextmanager
def _within(where) -> Iterator[None]:
    """Name ``where`` (a file, or a part of one) in a ValueError or OverflowError raised inside.

    A ValueError gets it as a prefix.  An OverflowError gets it at the end,
    so its text keeps the start "Python int too large" that numpy gives it.
    """
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    except OverflowError as exc:
        raise OverflowError(f"{exc} (in {where})") from exc


def _read_json(path, text: str | None = None) -> Any:
    """Parse a JSON file, or its ``text`` when already read; text nested past the parser's depth is malformed."""
    try:
        return json.loads(Path(path).read_text() if text is None else text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"malformed JSON ({exc})") from None


_WINDOW = 1 << 16  # the bytes of an operator file read at a time
_MATRIX_KEY = b'"matrix"'
_JSON_SPACE = re.compile(rb"[ \t\n\r]*")
_PLACEHOLDER = b"31415926535897932384626433832795"  # an integer that stands in for the matrix
_ROW_DTYPES = (np.dtype(np.int64), np.dtype(np.float64))


def _find(file, buf: bytearray, sub: bytes, pos: int) -> int:
    """The index of ``sub`` in ``buf`` from ``pos``, the file's next windows appended to ``buf`` until
    it arrives; -1 if it never does."""
    while (at := buf.find(sub, pos)) < 0:
        pos = max(pos, len(buf) - len(sub) + 1)  # each byte is searched once
        if not (window := file.read(_WINDOW)):
            return -1
        buf += window
    return at


def _space_end(file, buf: bytearray, pos: int) -> int:
    """The end of the JSON whitespace in ``buf`` from ``pos``, the file's next windows appended to
    ``buf`` while it reaches the end."""
    while (pos := _JSON_SPACE.match(buf, pos).end()) == len(buf) and (window := file.read(_WINDOW)):
        buf += window
    return pos


def _with_matrix_rows(path) -> dict | None:
    """The JSON object of an operator file, its top-level "matrix" decoded one row at a time as the
    file is read; None unless that array is, bit for bit, what ``np.asarray`` of the parsed value is.

    The file is read :data:`_WINDOW` bytes at a time.  The head up to the
    matrix's "[" is kept.  Each row is parsed once its "]" is read and
    written into one float64 (m, m) array, m the first row's width, and its
    bytes are dropped, so only the unparsed start of a row is carried into
    the next read; a row longer than the window grows the buffer until its
    "]" arrives.  The tail after the matrix is read last.  Neither the
    file's bytes nor its text are ever held whole: decoding peaks at the
    matrix, which the caller owns, plus a window and a row, whatever the
    file's layout.

    The rest of the text, the matrix replaced by an integer it does not
    hold, must parse to an object whose "matrix" is that integer, so the
    rows were the top-level value; a row of numbers holds no quote, so the
    rest holds every "matrix" key, and there must be one.  ASCII text reads
    alike in any locale.  Anything but m rows of m int64 or float64 numbers,
    not all int64 (their array is int64), could give another shape or type;
    it is left, malformed text included, to :func:`_read_json`.
    """
    with open(path, "rb") as file:
        buf = bytearray()
        key = _find(file, buf, _MATRIX_KEY, 0)
        if key < 0:
            return None
        colon = _space_end(file, buf, key + len(_MATRIX_KEY))
        if buf[colon:colon + 1] != b":":
            return None
        value = _space_end(file, buf, colon + 1)
        if buf[value:value + 1] != b"[":
            return None
        head = buf[:value]
        del buf[:value]  # buf now starts at the matrix's "["
        matrix, count, floats = None, 0, False
        while buf[:1] == (b"," if count else b"["):
            start = _space_end(file, buf, 1)
            end = _find(file, buf, b"]", start) + 1
            try:  # a slice cut at its first "]" parses only as a flat array; with no "]" it is empty
                row = np.asarray(json.loads(buf[start:end].decode("ascii")))
            except (ValueError, RecursionError):
                return None
            if row.dtype not in _ROW_DTYPES:
                return None
            if matrix is None and 2 * row.size**2 <= os.fstat(file.fileno()).st_size:
                matrix = np.empty((row.size, row.size))  # m rows of m numbers take at least 2 m^2 bytes
            if matrix is None or count == len(matrix) or row.shape != matrix.shape[1:]:
                return None
            matrix[count] = row
            count += 1
            floats = floats or row.dtype == np.float64
            del buf[:_space_end(file, buf, end)]
        if buf[:1] != b"]" or count != len(matrix) or not floats:  # the first row made the matrix
            return None
        rest = head + _PLACEHOLDER + buf[1:] + file.read()
    try:
        d = json.loads(rest.decode("ascii"))
    except (ValueError, RecursionError):
        return None
    if rest.count(_MATRIX_KEY) != 1 or rest.count(_PLACEHOLDER) != 1 or type(d) is not dict:
        return None
    if type(d.get("matrix")) is not int or d["matrix"] != int(_PLACEHOLDER):
        return None
    d["matrix"] = matrix
    return d


def _write_json(path, payload) -> None:
    Path(path).write_text(_json_text(payload) + "\n")


_FLOAT_WORDS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_text(obj, nl: str = "\n") -> str:
    """The text of ``json.dumps(obj, indent=2)``: the joined chunks of :func:`_json_chunks`."""
    return "".join(_json_chunks(obj, nl))


def _json_chunks(obj, nl: str = "\n") -> Iterator[str]:
    """The text of ``json.dumps(obj, indent=2)`` in chunks; the one writer of JSON syntax.

    ``nl`` is a newline plus the indentation of the level ``obj`` sits at.
    A list is one chunk, its items formatted by :func:`_json_items`.  An
    iterator in ``obj`` stands for a list whose items it yields in blocks
    (lists); each block is one chunk.  A dict is written key by key.
    """
    inner = nl + "  "
    if isinstance(obj, str):
        yield encode_basestring_ascii(obj)
    elif isinstance(obj, (list, tuple)):
        yield "[" + inner + _json_items(obj, inner) + nl + "]" if obj else "[]"
    elif isinstance(obj, Iterator):
        sep = "[" + inner
        for block in filter(None, obj):
            yield sep + _json_items(block, inner)
            sep = "," + inner
        yield "[]" if sep[0] == "[" else nl + "]"
    elif isinstance(obj, dict):
        sep = "{" + inner
        for k, v in obj.items():
            yield sep + encode_basestring_ascii(k if isinstance(k, str) else _json_scalar(k)) + ": "
            yield from _json_chunks(v, inner)
            sep = "," + inner
        yield "{}" if sep[0] == "{" else nl + "}"
    else:
        yield _json_scalar(obj)


def _json_items(seq, inner: str) -> str:
    """The items of a non-empty list, one per line at indentation ``inner``.

    Items of one form (:func:`_json_form`) are formatted by that form's
    template, repeated, and one ``%`` over their leaves; the items of any
    other list recurse one by one.
    """
    sep = "," + inner
    form = _json_form(seq, inner)
    if form is None:
        return sep.join([_json_text(x, inner) for x in seq])
    template, leaves = form
    return sep.join([template] * len(seq)) % tuple(leaves)


def _json_form(values: list, nl: str) -> tuple[str, list] | None:
    """The ``%`` template that each of ``values`` prints by at indentation ``nl``, and the leaves
    that fill the templates of all of them in order; None unless all share one form.

    A form is a float, int or str; or lists (or tuples) of one length whose
    items share a form; or dicts whose keys are the same strings in the same
    order and whose values under each key share a form.  The check and the
    leaves go key by key and level by level, never item by item.
    """
    kinds = set(map(type, values))
    inner = nl + "  "
    if kinds <= {list, tuple}:
        sizes = set(map(len, values))
        if len(sizes) != 1:
            return None
        (size,) = sizes
        if size == 0:
            return "[]", []
        form = _json_form(list(chain.from_iterable(values)), inner)
        if form is None:
            return None
        template, leaves = form
        return "[" + inner + ("," + inner).join([template] * size) + nl + "]", leaves
    if kinds == {dict}:
        orders = set(map(tuple, values))
        if len(orders) != 1:
            return None
        keys = orders.pop()
        if not all(type(k) is str for k in keys):  # 1, 1.0 and True are one key to a dict but three texts
            return None
        if not keys:
            return "{}", []
        parts, columns = [], []
        for key in keys:
            form = _json_form(list(map(itemgetter(key), values)), inner)
            if form is None:
                return None
            template, leaves = form
            parts.append(encode_basestring_ascii(key).replace("%", "%%") + ": " + template)
            if leaves:  # each value's leaves as one tuple
                columns.append(zip(*[iter(leaves)] * (len(leaves) // len(values))))
        leaves = list(chain.from_iterable(chain.from_iterable(zip(*columns))))
        return "{" + inner + ("," + inner).join(parts) + nl + "}", leaves
    if kinds == {str}:
        texts = {s: encode_basestring_ascii(s) for s in set(values)}  # one text per distinct string, as words repeat
        return "%s", list(map(texts.__getitem__, values))
    if kinds == {int}:  # bool is a kind of its own
        return "%d", values
    if kinds == {float}:
        # a sum is finite only when every value is; NaN and the infinities print by name
        return ("%r", values) if math.isfinite(sum(values)) else ("%s", list(map(_json_scalar, values)))
    return None


def _json_scalar(obj) -> str:
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, int):
        return int.__repr__(obj)
    if isinstance(obj, float):
        text = float.__repr__(obj)
        return _FLOAT_WORDS.get(text, text)
    raise TypeError(f"Object of type {obj.__class__.__name__} is not JSON serializable")


def _expect(condition: bool, message: str) -> None:
    if not condition:
        raise ValueError(message)


def _is_int(value) -> bool:
    """True for a JSON integer (booleans are not integers here)."""
    return isinstance(value, int) and not isinstance(value, bool)


def _fields(d, *keys: str) -> None:
    """Raise unless ``d`` is a JSON object holding every one of ``keys``."""
    _expect(isinstance(d, Mapping), f"expected a JSON object with fields {', '.join(keys)}")
    for key in keys:
        _expect(key in d, f"missing field {key!r}")


def _symbols(value, field: str, items: str) -> tuple:
    """A non-empty JSON list of strings or integers (booleans rejected), as a tuple."""
    _expect(isinstance(value, list) and value, f"{field} must be a non-empty list")
    for s in value:
        _expect(isinstance(s, str) or _is_int(s), f"{items} must be strings or integers, got {s!r}")
    return tuple(value)


def _scale(d: Mapping) -> Scale:
    """The 'scale' field, its symbol texts checked by :func:`_text_keys`."""
    scale = Scale(_symbols(d["scale"], "'scale'", "scale symbols"))
    _text_keys(scale)
    return scale


def _float_array(value, name: str, shape: tuple | None = None) -> np.ndarray:
    """A nested JSON list of numbers as a float array, of ``shape`` when given.

    The inferred dtype must be numeric, so null, strings and integers beyond
    64 bits are rejected; a float conversion would turn null into NaN.  The
    message names the first entry that is not a number, not the whole value.
    """
    try:
        array = np.asarray(value)
    except ValueError:
        raise ValueError(f"{name}: expected numbers in rows of equal length") from None
    if array.dtype.kind not in "iuf":
        raise ValueError(f"{name}: expected numbers, got {_first_non_number(value)}")
    if shape is not None and array.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {array.shape}")
    return array.astype(float, copy=False)


def _first_non_number(value, where: str = "") -> str | None:
    """The first entry of nested lists that is no number within 64 bits, shortened, with its index."""
    if isinstance(value, list):
        found = (_first_non_number(v, f"{where}[{i}]") for i, v in enumerate(value))
        return next(filter(None, found), None)
    if isinstance(value, float) or (_is_int(value) and -(2**63) <= value < 2**64):
        return None
    return f"{reprlib.repr(value)} at {where}" if where else reprlib.repr(value)


def matrix_to_dict(m: np.ndarray, kind: str | None = None) -> dict:
    """Matrix as {"rows", "cols", "entries": [[re, im], ...]} row-major."""
    m = np.asarray(m, dtype=complex)
    _expect(m.ndim == 2, f"matrix must be 2-d, got ndim {m.ndim}")
    payload: dict = {
        "rows": int(m.shape[0]),
        "cols": int(m.shape[1]),
        "entries": np.stack((m.real, m.imag), -1).reshape(-1, 2).tolist(),
    }
    if kind is not None:
        payload["kind"] = kind
    return payload


def matrix_from_dict(d: Mapping) -> np.ndarray:
    """Parse a matrix dict, validating any declared kind (hermitian/density)."""
    _fields(d, "rows", "cols", "entries")
    rows = _require_count(d["rows"], "'rows'", least=1)
    cols = _require_count(d["cols"], "'cols'", least=1)
    entries = _float_array(d["entries"], "'entries' ([re, im] pairs)", (rows * cols, 2))
    # a view keeps the sign of -0.0 real parts, which re + 1j * im would not
    m = entries.view(complex).reshape(rows, cols)
    kind = d.get("kind")
    if kind == "hermitian":
        require_hermitian(m)
    elif kind == "density":
        require_markov_density(m)
    elif kind is not None:
        raise ValueError(f"unknown kind {kind!r} (expected 'hermitian' or 'density')")
    return m


def save_matrix(path, m: np.ndarray, kind: str | None = None) -> None:
    _write_json(path, matrix_to_dict(m, kind=kind))


def load_matrix(path) -> np.ndarray:
    with _within(path):
        return matrix_from_dict(_read_json(path))


def load_density(path) -> np.ndarray:
    """Load a matrix file and insist it is a Markov density."""
    with _within(path):
        return require_markov_density(matrix_from_dict(_read_json(path)))


def operator_to_dict(op: MarkovOperator) -> dict:
    return {
        "n": op.n,
        "basis": BASIS_TAG,
        "matrix": op.matrix.tolist(),
    }


def operator_from_dict(d: Mapping) -> MarkovOperator:
    return MarkovOperator(*_operator_fields(d))


def _operator_fields(d: Mapping) -> tuple[int, np.ndarray]:
    """The checked 'n' of an operator object and its 'matrix' as a float array.

    The array is new, or the float64 array of ``d`` itself: a loader's own,
    from :func:`_with_matrix_rows`, which it hands to the operator uncopied.
    """
    _fields(d, "n", "basis", "matrix")
    _expect(d["basis"] == BASIS_TAG, f"unsupported basis {d['basis']!r} (expected {BASIS_TAG!r})")
    return _require_count(d["n"], "'n'", least=1), _float_array(d["matrix"], "'matrix'")


def save_operator(path, op: MarkovOperator) -> None:
    _write_json(path, operator_to_dict(op))


def load_operator(path) -> MarkovOperator:
    with _within(path):
        return MarkovOperator._of_own_matrix(*_operator_fields(_with_matrix_rows(path) or _read_json(path)))


def _kraus_matrices(d: Mapping, labelled) -> list[np.ndarray]:
    """Parse (label, matrix dict) pairs, each checked against the file's 'n', else the first one's shape."""
    shape = (_require_count(d["n"], "'n'", least=1),) * 2 if "n" in d else None
    out = []
    for label, entry in labelled:
        with _within(label):
            m = matrix_from_dict(entry)
        shape = shape or m.shape
        _expect(m.shape == shape, f"{label} has shape {m.shape}, expected {shape}")
        out.append(m)
    return out


def _kraus_list(d: Mapping) -> list[np.ndarray]:
    """The matrices of a Kraus file's non-empty 'kraus' list."""
    mats = d["kraus"]
    _expect(isinstance(mats, list) and mats, "'kraus' must be a non-empty list")
    return _kraus_matrices(d, ((f"kraus[{i}]", m) for i, m in enumerate(mats)))


def _text_keys(scale: Scale) -> list[str]:
    """The text ``str(symbol)`` of each scale symbol (its JSON key, ``--word`` name and CSV cell part),
    checked on read and on write: not empty, with no comma and shared with no other symbol."""
    keys: dict[str, Any] = {}
    for s in scale:
        text = str(s)
        _expect(text != "", f"scale symbol {s!r} has an empty text, which would name the empty word")
        _expect("," not in text, f"scale symbol {s!r} holds a comma, on which --word and CSV cells split")
        other = keys.setdefault(text, s)
        _expect(other is s, f"scale symbols {other!r} and {s!r} share the JSON key {text!r}")
    return list(keys)


def _by_symbol(d: Mapping, field: str, scale: Scale, what: str):
    """(symbol, entry) for each scale symbol of the object ``d[field]``; a key may be str(symbol)."""
    table = d[field]
    _expect(isinstance(table, Mapping), f"{field!r} must map symbols to matrices")
    for s in scale:
        key = s if s in table else str(s)
        _expect(key in table, f"no {what} for symbol {s!r}")
        yield s, table[key]


def load_channel(path) -> MarkovOperator:
    """Load a Markov operator from either an operator file or a Kraus file."""
    with _within(path):
        d = _with_matrix_rows(path) or _read_json(path)
        if isinstance(d, Mapping) and "kraus" in d:
            return from_kraus(_kraus_list(d))
        return MarkovOperator._of_own_matrix(*_operator_fields(d))


def load_measurement(path):
    """Load a measurement file; returns a Kraus or Markov measurement."""
    with _within(path):
        d = _read_json(path)
        _fields(d, "scale")
        scale = _scale(d)
        if "kraus" in d:
            entries = _by_symbol(d, "kraus", scale, "Kraus matrix")
            mats = _kraus_matrices(d, ((f"kraus[{s!r}]", e) for s, e in entries))
            return KrausMeasurement(scale=scale, kraus=tuple(mats))
        if "operators" in d:
            entries = _by_symbol(d, "operators", scale, "operator")
            ops = tuple(_float_array(e, f"operator for {s!r}") for s, e in entries)
            return MarkovMeasurement(scale=scale, operators=ops)
        raise ValueError("measurement needs either 'kraus' or 'operators'")


def save_graph(path, graph: DirectedGraph) -> None:
    _write_json(path, {"nodes": graph.node_count, "edges": [[u, v] for u, v in graph.edges]})


def load_graph(path) -> DirectedGraph:
    """Load a graph from JSON {"nodes", "edges"} or plain "u v" lines."""
    with _within(path):
        text = Path(path).read_text()
    if text.lstrip().startswith("{"):
        with _within(path):
            d = _read_json(path, text)
            _expect("nodes" in d and "edges" in d, "graph JSON needs 'nodes' and 'edges'")
            node_count = _require_count(d["nodes"], "'nodes'", least=1)
            limit = _MAX_NODE_VALUES  # a walk would refuse more, naming no file
            _expect(node_count <= limit, f"'nodes' must be at most {limit}, got {node_count}: "
                    "the bytes of one float64 value per node would overflow numpy's index type")
            edges = d["edges"]
            _expect(
                isinstance(edges, list)
                and all(isinstance(e, list) and len(e) == 2 and all(map(_is_int, e)) for e in edges),
                "'edges' must be a list of [u, v] integer pairs",
            )
            return DirectedGraph(node_count=node_count, edges=tuple(map(tuple, edges)))
    edges = []  # a bad line names path:line itself
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ValueError(f"{path}:{lineno}: expected 'u v', got {line!r}")
        # ASCII digits after an optional "-": int() would also take 1_0, +1 and non-ASCII digits
        if not all(p.isascii() and p.removeprefix("-").isdigit() for p in parts):
            raise ValueError(f"{path}:{lineno}: node ids must be integers, got {line!r}")
        edges.append((int(parts[0]), int(parts[1])))
    with _within(path):
        _expect(bool(edges), "graph file contains no edges")
        return DirectedGraph(node_count=max(max(u, v) for u, v in edges) + 1, edges=tuple(edges))


def oom_to_dict(model: ObservableOperatorModel) -> dict:
    return {
        "dim": model.dim,
        "scale": list(model.scale.symbols),
        "operators": dict(zip(_text_keys(model.scale), (op.tolist() for op in model.operators))),
        "pi": model.pi.tolist(),
    }


def oom_from_dict(d: Mapping) -> ObservableOperatorModel:
    _fields(d, "dim", "scale", "operators", "pi")
    m = _require_count(d["dim"], "'dim'", least=1)
    scale = _scale(d)
    entries = _by_symbol(d, "operators", scale, "operator")
    ops = tuple(_float_array(e, f"operator for {s!r}", (m, m)) for s, e in entries)
    return ObservableOperatorModel(scale=scale, operators=ops, pi=_float_array(d["pi"], "'pi'"))


def save_oom(path, model: ObservableOperatorModel) -> None:
    _write_json(path, oom_to_dict(model))


def load_oom(path) -> ObservableOperatorModel:
    with _within(path):
        return oom_from_dict(_read_json(path))


def lift_to_dict(lift: HiddenStateLift) -> dict:
    keys = _text_keys(lift.scale)
    return {
        "states": [[str(sym), int(j)] for sym, j in lift.space.states],
        "scale": keys,
        "operators": dict(zip(keys, (op.tolist() for op in lift.operators))),
        "pi": lift.pi.tolist(),
    }


def load_state_table(path) -> tuple[HiddenStateSpace, dict[str, InformationFunction], MarkovState]:
    """Load {"states", "functions", "q"}: a hidden-state table with a Markov state.

    States and function values are strings or integers; a function's scale
    is its distinct values in order of first appearance.
    """
    with _within(path):
        d = _read_json(path)
        _fields(d, "states", "functions", "q")
        space = HiddenStateSpace(states=_symbols(d["states"], "'states'", "states"))
        functions: dict[str, InformationFunction] = {}
        _expect(isinstance(d["functions"], Mapping), "'functions' must map names to value lists")
        for name, values in d["functions"].items():
            values = _symbols(values, f"function {name!r}", f"values of function {name!r}")
            with _within(f"function {name!r}"):
                functions[name] = InformationFunction(space, Scale(tuple(dict.fromkeys(values))), values)
        return space, functions, MarkovState(space=space, values=_float_array(d["q"], "'q'"))
