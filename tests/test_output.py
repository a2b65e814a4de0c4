"""The JSON writer behind every JSON file and JSON CLI output equals ``json.dumps(x, indent=2)``."""

import json
import math

import numpy as np
import pytest

from qmarkov import io as qio

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

SPECIAL_FLOATS = st.sampled_from(
    [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e-05, 1e16]
)
FLOATS = st.floats() | SPECIAL_FLOATS
INTEGERS = st.integers() | st.integers(min_value=2**64, max_value=10**300) | st.integers(max_value=-(2**64))
# surrogates and control characters included: encode_basestring_ascii escapes both
TEXT = st.text(st.characters(exclude_categories=()), max_size=6)
SCALARS = st.none() | st.booleans() | INTEGERS | FLOATS | FLOATS.map(np.float64) | TEXT
# the bulk paths (float lists, equal-length float list rows, string lists) and their near misses
ROWS = st.integers(min_value=1, max_value=4).flatmap(
    lambda k: st.lists(st.lists(FLOATS, min_size=k, max_size=k) | st.tuples(*[FLOATS] * k), max_size=5)
)
UNEQUAL_ROWS = st.lists(st.lists(FLOATS, max_size=3), max_size=4)
LEAVES = SCALARS | st.lists(FLOATS, max_size=6) | ROWS | UNEQUAL_ROWS | st.lists(TEXT, max_size=4)
KEYS = TEXT | st.none() | st.booleans() | INTEGERS | FLOATS
PAYLOADS = st.recursive(
    LEAVES,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4),
    max_leaves=16,
)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
def test_json_text_equals_json_dumps(payload):
    assert qio._json_text(payload) == json.dumps(payload, indent=2)


@pytest.mark.parametrize("value", [np.int64(1), {1, 2}, object()])
def test_json_text_rejects_what_json_rejects(value):
    with pytest.raises(TypeError):
        json.dumps(value, indent=2)
    with pytest.raises(TypeError):
        qio._json_text({"a": [value]})


def test_matrix_entries_keep_signed_zeros_and_specials():
    m = np.array([[-0.0 + 0.0j, complex(math.inf, -0.0)], [complex(math.nan, 5e-324), 1e-05 - 1e16j]])
    entries = qio.matrix_to_dict(m)["entries"]
    assert json.dumps(entries) == json.dumps([[float(z.real), float(z.imag)] for z in m.reshape(-1)])
    assert qio._json_text(entries) == json.dumps(entries, indent=2)


def _blocks(items, sizes):
    """``items`` cut into consecutive blocks of the given sizes (empty blocks included), the rest last."""
    blocks, start = [], 0
    for size in sizes:
        blocks.append(items[start : start + size])
        start += size
    return blocks + [items[start:]]


@settings(max_examples=300, deadline=None)
@given(
    st.lists(PAYLOADS, max_size=6),
    st.lists(st.integers(min_value=0, max_value=3), max_size=4),
    st.dictionaries(TEXT, PAYLOADS, max_size=3),
)
def test_json_chunks_equal_json_dumps(items, sizes, head):
    """A list that arrives in blocks, alone or as the last value of a dict, prints as the whole list."""
    streamed = qio._json_chunks(iter(_blocks(items, sizes)))
    assert "".join(streamed) == json.dumps(items, indent=2)
    payload = {**head, "list": iter(_blocks(items, sizes))}
    assert "".join(qio._json_chunks(payload)) == json.dumps({**head, "list": items}, indent=2)
    assert "".join(qio._json_chunks(head)) == json.dumps(head, indent=2)


# texts a template could break: "%" in keys and strings, and the words of NaN and the infinities
HAZARD_TEXT = TEXT | st.sampled_from(
    ["nan", "inf", "-inf", "NaN", "Infinity", "-Infinity", "information", "%", "%s", "%%d"]
)
# (strategy, whether a column of it prints by template): bool, None and np.float64 columns recurse
LEAF_KINDS = [
    (FLOATS, True),
    (INTEGERS, True),
    (HAZARD_TEXT, True),
    (st.booleans(), False),
    (st.none(), False),
    (FLOATS.map(np.float64), False),
]


@st.composite
def same_shape_records(draw):
    """A list of dicts with one key order whose fields are scalars of one kind, lists or tuples of
    them of one length, lists of such lists, or one level of such dicts; and whether it is one form.

    The near misses: fields whose lists differ in length, and one record with its keys reversed.
    """
    uniform = True

    def field(depth):
        nonlocal uniform
        leaf, templated = draw(st.sampled_from(LEAF_KINDS))
        uniform &= templated
        shape = draw(st.sampled_from(["scalar", "list", "rows", "ragged", "record"][: 5 if depth else 4]))
        if shape == "scalar":
            return leaf
        if shape == "ragged":
            uniform = False  # unless every record happens to draw one length
            return st.lists(leaf, max_size=3)
        if shape == "record":
            return record(draw(st.lists(HAZARD_TEXT, unique=True, max_size=3)), depth - 1)
        size, container = draw(st.integers(0, 3)), draw(st.sampled_from([list, tuple]))
        if shape == "rows":
            leaf = st.lists(leaf, min_size=(width := draw(st.integers(0, 2))), max_size=width)
        return st.lists(leaf, min_size=size, max_size=size).map(container)

    def record(keys, depth):
        # fixed_dictionaries may order its keys differently from one dict to the next
        return st.tuples(*[field(depth) for _ in keys]).map(lambda values: dict(zip(keys, values)))

    keys = draw(st.lists(HAZARD_TEXT, unique=True, max_size=4))
    rows = draw(st.lists(record(keys, 1), min_size=1, max_size=6))
    if len(keys) > 1 and draw(st.booleans()):
        rows[-1] = dict(reversed(rows[-1].items()))
        uniform = False
    return rows, uniform


@settings(max_examples=500, deadline=None)
@given(same_shape_records(), st.lists(st.integers(min_value=0, max_value=3), max_size=3))
def test_same_shape_records_equal_json_dumps(drawn, sizes):
    """Records of one form print by one template (the rest recurse) exactly as json.dumps prints them."""
    rows, uniform = drawn
    want = json.dumps(rows, indent=2)
    assert qio._json_text(rows) == want
    assert "".join(qio._json_chunks(iter(_blocks(rows, sizes)))) == want
    if uniform:
        assert qio._json_form(rows, "\n  ") is not None
