"""Property-based fuzzing of the OOM file loader through `oom-rank`: every input ends in exit 0, 2 or 3."""

import json

import pytest

from qmarkov.cli import run

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

JSON_SCALARS = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=3), children, max_size=4),
    max_leaves=12,
)
VALID_OOM = {
    "dim": 2,
    "scale": ["a", "b"],
    "operators": {"a": [[0.5, 0.5], [0.0, 0.0]], "b": [[0.0, 0.0], [0.5, 0.5]]},
    "pi": [0.5, 0.5],
}
FIELDS = ("dim", "scale", "operators", "pi")
DROP = object()
# each field is dropped, keeps its valid value or takes a drawn JSON value;
# the operators object may also keep its keys and take drawn matrices
FIELD_VALUES = {key: st.just(DROP) | st.just(VALID_OOM[key]) | JSON_VALUES for key in FIELDS}
FIELD_VALUES["operators"] |= st.fixed_dictionaries({"a": JSON_VALUES, "b": JSON_VALUES})


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fields=st.fixed_dictionaries(FIELD_VALUES), top=st.sampled_from(["object", "array", "scalar"]))
def test_oom_rank_loader_exit_codes(tmp_path, fields, top):
    payload = {key: value for key, value in fields.items() if value is not DROP}
    if top == "array":
        payload = [payload]
    elif top == "scalar":
        payload = payload.get("dim")
    path = tmp_path / "oom.json"
    path.write_text(json.dumps(payload))
    code = run(["oom-rank", "--oom", str(path), "--max-length", "2", "--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)


def test_valid_oom_exits_zero(tmp_path):
    path = tmp_path / "oom.json"
    path.write_text(json.dumps(VALID_OOM))
    assert run(["oom-rank", "--oom", str(path), "--max-length", "2", "--output", str(tmp_path / "out.json")]) == 0
    assert json.loads((tmp_path / "out.json").read_text())["rank"] == 1
