"""Property: any manifest file loads as a RunManifest or fails with a SlamEvalError."""

import json

import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings, strategies as st  # noqa: E402

from slameval.batch import BatchOptions, RunManifest, load_manifest  # noqa: E402
from slameval.errors import SlamEvalError  # noqa: E402

# JSON values of every type, with numbers at and beyond the float range
_scalar = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, -1, 2, 10**400, -(10**400), 1.0, 0.5, 1e308]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=6),
    st.sampled_from(["fixed-delta", "all-pairs", "g.txt", "e.txt"]),
)
_value = st.recursive(
    _scalar,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3), st.dictionaries(st.text(max_size=6), inner, max_size=3)
    ),
    max_leaves=8,
)
_path = st.sampled_from(["g.txt", "e.txt", "sub/f.txt", "", "/abs/x.txt"])
_entry = st.one_of(
    st.fixed_dictionaries({
        "sequence_id": st.one_of(st.text(max_size=3), _scalar),
        "gt_path": _path,
        "estimate_paths": st.lists(_path, min_size=1, max_size=2),
    }),
    st.dictionaries(
        st.sampled_from(["sequence_id", "gt_path", "estimate_paths", "extra"]),
        st.one_of(_value, _path, st.lists(_path, max_size=2)),
        max_size=4,
    ),
    _value,
)
# option values of the right kind more often than not
_plausible = st.one_of(
    st.integers(-1, 3),
    st.floats(-1.0, 10.0),
    st.booleans(),
    st.sampled_from(["fixed-delta", "all-pairs"]),
    st.sampled_from([10**400, 1e308, -0.0]),
)
_options = st.fixed_dictionaries(
    {},
    optional={
        name: st.one_of(_plausible, _plausible, _value)
        for name in sorted(BatchOptions.__dataclass_fields__) + ["bogus"]
    },
)
_optional = {
    "schema_version": st.one_of(st.just(1), st.just(1), _value),
    "options": st.one_of(_options, _options, _value),
}
_document = st.one_of(
    st.fixed_dictionaries(
        {"sequences": st.lists(_entry, min_size=1, max_size=3)}, optional=_optional
    ),
    st.fixed_dictionaries({}, optional=dict(_optional, sequences=_value)),
)
_text = _document.map(lambda doc: json.dumps(doc).encode())


@st.composite
def _damaged(draw):
    """A document's bytes with a few bytes replaced, inserted or cut off."""
    data = bytearray(draw(_text))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data)))
        byte = draw(st.integers(0, 255))
        op = draw(st.sampled_from(["set", "insert", "cut"]))
        if op == "insert" or at == len(data):
            data.insert(at, byte)
        elif op == "set":
            data[at] = byte
        else:
            del data[at:]
    return bytes(data)


def _loads_or_fails_cleanly(path, data: bytes) -> None:
    path.write_bytes(data)
    try:
        manifest = load_manifest(path)
    except SlamEvalError:
        return
    assert isinstance(manifest, RunManifest)


_SETTINGS = settings(
    max_examples=400, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@_SETTINGS
@given(st.one_of(_text, _text, _damaged(), st.binary(max_size=40)))
def test_load_manifest_returns_a_manifest_or_a_slameval_error(tmp_path, data):
    _loads_or_fails_cleanly(tmp_path / "manifest.json", data)


@_SETTINGS
@given(_options)
def test_any_options_object_loads_or_fails_cleanly(tmp_path, options):
    entry = {"sequence_id": "a", "gt_path": "g", "estimate_paths": ["e"]}
    doc = {"options": options, "sequences": [entry]}
    _loads_or_fails_cleanly(tmp_path / "manifest.json", json.dumps(doc).encode())
