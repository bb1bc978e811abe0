"""Property: on any text, parse_tum agrees with its pose-by-pose reference."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import pose_loop_reference as ref  # noqa: E402
from slameval.trajio import parse_tum  # noqa: E402

# Tokens near the format: numbers of every kind, words float() accepts
# or rejects, and separators that split lines or fields.
_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0.7071068", "1", "-1", "1e308", "1e-320", "1_0", "0x1", "٣", "nan", "-inf"]),
)
_token = st.one_of(_number, _number, _number, st.text(max_size=3))
_pose = st.tuples(st.floats(-1e6, 1e6), _number, st.floats(-1.0, 1.0)).map(
    lambda v: f"{v[0]!r} {v[1]} 0 0 0 0 {v[2]!r} 1"
)
_line = st.one_of(
    _pose,
    _pose,
    st.lists(_token, min_size=7, max_size=9).map(" ".join),
    st.sampled_from(["", "# c", "  "]),
    st.text(max_size=12),
)
_text = st.lists(_line, max_size=8).flatmap(
    lambda lines: st.sampled_from(["\n", "\r\n", "\r", "\x0c"]).map(lambda sep: sep.join(lines))
)


@settings(max_examples=400, deadline=None)
@given(_text)
def test_parse_tum_agrees_with_pose_loop(text):
    assert ref.outcome(parse_tum, text) == ref.outcome(ref.parse_tum, text)
