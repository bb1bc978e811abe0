"""Property: on any text, parse_tum agrees with its pose-by-pose reference."""

import io
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

import pose_loop_reference as ref  # noqa: E402
from slameval.errors import SlamEvalError  # noqa: E402
from slameval.trajio import parse_tum  # noqa: E402

# Tokens near the format: numbers of every kind, words float() accepts
# or rejects, and separators that split lines or fields.
_number = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-3, 3).map(str),
    st.sampled_from(["0.7071068", "1", "-1", "1e308", "1e-320", "1_0", "0x1", "٣", "nan", "-inf"]),
)
_token = st.one_of(_number, _number, _number, st.text(max_size=3))
_finite_stamp = st.floats(-1e6, 1e6)
_stamp = st.one_of(_finite_stamp, _finite_stamp, _finite_stamp,
                   st.sampled_from([math.nan, math.inf, -math.inf]))
_pose = st.tuples(_stamp, _number, st.floats(-1.0, 1.0)).map(
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


# Texts near the edge of what np.loadtxt and float() read alike: Unicode
# field separators, '_' in numbers, inline '#', ',' decimals, nan/inf and
# overflow, 7- and 9-field lines, CR and CRLF line ends.
_space = st.sampled_from([" "] * 5 + ["\t", "  ", "\x1f", "\xa0", "　", "\x0b", "\x0c", "\x1c", "\x85"])
_odd = st.sampled_from([
    "1_0", "2_5.0_1", "_1", "1__0", "nan", "-nan", "NaN", "inf", "-Infinity", "1e400", "-1e400",
    "1e-400", "0,5", "1,0", "1#", "#2", "1#2", "0x1", "٣", "1\x00", "\ud800", "+.5", "1.", "1e5_0",
])
_plain = st.one_of(st.floats(-1e3, 1e3).map(repr), st.integers(-5, 5).map(str))
_coord = st.one_of(_plain, _plain, _plain, _odd)


@st.composite
def _edge_text(draw):
    lines = []
    for k in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["pose", "pose", "pose", "comment", "blank"]))
        if kind == "comment":
            lines.append(draw(_space) + "#" + draw(st.text(max_size=6)))
            continue
        if kind == "blank":
            lines.append(draw(st.lists(_space, max_size=2).map("".join)))
            continue
        w = draw(st.sampled_from(["1", "1.0", "0.99", "1_0", "1.1000000000000003"]))
        fields = [repr(float(k)), *(draw(_coord) for _ in range(3)), "0", "0", "0", w]
        edit = draw(st.sampled_from(["none"] * 5 + ["drop", "add", "odd"]))
        at = draw(st.integers(0, 7))
        if edit == "drop":
            del fields[at]
        elif edit == "add":
            fields.insert(at, draw(_coord))
        elif edit == "odd":
            fields[at] = draw(_odd)
        sep = draw(_space)  # one separator per line, so that most lines stay whole
        lead = sep if draw(st.booleans()) else ""
        body = sep.join(fields)
        lines.append(lead + body + draw(st.sampled_from([""] * 4 + [" ", "\xa0", " # tail", "#"])))
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(lines)


def _bits(parse, source):
    """The parsed arrays as bytes, or (type, message, line number) of the error."""
    try:
        traj = parse(source, "x")
    except SlamEvalError as exc:
        return type(exc), str(exc), getattr(exc, "line_no", None)
    return tuple(a.tobytes() for a in (traj.t, traj.xyz, traj.q)) + (traj.t.shape,)


@settings(max_examples=400, deadline=None)
@given(_edge_text())
def test_parse_tum_bit_equal_to_pose_loop_on_edge_texts(text):
    for source in (lambda: text, lambda: io.StringIO(text, newline=None)):
        assert _bits(parse_tum, source()) == _bits(ref.parse_tum, source())
