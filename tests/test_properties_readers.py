"""Property-based fuzzing of the obs boundary's two text readers.

``repro.obs.ring.read_jsonl`` (here reading request-trace events) and
``repro.obs.parse_openmetrics`` either parse their input or raise a
``ValueError`` that names the offending line — never a bare
``KeyError``, ``TypeError``, ``UnicodeDecodeError`` or
``JSONDecodeError``, and never a record built from a field of the
wrong type.
"""

import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import parse_openmetrics
from repro.obs.ring import read_jsonl
from repro.serve.tracing import TraceEvent

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)


def _field(good):
    """A field of the right type, or any JSON value at all."""
    return st.one_of(good, JSON_VALUES)


EVENT_RECORDS = st.fixed_dictionaries(
    {},
    optional={
        "request": _field(st.integers(0, 99)),
        "seq": _field(st.integers(0, 9)),
        "t_ms": _field(st.floats()),
        "event": _field(st.sampled_from(["hop", "done"])),
        "node": _field(st.integers(-1, 9)),
        "attrs": _field(st.dictionaries(st.text(max_size=3), st.integers())),
    },
)
JSONL_LINES = st.one_of(
    EVENT_RECORDS.map(lambda record: json.dumps(record).encode()),
    JSON_VALUES.map(lambda value: json.dumps(value).encode()),
    st.binary(max_size=24).map(lambda raw: raw.replace(b"\n", b"")),
)


def _read(lines):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "trace.jsonl"
        path.write_bytes(b"".join(line + b"\n" for line in lines))
        try:
            return read_jsonl(path, TraceEvent.from_dict), None
        except ValueError as exc:
            match = re.match(rf"{re.escape(str(path))}:(\d+): ", str(exc))
            assert match, str(exc)
            return None, int(match.group(1))


@settings(max_examples=300, deadline=None)
@given(st.lists(JSONL_LINES, min_size=1, max_size=5))
def test_read_jsonl_parses_or_names_the_first_bad_line(lines):
    events, bad = _read(lines)
    if bad is None:
        for event in events:
            assert type(event.request_id) is int and type(event.seq) is int
            assert type(event.node) is int
            assert math.isfinite(event.t_ms)
        return
    # The named line is bad on its own, and every line before it reads.
    assert _read(lines[bad - 1:bad])[1] == 1
    assert _read(lines[:bad - 1])[1] is None


GOOD_EVENT = {"request": 4, "seq": 0, "t_ms": 1.5, "event": "done"}


@pytest.mark.parametrize(
    "line",
    [
        json.dumps({**GOOD_EVENT, "request": 1.7}).encode(),
        json.dumps({**GOOD_EVENT, "request": True}).encode(),
        json.dumps({**GOOD_EVENT, "t_ms": math.nan}).encode(),
        json.dumps({**GOOD_EVENT, "t_ms": math.inf}).encode(),
        json.dumps({**GOOD_EVENT, "event": 5}).encode(),
        json.dumps({**GOOD_EVENT, "attrs": [["a", 1]]}).encode(),
        b'{"request": 4, "seq": 0, "t_ms": 1.5, "event": "d\xffne"}',
    ],
    ids=["float-id", "bool-id", "nan-time", "inf-time", "int-event",
         "list-attrs", "not-utf8"],
)
def test_wrong_field_types_name_the_line(line):
    assert _read([json.dumps(GOOD_EVENT).encode(), line]) == (None, 2)


OPENMETRICS_LINES = st.one_of(
    st.sampled_from(
        ["# EOF", "# TYPE a gauge", "# HELP a text", "# TYPE a_total counter"]
    ),
    st.builds(
        lambda name, labels, value: f"{name}{labels} {value}",
        st.from_regex(r"[a-z_:][a-z0-9_:]{0,3}", fullmatch=True),
        st.sampled_from(
            ["", "{}", '{b="c"}', '{b="c",d="\\""}', '{b="c",}', "{b=c}",
             '{b="c"d="e"}', '{"x"}', "{b}", "{,}"]
        ),
        st.sampled_from(
            ["1", "-2.5", "1x", "NaN", "+Inf", "-Inf", "1e400", "--1", "0x1"]
        ),
    ),
    st.text(max_size=16),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(OPENMETRICS_LINES, max_size=6))
def test_parse_openmetrics_parses_or_names_the_line(lines):
    text = "\n".join(lines)
    try:
        families = parse_openmetrics(text)
    except ValueError as exc:
        match = re.match(r"line (\d+): ", str(exc))
        assert match, str(exc)
        assert 1 <= int(match.group(1)) <= len(text.splitlines()) + 1
        return
    for family in families.values():
        for name, labels, value in family["samples"]:
            assert isinstance(name, str) and isinstance(value, float)
            assert all(isinstance(v, str) for v in labels.values())
