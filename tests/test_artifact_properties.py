"""Property tests of the run artifacts the CLI reads back: fuzzed checkpoint
bytes either load or raise ValueError, fuzzed per-group dumps either load or
raise DataError, and fuzzed history files either raise ValueError or load
with finite non-negative losses and P@1 in [0, 1]."""

import math
import struct
import tempfile
from pathlib import Path

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coteach import MatcherSpec
from coteach.cli import METRIC_KEYS, DataError, _read_per_group_dump
from coteach.engine import RunHistory, read_history
from coteach.matcher import MATCHER_KINDS, ModelState, load_checkpoint, n_params

SETTINGS = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _with_file(data: bytes, read):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "artifact"
        path.write_bytes(data)
        return read(path)


# ---------------------------------------------------------------------------
# Checkpoints

FIELD = st.one_of(st.integers(-1, 10 ** 20).map(str), st.text(max_size=4),
                  st.sampled_from(MATCHER_KINDS + ("transformer",)))


@st.composite
def checkpoints(draw):
    """A well-formed checkpoint of a tiny matcher, some of whose parameters
    may be NaN or inf, with at most one kind of damage: a header field replaced, a
    vocabulary of up to 1e20 with its matching count, the header's newline
    changed, or the parameter bytes cut and extended."""
    kind = draw(st.sampled_from(MATCHER_KINDS))
    dims = draw(st.lists(st.integers(1, 3), min_size=3, max_size=3))
    count = n_params(MatcherSpec(kind, *dims))
    payload = struct.pack(f"<{count}d", *draw(
        st.lists(st.floats(), min_size=count, max_size=count)))
    fields = [kind, *map(str, dims), str(count)]
    newline = "\n"
    damage = draw(st.sampled_from(["none", "field", "huge", "newline", "payload"]))
    if damage == "field":
        fields[draw(st.integers(0, 4))] = draw(FIELD)
    elif damage == "huge":
        dims[0] = draw(st.integers(10 ** 6, 10 ** 20))
        fields = [kind, *map(str, dims), str(n_params(MatcherSpec(kind, *dims)))]
    elif damage == "newline":
        newline = draw(st.sampled_from(["", " \n", "\r\n", "\n\n"]))
    elif damage == "payload":
        payload = (payload[:draw(st.integers(0, len(payload)))]
                   + draw(st.binary(max_size=16)))
    return (" ".join(fields) + newline).encode() + payload


def _load_or_value_error(data: bytes):
    try:
        model = _with_file(data, load_checkpoint)
    except ValueError:
        return
    assert isinstance(model, ModelState)
    assert np.all(np.isfinite(model.params))


@SETTINGS
@given(data=checkpoints())
def test_fuzzed_checkpoints_raise_only_value_errors(data):
    _load_or_value_error(data)


@SETTINGS
@given(data=st.binary(max_size=120))
def test_fuzzed_checkpoint_bytes_raise_only_value_errors(data):
    _load_or_value_error(data)


# ---------------------------------------------------------------------------
# Per-group dumps

CELL = st.sampled_from(["0", "1", "0.5", "nan", "-inf", "1e400", "x", "", " ",
                        '"', '"1,2"', "٣", "\r"])
ROW = st.one_of(st.lists(st.floats().map(repr), min_size=7, max_size=7),
                st.lists(CELL, min_size=5, max_size=9)).map(",".join)
DUMP_BODY = st.one_of(st.lists(ROW, max_size=6).map("\n".join), st.text(max_size=80))
DUMP_HEADER = ",".join(["group_id", *METRIC_KEYS]) + "\n"


def _dump_or_data_error(data: bytes):
    try:
        columns = _with_file(data, _read_per_group_dump)
    except DataError:
        return
    assert set(columns) == set(METRIC_KEYS)
    assert len({len(v) for v in columns.values()}) == 1


@SETTINGS
@given(header=st.sampled_from(["", "group_id,AP,RR\n", DUMP_HEADER]), body=DUMP_BODY)
def test_fuzzed_dump_text_raises_only_data_errors(header, body):
    _dump_or_data_error((header + body).encode())


@SETTINGS
@given(body=st.binary(max_size=80))
def test_fuzzed_dump_bytes_raise_only_data_errors(body):
    _dump_or_data_error(DUMP_HEADER.encode() + body)


# ---------------------------------------------------------------------------
# History files

HISTORY_HEADER = "iter,loss_A,loss_B,valid_P@1_A,valid_P@1_B"
HISTORY_CELL = st.sampled_from(["0", "1", "2", "-1", "0.5", "nan", "x", "", '"'])
HISTORY_ROW = st.one_of(
    st.builds("{},{!r},{!r},{}".format, st.integers(-1, 3), st.floats(),
              st.floats(), st.sampled_from([",", "0.5,1.0", "0.5,", ",0.5"])),
    st.lists(HISTORY_CELL, min_size=4, max_size=6).map(",".join))
HISTORY_BODY = st.one_of(st.lists(HISTORY_ROW, max_size=6).map("\n".join),
                         st.text(max_size=80))


@SETTINGS
@given(body=HISTORY_BODY, tail=st.binary(max_size=8))
def test_fuzzed_history_raises_only_value_errors(body, tail):
    try:
        history = _with_file((HISTORY_HEADER + "\n" + body).encode() + tail,
                             read_history)
    except ValueError:
        return
    assert isinstance(history, RunHistory)
    for r in history.records:
        assert r.iteration >= 1
        assert (r.valid_p1_a is None) == (r.valid_p1_b is None)
        assert 0.0 <= r.loss_a < math.inf and 0.0 <= r.loss_b < math.inf
        if r.valid_p1_a is not None:
            assert 0.0 <= r.valid_p1_a <= 1.0 and 0.0 <= r.valid_p1_b <= 1.0
