"""Raw NDJSON batch lines decode exactly as their ``json.loads`` objects do.

The daemon hands :func:`packet_batch_from_json` each raw line.  A line in
the layout ``repro jobs feed`` sends is decoded column by column without
``json.loads``; every other line falls back to it.  Whatever the line —
canonical, re-spaced, reordered, truncated, or with a token that is not
canonical JSON — feeding the bytes must give what feeding
``json.loads(line)`` gives: the same packet records byte for byte (``time``
reads as zeros on both paths) or the same error class and message.
"""

from __future__ import annotations

import json
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.service.engine import (
    MAX_ENDPOINT_ID,
    MAX_PACKET_SIZE,
    BatchError,
    BatchJSONError,
    packet_batch_from_json,
)

COLUMNS = ("src", "dst", "time", "size", "valid")

_ids = st.one_of(
    st.integers(0, MAX_ENDPOINT_ID),
    st.sampled_from([0, MAX_ENDPOINT_ID, MAX_ENDPOINT_ID + 1, -1, -7, 2**63 - 1, 2**63, -(2**63), 10**19]),
)
_sizes = st.one_of(
    st.integers(0, MAX_PACKET_SIZE),
    st.sampled_from([0, MAX_PACKET_SIZE, MAX_PACKET_SIZE + 1, -1, 10**18]),
)
_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, -0.0, 1e-300, 1e308, 1.7976931348623157e308]),
    st.integers(-(10**20), 10**20),
)

#: Tokens substituted for one entry of one column: each is either not
#: canonical JSON, not JSON at all, or a value of the wrong kind.
LITERALS = [
    "01", "+1", "-0", "-", "00", "1-2", ".5", "5.", "-.5", "1.e5", "1e", "1e+", "1e-5", "1E+05",
    "1e400", "1e-400", "1e99", "1.5e+05", "1e5.5", "1.2.3", "1e5e5", "--1", "0.5", "-0.0",
    "NaN", "Infinity", "-Infinity", "true", "false", "null", "1.0", "100.0", "\"1\"", "[1]",
    "", " ", "1 ", "9" * 19, "9" * 20, "9" * 26 + ".5", "1" * 30, "0e5", "0.0e-05",
]

#: Bytes a random single-byte edit may write: the lexer's alphabet plus
#: structure and a non-ASCII byte.
EDIT_BYTES = b"0123456789-+.eE, []{}:tfx\"\n\xff"


@st.composite
def batches(draw):
    n = draw(st.integers(1, 6))
    return {
        "src": draw(st.lists(_ids, min_size=n, max_size=n)),
        "dst": draw(st.lists(_ids, min_size=n, max_size=n)),
        "time": draw(st.lists(_times, min_size=n, max_size=n)),
        "size": draw(st.lists(_sizes, min_size=n, max_size=n)),
        "valid": draw(st.lists(st.booleans(), min_size=n, max_size=n)),
    }


def _canonical(batch: dict) -> bytes:
    return json.dumps({name: batch[name] for name in COLUMNS}).encode()


def _with_token(batch: dict, column: str, index: int, literal: str) -> bytes:
    """The canonical line of *batch* with one entry written as *literal*."""
    parts = []
    for name in COLUMNS:
        tokens = [json.dumps(value) for value in batch[name]]
        if name == column:
            tokens[index % len(tokens)] = literal
        parts.append(f'"{name}": [{", ".join(tokens)}]')
    return ("{" + ", ".join(parts) + "}").encode()


def _outcome(batch):
    """Packet bytes of a decoded batch, or its error class and message."""
    try:
        trace = packet_batch_from_json(batch)
    except BatchError as error:
        return type(error).__name__, str(error)
    assert not trace.packets["time"].any()
    return trace.packets.tobytes()


def _reference(line: bytes):
    """What the ``json.loads`` path makes of *line*."""
    try:
        decoded = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        return BatchJSONError.__name__, str(error)
    return _outcome(decoded)


def _assert_same(line: bytes) -> None:
    assert _outcome(line) == _reference(line), line


@st.composite
def mutated_lines(draw):
    batch = draw(batches())
    kind = draw(
        st.sampled_from(
            ["compact", "spaces", "reorder", "drop", "token", "truncate", "edit", "pad"]
        )
    )
    line = _canonical(batch)
    if kind == "compact":
        return json.dumps(batch, separators=(",", ":")).encode()
    if kind == "spaces":
        return json.dumps(batch, separators=(" ,  ", " : ")).encode()
    if kind == "reorder":
        order = draw(st.permutations(COLUMNS))
        return json.dumps({name: batch[name] for name in order}).encode()
    if kind == "drop":
        keep = draw(st.sets(st.sampled_from(COLUMNS)))
        return json.dumps({name: batch[name] for name in COLUMNS if name in keep}).encode()
    if kind == "token":
        column = draw(st.sampled_from(COLUMNS))
        index = draw(st.integers(0, 5))
        return _with_token(batch, column, index, draw(st.sampled_from(LITERALS)))
    if kind == "truncate":
        return line[: draw(st.integers(0, len(line) - 1))]
    if kind == "edit":
        at = draw(st.integers(0, len(line) - 1))
        byte = draw(st.sampled_from(EDIT_BYTES))
        return line[:at] + bytes([byte]) + line[at + 1 :]
    return draw(st.sampled_from([b" ", b"\r", b"\t"])) + line + b"\r"


class TestDecodeEquivalence:
    @given(batch=batches())
    def test_canonical_lines(self, batch):
        _assert_same(_canonical(batch))

    @given(line=mutated_lines())
    def test_mutated_lines(self, line):
        _assert_same(line)

    @pytest.mark.parametrize("literal", LITERALS)
    @pytest.mark.parametrize("column", COLUMNS)
    def test_every_literal_in_every_column(self, column, literal):
        batch = {"src": [1, 2], "dst": [3, 4], "time": [0.5, 1.5], "size": [64, 1500], "valid": [True, False]}
        for index in (0, 1):
            _assert_same(_with_token(batch, column, index, literal))

    def test_not_utf8(self):
        line = b'{"src": [1], "dst": [2\xff]}'
        assert _outcome(line) == _reference(line)
        assert _outcome(line)[0] == "BatchJSONError"


class TestFastPath:
    @given(batch=batches())
    def test_canonical_line_never_calls_json_loads(self, batch):
        # keep the batches the fast path decodes: in-range values and
        # times it checks lexically
        batch["src"] = [min(max(v, 0), MAX_ENDPOINT_ID) for v in batch["src"]]
        batch["dst"] = [min(max(v, 0), MAX_ENDPOINT_ID) for v in batch["dst"]]
        batch["size"] = [min(max(v, 0), MAX_PACKET_SIZE) for v in batch["size"]]
        batch["time"] = [float(v) for v in batch["time"] if abs(float(v)) > 1e-99 or v == 0]
        batch["time"] = [v for v in batch["time"] if abs(v) < 1e99] or [0.0]
        n = len(batch["time"])
        for name in ("src", "dst", "size", "valid"):
            batch[name] = (batch[name] * n)[:n]
        line = _canonical(batch)
        expected = _reference(line)
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
            assert _outcome(line) == expected

    def test_perfbench_shaped_line(self):
        rng = np.random.default_rng(0)
        n = 5000
        batch = {
            "src": rng.integers(0, 60_000, n).tolist(),
            "dst": rng.integers(0, 60_000, n).tolist(),
            "time": np.cumsum(rng.exponential(1e-4, n)).tolist(),
            "size": rng.integers(40, 1500, n).tolist(),
            "valid": (rng.random(n) < 0.95).tolist(),
        }
        line = _canonical(batch)
        expected = _reference(line)
        with mock.patch.object(json, "loads", side_effect=AssertionError("json.loads called")):
            trace = packet_batch_from_json(line)
        assert trace.packets.tobytes() == expected
        assert trace.packets["src"].tolist() == batch["src"]
        assert trace.packets["size"].tolist() == batch["size"]
        assert trace.packets["valid"].tolist() == batch["valid"]
