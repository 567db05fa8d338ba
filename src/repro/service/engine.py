"""The incremental analysis engine behind one resident service job.

:class:`JobEngine` is the push-driven face of the single-pass engine: a
:class:`~repro.streaming.window.PushWindower` cuts arbitrary incoming
packet batches into exactly the windows a one-shot run would cut, and
every completed window goes through
:func:`repro.streaming.pipeline.fold_windows` — the *same* fold loop
:func:`~repro.streaming.pipeline.analyze_trace`,
:func:`~repro.scenarios.run.analyze_scenario`, and every campaign worker
drive.  Nothing here re-implements analysis; the daemon is one more caller
of the engine, which is why an incrementally-fed job reproduces the
one-shot pooled vectors and alarm sequences **bit for bit**
(``tests/test_service_properties.py``).

Batch validation (:func:`packet_batch_from_json`) happens entirely before
any fold: a malformed batch raises :class:`BatchError` and leaves the
engine's analyzer state untouched, so the next valid batch folds cleanly —
the containment contract the fault-injection suite pins.

The daemon hands :func:`packet_batch_from_json` each raw NDJSON line.  A
line in the layout ``repro jobs feed`` sends (one ``json.dumps`` of the
five columns, default separators) is decoded column by column straight
into numpy without building Python lists; any other line goes through
``json.loads``.  Both paths accept the same lines and raise the same
errors (``tests/test_service_decode.py``).  The engine never reads a
packet's ``time``, so a service batch checks that column (finite numbers)
but holds it as zeros on both paths.  Pooled vectors, alarms, flush
payloads and the :data:`SNAPSHOT_FORMAT` layout are unaffected; only the
buffered packets inside a checkpoint carry zero times.
"""

from __future__ import annotations

import json
from typing import Mapping, Union

import numpy as np

from repro.detect.analyzer import DetectingAnalyzer
from repro.service.config import JobConfig
from repro.streaming.packet import PacketTrace
from repro.streaming.parallel import get_backend
from repro.streaming.pipeline import StreamAnalyzer, WindowedAnalysis, fold_windows
from repro.streaming.window import PushWindower

__all__ = [
    "BatchError",
    "BatchJSONError",
    "JobEngine",
    "MAX_ENDPOINT_ID",
    "MAX_PACKET_SIZE",
    "SNAPSHOT_FORMAT",
    "packet_batch_from_json",
]

#: Version of the :meth:`JobEngine.snapshot` payload layout.  Bump on any
#: incompatible change; :meth:`JobEngine.restore` refuses other versions so
#: a daemon never resumes from state it would misinterpret.
SNAPSHOT_FORMAT = 1

#: Largest endpoint id a service batch may carry.  Ids are stored as int64
#: and packed into ``(src << 32) | dst`` keys by the fused kernel; the
#: service rejects anything outside ``[0, 2**32)`` up front instead of
#: silently taking the slow fallback path on attacker-controlled input.
MAX_ENDPOINT_ID = 2**32 - 1

#: Largest packet size a service batch may carry: the record's ``size``
#: field is int32.
MAX_PACKET_SIZE = 2**31 - 1


class BatchError(ValueError):
    """A packet batch failed validation; nothing was folded."""


class BatchJSONError(BatchError):
    """A raw batch line is not UTF-8 JSON; the message is the decoder's."""


def _batch_column(batch: Mapping, name: str, n: int | None) -> np.ndarray:
    """One required id column of a JSON batch, validated to int64 in range."""
    if name not in batch:
        raise BatchError(f"batch is missing the {name!r} column")
    try:
        column = np.asarray(batch[name])
    except (TypeError, ValueError) as error:
        raise BatchError(f"batch column {name!r} is not array-like: {error}") from error
    if column.ndim != 1:
        raise BatchError(f"batch column {name!r} must be 1-D, got shape {column.shape}")
    if n is not None and column.size != n:
        raise BatchError(
            f"batch column {name!r} has {column.size} entries but 'src' has {n}"
        )
    if column.size and not np.issubdtype(column.dtype, np.integer):
        # JSON numbers arrive as int64 when integral; floats/strings are
        # malformed input, not something to round
        raise BatchError(f"batch column {name!r} must be integers, got dtype {column.dtype}")
    if column.size:
        _check_integers(batch[name], column, name, "ids", MAX_ENDPOINT_ID)
    return column.astype(np.int64, copy=False)


def _check_integers(raw, column: np.ndarray, name: str, what: str, high_bound: int) -> None:
    """Raise unless integral *column* lies in ``[0, high_bound]`` and held no booleans.

    ``np.asarray`` reads ``[true, 2]`` as the integers ``[1, 2]``, so only
    entries equal to 0 or 1 can have been booleans; just those entries of
    the decoded list are looked at.
    """
    low, high = column.min(), column.max()
    if low < 0 or high > high_bound:
        raise BatchError(
            f"batch column {name!r} has out-of-range {what} (min {low}, max {high}); "
            f"{what} must be in [0, {high_bound}]"
        )
    if low <= 1 and not isinstance(raw, np.ndarray):
        suspects = np.flatnonzero(column <= 1).tolist()
        if any(isinstance(raw[i], (bool, np.bool_)) for i in suspects):
            raise BatchError(f"batch column {name!r} must be integers, got booleans")


def _check_optional(raw, column: np.ndarray, name: str) -> None:
    """Value checks of the optional ``time`` and ``size`` columns.

    Times must be finite.  Sizes must be integral (JSON ``100.0`` is
    accepted), not booleans, and fit the int32 record field, so nothing
    wraps or casts with a warning when the trace is built.
    """
    if name == "time":
        # min and max propagate NaN and expose either infinity
        if not (np.isfinite(column.min()) and np.isfinite(column.max())):
            raise BatchError("batch column 'time' must be finite numbers (no NaN or Infinity)")
        return
    if np.issubdtype(column.dtype, np.floating) and not (column == np.trunc(column)).all():
        raise BatchError("batch column 'size' must be integral byte counts")
    _check_integers(raw, column, name, "sizes", MAX_PACKET_SIZE)


#: The columns of a ``repro jobs feed`` line, each with the JSON text that
#: precedes its ``[...]`` span, in ``json.dumps`` order and spacing; the
#: line ends with ``]}``.
_CANONICAL_KEYS = (
    ("src", b'{"src": ['),
    ("dst", b'], "dst": ['),
    ("time", b'], "time": ['),
    ("size", b'], "size": ['),
    ("valid", b'], "valid": ['),
)

_POW10 = [10**k for k in range(1, 19)]
#: Longest integer part of a ``time`` token checked lexically.  With at
#: most two exponent digits such a literal is below 1e124, so it cannot
#: overflow to infinity; longer ones go through ``json.loads``.
_MAX_INT_DIGITS = 25
#: Longest integer-only ``time`` token checked lexically: ``np.asarray``
#: gives a decoded list holding an integer past 64 bits the object dtype.
_MAX_INT_TOKEN_DIGITS = 18
_TRUE4, _FALS4 = (int.from_bytes(word, "little") for word in (b"true", b"fals"))
_TAIL3 = int.from_bytes(b"e, ", "little")

_COMMA, _SPACE, _MINUS, _PLUS, _DOT, _ZERO = (ord(c) for c in ", -+.0")


def _int_span(span: bytes) -> np.ndarray | None:
    """The int64 values of a span of canonical JSON integers, or ``None``.

    ``np.fromstring`` reads ``+1``, ``01``, ``-0``, ``-`` and empty tokens
    and clamps values past int64, so the span must hold only ``", "``
    separators and tokens of a digit or ``-`` and a digit followed by
    digits.  The parser reads each such token whole and it is at least as
    long as its value's canonical form, so when the canonical widths add up
    to the span's length every token is canonical.
    """
    codes = np.frombuffer(span, np.uint8)
    # uint8 arithmetic wraps every byte below "0" past 9
    digit = (codes - _ZERO) < 10
    comma = codes == _COMMA
    space = codes == _SPACE
    minus = codes == _MINUS
    commas = int(np.count_nonzero(comma))
    minuses = int(np.count_nonzero(minus))
    if (
        not span
        or not (digit[0] or minus[0])
        or int(np.count_nonzero(space)) != commas
        or int(np.count_nonzero(comma[:-1] & space[1:])) != commas
        or int(np.count_nonzero(space[:-1] & (digit[1:] | minus[1:]))) != commas
        or int(np.count_nonzero(minus[:-1] & digit[1:])) != minuses
        or int(np.count_nonzero(digit)) + 2 * commas + minuses != len(span)
    ):
        return None
    try:
        values = np.fromstring(span, np.int64, sep=",")
    except ValueError:
        return None
    n = commas + 1
    if values.size != n:
        return None
    low, high = values.min(), values.max()
    if high >= _POW10[-1] or low <= -_POW10[-1]:
        return None
    magnitude, width = values, n
    if low < 0:
        magnitude = np.abs(values)
        width += int(np.count_nonzero(values < 0))
    top = max(high, -low)
    for power in _POW10:
        if power > top:
            break
        width += int(np.count_nonzero(magnitude >= power))
    if width + 2 * (n - 1) != len(span):
        return None
    return values


def _bool_span(span: bytes) -> np.ndarray | None:
    """The values of a span of ``true``/``false`` tokens, or ``None``.

    Every ``t`` and ``f`` must start a token and the next token must start
    the token's width plus two bytes later.  Two 4-byte reads per token then
    cover every byte: ``true``/``fals`` at its start and ``e, `` at its end.
    """
    padded = span + b", \0"
    codes = np.frombuffer(padded, np.uint8)
    starts = np.flatnonzero((codes == ord("t")) | (codes == ord("f")))
    if starts.size == 0 or starts[0] != 0:
        return None
    values = codes[starts] == ord("t")
    ends = starts + 5 - values
    if ends[-1] != len(span) or not np.array_equal(starts[1:], ends[:-1] + 2):
        return None
    words = np.ndarray((len(padded) - 3,), "<u4", padded, strides=(1,))
    if not (words[starts] == np.where(values, _TRUE4, _FALS4)).all():
        return None
    if not ((words[ends - 1] & 0xFFFFFF) == _TAIL3).all():
        return None
    return values


def _finite_number_span(line: bytes, start: int, end: int, n: int) -> bool:
    """Whether ``line[start:end]`` is *n* finite JSON number literals ``json.loads`` reads alike.

    The span must sit between a ``[`` and a ``]``; it is read in place.  A
    lexical check only (parsing floats would cost more than the rest of the
    decode).  It walks the non-digit bytes in order with the count of
    digits between each pair: every ``.`` has a digit on both sides, a
    token holds at most one ``.`` and one ``e``/``E`` with the ``.`` first,
    ``-`` sits only at a token's start or right after the exponent marker
    and ``+`` only there, a sign is followed by a digit, and no integer part
    has a leading zero.  An exponent of three or more digits, an integer
    part longer than :data:`_MAX_INT_DIGITS` and an integer-only token
    longer than :data:`_MAX_INT_TOKEN_DIGITS` are refused, so what passes
    is finite and decodes to a numeric array.
    """
    if start == end:
        return False
    codes = np.frombuffer(line, np.uint8, end - start + 2, start - 1)
    # digits as in _int_span, but in place, so the check of a large batch
    # holds one byte per input byte at most
    nondigit = np.subtract(codes, _ZERO)
    np.greater(nondigit, 9, out=nondigit.view(np.bool_))
    where = np.flatnonzero(nondigit.view(np.bool_))
    del nondigit
    symbols = codes[where]
    # the brackets give the first token a space before it and the last a
    # comma after it, like every other token
    symbols[0], symbols[-1] = _SPACE, _COMMA
    digits = np.diff(where)
    digits -= 1
    where += 1
    first_digit = codes[where[:-1]]
    del where
    comma = symbols == _COMMA
    space = symbols == _SPACE
    minus = symbols == _MINUS
    plus = symbols == _PLUS
    dot = symbols == _DOT
    exp = (symbols == ord("e")) | (symbols == ord("E"))
    if int(np.count_nonzero(comma)) != n or sum(
        int(np.count_nonzero(mask)) for mask in (comma, space, minus, plus, dot, exp)
    ) != symbols.size:
        return False
    exp_sign = minus[1:] & exp[:-1]
    if exp_sign.any():
        minus[1:] &= ~exp_sign
        plus[1:] |= exp_sign
    prev_comma, prev_space, prev_minus = comma[:-1], space[:-1], minus[:-1]
    prev_dot, prev_exp, prev_plus = dot[:-1], exp[:-1], plus[:-1]
    next_comma, next_dot, next_exp = comma[1:], dot[1:], exp[1:]
    leads = prev_space | prev_minus
    # the pairs of non-digit bytes a JSON number allows with no digit
    # between them, and those it allows only with digits between
    adjacent = (
        (prev_comma & space[1:]) | (prev_space & minus[1:]) | (prev_exp & plus[1:])
    )
    apart = (
        (next_comma & ~prev_comma)
        | (next_exp & (leads | prev_dot))
        | (next_dot & leads)
    )
    if not ((adjacent | apart) & (adjacent == (digits == 0))).all():
        return False
    too_long = (
        (next_comma & (prev_exp | prev_plus) & (digits > 2))
        | (leads & (next_dot | next_exp) & (digits > _MAX_INT_DIGITS))
        | (leads & next_comma & (digits > _MAX_INT_TOKEN_DIGITS))
        | (leads & (digits > 1) & (first_digit == _ZERO))
    )
    return not too_long.any()


def _canonical_columns(line: bytes) -> dict | None:
    """Decode a line in ``repro jobs feed``'s layout into numpy columns.

    Returns ``None`` for any other line (including every malformed one);
    the caller then decodes it with ``json.loads``.  ``time`` is checked
    but not parsed: its entry is ``None``, which the validator skips.
    """
    spans = {}
    position = 0
    for name, opener in _CANONICAL_KEYS:
        if not line.startswith(opener, position):
            return None
        position += len(opener)
        # no span of an accepted line holds a "]", so the first one ends it
        end = line.find(b"]", position)
        if end < 0:
            return None
        spans[name] = (position, end)
        position = end
    if line[position:] != b"]}":
        return None
    columns = {}
    for name in ("src", "dst", "size"):
        start, end = spans[name]
        columns[name] = _int_span(line[start:end])
        if columns[name] is None:
            return None
    start, end = spans["valid"]
    columns["valid"] = _bool_span(line[start:end])
    n = columns["src"].size
    if columns["valid"] is None or not _finite_number_span(line, *spans["time"], n):
        return None
    columns["time"] = None
    return columns


def _decode_line(line: bytes) -> Mapping:
    """One raw NDJSON batch line as the object ``json.loads`` reads."""
    columns = _canonical_columns(line)
    if columns is not None:
        return columns
    try:
        return json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise BatchJSONError(str(error)) from None


def packet_batch_from_json(batch: Mapping | bytes) -> PacketTrace:
    """Validate one JSON batch and build its :class:`PacketTrace`.

    *batch* is a decoded JSON object or one raw NDJSON line (``bytes``).
    A line in the layout ``repro jobs feed`` sends is decoded straight
    into numpy; any other line is decoded with ``json.loads``, and a line
    that is not UTF-8 JSON raises :class:`BatchJSONError`.

    A batch is an object with integer id columns ``src`` and ``dst`` (equal
    length, ids in ``[0, 2**32)``) and optional ``time`` (finite numbers),
    ``size`` (integers in ``[0, 2**31)``), and ``valid`` (booleans) columns
    of the same length.  JSON booleans are not integers here.  Every failure
    mode raises :class:`BatchError` with a message naming the offending
    column — and, critically, raises **before** any analyzer state could
    change.  The engine never reads ``time``: the trace holds it as zeros.
    """
    if isinstance(batch, bytes):
        batch = _decode_line(batch)
    if not isinstance(batch, Mapping):
        raise BatchError(f"batch must be a JSON object, got {type(batch).__name__}")
    unknown = sorted(set(batch) - {"src", "dst", "time", "size", "valid"})
    if unknown:
        raise BatchError(f"unknown batch column(s) {unknown}; valid: src dst time size valid")
    src = _batch_column(batch, "src", None)
    dst = _batch_column(batch, "dst", int(src.size))
    n = int(src.size)
    if n == 0:
        raise BatchError("batch is empty (src has no entries)")
    optional: dict = {}
    for name in ("time", "size", "valid"):
        if name not in batch or batch[name] is None:
            continue
        try:
            column = np.asarray(batch[name])
        except (TypeError, ValueError) as error:
            raise BatchError(f"batch column {name!r} is not array-like: {error}") from error
        if column.ndim != 1 or column.size != n:
            raise BatchError(f"batch column {name!r} must be 1-D of length {n}")
        if name == "valid":
            if column.dtype != np.bool_:
                raise BatchError(f"batch column 'valid' must be booleans, got dtype {column.dtype}")
        elif not np.issubdtype(column.dtype, np.number):
            raise BatchError(f"batch column {name!r} must be numbers, got dtype {column.dtype}")
        else:
            _check_optional(batch[name], column, name)
        optional[name] = column
    optional["time"] = np.zeros(n)
    try:
        return PacketTrace.from_arrays(src, dst, **optional)
    except (TypeError, ValueError) as error:  # pragma: no cover - belt and braces
        raise BatchError(f"batch does not form a valid packet trace: {error}") from error


class JobEngine:
    """Push-driven incremental analysis for one job config.

    Feed validated :class:`PacketTrace` batches via :meth:`ingest`; complete
    windows are cut by a :class:`PushWindower` (bit-identical to one-shot
    windowing for any re-batching) and folded through
    :func:`fold_windows` into a :class:`StreamAnalyzer` — wrapped in a
    :class:`DetectingAnalyzer` when the job config asks for detection.
    All state is O(bins + one window buffer); a job can ingest forever.
    """

    def __init__(self, config: JobConfig) -> None:
        self.config = config
        window = config.window
        analyzer = StreamAnalyzer(
            window.n_valid,
            window.quantities,
            keep_windows=False,
            mode=window.mode,
            sketch=config.sketch_config(),
        )
        self.folder: Union[StreamAnalyzer, DetectingAnalyzer] = analyzer
        if config.detection.detectors:
            self.folder = DetectingAnalyzer(
                analyzer, config.detection.detectors, quantity=config.detection.quantity
            )
        self._windower = PushWindower(window.n_valid)
        self._backend = get_backend("serial")
        self.packets_ingested = 0
        self.batches_ingested = 0
        #: Highest ingest sequence number folded and acknowledged.  The
        #: server advances it once per successful ingest request (explicit
        #: client ``seq`` or implicit increment) and the checkpoint layer
        #: persists it, which is what lets a feeder replay unacked batches
        #: idempotently after a crash.
        self.acked_seq = 0

    @property
    def windows_folded(self) -> int:
        """Complete windows analysed and folded so far."""
        return self.folder.n_windows

    @property
    def packets_buffered(self) -> int:
        """Packets held toward the next incomplete window."""
        return self._windower.buffered_packets

    @property
    def alarms_raised(self) -> int:
        """Total detector alarms so far (0 when the job runs no detectors)."""
        if isinstance(self.folder, DetectingAnalyzer):
            return sum(len(a) for a in self.folder.detection().alarms.values())
        return 0

    def ingest(self, chunk: PacketTrace) -> int:
        """Fold one packet batch; return how many windows it completed.

        The batch joins the window buffer; every window it completes is
        analysed and folded through the shared fold loop immediately.
        Packets short of a window stay buffered for the next batch (or the
        shutdown drain).
        """
        windows = self._windower.push(chunk)
        self.packets_ingested += chunk.n_packets
        self.batches_ingested += 1
        if windows:
            fold_windows(self._backend, windows, self.folder)
        return len(windows)

    def snapshot(self) -> dict:
        """Exact full fold state of this job, for durable checkpoints.

        Covers everything :meth:`ingest` mutates — the windower's residual
        packet buffer (whose ``time`` column is zeros, as in every service
        batch), the analyzer's merged histograms and Welford moments,
        per-detector internal state and alarm indices, the ingest counters,
        and :attr:`acked_seq`.  Serialized values are copies of the live
        float64/int64 arrays (lossless exact bytes), so an engine restored
        from this snapshot and fed the remaining batches produces pooled
        vectors and alarm sequences ``tobytes()``-identical to one that was
        never interrupted.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "config_hash": self.config.config_hash(),
            "acked_seq": int(self.acked_seq),
            "packets_ingested": int(self.packets_ingested),
            "batches_ingested": int(self.batches_ingested),
            "windower": self._windower.snapshot(),
            "folder": {
                "kind": "detecting" if isinstance(self.folder, DetectingAnalyzer) else "stream",
                "state": self.folder.snapshot(),
            },
        }

    def restore(self, snapshot: Mapping) -> None:
        """Replace this engine's state with a :meth:`snapshot` payload.

        The engine must have been constructed from the same job config (the
        snapshot pins the config's content hash) — restore loads numeric
        state into the already-validated structure, it never rebuilds
        analyzers from untrusted data.
        """
        if int(snapshot.get("format", -1)) != SNAPSHOT_FORMAT:
            raise ValueError(
                f"snapshot format {snapshot.get('format')!r} is not supported "
                f"(this build reads format {SNAPSHOT_FORMAT})"
            )
        if snapshot.get("config_hash") != self.config.config_hash():
            raise ValueError(
                "snapshot was taken under a different job config "
                f"(hash {str(snapshot.get('config_hash'))[:12]}... != "
                f"{self.config.config_hash()[:12]}...)"
            )
        folder = snapshot["folder"]
        expected_kind = "detecting" if isinstance(self.folder, DetectingAnalyzer) else "stream"
        if folder.get("kind") != expected_kind:
            raise ValueError(
                f"snapshot folder kind {folder.get('kind')!r} does not match "
                f"this job's {expected_kind!r} analyzer"
            )
        self.folder.restore(folder["state"])
        self._windower.restore(snapshot["windower"])
        self.acked_seq = int(snapshot["acked_seq"])
        self.packets_ingested = int(snapshot["packets_ingested"])
        self.batches_ingested = int(snapshot["batches_ingested"])

    def result(self) -> WindowedAnalysis:
        """Finalize the folded windows into a :class:`WindowedAnalysis`.

        Raises ``ValueError`` when no complete window has been folded yet
        (same contract as the one-shot engine).  The engine stays usable —
        finalizing is a read, not a stop.
        """
        return self.folder.result(
            stats={
                "backend": "service",
                "n_chunks": self._windower.n_chunks,
                "max_buffered_packets": self._windower.max_buffered_packets,
            }
        )

    def detection(self):
        """The job's :class:`~repro.detect.analyzer.DetectionResult` so far.

        ``None`` when the job config requested no detectors.
        """
        if isinstance(self.folder, DetectingAnalyzer):
            return self.folder.detection()
        return None
