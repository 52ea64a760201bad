"""Codec for the ASCII sequential-record results file format.

The file is a sequence of 80-character physical lines.  Logical records are
laid out back to back in the concatenated character stream; each record starts
with an asterisk and consists of data items: the item count L, the record type
key, and L-2 attribute items.  A record may span line boundaries, splitting
anywhere, even mid-token.

Three data-item encodings exist:

* integer   -- ``I`` + 2-char width field + the digits (a leading minus sign
  counts as a digit position),
* float     -- ``D`` + 22-char scientific form (``E`` or ``D`` exponent marker
  accepted on decode; ``E`` always emitted),
* string    -- ``A`` + exactly 8 characters, blank-padded on the right.

Decoded attribute values are plain Python ``int``, ``float`` and 8-character
``str`` objects.  A :class:`LogicalRecord` stores only its key and attributes;
its length is derived as 2 + the attribute count, so a record cannot disagree
with the item count it encodes to.
"""

from __future__ import annotations

from dataclasses import dataclass

from ._base import FempostError

__all__ = [
    "LINE_WIDTH",
    "FilCodecError",
    "UnknownItemMarker",
    "MalformedWidth",
    "MalformedFloat",
    "TruncatedItem",
    "BadRecordHeader",
    "AttributeUnderrun",
    "InvariantViolation",
    "LogicalRecord",
    "str8",
    "fil_to_string",
    "decode_item",
    "decode_stream",
    "encode_item",
    "encode_record",
    "encode_stream",
    "write_fil",
]

LINE_WIDTH = 80


class FilCodecError(FempostError):
    """Base class for codec failures.  Carries the flat-stream offset."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (stream offset {offset})"
        super().__init__(message)
        self.offset = offset


class UnknownItemMarker(FilCodecError):
    """Leading character of an item is not one of I, D, A."""


class MalformedWidth(FilCodecError):
    """Integer width field is not a 1-99 integer."""


class MalformedFloat(FilCodecError):
    """22-character float field does not parse."""


class TruncatedItem(FilCodecError):
    """Stream ends in the middle of a data item."""


class BadRecordHeader(FilCodecError):
    """Record length or key item is not a valid integer item."""


class AttributeUnderrun(FilCodecError):
    """Stream ends before the declared number of attributes is read."""


class InvariantViolation(FilCodecError):
    """Record to encode has a negative key."""


def str8(text: str) -> str:
    """Return *text* blank-padded to exactly 8 characters.

    Raises ValueError for strings longer than 8; the caller must pre-split
    long strings into consecutive 8-character items.
    """
    if len(text) > 8:
        raise ValueError(f"string item longer than 8 characters: {text!r}")
    return text.ljust(8)


@dataclass(frozen=True)
class LogicalRecord:
    """One logical record: type key and attribute items."""

    key: int
    attributes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "attributes", tuple(self.attributes))

    @property
    def length(self) -> int:
        """Item count of the record: length and key items plus the attributes."""
        return 2 + len(self.attributes)


def fil_to_string(file_path) -> str:
    """Read a results file and return its content as one flat string.

    Every carriage-return and line-feed character is removed; nothing else is
    altered, so files with LF and CRLF endings flatten identically.
    """
    with open(file_path, "r", newline="") as fh:
        raw = fh.read()
    return raw.replace("\r", "").replace("\n", "")


def decode_item(stream: str, position: int):
    """Decode one data item at *position*; return ``(value, next_position)``."""
    n = len(stream)
    if position >= n:
        raise TruncatedItem("stream ends where an item marker is expected", position)
    marker = stream[position]
    if marker == "I":
        if position + 3 > n:
            raise TruncatedItem("stream ends inside an integer width field", position)
        wfield = stream[position + 1 : position + 3]
        try:
            width = int(wfield)
        except ValueError:
            raise MalformedWidth(f"bad integer width field {wfield!r}", position) from None
        if not 1 <= width <= 99:
            raise MalformedWidth(f"integer width {width} outside 1-99", position)
        end = position + 3 + width
        if end > n:
            raise TruncatedItem("stream ends inside an integer value", position)
        digits = stream[position + 3 : end]
        try:
            value = int(digits)
        except ValueError:
            raise MalformedWidth(f"bad integer digits {digits!r}", position) from None
        return value, end
    if marker == "D":
        end = position + 23
        if end > n:
            raise TruncatedItem("stream ends inside a float item", position)
        text = stream[position + 1 : end]
        try:
            value = float(text.replace("D", "E").replace("d", "e"))
        except ValueError:
            raise MalformedFloat(f"bad float field {text!r}", position) from None
        return value, end
    if marker == "A":
        end = position + 9
        if end > n:
            raise TruncatedItem("stream ends inside a string item", position)
        return stream[position + 1 : end], end
    raise UnknownItemMarker(f"unknown item marker {marker!r}", position)


def _decode_record(flat: str, position: int):
    """Decode the record whose asterisk sits at *position*."""
    start = position
    try:
        length, pos = decode_item(flat, position + 1)
    except FilCodecError as exc:
        raise BadRecordHeader(f"record length item unreadable: {exc}", start) from exc
    if not isinstance(length, int):
        raise BadRecordHeader("record length item is not an integer", start)
    if length < 2:
        raise BadRecordHeader(f"record length {length} < 2", start)
    try:
        key, pos = decode_item(flat, pos)
    except FilCodecError as exc:
        raise BadRecordHeader(f"record key item unreadable: {exc}", start) from exc
    if not isinstance(key, int):
        raise BadRecordHeader("record key item is not an integer", start)
    if key < 0:
        raise BadRecordHeader(f"record key {key} < 0", start)
    attributes = []
    for _ in range(length - 2):
        try:
            value, pos = decode_item(flat, pos)
        except TruncatedItem as exc:
            raise AttributeUnderrun(
                f"record at offset {start} declares {length - 2} attributes "
                f"but the stream ends after {len(attributes)}",
                start,
            ) from exc
        attributes.append(value)
    return LogicalRecord(key=key, attributes=tuple(attributes)), pos


def decode_stream(flat: str, lenient: bool = False) -> "list[LogicalRecord]":
    """Decode a flat (line-break-free) character stream into logical records.

    Trailing blank padding is ignored.  A garbled record header raises a
    positioned :class:`BadRecordHeader`; with ``lenient=True`` the decoder
    instead resynchronizes on the next asterisk.
    """
    if "\n" in flat or "\r" in flat:
        raise FilCodecError("flat stream must not contain line breaks")
    records: list[LogicalRecord] = []
    pos = 0
    n = len(flat)
    while pos < n:
        c = flat[pos]
        if c == "*":
            try:
                record, pos = _decode_record(flat, pos)
            except (BadRecordHeader, AttributeUnderrun):
                if not lenient:
                    raise
                nxt = flat.find("*", pos + 1)
                if nxt < 0:
                    break
                pos = nxt
                continue
            records.append(record)
        elif c == " ":
            if flat[pos:].strip() == "":
                break  # trailing padding of the final physical line
            raise BadRecordHeader("blank run before end of stream", pos)
        else:
            if lenient:
                nxt = flat.find("*", pos)
                if nxt < 0:
                    break
                pos = nxt
                continue
            raise BadRecordHeader(f"expected '*' at record start, found {c!r}", pos)
    return records


def encode_item(value) -> str:
    """Encode one attribute value in its data-item form."""
    if isinstance(value, bool):
        raise FilCodecError(f"cannot encode {value!r} as a data item")
    if isinstance(value, int):
        digits = str(value)
        width = len(digits)
        if width > 99:
            raise FilCodecError(f"integer {value} needs a width > 99")
        return f"I{width:2d}{digits}"
    if isinstance(value, float):
        # 15 fractional digits unless sign + 3-digit exponent would overflow
        # the 22-character field.
        for prec in (15, 14, 13):
            text = f"{value:.{prec}E}"
            if len(text) <= 22:
                return "D" + text.rjust(22)
        raise MalformedFloat(f"cannot encode {value!r} in 22 characters")
    if isinstance(value, str):
        return "A" + str8(value)
    raise FilCodecError(f"cannot encode {value!r} as a data item")


def encode_record(record: LogicalRecord) -> str:
    """Encode one logical record as a flat character string."""
    if record.key < 0:
        raise InvariantViolation(f"record key {record.key} < 0")
    parts = ["*", encode_item(record.length), encode_item(record.key)]
    parts.extend(encode_item(a) for a in record.attributes)
    return "".join(parts)


def encode_stream(records) -> str:
    """Encode records into 80-character physical lines joined by newlines.

    Records are concatenated and sliced every 80 characters, splitting items
    mid-token where the boundary falls; the final line is blank-padded to 80.
    An empty stream encodes to the empty string.
    """
    flat = "".join(encode_record(r) for r in records)
    if not flat:
        return ""
    lines = [flat[i : i + LINE_WIDTH] for i in range(0, len(flat), LINE_WIDTH)]
    lines[-1] = lines[-1].ljust(LINE_WIDTH)
    return "\n".join(lines)


def write_fil(records, file_path) -> None:
    """Encode *records* and write them to *file_path*."""
    text = encode_stream(records)
    with open(file_path, "w", newline="") as fh:
        fh.write(text)
        if text:
            fh.write("\n")
