r"""Codec for the ASCII sequential-record results file format.

The file is a sequence of 80-character physical lines.  Logical records are
laid out back to back in the concatenated character stream; each record starts
with an asterisk and consists of data items: the item count L, the record type
key, and L-2 attribute items.  A record may span line boundaries, splitting
anywhere, even mid-token.

The item grammar, which the decoder matches and the encoder writes:

* integer -- ``I``, a width field of 1-99 right-aligned in 2 characters, then
  exactly that many characters of ``0|-?[1-9][0-9]*`` (the digits ``str(int)``
  writes: no sign on positives, no leading zeros, no ``-0``),
* float   -- ``D`` and 22 characters of right-aligned ASCII scientific form,
  `` *-?[0-9]\.[0-9]+[ED][-+][0-9]{2,3}`` (``E`` always emitted),
* string  -- ``A`` and exactly 8 characters, blank-padded on the right.

A record is ``*``, an integer item count >= 2, an integer key >= 0, then the
attribute items.  Anything else raises a positioned :class:`FilCodecError`
subclass.  Non-finite floats are rejected both ways: the encoder refuses NaN
and infinity, and the decoder refuses a field that overflows a double.

Precision: a float item carries 16 significant digits (15 when a negative
value has a 3-digit exponent), so encode -> decode returns a double within
2**-45 relative of the original, not the same bits.  Re-encoding what this
encoder wrote reproduces it byte for byte; a 16-digit field from another
producer need not (about 9% of arbitrary ones re-encode with a different last
digit).  The six largest-magnitude doubles (two positive, four negative) are
written rounded toward zero, since rounding to nearest would carry them past
the largest double.

Decoded attribute values are plain Python ``int``, ``float`` and 8-character
``str`` objects.  A :class:`LogicalRecord` stores only its key and attributes;
its length is derived as 2 + the attribute count, so a record cannot disagree
with the item count it encodes to.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from math import isfinite

from ._base import FempostError

__all__ = [
    "LINE_WIDTH",
    "FilCodecError",
    "UnknownItemMarker",
    "MalformedWidth",
    "MalformedInteger",
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


class MalformedInteger(FilCodecError):
    """Integer digits are not exactly the announced width of canonical digits."""


class MalformedFloat(FilCodecError):
    """22-character float field is outside the grammar or overflows a double."""


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
    *file_path* may also be an open text stream, which is read to its end and
    left open.
    """
    if hasattr(file_path, "read"):
        raw = file_path.read()
    else:
        with open(file_path, "r", newline="") as fh:
            raw = fh.read()
    return raw.replace("\r", "").replace("\n", "")


#: Integer width fields, " 1" to "99" as ``%2d`` writes them, and their values.
_WIDTHS = {"%2d" % width: width for width in range(1, 100)}
#: Integer item: ``I``, a width field, then exactly that many characters of
#: ``0|-?[1-9][0-9]*``.  A width of 1 takes any digit; a wider value opens with
#: a nonzero digit, or a minus sign and one.
_INTEGER = r"I(?: 1[0-9]|(?=..-?[1-9])(?:%s))" % "|".join(
    f"{field}[-1-9][0-9]{{{width - 1}}}" for field, width in _WIDTHS.items() if width > 1
)
#: Float item: ``D`` and 22 characters of `` *-?[0-9]\.[0-9]+[ED][-+][0-9]{2,3}``.
#: The lookahead checks the mantissa up to the first E or D; the counted runs
#: put that marker where a 2- or 3-digit exponent ends the field.
_FLOAT = r"D((?= *-?[0-9]\.[0-9]+[ED])(?:[^ED]{18}[ED][-+][0-9]{2}|[^ED]{17}[ED][-+][0-9]{3}))"
_ITEM = re.compile(f"({_INTEGER})|{_FLOAT}|A(.{{8}})", re.DOTALL)
#: Record header: ``*``, an item count >= 2, then a key >= 0.
_HEADER = re.compile(rf"\*(?!I 1[01]|I..-)({_INTEGER})(?!I..-)({_INTEGER})")
#: Size of the item a marker opens, and the error when it fails the grammar;
#: an integer with a valid width field is sized by it instead.
_SHAPES = {"I": (3, MalformedWidth), "D": (23, MalformedFloat), "A": (9, TruncatedItem)}


def _value(match: re.Match):
    """Value of a matched item; a float must fit a double."""
    kind = match.lastindex
    if kind == 1:
        return int(match[1][3:])
    if kind == 3:
        return match[3]
    value = float(match[2].replace("D", "E"))
    if isfinite(value):
        return value
    raise MalformedFloat(f"float field {match[2]!r} overflows a double", match.start())


def _item_error(stream: str, position: int) -> FilCodecError:
    """Say why the item at *position* does not match the grammar."""
    marker = stream[position : position + 1]
    size, error = _SHAPES.get(marker, (1, UnknownItemMarker))
    width = _WIDTHS.get(stream[position + 1 : position + 3])
    if marker == "I" and width:
        size, error = 3 + width, MalformedInteger
    if position + size > len(stream):
        return TruncatedItem("stream ends inside a data item", position)
    return error(f"data item {stream[position : position + size]!r} is malformed", position)


def decode_item(stream: str, position: int):
    """Decode one data item at *position*; return ``(value, next_position)``."""
    match = _ITEM.match(stream, position)
    if match is None:
        raise _item_error(stream, position)
    return _value(match), match.end()


def decode_stream(flat: str, lenient: bool = False) -> "list[LogicalRecord]":
    """Decode a flat (line-break-free) character stream into logical records.

    Blank padding after the last record is ignored.  A garbled record raises a
    positioned :class:`FilCodecError` subclass; with ``lenient=True`` the
    decoder instead drops the record and resynchronizes on the next asterisk.
    """
    if "\n" in flat or "\r" in flat:
        raise FilCodecError("flat stream must not contain line breaks")
    header, item = _HEADER.match, _ITEM.match
    records: list[LogicalRecord] = []
    pos, padding = 0, len(flat.rstrip(" "))  # where the final line's blank padding starts
    while pos < padding:
        try:
            head = header(flat, pos)
            if head is None:
                raise BadRecordHeader(f"no record header at {flat[pos : pos + 12]!r}", pos)
            end, count = head.end(), int(head[1][3:]) - 2
            attributes = []
            for _ in range(count):
                match = item(flat, end)
                if match is None:
                    error = _item_error(flat, end)
                    if isinstance(error, TruncatedItem):
                        error = AttributeUnderrun(f"stream ends inside {count} attributes", pos)
                    raise error
                attributes.append(_value(match))
                end = match.end()
        except FilCodecError:
            if not lenient:
                raise
            pos = flat.find("*", pos + 1)
            if pos < 0:
                break
            continue
        records.append(LogicalRecord(key=int(head[2][3:]), attributes=tuple(attributes)))
        pos = end
    return records


_INT_PREFIX = tuple("I%2d" % width for width in range(100))


def _encode_int(value) -> str:
    digits = str(value)
    width = len(digits)
    if width > 99:
        raise FilCodecError(f"integer {value} needs a width > 99")
    return _INT_PREFIX[width] + digits


#: Largest magnitude whose float item, rounded to nearest, stays finite.
_FLOAT_MAX = 1.797693134862315e308


def _encode_float(value) -> str:
    if abs(value) <= _FLOAT_MAX:
        text = "D%22.15E" % value
        if len(text) == 23:
            return text
        # a sign and a 3-digit exponent overflow the 22-character field by one;
        # one fractional digit fewer always fits
        return "D%22.14E" % value
    if not isfinite(value):
        raise FilCodecError(f"cannot encode {value!r} as a data item")
    # rounding to nearest would carry the largest doubles past the largest double
    return "D1.797693134862315E+308" if value > 0 else "D-1.79769313486231E+308"


def _encode_str(value) -> str:
    return "A" + str8(value)


_ENCODERS = {int: _encode_int, float: _encode_float, str: _encode_str}


def _subclass_encoder(value):
    """Encoder for a subclass of int, float or str; bool is rejected."""
    if not isinstance(value, bool):
        for kind, encoder in _ENCODERS.items():
            if isinstance(value, kind):
                return encoder
    raise FilCodecError(f"cannot encode {value!r} as a data item")


def encode_item(value) -> str:
    """Encode one attribute value in its data-item form."""
    encoder = _ENCODERS.get(type(value))
    if encoder is None:
        encoder = _subclass_encoder(value)
    return encoder(value)


def encode_record(record: LogicalRecord) -> str:
    """Encode one logical record as a flat character string."""
    if record.key < 0:
        raise InvariantViolation(f"record key {record.key} < 0")
    return "".join(
        (
            "*",
            encode_item(record.length),
            encode_item(record.key),
            *map(encode_item, record.attributes),
        )
    )


def encode_stream(records) -> str:
    """Encode records into 80-character physical lines joined by newlines.

    Records are concatenated and sliced every 80 characters, splitting items
    mid-token where the boundary falls; the final line is blank-padded to 80.
    An empty stream encodes to the empty string.
    """
    flat = "".join(map(encode_record, records))
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
