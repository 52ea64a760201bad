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
attribute items.  Every grammar or encode failure raises one
:class:`FilCodecError`.  A decode failure carries the flat-stream offset where
the grammar fails in ``.offset`` and ends its message ``(stream offset N)``:
the record's ``*`` for a bad header, otherwise the item that does not match,
which for a record cut off by the end of the stream is the item where it ends.
Non-finite floats are rejected both ways: the encoder refuses NaN and
infinity, and the decoder refuses a field that overflows a double.

Precision: a float item carries 16 significant digits (15 when a negative
value has a 3-digit exponent), so encode -> decode returns a double within
2**-45 relative of the original, not the same bits.  Re-encoding what this
encoder wrote reproduces it byte for byte; a 16-digit field from another
producer need not (about 9% of arbitrary ones re-encode with a different last
digit).  The six largest-magnitude doubles (two positive, four negative) are
written rounded toward zero, since rounding to nearest would carry them past
the largest double.

:func:`encode_record` and :func:`encode_item` define the encoding.
:func:`encode_stream` writes the same text with one ``%`` operation per
record, from a format built once per record shape (the key and the exact type
of each attribute): ``D%22.15E`` for a ``float``, ``A%-8s`` for a ``str`` and
the item text for an ``int``.  A record falls back to :func:`encode_record`
when its key is not an exact ``int`` >= 0, when an attribute is not exactly an
``int``, ``float`` or ``str``, when an integer is wider than 99 digits, or
when the formatted record is longer than its shape allows or holds ``N`` or
``E+308``; so the fallback, not the format, writes or rejects every value the
format cannot (long strings, negative floats with a 3-digit exponent,
non-finite and overflowing floats, bools, numpy scalars).

:func:`decode_stream` decodes the same records as matching item by item
with :func:`decode_item`, one regex match per record in the common case: a
record is first matched whole against the pattern of its predicted shape
(header text, item kinds and integer width fields), and decoded item by item,
which raises every error, when that pattern does not match or a float field
overflows.  A shape's pattern is built when the shape repeats, within a budget
of 4 + (records decoded) // 256 patterns per call.

Decoded attribute values are plain Python ``int``, ``float`` and 8-character
``str`` objects.  A :class:`LogicalRecord` stores only its key and attributes;
its length is derived as 2 + the attribute count, so a record cannot disagree
with the item count it encodes to.  :func:`decode_stream` runs with the cyclic
garbage collector paused: it builds only records of such values, which can
form no reference cycle, and unlinks its shapes before it returns, so a
collection during it would free nothing.
"""

from __future__ import annotations

import re
from math import isfinite
from typing import NamedTuple

from ._base import FempostError, gc_paused

__all__ = [
    "FilCodecError",
    "LogicalRecord",
    "str8",
    "fil_to_string",
    "decode_item",
    "decode_stream",
    "encode_stream",
    "write_fil",
]

LINE_WIDTH = 80


class FilCodecError(FempostError):
    """A decode or encode failure; ``.offset`` is the flat-stream offset of a
    decode failure and None for an encode failure."""

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (stream offset {offset})"
        super().__init__(message)
        self.offset = offset


def str8(text: str) -> str:
    """Return *text* blank-padded to exactly 8 characters.

    Raises FilCodecError for strings longer than 8; the caller must pre-split
    long strings into consecutive 8-character items.
    """
    if len(text) > 8:
        raise FilCodecError(f"string item longer than 8 characters: {text!r}")
    return text.ljust(8)


class LogicalRecord(NamedTuple):
    """One logical record: type key and attribute items, stored as given (pass
    a tuple); a record equals the plain tuple ``(key, attributes)``."""

    key: int
    attributes: tuple = ()

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
#: Digits of an integer item after its width field, by width: ``0|-?[1-9][0-9]*``
#: in exactly that many characters.  A width of 1 takes any digit; a wider
#: value opens with a nonzero digit, or a minus sign and one.
_DIGITS = {
    width: "[0-9]" if width == 1 else f"(?=-?[1-9])[-1-9][0-9]{{{width - 1}}}"
    for width in _WIDTHS.values()
}
#: Integer item: ``I``, a width field, then its digits.
_INTEGER = "I(?:%s)" % "|".join(field + _DIGITS[width] for field, width in _WIDTHS.items())
#: Float item: ``D`` and 22 characters of `` *-?[0-9]\.[0-9]+[ED][-+][0-9]{2,3}``.
#: The lookahead checks the mantissa up to the first E or D; the counted runs
#: put that marker where a 2- or 3-digit exponent ends the field.
_FLOAT = r"D((?= *-?[0-9]\.[0-9]+[ED])(?:[^ED]{18}[ED][-+][0-9]{2}|[^ED]{17}[ED][-+][0-9]{3}))"
_STRING = "A(.{8})"
_ITEM = re.compile(f"({_INTEGER})|{_FLOAT}|{_STRING}", re.DOTALL)
#: Record header: ``*``, an item count >= 2, then a key >= 0.
_HEADER = re.compile(rf"\*(?!I 1[01]|I..-)({_INTEGER})(?!I..-)({_INTEGER})")


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
    raise FilCodecError(f"float field {match[2]!r} overflows a double", match.start())


def _item_error(stream: str, position: int) -> FilCodecError:
    """Quote the text at *position*, where no item matches the grammar."""
    if position >= len(stream):
        return FilCodecError("stream ends before a data item", position)
    return FilCodecError(f"no data item at {stream[position : position + 23]!r}", position)


def decode_item(stream: str, position: int):
    """Decode one data item at *position*; return ``(value, next_position)``."""
    match = _ITEM.match(stream, position)
    if match is None:
        raise _item_error(stream, position)
    return _value(match), match.end()


#: Item sub-pattern and group converter of each item code in a record shape.
#: A float's code is 2 and a string's 3, their group numbers in ``_ITEM``; an
#: integer's is its item length, 4-102, so its sub-pattern pins the width field.
_SHAPE_ITEMS = {
    2: (_FLOAT, float),
    3: (_STRING, str),
    **{3 + width: (f"I{field}({_DIGITS[width]})", int) for field, width in _WIDTHS.items()},
}


def _shape_pattern(header: str, codes: tuple):
    """Match function of one pattern for a whole record: the literal *header*,
    then one group per item code."""
    items = "".join(_SHAPE_ITEMS[code][0] for code in codes)
    return re.compile(re.escape(header) + items, re.DOTALL).match


def _d_float(text: str) -> float:
    return float(text.replace("D", "E"))


class _Shape:
    """A record shape met in one decode: its key and, once its pattern is
    built, what decodes a whole record of it; ``successor`` is the shape that
    followed it last."""

    __slots__ = ("key", "match", "converters", "floats", "successor")

    def __init__(self, key: int):
        self.key = key
        self.match = self.successor = None

    def build(self, header: str, codes: tuple) -> None:
        self.match = _shape_pattern(header, codes)
        self.converters = tuple(_SHAPE_ITEMS[code][1] for code in codes)
        self.floats = tuple(i for i, code in enumerate(codes) if code == 2)

    def values(self, groups: tuple):
        """Attribute values of a record from its pattern's groups, or None when
        a float field overflows a double."""
        try:
            values = tuple([convert(text) for convert, text in zip(self.converters, groups)])
        except ValueError:
            # a float field with the D exponent marker: from now on this
            # shape's floats are read with either marker
            self.converters = tuple(
                _d_float if convert is float else convert for convert in self.converters
            )
            values = tuple([convert(text) for convert, text in zip(self.converters, groups)])
        for i in self.floats:
            if not isfinite(values[i]):
                return None
        return values


@gc_paused
def decode_stream(flat: str, lenient: bool = False) -> "list[LogicalRecord]":
    """Decode a flat (line-break-free) character stream into logical records.

    Blank padding after the last record is ignored.  A garbled record raises a
    positioned :class:`FilCodecError`; with ``lenient=True`` the decoder
    instead drops the record and resynchronizes on the next asterisk.

    A record's shape is its header text and, per attribute, the item kind and
    an integer's width field.  Each record is first matched whole against the
    pattern of the shape that followed the previous record's shape the last
    time that shape appeared: the header literal, then each item's grammar
    branch (an integer's pinned to its width) with the value in one group.
    Item kinds are told apart by their first character, so the pattern accepts
    exactly the items, with the same boundaries, that matching item by item
    does.  When there is no such pattern, it does not match, or a float field
    overflows, the record is decoded item by item, which raises every error
    and makes every lenient resync.  A shape's pattern is built when the shape
    repeats, at most 4 + (records decoded) // 256 of them per call, so a
    stream of ever-new shapes spends little on compiling.
    """
    if "\n" in flat or "\r" in flat:
        raise FilCodecError("flat stream must not contain line breaks")
    header, item = _HEADER.match, _ITEM.match
    records: list[LogicalRecord] = []
    shapes: dict = {}  # (header text, item codes) -> _Shape
    built = 0
    shape = None  # of the last record decoded
    pos, padding = 0, len(flat.rstrip(" "))  # where the final line's blank padding starts
    while pos < padding:
        predicted = shape and shape.successor
        if predicted is not None and predicted.match is not None:
            whole = predicted.match(flat, pos)
            if whole is not None:
                values = predicted.values(whole.groups())
                if values is not None:
                    # LogicalRecord(key, values), without its generated __new__
                    records.append(tuple.__new__(LogicalRecord, (predicted.key, values)))
                    shape, pos = predicted, whole.end()
                    continue
        try:
            head = header(flat, pos)
            if head is None:
                raise FilCodecError(f"no record header at {flat[pos : pos + 12]!r}", pos)
            end, count = head.end(), int(head[1][3:]) - 2
            attributes, codes = [], []
            for _ in range(count):
                match = item(flat, end)
                if match is None:
                    raise _item_error(flat, end)
                attributes.append(_value(match))
                kind = match.lastindex
                codes.append(kind if kind > 1 else match.end() - end)
                end = match.end()
        except FilCodecError:
            if not lenient:
                raise
            pos = flat.find("*", pos + 1)
            if pos < 0:
                break
            continue
        key = int(head[2][3:])
        records.append(tuple.__new__(LogicalRecord, (key, tuple(attributes))))
        signature = (flat[pos : head.end()], tuple(codes))
        seen = shapes.get(signature)
        if seen is None:
            seen = shapes[signature] = _Shape(key)
        elif seen.match is None and built < 4 + len(records) // 256:
            seen.build(*signature)
            built += 1
        if shape is not None:
            shape.successor = seen
        shape, pos = seen, end
    for seen in shapes.values():
        seen.successor = None  # shapes link in cycles: unlink them, leaving no cyclic garbage
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
        raise FilCodecError(f"record key {record.key} < 0")
    return "".join(
        (
            "*",
            encode_item(record.length),
            encode_item(record.key),
            *map(encode_item, record.attributes),
        )
    )


def _record_format(key: int, kinds: tuple):
    """Format and fixed length of a record of *key* whose attributes have the
    exact types *kinds*, with the positions of its integer attributes; None
    when a type has no format or the header does not encode."""
    # item format and fixed length; an int adds its item text's length
    items = {float: ("D%22.15E", 23), str: ("A%-8s", 9), int: ("%s", 0)}
    if not all(kind in items for kind in kinds):
        return None
    try:
        header = "*" + _encode_int(len(kinds) + 2) + _encode_int(key)
    except FilCodecError:
        return None
    fmt = header + "".join(items[kind][0] for kind in kinds)
    size = len(header) + sum(items[kind][1] for kind in kinds)
    return fmt, size, tuple(i for i, kind in enumerate(kinds) if kind is int)


def _flat_stream(records) -> str:
    """``"".join(map(encode_record, records))``, one format per record shape
    (see :func:`encode_stream`).  A function of its own, so the record texts
    are freed before the caller cuts lines: holding both raised the peak
    memory of encoding the 2.3 MB benchmark mesh from 8 to 13 MB."""
    shapes: dict = {}
    int_items: dict = {}
    parts = []
    for record in records:
        key, attributes = record.key, record.attributes
        text = None
        if type(key) is int and key >= 0:
            kinds = tuple(map(type, attributes))
            shape = shapes.get((key, kinds), False)
            if shape is False:
                shape = shapes[key, kinds] = _record_format(key, kinds)
            if shape is not None:
                fmt, size, int_at = shape
                values = list(attributes)
                for i in int_at:
                    item = int_items.get(values[i])
                    if item is None:
                        try:
                            item = int_items[values[i]] = _encode_int(values[i])
                        except FilCodecError:
                            break
                    values[i] = item
                    size += len(item)
                else:
                    text = fmt % tuple(values)
                    if len(text) != size or "N" in text or "E+308" in text:
                        text = None
        parts.append(encode_record(record) if text is None else text)
    return "".join(parts)


def encode_stream(records) -> str:
    """Encode records into 80-character physical lines joined by newlines.

    Records are concatenated and sliced every 80 characters, splitting items
    mid-token where the boundary falls; the final line is blank-padded to 80.
    An empty stream encodes to the empty string.

    The output is ``"".join(map(encode_record, records))`` cut into lines, and
    every error is the one :func:`encode_record` raises.  Each record is
    formatted by one ``%`` operation, from a format built once per record
    shape: the key and the exact type of each attribute.  A ``float`` becomes
    ``D%22.15E``, a ``str`` ``A%-8s`` and an ``int`` its :func:`encode_item`
    text, kept per value.  A record goes through :func:`encode_record` instead
    when its key is not an exact ``int`` >= 0, when an attribute is not
    exactly an ``int``, ``float`` or ``str`` (``bool`` and numpy scalars among
    them), when an integer is wider than 99 digits, or when the formatted
    record fails either check: its length must be the shape's (every item can
    only grow, so this catches a string longer than 8 and a negative float
    with a 3-digit exponent), and it must hold neither ``N`` (``NAN``,
    ``INF``) nor ``E+308`` (the doubles written rounded toward zero).  Both
    tables live for one call.
    """
    flat = _flat_stream(records)
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
