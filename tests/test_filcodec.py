import hashlib
import math
import random
import re

import numpy as np

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import PRINTABLE, random_stream
from fempost import filcodec
from fempost.filcodec import (
    LINE_WIDTH,
    FilCodecError,
    LogicalRecord,
    decode_item,
    decode_stream,
    encode_item,
    encode_record,
    encode_stream,
    fil_to_string,
    str8,
    write_fil,
)


class TestFilToString:
    def test_concatenates_lines(self, tmp_path):
        p = tmp_path / "two.fil"
        p.write_text("A" * 80 + "\n" + "B" * 80 + "\n")
        assert fil_to_string(p) == "A" * 80 + "B" * 80

    def test_empty_file(self, tmp_path):
        p = tmp_path / "empty.fil"
        p.write_text("")
        assert fil_to_string(p) == ""

    def test_crlf_equals_lf(self, tmp_path):
        lf = tmp_path / "lf.fil"
        crlf = tmp_path / "crlf.fil"
        body = ["X" * 80, "Y" * 80]
        with open(lf, "w", newline="") as fh:
            fh.write("\n".join(body) + "\n")
        with open(crlf, "w", newline="") as fh:
            fh.write("\r\n".join(body) + "\r\n")
        # oracle: strip \r and \n independently from the raw bytes
        expected = crlf.read_bytes().replace(b"\r", b"").replace(b"\n", b"").decode()
        assert fil_to_string(lf) == fil_to_string(crlf) == expected
        with open(crlf, newline="") as fh:
            assert fil_to_string(fh) == expected
            assert not fh.closed

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            fil_to_string(tmp_path / "nope.fil")


class TestDecodeItem:
    def test_integer_anchor(self):
        assert decode_item("I 41901", 0) == (1901, 7)

    def test_width_one_zero(self):
        assert decode_item("I 10", 0) == (0, 4)

    def test_unit_float(self):
        value, nxt = decode_item("D 1.000000000000000E+00", 0)
        assert value == 1.0 and nxt == 23

    def test_d_exponent_marker_accepted(self):
        value, _ = decode_item("D 1.500000000000000D+02", 0)
        assert value == 150.0

    def test_str8(self):
        assert decode_item("AHELLO   ", 0) == ("HELLO   ", 9)

    def test_negative_integer(self):
        assert decode_item("I 2-7", 0) == (-7, 5)

    def test_unknown_marker(self):
        with pytest.raises(FilCodecError):
            decode_item("X123", 0)

    def test_malformed_width(self):
        with pytest.raises(FilCodecError):
            decode_item("Ixx12", 0)

    def test_malformed_float(self):
        with pytest.raises(FilCodecError):
            decode_item("D" + "z" * 22, 0)

    def test_truncated(self):
        with pytest.raises(FilCodecError):
            decode_item("I 4190", 0)
        with pytest.raises(FilCodecError):
            decode_item("D 1.0", 0)
        with pytest.raises(FilCodecError):
            decode_item("AHEL", 0)

    def test_errors_carry_offset(self):
        with pytest.raises(FilCodecError) as exc:
            decode_item("  X", 2)
        assert exc.value.offset == 2


class TestDecodeStream:
    def test_single_record(self):
        # hand-assembled from the item rules; string produced by the
        # encode_record oracle for {L=3, key=19, attrs=[22]}
        assert encode_record(LogicalRecord(19, (22,))) == "*I 13I 219I 222"
        stream = decode_stream("*I 13I 219I 222")
        assert stream == [LogicalRecord(19, (22,))]

    def test_all_blanks(self):
        assert decode_stream(" " * 160) == []
        assert decode_stream("") == []

    def test_bad_header_positioned(self):
        with pytest.raises(FilCodecError) as exc:
            decode_stream("*I 13I 219I 222*X")
        assert exc.value.offset == 15

    def test_attribute_underrun(self):
        # a record cut off by the end of the stream is reported at the item
        # where the stream ends, not at the record's asterisk
        with pytest.raises(FilCodecError) as exc:
            decode_stream("*I 15I 219I 222")
        assert exc.value.offset == 15
        with pytest.raises(FilCodecError) as exc:
            decode_stream("*I 14I 219I 222I 4190")
        assert exc.value.offset == 15

    def test_negative_key_rejected(self):
        with pytest.raises(FilCodecError):
            decode_stream("*I 13I 2-5I 222")

    @pytest.mark.parametrize("flat", ["*I 10I 10", "*I 11I 10", "*I 2-1I 10"])
    def test_item_count_below_two_rejected(self, flat):
        with pytest.raises(FilCodecError) as exc:
            decode_stream(flat)
        assert exc.value.offset == 0

    def test_lenient_resync(self):
        good = encode_record(LogicalRecord(19, (22,)))
        stream = decode_stream("*X????" + good, lenient=True)
        assert stream == [LogicalRecord(19, (22,))]

    @pytest.mark.parametrize(
        "bad_item", ["D" + "z" * 22, "X" + "z" * 22], ids=["malformed-float", "unknown-marker"]
    )
    def test_lenient_resync_inside_attributes(self, bad_item):
        good = encode_record(LogicalRecord(19, (22,)))
        garbled = "*I 13I 219" + bad_item + good
        assert decode_stream(garbled, lenient=True) == [LogicalRecord(19, (22,))]
        with pytest.raises(FilCodecError):
            decode_stream(garbled)

    def test_rejects_line_breaks(self):
        with pytest.raises(Exception):
            decode_stream("*I 12I 10\n")


def in_grammar(item: str) -> bool:
    """Reference check of one data item, written from the format's definition."""
    marker, body = item[:1], item[1:]
    if marker == "A":
        return len(body) == 8
    if marker == "D":
        return (
            len(body) == 22
            and re.fullmatch(r" *-?[0-9]\.[0-9]+[ED][-+][0-9]{2,3}", body) is not None
            and math.isfinite(float(body.replace("D", "E")))
        )
    if marker == "I" and re.fullmatch(" [1-9]|[1-9][0-9]", body[:2]):
        digits = body[2:]
        return len(digits) == int(body[:2]) and re.fullmatch("0|-?[1-9][0-9]*", digits) is not None
    return False


#: Items outside the grammar that int() or float() would read.
OUTSIDE_GRAMMAR = [
    "I 31_0",
    "I 3+12",
    "I 3 12",
    "I 3١٢٣",
    "I 2-0",
    "I 3007",
    "I+3123",
    "I ٣123",
    "D" + "1.5".rjust(22),
    "D" + "1_0.5".rjust(22),
    "D" + "NAN".rjust(22),
    "D" + "INF".rjust(22),
    "D" + "1.500000000000000e+00".rjust(22),
    "D1.797693134862316E+308",
]

#: Header of a record with one attribute, which follows it at offset 9.
ONE_ATTRIBUTE = "*I 13I 11"
TAIL = LogicalRecord(2, (7,))


class TestGrammar:
    @pytest.mark.parametrize("item", OUTSIDE_GRAMMAR, ids=repr)
    def test_outside_rejected_at_item_start(self, item):
        assert not in_grammar(item)
        with pytest.raises(FilCodecError) as exc:
            decode_item("**" + item, 2)
        assert exc.value.offset == 2
        with pytest.raises(FilCodecError) as exc:
            decode_stream(ONE_ATTRIBUTE + item)
        assert exc.value.offset == len(ONE_ATTRIBUTE)

    @given(st.randoms(use_true_random=False))
    def test_decode_inverts_encode(self, rng):
        stream = random_stream(rng)
        decoded = decode_stream(encode_stream(stream).replace("\n", ""))
        assert decoded == stream
        # a record stores its attributes as given, so decode must build tuples
        assert all(type(r) is LogicalRecord and type(r.attributes) is tuple for r in decoded)

    @given(
        st.one_of(
            st.integers(-(10**30), 10**30),
            st.floats(allow_nan=False, allow_infinity=False),
            st.text(PRINTABLE, max_size=8),
        ),
        st.data(),
        st.sampled_from("0123456789 -+.EDeIAX_N٣"),
    )
    @settings(max_examples=500)
    def test_one_character_mutation(self, value, data, char):
        item = encode_item(value)
        index = data.draw(st.integers(0, len(item) - 1))
        mutated = item[:index] + char + item[index + 1 :]
        flat = ONE_ATTRIBUTE + mutated + encode_record(TAIL)
        if in_grammar(mutated):
            assert decode_stream(flat)[1:] == [TAIL]
        else:
            with pytest.raises(FilCodecError) as exc:
                decode_stream(flat)
            assert exc.value.offset is not None

    @given(
        st.randoms(use_true_random=False),
        st.lists(st.text("IDA0123456789 -+.E_xyz", max_size=30), min_size=11, max_size=11),
    )
    def test_lenient_skips_spliced_garbage(self, rng, garbage):
        stream = random_stream(rng)
        parts = [garbage[0]]
        for record, junk in zip(stream, garbage[1:]):
            parts += [encode_record(record), junk]
        assert decode_stream("".join(parts), lenient=True) == stream

    def test_blank_padded_string_ends_stream(self):
        flat = encode_stream([LogicalRecord(1, ("AB",))])
        assert flat == (ONE_ATTRIBUTE + "AAB").ljust(LINE_WIDTH)
        assert decode_stream(flat) == [LogicalRecord(1, (str8("AB"),))]


def reference_decode(flat: str, lenient: bool = False) -> list:
    """decode_stream rebuilt from decode_item, one item at a time."""
    if "\n" in flat or "\r" in flat:
        raise FilCodecError("flat stream must not contain line breaks")
    records, pos, padding = [], 0, len(flat.rstrip(" "))
    while pos < padding:
        try:
            try:
                count, end = decode_item(flat, pos + 1)
                key, end = decode_item(flat, end)
            except FilCodecError:
                count = key = None
            if flat[pos] != "*" or not (type(count) is type(key) is int and count >= 2 and key >= 0):
                raise FilCodecError(f"no record header at {flat[pos : pos + 12]!r}", pos)
            attributes = []
            for _ in range(count - 2):
                value, end = decode_item(flat, end)
                attributes.append(value)
        except FilCodecError:
            if not lenient:
                raise
            pos = flat.find("*", pos + 1)
            if pos < 0:
                break
            continue
        records.append(LogicalRecord(key, tuple(attributes)))
        pos = end
    return records


def decode_outcome(decode, flat: str, lenient: bool):
    """Records with the exact type of every attribute, or the message and
    offset of the FilCodecError *decode* raises."""
    try:
        records = decode(flat, lenient)
    except FilCodecError as exc:
        return str(exc), exc.offset
    return [(r.key, [(type(a), a) for a in r.attributes]) for r in records]


def int_text(value: int) -> str:
    return f"I{len(str(value)):2d}{value}"


#: Item texts of each kind, integers of several widths among them: the float
#: fields include the D exponent marker, a 3-digit exponent and two fields that
#: overflow a double.
INT_TEXTS = [int_text(v) for v in (0, 7, -3, 42, -42, 1901, 65535, -(10**11))]
FLOAT_TEXTS = [
    encode_item(1.0),
    encode_item(-2.5e-7),
    encode_item(1e300),
    encode_item(1.0).replace("E", "D"),
    encode_item(-3.25e150).replace("E", "D"),
    "D" + "9.9E+999".rjust(22),
    "D1.797693134862316E+308",
]
STRING_TEXTS = ["ACPE4    ", "A  *I 13 ", "AD+00E+0 "]
ITEM_TEXTS = INT_TEXTS + FLOAT_TEXTS + STRING_TEXTS


@st.composite
def shaped_streams(draw) -> str:
    """Flat text of records drawn from a few templates, so that shapes repeat,
    with items that sometimes change value, kind or integer width under the
    same header; then garbage may be spliced in, an integer's width field
    changed or the stream cut short."""
    templates = draw(
        st.lists(
            st.tuples(
                st.sampled_from([0, 1, 11, 1901]),
                st.lists(st.sampled_from(INT_TEXTS + FLOAT_TEXTS[:5] + STRING_TEXTS), max_size=4),
            ),
            min_size=1,
            max_size=3,
        )
    )
    parts = []
    for key, items in draw(st.lists(st.sampled_from(templates), min_size=1, max_size=12)):
        items = [item if draw(st.integers(0, 5)) else draw(st.sampled_from(ITEM_TEXTS)) for item in items]
        parts.append(f"*{int_text(len(items) + 2)}{int_text(key)}{''.join(items)}")
    flat = "".join(parts)
    cut = draw(st.integers(0, len(flat)))
    edit = draw(st.sampled_from(["none", "truncate", "splice", "replace", "width"]))
    if edit == "width" and "I" in flat:
        at = flat.index("I", draw(st.integers(0, flat.rindex("I")))) + 2
        flat = flat[:at] + draw(st.sampled_from("0123456789")) + flat[at + 1 :]
    elif edit == "truncate":
        flat = flat[:cut]
    elif edit == "splice":
        flat = flat[:cut] + draw(st.text("I 1234-D.E+A*", min_size=1, max_size=8)) + flat[cut:]
    elif edit == "replace":
        flat = flat[:cut] + draw(st.sampled_from("0123456789 -+.EDIA*")) + flat[cut + 1 :]
    return flat + " " * draw(st.integers(0, 3))


def repeated(*records: str) -> str:
    """*records* three times over, so their shapes' patterns are built."""
    return "".join(records) * 3


class TestDecodeStreamShapes:
    """decode_stream matches a record whole against a pattern per shape; its
    records, errors and resyncs must be those of decoding item by item."""

    @pytest.mark.parametrize("lenient", [False, True])
    def test_fuzz_streams_like_the_reference(self, lenient):
        rng = random.Random(20260823)
        for _ in range(200):
            flat = encode_stream(random_stream(rng)).replace("\n", "")
            expected = decode_outcome(reference_decode, flat, lenient)
            assert decode_outcome(decode_stream, flat, lenient) == expected

    @pytest.mark.parametrize(
        "flat",
        [
            # a float field that overflows in a predicted record
            repeated("*I 14I 11I 17" + FLOAT_TEXTS[0]) + "*I 14I 11I 17" + FLOAT_TEXTS[5],
            repeated("*I 13I 11" + FLOAT_TEXTS[2]) + "*I 13I 11" + FLOAT_TEXTS[6] + "*I 12I 10",
            # the D exponent marker in a predicted record
            repeated("*I 14I 11I 17" + FLOAT_TEXTS[0]) + "*I 14I 11I 17" + FLOAT_TEXTS[3],
            # other integer widths and kinds under a predicted header
            repeated("*I 14I 11I 41901I 17") + "*I 14I 11I 31901I 17",
            repeated("*I 14I 11I 41901I 17") + "*I 14I 11I 3190I 17",
            repeated("*I 14I 11I 41901I 17") + "*I 14I 11I 319017I 17",
            repeated("*I 14I 11I 41901I 17") + "*I 14I 11I 5655357I 17",
            repeated("*I 14I 11I 41901I 17") + "*I 14I 11" + FLOAT_TEXTS[0] + "I 17",
            # zero-attribute records, and a truncated final record
            repeated("*I 12I 10", "*I 13I 11I 10") + "*I 12I 10",
            repeated("*I 12I 10", "*I 13I 11I 10") + "*I 13I 11I 2",
            repeated("*I 13I 11ACPE4    ") + "*I 13I 11ACPE4",
        ],
    )
    @pytest.mark.parametrize("lenient", [False, True])
    def test_edge_streams_like_the_reference(self, flat, lenient):
        expected = decode_outcome(reference_decode, flat, lenient)
        assert decode_outcome(decode_stream, flat, lenient) == expected

    @given(shaped_streams(), st.booleans())
    @settings(max_examples=500)
    def test_repeated_shapes_like_the_reference(self, flat, lenient):
        expected = decode_outcome(reference_decode, flat, lenient)
        assert decode_outcome(decode_stream, flat, lenient) == expected

    def test_patterns_built_within_budget(self, monkeypatch):
        builds = []
        build = filcodec._shape_pattern
        monkeypatch.setattr(
            filcodec, "_shape_pattern", lambda header, codes: builds.append(header) or build(header, codes)
        )
        shapes = [LogicalRecord(key, (key, 0.5, "CPE4    ")) for key in range(2000)]
        flat = "".join(map(encode_record, shapes * 2))
        assert decode_stream(flat) == shapes * 2
        assert 0 < len(builds) <= 4 + len(shapes * 2) // 256
        builds.clear()
        assert decode_stream(flat[: len(flat) // 2] * 3) == shapes * 3
        assert len(builds) <= 4 + len(shapes * 3) // 256
        builds.clear()
        one = encode_record(LogicalRecord(1, (1, 1)))
        assert decode_stream(one * 100) == [LogicalRecord(1, (1, 1))] * 100
        assert builds == ["*I 14I 11"]


class TestEncode:
    def test_example_record(self):
        rec = LogicalRecord(1901, (5, 1.0, 2.0))
        assert (
            encode_record(rec)
            == "*I 15I 41901I 15D 1.000000000000000E+00D 2.000000000000000E+00"
        )

    def test_minimal_record(self):
        assert encode_record(LogicalRecord(0, ())) == "*I 12I 10"

    def test_length_is_two_plus_attributes(self):
        assert LogicalRecord(0, (1, 2)).length == 4
        assert LogicalRecord(0).length == 2

    def test_negative_key_rejected(self):
        with pytest.raises(FilCodecError):
            encode_record(LogicalRecord(-1, ()))

    def test_float_item_is_23_chars(self):
        for x in (0.0, 1.0, -1.0, 3.14159, 1e300, -1e300, 1e-300, -1e-299):
            assert len(encode_item(x)) == 23

    def test_int_width_blank_padded(self):
        assert encode_item(1901) == "I 41901"
        assert encode_item(1234567890) == "I101234567890"

    def test_str8_pads(self):
        assert encode_item("AB") == "AAB      "
        with pytest.raises(FilCodecError):
            str8("TOO LONG STRING")

    def test_line_slicing(self):
        # one record of 200 characters -> 3 lines of exactly 80
        rec = LogicalRecord(7, tuple(float(i) for i in range(8)))
        flat = encode_record(rec)
        n_lines = math.ceil(len(flat) / LINE_WIDTH)
        text = encode_stream([rec])
        lines = text.split("\n")
        assert len(lines) == n_lines
        assert all(len(line) == LINE_WIDTH for line in lines)

    def test_empty_stream(self):
        assert encode_stream([]) == ""


# Exact item encodings; written files depend on them, so any change to the
# encoder must reproduce them byte for byte.
ENCODE_GOLDENS = [
    (0.0, "D 0.000000000000000E+00"),
    (-0.0, "D-0.000000000000000E+00"),
    (1.0, "D 1.000000000000000E+00"),
    (-1.0, "D-1.000000000000000E+00"),
    (1e300, "D1.000000000000000E+300"),
    (-1e300, "D-1.00000000000000E+300"),
    (-1e-300, "D-1.00000000000000E-300"),
    (5e-324, "D4.940656458412465E-324"),
    (-5e-324, "D-4.94065645841247E-324"),
    (1.7976931348623157e308, "D1.797693134862315E+308"),
    (-1.7976931348623157e308, "D-1.79769313486231E+308"),
    (np.float64(1.5), "D 1.500000000000000E+00"),
    (0, "I 10"),
    (-1, "I 2-1"),
    (10**98, "I99" + str(10**98)),
    ("AB", "AAB      "),
]

ENCODE_REJECTS = [
    (10**99, f"integer {10**99} needs a width > 99"),
    (-(10**98), f"integer {-(10**98)} needs a width > 99"),
    (True, "cannot encode True as a data item"),
    (np.int64(3), "cannot encode np.int64(3) as a data item"),
    (math.nan, "cannot encode nan as a data item"),
    (math.inf, "cannot encode inf as a data item"),
    (-math.inf, "cannot encode -inf as a data item"),
    ("ABCDEFGHI", "string item longer than 8 characters: 'ABCDEFGHI'"),
]

#: The two positive and four negative doubles whose 16- or 15-digit field,
#: rounded to nearest, lies above the largest double; they are written rounded
#: toward zero.  The extremes and the ones nearest the finite fields are here.
OVERFLOWING_FLOATS = [
    math.nextafter(1.7976931348623153e308, math.inf),
    1.7976931348623157e308,
    -math.nextafter(1.797693134862315e308, math.inf),
    -1.7976931348623157e308,
]

#: SHA-256 of encode_stream over the 200 streams of random_stream(Random(20260823)).
FUZZ_STREAMS_SHA256 = "c36e8d591c184817eaaff2bffbca593e0d7d96f84fbbb7eaf4a77f4c3eeaf666"


class TestEncodeGoldens:
    @pytest.mark.parametrize("value, text", ENCODE_GOLDENS, ids=repr)
    def test_item(self, value, text):
        assert encode_item(value) == text

    @pytest.mark.parametrize("value, message", ENCODE_REJECTS, ids=repr)
    def test_rejected(self, value, message):
        with pytest.raises(FilCodecError) as exc:
            encode_item(value)
        assert str(exc.value) == message

    def test_fuzz_streams_digest(self):
        rng = random.Random(20260823)
        digest = hashlib.sha256()
        for _ in range(200):
            digest.update(encode_stream(random_stream(rng)).encode())
        assert digest.hexdigest() == FUZZ_STREAMS_SHA256

    @given(st.floats(allow_nan=False, allow_infinity=False))
    @settings(max_examples=500)
    def test_stable_after_one_write(self, x):
        once = encode_item(x)
        assert encode_item(decode_item(once, 0)[0]) == once

    @pytest.mark.parametrize("x", OVERFLOWING_FLOATS, ids=repr)
    def test_top_of_range_stays_finite(self, x):
        got = decode_item(encode_item(x), 0)[0]
        assert math.isfinite(got) and abs(got - x) <= 2.0**-45 * abs(x)


def sliced(flat: str) -> str:
    """*flat* cut into 80-character lines as :func:`encode_stream` documents."""
    if not flat:
        return ""
    lines = [flat[i : i + LINE_WIDTH] for i in range(0, len(flat), LINE_WIDTH)]
    lines[-1] = lines[-1].ljust(LINE_WIDTH)
    return "\n".join(lines)


def encode_outcome(encode, records):
    """The text *encode* returns for *records*, or the class and message of
    what it raises."""
    try:
        return encode(records)
    except Exception as exc:  # noqa: BLE001 - the class is part of the outcome
        return type(exc), str(exc)


def record_by_record(records) -> str:
    return sliced("".join(map(encode_record, records)))


#: Values whose item text the per-shape format cannot write, or writes only
#: through a check: both signs and exponent widths, the overflowing doubles,
#: strings holding the texts the check looks for, and types that compare
#: equal to int.
EDGE_VALUES = [
    *(value for value, _ in ENCODE_GOLDENS),
    *OVERFLOWING_FLOATS,
    *(value for value, _ in ENCODE_REJECTS),
    1.5e308,
    -1.5e308,
    1e100,
    -1e-100,
    "N",
    "NAN",
    "E+308",
    "12345678",
    False,
    np.int64(1),
    np.float64(-1e300),
]


class TestEncodeStreamShapes:
    """encode_stream formats a record per shape; its output and errors must be
    those of encode_record, record by record."""

    @pytest.mark.parametrize(
        "value", [*(v for v, _ in ENCODE_GOLDENS), *OVERFLOWING_FLOATS], ids=repr
    )
    def test_golden_as_attribute(self, value):
        records = [
            LogicalRecord(1901, (5, value, 1.0)),
            LogicalRecord(1901, (6, value, 2.0)),
            LogicalRecord(3, (value,)),
        ]
        text = encode_stream(records)
        assert text == record_by_record(records)
        assert encode_item(value) in text.replace("\n", "")

    @pytest.mark.parametrize("value, message", ENCODE_REJECTS, ids=repr)
    def test_reject_as_attribute(self, value, message):
        # the first record fixes the shape the rejected value then meets
        for records in (
            [LogicalRecord(1901, (5, 0.5, value))],
            [
                LogicalRecord(1901, (5, 0.5, "AB" if isinstance(value, str) else 0)),
                LogicalRecord(1901, (5, 0.5, value)),
            ],
        ):
            with pytest.raises(FilCodecError) as exc:
                encode_stream(records)
            assert str(exc.value) == message
            with pytest.raises(FilCodecError) as exc:
                encode_record(records[-1])
            assert str(exc.value) == message

    def test_equal_keys_of_other_types_do_not_share_a_shape(self):
        records = [LogicalRecord(1, (2,)), LogicalRecord(True, (2,))]
        assert encode_outcome(encode_stream, records) == (
            FilCodecError, "cannot encode True as a data item"
        )
        records = [LogicalRecord(1, (2,)), LogicalRecord(np.int64(1), (2,))]
        assert encode_outcome(encode_stream, records) == (
            FilCodecError, "cannot encode np.int64(1) as a data item"
        )

    @given(
        st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 3),
                    st.sampled_from([True, np.int64(1), -1, 10**99]),
                ),
                st.lists(
                    st.one_of(
                        st.floats(),
                        st.integers(-(10**100), 10**100),
                        st.integers(-3, 3),
                        st.text("ABEN+0138 ", max_size=10),
                        st.sampled_from(EDGE_VALUES),
                    ),
                    max_size=6,
                ),
                st.booleans(),
            ),
            max_size=8,
        )
    )
    @settings(max_examples=500)
    def test_same_text_or_error_as_encode_record(self, drawn):
        records = [
            LogicalRecord(key, attributes if as_list else tuple(attributes))
            for key, attributes, as_list in drawn
        ]
        assert encode_outcome(encode_stream, records) == encode_outcome(
            record_by_record, records
        )


class TestRoundTrip:
    def test_write_read_flat_identity(self, tmp_path):
        rng = random.Random(7)
        stream = random_stream(rng, max_records=8)
        flat = "".join(encode_record(r) for r in stream)
        path = tmp_path / "rt.fil"
        write_fil(stream, path)
        assert fil_to_string(path).rstrip() == flat.rstrip()
        assert decode_stream(fil_to_string(path)) == stream

    def test_fuzz_round_trip(self, tmp_path):
        rng = random.Random(20260823)
        path = tmp_path / "fuzz.fil"
        for _ in range(200):
            stream = random_stream(rng)
            write_fil(stream, path)
            assert decode_stream(fil_to_string(path)) == stream

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=1e-300, max_value=1e300))
    @settings(max_examples=300)
    def test_float_precision_positive(self, x):
        got, _ = decode_item(encode_item(x), 0)
        assert abs(got - x) <= 2.0**-45 * abs(x)

    @given(st.floats(allow_nan=False, allow_infinity=False, min_value=-1e300, max_value=-1e-300))
    @settings(max_examples=300)
    def test_float_precision_negative(self, x):
        got, _ = decode_item(encode_item(x), 0)
        assert abs(got - x) <= 2.0**-45 * abs(x)

    @given(st.integers(min_value=-(10**20), max_value=10**20))
    def test_int_round_trip(self, i):
        assert decode_item(encode_item(i), 0)[0] == i

    def test_position_monotonicity(self):
        rng = random.Random(3)
        for _ in range(200):
            rec = random_stream(rng, max_records=1, max_attrs=10)
            flat = "".join(encode_record(r) for r in rec)
            pos = 0
            while pos < len(flat):
                if flat[pos] == "*":
                    pos += 1
                    continue
                _, nxt = decode_item(flat, pos)
                assert nxt - pos >= 4
                pos = nxt
