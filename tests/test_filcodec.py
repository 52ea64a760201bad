import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_float, random_stream
from fempost.filcodec import (
    LINE_WIDTH,
    AttributeUnderrun,
    BadRecordHeader,
    InvariantViolation,
    LogicalRecord,
    MalformedFloat,
    MalformedWidth,
    TruncatedItem,
    UnknownItemMarker,
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
        with pytest.raises(UnknownItemMarker):
            decode_item("X123", 0)

    def test_malformed_width(self):
        with pytest.raises(MalformedWidth):
            decode_item("Ixx12", 0)

    def test_malformed_float(self):
        with pytest.raises(MalformedFloat):
            decode_item("D" + "z" * 22, 0)

    def test_truncated(self):
        with pytest.raises(TruncatedItem):
            decode_item("I 4190", 0)
        with pytest.raises(TruncatedItem):
            decode_item("D 1.0", 0)
        with pytest.raises(TruncatedItem):
            decode_item("AHEL", 0)

    def test_errors_carry_offset(self):
        with pytest.raises(UnknownItemMarker) as exc:
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
        with pytest.raises(BadRecordHeader) as exc:
            decode_stream("*I 13I 219I 222*X")
        assert exc.value.offset == 15

    def test_attribute_underrun(self):
        with pytest.raises(AttributeUnderrun):
            decode_stream("*I 15I 219I 222")

    def test_negative_key_rejected(self):
        with pytest.raises(BadRecordHeader):
            decode_stream("*I 13I 2-5I 222")

    def test_lenient_resync(self):
        good = encode_record(LogicalRecord(19, (22,)))
        stream = decode_stream("*X????" + good, lenient=True)
        assert stream == [LogicalRecord(19, (22,))]

    def test_rejects_line_breaks(self):
        with pytest.raises(Exception):
            decode_stream("*I 12I 10\n")


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
        with pytest.raises(InvariantViolation):
            encode_record(LogicalRecord(-1, ()))

    def test_float_item_is_23_chars(self):
        for x in (0.0, 1.0, -1.0, 3.14159, 1e300, -1e300, 1e-300, -1e-299):
            assert len(encode_item(x)) == 23

    def test_int_width_blank_padded(self):
        assert encode_item(1901) == "I 41901"
        assert encode_item(1234567890) == "I101234567890"

    def test_str8_pads(self):
        assert encode_item("AB") == "AAB      "
        with pytest.raises(ValueError):
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
