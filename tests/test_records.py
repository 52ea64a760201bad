import enum
import io
import random
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import canonical_float
from fempost import records
from fempost._base import FempostError, read_csv
from fempost.filcodec import LogicalRecord, decode_stream, encode_stream
from fempost.records import (
    ElementTable,
    MalformedRecord,
    NodalFieldTable,
    NodeTable,
    StressTable,
    element_records,
    extract_elements,
    extract_nodal_field,
    extract_nodes,
    extract_raw,
    extract_stresses,
    node_records,
    nodal_field_records,
    stress_records,
)


def round_trip(records):
    """Encode records to text and decode them back, as a file would."""
    flat = encode_stream(records).replace("\n", "")
    return decode_stream(flat)


class TestExtractNodes:
    def test_single_node(self):
        stream = round_trip([LogicalRecord(1901, (5, 1.0, 2.0))])
        table = extract_nodes(stream)
        assert table.rows == [(5, (1.0, 2.0))]
        assert table.dimension == 2

    def test_no_node_records(self):
        stream = round_trip([LogicalRecord(101, (1, 0.0))])
        assert extract_nodes(stream).rows == []

    def test_grid_of_100(self):
        rows = [(i + 1, (float(i % 10), float(i // 10))) for i in range(100)]
        table = extract_nodes(round_trip(node_records(rows)))
        assert table.rows == rows

    def test_malformed_first_attribute(self):
        stream = [LogicalRecord(1901, (1.5, 1.0))]
        with pytest.raises(MalformedRecord):
            extract_nodes(stream)

    def test_mixed_dimensions_name_first_odd_id(self):
        recs = node_records([(4, (0.0, 0.0)), (7, (1.0, 0.0)), (9, (0.0, 1.0, 2.0)), (2, (1.0,))])
        with pytest.raises(
            MalformedRecord,
            match=r"^inconsistent coordinate dimensions \[1, 2, 3\], first differing at id 9$",
        ):
            extract_nodes(recs)

    def test_duplicate_last_wins(self):
        recs = node_records([(1, (0.0,)), (1, (9.0,))])
        with pytest.warns(UserWarning):
            table = extract_nodes(recs)
        assert table.rows == [(1, (9.0,))]


class TestExtractElements:
    def test_single_element(self):
        recs = [LogicalRecord(1900, (1, "CPE8R   ", 1, 2, 3, 4))]
        table = extract_elements(round_trip(recs))
        assert table.rows == [(1, "CPE8R", (1, 2, 3, 4))]

    def test_no_elements(self):
        assert extract_elements([]).rows == []

    def test_mixed_stream_filters(self):
        recs = element_records([(1, "CPE4", (1, 2, 3, 4))]) + node_records(
            [(1, (0.0, 0.0))]
        )
        table = extract_elements(round_trip(recs))
        assert len(table) == 1
        assert extract_nodes(round_trip(recs)).rows == [(1, (0.0, 0.0))]

    def test_bad_connectivity(self):
        with pytest.raises(MalformedRecord):
            extract_elements([LogicalRecord(1900, (1, "CPE4    ", 0))])


class TestExtractNodalField:
    def test_displacement_row(self):
        recs = [LogicalRecord(101, (2, 0.0, -0.0508))]
        table = extract_nodal_field(round_trip(recs), 101)
        assert table.rows == [(2, (0.0, -0.0508))]
        assert table.key == 101

    def test_reactions_absent(self):
        recs = nodal_field_records(101, [(1, (0.5,))])
        assert extract_nodal_field(round_trip(recs), 104).rows == []

    def test_random_round_trip(self):
        rng = random.Random(11)
        rows = [
            (
                nid + 1,
                (canonical_float(rng.uniform(-1, 1)), canonical_float(rng.uniform(-1, 1))),
            )
            for nid in range(50)
        ]
        table = extract_nodal_field(round_trip(nodal_field_records(104, rows)), 104)
        assert table.rows == rows

    def test_invalid_key(self):
        with pytest.raises(ValueError):
            extract_nodal_field([], 999)


class TestExtractStresses:
    def test_header_pairing(self):
        recs = stress_records([(7, 1, (1.0, 2.0, 3.0, 4.0))])
        table = extract_stresses(round_trip(recs))
        assert table.rows == [(7, 1, (1.0, 2.0, 3.0, 4.0))]

    def test_orphan_stress(self):
        with pytest.raises(MalformedRecord):
            extract_stresses([LogicalRecord(11, (1.0, 2.0, 3.0, 4.0))])

    def test_orphan_stress_names_record(self):
        orphan = LogicalRecord(11, (1.0, 2.0, 3.0, 4.0))
        with pytest.raises(
            MalformedRecord,
            match=r"^stress record with no preceding element header in record "
            + re.escape(str(orphan)) + "$",
        ):
            extract_stresses([LogicalRecord(104, (1, 0.5)), orphan])

    def test_mixed_widths_rejected(self):
        recs = stress_records(
            [(1, 1, (1.0, 2.0, 3.0, 4.0)), (2, 1, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))]
        )
        with pytest.raises(MalformedRecord, match="inconsistent component counts"):
            extract_stresses(round_trip(recs))

    def test_mixed_widths_name_first_odd_id(self):
        recs = stress_records(
            [(3, 1, (1.0,) * 4), (3, 2, (1.0,) * 4), (8, 1, (1.0,) * 6), (5, 1, (1.0,) * 4)]
        )
        with pytest.raises(
            MalformedRecord,
            match=r"^inconsistent component counts \[4, 6\], first differing at id 8$",
        ):
            extract_stresses(recs)

    def test_bad_width_names_record(self):
        bad = LogicalRecord(11, (1.0,) * 5)
        with pytest.raises(
            MalformedRecord,
            match=r"^stress record carries 5 components, expected 4 or 6 in record "
            + re.escape(str(bad)) + "$",
        ):
            extract_stresses([LogicalRecord(1, (2, 1)), bad])

    def test_two_pairs_in_order(self):
        rows = [(1, 1, (1.0, 0.0, 0.0, 0.0)), (2, 4, (0.0, 2.0, 0.0, 0.0))]
        table = extract_stresses(round_trip(stress_records(rows)))
        assert table.rows == rows


class TestExtractRaw:
    def test_key_present_twice(self):
        recs = [LogicalRecord(42, (1,)), LogicalRecord(42, (2,))]
        assert extract_raw(recs, 42) == [[1], [2]]

    def test_absent_key(self):
        assert extract_raw([], 42) == []

    def test_consistent_with_typed(self):
        rows = [(3, (1.5, -2.5)), (4, (0.0, 9.0))]
        stream = round_trip(node_records(rows))
        raw = extract_raw(stream, 1901)
        retyped = [(attrs[0], tuple(attrs[1:])) for attrs in raw]
        assert retyped == extract_nodes(stream).rows

    def test_count_matches(self):
        rng = random.Random(5)
        recs = []
        for _ in range(100):
            recs.append(LogicalRecord(rng.randrange(5), (rng.random(),)))
        stream = round_trip(recs)
        for key in range(5):
            expected = sum(1 for r in recs if r.key == key)
            assert len(extract_raw(stream, key)) == expected


#: One malformed record of each key an extractor reads.
MALFORMED = {
    1901: LogicalRecord(1901, (1.5, 0.0)),  # float node id
    1900: LogicalRecord(1900, (2.5, "CPE4    ", 1)),  # float element id
    101: LogicalRecord(101, ()),  # no node id
    104: LogicalRecord(104, (3, "ABCDEFGH")),  # string component
    1: LogicalRecord(1, (1, 0)),  # integration point 0
    11: LogicalRecord(11, (1.0, 2.0, 3.0, 4.0)),  # orphan: no header before it
}


class TestPerKeyIsolation:
    """Each extractor fails on a malformed record of its own keys and ignores
    one of any other key."""

    @pytest.mark.parametrize(
        "extract, own_keys",
        [
            (extract_nodes, {1901}),
            (extract_elements, {1900}),
            (lambda stream: extract_nodal_field(stream, 101), {101}),
            (lambda stream: extract_nodal_field(stream, 104), {104}),
            (extract_stresses, {1, 11}),
        ],
        ids=["nodes", "elements", "displacements", "reactions", "stresses"],
    )
    def test_ignores_malformed_records_of_other_keys(self, extract, own_keys):
        good = (
            node_records([(1, (0.0, 0.0)), (2, (1.0, 0.0))])
            + element_records([(1, "CPE4", (1, 2, 2, 1))])
            + nodal_field_records(101, [(1, (0.5, 0.0))])
            + nodal_field_records(104, [(2, (0.0, -3.0))])
            + stress_records([(1, 1, (1.0, 2.0, 3.0, 4.0))])
        )
        others = [rec for key, rec in MALFORMED.items() if key not in own_keys]
        assert extract(others + good) == extract(good)
        for key in own_keys:
            with pytest.raises(FempostError):
                extract([MALFORMED[key]] + good)


class TestGeneratorDuality:
    """encode(generate(T)) then extract must reproduce T exactly."""

    def test_fuzzed_node_tables(self):
        rng = random.Random(2026)
        for _ in range(250):
            d = rng.choice([1, 2, 3])
            n = rng.randrange(0, 20)
            rows = [
                (i + 1, tuple(rng.uniform(-1e3, 1e3) for _ in range(d)))
                for i in range(n)
            ]
            # canonicalize floats through one encode/decode
            stream = round_trip(node_records(rows))
            table = extract_nodes(stream)
            again = extract_nodes(round_trip(node_records(table.rows)))
            assert again.rows == table.rows

    def test_fuzzed_field_tables(self):
        rng = random.Random(4)
        for _ in range(250):
            key = rng.choice([101, 104])
            rows = [
                (i + 1, tuple(rng.gauss(0, 1) for _ in range(3)))
                for i in range(rng.randrange(0, 15))
            ]
            stream = round_trip(nodal_field_records(key, rows))
            table = extract_nodal_field(stream, key)
            again = extract_nodal_field(
                round_trip(nodal_field_records(key, table.rows)), key
            )
            assert again.rows == table.rows

    def test_fuzzed_element_tables(self):
        rng = random.Random(8)
        for _ in range(250):
            rows = [
                (
                    i + 1,
                    rng.choice(["CPE4", "CPE8R", "C3D8"]),
                    tuple(rng.randrange(1, 99) for _ in range(rng.choice([4, 8]))),
                )
                for i in range(rng.randrange(0, 10))
            ]
            table = extract_elements(round_trip(element_records(rows)))
            assert table.rows == rows

    def test_fuzzed_stress_tables(self):
        rng = random.Random(16)
        for _ in range(250):
            width = rng.choice([4, 6])  # one table carries one component width
            rows = [
                (i + 1, rng.randrange(1, 9), tuple(rng.gauss(0, 100) for _ in range(width)))
                for i in range(rng.randrange(0, 10))
            ]
            stream = round_trip(stress_records(rows))
            table = extract_stresses(stream)
            again = extract_stresses(round_trip(stress_records(table.rows)))
            assert again.rows == table.rows
            lines = table.to_csv().splitlines()
            assert {line.count(",") for line in lines} == {len(lines[0].split(",")) - 1}


class TestCsvExport:
    def test_node_csv(self):
        table = extract_nodes(node_records([(1, (0.5, 1.5))]))
        text = table.to_csv()
        assert text.splitlines()[0] == "node_id,x1,x2"
        assert text.splitlines()[1] == "1,0.5,1.5"

    def test_stress_csv_header(self):
        table = extract_stresses(stress_records([(1, 1, (1.0, 2.0, 3.0, 4.0))]))
        assert table.to_csv().splitlines()[0] == "element_id,integration_point,S11,S22,S33,S12"

    def test_numpy_rows_round_trip(self, tmp_path):
        # numpy 2 scalars repr as np.float64(...); every cell must be a plain number
        rng = np.random.default_rng(17)
        ids = np.arange(1, 6)
        values = rng.normal(0.0, 100.0, size=(5, 6)) * 10.0 ** rng.integers(-30, 30, size=(5, 6))
        tables = [
            (NodeTable([(i, tuple(v[:2])) for i, v in zip(ids, values)]), values[:, :2]),
            (NodalFieldTable(101, [(i, tuple(v[:3])) for i, v in zip(ids, values)]), values[:, :3]),
            (StressTable([(i, np.int64(1), tuple(v)) for i, v in zip(ids, values)]), values),
        ]
        for table, expected in tables:
            path = tmp_path / "table.csv"
            path.write_text(table.to_csv())
            back = read_csv(path)
            assert np.array_equal(back[:, 0], ids)
            assert np.array_equal(back[:, -expected.shape[1]:], expected)


class TestCsvGolden:
    """Byte-exact CSV output of every table, with rows and header only."""

    @pytest.mark.parametrize(
        "table, expected",
        [
            (
                NodeTable([(1, (0.5, 1.5)), (2, (-1e-20, 3.0))]),
                "node_id,x1,x2\n1,0.5,1.5\n2,-1e-20,3.0\n",
            ),
            (NodeTable([]), "node_id\n"),
            (
                ElementTable([(7, "CPE4", (1, 2, 3, 4)), (8, "C3D8", (5,))]),
                "element_id,element_type,connectivity\n7,CPE4,1 2 3 4\n8,C3D8,5\n",
            ),
            (ElementTable([]), "element_id,element_type,connectivity\n"),
            (
                NodalFieldTable(104, [(3, (0.1, -2.0, 1e300))]),
                "node_id,c1,c2,c3\n3,0.1,-2.0,1e+300\n",
            ),
            (NodalFieldTable(101, []), "node_id\n"),
            (
                StressTable([(1, 2, (1.0, 2.0, 3.0, 4.0, 5.0, 6.25))]),
                "element_id,integration_point,S11,S22,S33,S12,S13,S23\n"
                "1,2,1.0,2.0,3.0,4.0,5.0,6.25\n",
            ),
            (
                StressTable([(1, 1, (1.0, 2.0, 3.0, 4.0)), (2, 4, (0.5, 0.0, 0.0, -0.5))]),
                "element_id,integration_point,S11,S22,S33,S12\n"
                "1,1,1.0,2.0,3.0,4.0\n2,4,0.5,0.0,0.0,-0.5\n",
            ),
            (StressTable([]), "element_id,integration_point\n"),
        ],
    )
    def test_to_csv_bytes(self, table, expected):
        assert table.to_csv() == expected
        out = io.StringIO()
        assert table.to_csv(out) is None
        assert out.getvalue() == expected
        assert len(table) == len(table.rows)


def joined_csv(table) -> str:
    """The row writer to_csv replaced: one ",".join(map(str, cells)) per row."""
    lines = [",".join(table._header())]
    lines += [",".join(map(str, table._cells(row))) for row in table.rows]
    return "\n".join(lines) + "\n"


class Level(enum.IntEnum):
    LOW = 1


class Stress(float):
    def __str__(self):
        return f"Stress({float(self)!r})"


class TestCsvMatchesJoinedRows:
    """to_csv writes each row from one format per cell count; the bytes are
    those of joining str() of every cell."""

    @pytest.mark.parametrize(
        "table",
        [
            *(
                NodeTable([(i, tuple(0.1 * i + j for j in range(dim))) for i in range(1, 5)])
                for dim in (1, 2, 3)
            ),
            StressTable([(1, 1, (1.0, -2.5, 3e-300, 4.0)), (2, 3, (0.0, -0.0, 5.5, 1e22))]),
            StressTable([(7, 2, (1.0, 2.0, 3.0, 4.0, 5.0, 6.125))]),
            NodalFieldTable(101, [(3, (0.1, -2.0)), (4, (1e300, 2.2250738585072014e-308))]),
            ElementTable([(7, "CPE4", (1, 2, 3, 4)), (8, "C3D8", (5,)), (9, "T2D2", ())]),
            NodeTable([]),
            StressTable([(True, Level.LOW, (Stress(1.5), np.float64(2.0), 3.0, False))]),
            NodeTable([(np.int64(1), (np.float64(0.1), np.float32(0.2)))]),
            NodeTable([(1, (0.5,)), (2, (1.0, 2.0, 3.0)), (3, ()), (4, (4.0,))]),
        ],
        ids=[
            "nodes-1d", "nodes-2d", "nodes-3d", "stress-4", "stress-6", "nodal-field",
            "elements", "empty", "odd-cells", "numpy-cells", "ragged",
        ],
    )
    def test_bytes_equal(self, table):
        assert table.to_csv() == joined_csv(table)

    def test_generated_mesh(self):
        rng = random.Random(32)
        nodes = [(i, (rng.gauss(0, 1), rng.gauss(0, 1))) for i in range(1, 200)]
        stresses = [(i, 1, tuple(rng.gauss(0, 1e3) for _ in range(6))) for i in range(1, 200)]
        for table in (
            extract_nodes(round_trip(node_records(nodes))),
            extract_stresses(round_trip(stress_records(stresses))),
        ):
            assert table.to_csv() == joined_csv(table)


class TestDuplicateIds:
    """Duplicate ids keep the last record, move it to the end and warn."""

    def test_nodes_last_wins_and_moves(self):
        recs = node_records([(1, (0.0, 0.0)), (2, (1.0, 1.0)), (1, (9.0, 9.0))])
        with pytest.warns(UserWarning) as caught:
            table = extract_nodes(recs)
        assert [r[0] for r in table.rows] == [2, 1]
        assert table.rows == [(2, (1.0, 1.0)), (1, (9.0, 9.0))]
        assert len(caught) == 1

    def test_elements_last_wins_and_moves(self):
        recs = element_records(
            [(1, "CPE4", (1, 2, 3, 4)), (2, "CPE4", (2, 3, 4, 5)), (1, "CPE3", (7, 8, 9))]
        )
        with pytest.warns(UserWarning) as caught:
            table = extract_elements(recs)
        assert [r[0] for r in table.rows] == [2, 1]
        assert table.rows == [(2, "CPE4", (2, 3, 4, 5)), (1, "CPE3", (7, 8, 9))]
        assert len(caught) == 1


# ---------------------------------------------------------------------------
# Reference extractors that check each attribute with its own call.  The
# library's one test per record must give the same rows, element types,
# warnings and error messages.  The orphan-stress message names the record,
# like every other message.

_KIND_NAMES = {int: "an integer", float: "a float", str: "a string"}


def _ref_require(kind, value, what, record):
    if isinstance(value, kind):
        return value
    raise MalformedRecord(f"{what} is not {_KIND_NAMES[kind]} in record {record}")


def _ref_floats(attrs, what, record):
    attrs = tuple(attrs)
    if all(isinstance(a, float) for a in attrs):
        return attrs
    raise MalformedRecord(f"{what} is not {_KIND_NAMES[float]} in record {record}")


def _ref_id_components(stream, key, what, component):
    for rec in stream:
        if rec.key != key:
            continue
        if not rec.attributes:
            raise MalformedRecord(f"{what} record has no attributes: {rec}")
        nid = _ref_require(int, rec.attributes[0], "node id", rec)
        yield nid, _ref_floats(rec.attributes[1:], component, rec)


def _ref_element_row(rec):
    if len(rec.attributes) < 2:
        raise MalformedRecord(f"element record too short: {rec}")
    eid = _ref_require(int, rec.attributes[0], "element id", rec)
    etype = _ref_require(str, rec.attributes[1], "element type", rec)
    conn = tuple(_ref_require(int, a, "connectivity entry", rec) for a in rec.attributes[2:])
    if any(n < 1 for n in conn):
        raise MalformedRecord(f"connectivity node id < 1 in record {rec}")
    return eid, etype.rstrip(), conn


def ref_extract_nodes(stream):
    rows = records._last_wins(
        _ref_id_components(stream, 1901, "node", "nodal coordinate"), "node"
    )
    return NodeTable(records._one_width(rows, "coordinate dimensions"))


def ref_extract_elements(stream):
    rows = (_ref_element_row(rec) for rec in stream if rec.key == 1900)
    return ElementTable(records._last_wins(rows, "element"))


def ref_extract_nodal_field(stream, key):
    rows = list(_ref_id_components(stream, key, "nodal field", "field component"))
    return NodalFieldTable(key, records._one_width(rows, "component counts"))


def ref_extract_stresses(stream):
    rows = []
    header = None
    for rec in stream:
        if rec.key == 1:
            if len(rec.attributes) < 2:
                raise MalformedRecord(f"element header record too short: {rec}")
            eid = _ref_require(int, rec.attributes[0], "element id", rec)
            ip = _ref_require(int, rec.attributes[1], "integration point", rec)
            if ip < 1:
                raise MalformedRecord(f"integration point {ip} < 1 in record {rec}")
            header = (eid, ip)
        elif rec.key == 11:
            if header is None:
                raise MalformedRecord(
                    f"stress record with no preceding element header in record {rec}"
                )
            comps = _ref_floats(rec.attributes, "stress component", rec)
            if len(comps) not in (4, 6):
                raise MalformedRecord(
                    f"stress record carries {len(comps)} components, expected 4 or 6 in record {rec}"
                )
            rows.append((header[0], header[1], comps))
    return StressTable(records._one_width(rows, "component counts"))


class Level(enum.IntEnum):
    ONE = 1
    TWO = 2


class Real(float):
    pass


_small_ints = st.integers(-1, 6)
_plain_floats = st.floats(allow_nan=True, allow_infinity=True)
int_like = st.one_of(
    _small_ints, st.booleans(), st.sampled_from(Level), _small_ints.map(np.int64)
)
float_like = st.one_of(_plain_floats, _plain_floats.map(Real), _plain_floats.map(np.float64))
any_attribute = st.one_of(int_like, float_like, st.text(max_size=8))

# a key's own layout draws plain ids and floats three times in four, so that
# whole streams often pass
_ids = st.one_of(*[st.integers(1, 6)] * 3, int_like)
_floats = st.one_of(*[_plain_floats] * 3, float_like)

#: Well-formed attribute layouts per key: (leading kinds, repeated kind, repeat range).
LAYOUTS = {
    1901: ([_ids], _floats, (0, 3)),
    101: ([_ids], _floats, (1, 3)),
    104: ([_ids], _floats, (1, 3)),
    1900: ([_ids, st.text(max_size=8)], _ids, (0, 4)),
    1: ([_ids, _ids], _ids, (0, 0)),
    11: ([], _floats, (4, 6)),
}


@st.composite
def fuzzed_records(draw):
    """One or two records: a record of an extracted key (or key 7), laid out
    either as its key expects, with at most one attribute swapped for any
    kind and the tail possibly cut off, or as an arbitrary short list of
    attributes.  A stress record laid out as its key expects comes after a
    header; an arbitrary one may be an orphan."""
    key = draw(st.sampled_from([*LAYOUTS, 7]))
    if key == 7 or draw(st.integers(0, 7)) == 0:
        return [LogicalRecord(key, tuple(draw(st.lists(any_attribute, max_size=4))))]
    lead, repeated, (lo, hi) = LAYOUTS[key]
    attrs = [draw(kind) for kind in lead]
    attrs += draw(st.lists(repeated, min_size=lo, max_size=hi))
    if attrs and draw(st.integers(0, 3)) == 0:
        attrs[draw(st.integers(0, len(attrs) - 1))] = draw(any_attribute)
    if draw(st.integers(0, 7)) == 0:
        attrs = attrs[: draw(st.integers(0, len(attrs)))]
    header = [LogicalRecord(1, (draw(_ids), draw(_ids)))] if key == 11 else []
    return header + [LogicalRecord(key, tuple(attrs))]


fuzzed_streams = st.lists(fuzzed_records(), max_size=8).map(lambda parts: sum(parts, []))


def typed(value):
    """*value* with every leaf replaced by (type, repr), so rows compare by
    element type too and NaN compares equal to itself."""
    if isinstance(value, (tuple, list)):
        return type(value), [typed(v) for v in value]
    return type(value), repr(value)


def outcome(extract, stream):
    """Rows (typed) and warnings of one extractor call, or its error."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            table = extract(stream)
        except Exception as exc:  # any class: the class is compared too
            result = ("raised", type(exc), str(exc))
        else:
            result = ("rows", type(table), typed(table.rows))
    return result, [str(w.message) for w in caught]


class TestExtractorsMatchReference:
    """Every extractor returns the reference's rows with equal element types,
    or raises MalformedRecord with the same message, on fuzzed streams."""

    PAIRS = [
        (extract_nodes, ref_extract_nodes),
        (extract_elements, ref_extract_elements),
        (lambda s: extract_nodal_field(s, 101), lambda s: ref_extract_nodal_field(s, 101)),
        (lambda s: extract_nodal_field(s, 104), lambda s: ref_extract_nodal_field(s, 104)),
        (extract_stresses, ref_extract_stresses),
    ]

    @settings(max_examples=500, deadline=None)
    @given(fuzzed_streams)
    def test_same_rows_or_same_error(self, stream):
        for extract, reference in self.PAIRS:
            expected = outcome(reference, stream)
            assert outcome(extract, stream) == expected
            if expected[0][0] == "raised":
                assert expected[0][1] is MalformedRecord

    def test_fuzz_reaches_rows_and_errors(self):
        # every extractor sees errors, empty tables and rows, and rows carry
        # the int and float subclasses the one test per record lets through
        outcomes = {i: set() for i in range(len(self.PAIRS))}
        leaf_types = set()

        def leaves(node):
            kind, value = node
            if isinstance(value, list):
                for item in value:
                    yield from leaves(item)
            else:
                yield kind

        @settings(max_examples=300, deadline=None, database=None, derandomize=True)
        @given(fuzzed_streams)
        def collect(stream):
            for i, (_, reference) in enumerate(self.PAIRS):
                (kind, _, rows), _ = outcome(reference, stream)
                outcomes[i].add(kind if kind == "raised" else bool(rows[1]))
                if kind == "rows":
                    leaf_types.update(leaves(rows))

        collect()
        assert all(seen == {"raised", True, False} for seen in outcomes.values())
        assert {bool, Level, Real, np.float64} <= leaf_types
