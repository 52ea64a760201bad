import io
import random

import numpy as np
import pytest

from conftest import canonical_float
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

    def test_mixed_widths_rejected(self):
        recs = stress_records(
            [(1, 1, (1.0, 2.0, 3.0, 4.0)), (2, 1, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))]
        )
        with pytest.raises(MalformedRecord, match="inconsistent component counts"):
            extract_stresses(round_trip(recs))

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
