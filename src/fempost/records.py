"""Typed extraction of specific record keys from a decoded stream.

Each extractor mirrors a per-key post-processing routine: it scans the stream
for its record key and assembles a small tabular result.  The inverse
generators build the same records back from tables; they are used to fabricate
test fixtures in place of a real solver run.

Every extractor follows the same rules.  A record's attributes are
type-checked with one test per record; only a record that fails it is checked
attribute by attribute, so a mismatch raises :class:`MalformedRecord` naming
the first bad attribute.  Int and float subclasses (``bool`` included) pass;
numpy integer scalars do not.  Where an id must be unique (nodes, elements) a
duplicate keeps the last record, moves it to the end of the row order and
emits a ``UserWarning``.  Every table has one component width: mixed
coordinate dimensions, nodal-field component counts or stress component
counts raise :class:`MalformedRecord`.

Key conventions used by this package:

* 1901 -- node definition: node id, then coordinates.
* 1900 -- element definition: element id, 8-char type label, connectivity.
* 101  -- nodal displacements: node id, then components.
* 104  -- nodal reaction forces: node id, then components.
* 1    -- element header: element id, integration point (precedes stress data).
* 11   -- stress components at the current header's integration point.
"""

from __future__ import annotations

import io
import warnings
from dataclasses import dataclass

from ._base import FempostError
from .filcodec import LogicalRecord, str8

__all__ = [
    "MalformedRecord",
    "NodeTable",
    "ElementTable",
    "NodalFieldTable",
    "StressTable",
    "extract_nodes",
    "extract_elements",
    "extract_nodal_field",
    "extract_stresses",
    "extract_raw",
    "node_records",
    "element_records",
    "nodal_field_records",
    "stress_records",
]

KEY_NODES = 1901
KEY_ELEMENTS = 1900
KEY_DISPLACEMENTS = 101
KEY_REACTIONS = 104
KEY_ELEMENT_HEADER = 1
KEY_STRESS = 11


class MalformedRecord(FempostError):
    """A record matching the requested key has an unexpected attribute layout,
    or a stress record comes before any element header record."""


class _Table:
    """Shared layout of every table: ``rows`` is a list of tuples whose last
    entry holds the components, all of one width; CSV spreads the components
    over one cell each under the header the table supplies."""

    def __len__(self):
        return len(self.rows)

    @property
    def _width(self) -> int:
        return len(self.rows[0][-1]) if self.rows else 0

    @staticmethod
    def _cells(row) -> tuple:
        return (*row[:-1], *row[-1])

    def to_csv(self, out=None):
        buffer = out if out is not None else io.StringIO()
        buffer.write(",".join(self._header()) + "\n")
        for row in self.rows:
            buffer.write(",".join(map(str, self._cells(row))) + "\n")
        return buffer.getvalue() if out is None else None


@dataclass
class NodeTable(_Table):
    """Rows of (node_id, coords); all rows share one coordinate dimension."""

    rows: list

    @property
    def dimension(self) -> int:
        return self._width

    def _header(self):
        return ["node_id"] + [f"x{i + 1}" for i in range(self.dimension)]


@dataclass
class ElementTable(_Table):
    """Rows of (element_id, element_type, connectivity)."""

    rows: list

    def _header(self):
        return ["element_id", "element_type", "connectivity"]

    @staticmethod
    def _cells(row) -> tuple:
        return (*row[:-1], " ".join(str(n) for n in row[-1]))


@dataclass
class NodalFieldTable(_Table):
    """Rows of (node_id, components) for one nodal result key."""

    key: int
    rows: list

    def _header(self):
        return ["node_id"] + [f"c{i + 1}" for i in range(self._width)]


@dataclass
class StressTable(_Table):
    """Rows of (element_id, integration_point, components)."""

    rows: list

    def _header(self):
        names = ["S11", "S22", "S33", "S12", "S13", "S23"][: self._width]
        return ["element_id", "integration_point"] + names


_KIND_NAMES = {int: "an integer", float: "a float", str: "a string"}
_INT = frozenset((int,))
_FLOAT = frozenset((float,))


def _require(kind, values, what, record):
    """Raise MalformedRecord naming the first of *values* that is not a
    *kind*; the failure path of each extractor's one test per record."""
    for value in values:
        if not isinstance(value, kind):
            raise MalformedRecord(f"{what} is not {_KIND_NAMES[kind]} in record {record}")


def _last_wins(rows, what) -> list:
    """Rows keyed by their first cell; a repeated id warns and its last row
    replaces the earlier one at the end of the order."""
    by_id = {}
    for row in rows:
        if by_id.pop(row[0], None) is not None:
            warnings.warn(f"duplicate {what} id {row[0]}; keeping the last record")
        by_id[row[0]] = row
    return list(by_id.values())


def _one_width(rows, what) -> list:
    widths = {len(row[-1]) for row in rows}
    if len(widths) > 1:
        odd = next(row[0] for row in rows if len(row[-1]) != len(rows[0][-1]))
        raise MalformedRecord(
            f"inconsistent {what} {sorted(widths)}, first differing at id {odd}"
        )
    return rows


def _id_components(stream, key, what, component):
    """(int node id, float components) of every *key* record, in stream order."""
    for rec in stream:
        if rec.key != key:
            continue
        attrs = rec.attributes
        if not attrs:
            raise MalformedRecord(f"{what} record has no attributes: {rec}")
        nid, comps = attrs[0], tuple(attrs[1:])
        if type(nid) is not int or not _FLOAT.issuperset(map(type, comps)):
            _require(int, (nid,), "node id", rec)
            _require(float, comps, component, rec)
        yield nid, comps


def extract_nodes(stream) -> NodeTable:
    """Collect node definitions (key 1901): id, then float coordinates.

    Duplicate node ids keep the last record seen (multi-step files may rewrite
    nodes); a warning is emitted.
    """
    rows = _last_wins(_id_components(stream, KEY_NODES, "node", "nodal coordinate"), "node")
    return NodeTable(_one_width(rows, "coordinate dimensions"))


def _element_row(rec) -> tuple:
    attrs = rec.attributes
    if len(attrs) < 2:
        raise MalformedRecord(f"element record too short: {rec}")
    eid, etype, conn = attrs[0], attrs[1], tuple(attrs[2:])
    if type(eid) is not int or type(etype) is not str or not _INT.issuperset(map(type, conn)):
        _require(int, (eid,), "element id", rec)
        _require(str, (etype,), "element type", rec)
        _require(int, conn, "connectivity entry", rec)
    if conn and min(conn) < 1:
        raise MalformedRecord(f"connectivity node id < 1 in record {rec}")
    return eid, etype.rstrip(), conn


def extract_elements(stream) -> ElementTable:
    """Collect element definitions (key 1900): id, type label, connectivity.

    The 8-character type label is returned with trailing blanks stripped.
    Duplicate element ids keep the last record seen; a warning is emitted.
    """
    rows = (_element_row(rec) for rec in stream if rec.key == KEY_ELEMENTS)
    return ElementTable(_last_wins(rows, "element"))


def extract_nodal_field(stream, key: int) -> NodalFieldTable:
    """Collect a nodal result (key 101 displacements, 104 reaction forces)."""
    if key not in (KEY_DISPLACEMENTS, KEY_REACTIONS):
        raise ValueError(f"nodal field key must be 101 or 104, got {key}")
    rows = list(_id_components(stream, key, "nodal field", "field component"))
    return NodalFieldTable(key, _one_width(rows, "component counts"))


def extract_stresses(stream) -> StressTable:
    """Join stress records (key 11) with the preceding element header (key 1).

    Each key-11 record takes (element_id, integration_point) from the most
    recent key-1 record in stream order.
    """
    rows = []
    ip = None  # integration point of the current header; None before the first
    for rec in stream:
        key = rec.key
        if key == KEY_ELEMENT_HEADER:
            attrs = rec.attributes
            if len(attrs) < 2:
                raise MalformedRecord(f"element header record too short: {rec}")
            eid, ip = attrs[0], attrs[1]
            if type(eid) is not int or type(ip) is not int:
                _require(int, (eid,), "element id", rec)
                _require(int, (ip,), "integration point", rec)
            if ip < 1:
                raise MalformedRecord(f"integration point {ip} < 1 in record {rec}")
        elif key == KEY_STRESS:
            if ip is None:
                raise MalformedRecord(
                    f"stress record with no preceding element header in record {rec}"
                )
            comps = tuple(rec.attributes)
            if not _FLOAT.issuperset(map(type, comps)):
                _require(float, comps, "stress component", rec)
            if len(comps) not in (4, 6):
                raise MalformedRecord(
                    f"stress record carries {len(comps)} components, expected 4 or 6 "
                    f"in record {rec}"
                )
            rows.append((eid, ip, comps))
    return StressTable(_one_width(rows, "component counts"))


def extract_raw(stream, key: int) -> list:
    """Raw attribute lists of every record with the given key, in order."""
    return [list(rec.attributes) for rec in stream if rec.key == key]


# ---------------------------------------------------------------------------
# Fixture generators: inverse of the extractors above.

def node_records(rows) -> list:
    """Build key-1901 records from (node_id, coords) rows."""
    return [
        LogicalRecord(KEY_NODES, (int(nid), *map(float, coords)))
        for nid, coords in rows
    ]


def element_records(rows) -> list:
    """Build key-1900 records from (element_id, element_type, connectivity)."""
    return [
        LogicalRecord(KEY_ELEMENTS, (int(eid), str8(etype), *map(int, conn)))
        for eid, etype, conn in rows
    ]


def nodal_field_records(key: int, rows) -> list:
    """Build key-101/104 records from (node_id, components) rows."""
    return [
        LogicalRecord(key, (int(nid), *map(float, comps)))
        for nid, comps in rows
    ]


def stress_records(rows) -> list:
    """Build paired key-1 / key-11 records from (eid, ip, components) rows."""
    records = []
    for eid, ip, comps in rows:
        records.append(LogicalRecord(KEY_ELEMENT_HEADER, (int(eid), int(ip))))
        records.append(LogicalRecord(KEY_STRESS, tuple(map(float, comps))))
    return records
