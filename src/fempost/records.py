"""Typed extraction of specific record keys from a decoded stream.

Each extractor mirrors a per-key post-processing routine: it scans the stream
for its record key and assembles a small tabular result.  The inverse
generators build the same records back from tables; they are used to fabricate
test fixtures in place of a real solver run.

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
    "OrphanStressRecord",
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
    """A record matching the requested key has an unexpected attribute layout."""


class OrphanStressRecord(FempostError):
    """A stress record appeared before any element header record."""


def _csv_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(header, rows, out) -> str | None:
    buffer = out if out is not None else io.StringIO()
    buffer.write(",".join(header) + "\n")
    for row in rows:
        buffer.write(",".join(_csv_cell(v) for v in row) + "\n")
    if out is None:
        return buffer.getvalue()
    return None


@dataclass
class NodeTable:
    """Rows of (node_id, coords); all rows share one coordinate dimension."""

    rows: list

    def __len__(self):
        return len(self.rows)

    @property
    def dimension(self) -> int:
        return len(self.rows[0][1]) if self.rows else 0

    def to_csv(self, out=None):
        d = self.dimension
        header = ["node_id"] + [f"x{i + 1}" for i in range(d)]
        flat = [(nid, *coords) for nid, coords in self.rows]
        return _write_csv(header, flat, out)


@dataclass
class ElementTable:
    """Rows of (element_id, element_type, connectivity)."""

    rows: list

    def __len__(self):
        return len(self.rows)

    def to_csv(self, out=None):
        header = ["element_id", "element_type", "connectivity"]
        flat = [(eid, etype, " ".join(str(n) for n in conn)) for eid, etype, conn in self.rows]
        return _write_csv(header, flat, out)


@dataclass
class NodalFieldTable:
    """Rows of (node_id, components) for one nodal result key."""

    key: int
    rows: list

    def __len__(self):
        return len(self.rows)

    def to_csv(self, out=None):
        ncomp = len(self.rows[0][1]) if self.rows else 0
        header = ["node_id"] + [f"c{i + 1}" for i in range(ncomp)]
        flat = [(nid, *comps) for nid, comps in self.rows]
        return _write_csv(header, flat, out)


@dataclass
class StressTable:
    """Rows of (element_id, integration_point, components)."""

    rows: list

    def __len__(self):
        return len(self.rows)

    def to_csv(self, out=None):
        ncomp = len(self.rows[0][2]) if self.rows else 0
        names = ["S11", "S22", "S33", "S12", "S13", "S23"][:ncomp]
        header = ["element_id", "integration_point"] + names
        flat = [(eid, ip, *comps) for eid, ip, comps in self.rows]
        return _write_csv(header, flat, out)


def _require_int(value, what, record):
    if isinstance(value, int):
        return value
    raise MalformedRecord(f"{what} is not an integer in record {record}")


def _require_float(value, what, record):
    if isinstance(value, float):
        return value
    raise MalformedRecord(f"{what} is not a float in record {record}")


def extract_nodes(stream) -> NodeTable:
    """Collect node definitions (key 1901): id, then float coordinates.

    Duplicate node ids keep the last record seen (multi-step files may rewrite
    nodes); a warning is emitted.
    """
    by_id: dict[int, tuple] = {}
    order: list[int] = []
    for rec in stream:
        if rec.key != KEY_NODES:
            continue
        if not rec.attributes:
            raise MalformedRecord(f"node record has no attributes: {rec}")
        nid = _require_int(rec.attributes[0], "node id", rec)
        coords = tuple(
            _require_float(a, "nodal coordinate", rec) for a in rec.attributes[1:]
        )
        if nid in by_id:
            warnings.warn(f"duplicate node id {nid}; keeping the last record")
            order.remove(nid)
        by_id[nid] = coords
        order.append(nid)
    rows = [(nid, by_id[nid]) for nid in order]
    dims = {len(coords) for _, coords in rows}
    if len(dims) > 1:
        raise MalformedRecord(f"inconsistent coordinate dimensions {sorted(dims)}")
    return NodeTable(rows)


def extract_elements(stream) -> ElementTable:
    """Collect element definitions (key 1900): id, type label, connectivity.

    The 8-character type label is returned with trailing blanks stripped.
    """
    rows = []
    seen = set()
    for rec in stream:
        if rec.key != KEY_ELEMENTS:
            continue
        if len(rec.attributes) < 2:
            raise MalformedRecord(f"element record too short: {rec}")
        eid = _require_int(rec.attributes[0], "element id", rec)
        etype = rec.attributes[1]
        if not isinstance(etype, str):
            raise MalformedRecord(f"element type is not a string in record {rec}")
        conn = tuple(_require_int(a, "connectivity entry", rec) for a in rec.attributes[2:])
        if any(n < 1 for n in conn):
            raise MalformedRecord(f"connectivity node id < 1 in record {rec}")
        if eid in seen:
            warnings.warn(f"duplicate element id {eid}; keeping the last record")
            rows = [r for r in rows if r[0] != eid]
        seen.add(eid)
        rows.append((eid, etype.rstrip(), conn))
    return ElementTable(rows)


def extract_nodal_field(stream, key: int) -> NodalFieldTable:
    """Collect a nodal result (key 101 displacements, 104 reaction forces)."""
    if key not in (KEY_DISPLACEMENTS, KEY_REACTIONS):
        raise ValueError(f"nodal field key must be 101 or 104, got {key}")
    rows = []
    for rec in stream:
        if rec.key != key:
            continue
        if not rec.attributes:
            raise MalformedRecord(f"nodal field record has no attributes: {rec}")
        nid = _require_int(rec.attributes[0], "node id", rec)
        comps = tuple(_require_float(a, "field component", rec) for a in rec.attributes[1:])
        rows.append((nid, comps))
    counts = {len(c) for _, c in rows}
    if len(counts) > 1:
        raise MalformedRecord(f"inconsistent component counts {sorted(counts)}")
    return NodalFieldTable(key, rows)


def extract_stresses(stream) -> StressTable:
    """Join stress records (key 11) with the preceding element header (key 1).

    Each key-11 record takes (element_id, integration_point) from the most
    recent key-1 record in stream order.
    """
    rows = []
    header = None
    for rec in stream:
        if rec.key == KEY_ELEMENT_HEADER:
            if len(rec.attributes) < 2:
                raise MalformedRecord(f"element header record too short: {rec}")
            eid = _require_int(rec.attributes[0], "element id", rec)
            ip = _require_int(rec.attributes[1], "integration point", rec)
            if ip < 1:
                raise MalformedRecord(f"integration point {ip} < 1 in record {rec}")
            header = (eid, ip)
        elif rec.key == KEY_STRESS:
            if header is None:
                raise OrphanStressRecord(
                    "stress record with no preceding element header"
                )
            comps = tuple(
                _require_float(a, "stress component", rec) for a in rec.attributes
            )
            if len(comps) not in (4, 6):
                raise MalformedRecord(
                    f"stress record carries {len(comps)} components, expected 4 or 6"
                )
            rows.append((header[0], header[1], comps))
    return StressTable(rows)


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
