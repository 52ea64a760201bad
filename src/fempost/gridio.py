"""Legacy ASCII unstructured-grid export (VTK DataFile version 3.0 dialect).

Builds points, cells and one cell scalar as text, so hazard maps can be
opened in any standard mesh viewer; the writer opens its file only once the
text is complete.  The cell type follows from the node count and whether
the label names a ``C3D`` solid; only the types the extractors produce map.
"""

from __future__ import annotations

import numpy as np

__all__ = ["unstructured_grid_text", "write_unstructured_grid"]

# (solid label, node count) -> VTK cell type id
_CELL_TYPES = {
    (False, 2): 3,    # line
    (False, 3): 5,    # triangle
    (False, 4): 9,    # quad
    (False, 6): 22,   # quadratic triangle
    (False, 8): 23,   # quadratic quad
    (True, 4): 10,    # tetrahedron
    (True, 8): 12,    # hexahedron
}

# POINTS line of a node with 0, 1, 2 or 3 coordinates: missing ones are zero
_POINT_FORMATS = ("0 0 0", "%.10g 0 0", "%.10g %.10g 0", "%.10g %.10g %.10g")


def unstructured_grid_text(nodes, elements, scalar_name, values) -> str:
    """Return a legacy unstructured-grid file with one cell scalar as text.

    *nodes* is a NodeTable, *elements* an ElementTable; *values* holds one
    scalar per element, in element-table order.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (len(elements.rows),):
        raise ValueError(
            f"need one scalar per element: {values.shape} vs {len(elements.rows)} cells"
        )
    # each node's point index as text, formatted once however many cells use it
    index = {nid: str(i) for i, (nid, _) in enumerate(nodes.rows)}
    lines = [
        "# vtk DataFile Version 3.0",
        "hazard map",
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {len(nodes.rows)} double",
    ]
    try:
        for _, coords in nodes.rows:
            lines.append(_POINT_FORMATS[len(coords)] % tuple(coords))
    except (TypeError, IndexError):
        raise ValueError("a grid point takes one to three numeric coordinates") from None

    total = sum(len(conn) + 1 for _, _, conn in elements.rows)
    lines.append(f"CELLS {len(elements.rows)} {total}")
    try:
        for _, _, conn in elements.rows:
            lines.append(" ".join((str(len(conn)), *map(index.__getitem__, conn))))
    except KeyError as exc:
        raise ValueError(f"element references unknown node {exc}") from None

    lines.append(f"CELL_TYPES {len(elements.rows)}")
    cell_types = {}  # (label, node count) -> cell type id as text
    for _, etype, conn in elements.rows:
        shape = etype, len(conn)
        cell = cell_types.get(shape)
        if cell is None:
            cell = _CELL_TYPES.get((etype.startswith("C3D"), len(conn)))
            if cell is None:
                raise ValueError(f"no cell type mapping for {len(conn)}-node {etype} elements")
            cell = cell_types[shape] = str(cell)
        lines.append(cell)

    lines.append(f"CELL_DATA {len(elements.rows)}")
    lines.append(f"SCALARS {scalar_name} double 1")
    lines.append("LOOKUP_TABLE default")
    lines += ["%.10g" % v for v in values.tolist()]

    return "\n".join(lines) + "\n"


def write_unstructured_grid(path, nodes, elements, scalar_name, values):
    """Write :func:`unstructured_grid_text` to *path*; nothing is opened
    before the text is complete."""
    text = unstructured_grid_text(nodes, elements, scalar_name, values)
    with open(path, "w") as fh:
        fh.write(text)
