"""Plumbing shared by every fempost module: the error base and the CSV reader."""

from __future__ import annotations

import warnings

import numpy as np


class FempostError(Exception):
    """Base class of every failure the library raises on its own account."""


class NoConvergence(FempostError, RuntimeError):
    """An iterative solver or optimizer exhausted its budget."""


def read_csv(path, usecols=None) -> np.ndarray:
    """Read a numeric comma-separated file with a one-line header.

    Returns a 2-d float array, one row per data line.  Numbers must be plain
    ASCII; raises ValueError for unparsable fields, ragged rows, or a file
    without data rows.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings("ignore", message="loadtxt: input contained no data")
        table = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2, usecols=usecols)
    if table.shape[0] == 0:
        raise ValueError(f"no data rows in {path}")
    return table
