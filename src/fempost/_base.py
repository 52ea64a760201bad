"""Plumbing shared by every fempost module: the error base, the numeric
input check and the CSV reader."""

from __future__ import annotations

import math
import numbers
import warnings

import numpy as np


class FempostError(Exception):
    """Base class of every library failure that is not bad input; bad input
    raises plain ValueError."""


class NoConvergence(FempostError, RuntimeError):
    """An iterative solver or optimizer exhausted its budget."""


def check_number(name, value, *, zero=False, inf=False, integer=False):
    """Raise ValueError unless *value* is a real number (an integer with
    *integer*), not a bool, that is positive (non-negative with *zero*) and
    finite (+inf too with *inf*).  Every comparison is written so that NaN
    fails it."""
    kind = numbers.Integral if integer else numbers.Real
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"{name} must be {'an integer' if integer else 'a number'}, got {value!r}")
    if not (value >= 0 if zero else value > 0):
        raise ValueError(f"{name} must be {'non-negative' if zero else 'positive'}, got {value}")
    if value == math.inf and not inf:
        raise ValueError(f"{name} must be finite")


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
