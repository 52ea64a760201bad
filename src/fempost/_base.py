"""Plumbing shared by every fempost module: the error base, the numeric
input check, the CSV reader and the collector pause of the record layer."""

from __future__ import annotations

import functools
import gc
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


def gc_paused(func):
    """Decorate *func* to run with the cyclic garbage collector disabled.

    For functions that build many cycle-free objects (tuples, lists and dicts
    of numbers and strings): a collection during them frees nothing, yet walks
    every tracked object in the process.  The collector is enabled again when
    the call returns or raises; if it was already disabled, the call leaves it
    alone.  ``gc.disable`` is process-wide, so a pause also holds off
    collection in other threads, and a ``gc.disable()`` that another thread
    makes during the pause is undone when the pause ends.  Never decorate a
    generator function: the pause would end before the generator runs.
    """

    @functools.wraps(func)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return func(*args, **kwargs)
        gc.disable()
        try:
            return func(*args, **kwargs)
        finally:
            gc.enable()

    return paused
