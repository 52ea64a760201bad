"""fempost: ASCII sequential-record FE results codec and post-processing.

Subpackages by task:

* :mod:`fempost.filcodec` -- decode/encode the 80-column record stream.
* :mod:`fempost.records`  -- typed extraction of specific record keys.
* :mod:`fempost.weibull`  -- three-parameter Weibull cleavage statistics.
* :mod:`fempost.truss`    -- closed-form 2-bar truss sizing.
* :mod:`fempost.czm`      -- surrogate-based cohesive parameter identification.
* :mod:`fempost.jobs`     -- solver job orchestration via lock files.
* :mod:`fempost.gridio`   -- legacy unstructured-grid export.
"""

from . import czm, filcodec, gridio, jobs, records, truss, weibull  # noqa: F401
from ._base import FempostError, NoConvergence  # noqa: F401

__version__ = "0.1.0"
