"""Levi-Civita connections for real calculi: decision, construction, checks.

Submodules:

* :mod:`realcalc.matlin`   -- dense complex linear-algebra kernel
* :mod:`realcalc.liealg`   -- matrix Lie-algebra analysis
* :mod:`realcalc.cncalc`   -- metric calculi over the simple row module
* :mod:`realcalc.projcalc` -- projective-module criterion
* :mod:`realcalc.cli`      -- command-line front end
"""

from .matlin import DEFAULT_TOL, Tolerance
from .liealg import LeviSplit, LieBasis, StructureConstants
from .cncalc import (
    AnchorMap,
    Connection,
    ExistenceReport,
    MetricPreCalculus,
    decide_existence,
)
from .projcalc import ProjectiveCalculusData

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_TOL",
    "Tolerance",
    "LieBasis",
    "StructureConstants",
    "LeviSplit",
    "AnchorMap",
    "Connection",
    "ExistenceReport",
    "MetricPreCalculus",
    "decide_existence",
    "ProjectiveCalculusData",
    "__version__",
]
