"""Query-adapted conformal prediction intervals for tabular regression.

For one unlabeled query the pipeline emits three intervals with the
same miscoverage level: one calibrated on all rows, one on the rows
most similar to the query, and one on synthetic controls cloned from
those rows. Three conformal constructions (split, full, jackknife) and
three regression engines (OLS, LASSO, Nadaraya-Watson kernel) can be
combined freely; a grid runner runs every combination over built-in
simulation suites and writes deterministic CSV tables.
"""

from . import conformal, core, dgp, evaluate, individualize, regress, runner
from .core import *
from .regress import *
from .conformal import *
from .individualize import *
from .dgp import *
from .evaluate import *
from .runner import *

__version__ = ARTIFACT_VERSION

# the library modules' own export lists, which name no name twice
__all__ = [
    name
    for module in (core, regress, conformal, individualize, dgp, evaluate, runner)
    for name in module.__all__
] + ["__version__"]
