"""Randomized p-values for composite nulls and pi0 estimation tooling.

Each public name is declared once, in the ``__all__`` of its module; the
package re-exports them all.
"""

from . import pi0, pvalues, simkit, statdist, tuning
from .pi0 import *  # noqa: F401,F403
from .pvalues import *  # noqa: F401,F403
from .simkit import *  # noqa: F401,F403
from .statdist import *  # noqa: F401,F403
from .tuning import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*statdist.__all__, *pvalues.__all__, *pi0.__all__, *tuning.__all__, *simkit.__all__]
