"""Randomized p-values for composite nulls and pi0 estimation tooling.

Each public name is declared once, in the ``__all__`` of its module; the
package re-exports them all.
"""

import os as _os

# numpy's and scipy's bundled OpenBLAS each start a thread pool as they load, and no module here calls BLAS. Unless
# the caller set a thread count that OpenBLAS reads, cap it at one thread while they load, then restore os.environ.
_cap_blas = not {"OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS"} & _os.environ.keys()
if _cap_blas:
    _os.environ["OPENBLAS_NUM_THREADS"] = "1"
try:
    from . import pi0, pvalues, simkit, statdist, tuning
finally:
    if _cap_blas:
        del _os.environ["OPENBLAS_NUM_THREADS"]
from .pi0 import *  # noqa: F401,F403
from .pvalues import *  # noqa: F401,F403
from .simkit import *  # noqa: F401,F403
from .statdist import *  # noqa: F401,F403
from .tuning import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [*statdist.__all__, *pvalues.__all__, *pi0.__all__, *tuning.__all__, *simkit.__all__]
