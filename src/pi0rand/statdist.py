"""Special functions and deterministic random streams.

Numerical plumbing shared by the rest of the package: the scipy.special
ufuncs the marginal laws call; ``nctdtrit`` continued past its search range,
which inverts the non-central t cdf and repairs the far lower tail of the
central Student-t quantile; the log of a positive-stable draw, from which
``simkit`` forms the Gumbel copula's frailties; reproducible random streams
keyed by ``(seed, stream_id)``; and the input validators the other modules
share.

Probabilities are plain floats in [0, 1]; inputs outside their stated
domains raise ``ValueError``.
"""

from __future__ import annotations

import os
import sys
import types
from dataclasses import dataclass

import numpy as np
import numpy.random  # noqa: F401  RngStream's Philox, loaded with the module rather than on first use

__all__ = ["RngStream"]


def _load_ufuncs():
    """``scipy.special._ufuncs`` without the package ``__init__``, which loads numpy.f2py and numpy.testing.

    A bare stand-in package lets ``_ufuncs`` import its compiled siblings and is removed again, so a later
    ``import scipy.special`` hands back these same ufuncs. This relies on scipy's private layout; any failure
    takes the plain import.
    """
    if "scipy.special" not in sys.modules:
        import scipy
        stub = types.ModuleType("scipy.special")
        stub.__path__ = [os.path.join(scipy.__path__[0], "special")]
        sys.modules["scipy.special"] = stub
        try:
            from scipy.special import _ufuncs
            return _ufuncs
        except Exception:
            pass  # and take the plain import below
        finally:
            del sys.modules["scipy.special"]
            if vars(scipy).get("special") is stub:  # not hasattr: scipy's __getattr__ would import the package
                del scipy.special
    from scipy.special import _ufuncs
    return _ufuncs


_special = _load_ufuncs()  # ndtr, ndtri, stdtr, stdtrit, nctdtr and nctdtrit

_UINT64_BOUND = 2**64


def _as_int(value):
    """``value`` as an int if it is a whole number (inf, nan and strings are not), else None."""
    try:
        iv = int(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return iv if iv == value else None


def _checked_uint64(value, name):
    iv = _as_int(value)
    if iv is None or not 0 <= iv < _UINT64_BOUND:
        raise ValueError(f"{name} must be an unsigned 64-bit integer, got {value!r}")
    return iv


def _positive_int(value, name):
    """``value`` as an int, or ``ValueError`` unless it is a whole number in [1, 2**53], where a double holds every
    count exactly."""
    iv = _as_int(value)
    if iv is None or iv < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if iv > 2**53:
        raise ValueError(f"{name} must be at most 2**53, got {value!r}")
    return iv


def _positive_finite(x, name):
    if not 0.0 < x < np.inf:
        raise ValueError(f"{name} must be positive and finite, got {x!r}")


def _probabilities(x, name):
    """``x`` as a float array (0-d for a scalar) with every entry in [0, 1]."""
    arr = np.asarray(x, dtype=float)
    if not np.all((arr >= 0.0) & (arr <= 1.0)):
        raise ValueError(f"{name} must lie in [0, 1]")
    return arr


def _probability(x, name):
    """``x`` as a float in [0, 1]; an array, even of one entry, is rejected."""
    arr = _probabilities(x, name)
    if arr.ndim != 0:
        raise ValueError(f"{name} must be a single number, got shape {arr.shape}")
    return float(arr)


def _pvalue_array(p):
    """``p`` as a non-empty 1-d float array with every entry in [0, 1]."""
    arr = _probabilities(p, "p-values")
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError("expected a non-empty 1-d p-value array")
    return arr


def _increasing_grid(grid, name):
    """``grid`` as a non-empty, strictly increasing 1-d float array in [0, 1]."""
    arr = _probabilities(grid, name)
    if arr.ndim != 1 or arr.size == 0:
        raise ValueError(f"{name} must be a non-empty 1-d grid")
    if np.any(np.diff(arr) <= 0.0):
        raise ValueError(f"{name} must be strictly increasing")
    return arr


@dataclass
class RngStream:
    """Single-owner random stream with a counter-based generator.

    Equal ``(seed, stream_id)`` pairs reproduce the exact same draw sequence
    on every platform and under any parallel schedule; distinct pairs key
    independent Philox streams. Parallel code must derive fresh stream ids
    rather than share one stream, since drawing advances the state.
    """

    seed: int
    stream_id: int = 0

    def __post_init__(self):
        self.seed = _checked_uint64(self.seed, "seed")
        self._generator = np.random.Generator(np.random.Philox(key=0))
        zeros, self._key = np.zeros(4, np.uint64), np.array([self.seed, 0], np.uint64)
        self._state = {"bit_generator": "Philox", "state": {"counter": zeros, "key": self._key},
                       "buffer": zeros, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        self.rekey(self.stream_id)

    @property
    def generator(self) -> np.random.Generator:
        return self._generator

    def rekey(self, stream_id) -> None:
        """Restart as the stream ``(seed, stream_id)``: a fresh ``Philox``'s state, set from the one dict (copied)."""
        self.stream_id = self._key[1] = _checked_uint64(stream_id, "stream_id")
        self._generator.bit_generator.state = self._state


def _finite_array(x, name):
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} must be finite")
    return arr


def _match_input(out, x):
    return float(out) if np.ndim(x) == 0 else out


def _t_quantile(p, df):
    """Quantile of the central Student-t law with ``df`` degrees of freedom, for an array p in [0, 1].

    p = 0 maps to -inf and p = 1 to +inf (``stdtrit`` gives +inf at both).
    ``stdtrit`` fails far in the lower tail for some df (at df = 3 it is 7x
    off at p = 1e-200 and +inf below 1e-238), so entries whose round trip
    misses p by over 1e-12 relative are redone by ``_nct_search``.
    """
    x = np.where(p > 0.0, _special.stdtrit(df, p), -np.inf)
    redo = ~(np.abs(_special.stdtr(df, x) - p) <= 1e-12 * p)
    if np.any(redo):
        x[redo] = _nct_search(df, 0.0, p[redo])
    return x


_SEARCH_EDGE = 2.0**511  # nctdtrit searches |y| <= 2**512 only


def _nct_search(df, ncp, v):
    """``nctdtrit`` on an array v in (0, 1), continued where it cannot answer.

    Below -2**511 the lower tail is the power law F(y) = F(y1) (y / y1)**-df
    to double precision, so y follows from F at y1 = -2**511. A NaN from
    the search (v subnormal, say) is read as -inf or +inf by the side of v.
    """
    y = _special.nctdtrit(df, ncp, v)
    far = y < -_SEARCH_EDGE
    if np.any(far):
        with np.errstate(over="ignore"):  # y = -inf where it leaves the doubles
            y[far] = -_SEARCH_EDGE * np.fmax(_special.nctdtr(df, ncp, -_SEARCH_EDGE) / v[far], 1.0) ** (1.0 / df)
    lost = np.isnan(y)
    y[lost] = np.where(v[lost] < 0.5, -np.inf, np.inf)
    return y


def _kanter_log_stable(alpha, u, w):
    """log S for S positive stable with Laplace transform exp(-s**alpha), 0 < alpha < 1.

    Uses the Kanter construction with U uniform on (0, 1) and W standard
    exponential (the draws ``u`` and ``w``, floats or arrays), in log space:

        log S = log sin(alpha*pi*U) + ((1-alpha)/alpha) log sin((1-alpha)*pi*U)
                - log sin(pi*U) / alpha - ((1-alpha)/alpha) log W.

    The direct form raises powers of order 1/(1-alpha), which under- and
    overflow as alpha nears 1 (NaN for a third of the draws at alpha = 1/1.001);
    and S itself leaves the doubles as alpha nears 0, where log S does not.
    """
    # Guard the measure-zero draws where the formula degenerates in floats.
    tiny = np.finfo(float).tiny
    u = np.where(u == 0.0, tiny, u)
    w = np.where(w == 0.0, tiny, w)
    pu, k = np.pi * u, (1.0 - alpha) / alpha
    return (np.log(np.sin(alpha * pu)) + k * np.log(np.sin((1.0 - alpha) * pu)) - np.log(np.sin(pu)) / alpha
            - k * np.log(w))

