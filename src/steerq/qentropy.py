"""The q-logarithm and its Shannon limit.

ln_q(x) = (x^(1-q) - 1) / (1 - q) is written once, in _ln_q; within Q_SHANNON_TOL
of q = 1 it is ln x, which avoids the cancellation of the q -> 1 limit.
"""

from __future__ import annotations

import numpy as np

Q_SHANNON_TOL = 1e-9


def is_shannon(q: float) -> bool:
    """True when q should be treated as the q -> 1 (Shannon) limit."""
    return abs(q - 1.0) < Q_SHANNON_TOL


def _ln_q(x, q: float):
    """ln_q(x) of a positive float or array: ln x in the Shannon limit."""
    return np.log(x) if is_shannon(q) else (x ** (1.0 - q) - 1.0) / (1.0 - q)
