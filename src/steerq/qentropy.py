"""The Shannon switch: is_shannon routes q within Q_SHANNON_TOL of 1 to the natural-log forms
of the SCG kernel and of scg_bound, which avoids the cancellation of the q -> 1 limit."""

from __future__ import annotations

Q_SHANNON_TOL = 1e-9


def is_shannon(q: float) -> bool:
    """True when q should be treated as the q -> 1 (Shannon) limit."""
    return abs(q - 1.0) < Q_SHANNON_TOL
