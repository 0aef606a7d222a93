"""Lookups of the local A-infinity characteristic rho(Q).

rho(Q) is not computed here: `rho` reads the pyramid `Weight.rho_levels`
that each weight builds once.  The dyadic maximal function M(sigma 1_Q) it
integrates is the test oracle `tests/oracles.py::dyadic_maximal`.
"""

from __future__ import annotations

import math

from .grid import DyadicCube
from .weights import Weight


def rho(sigma: Weight, cube: DyadicCube) -> float:
    """Local A-infinity characteristic: (1/sigma(Q)) * integral over Q of
    M(sigma 1_Q), read from `sigma.rho_levels`.  Always >= 1; equals 1 iff
    sigma is constant on Q.  Raises on sigma(Q) = 0, where it is undefined."""
    r = float(sigma.rho_levels[cube.level][cube.index])
    if math.isnan(r):
        raise ValueError(f"degenerate weight on cube {cube.text}")
    return r
