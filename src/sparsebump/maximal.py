"""Dyadic maximal function and lookups of the local A-infinity characteristic.

All suprema run over the grid cubes of levels 0..N only: densities are
leaf-constant, so finer scales cannot change any average.  rho(Q) is not
computed here: `rho` reads the pyramid `Weight.rho_levels` that each weight
builds once.
"""

from __future__ import annotations

import math

import numpy as np

from .grid import DyadicCube, GridConfig, expand, leaf_slice
from .weights import LeafFunction, Weight, average


def dyadic_maximal(sigma: Weight, cube: DyadicCube) -> LeafFunction:
    """M(sigma 1_Q) on the leaves: for each leaf L inside Q, the maximum of
    <sigma>_{Q'} over grid cubes Q' with L ⊆ Q' ⊆ Q.  Leaves outside Q get 0.

    Cubes above Q or disjoint from Q never beat the chain inside Q, since
    the truncated averages <sigma 1_Q>_{Q'} are dominated by <sigma>_Q.
    """
    d = sigma.grid.dimension
    running = np.full((1,) * d, average(sigma, cube))
    for k in range(cube.level + 1, sigma.grid.leaf_level + 1):
        # the level-k averages inside Q; |Q'| = 2^{-dk} exactly
        local = sigma.mass_levels[k][leaf_slice(cube, GridConfig(d, k))] * 2.0 ** (d * k)
        running = np.maximum(expand(running, d), local)
    out = np.zeros(sigma.grid.leaf_shape())
    out[leaf_slice(cube, sigma.grid)] = running
    return LeafFunction(sigma.grid, out)


def rho(sigma: Weight, cube: DyadicCube) -> float:
    """Local A-infinity characteristic: (1/sigma(Q)) * integral over Q of
    M(sigma 1_Q), read from `sigma.rho_levels`.  Always >= 1; equals 1 iff
    sigma is constant on Q.  Raises on sigma(Q) = 0, where it is undefined."""
    r = float(sigma.rho_levels[cube.level][cube.index])
    if math.isnan(r):
        raise ValueError(f"degenerate weight on cube {cube.text}")
    return r
