"""Dyadic maximal function and the local A-infinity characteristic rho.

All suprema run over the grid cubes of levels 0..N only: densities are
leaf-constant, so finer scales cannot change any average.  rho(Q) is
computed so that rho >= 1 holds exactly in floating point: the running
maximum is seeded with the average over Q, and the excess over that average
(a sum of exact nonnegative terms) is added to 1.
"""

from __future__ import annotations

import numpy as np

from .grid import DyadicCube, GridConfig, coarsen, expand, leaf_slice
from .weights import LeafFunction, Weight, average, mass


def _chain_max(sigma: Weight, cube: DyadicCube) -> np.ndarray:
    """On the leaves of Q (a block of Q's shape), the maximum of <sigma>_{Q'}
    over the grid cubes Q' with L ⊆ Q' ⊆ Q."""
    d = sigma.grid.dimension
    running = np.full((1,) * d, average(sigma, cube))
    for k in range(cube.level + 1, sigma.grid.leaf_level + 1):
        # the level-k averages inside Q; |Q'| = 2^{-dk} exactly
        local = sigma.mass_levels[k][leaf_slice(cube, GridConfig(d, k))] * 2.0 ** (d * k)
        running = np.maximum(expand(running, d), local)
    return running


def dyadic_maximal(sigma: Weight, cube: DyadicCube) -> LeafFunction:
    """M(sigma 1_Q) on the leaves: for each leaf L inside Q, the maximum of
    <sigma>_{Q'} over grid cubes Q' with L ⊆ Q' ⊆ Q.  Leaves outside Q get 0.

    Cubes above Q or disjoint from Q never beat the chain inside Q, since
    the truncated averages <sigma 1_Q>_{Q'} are dominated by <sigma>_Q.
    """
    out = np.zeros(sigma.grid.leaf_shape())
    out[leaf_slice(cube, sigma.grid)] = _chain_max(sigma, cube)
    return LeafFunction(sigma.grid, out)


def rho(sigma: Weight, cube: DyadicCube) -> float:
    """Local A-infinity characteristic: (1/sigma(Q)) * integral over Q of
    M(sigma 1_Q).  Always >= 1; equals 1 iff sigma is constant on Q.  Costs
    O(|Q|) in leaves: M(sigma 1_Q) is taken on Q's block only."""
    m = mass(sigma, cube)
    if m <= 0:
        raise ValueError(f"degenerate weight on cube {cube.text}")
    grid = sigma.grid
    avg = average(sigma, cube)
    # excess >= 0 exactly: the running max was seeded with avg; the block is
    # summed by the same pairwise tree as in rho_all
    excess = coarsen(_chain_max(sigma, cube) - avg, grid.dimension,
                     grid.leaf_level - cube.level).item()
    excess *= grid.leaf_volume
    return 1.0 + excess / m


def rho_all(sigma: Weight) -> list[np.ndarray]:
    """rho(Q; sigma) for every grid cube, as one array per level.

    One top-down sweep maintains, per leaf, the maximum average over the
    chain from the leaf up to its level-k ancestor; block sums of the excess
    over the ancestor's own average then give rho for all level-k cubes at
    once.  Entries for cubes with sigma(Q) = 0 are NaN.
    """
    grid = sigma.grid
    n = grid.leaf_level
    chain_max = sigma.level_averages(n).copy()
    excess_sums: list[np.ndarray] = [None] * (n + 1)
    excess_sums[n] = np.zeros(grid.level_shape(n))
    for k in range(n - 1, -1, -1):
        avg_k = expand(sigma.level_averages(k), grid.dimension, n - k)
        np.maximum(chain_max, avg_k, out=chain_max)
        excess_sums[k] = coarsen(np.subtract(chain_max, avg_k, out=avg_k), grid.dimension, n - k)
    out = []
    with np.errstate(invalid="ignore", divide="ignore"):
        for k in range(n + 1):
            m = sigma.mass_levels[k]
            r = 1.0 + excess_sums[k] * grid.leaf_volume / m
            r[m <= 0] = np.nan
            out.append(r)
    return out

