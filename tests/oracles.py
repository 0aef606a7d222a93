"""Per-cube oracles shared by several test modules.

`dyadic_maximal` is M(sigma 1_Q) on the leaves, built from Q's own chain of
averages (`chain_max`).

`rho_oracle` is the O(|Q|) block computation of rho(Q; sigma): M(sigma 1_Q)
is taken on Q's own block of leaves, and its excess over <sigma>_Q is summed
by the same pairwise tree (`grid.coarsen`) as the pyramid
`Weight.rho_levels`, so the two agree bitwise in d=1 and d=2.  It reads only
the mass pyramid, never `rho_levels`, so it checks that pyramid independently.
"""

import numpy as np

from sparsebump.grid import GridConfig, coarsen, expand, leaf_slice
from sparsebump.weights import LeafFunction, average, mass


def chain_max(sigma, cube):
    """On the leaves of Q (a block of Q's shape), the maximum of <sigma>_{Q'}
    over the grid cubes Q' with L ⊆ Q' ⊆ Q."""
    d = sigma.grid.dimension
    running = np.full((1,) * d, average(sigma, cube))
    for k in range(cube.level + 1, sigma.grid.leaf_level + 1):
        local = sigma.mass_levels[k][leaf_slice(cube, GridConfig(d, k))] * 2.0 ** (d * k)
        running = np.maximum(expand(running, d), local)
    return running


def dyadic_maximal(sigma, cube):
    """M(sigma 1_Q) on the leaves: for each leaf L inside Q, the maximum of
    <sigma>_{Q'} over grid cubes Q' with L ⊆ Q' ⊆ Q.  Leaves outside Q get 0.

    Cubes above Q or disjoint from Q never beat the chain inside Q, since
    the truncated averages <sigma 1_Q>_{Q'} are dominated by <sigma>_Q.
    """
    out = np.zeros(sigma.grid.leaf_shape())
    out[leaf_slice(cube, sigma.grid)] = chain_max(sigma, cube)
    return LeafFunction(sigma.grid, out)


def rho_oracle(sigma, cube):
    """rho(Q; sigma) = 1 + (sum over Q's leaves of M(sigma 1_Q) - <sigma>_Q) |leaf| / sigma(Q)."""
    m = mass(sigma, cube)
    if m <= 0:
        raise ValueError(f"degenerate weight on cube {cube.text}")
    grid = sigma.grid
    excess = coarsen(chain_max(sigma, cube) - average(sigma, cube), grid.dimension,
                     grid.leaf_level - cube.level).item()
    return 1.0 + excess * grid.leaf_volume / m
