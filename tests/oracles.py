"""Per-cube oracles shared by several test modules.

`rho_oracle` is the O(|Q|) block computation of rho(Q; sigma): M(sigma 1_Q)
is taken on Q's own block of leaves, and its excess over <sigma>_Q is summed
by the same pairwise tree (`grid.coarsen`) as the pyramid
`Weight.rho_levels`, so the two agree bitwise in d=1 and d=2.  It reads only
the mass pyramid, never `rho_levels`, so it checks that pyramid independently.
"""

import numpy as np

from sparsebump.grid import GridConfig, coarsen, expand, leaf_slice
from sparsebump.weights import average, mass


def chain_max(sigma, cube):
    """On the leaves of Q (a block of Q's shape), the maximum of <sigma>_{Q'}
    over the grid cubes Q' with L ⊆ Q' ⊆ Q."""
    d = sigma.grid.dimension
    running = np.full((1,) * d, average(sigma, cube))
    for k in range(cube.level + 1, sigma.grid.leaf_level + 1):
        local = sigma.mass_levels[k][leaf_slice(cube, GridConfig(d, k))] * 2.0 ** (d * k)
        running = np.maximum(expand(running, d), local)
    return running


def rho_oracle(sigma, cube):
    """rho(Q; sigma) = 1 + (sum over Q's leaves of M(sigma 1_Q) - <sigma>_Q) |leaf| / sigma(Q)."""
    m = mass(sigma, cube)
    if m <= 0:
        raise ValueError(f"degenerate weight on cube {cube.text}")
    grid = sigma.grid
    excess = coarsen(chain_max(sigma, cube) - average(sigma, cube), grid.dimension,
                     grid.leaf_level - cube.level).item()
    return 1.0 + excess * grid.leaf_volume / m
