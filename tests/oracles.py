"""Per-cube oracles shared by several test modules.

`dyadic_maximal` is M(sigma 1_Q) on the leaves, built from Q's own chain of
averages (`chain_max`).

`rho_oracle` is the O(|Q|) block computation of rho(Q; sigma): M(sigma 1_Q)
is taken on Q's own block of leaves, and its excess over <sigma>_Q is summed
by the same pairwise tree (`grid.coarsen`) as the pyramid
`Weight.rho_levels`, so the two agree bitwise in d=1 and d=2.  It reads only
the mass pyramid, never `rho_levels`, so it checks that pyramid independently.

`bucket_of` is the scalar bucket of a stratum key, floor(log2 key) from the
binary exponent of one `math.frexp` call.

`dense_norm_l2_oracle` is the L2 operator norm as the top singular value of
the dense leaf kernel, independent of the member applies of `exact_norm_l2`;
`l2_instance` builds the p = q = 2 instance that `exact_norm_l2` takes.

`sup_oracle` is a bump constant with its argmax from the exact per-cube
values of every grid cube, one whole level at a time: the scan that
`bumps.PairScan` replaces by log-domain scores and an exact recheck of the
near-maximal cubes.  `bump_reports_oracle` assembles both reports of a pair
from it.
"""

import math

import numpy as np

from sparsebump.bumps import BumpReport, ExponentConfig, eps_eval, joint_factor
from sparsebump.grid import DyadicCube, GridConfig, coarsen, expand, leaf_slice
from sparsebump.operators import Instance
from sparsebump.weights import LeafFunction, average, mass, rho


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


def bucket_of(value):
    """floor(log2(value)) computed exactly via the binary exponent."""
    if value <= 0 or not math.isfinite(value):
        raise ValueError(f"bucket key must be positive and finite, got {value}")
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2^exponent, mantissa in [0.5, 1)
    return exponent - 1


def l2_instance(family, sigma, w, alpha):
    """The (family, sigma, w) instance at p = q = 2 and the given alpha."""
    return Instance(family, sigma, w, ExponentConfig(2.0, 2.0, alpha, family.grid.dimension, "extended"))


def dense_norm_l2_oracle(family, sigma, w, alpha):
    """Independent dense oracle: assemble the symmetric kernel matrix
    K[L, L'] = v * sum over family cubes containing both leaves of
    |Q|^{alpha/d - 1}, and return the top singular value of
    diag(w)^{1/2} K diag(sigma)^{1/2}.  Intended for small grids."""
    grid = family.grid
    n = grid.n_leaves
    d = grid.dimension
    kernel = np.zeros((n, n))
    flat_index = np.arange(n).reshape(grid.leaf_shape())
    for q in family.members:
        ids = flat_index[leaf_slice(q, grid)].ravel()
        kernel[np.ix_(ids, ids)] += 2.0 ** (q.level * (d - alpha)) * grid.leaf_volume
    # the leaf-volume factors of the two inner products cancel, so the
    # diagonal conjugation uses plain densities
    ds = np.sqrt(sigma.leaf_density.ravel())
    dw = np.sqrt(w.leaf_density.ravel())
    b = dw[:, None] * kernel * ds[None, :]
    return float(np.linalg.svd(b, compute_uv=False)[0])


def joint_levels(sigma, w, cfg):
    """Per level, the joint factor w(Q)^{1/q} sigma(Q)^{1/p'} |Q|^{alpha/d - 1}."""
    return [w.mass_levels[k] ** (1.0 / cfg.q) * sigma.mass_levels[k] ** (1.0 / cfg.p_dual)
            * 2.0 ** (k * (cfg.d - cfg.alpha)) for k in range(sigma.grid.leaf_level + 1)]


def _rho_of(weight, cube):
    return rho(weight, cube) if mass(weight, cube) > 0 else None


def sup_oracle(sigma, w, cfg, weight=None, eps=None, exponents=(1.0,)):
    """Per exponent e, the constant sup_Q joint(Q) * bump_e(Q) and its argmax.

    Without a weight the bump is 1 (the joint constant A).  Otherwise the key
    is rho(Q; weight) with bump key^e * eps(key)^e for an entropy eps, and
    <weight>_Q with bump eps(key)^e for a direct eps; a cube where the key is
    undefined (zero mass) contributes 0.  The argmax is the first maximum in
    (level, flat index) order; the value is re-evaluated there in scalar
    arithmetic, multiplied in the same order.
    """
    entropy = eps is not None and eps.kind == "entropy"
    d = sigma.grid.dimension
    joint = joint_levels(sigma, w, cfg)
    found = []
    for e in exponents:
        best = (-np.inf, 0, 0)
        for k, j in enumerate(joint):
            j = j.reshape(-1)
            if weight is None:
                vals = j
            else:
                key = (weight.rho_levels[k] if entropy else weight.mass_levels[k] * 2.0 ** (d * k)).reshape(-1)
                defined = key > 0  # False on NaN (rho of a zero-mass cube) and on 0
                t = np.where(defined, key, 1.0)
                vals = eps_eval(eps, t) ** e
                vals *= j * t**e if entropy else j
                vals[~defined] = 0.0
            m = int(np.argmax(vals))
            if vals[m] > best[0]:
                best = (float(vals[m]), k, m)
        _, k, m = best
        cube = DyadicCube(k, tuple(int(x) for x in np.unravel_index(m, joint[k].shape)))
        value = joint_factor(sigma, w, cfg, cube)
        if weight is not None:
            t = _rho_of(weight, cube) if entropy else average(weight, cube)
            value = ((value * t**e if entropy else value) * eps_eval(eps, t) ** e) if t else 0.0
        found.append((value, cube))
    return found


def bump_reports_oracle(sigma, w, cfg, eps_e, eps_d):
    """The entropy and direct BumpReports of a pair, every constant from
    `sup_oracle`; rho(Q; w) is reported at the argmax of E_star_symmetric,
    rho(Q; sigma) at every other."""
    [a] = sup_oracle(sigma, w, cfg)
    e, e_printed = sup_oracle(sigma, w, cfg, sigma, eps_e, (1.0 / cfg.q, 1.0 / cfg.p_dual))
    [e_symmetric] = sup_oracle(sigma, w, cfg, w, eps_e, (1.0 / cfg.p_dual,))
    [d] = sup_oracle(sigma, w, cfg, sigma, eps_d, (1.0 / cfg.q,))
    [d_star] = sup_oracle(sigma, w, cfg, w, eps_d, (1.0 / cfg.p_dual,))

    def report(found, eps):
        return BumpReport({name: v for name, (v, _, _) in found.items()},
                          {name: cube for name, (_, cube, _) in found.items()},
                          {name: _rho_of(wt, cube) for name, (_, cube, wt) in found.items()}, eps)

    return (report({"A": (*a, sigma), "E": (*e, sigma), "E_star_printed": (*e_printed, sigma),
                    "E_star_symmetric": (*e_symmetric, w)}, eps_e),
            report({"A": (*a, sigma), "D": (*d, sigma), "D_star": (*d_star, sigma)}, eps_d))
