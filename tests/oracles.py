"""Per-cube oracles and fixtures shared by several test modules.

`dyadic_maximal` is M(sigma 1_Q) on the leaves, built from Q's own chain of
averages (`chain_max`).

`rho_oracle` is the O(|Q|) block computation of rho(Q; sigma): M(sigma 1_Q)
is taken on Q's own block of leaves, and its excess over <sigma>_Q is summed
by the same pairwise tree (`grid.coarsen`) as the pyramid
`Weight.rho_levels`, so the two agree bitwise in d=1 and d=2.  It reads only
the mass pyramid, never `rho_levels`, so it checks that pyramid independently.

`carleson_oracle` is the one-cube Carleson ratio at Q0, the scalar form
that `sparse.carleson_check` computes at every member at once: its sum runs
over the members that `contains` finds inside Q0, and its rho is
`rho_oracle`'s.

`llogl_oracle` is the L log L integral as one whole-array sum over the leaf
densities, the form that `weights.llogl_integral` runs block by block.

`cascade_oracle` is the multiplicative cascade drawn one level at a time,
with a d=1 and a d=2 body; `weights._cascade_leaf_mass` draws every level
at once, in any d, and must give the same leaf masses bit for bit.

`bucket_of` is the scalar bucket of a stratum key, floor(log2 key) from the
binary exponent of one `math.frexp` call.

`dense_norm_l2_oracle` is the L2 operator norm as the top singular value of
the dense leaf kernel, independent of the member applies of `exact_norm_l2`;
`l2_instance` builds the p = q = 2 instance that `exact_norm_l2` takes.

`sup_oracle` is a bump constant with its argmax from the exact per-cube
values of every grid cube, one whole level at a time: the scan that
`bumps.PairScan` replaces by log-domain scores and an exact recheck of the
near-maximal cubes.  Its value is the maximal entry of the whole level's
vector of values, in the arithmetic of `PairScan._exact`, so the two agree
bit for bit.  `bump_reports_oracle` assembles both reports of a pair from
it.

`trace_oracle` runs one proof chain at one R alone, on the arrays of the
whole family: the strata are restricted to the members inside R (found by
`contains`), and a down-sweep of the restricted bucket masks finds
their maximal members; stages (i) and (iii) at R are row R of their
per-member arrays over the whole family.  The package finds the members
inside R by a down-sweep of R's indicator instead, and checks stage (ii) at
every member inside R in one pass; its report at R must equal the oracle's,
bit for bit.

`subtree_sum_oracle` is the up-sweep member by member: each member adds
the subtree sums of its children left to right in member order, the order
of the one bincount per generation of `SparseFamily.up_sweep`, so it and
`SparseFamily.descendant_sum` agree bit for bit.

`ancestor_sum_oracle` and `descendant_sum_oracle` are the two sweeps on the
other schedule, one step per occupied grid level, coarsest level first
down and deepest first up.  The down-sweep adds each member's finished
parent sum once, in any parent-first order, so `ancestor_sum_oracle` and
`SparseFamily.ancestor_sum` agree bit for bit; the level up-sweep adds a
parent's children level by level and may differ from the generation
up-sweep in the last bits.  `member_apply_oracle` is the member apply
T(mu v) on these two level sweeps: the form that
`operators._member_operator` runs in generation order.

`norm_lower_bound_full_budget` is the dual ascent of
`operators.norm_lower_bound` run for its whole budget, with no stop at a
fixed point, in generation order as the package runs it; the two must
agree bit for bit.

`reference_kernel` is the dense member kernel in member order, built from
two member-order sweeps of |S| x |S| arrays; `Instance.kernel`, the member
apply's sweeps applied to the identity in generation order, must equal it
permuted into that order, bit for bit.

`verify_sparse` checks lambda-sparseness cube by cube, by walking each
member's chain of parents to its nearest member ancestor, independently of
the array tree that `SparseFamily` builds.

The grid walks (`enumerate_cubes`, `children`, `leaf_count`, `n_cubes`,
`ancestor`, `parent`), the per-cube `volume` and `contains` (the package
reads `SparseFamily.parent`, `np.ldexp(1.0, -d * level)` and a down-sweep
of R's indicator instead), the fixtures (`fix_const`, `fix_half`,
`fix_chain_cubes`), the closed-form mass `ce_sigma_mass`, the per-cell
leaf masses `ce_sigma_leaf_mass_oracle`, `scaled` and `constant_function`
serve the tests only; the package itself works on per-level arrays.
"""

import itertools
import math

import numpy as np

from sparsebump.bumps import BumpReport, ExponentConfig, direct_bumps, entropy_bumps, eps_eval
from sparsebump.grid import DyadicCube, GridConfig, coarsen, expand, leaf_slice
from sparsebump import operators
from sparsebump.operators import Instance
from sparsebump.prooftrace import SLACK, StratumRecord, TraceReport
from sparsebump.weights import Weight, average, generate_weight, mass, rho


# --- grid walks -----------------------------------------------------------

def enumerate_cubes(grid):
    """Every cube of levels 0..N exactly once, in (level, index) order."""
    for k in range(grid.leaf_level + 1):
        for combo in itertools.product(range(2**k), repeat=grid.dimension):
            yield DyadicCube(k, combo)


def children(cube, grid):
    """The 2^d dyadic children partitioning the cube; raises for a leaf cube
    (level = N), which has no children on the grid."""
    if cube.level >= grid.leaf_level:
        raise ValueError(f"no children: {cube.text} is a leaf cube")
    halves = [(2 * j, 2 * j + 1) for j in cube.index]
    return [DyadicCube(cube.level + 1, combo) for combo in itertools.product(*halves)]


def leaf_count(cube, grid):
    return 2 ** (grid.dimension * (grid.leaf_level - cube.level))


def n_cubes(grid):
    """The number of grid cubes on levels 0..N."""
    return sum(2 ** (grid.dimension * k) for k in range(grid.leaf_level + 1))


def ancestor(cube, level):
    """The ancestor of `cube` at the given coarser level."""
    if not 0 <= level <= cube.level:
        raise ValueError(f"ancestor level {level} not in [0, {cube.level}]")
    shift = cube.level - level
    return DyadicCube(level, tuple(j >> shift for j in cube.index))


def parent(cube):
    if cube.level == 0:
        raise ValueError("root cube has no parent")
    return DyadicCube(cube.level - 1, tuple(j >> 1 for j in cube.index))


def volume(cube):
    """|Q| = 2^{-dk}, exact in binary floating point."""
    return 2.0 ** (-cube.dimension * cube.level)


def contains(outer, inner):
    """True iff inner is a subset of outer (reflexive)."""
    if inner.dimension != outer.dimension:
        raise ValueError("cubes of different dimension")
    shift = inner.level - outer.level
    if shift < 0:
        return False
    return all(ji >> shift == jo for ji, jo in zip(inner.index, outer.index))


# --- cascade ----------------------------------------------------------------

def cascade_oracle(grid, seed, volatility):
    """The leaf masses of the multiplicative cascade in d=1 or d=2, one
    `rng.random` call and one normalising `sum` per level."""
    rng = np.random.default_rng(seed)
    d = grid.dimension
    masses = np.ones((1,) * d)
    for k in range(grid.leaf_level):
        n = 2**k
        if d == 1:
            raw = 1.0 + volatility * (2.0 * rng.random((n, 2)) - 1.0)
            shares = raw / raw.sum(axis=1, keepdims=True)
            masses = (masses[:, None] * shares).reshape(2 * n)
        else:
            raw = 1.0 + volatility * (2.0 * rng.random((n, n, 2, 2)) - 1.0)
            shares = raw / raw.sum(axis=(2, 3), keepdims=True)
            expanded = masses[:, :, None, None] * shares
            masses = expanded.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
    return masses


# --- fixtures -------------------------------------------------------------

FIX_CONST_GRID = GridConfig(1, 4)


def fix_const():
    """(d=1, N=4, sigma = w = constant 1)."""
    s = generate_weight(FIX_CONST_GRID, "constant", value=1.0)
    return s, s


def fix_half():
    """(d=1, N=2, densities (2,2,0,0))."""
    return Weight(GridConfig(1, 2), np.array([2.0, 2.0, 0.0, 0.0]))


def fix_chain_cubes(grid, depth=4):
    """The chain family {[0, 2^-k) : k = 0..depth} (d=1)."""
    if grid.dimension != 1:
        raise ValueError("chain fixture is one-dimensional")
    return [DyadicCube(k, (0,)) for k in range(min(depth, grid.leaf_level) + 1)]


def ce_sigma_leaf_mass_oracle(grid):
    """The counterexample sigma's leaf masses in the per-cell form, two
    logs per cell: ln(b/a) / ((1 - ln a)(1 - ln b)) on the cells [a, b)
    past the first, over the whole grid at once; `weights` takes one log
    per cell edge, block by block, and must give the same bits."""
    h = grid.leaf_volume
    i = np.arange(1, grid.n_leaves, dtype=float)
    rest = np.log1p(1.0 / i) / ((1.0 - np.log(i * h)) * (1.0 - np.log((i + 1.0) * h)))
    return np.append(1.0 / (1.0 - np.log(h)), rest)


def ce_sigma_mass(a, b):
    """Closed-form mass of the counterexample density over (a, b] in (0, 1]."""
    if not 0 <= a < b <= 1:
        raise ValueError("need 0 <= a < b <= 1")
    fb = 1.0 / (1.0 - np.log(b))
    fa = 0.0 if a == 0 else 1.0 / (1.0 - np.log(a))
    return float(fb - fa)


def scaled(weight, c):
    """The weight c * weight, for c > 0."""
    if c <= 0:
        raise ValueError("scale factor must be positive")
    return Weight(weight.grid, weight.leaf_density * c, weight.kind,
                  dict(weight.parameters, scale=c))


def constant_function(grid, value=1.0):
    """The test function equal to `value` on every leaf."""
    return np.full(grid.leaf_shape(), float(value))


def verify_sparse(cubes, lam):
    """Check lambda-sparseness: per member, the volume of its maximal proper
    sub-members (the members whose nearest member ancestor it is) over its
    own volume, against lam.

    Returns {ok, worst_ratio, witness}; witness is the first member in
    (level, index) order attaining the worst ratio (None when no member has
    a proper sub-member).
    """
    members = sorted(set(cubes), key=lambda c: (c.level, c.index))
    if not members:
        raise ValueError("empty cube collection")
    kid_volume = dict.fromkeys(members, 0.0)
    for q in members:
        c = q
        while c.level > 0:
            c = parent(c)
            if c in kid_volume:
                kid_volume[c] += volume(q)
                break
    ratios = [kid_volume[q] / volume(q) for q in members]
    worst = max(ratios)
    return {"ok": worst <= lam, "worst_ratio": worst,
            "witness": members[ratios.index(worst)] if worst > 0 else None}


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
    return out


def rho_oracle(sigma, cube):
    """rho(Q; sigma) = 1 + (sum over Q's leaves of M(sigma 1_Q) - <sigma>_Q) |leaf| / sigma(Q)."""
    m = mass(sigma, cube)
    if m <= 0:
        raise ValueError(f"degenerate weight on cube {cube.text}")
    grid = sigma.grid
    excess = coarsen(chain_max(sigma, cube) - average(sigma, cube), grid.dimension,
                     grid.leaf_level - cube.level).item()
    return 1.0 + excess * grid.leaf_volume / m


def carleson_oracle(family, sigma, q0):
    """The Carleson ratio lhs/rhs at Q0 alone: lhs sums sigma(Q) over the
    members Q ⊆ Q0, found by `contains`; rhs = rho_oracle(Q0) sigma(Q0) /
    (1 - lambda), which raises on sigma(Q0) = 0."""
    rhs = rho_oracle(sigma, q0) * mass(sigma, q0) / (1.0 - family.lam)
    return _subtree_mass(family.members, sigma, q0) / rhs


def _subtree_mass(members, sigma, q):
    """sigma(Q) plus the sum of the subtree masses of Q's children in
    `members` (its maximal proper sub-members), taken left to right in
    member order: the order of `SparseFamily.descendant_sum`, so the two
    agree bitwise.  The adds are explicit, since `sum` of floats is
    compensated on Python 3.12 and later."""
    inside = [c for c in members if c != q and contains(q, c)]
    part = 0.0
    for c in inside:
        if not any(o != c and contains(o, c) for o in inside):
            part += _subtree_mass(inside, sigma, c)
    return mass(sigma, q) + part


def llogl_oracle(sigma):
    """Sum over the leaves of density * log(e + density), times |leaf|."""
    dens = sigma.leaf_density
    return float(np.sum(dens * np.log(np.e + dens)) * sigma.grid.leaf_volume)


def bucket_of(value):
    """floor(log2(value)) computed exactly via the binary exponent."""
    if value <= 0 or not math.isfinite(value):
        raise ValueError(f"bucket key must be positive and finite, got {value}")
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2^exponent, mantissa in [0.5, 1)
    return exponent - 1


def l2_instance(family, sigma, w, alpha):
    """The (family, sigma, w) instance at p = q = 2 and the given alpha."""
    return Instance(family, sigma, w, ExponentConfig(2.0, 2.0, alpha))


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
            * 2.0 ** (k * (sigma.grid.dimension - cfg.alpha)) for k in range(sigma.grid.leaf_level + 1)]


def _rho_of(weight, cube):
    return rho(weight, cube) if mass(weight, cube) > 0 else None


def sup_oracle(sigma, w, cfg, weight=None, eps=None, exponents=(1.0,)):
    """Per exponent e, the constant sup_Q joint(Q) * bump_e(Q) and its argmax.

    Without a weight the bump is 1 (the joint constant A).  Otherwise the key
    is rho(Q; weight) with bump key^e * eps(key)^e for an entropy eps, and
    <weight>_Q with bump eps(key)^e for a direct eps; a cube where the key is
    undefined (zero mass) contributes 0.  The argmax is the first maximum in
    (level, flat index) order, and the value is its entry in the whole
    level's vector of values.
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
        value, k, m = best
        found.append((value, DyadicCube(k, tuple(int(x) for x in np.unravel_index(m, joint[k].shape)))))
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


def _restricted_strata(family, sigma, key, inside, masses):
    """The keys; the buckets of the members inside R; and two (|S|, B) masks
    for those buckets: the members inside R and the maximal ones among them."""
    zero = inside & (masses <= 0)
    if zero.any():
        raise ValueError(f"zero-mass cube in family: {family.members[np.argmax(zero)].text}")
    keys = (family.gather(sigma.rho_levels) if key == "rho"
            else np.ldexp(masses, sigma.grid.dimension * family.level))
    bucket = np.frexp(keys)[1].astype(np.int64) - 1
    a = np.array(sorted(set(bucket[inside].tolist())), dtype=np.int64)
    in_bucket = inside[:, None] & (bucket[:, None] == a)
    return keys, a, in_bucket, in_bucket & (family.ancestor_sum(in_bucket) == 1.0)


def trace_oracle(kind, inst, eps, r_cube, c_bump=None):
    """The chain of `kind` at R alone, on arrays restricted to the members
    inside R; c_bump is computed when None."""
    family, sigma, w, cfg = inst.family, inst.sigma, inst.w, inst.cfg
    lam = family.lam
    r = family.position(r_cube)
    sigma_q = inst.sigma_mass
    inside = np.array([contains(r_cube, q) for q in family.members])
    keys, a, in_bucket, top = _restricted_strata(family, sigma, "rho" if kind == "entropy" else "average",
                                                 inside, sigma_q)
    if c_bump is None:
        bumps = entropy_bumps if kind == "entropy" else direct_bumps
        c_bump = bumps(sigma, w, cfg, eps).constants["E" if kind == "entropy" else "D"]
    term = inst.mass_terms
    support = sigma_q if kind == "entropy" else np.ldexp(1.0, -family.grid.dimension * family.level)
    sums = family.descendant_sum(
        np.column_stack([term, support, np.where(in_bucket, term[:, None], 0.0)]))
    lhs_total = float(sums[r, 0])

    col, star = np.nonzero(top.T)
    floor_val = eps_eval(eps, np.ldexp(1.0, np.where(a >= 0, a, a + 1)))[col]
    inner_lhs, sigma_star = sums[star, 2 + col], sigma_q[star]
    with np.errstate(over="ignore"):
        scale = (c_bump * sigma_star ** (1 / cfg.p)) ** cfg.q
        inner_bound = scale * (2.0 / (1.0 - lam)) / floor_val
        realized = np.divide(inner_lhs * floor_val, scale, out=np.where(inner_lhs == 0, 0.0, np.inf),
                             where=scale > 0)
        if kind == "entropy":
            support_ratio = sums[star, 1] / (keys[star] * sigma_star / (1.0 - lam))
        else:
            support_ratio = sums[star, 1] * (1.0 - lam) / support[star]
        ok = (inner_lhs <= inner_bound * (1.0 + SLACK)) & (support_ratio <= 1.0 + SLACK)
    records = list(map(StratumRecord, a[col].tolist(), [family.members[i] for i in star],
                       inner_lhs.tolist(), inner_bound.tolist(), realized.tolist(),
                       support_ratio.tolist(), ok.tolist()))

    # stages (i) and (iii) at R: row r of their arrays over the family
    lhs, regrouped = sums[:, 0], sums[:, 2:].sum(axis=1)
    identity_error = float(np.divide(np.abs(lhs - regrouped), lhs, out=regrouped, where=lhs > 0)[r])
    factor = 2.0 * eps.tail_sum / (1.0 - lam)
    with np.errstate(over="ignore"):
        final_bound = float((factor * (c_bump * sigma_q ** (1 / cfg.p)) ** cfg.q)[r])
    testing_value = float(inst.testing_values[r])
    certified_constant = factor ** (1.0 / cfg.q)
    return TraceReport(
        kind=kind, R=r_cube, lhs_total=lhs_total, records=lambda: records,
        identity_ok=identity_error <= SLACK, identity_error=identity_error,
        inner_ok=bool(ok.all()), final_bound=final_bound,
        final_ok=lhs_total <= final_bound * (1.0 + SLACK),
        certified_constant=certified_constant, bump_constant=c_bump,
        testing_value=testing_value,
        certified_ok=testing_value <= certified_constant * c_bump * (1.0 + SLACK),
        exponents=cfg, eps=eps, lam=lam,
    )


def subtree_sum_oracle(family, values):
    """Per member Q, the sum of `values` over the members inside Q: Q's own
    value plus the subtree sums of its children, taken left to right in
    member order.  A child comes after its parent in member order, so the
    members are visited last to first."""
    values = np.array(values, dtype=float)
    children = [[] for _ in range(len(family))]
    for i, p in enumerate(family.parent.tolist()):
        if p >= 0:
            children[p].append(i)
    out = np.empty_like(values)
    for q in reversed(range(len(family))):
        part = np.zeros(values.shape[1:])
        for c in children[q]:
            part = part + out[c]
        out[q] = values[q] + part
    return out


def _occupied_levels(family):
    """members[lo:hi] per occupied grid level below the root's, coarsest first."""
    bounds = np.searchsorted(family.level, np.arange(family.grid.leaf_level + 2))
    return [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if 0 < lo < hi]


def ancestor_sum_oracle(family, values):
    """Per member Q, the sum of `values` over the members containing Q: the
    down-sweep coarsest level first, each level adding its parents' rows."""
    out = np.array(values, dtype=float)
    for lo, hi in _occupied_levels(family):
        out[lo:hi] += out[family.parent[lo:hi]]
    return out


def descendant_sum_oracle(family, values):
    """Per member Q, the sum of `values` over the members inside Q: the
    up-sweep deepest level first, one bincount per level over the flat
    (parent, column) positions of that level."""
    out = np.array(values, dtype=float)
    cols = out.reshape(len(out), -1)
    m = cols.shape[1]
    for lo, hi in reversed(_occupied_levels(family)):
        at = (family.parent[lo:hi, None] * m + np.arange(m)).ravel()
        cols[:lo] += np.bincount(at, weights=cols[lo:hi].ravel(), minlength=lo * m).reshape(lo, m)
    return out


def member_apply_oracle(family, coef, mass_exc, v):
    """T(mu v) on each E_Q for the columns of v, mass_exc = mu(E_Q): the
    up-sweep of v mu(E_Q), scaled by coef, and its down-sweep, both one
    step per occupied grid level."""
    return ancestor_sum_oracle(family, coef[:, None] * descendant_sum_oracle(family, v * mass_exc[:, None]))


def norm_lower_bound_full_budget(inst, budget, seed=0):
    """`operators.norm_lower_bound` with every one of its `budget` ascent
    steps taken, on the package's member applies, in generation order."""
    family, sigma, cfg = inst.family, inst.sigma, inst.cfg
    best = float(max(inst.indicator_ratios.max(), inst.dual.indicator_ratios.max()))
    if budget == 0:
        return best
    rng = np.random.default_rng(seed)
    blocks, shape = np.empty((len(family), operators.N_STARTS)), family.grid.leaf_shape()
    for j in range(operators.N_STARTS):
        blocks[:, j] = family.block_sums(sigma.mass_levels[-1] * (rng.random(shape) + 0.5))
    # in generation order, as the package's ascent runs
    order = family.generations.order
    sigma_exc, w_exc = inst.sigma_exc[order], inst.w_exc[order]
    u = family.down_sweep(inst.coef[order, None] * blocks[order])
    t_sigma, t_w = operators._member_operator(inst, sigma_exc), operators._member_operator(inst, w_exc)
    for _ in range(budget):
        y = t_w(u ** (cfg.q - 1.0))
        live = np.any(y > 0, axis=0)
        if not live.all():
            if not live.any():
                break
            y = y[:, live]
        f = (y / y.max(axis=0)) ** (1.0 / (cfg.p - 1.0))
        u = t_sigma(f)
        ratios = operators._norms(u, cfg.q, w_exc) / operators._norms(f, cfg.p, sigma_exc)
        best = max(best, float(np.max(ratios)))
    return best


def reference_kernel(inst):
    """The dense member kernel in member order, built as two member-order
    down-sweeps: the transposed ancestor-or-self incidence marks in row Q
    the members inside Q, and `ancestor_sum` of those rows scaled by coef
    adds coef over common ancestors.  Permuted into generation order it is
    `Instance.kernel`, bit for bit."""
    family = inst.family
    inside = family.ancestor_sum(np.eye(len(family))).T
    return family.ancestor_sum(inst.coef[:, None] * inside).T
