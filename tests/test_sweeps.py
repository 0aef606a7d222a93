"""Differential tests: the array-tree sweeps against per-cube loops.

The oracles below walk the family cube by cube with `contains` and
`leaf_slice`, the way the package computed these quantities before the
family became an array tree.  Each sweep must agree with its oracle to
1e-13 relative, on random and stopping families in d=1, 2 and 3.  Further
oracles keep the earlier family builders (every grid cube as an object),
which must return the same cube sets, and the leaf-level operator (one
apply per candidate on leaf arrays), which the member-form operator must
match to 1e-13 relative; the batched dual ascent must match it, and the
L2 power iteration the dense SVD oracle, on both sides of the dense-kernel
size switch.  The up-sweep must match the member-by-member sum of
`oracles.subtree_sum_oracle`, the down-sweep the level-order sweep of
`oracles.ancestor_sum_oracle`, and the ascent that stops at a fixed point
the full-budget copy `oracles.norm_lower_bound_full_budget`, bit for bit.
Each sweep takes one step per tree generation, an ascent step permutes
no array, and the member apply on the two generation sweeps must match the
level sweeps of `oracles.member_apply_oracle` to 1e-13 relative.
"""

import sys
import warnings
from collections import Counter
from types import SimpleNamespace

import numpy as np
import pytest

from sparsebump import operators
from sparsebump.bumps import EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps, eps_eval
from sparsebump.grid import DyadicCube, GridConfig, contains, leaf_slice, root_cube
from sparsebump.lab import ExperimentConfig, build_instance, run_verify_bounds
from sparsebump.operators import (
    Instance,
    _coef,
    _member_operator,
    apply_sparse,
    exact_norm_l2,
    norm_lower_bound,
    primal_indicator_ratios,
    testing_constants,
)
from sparsebump.prooftrace import SLACK, _strata, direct_trace, dual_direct_trace, dual_entropy_trace, entropy_trace
from sparsebump.sparse import SparseFamily, carleson_check, random_sparse, stopping_family
from sparsebump.weights import Weight, average, generate_weight, mass

from oracles import (ancestor_sum_oracle, bucket_of, carleson_oracle, children, dense_norm_l2_oracle,
                     enumerate_cubes, fix_chain_cubes, l2_instance, member_apply_oracle,
                     norm_lower_bound_full_budget, reference_kernel, rho_oracle, subtree_sum_oracle,
                     verify_sparse)

REL = 1e-13


# --- per-cube oracles -------------------------------------------------------

def oracle_apply(family, leaf_values, alpha):
    """sum over Q of |Q|^{alpha/d} <values>_Q 1_Q, one leaf slice per cube."""
    grid = family.grid
    d = grid.dimension
    out = np.zeros(grid.leaf_shape())
    leaf_int = leaf_values * grid.leaf_volume
    for q in family.members:
        sel = leaf_slice(q, grid)
        out[sel] += float(leaf_int[sel].sum()) * 2.0 ** (q.level * (d - alpha))
    return out


def oracle_owner(family):
    """Per leaf, the position of the minimal member containing it."""
    owner = np.full(family.grid.leaf_shape(), -1)
    for pos, q in sorted(enumerate(family.members), key=lambda t: -t[1].level):
        block = owner[leaf_slice(q, family.grid)]
        owner[leaf_slice(q, family.grid)] = np.where(block == -1, pos, block)
    return owner


def oracle_parent(family):
    """Per member, the position of its deepest proper ancestor in the family."""
    out = []
    for q in family.members:
        ancestors = [i for i, a in enumerate(family.members) if a != q and contains(a, q)]
        out.append(max(ancestors, key=lambda i: family.members[i].level) if ancestors else -1)
    return np.array(out)


def oracle_exceptional_mass(family, weight):
    leaf_mass = weight.mass_levels[family.grid.leaf_level]
    owner = oracle_owner(family)
    return np.array([leaf_mass[owner == i].sum() for i in range(len(family))])


def oracle_per_r(family, sigma, w, p, q, alpha):
    """sigma(R)^{-1/p} [sum_{Q ⊆ R} (|Q|^{alpha/d} <sigma>_Q)^q w(E_Q)]^{1/q}."""
    d = family.grid.dimension
    w_exc = oracle_exceptional_mass(family, w)
    term = [(qc.volume ** (alpha / d) * average(sigma, qc)) ** q * w_exc[i]
            for i, qc in enumerate(family.members)]
    out = {}
    for r in family.members:
        if mass(sigma, r) > 0:
            total = sum(t for qc, t in zip(family.members, term) if contains(r, qc))
            out[r] = mass(sigma, r) ** (-1.0 / p) * total ** (1.0 / q)
    return out


def oracle_carleson_lhs(family, sigma, q0):
    return sum(mass(sigma, q) for q in family.members if contains(q0, q))


def oracle_strata(members, key_values):
    """Buckets (sorted member lists) and the maximal cubes of each bucket."""
    buckets = {}
    for q in members:
        buckets.setdefault(bucket_of(key_values[q]), []).append(q)
    maximal = {a: [q for q in qs if not any(o != q and contains(o, q) for o in qs)]
               for a, qs in buckets.items()}
    return buckets, maximal


def stratify(family, sigma, key):
    """The strata of the whole family by `key` (rho or average), with the
    bucket masks of `_strata`, and the members of each that no other
    member of its bucket contains, turned into cube lists."""
    kind = "entropy" if key == "rho" else "direct"
    keys, a, in_bucket = _strata(family, sigma, kind, family.gather(sigma.mass_levels),
                                 np.ones(len(family), dtype=bool))
    count = family.ancestor_sum(in_bucket)  # per member, the bucket members containing it
    members = family.members
    return SimpleNamespace(
        buckets={b: [members[i] for i in np.flatnonzero(col)] for b, col in zip(a.tolist(), in_bucket.T)},
        maximal_cubes={b: [members[i] for i in np.flatnonzero(col)] for b, col in zip(a.tolist(), (in_bucket & (count == 1)).T)},
        key_values=dict(zip(members, keys.tolist())),
    )


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.all(np.abs(got - want) <= REL * scale), np.max(np.abs(got - want) / scale)


# --- instances --------------------------------------------------------------

CASES = [(d, kind, seed) for d in (1, 2, 3) for kind in ("random", "stopping") for seed in range(3)]
# 128, 256 and 512 leaves: the leaf oracles stay dense
LEVELS = {1: 7, 2: 4, 3: 3}


def instance(d, kind, seed):
    grid = GridConfig(d, LEVELS[d])
    sigma = generate_weight(grid, "random_cascade", seed=seed, volatility=0.8)
    w = generate_weight(grid, "random_cascade", seed=seed + 300, volatility=0.8)
    if kind == "random":
        family = random_sparse(grid, 0.5, seed=seed, target_size=20)
    else:
        family = stopping_family(sigma, 2.0, root_cube(grid))
    return family, sigma, w


@pytest.mark.parametrize("d,kind,seed", CASES)
class TestSweepsMatchPerCubeLoops:
    def test_tree_arrays(self, d, kind, seed):
        family, _, _ = instance(d, kind, seed)
        np.testing.assert_array_equal(family.parent, oracle_parent(family))
        np.testing.assert_array_equal(family.owner, oracle_owner(family))
        values = np.random.default_rng(seed).random(len(family))
        np.testing.assert_array_equal(family.at_leaves(values), values[oracle_owner(family)])

    def test_apply(self, d, kind, seed):
        family, sigma, _ = instance(d, kind, seed)
        f = np.random.default_rng(seed).random(family.grid.leaf_shape())
        for alpha in (0.0, 0.5):
            got = apply_sparse(family, sigma, f, alpha)
            assert_close(got, oracle_apply(family, sigma.leaf_density * f, alpha))

    def test_exceptional_masses(self, d, kind, seed):
        family, sigma, w = instance(d, kind, seed)
        for weight in (sigma, w):
            assert_close(family.exceptional_mass(weight), oracle_exceptional_mass(family, weight))

    def test_per_r_and_per_r_star(self, d, kind, seed):
        family, sigma, w = instance(d, kind, seed)
        cfg = ExponentConfig(2.0, 3.0, 0.25)
        rep = testing_constants(Instance(family, sigma, w, cfg))
        want = oracle_per_r(family, sigma, w, cfg.p, cfg.q, cfg.alpha)
        want_star = oracle_per_r(family, w, sigma, cfg.q_dual, cfg.p_dual, cfg.alpha)
        assert_close(rep.per_R, [want.get(q, 0.0) for q in family.members])
        assert_close(rep.per_R_star, [want_star.get(q, 0.0) for q in family.members])

    def test_carleson_lhs(self, d, kind, seed):
        family, sigma, _ = instance(d, kind, seed)
        ratios = carleson_check(family, sigma)
        # bit for bit the one-cube oracle at every member, and times rhs the
        # plain sum over the members inside Q0
        assert ratios.tolist() == [carleson_oracle(family, sigma, q0) for q0 in family.members]
        rhs = [rho_oracle(sigma, q0) * mass(sigma, q0) / (1 - family.lam) for q0 in family.members]
        assert_close(ratios * rhs, [oracle_carleson_lhs(family, sigma, q0) for q0 in family.members])
        assert (ratios <= 1.0).all()

    def test_strata(self, d, kind, seed):
        family, sigma, _ = instance(d, kind, seed)
        for key in ("rho", "average"):
            strata = stratify(family, sigma, key)
            values = {q: rho_oracle(sigma, q) if key == "rho" else average(sigma, q)
                      for q in family.members}
            assert strata.key_values == values
            buckets, maximal = oracle_strata(family.members, values)
            assert strata.buckets == buckets
            assert strata.maximal_cubes == maximal

    def test_trace_inner_sums(self, d, kind, seed):
        family, sigma, w = instance(d, kind, seed)
        cfg = ExponentConfig(2.0, 3.0, 0.25)
        inst = Instance(family, sigma, w, cfg)
        carleson = carleson_check(family, sigma)
        # R = the root and one deeper member, so the strata are restricted to R
        for r_cube in {family.root, family.members[len(family) // 2]}:
            sub = [q for q in family.members if contains(r_cube, q)]
            term = {q: (q.volume ** (cfg.alpha / d) * average(sigma, q)) ** cfg.q * mass(w, q)
                    for q in sub}
            for trace, key in ((entropy_trace, "rho"), (direct_trace, "average")):
                eps = EntropyFunction("entropy" if key == "rho" else "direct", 1.0)
                rep = trace(inst, eps, r_cube)
                values = {q: rho_oracle(sigma, q) if key == "rho" else average(sigma, q) for q in sub}
                buckets, maximal = oracle_strata(sub, values)
                stars = [(a, q) for a in sorted(buckets) for q in maximal[a]]
                assert [(s.a, s.q_star) for s in rep.strata] == stars
                inner = [sum(term[q] for q in buckets[a] if contains(q_star, q))
                         for a, q_star in stars]
                assert_close([s.inner_lhs for s in rep.strata], inner)
                assert_close(rep.lhs_total, sum(term.values()))
                if key == "rho":
                    # the trace's Carleson ratios are the public check's at Q*, bit
                    # for bit, and the oracle's lhs / (rho sigma(Q*) / (1 - lambda))
                    ratios = [s.support_ratio for s in rep.strata]
                    assert ratios == [carleson[family.position(q)] for _, q in stars]
                    support = [oracle_carleson_lhs(family, sigma, q) * (1 - family.lam)
                               / (values[q] * mass(sigma, q)) for _, q in stars]
                if key == "average":
                    volumes = [sum(q.volume for q in sub if contains(q_star, q))
                               for _, q_star in stars]
                    support = [v * (1 - family.lam) / q.volume for v, (_, q) in zip(volumes, stars)]
                assert_close([s.support_ratio for s in rep.strata], support)
                # stage (ii) in scalar arithmetic, with eps_floor per bucket
                c_q, qp = rep.bump_constant ** cfg.q, cfg.q / cfg.p
                floor = {a: eps_eval(eps, 2.0 ** (a if a >= 0 else a + 1)) for a in buckets}
                bound = [c_q * 2 / (1 - family.lam) * mass(sigma, q) ** qp / floor[a] for a, q in stars]
                assert_close([s.inner_bound for s in rep.strata], bound)
                assert_close([s.realized_constant for s in rep.strata],
                             [lhs * floor[a] / (c_q * mass(sigma, q) ** qp)
                              for lhs, (a, q) in zip(inner, stars)])
                assert [s.ok for s in rep.strata] == [lhs <= b * (1 + SLACK) and r <= 1 + SLACK
                                                      for lhs, b, r in zip(inner, bound, support)]


def test_verify_sparse_matches_child_volume_loop():
    cubes = [DyadicCube(0, (0,)), DyadicCube(1, (0,)), DyadicCube(3, (5,)), DyadicCube(2, (0,))]
    res = verify_sparse(cubes, 0.5)
    # children of the root: 1:0 and 3:5 (2:0 sits under 1:0)
    assert res["worst_ratio"] == 0.5 + 0.125 and res["witness"] == DyadicCube(0, (0,))
    assert not res["ok"]


@pytest.mark.parametrize("d,kind,seed", CASES[::3])
def test_sweeps_batch_columns(d, kind, seed):
    # a 2-D sweep is the 1-D sweep of each column, bit for bit
    family, _, _ = instance(d, kind, seed)
    v = np.random.default_rng(seed).random((len(family), 3))
    for sweep in (family.ancestor_sum, family.descendant_sum):
        np.testing.assert_array_equal(sweep(v), np.column_stack([sweep(c) for c in v.T]))


@pytest.mark.parametrize("d,kind,seed", CASES[::3])
def test_one_trace_takes_two_sweeps(d, kind, seed, monkeypatch):
    # one up-sweep for every sum of a trace, all on the instance's family;
    # below the root one down-sweep, of R's indicator, marks the members
    # inside R; and one more for the maximal members of all buckets at once,
    # taken when the records are first read
    family, sigma, w = instance(d, kind, seed)
    cfg = ExponentConfig(2.0, 3.0, 0.25)
    inst = Instance(family, sigma, w, cfg)
    inst.testing_values  # the suite has computed it for the testing constants
    calls = []
    for name in ("ancestor_sum", "descendant_sum"):
        def counted(self, values, name=name, original=getattr(SparseFamily, name)):
            calls.append((self, name))
            return original(self, values)
        monkeypatch.setattr(SparseFamily, name, counted)

    n_buckets = set()
    for trace, bumps, eps in ((entropy_trace, entropy_bumps, EntropyFunction("entropy", 1.0)),
                              (direct_trace, direct_bumps, EntropyFunction("direct", 1.0))):
        bump = bumps(sigma, w, cfg, eps)
        for r_cube, sweeps in ((family.root, ["descendant_sum"]),
                               (family.members[len(family) // 2], ["ancestor_sum", "descendant_sum"])):
            calls.clear()
            rep = trace(inst, eps, r_cube, bump=bump)
            # the one up-sweep is the chain's: the testing values are read, not recomputed
            assert all(f is family for f, _ in calls) and sorted(name for _, name in calls) == sweeps
            n_buckets.add(len({s.a for s in rep.strata}))
            rep.strata  # a second read makes nothing
            assert all(f is family for f, _ in calls)
            assert sorted(name for _, name in calls) == sorted(sweeps + ["ancestor_sum"])
    assert len(n_buckets) > 1


@pytest.mark.parametrize("d,kind,seed", CASES[::3])
def test_a_trace_below_the_root_builds_no_family_and_no_instance(d, kind, seed, monkeypatch):
    # every chain at R runs on the instance's own family and arrays: no
    # subfamily and no second Instance, with or without a bump report
    family, sigma, w = instance(d, kind, seed)
    cfg = ExponentConfig(2.0, 3.0, 0.25)
    inst = Instance(family, sigma, w, cfg)
    inst.dual  # the dual chains run on it
    ebump, dbump = entropy_bumps(sigma, w, cfg, EntropyFunction("entropy", 1.0)), direct_bumps(
        sigma, w, cfg, EntropyFunction("direct", 1.0))
    made = []
    # both family constructors run `_build`
    for cls, name in ((SparseFamily, "_build"), (Instance, "__post_init__")):
        def counted(self, *args, original=getattr(cls, name)):
            made.append(type(self))
            original(self, *args)
        monkeypatch.setattr(cls, name, counted)
    for r_cube in (family.members[len(family) // 2], family.members[-1]):
        for trace, bump in ((entropy_trace, ebump), (direct_trace, dbump),
                            (dual_entropy_trace, ebump), (dual_direct_trace, dbump)):
            for given in (bump, None):
                assert trace(inst, bump.eps, r_cube, bump=given).R == r_cube
    assert made == []


def test_non_grid_root_family():
    # a family whose root is below level 0: the sweeps start at the root
    g = GridConfig(1, 5)
    cubes = frozenset([DyadicCube(2, (1,)), DyadicCube(3, (2,)), DyadicCube(5, (9,))])
    family = SparseFamily(g, cubes, 0.5)
    np.testing.assert_array_equal(family.parent, [-1, 0, 1])
    np.testing.assert_array_equal(family.ancestor_sum([1.0, 2.0, 4.0]), [1.0, 3.0, 7.0])
    np.testing.assert_array_equal(family.descendant_sum([1.0, 2.0, 4.0]), [7.0, 6.0, 4.0])
    np.testing.assert_array_equal(family.owner, oracle_owner(family))
    # leaves 8..15 lie in the root, 8..11 in 3:(2,) and leaf 9 is 5:(9,)
    want = np.zeros(32)
    want[8:16], want[8:12], want[9] = 1.0, 2.0, 4.0
    np.testing.assert_array_equal(family.at_leaves([1.0, 2.0, 4.0]), want)


@pytest.mark.parametrize("d", (1, 2, 3))
def test_carleson_on_a_non_grid_root(d):
    # the stopping family below a level-1 cube: the array is the one-cube
    # oracle at every member, bit for bit
    grid = GridConfig(d, LEVELS[d])
    for seed in range(3):
        sigma = generate_weight(grid, "random_cascade", seed=seed, volatility=0.8)
        family = stopping_family(sigma, 2.0, DyadicCube(1, (1,) * d))
        assert len(family) > 1
        ratios = carleson_check(family, sigma)
        assert ratios.tolist() == [carleson_oracle(family, sigma, q0) for q0 in family.members]
        assert (ratios <= 1.0).all()


# --- family construction: the per-cube-object builders as oracles ----------

def oracle_random_sparse(grid, lam, seed, target_size):
    """The pool-based greedy construction: every non-root cube as an object,
    visited in the seeded permutation of the pool."""
    root = root_cube(grid)
    accepted = {root}
    kids, kid_volume = {root: set()}, {root: 0.0}
    if target_size > 1:
        pool = [q for q in enumerate_cubes(grid) if q.level > 0]
        for idx in np.random.default_rng(seed).permutation(len(pool)):
            cand = pool[idx]
            anc = cand.parent()
            while anc not in accepted:
                anc = anc.parent()
            absorbed = {q for q in kids[anc] if contains(cand, q)}
            absorbed_volume = sum(q.volume for q in absorbed)
            new_anc_volume = kid_volume[anc] - absorbed_volume + cand.volume
            if new_anc_volume > lam * anc.volume or absorbed_volume > lam * cand.volume:
                continue
            accepted.add(cand)
            kids[anc] = (kids[anc] - absorbed) | {cand}
            kid_volume[anc] = new_anc_volume
            kids[cand], kid_volume[cand] = absorbed, absorbed_volume
            if len(accepted) >= target_size:
                break
    return frozenset(accepted)


def oracle_stopping_family(sigma, big_lambda, root):
    """The stack-based corona construction, one cube object at a time."""
    grid = sigma.grid
    selected, stack = [root], [root]
    while stack:
        q = stack.pop()
        threshold = big_lambda * average(sigma, q)
        walk = list(children(q, grid)) if q.level < grid.leaf_level else []
        while walk:
            c = walk.pop()
            if average(sigma, c) > threshold:
                selected.append(c)
                stack.append(c)
            elif c.level < grid.leaf_level:
                walk.extend(children(c, grid))
    return frozenset(selected)


BUILD_GRIDS = (GridConfig(1, 7), GridConfig(2, 4), GridConfig(3, 3))


@pytest.mark.parametrize("grid", BUILD_GRIDS, ids=("d1", "d2", "d3"))
@pytest.mark.parametrize("lam", (0.75, 0.5, 0.25))
def test_random_sparse_matches_pool_oracle(grid, lam):
    # 10_000 exceeds every family's capacity here, so the pool is exhausted;
    # at 0.75 many candidates absorb accepted cubes
    for seed in range(4):
        for target in (2, 12, 10_000):
            got = set(random_sparse(grid, lam, seed=seed, target_size=target).members)
            assert got == oracle_random_sparse(grid, lam, seed, target)


@pytest.mark.parametrize("grid", (GridConfig(1, 12), GridConfig(2, 6)), ids=("d1", "d2"))
def test_random_sparse_makes_one_cube_per_member(monkeypatch, grid):
    # the greedy runs on (level, index) keys and the family on their arrays:
    # the only cube objects are the family's members, made when read
    made, post_init = [], DyadicCube.__post_init__

    def counted(self):
        made.append(self)
        post_init(self)

    monkeypatch.setattr(DyadicCube, "__post_init__", counted)
    family = random_sparse(grid, 0.5, seed=3, target_size=30)
    assert len(family) == 30 and made == []
    assert len(family.members) == 30 and len(made) == 30


@pytest.mark.parametrize("grid", BUILD_GRIDS, ids=("d1", "d2", "d3"))
@pytest.mark.parametrize("lam", (0.5, 0.25))
def test_stopping_family_matches_stack_oracle(grid, lam):
    for seed in range(4):
        sigma = generate_weight(grid, "random_cascade", seed=seed, volatility=0.8)
        for root in (root_cube(grid), DyadicCube(2, (1,) * grid.dimension)):
            got = set(stopping_family(sigma, 1.0 / lam, root).members)
            assert got == oracle_stopping_family(sigma, 1.0 / lam, root)


# --- the member-form operator against the leaf-level one --------------------

def leaf_norm(values, r, weight):
    leaf_mass = weight.mass_levels[weight.grid.leaf_level]
    return float(np.sum(np.abs(values) ** r * leaf_mass) ** (1.0 / r))


def leaf_indicator(family, q):
    out = np.zeros(family.grid.leaf_shape())
    out[leaf_slice(q, family.grid)] = 1.0
    return out


def oracle_indicator_ratios(family, mu, nu, alpha, r, s):
    """Per R with mu(R) > 0, ||T(mu 1_R)||_{L^r(nu)} / mu(R)^{1/s}, one
    leaf-level apply per R."""
    return {q: leaf_norm(oracle_apply(family, mu.leaf_density * leaf_indicator(family, q), alpha),
                         r, nu) / mass(mu, q) ** (1.0 / s)
            for q in family.members if mass(mu, q) > 0}


def oracle_norm_lower_bound(family, sigma, w, cfg, budget, seed=0, n_starts=3):
    """The leaf-level norm bound: the constant and indicator candidates and
    the dual ascent, every apply on leaf arrays."""
    grid = family.grid
    support = sigma.leaf_density > 0

    def ratio(f):
        denom = leaf_norm(f, cfg.p, sigma)
        u = oracle_apply(family, sigma.leaf_density * np.abs(f), cfg.alpha)
        return leaf_norm(u, cfg.q, w) / denom if denom > 0 else 0.0

    best = ratio(np.ones(grid.leaf_shape()))
    best = max([best] + list(oracle_indicator_ratios(family, sigma, w, cfg.alpha,
                                                     cfg.q, cfg.p).values())
               + list(oracle_indicator_ratios(family, w, sigma, cfg.alpha,
                                              cfg.p_dual, cfg.q_dual).values()))
    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        f = np.where(support, rng.random(grid.leaf_shape()) + 0.5, 0.0)
        f /= leaf_norm(f, cfg.p, sigma)
        for _ in range(budget):
            u = oracle_apply(family, sigma.leaf_density * f, cfg.alpha)
            y = oracle_apply(family, w.leaf_density * u ** (cfg.q - 1.0), cfg.alpha)
            y = np.where(support, y, 0.0)
            if not np.any(y > 0):
                break
            f = y ** (1.0 / (cfg.p - 1.0))
            f /= leaf_norm(f, cfg.p, sigma)
            best = max(best, ratio(f))
    return best


def oracle_exact_norm_l2(family, sigma, w, alpha, tol):
    """Leaf-level power iteration on T_w T_sigma over the sigma-positive leaves."""
    support = sigma.leaf_density > 0
    f = np.where(support, 1.0, 0.0)
    f /= leaf_norm(f, 2.0, sigma)
    lam_prev = lam = np.inf
    while not abs(lam - lam_prev) <= tol * lam:
        u = oracle_apply(family, sigma.leaf_density * f, alpha)
        u = np.where(support, oracle_apply(family, w.leaf_density * u, alpha), 0.0)
        lam_prev, lam = lam, float(np.sum(u * f * sigma.mass_levels[-1]))
        f = u / leaf_norm(u, 2.0, sigma)
    return float(np.sqrt(lam))


def operator_instance(case):
    """(family, sigma, w, cfg): the sweep cases at alpha > 0, a family whose
    root is below the grid root, and a sigma with zero-density leaves."""
    if case == "non_grid_root":
        grid = GridConfig(1, 7)
        sigma = generate_weight(grid, "random_cascade", seed=5, volatility=0.8)
        w = generate_weight(grid, "random_cascade", seed=305, volatility=0.8)
        family = stopping_family(sigma, 2.0, DyadicCube(1, (1,)))
    elif case == "sigma_null":
        grid = GridConfig(1, 7)
        density = generate_weight(grid, "random_cascade", seed=6, volatility=0.8).leaf_density
        # no sigma on [1/4, 1/2) and on every fifth leaf
        density = np.where((np.arange(128) // 32 == 1) | (np.arange(128) % 5 == 0), 0.0, density)
        sigma = Weight(grid, density)
        w = generate_weight(grid, "random_cascade", seed=306, volatility=0.8)
        family = random_sparse(grid, 0.5, seed=6, target_size=24)
        assert any(mass(sigma, q) == 0 for q in family.members)
    else:
        family, sigma, w = instance(*case)
    cfg = ExponentConfig(2.0, 3.0, 0.5 * family.grid.dimension - 0.25)
    return family, sigma, w, cfg


OPERATOR_CASES = CASES + ["non_grid_root", "sigma_null"]


@pytest.mark.parametrize("case", OPERATOR_CASES, ids=str)
class TestMemberOperatorMatchesLeafOperator:
    def test_member_apply(self, case):
        family, sigma, _, cfg = operator_instance(case)
        v = np.random.default_rng(1).random(len(family))
        blocks = family.descendant_sum(v * family.exceptional_mass(sigma))
        got = family.at_leaves(family.ancestor_sum(_coef(family, cfg.alpha) * blocks))
        assert_close(got, oracle_apply(family, sigma.leaf_density * family.at_leaves(v), cfg.alpha))

    def test_indicator_ratios(self, case):
        family, sigma, w, cfg = operator_instance(case)
        inst = Instance(family, sigma, w, cfg)
        got = primal_indicator_ratios(inst)
        want = oracle_indicator_ratios(family, sigma, w, cfg.alpha, cfg.q, cfg.p)
        assert_close(got, [want.get(q, 0.0) for q in family.members])
        adjoint = inst.dual.indicator_ratios
        want = oracle_indicator_ratios(family, w, sigma, cfg.alpha, cfg.p_dual, cfg.q_dual)
        tested = [i for i, q in enumerate(family.members) if q in want]
        assert_close(adjoint[tested], list(want.values()))

    def test_norm_lower_bound(self, case):
        family, sigma, w, cfg = operator_instance(case)
        for budget in (0, 8):
            assert_close(norm_lower_bound(Instance(family, sigma, w, cfg), budget, seed=3),
                         oracle_norm_lower_bound(family, sigma, w, cfg, budget, seed=3))

    def test_exact_norm_l2(self, case):
        family, sigma, w, cfg = operator_instance(case)
        assert_close(exact_norm_l2(l2_instance(family, sigma, w, cfg.alpha), tol=1e-14),
                     oracle_exact_norm_l2(family, sigma, w, cfg.alpha, tol=1e-14))


# --- the batched dual ascent, on both sides of the dense-kernel switch ------

ASCENT_CASES = ([(d, kind, 0) for d in (1, 2, 3) for kind in ("random", "stopping")]
                + ["non_grid_root", "sigma_null"])


@pytest.mark.parametrize("case", ASCENT_CASES, ids=str)
def test_member_operator_kernels(case, monkeypatch):
    # DENSE_MAX = |S| takes the dense kernel, |S| - 1 the batched sweeps;
    # both take and give arrays in generation order
    family, sigma, _, cfg = operator_instance(case)
    order, back = family.generations[:2]
    v = np.random.default_rng(2).random((len(family), 3))
    got = {}
    for dense_max in (len(family), len(family) - 1):
        monkeypatch.setattr(operators, "DENSE_MAX", dense_max)
        inst = Instance(family, sigma, sigma, cfg)
        got[dense_max] = _member_operator(inst, inst.sigma_exc[order])(v[order])[back]
        assert ("kernel" in inst.__dict__) == (dense_max == len(family))
    for u in got.values():
        for j in range(v.shape[1]):
            assert_close(family.at_leaves(u[:, j]),
                         oracle_apply(family, sigma.leaf_density * family.at_leaves(v[:, j]), cfg.alpha))


@pytest.mark.parametrize("case", ASCENT_CASES, ids=str)
@pytest.mark.parametrize("n_starts", (1, 3))
def test_batched_ascent_matches_leaf_oracle(case, n_starts, monkeypatch):
    family, sigma, w, cfg = operator_instance(case)
    monkeypatch.setattr(operators, "N_STARTS", n_starts)
    for budget in (0, 1, 8):
        want = oracle_norm_lower_bound(family, sigma, w, cfg, budget, seed=3, n_starts=n_starts)
        for dense_max in (len(family), len(family) - 1):
            monkeypatch.setattr(operators, "DENSE_MAX", dense_max)
            assert_close(norm_lower_bound(Instance(family, sigma, w, cfg), budget, seed=3), want)


@pytest.mark.parametrize("case", ASCENT_CASES, ids=str)
def test_exact_norm_l2_on_both_kernels(case, monkeypatch):
    # the power iteration runs on the member applies of the ascent
    family, sigma, w, cfg = operator_instance(case)
    want = dense_norm_l2_oracle(family, sigma, w, cfg.alpha)
    for dense_max in (len(family), len(family) - 1):
        monkeypatch.setattr(operators, "DENSE_MAX", dense_max)
        assert exact_norm_l2(l2_instance(family, sigma, w, cfg.alpha), tol=1e-14) == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("dense_max", (10**6, 0), ids=("dense", "sweeps"))
def test_dead_starts_drop_out(dense_max, monkeypatch):
    # w vanishes on the family's root [1/2, 1), so the ascent image
    # T*(w (T sigma f)^{q-1}) is 0: every start drops out at its first step,
    # before a division by its zero norm
    grid = GridConfig(1, 7)
    sigma = generate_weight(grid, "random_cascade", seed=5, volatility=0.8)
    density = generate_weight(grid, "random_cascade", seed=305, volatility=0.8).leaf_density.copy()
    density[64:] = 0.0
    w = Weight(grid, density)
    family = stopping_family(sigma, 2.0, DyadicCube(1, (1,)))
    cfg = ExponentConfig(2.0, 3.0, 0.25)
    monkeypatch.setattr(operators, "DENSE_MAX", dense_max)
    for budget in (0, 1, 8):
        for n_starts in (1, 3):
            monkeypatch.setattr(operators, "N_STARTS", n_starts)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = norm_lower_bound(Instance(family, sigma, w, cfg), budget, seed=3)
            assert got == oracle_norm_lower_bound(family, sigma, w, cfg, budget, seed=3,
                                                  n_starts=n_starts) == 0.0


def test_one_instance_takes_two_exceptional_masses(monkeypatch):
    # every stage of a suite instance reads one shared context: sigma(E_Q)
    # and w(E_Q) are each computed once
    calls = []
    original = SparseFamily.exceptional_mass

    def counted(self, weight):
        calls.append(weight)
        return original(self, weight)

    monkeypatch.setattr(SparseFamily, "exceptional_mass", counted)
    report = run_verify_bounds(ExperimentConfig(instances=1, master_seed=3))
    assert report.violations == 0
    assert len(calls) <= 2


# --- the up-sweep's order and the ascent's stop at a fixed point ------------

def deep_instance(d, master_seed=49):
    """(family, sigma, w, cfg, seed of the norm bound) of the benchmark's
    family_deep instance of dimension d at its seed 0 (master seed 49): the
    stopping family of d=1 N=13 (291 members) or of d=2 N=6 (191); master
    seed 234, its held-out seed 11, gives 309 and 185 members."""
    cfg = ExperimentConfig(dimension=d, leaf_level={1: 13, 2: 6}[d], family_kind="stopping",
                           master_seed=master_seed)
    sigma, w, family, s_lb = build_instance(cfg, 0)
    return family, sigma, w, cfg.exponents(), s_lb


@pytest.mark.parametrize("case", ASCENT_CASES + ["deep_d1", "deep_d2"], ids=str)
def test_planned_up_sweep_is_the_per_call_sweep(case):
    family, sigma = deep_instance(int(case[-1]))[:2] if case in ("deep_d1", "deep_d2") else operator_instance(case)[:2]
    # B + 2 columns, as a trace sweeps with B buckets; B counts the entropy
    # buckets of the members of positive mass
    masses = family.gather(sigma.mass_levels)
    n_buckets = len(_strata(family, sigma, "entropy", masses, masses > 0)[1])
    rng = np.random.default_rng(7)
    v = rng.random((len(family), 3))
    # 1 column, the 3 starts of the ascent, B + 2, and 2 after a start drops out
    for values in (v[:, 0], v, rng.random((len(family), n_buckets + 2)), v[:, [0, 2]]):
        for _ in range(2):  # a repeated call gives the same bits
            assert np.array_equal(family.descendant_sum(values), subtree_sum_oracle(family, values))


@pytest.mark.parametrize("case", ASCENT_CASES, ids=str)
@pytest.mark.parametrize("dense_max", (10**6, 0), ids=("dense", "sweeps"))
def test_ascent_stop_gives_the_full_budget_bits(case, dense_max, monkeypatch):
    family, sigma, w, cfg = operator_instance(case)
    monkeypatch.setattr(operators, "DENSE_MAX", dense_max)
    inst = Instance(family, sigma, w, cfg)
    for budget in range(41):
        assert norm_lower_bound(inst, budget, seed=3) == norm_lower_bound_full_budget(inst, budget, seed=3)


def counted_applies(monkeypatch, nudge=False):
    """The calls of every member operator the ascent makes, counted in the
    returned list; with `nudge`, call c also moves entry (0, 0) of its
    result up by c ulps, so that no step repeats the one before it."""
    calls, original = [], operators._member_operator

    def member_operator(inst, mass_exc):
        apply = original(inst, mass_exc)

        def counted(v):
            calls.append(v.shape)
            out = apply(v)
            if nudge:
                out[0, 0] += len(calls) * np.spacing(out[0, 0])
            return out
        return counted

    monkeypatch.setattr(operators, "_member_operator", member_operator)
    return calls


@pytest.mark.parametrize("nudge", (False, True), ids=("exact", "nudged"))
def test_ascent_stops_at_its_fixed_point(nudge, monkeypatch):
    # the family_deep d=2 instance reaches a fixed point inside its budget
    # of 25 steps (50 member applies); an operator that moves one entry by
    # an ulp at each step never repeats an iterate and runs the full budget
    family, sigma, w, cfg, s_lb = deep_instance(2)
    inst = Instance(family, sigma, w, cfg)
    calls = counted_applies(monkeypatch, nudge)
    norm_lower_bound(inst, 25, seed=s_lb)
    assert (len(calls) == 50) if nudge else (len(calls) < 50)


# --- the member apply in generation order -----------------------------------

def generation_case(case):
    """(family, sigma, w, cfg) of an ascent case, of a family_deep instance
    ("deep_d1_0": d=1 at master seed 49; "_11" at 234), of a chain (one
    member per generation, 11 generations) or of a star (the root and 11
    children on 11 levels: one generation below the root)."""
    if isinstance(case, str) and case.startswith("deep"):
        d, seed = int(case[6]), {"0": 49, "11": 234}[case.split("_")[-1]]
        return deep_instance(d, seed)[:4]
    if case not in ("chain", "star"):
        return operator_instance(case)
    grid = GridConfig(1, 10 if case == "chain" else 12)
    sigma = generate_weight(grid, "random_cascade", seed=8, volatility=0.8)
    w = generate_weight(grid, "random_cascade", seed=308, volatility=0.8)
    if case == "chain":
        family = SparseFamily(grid, fix_chain_cubes(grid, 10), 0.5)
    else:
        # [2^{1-k}, 1.5 2^{1-k}) on level k: disjoint, half the root's volume less 2^-12
        family = SparseFamily(grid, [DyadicCube(0, (0,))] + [DyadicCube(k, (2,)) for k in range(2, 13)], 0.5)
    return family, sigma, w, ExponentConfig(2.0, 3.0, 0.25)


GENERATION_CASES = ASCENT_CASES + ["deep_d1_0", "deep_d2_0", "deep_d1_11", "deep_d2_11", "chain", "star"]


@pytest.mark.parametrize("case", GENERATION_CASES, ids=str)
def test_generations_plan(case):
    family = generation_case(case)[0]
    order, back, slot, blocks = family.generations
    n = len(family)
    # a permutation that starts at the root, with its inverse
    assert np.array_equal(np.sort(order), np.arange(n)) and order[0] == 0 and slot[0] == -1
    assert np.array_equal(order[back], np.arange(n))
    # the blocks tile order[1:], each right after its parent block
    assert [(start, lo) for start, lo, _ in blocks] == list(zip([0] + [lo for _, lo, _ in blocks[:-1]],
                                                                [1] + [hi for _, _, hi in blocks[:-1]]))
    assert blocks[-1][2] == n if blocks else n == 1
    for start, lo, hi in blocks:
        assert (np.diff(order[lo:hi]) > 0).all()
        # every parent lies in the previous generation's block, at its slot
        # there, and is the member's parent
        assert ((0 <= slot[lo:hi]) & (slot[lo:hi] < lo - start)).all()
        assert np.array_equal(order[start + slot[lo:hi]], family.parent[order[lo:hi]])
    if case == "chain":
        assert len(blocks) == 10 and all(hi - lo == 1 for _, lo, hi in blocks)
    if case == "star":
        assert len(blocks) == 1 and len(set(family.level[1:].tolist())) == 11


@pytest.mark.parametrize("case", ("chain", "star"))
def test_a_sweep_takes_one_step_per_generation(case, monkeypatch):
    # the chain has 10 generations below the root, on 10 levels; the star
    # one, on 11 levels.  The up-sweep makes one bincount per generation;
    # the down-sweep one gather per generation, besides the two `take`s
    # that permute into generation order and back
    family = generation_case(case)[0]
    n_generations = {"chain": 10, "star": 1}[case]
    assert len(family.generations.blocks) == n_generations
    bincounts, takes, bincount = [], [], np.bincount

    def counted_bincount(*args, **kwargs):
        bincounts.append(args)
        return bincount(*args, **kwargs)

    def count_takes(frame, event, arg):
        if event == "c_call" and getattr(arg, "__name__", None) == "take":
            takes.append(arg)

    monkeypatch.setattr(np, "bincount", counted_bincount)
    v = np.random.default_rng(6).random((len(family), 3))
    family.descendant_sum(v)
    sys.setprofile(count_takes)
    try:
        family.ancestor_sum(v)
    finally:
        sys.setprofile(None)
    assert len(bincounts) == n_generations and len(takes) == n_generations + 2


def test_an_ascent_step_permutes_nothing(monkeypatch):
    # on the family_deep d=1 instance (291 members: the sweeps branch) each
    # step of the ascent is two applies, and an apply is one bincount and one
    # gather (`take`) per generation, with no whole-array permutation into
    # generation order and back.  The up-sweep's positions for the 3
    # columns are made once per ascent, on a fresh family.
    bincount, calls, counts = np.bincount, Counter(), {}

    def counted_bincount(*args, **kwargs):
        calls["bincount"] += 1
        return bincount(*args, **kwargs)

    def count_calls(frame, event, arg):
        if event == "c_call":
            name = getattr(arg, "__name__", None)
            if name == "take" or (name == "arange" and frame.f_code is SparseFamily.up_sweep.__code__):
                calls[name] += 1

    monkeypatch.setattr(np, "bincount", counted_bincount)
    for budget in (2, 6):  # the ascent reaches no fixed point in 6 steps
        family, sigma, w, cfg, s_lb = deep_instance(1)
        inst = Instance(family, sigma, w, cfg)
        calls.clear()
        sys.setprofile(count_calls)
        try:
            norm_lower_bound(inst, budget, seed=s_lb)
        finally:
            sys.setprofile(None)
        counts[budget] = dict(calls)
    assert len(family) > operators.DENSE_MAX and len(family.generations.blocks) == 3
    per_step = 2 * len(family.generations.blocks)
    assert {name: counts[6][name] - counts[2][name] for name in ("take", "bincount")} == {
        "take": 4 * per_step, "bincount": 4 * per_step}
    assert counts[2]["arange"] == counts[6]["arange"] == 1


@pytest.mark.parametrize("case", GENERATION_CASES, ids=str)
def test_generation_apply_is_the_level_sweeps(case, monkeypatch):
    # the sweeps branch at every size, in generation order: within 1e-13 of
    # the level-order sweeps in member order, whose up-sweep adds siblings
    # level by level, for 1 and 3 columns and for 2 Fortran-ordered ones
    # (the ascent after a start drops out); a repeated apply gives the same
    # bits
    family, sigma, w, cfg = generation_case(case)
    order, back = family.generations[:2]
    monkeypatch.setattr(operators, "DENSE_MAX", 0)
    inst = Instance(family, sigma, w, cfg)
    v = np.random.default_rng(4).random((len(family), 3))[order]
    for mass_exc in (inst.sigma_exc, inst.w_exc):
        apply = _member_operator(inst, mass_exc[order])
        for values in (v[:, :1], v, v[:, [0, 2]]):
            got = apply(values)
            assert_close(got[back], member_apply_oracle(family, inst.coef, mass_exc, values[back]))
            assert np.array_equal(apply(values), got)
    assert "kernel" not in inst.__dict__


@pytest.mark.parametrize("case", GENERATION_CASES, ids=str)
def test_down_sweep_is_the_ancestor_sum(case):
    # in generation order in place, and in member order, bit for bit the
    # level-order down-sweep
    family = generation_case(case)[0]
    order, back = family.generations[:2]
    v = np.random.default_rng(5).random((len(family), 3))
    for values in (v[:, :1], v, v[:, 0]):
        want = ancestor_sum_oracle(family, values)
        x = values.take(order, axis=0)
        assert family.down_sweep(x) is x and np.array_equal(x.take(back, axis=0), want)
        assert np.array_equal(family.ancestor_sum(values), want)


@pytest.mark.parametrize("case", GENERATION_CASES, ids=str)
def test_dense_kernel_is_symmetric_bit_for_bit(case):
    # the kernel in generation order equals its transpose and the member-order
    # reference kernel permuted into generation order, bit for bit, at
    # alpha = 0, at the case's alpha and at d - 1/2
    family, sigma, w, cfg = generation_case(case)
    order = family.generations.order
    for alpha in (0.0, cfg.alpha, family.grid.dimension - 0.5):
        inst = Instance(family, sigma, w, ExponentConfig(cfg.p, cfg.q, alpha))
        kernel = inst.kernel
        assert np.array_equal(kernel, kernel.T)
        assert np.array_equal(kernel, reference_kernel(inst)[np.ix_(order, order)])
