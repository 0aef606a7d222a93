"""Differential tests: the array-tree sweeps against per-cube loops.

The oracles below walk the family cube by cube with `contains` and
`leaf_slice`, the way the package computed these quantities before the
family became an array tree.  Each sweep must agree with its oracle to
1e-13 relative, on random and stopping families in d=1 and d=2.
"""

import numpy as np
import pytest

from sparsebump.bumps import EntropyFunction, ExponentConfig
from sparsebump.grid import DyadicCube, GridConfig, contains, leaf_slice, root_cube
from sparsebump.operators import apply_sparse, testing_constants
from sparsebump.prooftrace import _bucket_of, direct_trace, entropy_trace, stratify
from sparsebump.sparse import SparseFamily, carleson_check, random_sparse, stopping_family, verify_sparse
from sparsebump.weights import LeafFunction, average, generate_weight, mass
from sparsebump.maximal import rho

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
        buckets.setdefault(_bucket_of(key_values[q]), []).append(q)
    maximal = {a: [q for q in qs if not any(o != q and contains(o, q) for o in qs)]
               for a, qs in buckets.items()}
    return buckets, maximal


def assert_close(got, want):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = np.maximum(np.abs(want), np.finfo(float).tiny)
    assert np.all(np.abs(got - want) <= REL * scale), np.max(np.abs(got - want) / scale)


# --- instances --------------------------------------------------------------

CASES = [(d, kind, seed) for d in (1, 2) for kind in ("random", "stopping") for seed in range(3)]


def instance(d, kind, seed):
    grid = GridConfig(d, 7 if d == 1 else 4)
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

    def test_apply(self, d, kind, seed):
        family, sigma, _ = instance(d, kind, seed)
        f = np.random.default_rng(seed).random(family.grid.leaf_shape())
        for alpha in (0.0, 0.5):
            got = apply_sparse(family, sigma, LeafFunction(family.grid, f), alpha).values
            assert_close(got, oracle_apply(family, sigma.leaf_density * f, alpha))

    def test_exceptional_masses(self, d, kind, seed):
        family, sigma, w = instance(d, kind, seed)
        for weight in (sigma, w):
            assert_close(family.exceptional_mass(weight), oracle_exceptional_mass(family, weight))

    def test_per_r_and_per_r_star(self, d, kind, seed):
        family, sigma, w = instance(d, kind, seed)
        cfg = ExponentConfig(2.0, 3.0, 0.25, d)
        rep = testing_constants(family, sigma, w, cfg)
        want = oracle_per_r(family, sigma, w, cfg.p, cfg.q, cfg.alpha)
        want_star = oracle_per_r(family, w, sigma, cfg.q_dual, cfg.p_dual, cfg.alpha)
        assert rep.per_R.keys() == want.keys() and rep.per_R_star.keys() == want_star.keys()
        assert_close(list(rep.per_R.values()), list(want.values()))
        assert_close(list(rep.per_R_star.values()), list(want_star.values()))

    def test_carleson_lhs(self, d, kind, seed):
        family, sigma, _ = instance(d, kind, seed)
        for q0 in family.members:
            res = carleson_check(family, sigma, q0)
            assert_close(res["lhs"], oracle_carleson_lhs(family, sigma, q0))
            assert res["ratio"] <= 1.0

    def test_strata(self, d, kind, seed):
        family, sigma, _ = instance(d, kind, seed)
        for key in ("rho", "average"):
            strata = stratify(family, sigma, key)
            values = {q: rho(sigma, q) if key == "rho" else average(sigma, q)
                      for q in family.members}
            assert strata.key_values == values
            buckets, maximal = oracle_strata(family.members, values)
            assert strata.buckets == buckets
            assert strata.maximal_cubes == maximal

    def test_trace_inner_sums(self, d, kind, seed):
        family, sigma, w = instance(d, kind, seed)
        cfg = ExponentConfig(2.0, 3.0, 0.25, d)
        # R = the root and one deeper member, so the strata are restricted to R
        for r_cube in {family.root, family.members[len(family) // 2]}:
            sub = [q for q in family.members if contains(r_cube, q)]
            term = {q: (q.volume ** (cfg.alpha / d) * average(sigma, q)) ** cfg.q * mass(w, q)
                    for q in sub}
            for trace, key in ((entropy_trace, "rho"), (direct_trace, "average")):
                eps = EntropyFunction("entropy" if key == "rho" else "direct", 1.0)
                rep = trace(family, sigma, w, cfg, eps, r_cube)
                values = {q: rho(sigma, q) if key == "rho" else average(sigma, q) for q in sub}
                buckets, maximal = oracle_strata(sub, values)
                stars = [(a, q) for a in sorted(buckets) for q in maximal[a]]
                assert [(s.a, s.q_star) for s in rep.strata] == stars
                inner = [sum(term[q] for q in buckets[a] if contains(q_star, q))
                         for a, q_star in stars]
                assert_close([s.inner_lhs for s in rep.strata], inner)
                assert_close(rep.lhs_total, sum(term.values()))
                if key == "average":
                    volumes = [sum(q.volume for q in sub if contains(q_star, q))
                               for _, q_star in stars]
                    assert_close([s.support_ratio for s in rep.strata],
                                 [v * (1 - family.lam) / q.volume
                                  for v, (_, q) in zip(volumes, stars)])


def test_verify_sparse_matches_child_volume_loop():
    cubes = [DyadicCube(0, (0,)), DyadicCube(1, (0,)), DyadicCube(3, (5,)), DyadicCube(2, (0,))]
    res = verify_sparse(cubes, 0.5)
    # children of the root: 1:0 and 3:5 (2:0 sits under 1:0)
    assert res["worst_ratio"] == 0.5 + 0.125 and res["witness"] == DyadicCube(0, (0,))
    assert not res["ok"]


def test_non_grid_root_family():
    # a family whose root is below level 0: the sweeps start at the root
    g = GridConfig(1, 5)
    cubes = frozenset([DyadicCube(2, (1,)), DyadicCube(3, (2,)), DyadicCube(5, (9,))])
    family = SparseFamily(g, cubes, 0.5)
    np.testing.assert_array_equal(family.parent, [-1, 0, 1])
    np.testing.assert_array_equal(family.ancestor_sum([1.0, 2.0, 4.0]), [1.0, 3.0, 7.0])
    np.testing.assert_array_equal(family.descendant_sum([1.0, 2.0, 4.0]), [7.0, 6.0, 4.0])
    np.testing.assert_array_equal(family.owner, oracle_owner(family))
