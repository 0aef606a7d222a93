import numpy as np
import pytest

import sparsebump.grid
from sparsebump.grid import DyadicCube, GridConfig, leaf_slice, root_cube, tile_level
from sparsebump.weights import Weight, average, fix_ce, generate_weight, mass, rho

from oracles import dyadic_maximal, enumerate_cubes, fix_const, fix_half, rho_oracle, scaled


def spike_weight():
    return Weight(GridConfig(1, 2), np.array([4.0, 0.0, 0.0, 0.0]))


class TestDyadicMaximal:
    def test_constant_weight_is_flat(self):
        s, _ = fix_const()
        out = dyadic_maximal(s, root_cube(s.grid))
        np.testing.assert_array_equal(out, np.ones(16))

    def test_fix_half_pattern(self):
        # best ancestor for the right-half leaves is the root, average 1
        h = fix_half()
        out = dyadic_maximal(h, root_cube(h.grid))
        np.testing.assert_array_equal(out, [2.0, 2.0, 1.0, 1.0])

    def test_spike_chain_maxima(self):
        out = dyadic_maximal(spike_weight(), root_cube(GridConfig(1, 2)))
        np.testing.assert_array_equal(out, [4.0, 2.0, 1.0, 1.0])

    def test_zeros_outside_the_cube(self):
        h = fix_half()
        out = dyadic_maximal(h, DyadicCube(1, (0,)))
        np.testing.assert_array_equal(out, [2.0, 2.0, 0.0, 0.0])

    def test_localization(self):
        # values inside Q depend only on the restriction of sigma to Q
        g = GridConfig(1, 3)
        rng = np.random.default_rng(0)
        base = rng.random(8) + 0.1
        other = base.copy()
        other[4:] = rng.random(4) + 5.0
        q = DyadicCube(1, (0,))
        a = dyadic_maximal(Weight(g, base), q)
        b = dyadic_maximal(Weight(g, other), q)
        np.testing.assert_array_equal(a[:4], b[:4])

    def test_dominates_cube_average(self):
        g = GridConfig(1, 6)
        w = generate_weight(g, "random_cascade", seed=9, volatility=0.8)
        for q in [root_cube(g), DyadicCube(2, (1,)), DyadicCube(4, (7,))]:
            vals = dyadic_maximal(w, q)[leaf_slice(q, g)]
            assert np.all(vals >= average(w, q))


class TestRho:
    def test_constant_weight_gives_one(self):
        s, _ = fix_const()
        for q in [root_cube(s.grid), DyadicCube(2, (3,))]:
            assert rho(s, q) == 1.0

    def test_fix_half(self):
        assert rho(fix_half(), root_cube(GridConfig(1, 2))) == 1.5

    def test_spike(self):
        assert rho(spike_weight(), root_cube(GridConfig(1, 2))) == 2.0

    def test_at_least_one_exactly(self):
        for seed in range(8):
            w = generate_weight(GridConfig(1, 8), "random_cascade", seed=seed, volatility=0.9)
            for q in [root_cube(w.grid), DyadicCube(3, (5,)), DyadicCube(8, (17,))]:
                assert rho(w, q) >= 1.0

    def test_scale_invariance(self):
        w = generate_weight(GridConfig(1, 6), "random_cascade", seed=4, volatility=0.7)
        q = DyadicCube(1, (1,))
        base = rho(w, q)
        assert rho(scaled(w, 4.0), q) == base  # power-of-two scaling is exact
        assert rho(scaled(w, 3.0), q) == pytest.approx(base, rel=1e-12)

    def test_degenerate_cube_raises(self):
        with pytest.raises(ValueError, match="degenerate weight on cube"):
            rho(spike_weight(), DyadicCube(1, (1,)))


class TestRhoAll:
    @pytest.mark.parametrize("d,n,seed", [(1, 8, 0), (1, 8, 1), (2, 3, 2), (2, 5, 3), (3, 3, 4), (3, 4, 5)])
    def test_matches_per_cube_rho(self, d, n, seed):
        # the oracle sums each block by the same pairwise tree: bitwise equal
        w = generate_weight(GridConfig(d, n), "random_cascade", seed=seed, volatility=0.8)
        levels = w.rho_levels
        for q in enumerate_cubes(w.grid):
            assert float(levels[q.level][q.index]) == rho_oracle(w, q)
            assert rho(w, q) == rho_oracle(w, q)

    def test_nan_on_zero_mass_cubes(self):
        levels = spike_weight().rho_levels
        assert np.isnan(levels[1][1])
        assert levels[0][0] == 2.0

    @pytest.mark.parametrize("d", [1, 2])
    def test_built_once_read_only_nan_exactly_on_zero_mass(self, d):
        g = GridConfig(d, 4 if d == 1 else 3)
        dens = generate_weight(g, "random_cascade", seed=5, volatility=0.8).leaf_density.copy()
        dens[: g.leaf_shape()[0] // 2] = 0.0  # a zero-mass half at every level but the root
        w = Weight(g, dens)
        levels = w.rho_levels
        assert w.rho_levels is levels
        for k, (r, m) in enumerate(zip(levels, w.mass_levels)):
            assert r.shape == g.level_shape(k)
            np.testing.assert_array_equal(np.isnan(r), m <= 0)
            with pytest.raises(ValueError, match="read-only"):
                r[(0,) * d] = 1.0
        assert np.isnan(levels[1]).any()

    @pytest.mark.parametrize("make", [
        lambda: fix_ce(8)[0],
        lambda: generate_weight(GridConfig(2, 4), "random_cascade", seed=7, volatility=0.8),
        lambda: spike_weight(),
        # 5e-324 * |leaf| rounds to a zero leaf mass
        lambda: Weight(GridConfig(1, 1), np.array([5e-324, 1.0])),
    ], ids=["ce", "cascade-2d", "spike", "underflow"])
    def test_leaf_level_is_one_where_mass_is_positive(self, make):
        w = make()
        leaf_rho, leaf_mass = w.rho_levels[-1], w.mass_levels[-1]
        old = np.where(leaf_mass > 0, 1.0, np.nan)
        assert np.ascontiguousarray(leaf_rho).tobytes() == old.tobytes()
        assert not leaf_rho.flags.writeable
        # with no zero-mass leaf, a view of the one value 1.0
        assert (set(leaf_rho.strides) == {0}) == (leaf_mass.min() > 0)

    def test_counterexample_root_grows_with_refinement(self):
        r = []
        for n in (8, 12, 16):
            sigma, _ = fix_ce(n)
            r.append(sigma.rho_levels[0][0])
        assert r[0] < r[1] < r[2]

    @pytest.mark.parametrize("block", [2, 4, 8, 16])
    @pytest.mark.parametrize("d,n", [(1, 7), (2, 4), (2, 5), (3, 3)])
    @pytest.mark.parametrize("zero_quarter", [False, True])
    def test_tiles_match_oracle(self, monkeypatch, block, d, n, zero_quarter):
        # several tiles per grid; coarsen finishes the tiles' partial sums
        # by the same pairwise tree, so rho stays bitwise equal to the oracle
        monkeypatch.setattr(sparsebump.grid, "BLOCK", block)
        g = GridConfig(d, n)
        assert tile_level(g) > 0
        dens = generate_weight(g, "random_cascade", seed=n, volatility=0.8).leaf_density.copy()
        if zero_quarter:
            quarter = 2 ** n // (4 if d == 1 else 2)
            dens[(slice(0, quarter),) * d] = 0.0
        w = Weight(g, dens)
        levels = w.rho_levels
        for q in enumerate_cubes(g):
            r = float(levels[q.level][q.index])
            if mass(w, q) > 0:
                assert r == rho_oracle(w, q)
            else:
                assert np.isnan(r)
        assert any(np.isnan(r).any() for r in levels) == zero_quarter
        assert all(not r.flags.writeable for r in levels)
