import numpy as np
import pytest

from sparsebump.grid import DyadicCube, GridConfig, enumerate_cubes, leaf_slice, root_cube
from sparsebump.maximal import dyadic_maximal, rho, rho_all
from sparsebump.weights import Weight, average, fix_const, fix_half, fix_ce, generate_weight, mass


def spike_weight():
    return Weight(GridConfig(1, 2), np.array([4.0, 0.0, 0.0, 0.0]))


class TestDyadicMaximal:
    def test_constant_weight_is_flat(self):
        s, _ = fix_const()
        out = dyadic_maximal(s, root_cube(s.grid))
        np.testing.assert_array_equal(out.values, np.ones(16))

    def test_fix_half_pattern(self):
        # best ancestor for the right-half leaves is the root, average 1
        h = fix_half()
        out = dyadic_maximal(h, root_cube(h.grid))
        np.testing.assert_array_equal(out.values, [2.0, 2.0, 1.0, 1.0])

    def test_spike_chain_maxima(self):
        out = dyadic_maximal(spike_weight(), root_cube(GridConfig(1, 2)))
        np.testing.assert_array_equal(out.values, [4.0, 2.0, 1.0, 1.0])

    def test_zeros_outside_the_cube(self):
        h = fix_half()
        out = dyadic_maximal(h, DyadicCube(1, (0,)))
        np.testing.assert_array_equal(out.values, [2.0, 2.0, 0.0, 0.0])

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
        np.testing.assert_array_equal(a.values[:4], b.values[:4])

    def test_dominates_cube_average(self):
        g = GridConfig(1, 6)
        w = generate_weight(g, "random_cascade", seed=9, volatility=0.8)
        for q in [root_cube(g), DyadicCube(2, (1,)), DyadicCube(4, (7,))]:
            vals = dyadic_maximal(w, q).values[leaf_slice(q, g)]
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
        assert rho(w.scaled(4.0), q) == base  # power-of-two scaling is exact
        assert rho(w.scaled(3.0), q) == pytest.approx(base, rel=1e-12)

    def test_degenerate_cube_raises(self):
        with pytest.raises(ValueError, match="degenerate weight on cube"):
            rho(spike_weight(), DyadicCube(1, (1,)))


class TestRhoAll:
    @pytest.mark.parametrize("d,n,seed", [(1, 8, 0), (1, 8, 1), (2, 3, 2)])
    def test_matches_per_cube_rho(self, d, n, seed):
        # d=1 block sums share the scalar path's summation order and agree
        # bitwise; d=2 reshaped sums may differ by an ulp
        w = generate_weight(GridConfig(d, n), "random_cascade", seed=seed, volatility=0.8)
        levels = rho_all(w)
        for q in enumerate_cubes(w.grid):
            got = float(levels[q.level][q.index if d == 2 else q.index[0]])
            want = rho(w, q)
            if d == 1:
                assert got == want
            else:
                assert got == pytest.approx(want, rel=1e-12)

    def test_nan_on_zero_mass_cubes(self):
        levels = rho_all(spike_weight())
        assert np.isnan(levels[1][1])
        assert levels[0][0] == 2.0

    def test_counterexample_root_grows_with_refinement(self):
        r = []
        for n in (8, 12, 16):
            sigma, _ = fix_ce(n)
            r.append(rho_all(sigma)[0][0])
        assert r[0] < r[1] < r[2]

