import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sparsebump.grid
from sparsebump.grid import DyadicCube, GridConfig, root_cube
from sparsebump.weights import (
    Weight,
    average,
    fix_ce,
    generate_weight,
    llogl_integral,
    mass,
    weight_from_json,
    weight_to_json,
)

from oracles import (cascade_oracle, ce_sigma_leaf_mass_oracle, ce_sigma_mass, enumerate_cubes, fix_const,
                     fix_half, llogl_oracle)


def cube_endpoints(cube: DyadicCube) -> tuple[float, float]:
    h = 2.0**-cube.level
    return cube.index[0] * h, (cube.index[0] + 1) * h


class TestConstant:
    def test_masses(self):
        s, _ = fix_const()
        assert mass(s, DyadicCube(1, (0,))) == 0.5
        assert mass(s, DyadicCube(1, (1,))) == 0.5
        assert mass(s, root_cube(s.grid)) == 1.0

    def test_average_is_the_constant(self):
        s = generate_weight(GridConfig(1, 5), "constant", value=3.5)
        for q in [root_cube(s.grid), DyadicCube(3, (2,)), DyadicCube(5, (31,))]:
            assert average(s, q) == pytest.approx(3.5, rel=1e-14)


class TestCounterexamplePair:
    """The divergent pair: sigma(x) = 1/(x(1-ln x)^2), w(x) = x^2."""

    def test_sigma_first_leaf_closed_form(self):
        for n in (4, 8, 12):
            sigma, _ = fix_ce(n)
            expected = 1.0 / (1.0 + n * math.log(2))
            assert mass(sigma, DyadicCube(n, (0,))) == pytest.approx(expected, rel=1e-13)

    @pytest.mark.parametrize("n", range(1, 17))
    def test_sigma_leaf_masses_are_the_per_cell_form(self, n):
        g = GridConfig(1, n)
        sigma = generate_weight(g, "counterexample_sigma")
        assert np.array_equal(sigma.mass_levels[-1], ce_sigma_leaf_mass_oracle(g))

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_sigma_leaf_masses_across_block_edges(self, spread, cpus):
        # each block takes its own right edge; with 1 leaf a block the
        # first block holds only cell 0, whose mass has its own closed form
        for block, n in ((1, 6), (16, 4), (16, 5), (16, 10)):
            pools = spread(block, cpus)
            g = GridConfig(1, n)
            sigma = generate_weight(g, "counterexample_sigma")
            assert np.array_equal(sigma.mass_levels[-1], ce_sigma_leaf_mass_oracle(g))
        # 64 blocks of 1 leaf and 64 of 16 take a pool on 2 CPUs
        assert pools == ([] if cpus == 1 else [2, 2])

    def test_sigma_total_mass_is_one(self):
        sigma, _ = fix_ce(10)
        assert mass(sigma, root_cube(sigma.grid)) == pytest.approx(1.0, rel=1e-12)

    def test_sigma_every_cube_matches_antiderivative(self):
        # oracle: single-interval antiderivative difference vs the cached
        # sum of per-leaf closed forms
        sigma, _ = fix_ce(8)
        for q in enumerate_cubes(sigma.grid):
            a, b = cube_endpoints(q)
            assert mass(sigma, q) == pytest.approx(ce_sigma_mass(a, b), rel=1e-12)

    def test_sigma_average_closed_form(self):
        sigma, _ = fix_ce(10)
        for k in (0, 3, 7):
            expected = 2.0**k / (1.0 + k * math.log(2))
            assert average(sigma, DyadicCube(k, (0,))) == pytest.approx(expected, rel=1e-12)

    def test_w_is_cubic_antiderivative(self):
        _, w = fix_ce(8)
        assert mass(w, root_cube(w.grid)) == pytest.approx(1.0 / 3.0, rel=1e-13)
        for q in enumerate_cubes(w.grid):
            a, b = cube_endpoints(q)
            assert mass(w, q) == pytest.approx((b**3 - a**3) / 3.0, rel=1e-11)

    def test_w_equals_power_two(self):
        g = GridConfig(1, 6)
        w = generate_weight(g, "counterexample_w")
        p2 = generate_weight(g, "power", beta=2.0)
        np.testing.assert_array_equal(w.leaf_density, p2.leaf_density)


class TestPower:
    @pytest.mark.parametrize("beta", [-0.5, 0.0, 1.0, 2.0])
    def test_interval_masses_match_naive_antiderivative(self, beta):
        g = GridConfig(1, 6)
        w = generate_weight(g, "power", beta=beta)
        s = beta + 1.0
        for q in enumerate_cubes(g):
            a, b = cube_endpoints(q)
            assert mass(w, q) == pytest.approx((b**s - a**s) / s, rel=1e-10)

    def test_integrable_singularity_total(self):
        g = GridConfig(1, 8)
        w = generate_weight(g, "power", beta=-0.5)
        assert mass(w, root_cube(g)) == pytest.approx(2.0, rel=1e-12)


class TestCascade:
    def test_deterministic_under_seed(self):
        g = GridConfig(1, 8)
        a = generate_weight(g, "random_cascade", seed=11, volatility=0.6)
        b = generate_weight(g, "random_cascade", seed=11, volatility=0.6)
        np.testing.assert_array_equal(a.leaf_density, b.leaf_density)
        c = generate_weight(g, "random_cascade", seed=12, volatility=0.6)
        assert not np.array_equal(a.leaf_density, c.leaf_density)

    @pytest.mark.parametrize("d,n", [(1, 1), (1, 2), (1, 8), (1, 13), (1, 17),
                                     (2, 1), (2, 2), (2, 4), (2, 6), (2, 8)])
    def test_one_draw_matches_the_per_level_oracle(self, d, n):
        # the shares of all levels come from one draw of the same stream
        g = GridConfig(d, n)
        for seed in (0, 3, 11):
            for volatility in (0.01, 0.6, 0.99):
                w = generate_weight(g, "random_cascade", seed=seed, volatility=volatility)
                want = cascade_oracle(g, seed, volatility)
                assert w.mass_levels[-1].tobytes() == want.tobytes()

    @pytest.mark.parametrize("d,n", [(1, 16), (2, 8), (3, 5)])
    def test_leaf_level_keeps_no_larger_buffer(self, d, n):
        leaf = 8 * 2 ** (d * n)
        tracemalloc.start()
        try:
            w = generate_weight(GridConfig(d, n), "random_cascade", seed=1, volatility=0.6)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        owner = w.mass_levels[-1]
        while owner.base is not None:
            owner = owner.base
        assert owner.nbytes == leaf
        # the leaf level and the coarser ones, 1 / (2^d - 1) of a leaf array
        assert held < (1.05 + 1 / (2**d - 1)) * leaf

    def test_root_mass_normalized(self):
        for d, n in [(1, 10), (2, 4), (3, 4)]:
            w = generate_weight(GridConfig(d, n), "random_cascade", seed=3, volatility=0.8)
            assert mass(w, root_cube(w.grid)) == pytest.approx(1.0, rel=1e-12)

    def test_strictly_positive_leaves(self):
        w = generate_weight(GridConfig(1, 10), "random_cascade", seed=5, volatility=0.9)
        assert np.all(w.leaf_density > 0)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_pyramid_consistency(self, seed):
        w = generate_weight(GridConfig(1, 6), "random_cascade", seed=seed, volatility=0.7)
        for k in range(6):
            parent = w.mass_levels[k]
            child_sum = w.mass_levels[k + 1].reshape(-1, 2).sum(axis=1)
            np.testing.assert_allclose(parent, child_sum, rtol=1e-12)


class TestLlogl:
    def test_constant_one(self):
        s, _ = fix_const()
        assert llogl_integral(s) == pytest.approx(math.log(math.e + 1.0), rel=1e-14)

    def test_half_supported(self):
        # densities (2,2,0,0): zero-density leaves contribute nothing
        assert llogl_integral(fix_half()) == pytest.approx(math.log(math.e + 2.0), rel=1e-14)

    def test_counterexample_diverges_under_refinement(self):
        s8, _ = fix_ce(8)
        s16, _ = fix_ce(16)
        assert llogl_integral(s16) > llogl_integral(s8)


class TestValidation:
    def test_bad_generator_parameters(self):
        g = GridConfig(1, 4)
        with pytest.raises(ValueError, match="bad generator parameter"):
            generate_weight(g, "constant", value=0.0)
        with pytest.raises(ValueError, match="bad generator parameter"):
            generate_weight(g, "power", beta=-1.0)
        with pytest.raises(ValueError, match="bad generator parameter"):
            generate_weight(g, "random_cascade", seed=1, volatility=1.5)
        with pytest.raises(ValueError, match="bad generator parameter"):
            generate_weight(g, "no_such_kind")
        with pytest.raises(ValueError, match="bad generator parameter"):
            generate_weight(GridConfig(2, 3), "power", beta=1.0)

    @pytest.mark.parametrize("grid,kind,params,message", [
        (GridConfig(1, 4), "power", {}, "power needs beta"),
        (GridConfig(1, 4), "counterexample_w", {"beta": 2.0}, "counterexample_w takes none"),
        (GridConfig(1, 4), "counterexample_sigma", {"value": 1.0}, "counterexample_sigma takes none"),
        (GridConfig(2, 3), "counterexample_w", {}, "counterexample_w is one-dimensional"),
        (GridConfig(2, 3), "counterexample_sigma", {}, "counterexample_sigma is one-dimensional"),
    ])
    def test_bad_generator_parameter_is_named(self, grid, kind, params, message):
        with pytest.raises(ValueError, match=f"bad generator parameter: {message}"):
            generate_weight(grid, kind, **params)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError):
            Weight(GridConfig(1, 2), np.array([1.0, -0.5, 1.0, 1.0]))

    def test_zero_total_mass_rejected(self):
        with pytest.raises(ValueError):
            Weight(GridConfig(1, 2), np.zeros(4))

    def test_fix_half_example(self):
        h = fix_half()
        assert average(h, root_cube(h.grid)) == 1.0


class TestSerialization:
    def test_roundtrip_bit_exact(self):
        w = generate_weight(GridConfig(1, 6), "random_cascade", seed=2, volatility=0.6)
        back = weight_from_json(weight_to_json(w))
        np.testing.assert_array_equal(back.leaf_density, w.leaf_density)
        assert back.grid == w.grid
        assert back.kind == "random_cascade"

    def test_densities_carry_full_precision(self):
        w = generate_weight(GridConfig(1, 4), "random_cascade", seed=2, volatility=0.6)
        record = json.loads(weight_to_json(w))
        assert record["dimension"] == 1 and record["leaf_level"] == 4
        for text, value in zip(record["leaf_density"], w.leaf_density):
            assert float(text) == value  # repr round-trips float64 exactly


class TestLeafCopy:
    def test_caller_array_is_copied(self):
        dens = np.array([1.0, 2.0, 3.0, 4.0])
        w = Weight(GridConfig(1, 2), dens)
        dens[0] = 100.0
        assert w.leaf_density[0] == 1.0 and w.mass_levels[0][0] == 2.5
        assert not w.leaf_density.flags.writeable

    def test_caller_leaf_mass_is_not_kept(self):
        leaf_mass = np.array([0.25, 0.5, 0.75, 1.0])
        w = Weight.from_leaf_mass(GridConfig(1, 2), leaf_mass)
        leaf_mass[:] = 0.0
        np.testing.assert_array_equal(w.leaf_density, [1.0, 2.0, 3.0, 4.0])
        assert not w.leaf_density.flags.writeable

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, -1e-300, -5e-324])
    def test_non_finite_or_negative_density_rejected(self, bad):
        with pytest.raises(ValueError, match="finite and >= 0"):
            Weight(GridConfig(1, 2), np.array([1.0, bad, 1.0, 1.0]))
        with pytest.raises(ValueError, match="finite and >= 0"):
            Weight.from_leaf_mass(GridConfig(1, 2), np.array([1.0, 1.0, 1.0, bad]))


class TestMassPyramid:
    """A weight keeps its mass pyramid and no other leaf-sized array; the
    leaf densities and the L log L integral are read off the leaf masses."""

    @pytest.mark.parametrize("dimension, leaf_level",
                             [(1, n) for n in (1, 8, 16, 17, 20, 22)] + [(2, n) for n in (3, 8, 9, 11)])
    def test_llogl_is_the_whole_array_sum(self, dimension, leaf_level):
        g = GridConfig(dimension, leaf_level)
        if dimension == 1:
            w = generate_weight(g, "counterexample_sigma")
        else:
            w = generate_weight(g, "random_cascade", seed=leaf_level, volatility=0.8)
        assert llogl_integral(w) == llogl_oracle(w)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_llogl_blocks_on_a_pool(self, spread, cpus):
        # NumPy's pairwise sum adds 8 strided partial sums below 128 floats,
        # so the block sums follow its tree from blocks of 128 up
        weights = [generate_weight(GridConfig(1, 10), "counterexample_sigma"),
                   generate_weight(GridConfig(2, 5), "random_cascade", seed=6, volatility=0.8)]
        pools = spread(128, cpus)  # 8 blocks
        for w in weights:
            assert llogl_integral(w) == llogl_oracle(w)
        assert pools == ([] if cpus == 1 else [2, 2])

    def test_leaf_arrays_held(self, spread):
        spread(sparsebump.grid.BLOCK, 1)
        leaf = 8 * 2**18  # bytes of one leaf array at d=1, N=18
        tracemalloc.start()
        try:
            sigma, w = fix_ce(18)
            held, peak = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            llogl_integral(sigma)
            llogl_peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # each weight: its leaf masses and the coarser levels, one more leaf array
        assert held < 4.1 * leaf
        assert peak < 5 * leaf
        assert llogl_peak - held < leaf

    def test_rho_levels_hold_one_leaf_array(self, spread):
        # levels 0..N-1 hold 2^N - 1 cells; rho is 1 on every leaf, a view
        spread(sparsebump.grid.BLOCK, 1)
        leaf = 8 * 2**18  # bytes of one leaf array at d=1, N=18
        sigma, _ = fix_ce(18)
        tracemalloc.start()
        try:
            sigma.rho_levels
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # 1.0 and 2.0 here, 2.0 and 3.0 with a stored leaf level
        assert held < 1.1 * leaf
        assert peak < 2.5 * leaf

    def test_from_leaf_mass_adopts_the_array(self):
        leaf_mass = np.array([0.25, 0.5, 0.75, 1.0])
        w = Weight.from_leaf_mass(GridConfig(1, 2), leaf_mass, copy=False)
        assert np.shares_memory(w.mass_levels[-1], leaf_mass)
        assert not w.mass_levels[-1].flags.writeable

    def test_leaf_density_round_trips_bitwise(self):
        g = GridConfig(2, 5)
        dens = generate_weight(g, "random_cascade", seed=5, volatility=0.8).leaf_density.copy()
        dens[:16, :16] = 0.0
        w = Weight(g, dens)
        assert w.leaf_density.tobytes() == dens.tobytes()
        assert not w.leaf_density.flags.writeable
        back = weight_from_json(weight_to_json(w))
        assert back.leaf_density.tobytes() == dens.tobytes()
        assert _bytes(back.mass_levels) == _bytes(w.mass_levels)

    def test_equality_is_identity(self):
        g = GridConfig(1, 2)
        a, b = Weight(g, np.ones(4)), Weight(g, np.ones(4))
        assert a == a and a != b
        assert {a: 1, b: 2}[b] == 2


def _bytes(arrays):
    return [a.tobytes() for a in arrays]


class TestBlockwise:
    """The generators and the rho tiles give the same bits on a thread pool
    (`grid.blockwise`) as in one serial pass."""

    @staticmethod
    def weights():
        g1, g2 = GridConfig(1, 10), GridConfig(2, 5)
        dens = generate_weight(g2, "random_cascade", seed=5, volatility=0.8).leaf_density.copy()
        dens[:16, :16] = 0.0  # rho is NaN on a zero-mass quarter
        return [generate_weight(g1, "counterexample_sigma"),
                generate_weight(g1, "counterexample_w"),
                generate_weight(g1, "power", beta=-0.5),
                generate_weight(g2, "random_cascade", seed=6, volatility=0.8),
                Weight(g2, dens)]

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_same_bits(self, spread, cpus):
        serial = self.weights()  # 1024 leaves: one block, one tile
        for w in serial:
            w.rho_levels  # built now, before BLOCK shrinks
        pools = spread(16, cpus)  # 64 blocks, 64 tiles
        threaded = self.weights()
        for a, b in zip(serial, threaded):
            assert a.leaf_density.tobytes() == b.leaf_density.tobytes()
            assert _bytes(a.mass_levels) == _bytes(b.mass_levels)
            assert _bytes(a.rho_levels) == _bytes(b.rho_levels)
        # three generators and five rho pyramids, each on its own pool
        assert pools == ([] if cpus == 1 else [2] * 8)
