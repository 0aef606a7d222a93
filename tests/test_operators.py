import warnings

import numpy as np
import pytest

from sparsebump import operators
from sparsebump.bumps import EntropyFunction, ExponentConfig, PairScan, entropy_bumps
from sparsebump.grid import DyadicCube, GridConfig, leaf_slice, root_cube
from sparsebump.lab import ExperimentConfig, build_instance
from sparsebump.operators import (
    Instance,
    PowerIterationError,
    apply_sparse,
    exact_norm_l2,
    norm_lower_bound,
    primal_indicator_ratios,
    testing_constants,
)
from sparsebump.sparse import SparseFamily, random_sparse, stopping_family
from sparsebump.weights import (
    Weight,
    average,
    generate_weight,
    mass,
)

from oracles import (constant_function, contains, dense_norm_l2_oracle, fix_chain_cubes, fix_const, l2_instance, scaled,
                     volume)

G4 = GridConfig(1, 4)


def chain_family() -> SparseFamily:
    return SparseFamily(G4, frozenset(fix_chain_cubes(G4, 4)), 0.5)


def singleton_family(grid=G4) -> SparseFamily:
    return SparseFamily(grid, frozenset([root_cube(grid)]), 0.5)


def constant_blocks(inst):
    """sigma(Q) per member: the block sums of the constant start, the column
    that the ascent of `exact_norm_l2` starts from."""
    return inst.sigma_mass[:, None]


def random_pair(grid, seed, volatility=0.8):
    sigma = generate_weight(grid, "random_cascade", seed=seed, volatility=volatility)
    w = generate_weight(grid, "random_cascade", seed=seed + 1000, volatility=volatility)
    return sigma, w


class TestApplySparse:
    def test_single_average(self):
        s, _ = fix_const()
        out = apply_sparse(singleton_family(), s, constant_function(G4), 0.0)
        np.testing.assert_allclose(out, 1.0, rtol=1e-15)

    def test_chain_counts_containing_cubes(self):
        # each of the k+1 chain cubes through E_{[0,2^-k)} contributes 1
        s, _ = fix_const()
        fam = chain_family()
        out = apply_sparse(fam, s, constant_function(G4), 0.0)
        expected = np.ones(16)
        for k in range(5):
            expected[leaf_slice(DyadicCube(k, (0,)), G4)] = k + 1
        np.testing.assert_allclose(out, expected, rtol=1e-14)

    def test_fractional_root(self):
        s, _ = fix_const()
        out = apply_sparse(singleton_family(), s, constant_function(G4), 0.5)
        np.testing.assert_allclose(out, 1.0, rtol=1e-15)

    def test_monotone_in_f(self):
        g = GridConfig(1, 6)
        sigma, _ = random_pair(g, 7)
        fam = random_sparse(g, 0.5, seed=3, target_size=20)
        rng = np.random.default_rng(0)
        f = rng.random(64)
        gvals = f + rng.random(64)
        a = apply_sparse(fam, sigma, f, 0.0)
        b = apply_sparse(fam, sigma, gvals, 0.0)
        assert np.all(b >= a)

    def test_unweighted_bilinear_form_is_symmetric(self):
        g = GridConfig(1, 6)
        sigma, _ = random_pair(g, 11)
        fam = random_sparse(g, 0.5, seed=5, target_size=18)
        rng = np.random.default_rng(1)
        f = rng.random(64)
        h = rng.random(64)
        v = g.leaf_volume
        lhs = float(np.sum(apply_sparse(fam, sigma, f, 0.25)
                           * sigma.leaf_density * h) * v)
        rhs = float(np.sum(apply_sparse(fam, sigma, h, 0.25)
                           * sigma.leaf_density * f) * v)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_grid_mismatch_raises(self):
        s, _ = fix_const()
        with pytest.raises(ValueError, match="share one grid"):
            apply_sparse(singleton_family(), s, constant_function(GridConfig(1, 3)), 0.0)


@pytest.mark.parametrize("which", ("family", "sigma", "w"))
def test_instance_rejects_a_second_grid(which):
    s, w = fix_const()
    parts = {"family": singleton_family(), "sigma": s, "w": w}
    other = GridConfig(1, 3)
    parts[which] = (singleton_family(other) if which == "family"
                    else generate_weight(other, "constant", value=1.0))
    with pytest.raises(ValueError, match="share one grid"):
        Instance(parts["family"], parts["sigma"], parts["w"], ExponentConfig(2, 4, 0.0))


@pytest.mark.parametrize("which", ("sigma", "w"))
def test_pair_scan_rejects_a_second_grid(which):
    s, w = fix_const()
    parts = {"sigma": s, "w": w, which: generate_weight(GridConfig(1, 3), "constant", value=1.0)}
    with pytest.raises(ValueError, match="sigma and w must live on the same grid"):
        PairScan(parts["sigma"], parts["w"], ExponentConfig(2, 4, 0.0))


class TestExactNormL2:
    def test_rank_one_projection(self):
        s, w = fix_const()
        assert exact_norm_l2(l2_instance(singleton_family(), s, w, 0.0)) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_dense_oracle(self, seed, l2_stop):
        l2_stop(1e-13)
        g = GridConfig(1, 4)
        sigma, w = random_pair(g, seed)
        fam = random_sparse(g, 0.5, seed=seed, target_size=10)
        a = exact_norm_l2(l2_instance(fam, sigma, w, 0.0))
        b = dense_norm_l2_oracle(fam, sigma, w, 0.0)
        assert a == pytest.approx(b, abs=1e-8)

    def test_matches_dense_oracle_chain(self, l2_stop):
        l2_stop(1e-13)
        s, w = fix_const()
        fam = chain_family()
        a = exact_norm_l2(l2_instance(fam, s, w, 0.0))
        b = dense_norm_l2_oracle(fam, s, w, 0.0)
        assert a == pytest.approx(b, abs=1e-8)

    def test_homogeneity_in_sigma(self, l2_stop):
        l2_stop(1e-13)
        g = GridConfig(1, 4)
        sigma, w = random_pair(g, 40)
        fam = random_sparse(g, 0.5, seed=2, target_size=8)
        base = exact_norm_l2(l2_instance(fam, sigma, w, 0.0))
        norm_scaled = exact_norm_l2(l2_instance(fam, scaled(sigma, 4.0), w, 0.0))
        assert norm_scaled == pytest.approx(2.0 * base, abs=1e-8)  # c^{1/2} with c=4

    def test_nonconvergence_carries_iterates(self, l2_stop):
        # the last two iterates are the Rayleigh quotients of steps
        # L2_MAX_STEPS - 1 and L2_MAX_STEPS: the squared ratios of the ascent
        # from the constant start
        l2_stop(0.0, steps=2)
        g = GridConfig(1, 4)
        sigma, w = random_pair(g, 41)
        fam = random_sparse(g, 0.5, seed=2, target_size=8)
        inst = l2_instance(fam, sigma, w, 0.0)
        with pytest.raises(PowerIterationError) as err:
            exact_norm_l2(inst)
        ratios = list(operators._ascent(inst, constant_blocks(inst), 2))
        assert len(ratios) == 2
        assert err.value.last_two == tuple(float(r[0]) ** 2 for r in ratios)

    def test_fixed_point_ends_the_iteration(self, l2_stop):
        # on the singleton family every iterate is 1 on the one member, so
        # the ascent repeats its first iterate bit for bit at step 2 and ends
        # after one ratio, whose quotient no earlier one can match at tol = 0
        l2_stop(0.0, steps=3)
        s, w = fix_const()
        inst = l2_instance(singleton_family(), s, w, 0.0)
        assert len(list(operators._ascent(inst, constant_blocks(inst), 3))) == 1
        assert exact_norm_l2(inst) == pytest.approx(1.0, abs=1e-12)

    def test_needs_p_and_q_two(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="needs p = q = 2"):
            exact_norm_l2(Instance(singleton_family(), s, w, ExponentConfig(2, 3, 0.0)))

    def test_w_vanishing_on_the_root_gives_zero(self):
        # w is 0 on [1/2, 1), the root of the stopping family, so every
        # iterate vanishes and the iteration stops at the first step
        g = GridConfig(1, 7)
        sigma = generate_weight(g, "random_cascade", seed=5)
        w = Weight(g, np.repeat([1.0, 0.0], g.n_leaves // 2))
        fam = stopping_family(sigma, 2.0, DyadicCube(1, (1,)))
        assert len(fam) > 1
        assert exact_norm_l2(l2_instance(fam, sigma, w, 0.0)) == 0.0 == dense_norm_l2_oracle(fam, sigma, w, 0.0)

    def test_zero_sigma_leaves_excluded(self, l2_stop):
        l2_stop(1e-13)
        g = GridConfig(1, 2)
        sigma = Weight(g, np.array([1.0, 1.0, 0.0, 0.0]))
        w = Weight(g, np.ones(4))
        fam = singleton_family(g)
        a = exact_norm_l2(l2_instance(fam, sigma, w, 0.0))
        b = dense_norm_l2_oracle(fam, sigma, w, 0.0)
        assert a == pytest.approx(b, abs=1e-10)


class TestNormLowerBound:
    def test_projection_attains_one(self):
        s, w = fix_const()
        cfg = ExponentConfig(2, 4, 0.0)
        assert norm_lower_bound(Instance(singleton_family(), s, w, cfg), budget=10) == pytest.approx(1.0, abs=1e-9)

    def test_monotone_in_budget(self):
        g = GridConfig(1, 5)
        sigma, w = random_pair(g, 8)
        fam = random_sparse(g, 0.5, seed=8, target_size=12)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        low = norm_lower_bound(inst, budget=0, seed=5)
        high = norm_lower_bound(inst, budget=40, seed=5)
        assert high >= low

    def test_negative_budget_raises(self):
        s, w = fix_const()
        inst = Instance(singleton_family(), s, w, ExponentConfig(2, 4, 0.0))
        with pytest.raises(ValueError, match="budget must be >= 0, got -1"):
            norm_lower_bound(inst, budget=-1)

    def test_dominates_indicator_candidates(self):
        g = GridConfig(1, 5)
        sigma, w = random_pair(g, 9)
        fam = random_sparse(g, 0.5, seed=9, target_size=12)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.25))
        lb = norm_lower_bound(inst, budget=0)
        # both read one per-R array, so the bound dominates with no tolerance
        for ratio in primal_indicator_ratios(inst):
            assert lb >= ratio

    def test_diagonal_reaches_exact_norm(self, l2_stop):
        l2_stop(1e-13)
        cfg = ExponentConfig(2, 2, 0.0)
        s, w = fix_const()
        fam = chain_family()
        exact = exact_norm_l2(l2_instance(fam, s, w, 0.0))
        lb = norm_lower_bound(Instance(fam, s, w, cfg), budget=200, seed=0)
        assert lb <= exact + 1e-8
        assert lb >= 0.99 * exact

    def test_deterministic_under_seed(self):
        g = GridConfig(1, 5)
        sigma, w = random_pair(g, 10)
        fam = random_sparse(g, 0.5, seed=10, target_size=10)
        cfg = ExponentConfig(2, 3, 0.0)
        a = norm_lower_bound(Instance(fam, sigma, w, cfg), budget=15, seed=3)
        b = norm_lower_bound(Instance(fam, sigma, w, cfg), budget=15, seed=3)
        assert a == b

    @pytest.mark.parametrize("config", [{}, dict(dimension=2, leaf_level=5, family_kind="stopping")],
                             ids=("d1", "d2-stopping"))
    def test_ascent_near_p_one(self, config):
        # at p = 1.01 the ascent takes y ** 100, which overflows to inf (and
        # the iterate to NaN) unless y is scaled first
        cfg = ExperimentConfig(p=1.01, q=50.0, **config)
        for i in range(2):
            sigma, w, fam, s_lb = build_instance(cfg, i)
            inst = Instance(fam, sigma, w, cfg.exponents())
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                start, ascent = (norm_lower_bound(inst, budget=b, seed=s_lb) for b in (0, 25))
            assert np.isfinite(ascent) and ascent >= start

    def test_dominates_dual_testing_terms(self):
        # the adjoint indicator candidates witness the per-R terms of T_star
        g = GridConfig(1, 5)
        sigma, w = random_pair(g, 12)
        fam = random_sparse(g, 0.5, seed=12, target_size=14)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        lb = norm_lower_bound(inst, budget=0)
        rep = testing_constants(inst)
        for term in rep.per_R_star:
            assert lb >= term / (1 + 1e-12)
        assert lb >= rep.T_star / (1 + 1e-12)


def brute_force_t_star(family, sigma, w, cfg):
    """Direct transcription of the dual testing constant, independent of the
    argument-swapping implementation."""
    d = family.grid.dimension
    sigma_exc = dict(zip(family.members, family.exceptional_mass(sigma)))
    best = 0.0
    for r in family.members:
        wr = mass(w, r)
        if wr <= 0:
            continue
        total = 0.0
        for q in family.members:
            if not contains(r, q):
                continue
            total += (volume(q) ** (cfg.alpha / d - 1.0) * mass(w, q)) ** cfg.p_dual * sigma_exc[q]
        best = max(best, wr ** (-1.0 / cfg.q_dual) * total ** (1.0 / cfg.p_dual))
    return best


class TestTestingConstants:
    def test_singleton_collapses_to_one(self):
        s, w = fix_const()
        rep = testing_constants(Instance(singleton_family(), s, w, ExponentConfig(2, 4, 0.0)))
        assert rep.T == pytest.approx(1.0, abs=1e-14)
        assert rep.T_star == pytest.approx(1.0, abs=1e-14)
        assert not rep.extended_warning and rep.mode == "strict"

    def test_chain_diagonal_telescopes(self):
        s, w = fix_const()
        rep = testing_constants(Instance(chain_family(), s, w, ExponentConfig(2, 2, 0.0)))
        # the diagonal case is read off p = q
        assert rep.extended_warning and rep.mode == "extended"
        assert rep.to_dict()["mode"] == "extended" and rep.to_dict()["extended_warning"] is True
        for value in rep.per_R:
            assert value == pytest.approx(1.0, rel=1e-12)
        assert rep.T == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_t_star_matches_brute_force(self, seed):
        g = GridConfig(1, 5)
        sigma, w = random_pair(g, seed + 60)
        fam = random_sparse(g, 0.5, seed=seed, target_size=14)
        cfg = ExponentConfig(2, 3, 0.25)
        rep = testing_constants(Instance(fam, sigma, w, cfg))
        assert rep.T_star == pytest.approx(brute_force_t_star(fam, sigma, w, cfg), rel=1e-12)

    def test_indicator_ratios_dominate_testing_terms(self):
        for seed in range(5):
            g = GridConfig(1, 6)
            sigma, w = random_pair(g, seed + 80)
            if seed % 2:
                fam = stopping_family(sigma, 2.0, root_cube(g))
            else:
                fam = random_sparse(g, 0.5, seed=seed, target_size=20)
            inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
            rep = testing_constants(inst)
            ratios = primal_indicator_ratios(inst)
            for ratio, term in zip(ratios, rep.per_R):
                assert ratio >= term / (1 + 1e-12)

    def test_serialization_shape(self):
        s, w = fix_const()
        rep = testing_constants(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)))
        out = rep.to_dict()
        assert set(out) == {"p", "q", "alpha", "T", "T_star", "argmax_R",
                            "argmax_R_star", "mode", "extended_warning"}


class TestAlphaRule:
    """0 <= alpha < d, with d the grid's, is checked with one message at each
    point where exponents meet a grid."""

    MESSAGE = r"need 0 <= alpha < d, got alpha=1.0"

    def test_alpha_at_d_raises_at_every_meeting_point(self):
        s, w = fix_const()
        cfg = ExponentConfig(2.0, 3.0, 1.0)  # valid until it meets G4, where d = 1
        with pytest.raises(ValueError, match=self.MESSAGE):
            Instance(chain_family(), s, w, cfg)
        with pytest.raises(ValueError, match=self.MESSAGE):
            PairScan(s, w, cfg)
        with pytest.raises(ValueError, match=self.MESSAGE):
            entropy_bumps(s, w, cfg, EntropyFunction("entropy", 1.0))
        with pytest.raises(ValueError, match=self.MESSAGE):
            apply_sparse(chain_family(), s, np.ones(G4.n_leaves), 1.0)
        with pytest.raises(ValueError, match=self.MESSAGE):
            ExperimentConfig(alpha=1.0)

    def test_alpha_below_two_is_accepted_at_d2(self):
        g = GridConfig(2, 3)
        sigma, w = random_pair(g, 5)
        fam = stopping_family(sigma, 2.0, root_cube(g))
        cfg = ExponentConfig(2.0, 3.0, 1.5)
        inst = Instance(fam, sigma, w, cfg)
        assert testing_constants(inst).T > 0
        assert PairScan(sigma, w, cfg).found["A"][0] > 0
        assert apply_sparse(fam, sigma, np.ones(g.n_leaves), 1.5).max() > 0
        ExperimentConfig(dimension=2, leaf_level=3, alpha=1.5)
        with pytest.raises(ValueError, match=r"need 0 <= alpha < d, got alpha=2.0"):
            Instance(fam, sigma, w, ExponentConfig(2.0, 3.0, 2.0))


class TestTwoDimensional:
    G = GridConfig(2, 4)

    def family(self, seed, sigma):
        if seed % 2:
            return stopping_family(sigma, 2.0, root_cube(self.G))
        return random_sparse(self.G, 0.5, seed=seed, target_size=12)

    @pytest.mark.parametrize("seed", range(6))
    def test_exact_norm_matches_dense_oracle(self, seed, l2_stop):
        l2_stop(1e-13)
        sigma, w = random_pair(self.G, seed)
        fam = self.family(seed, sigma)
        a = exact_norm_l2(l2_instance(fam, sigma, w, 0.5))
        b = dense_norm_l2_oracle(fam, sigma, w, 0.5)
        assert a == pytest.approx(b, rel=1e-11)

    def test_apply_monotone_and_symmetric(self):
        sigma, _ = random_pair(self.G, 7)
        fam = self.family(3, sigma)
        rng = np.random.default_rng(2)
        f, h = rng.random((2, 16, 16))
        a = apply_sparse(fam, sigma, f, 0.5)
        b = apply_sparse(fam, sigma, f + h, 0.5)
        assert np.all(b >= a)
        lhs = np.sum(a * sigma.leaf_density * h)
        rhs = np.sum(apply_sparse(fam, sigma, h, 0.5)
                     * sigma.leaf_density * f)
        assert lhs == pytest.approx(rhs, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_testing_constants(self, seed):
        sigma, w = random_pair(self.G, seed + 60)
        fam = self.family(seed, sigma)
        cfg = ExponentConfig(2, 3, 0.5)
        inst = Instance(fam, sigma, w, cfg)
        rep = testing_constants(inst)
        assert rep.T_star == pytest.approx(brute_force_t_star(fam, sigma, w, cfg), rel=1e-12)
        ratios = primal_indicator_ratios(inst)
        lb = norm_lower_bound(inst, budget=0)
        for ratio, term in zip(ratios, rep.per_R):
            assert ratio >= term / (1 + 1e-12)
            assert lb >= ratio
