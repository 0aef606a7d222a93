import math

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

from sparsebump.bumps import (
    EntropyFunction,
    ExponentConfig,
    direct_bumps,
    entropy_bumps,
    eps_eval,
    eps_tail_sum,
    joint_apq_constant,
)
from sparsebump.grid import GridConfig
from sparsebump.maximal import rho
from sparsebump.weights import average, fix_ce, fix_const, generate_weight, mass

LN2 = math.log(2.0)

# frozen regression: joint constant of the counterexample pair at N=8,
# p = q = 2, alpha = 0 (computed once from the closed-form masses)
FIX_CE8_A = 0.9970749155784523


class TestExponentConfig:
    def test_duals_satisfy_holder_identity(self):
        for p, q in [(2.0, 4.0), (1.5, 3.0), (2.0, 2.5), (3.0, 7.0)]:
            cfg = ExponentConfig(p, q, 0.0, 1)
            assert abs(1 / cfg.p + 1 / cfg.p_dual - 1) <= 1e-14
            assert abs(1 / cfg.q + 1 / cfg.q_dual - 1) <= 1e-14

    def test_strict_mode_rejects_diagonal(self):
        with pytest.raises(ValueError):
            ExponentConfig(2.0, 2.0, 0.0, 1)
        ExponentConfig(2.0, 2.0, 0.0, 1, "extended")  # allowed

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ExponentConfig(1.0, 2.0, 0.0, 1)
        with pytest.raises(ValueError):
            ExponentConfig(2.0, 3.0, 1.0, 1)
        with pytest.raises(ValueError):
            ExponentConfig(3.0, 2.0, 0.0, 1)

    def test_swapped_exchanges_duals(self):
        cfg = ExponentConfig(2.0, 3.0, 0.25, 1)
        sw = cfg.swapped()
        assert sw.p == pytest.approx(cfg.q_dual)
        assert sw.q == pytest.approx(cfg.p_dual)
        assert sw.swapped().p == pytest.approx(cfg.p)


class TestEpsEval:
    def test_value_one_at_one(self):
        for kind in ("entropy", "direct"):
            for delta in (0.5, 1.0, 3.0):
                assert eps_eval(EntropyFunction(kind, delta), 1.0) == 1.0

    def test_entropy_at_e(self):
        assert eps_eval(EntropyFunction("entropy", 1.0), math.e) == pytest.approx(4.0, rel=1e-14)

    def test_direct_symmetry_at_inverse_e(self):
        eps = EntropyFunction("direct", 1.0)
        assert eps_eval(eps, 1 / math.e) == pytest.approx(4.0, rel=1e-14)
        t = 2.7
        assert eps_eval(eps, t) == pytest.approx(eps_eval(eps, 1 / t), rel=1e-12)

    def test_monotonicity(self):
        eps_e = EntropyFunction("entropy", 0.7)
        ts = np.linspace(1.0, 50.0, 200)
        vals = eps_eval(eps_e, ts)
        assert np.all(np.diff(vals) >= 0)
        assert np.all(eps_eval(eps_e, np.linspace(0.01, 1.0, 50)) == 1.0)
        eps_d = EntropyFunction("direct", 0.7)
        left = eps_eval(eps_d, np.linspace(0.01, 0.99, 100))
        assert np.all(np.diff(left) < 0)
        right = eps_eval(eps_d, np.linspace(1.01, 50, 100))
        assert np.all(np.diff(right) > 0)

    def test_nonpositive_argument_raises(self):
        eps = EntropyFunction("entropy", 1.0)
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                eps_eval(eps, bad)

    def test_kind_validation(self):
        with pytest.raises(ValueError):
            EntropyFunction("orlicz", 1.0)
        with pytest.raises(ValueError):
            EntropyFunction("entropy", 0.0)


class TestTailSums:
    def test_entropy_tail_matches_hurwitz_zeta(self):
        # sum_{r>=0} (1 + r ln2)^{-(1+d)} = zeta(1+d, 1/ln2) / ln2^{1+d}
        for delta in (0.5, 1.0, 2.0):
            truth = float(hurwitz_zeta(1 + delta, 1 / LN2)) / LN2 ** (1 + delta)
            got = eps_tail_sum(EntropyFunction("entropy", delta))
            assert truth <= got <= truth + 1e-6  # tight upper bound

    def test_direct_is_twice_entropy_minus_one(self):
        for delta in (0.5, 1.0, 3.0):
            e = eps_tail_sum(EntropyFunction("entropy", delta))
            d = eps_tail_sum(EntropyFunction("direct", delta))
            assert d == pytest.approx(2 * e - 1, rel=1e-12)

    def test_monotone_in_delta(self):
        assert (eps_tail_sum(EntropyFunction("entropy", 9.0))
                < eps_tail_sum(EntropyFunction("entropy", 1.0)))

    def test_partial_sums_never_exceed_bound(self):
        eps = EntropyFunction("entropy", 0.75)
        r = np.arange(10**5, dtype=float)
        partial = float(np.sum((1 + r * LN2) ** -(1.75)))
        assert partial < eps.tail_sum


class TestJointConstant:
    def test_diagonal_constant_weight_is_one(self):
        s, w = fix_const()
        res = joint_apq_constant(s, w, ExponentConfig(2, 2, 0.0, 1, "extended"))
        assert res["A"] == pytest.approx(1.0, abs=1e-15)

    def test_off_diagonal_attained_at_leaves(self):
        s, w = fix_const()
        res = joint_apq_constant(s, w, ExponentConfig(2, 4, 0.0, 1))
        assert res["A"] == pytest.approx(2.0, abs=1e-14)  # 2^{N/4}, N=4
        assert res["argmax"].level == 4

    def test_counterexample_regression(self):
        sigma, w = fix_ce(8)
        res = joint_apq_constant(sigma, w, ExponentConfig(2, 2, 0.0, 1, "extended"))
        assert res["A"] == pytest.approx(FIX_CE8_A, rel=1e-12)

    def test_scale_covariance(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=1, volatility=0.7)
        w = generate_weight(g, "random_cascade", seed=2, volatility=0.7)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        base = joint_apq_constant(sigma, w, cfg)["A"]
        scaled = joint_apq_constant(sigma.scaled(5.0), w, cfg)["A"]
        assert scaled == pytest.approx(5.0 ** (1 / cfg.p_dual) * base, rel=1e-12)


class TestEntropyBumps:
    def test_constant_weight_collapse(self):
        s, w = fix_const()
        rep = entropy_bumps(s, w, ExponentConfig(2, 4, 0.0, 1), EntropyFunction("entropy", 1.0))
        assert rep.constants["E"] == pytest.approx(2.0, abs=1e-14)
        assert rep.constants["A"] == rep.constants["E"]

    def test_dominates_joint_constant(self):
        g = GridConfig(1, 7)
        cfg = ExponentConfig(2, 3, 0.25, 1)
        eps = EntropyFunction("entropy", 1.0)
        for seed in range(6):
            sigma = generate_weight(g, "random_cascade", seed=seed, volatility=0.8)
            w = generate_weight(g, "random_cascade", seed=seed + 100, volatility=0.8)
            rep = entropy_bumps(sigma, w, cfg, eps)
            assert rep.constants["E"] >= rep.constants["A"]
            assert rep.constants["E_star_symmetric"] >= rep.constants["A"]

    def test_wrong_eps_kind_raises(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="direct eps passed to entropy bump"):
            entropy_bumps(s, w, ExponentConfig(2, 4, 0.0, 1), EntropyFunction("direct", 1.0))

    def test_dual_variants_agree_when_weights_match(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=5, volatility=0.6)
        rep = entropy_bumps(sigma, sigma, ExponentConfig(2, 3, 0.0, 1),
                            EntropyFunction("entropy", 0.5))
        assert rep.constants["E_star_printed"] == rep.constants["E_star_symmetric"]

    def test_counterexample_bump_grows_with_refinement(self):
        cfg = ExponentConfig(2, 2, 0.0, 1, "extended")
        eps = EntropyFunction("entropy", 0.5)
        e8 = entropy_bumps(*fix_ce(8), cfg, eps).constants["E"]
        e16 = entropy_bumps(*fix_ce(16), cfg, eps).constants["E"]
        assert e16 > e8

    def test_argmax_witness_recomputes_exactly(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=21, volatility=0.8)
        w = generate_weight(g, "random_cascade", seed=22, volatility=0.8)
        cfg = ExponentConfig(2, 3, 0.5, 1)
        eps = EntropyFunction("entropy", 1.0)
        rep = entropy_bumps(sigma, w, cfg, eps)
        q = rep.argmax["E"]
        scale = 2.0 ** (q.level * (cfg.d - cfg.alpha))  # |Q|^{alpha/d - 1}
        joint = mass(w, q) ** (1.0 / cfg.q) * mass(sigma, q) ** (1.0 / cfg.p_dual) * scale
        r = rho(sigma, q)
        recomputed = joint * r ** (1.0 / cfg.q) * eps_eval(eps, r) ** (1.0 / cfg.q)
        assert recomputed == rep.constants["E"]
        assert rep.rho_at_argmax["E"] == r


class TestDirectBumps:
    def test_constant_weight_collapse(self):
        s, w = fix_const()
        rep = direct_bumps(s, w, ExponentConfig(2, 4, 0.0, 1), EntropyFunction("direct", 1.0))
        assert rep.constants["D"] == pytest.approx(2.0, abs=1e-14)

    def test_dominates_joint_constant(self):
        g = GridConfig(1, 7)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        eps = EntropyFunction("direct", 1.0)
        for seed in range(6):
            sigma = generate_weight(g, "random_cascade", seed=seed, volatility=0.8)
            w = generate_weight(g, "random_cascade", seed=seed + 200, volatility=0.8)
            rep = direct_bumps(sigma, w, cfg, eps)
            assert rep.constants["D"] >= rep.constants["A"]
            assert rep.constants["D_star"] >= rep.constants["A"]

    def test_wrong_eps_kind_raises(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="entropy eps passed to direct bump"):
            direct_bumps(s, w, ExponentConfig(2, 4, 0.0, 1), EntropyFunction("entropy", 1.0))

    def test_counterexample_bump_stabilizes(self):
        cfg = ExponentConfig(2, 2, 0.0, 1, "extended")
        eps = EntropyFunction("direct", 0.5)
        d12 = direct_bumps(*fix_ce(12), cfg, eps).constants["D"]
        d16 = direct_bumps(*fix_ce(16), cfg, eps).constants["D"]
        assert 0.95 <= d16 / d12 <= 1.05

    def test_argmax_witness_recomputes_exactly(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=31, volatility=0.8)
        w = generate_weight(g, "random_cascade", seed=32, volatility=0.8)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        eps = EntropyFunction("direct", 1.0)
        rep = direct_bumps(sigma, w, cfg, eps)
        q = rep.argmax["D"]
        scale = 2.0 ** (q.level * (cfg.d - cfg.alpha))
        joint = mass(w, q) ** (1.0 / cfg.q) * mass(sigma, q) ** (1.0 / cfg.p_dual) * scale
        recomputed = joint * eps_eval(eps, average(sigma, q)) ** (1.0 / cfg.q)
        assert recomputed == rep.constants["D"]


def test_report_serialization_shape():
    s, w = fix_const()
    rep = entropy_bumps(s, w, ExponentConfig(2, 4, 0.0, 1), EntropyFunction("entropy", 1.0))
    out = rep.to_dict()
    assert set(out) >= {"A", "E", "E_star_printed", "E_star_symmetric",
                        "argmax", "rho_at_argmax", "eps"}
    assert out["eps"]["kind"] == "entropy"
    assert isinstance(out["argmax"]["E"], str)
