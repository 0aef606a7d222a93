import concurrent.futures
import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest
from scipy.special import zeta as hurwitz_zeta

import sparsebump.bumps
import sparsebump.grid
from oracles import bump_reports_oracle, fix_const, fix_half, scaled, sup_oracle
from sparsebump.bumps import (
    EntropyFunction,
    ExponentConfig,
    PairScan,
    direct_bumps,
    entropy_bumps,
    eps_eval,
)
from sparsebump.grid import GridConfig, parse_cube
from sparsebump.weights import Weight, fix_ce, generate_weight, rho

LN2 = math.log(2.0)

# frozen regression: joint constant of the counterexample pair at N=8,
# p = q = 2, alpha = 0 (computed once from the closed-form masses)
FIX_CE8_A = 0.9970749155784523


class TestExponentConfig:
    def test_duals_satisfy_holder_identity(self):
        for p, q in [(2.0, 4.0), (1.5, 3.0), (2.0, 2.5), (3.0, 7.0)]:
            cfg = ExponentConfig(p, q, 0.0)
            assert abs(1 / cfg.p + 1 / cfg.p_dual - 1) <= 1e-14
            assert abs(1 / cfg.q + 1 / cfg.q_dual - 1) <= 1e-14

    def test_strict_mode_rejects_diagonal(self):
        # no mode: the diagonal p = q is accepted, and only p > q is rejected
        ExponentConfig(2.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="need p <= q"):
            ExponentConfig(3.0, 2.0, 0.0)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            ExponentConfig(1.0, 2.0, 0.0)
        with pytest.raises(ValueError):
            ExponentConfig(3.0, 2.0, 0.0)
        with pytest.raises(ValueError, match="q must be finite"):
            ExponentConfig(2.0, math.inf, 0.0)
        with pytest.raises(ValueError, match=r"need 0 <= alpha < d, got alpha=-0.5"):
            ExponentConfig(2.0, 3.0, -0.5)

    def test_fields_are_p_q_alpha(self):
        # the dimension is the grid's, and the diagonal case is p = q
        assert [f.name for f in dataclasses.fields(ExponentConfig)] == ["p", "q", "alpha"]

    def test_swapped_exchanges_duals(self):
        cfg = ExponentConfig(2.0, 3.0, 0.25)
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

    @pytest.mark.parametrize("delta", [math.inf, math.nan, -math.inf])
    def test_delta_must_be_finite(self, delta):
        # at delta = inf every score is inf or NaN, which leaves the scan no candidate
        for kind in ("entropy", "direct"):
            with pytest.raises(ValueError, match=f"need a finite delta > 0, got {delta}"):
                EntropyFunction(kind, delta)


class TestTailSums:
    def test_entropy_tail_matches_hurwitz_zeta(self):
        # sum_{r>=0} (1 + r ln2)^{-(1+d)} = zeta(1+d, 1/ln2) / ln2^{1+d}
        for delta in (0.5, 1.0, 2.0):
            truth = float(hurwitz_zeta(1 + delta, 1 / LN2)) / LN2 ** (1 + delta)
            got = EntropyFunction("entropy", delta).tail_sum
            assert truth <= got <= truth + 1e-6  # tight upper bound

    def test_direct_is_twice_entropy_minus_one(self):
        for delta in (0.5, 1.0, 3.0):
            e = EntropyFunction("entropy", delta).tail_sum
            d = EntropyFunction("direct", delta).tail_sum
            assert d == pytest.approx(2 * e - 1, rel=1e-12)

    def test_partial_sum_holds_one_block(self):
        # delta = 0.1 runs about 50 blocks of 65,536 terms before a term drops below 1e-7
        tracemalloc.start()
        try:
            sparsebump.bumps._one_sided_tail_sum.__wrapped__(0.1)  # past the cache
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * 65536 * 8

    def test_monotone_in_delta(self):
        assert (EntropyFunction("entropy", 9.0).tail_sum
                < EntropyFunction("entropy", 1.0).tail_sum)

    def test_partial_sums_never_exceed_bound(self):
        eps = EntropyFunction("entropy", 0.75)
        r = np.arange(10**5, dtype=float)
        partial = float(np.sum((1 + r * LN2) ** -(1.75)))
        assert partial < eps.tail_sum


def joint_constant(sigma, w, cfg):
    """The joint constant A of a pair, as every BumpReport carries it."""
    return entropy_bumps(sigma, w, cfg, EntropyFunction("entropy", 1.0))


def at_cube(levels, cube):
    """The one-entry vector of a per-level array at `cube`."""
    return levels[cube.level].reshape(-1)[[np.ravel_multi_index(cube.index, levels[cube.level].shape)]]


def witness_joint(sigma, w, cfg, cube):
    """The joint factor w^{1/q} sigma^{1/p'} |Q|^{alpha/d - 1} at `cube` as a
    one-entry vector, multiplied in the order of the scan's exact values, so
    a constant recomputed at its argmax must equal the scan's bit for bit."""
    joint = at_cube(w.mass_levels, cube) ** (1.0 / cfg.q) * at_cube(sigma.mass_levels, cube) ** (1.0 / cfg.p_dual)
    joint *= 2.0 ** (cube.level * (cube.dimension - cfg.alpha))
    return joint


class TestJointConstant:
    def test_diagonal_constant_weight_is_one(self):
        s, w = fix_const()
        res = joint_constant(s, w, ExponentConfig(2, 2, 0.0))
        assert res.constants["A"] == pytest.approx(1.0, abs=1e-15)

    def test_off_diagonal_attained_at_leaves(self):
        s, w = fix_const()
        res = joint_constant(s, w, ExponentConfig(2, 4, 0.0))
        assert res.constants["A"] == pytest.approx(2.0, abs=1e-14)  # 2^{N/4}, N=4
        assert res.argmax["A"].level == 4

    def test_counterexample_regression(self):
        sigma, w = fix_ce(8)
        res = joint_constant(sigma, w, ExponentConfig(2, 2, 0.0))
        assert res.constants["A"] == pytest.approx(FIX_CE8_A, rel=1e-12)

    def test_scale_covariance(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=1, volatility=0.7)
        w = generate_weight(g, "random_cascade", seed=2, volatility=0.7)
        cfg = ExponentConfig(2, 3, 0.0)
        base = joint_constant(sigma, w, cfg).constants["A"]
        a_scaled = joint_constant(scaled(sigma, 5.0), w, cfg).constants["A"]
        assert a_scaled == pytest.approx(5.0 ** (1 / cfg.p_dual) * base, rel=1e-12)


class TestEntropyBumps:
    def test_constant_weight_collapse(self):
        s, w = fix_const()
        rep = entropy_bumps(s, w, ExponentConfig(2, 4, 0.0), EntropyFunction("entropy", 1.0))
        assert rep.constants["E"] == pytest.approx(2.0, abs=1e-14)
        assert rep.constants["A"] == rep.constants["E"]

    def test_dominates_joint_constant(self):
        g = GridConfig(1, 7)
        cfg = ExponentConfig(2, 3, 0.25)
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
            entropy_bumps(s, w, ExponentConfig(2, 4, 0.0), EntropyFunction("direct", 1.0))

    def test_dual_variants_agree_when_weights_match(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=5, volatility=0.6)
        rep = entropy_bumps(sigma, sigma, ExponentConfig(2, 3, 0.0),
                            EntropyFunction("entropy", 0.5))
        assert rep.constants["E_star_printed"] == rep.constants["E_star_symmetric"]

    def test_counterexample_bump_grows_with_refinement(self):
        cfg = ExponentConfig(2, 2, 0.0)
        eps = EntropyFunction("entropy", 0.5)
        e8 = entropy_bumps(*fix_ce(8), cfg, eps).constants["E"]
        e16 = entropy_bumps(*fix_ce(16), cfg, eps).constants["E"]
        assert e16 > e8

    def test_argmax_witness_recomputes_exactly(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=21, volatility=0.8)
        w = generate_weight(g, "random_cascade", seed=22, volatility=0.8)
        cfg = ExponentConfig(2, 3, 0.5)
        eps = EntropyFunction("entropy", 1.0)
        rep = entropy_bumps(sigma, w, cfg, eps)
        q = rep.argmax["E"]
        joint = witness_joint(sigma, w, cfg, q)
        r = at_cube(sigma.rho_levels, q)
        recomputed = eps_eval(eps, r) ** (1.0 / cfg.q)
        recomputed *= joint * r ** (1.0 / cfg.q)
        assert recomputed.tolist() == [rep.constants["E"]]
        assert rep.rho_at_argmax["E"] == rho(sigma, q) == r[0]


class TestDirectBumps:
    def test_constant_weight_collapse(self):
        s, w = fix_const()
        rep = direct_bumps(s, w, ExponentConfig(2, 4, 0.0), EntropyFunction("direct", 1.0))
        assert rep.constants["D"] == pytest.approx(2.0, abs=1e-14)

    def test_dominates_joint_constant(self):
        g = GridConfig(1, 7)
        cfg = ExponentConfig(2, 3, 0.0)
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
            direct_bumps(s, w, ExponentConfig(2, 4, 0.0), EntropyFunction("entropy", 1.0))

    def test_counterexample_bump_stabilizes(self):
        cfg = ExponentConfig(2, 2, 0.0)
        eps = EntropyFunction("direct", 0.5)
        d12 = direct_bumps(*fix_ce(12), cfg, eps).constants["D"]
        d16 = direct_bumps(*fix_ce(16), cfg, eps).constants["D"]
        assert 0.95 <= d16 / d12 <= 1.05

    def test_argmax_witness_recomputes_exactly(self):
        g = GridConfig(1, 6)
        sigma = generate_weight(g, "random_cascade", seed=31, volatility=0.8)
        w = generate_weight(g, "random_cascade", seed=32, volatility=0.8)
        cfg = ExponentConfig(2, 3, 0.0)
        eps = EntropyFunction("direct", 1.0)
        rep = direct_bumps(sigma, w, cfg, eps)
        q = rep.argmax["D"]
        recomputed = eps_eval(eps, at_cube(sigma.mass_levels, q) * 2.0 ** (q.dimension * q.level)) ** (1.0 / cfg.q)
        recomputed *= witness_joint(sigma, w, cfg, q)
        assert recomputed.tolist() == [rep.constants["D"]]


def test_report_serialization_shape():
    s, w = fix_const()
    rep = entropy_bumps(s, w, ExponentConfig(2, 4, 0.0), EntropyFunction("entropy", 1.0))
    out = rep.to_dict()
    assert set(out) >= {"A", "E", "E_star_printed", "E_star_symmetric",
                        "argmax", "rho_at_argmax", "eps"}
    assert out["eps"]["kind"] == "entropy"
    assert isinstance(out["argmax"]["E"], str)


def _chunk_inputs(kind, d):
    """A weight pair of each kind on a small d-dimensional grid, built fresh
    so that rho_levels is computed under the current BLOCK."""
    g = GridConfig(d, {1: 6, 2: 3, 3: 2}[d])
    if kind == "constant":
        return generate_weight(g, "constant", value=1.0), generate_weight(g, "constant", value=2.0)
    sigma = generate_weight(g, "random_cascade", seed=41, volatility=0.8)
    w = generate_weight(g, "random_cascade", seed=42, volatility=0.8)
    if kind == "zero_quarter":
        dens = sigma.leaf_density.copy()
        dens[(slice(0, 2 ** g.leaf_level // (4 if d == 1 else 2)),) * d] = 0.0
        sigma = Weight(g, dens)
    return sigma, w


class TestChunkedScan:
    @pytest.mark.parametrize("block", [1, 2, 3, 5])
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("p,q", [(2.0, 2.0), (2.0, 3.0)])
    @pytest.mark.parametrize("kind", ["constant", "cascade", "zero_quarter"])
    def test_chunks_match_single_chunk_report(self, monkeypatch, block, d, p, q, kind):
        cfg = ExponentConfig(p, q, 0.0)
        eps_e, eps_d = EntropyFunction("entropy", 0.5), EntropyFunction("direct", 0.5)
        whole = [entropy_bumps(*_chunk_inputs(kind, d), cfg, eps_e).to_dict(),
                 direct_bumps(*_chunk_inputs(kind, d), cfg, eps_d).to_dict()]
        monkeypatch.setattr(sparsebump.grid, "BLOCK", block)
        chunked = [entropy_bumps(*_chunk_inputs(kind, d), cfg, eps_e).to_dict(),
                   direct_bumps(*_chunk_inputs(kind, d), cfg, eps_d).to_dict()]
        assert chunked == whole
        if kind == "constant":
            # every cube of a level ties: the first cube wins across chunks
            for report in chunked:
                assert all(parse_cube(text).index == (0,) * d for text in report["argmax"].values())

    def test_distinct_exponents_in_caller_order(self):
        sigma, w = _chunk_inputs("cascade", 1)
        cfg = ExponentConfig(2.0, 3.0, 0.0)
        eps = EntropyFunction("entropy", 0.5)
        both = sup_oracle(sigma, w, cfg, sigma, eps, (0.5, 0.25, 0.5))
        assert both == [*sup_oracle(sigma, w, cfg, sigma, eps, (0.5,)),
                        *sup_oracle(sigma, w, cfg, sigma, eps, (0.25,)),
                        *sup_oracle(sigma, w, cfg, sigma, eps, (0.5,))]


def _leaf_inputs(kind):
    """A d=1 pair: the counterexample at N=4, whose E argmax is the last
    leaf, and at N=8, where it is the root and A's is the last leaf; an N=4
    cascade whose E argmax is the level-3 cube 3:7; and that cascade with a
    zero-mass quarter of leaves on sigma."""
    if kind.startswith("ce"):
        return fix_ce(int(kind[2:]))
    g = GridConfig(1, 4)
    sigma = generate_weight(g, "random_cascade", seed=1, volatility=0.9)
    w = generate_weight(g, "random_cascade", seed=11, volatility=0.9)
    if kind == "zero_quarter":
        dens = sigma.leaf_density.copy()
        dens[:4] = 0.0
        sigma = Weight(g, dens)
    return sigma, w


class TestLeafItems:
    """rho is 1 on every leaf of positive mass, so the scan adds no entropy
    bump on leaf cells; every other cube keeps its bump, whether or not the
    leaf level shares its item."""

    EPS = EntropyFunction("entropy", 0.5)

    @pytest.mark.parametrize("packed", [False, True])
    @pytest.mark.parametrize("kind,cfg,argmax", [
        ("ce4", ExponentConfig(2.0, 2.0, 0.0), "4:15"),
        ("ce8", ExponentConfig(2.0, 2.0, 0.0), "0:0"),
        ("cascade", ExponentConfig(2.0, 3.0, 0.0), "3:7"),
        ("zero_quarter", ExponentConfig(2.0, 3.0, 0.0), "3:7"),
    ])
    def test_found_matches_oracle(self, spread, packed, kind, cfg, argmax):
        sigma, w = _leaf_inputs(kind)
        [a] = sup_oracle(sigma, w, cfg)
        e, e_printed = sup_oracle(sigma, w, cfg, sigma, self.EPS, (1.0 / cfg.q, 1.0 / cfg.p_dual))
        [e_symmetric] = sup_oracle(sigma, w, cfg, w, self.EPS, (1.0 / cfg.p_dual,))
        assert e[1].text == argmax
        n = sigma.grid.leaf_level
        # a block of the leaf count makes the leaves an item of their own
        spread(2 ** (n + packed), 1)
        sigma, w = _leaf_inputs(kind)
        levels = [[k for k, _ in item] for item in sparsebump.bumps._items(sigma.grid)]
        assert levels == ([list(range(n + 1))] if packed else [list(range(n)), [n]])
        found = PairScan(sigma, w, cfg, entropy=self.EPS).found
        assert found == {"A": a, "E": e, "E_star_printed": e_printed, "E_star_symmetric": e_symmetric}


def _shared_reports(sigma, w, cfg, eps_e, eps_d):
    """Both reports of a pair from one shared scan, as the suite takes them."""
    scan = PairScan(sigma, w, cfg, eps_e, eps_d)
    return (entropy_bumps(sigma, w, cfg, eps_e, scan=scan),
            direct_bumps(sigma, w, cfg, eps_d, scan=scan))


class TestBlockwise:
    """The bump pass gives the same bits on a thread pool (`grid.blockwise`)
    as in one serial pass."""

    @staticmethod
    def reports(kind, d, cfg):
        sigma, w = _chunk_inputs(kind, d)
        return [r.to_dict() for r in _shared_reports(sigma, w, cfg, EntropyFunction("entropy", 0.5),
                                                     EntropyFunction("direct", 0.5))]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("kind", ["constant", "cascade", "zero_quarter"])
    def test_same_bits(self, spread, cpus, d, kind):
        cfg = ExponentConfig(2.0, 3.0, 0.0)
        serial = self.reports(kind, d, cfg)
        pools = spread(4, cpus)  # 64 leaves: 16 blocks of 4
        assert self.reports(kind, d, cfg) == serial
        # two rho pyramids and one pass for all six constants
        assert pools == ([] if cpus == 1 else [2] * 3)

    @pytest.mark.parametrize("d", [1, 2])
    def test_no_rho_pyramid_of_w_without_e_star_symmetric(self, spread, d):
        cfg = ExponentConfig(2.0, 3.0, 0.0)
        eps = (EntropyFunction("entropy", 0.5), EntropyFunction("direct", 0.5))
        want = self.reports("cascade", d, cfg)
        for part in (want[0], want[0]["argmax"], want[0]["rho_at_argmax"]):
            del part["E_star_symmetric"]
        sigma, w = _chunk_inputs("cascade", d)
        pools = spread(4, 2)
        scan = PairScan(sigma, w, cfg, *eps, names=("A", "E", "E_star_printed", "D", "D_star"))
        got = [entropy_bumps(sigma, w, cfg, eps[0], scan=scan).to_dict(),
               direct_bumps(sigma, w, cfg, eps[1], scan=scan).to_dict()]
        assert got == want
        # sigma's rho pyramid and one pass, one pool fewer than a full scan
        assert pools == [2] * 2 and "rho_levels" not in w.__dict__

    def test_workspaces_under_thread_switching(self, spread):
        # more workers than CPUs, switching threads every microsecond: a
        # workspace handed to two items at once would mix their scores
        serial = self.reports("cascade", 1, ExponentConfig(2.0, 3.0, 0.25))
        interval = sys.getswitchinterval()
        pools = spread(2, 8)
        try:
            sys.setswitchinterval(1e-6)
            for _ in range(5):
                assert self.reports("cascade", 1, ExponentConfig(2.0, 3.0, 0.25)) == serial
        finally:
            sys.setswitchinterval(interval)
        assert set(pools) == {8}

    def test_a_serial_pass_allocates_its_rows_once(self, monkeypatch):
        # at d=1 N=17 the first item packs levels 0-15 (65,535 cells) and the
        # next three hold BLOCK = 65,536 each: the five rows of the one
        # workspace are sized to the largest item before the first
        sigma, w = fix_ce(17)
        sigma.rho_levels, w.rho_levels
        sizes, empty = [], np.empty

        def counted(shape, *args, **kwargs):
            sizes.append(shape)
            return empty(shape, *args, **kwargs)

        monkeypatch.setattr(np, "empty", counted)
        entropy_bumps(sigma, w, ExponentConfig(2.0, 2.0, 0.0), EntropyFunction("entropy", 0.5))
        assert [s for s in sizes if np.prod(s) >= 2**15] == [2**16] * 5

    @pytest.mark.parametrize("block,spreads", [(512, True), (1024, False)])
    def test_eight_blocks_gate(self, spread, block, spreads):
        # d=1 N=12 is 8 blocks of 512 leaves, or 4 blocks of 1024
        pools = spread(block, 4)
        sigma, w = fix_ce(12)
        entropy_bumps(sigma, w, ExponentConfig(2.0, 2.0, 0.0),
                      EntropyFunction("entropy", 0.5))
        assert bool(pools) == spreads and set(pools) <= {4}

    @pytest.mark.parametrize("d,n", [(1, 18), (2, 9)])
    def test_no_pool_below_the_gate(self, monkeypatch, d, n):
        # the largest grids below 8 default blocks run serially, whatever
        # the number of CPUs
        def refuse(*args, **kwargs):
            raise AssertionError("thread pool built below the gate")

        monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", refuse)
        monkeypatch.setattr(sparsebump.grid, "available_cpus", lambda: 8)
        g = GridConfig(d, n)
        sigma, w = fix_ce(n) if d == 1 else (
            generate_weight(g, "random_cascade", seed=1, volatility=0.5),
            generate_weight(g, "random_cascade", seed=2, volatility=0.5))
        cfg = ExponentConfig(2.0, 2.0, 0.0)
        entropy_bumps(sigma, w, cfg, EntropyFunction("entropy", 0.5))
        direct_bumps(sigma, w, cfg, EntropyFunction("direct", 0.5))


def _fused_inputs(kind, d):
    """A weight pair of each kind: random cascades; the constant weight 3 on
    both sides, where at p = q the exact values of several levels tie and the
    first cube must win; and fix_half, whose zero-mass cubes sit on sigma,
    on w or on both."""
    if kind == "cascade":
        g = GridConfig(d, {1: 8, 2: 4, 3: 3}[d])
        return (generate_weight(g, "random_cascade", seed=51, volatility=0.8),
                generate_weight(g, "random_cascade", seed=52, volatility=0.8))
    if kind == "constant":
        c = generate_weight(GridConfig(d, {1: 10, 2: 5, 3: 3}[d]), "constant", value=3.0)
        return c, c
    half = fix_half()
    const = generate_weight(half.grid, "constant", value=1.0)
    return {"half_sigma": (half, const), "half_w": (const, half), "half_both": (half, half)}[kind]


FUSED_CASES = [("cascade", 1), ("cascade", 2), ("cascade", 3), ("constant", 1), ("constant", 2), ("constant", 3),
               ("half_sigma", 1), ("half_w", 1), ("half_both", 1)]


class TestFusedPass:
    """Every constant, argmax and rho at the argmax of the one-pass scan
    equals the per-cube oracle, which evaluates every cube exactly."""

    EPS = (EntropyFunction("entropy", 0.5), EntropyFunction("direct", 0.5))

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("p,q,alpha", [(2.0, 3.0, 0.25), (2.0, 2.0, 0.0), (1.5, 1.5, 0.0)])
    @pytest.mark.parametrize("kind,d", FUSED_CASES)
    def test_matches_oracle(self, spread, cpus, p, q, alpha, kind, d):
        sigma, w = _fused_inputs(kind, d)
        cfg = ExponentConfig(p, q, alpha)
        want = [r.to_dict() for r in bump_reports_oracle(sigma, w, cfg, *self.EPS)]
        spread(16, cpus)  # chunks of 16 cells; a pool on 128 leaves or more
        sigma, w = _fused_inputs(kind, d)
        assert [r.to_dict() for r in _shared_reports(sigma, w, cfg, *self.EPS)] == want
        # standalone, each report scans only its own constants
        assert [entropy_bumps(sigma, w, cfg, self.EPS[0]).to_dict(),
                direct_bumps(sigma, w, cfg, self.EPS[1]).to_dict()] == want

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize("p,q,alpha", [(2.0, 3.0, 0.25), (2.0, 2.0, 0.0), (1.5, 1.5, 0.0)])
    @pytest.mark.parametrize("kind,d", FUSED_CASES)
    def test_restricted_scan_matches_full_scan(self, spread, cpus, p, q, alpha, kind, d):
        # the counterexample study's scan of A, E and D: each of them the
        # same value and argmax as in the scan of all six and in the oracle
        sigma, w = _fused_inputs(kind, d)
        cfg = ExponentConfig(p, q, alpha)
        oracle = bump_reports_oracle(sigma, w, cfg, *self.EPS)
        spread(16, cpus)
        full = PairScan(*_fused_inputs(kind, d), cfg, *self.EPS).found
        restricted = PairScan(*_fused_inputs(kind, d), cfg, *self.EPS, names=("A", "E", "D")).found
        assert list(restricted) == ["A", "E", "D"]
        for name, found in restricted.items():
            report = oracle[name == "D"]
            assert found == full[name] == (report.constants[name], report.argmax[name])

    def test_restricted_scan_refuses_unknown_and_unscanned_names(self):
        sigma, w = _fused_inputs("cascade", 1)
        cfg = ExponentConfig(2.0, 3.0, 0.0)
        with pytest.raises(ValueError, match=r"unknown constants \['F'\]"):
            PairScan(sigma, w, cfg, *self.EPS, names=("A", "F"))
        with pytest.raises(ValueError, match=r"no eps in the scan for \['D'\]"):
            PairScan(sigma, w, cfg, entropy=self.EPS[0], names=("E", "D"))

    @pytest.mark.parametrize("d", [1, 2])
    def test_zero_margin_picks_a_later_tying_cube(self, monkeypatch, d):
        # constant weight 3 at p = q = 2: the exact value at the first cube
        # of several levels is the same, but their log scores differ in the
        # last bits, so without the margin a later cube wins
        sigma, w = _fused_inputs("constant", d)
        cfg = ExponentConfig(2.0, 2.0, 0.0)
        want = bump_reports_oracle(sigma, w, cfg, *self.EPS)
        assert [r.argmax for r in _shared_reports(sigma, w, cfg, *self.EPS)] == [r.argmax for r in want]
        monkeypatch.setattr(sparsebump.bumps, "SCORE_MARGIN", 0.0)
        for got, oracle in zip(_shared_reports(sigma, w, cfg, *self.EPS), want):
            assert all(got.argmax[name] != cube for name, cube in oracle.argmax.items())

    def test_scan_of_another_pair_is_refused(self):
        sigma, w = _fused_inputs("cascade", 1)
        cfg = ExponentConfig(2.0, 3.0, 0.0)
        scan = PairScan(sigma, w, cfg, *self.EPS)
        with pytest.raises(ValueError, match="scan is of another pair"):
            entropy_bumps(w, sigma, cfg, self.EPS[0], scan=scan)
        with pytest.raises(ValueError, match="scan is of another pair"):
            direct_bumps(sigma, w, cfg, EntropyFunction("direct", 1.0), scan=scan)
