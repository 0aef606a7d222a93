import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from sparsebump.bumps import BumpReport, EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps
from sparsebump.grid import DyadicCube, GridConfig, root_cube
from sparsebump.operators import Instance, testing_constants
from sparsebump import prooftrace
from sparsebump.prooftrace import (
    SLACK,
    TRACE_SCHEMA,
    _strata,
    direct_trace,
    dual_direct_trace,
    dual_entropy_trace,
    entropy_trace,
)
from sparsebump.sparse import SparseFamily, random_sparse, stopping_family
from sparsebump.weights import Weight, fix_chain_cubes, fix_const, generate_weight

from oracles import bucket_of

G4 = GridConfig(1, 4)
EPS_E = EntropyFunction("entropy", 1.0)
EPS_D = EntropyFunction("direct", 1.0)


def chain_family() -> SparseFamily:
    return SparseFamily(G4, frozenset(fix_chain_cubes(G4, 4)), 0.5)


def random_setup(seed, n=7, lam=0.5, target=22, dimension=1):
    g = GridConfig(dimension, n)
    sigma = generate_weight(g, "random_cascade", seed=seed, volatility=0.8)
    w = generate_weight(g, "random_cascade", seed=seed + 500, volatility=0.8)
    if seed % 2:
        fam = stopping_family(sigma, 1 / lam, root_cube(g))
    else:
        fam = random_sparse(g, lam, seed=seed, target_size=target)
    return fam, sigma, w


def stratify(fam, sigma, key):
    """The strata of the whole family by `key`, with the bucket and maximal
    masks of `_strata` turned into cube lists."""
    keys, a, in_bucket, top = _strata(fam, sigma, key, np.ones(len(fam), dtype=bool),
                                      fam.gather(sigma.mass_levels))
    members = fam.members
    return SimpleNamespace(
        buckets={b: [members[i] for i in np.flatnonzero(col)] for b, col in zip(a.tolist(), in_bucket.T)},
        maximal_cubes={b: [members[i] for i in np.flatnonzero(col)] for b, col in zip(a.tolist(), top.T)},
        key_values=dict(zip(members, keys.tolist())),
    )


class TestBucketing:
    def test_exact_powers_and_interiors(self):
        assert bucket_of(1.0) == 0
        assert bucket_of(2.0) == 1
        assert bucket_of(4.0) == 2
        assert bucket_of(3.0) == 1
        assert bucket_of(0.5) == -1
        assert bucket_of(0.9) == -1
        assert bucket_of(1.75) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            bucket_of(0.0)


class TestStratify:
    def test_constant_weight_single_bucket(self):
        s, _ = fix_const()
        fam = chain_family()
        for key in ("rho", "average"):
            strata = stratify(fam, s, key)
            assert set(strata.buckets) == {0}
            assert strata.maximal_cubes[0] == [root_cube(G4)]
            assert len(strata.buckets[0]) == 5

    def test_stopping_spike_gives_singleton_buckets(self):
        g = GridConfig(1, 2)
        spike = Weight(g, np.array([4.0, 0, 0, 0]))
        fam = stopping_family(spike, 1.5, root_cube(g))  # averages 1, 2, 4
        strata = stratify(fam, spike, "average")
        assert {a: [c.text for c in v] for a, v in strata.buckets.items()} == {
            0: ["0:0"], 1: ["1:0"], 2: ["2:0"]}
        assert strata.maximal_cubes == strata.buckets

    def test_zero_mass_cube_is_named(self):
        g = GridConfig(1, 2)
        spike = Weight(g, np.array([4.0, 0, 0, 0]))
        fam = SparseFamily(g, frozenset([root_cube(g), DyadicCube(1, (1,))]), 0.5)
        with pytest.raises(ValueError, match="zero-mass cube in family: 1:1"):
            stratify(fam, spike, "rho")

    def test_every_cube_in_exactly_one_maximal(self):
        fam, sigma, _ = random_setup(4)
        strata = stratify(fam, sigma, "average")
        total = 0
        from sparsebump.grid import contains

        for a, qs in strata.buckets.items():
            for q in qs:
                owners = [m for m in strata.maximal_cubes[a] if contains(m, q)]
                assert len(owners) == 1
            total += len(qs)
        assert total == len(fam)


class TestEntropyTrace:
    def test_chain_constant_weights(self):
        s, w = fix_const()
        rep = entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0, 1)),
                            EPS_E, root_cube(G4))
        assert rep.passed
        assert rep.lhs_total == pytest.approx(2 - 2.0**-4, abs=0)
        assert rep.identity_error <= 1e-12
        # all rho equal 1: one stratum, realized constant far under 2/(1-lam)
        assert len(rep.strata) == 1
        assert rep.strata[0].realized_constant <= 4.0

    def test_singleton_family(self):
        s, w = fix_const()
        fam = SparseFamily(G4, frozenset([root_cube(G4)]), 0.5)
        rep = entropy_trace(Instance(fam, s, w, ExponentConfig(2, 4, 0.0, 1)), EPS_E, root_cube(G4))
        assert rep.passed

    def test_certificate_matches_testing_constant_at_r(self):
        fam, sigma, w = random_setup(2)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        inst = Instance(fam, sigma, w, cfg)
        rep = entropy_trace(inst, EPS_E, fam.root)
        trep = testing_constants(inst)
        assert rep.testing_value == pytest.approx(trep.per_R[fam.position[fam.root]], rel=1e-12)

    def test_wrong_eps_kind(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="direct eps passed to entropy trace"):
            entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0, 1)),
                          EPS_D, root_cube(G4))

    def test_missing_r_raises(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="not in the family"):
            entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0, 1)),
                          EPS_E, DyadicCube(1, (1,)))

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_stages_pass(self, seed):
        fam, sigma, w = random_setup(seed)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        rep = entropy_trace(Instance(fam, sigma, w, cfg), EPS_E, fam.root)
        assert rep.passed
        assert rep.identity_error <= 1e-12
        for s in rep.strata:
            assert s.a >= 0  # rho >= 1
            assert s.realized_constant <= 2 / (1 - fam.lam) + 1e-12
            assert s.support_ratio <= 1 + 1e-12


class TestDirectTrace:
    def test_chain_constant_weights(self):
        s, w = fix_const()
        rep = direct_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0, 1)),
                           EPS_D, root_cube(G4))
        assert rep.passed

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_stages_pass(self, seed):
        fam, sigma, w = random_setup(seed)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        rep = direct_trace(Instance(fam, sigma, w, cfg), EPS_D, fam.root)
        assert rep.passed
        for s in rep.strata:
            assert s.realized_constant <= 2 / (1 - fam.lam) + 1e-12
            assert s.support_ratio <= 1 + 1e-12

    def test_small_averages_hit_negative_buckets(self):
        # scaling sigma down pushes every average below 1, exercising the
        # decreasing branch of the direct eps in the inner bound
        fam, sigma, w = random_setup(6)
        small = sigma.scaled(2.0**-5)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        rep = direct_trace(Instance(fam, small, w, cfg), EPS_D, fam.root)
        assert rep.passed
        assert min(s.a for s in rep.strata) < 0

    def test_wrong_eps_kind(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="entropy eps passed to direct trace"):
            direct_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0, 1)),
                         EPS_E, root_cube(G4))


class TestDualTraces:
    @pytest.mark.parametrize("seed", range(6))
    def test_dual_chains_certify_t_star(self, seed):
        fam, sigma, w = random_setup(seed)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        inst = Instance(fam, sigma, w, cfg)
        de = dual_entropy_trace(inst, EPS_E, fam.root)
        dd = dual_direct_trace(inst, EPS_D, fam.root)
        assert de.passed and dd.passed
        # the swapped chain exponent pair is (q', p'), so certificates carry 1/p'
        assert de.certified_constant == pytest.approx(
            (2 * EPS_E.tail_sum / (1 - fam.lam)) ** (1 / cfg.p_dual), rel=1e-12)
        trep = testing_constants(inst)
        assert trep.T_star <= de.certified_constant * de.bump_constant * (1 + 1e-12)
        assert trep.T_star <= dd.certified_constant * dd.bump_constant * (1 + 1e-12)

    @pytest.mark.parametrize("d", (1, 2))
    def test_primal_bumps_serve_the_dual_chains(self, d):
        # E*_symmetric and D* of (sigma, w) are the E and D of the swapped pair
        for seed in range(4):
            fam, sigma, w = random_setup(seed, n=7 if d == 1 else 4, dimension=d)
            for alpha in (0.0, 0.5):
                for p, q in ((2.0, 3.0), (1.5, 4.0)):
                    cfg = ExponentConfig(p, q, alpha, d)
                    ebump = entropy_bumps(sigma, w, cfg, EPS_E)
                    dbump = direct_bumps(sigma, w, cfg, EPS_D)
                    inst = Instance(fam, sigma, w, cfg)
                    for trace, bump, key in ((dual_entropy_trace, ebump, "E_star_symmetric"),
                                             (dual_direct_trace, dbump, "D_star")):
                        reused = trace(inst, bump.eps, fam.root, bump=bump)
                        fresh = trace(inst, bump.eps, fam.root)
                        assert reused.bump_constant == bump.constants[key]
                        assert reused.bump_constant == pytest.approx(fresh.bump_constant, rel=1e-14)
                        assert reused.passed and fresh.passed

    def test_dual_testing_value_matches_t_star_at_root(self):
        fam, sigma, w = random_setup(3)
        cfg = ExponentConfig(2, 3, 0.25, 1)
        inst = Instance(fam, sigma, w, cfg)
        de = dual_entropy_trace(inst, EPS_E, fam.root)
        trep = testing_constants(inst)
        assert de.testing_value == pytest.approx(trep.per_R_star[fam.position[fam.root]], rel=1e-12)


def test_report_json_schema():
    s, w = fix_const()
    rep = entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0, 1)),
                        EPS_E, root_cube(G4))
    data = json.loads(rep.to_json())
    assert data["schema"] == TRACE_SCHEMA
    assert data["passed"] is True
    assert {"stage_identity", "stage_inner", "stage_final", "certificate"} <= set(data)
    assert data["stage_inner"]["strata"][0]["a"] == 0


def _deflated(bump: BumpReport, key: str, factor: float) -> BumpReport:
    return dataclasses.replace(bump, constants=dict(bump.constants, **{key: bump.constants[key] * factor}))


class TestNegativeControls:
    """A chain stage that cannot fail certifies nothing.  At the bottom cube
    of the chain under constant weights both the inner bound and the
    certificate hold with less than a factor 2 to spare in the bump
    constant, so halving it must break both.  The identity and the final
    bound each get a control of their own."""

    CFG = ExponentConfig(2, 4, 0.0, 1)
    R = DyadicCube(4, (0,))

    def test_entropy_trace_fails_with_halved_e(self):
        s, w = fix_const()
        inst = Instance(chain_family(), s, w, self.CFG)
        assert entropy_trace(inst, EPS_E, self.R).passed
        bump = _deflated(entropy_bumps(s, w, self.CFG, EPS_E), "E", 0.5)
        rep = entropy_trace(inst, EPS_E, self.R, bump=bump)
        assert not rep.inner_ok and not rep.certified_ok and not rep.passed
        assert rep.identity_ok  # the regrouping does not depend on the bump

    def test_direct_trace_fails_with_halved_d(self):
        s, w = fix_const()
        inst = Instance(chain_family(), s, w, self.CFG)
        assert direct_trace(inst, EPS_D, self.R).passed
        bump = _deflated(direct_bumps(s, w, self.CFG, EPS_D), "D", 0.5)
        rep = direct_trace(inst, EPS_D, self.R, bump=bump)
        assert not rep.inner_ok and not rep.certified_ok and not rep.passed

    def test_dropped_stratum_breaks_the_identity(self, monkeypatch):
        # stage (i): a regrouping that loses the last bucket no longer adds
        # up to the testing sum (this instance has 2 rho and 8 average buckets)
        fam, sigma, w = random_setup(0, n=12)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0, 1))
        original = prooftrace._strata

        def dropped(*args):
            keys, a, in_bucket, top = original(*args)
            assert len(a) >= 2
            return keys, a[:-1], in_bucket[:, :-1], top[:, :-1]

        for trace, eps in ((entropy_trace, EPS_E), (direct_trace, EPS_D)):
            assert trace(inst, eps, fam.root).passed
            with monkeypatch.context() as m:
                m.setattr(prooftrace, "_strata", dropped)
                rep = trace(inst, eps, fam.root)
            assert not rep.identity_ok and not rep.passed

    @pytest.mark.parametrize("kind", ("entropy", "direct"))
    def test_shrunk_tail_sum_breaks_the_final_bound(self, kind):
        # stage (iii) and the certificate scale with Sigma_eps; stages (i)
        # and (ii) do not read it
        fam, sigma, w = random_setup(2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0, 1))
        trace = entropy_trace if kind == "entropy" else direct_trace
        assert trace(inst, EntropyFunction(kind, 1.0), fam.root).passed
        eps = EntropyFunction(kind, 1.0)
        eps.__dict__["tail_sum"] = 1e-6
        rep = trace(inst, eps, fam.root)
        assert not rep.final_ok and not rep.certified_ok and not rep.passed
        assert rep.identity_ok and rep.inner_ok


class TestSlack:
    def _at_excess(self, excess):
        """Direct trace whose worst inner sum exceeds its bound by the
        relative `excess`, reached by shrinking D."""
        fam, sigma, w = random_setup(2)
        cfg = ExponentConfig(2, 3, 0.0, 1)
        inst = Instance(fam, sigma, w, cfg)
        bump = direct_bumps(sigma, w, cfg, EPS_D)
        rep = direct_trace(inst, EPS_D, fam.root, bump=bump)
        worst = max(s.inner_lhs / s.inner_bound for s in rep.strata)
        # inner_bound scales as D^q
        shrunk = _deflated(bump, "D", (worst / (1.0 + excess)) ** (1.0 / cfg.q))
        return direct_trace(inst, EPS_D, fam.root, bump=shrunk)

    def test_excess_just_above_slack_fails(self):
        rep = self._at_excess(4 * SLACK)
        assert max(s.inner_lhs / s.inner_bound for s in rep.strata) > 1 + SLACK
        assert not rep.inner_ok
        assert any(not s.ok for s in rep.strata)

    def test_excess_below_slack_passes(self):
        rep = self._at_excess(SLACK / 4)
        assert rep.inner_ok


class TestTwoDimensional:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_traces_pass(self, seed):
        fam, sigma, w = random_setup(seed, n=5, dimension=2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.5, 2))
        for trace, eps in ((entropy_trace, EPS_E), (direct_trace, EPS_D)):
            rep = trace(inst, eps, fam.root)
            assert rep.passed
            for s in rep.strata:
                assert s.realized_constant <= 2 / (1 - fam.lam) + 1e-12
                assert s.support_ratio <= 1 + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_traces_pass(self, seed):
        fam, sigma, w = random_setup(seed, n=5, dimension=2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0, 2))
        assert dual_entropy_trace(inst, EPS_E, fam.root).passed
        assert dual_direct_trace(inst, EPS_D, fam.root).passed
