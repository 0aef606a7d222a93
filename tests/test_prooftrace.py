import dataclasses
import json
from types import SimpleNamespace

import numpy as np
import pytest

from sparsebump.bumps import BumpReport, EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps
from sparsebump import lab
from sparsebump.grid import DyadicCube, GridConfig, parse_cube, root_cube
from sparsebump.lab import ExperimentConfig, build_instance
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
from sparsebump.weights import Weight, generate_weight

from oracles import bucket_of, contains, fix_chain_cubes, fix_const, scaled, trace_oracle

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
    """The strata of the whole family by `key` (rho or average), with the
    bucket masks of `_strata`, and the members of each that no other
    member of its bucket contains, turned into cube lists."""
    kind = "entropy" if key == "rho" else "direct"
    keys, a, in_bucket = _strata(fam, sigma, kind, fam.gather(sigma.mass_levels), np.ones(len(fam), dtype=bool))
    count = fam.ancestor_sum(in_bucket)  # per member, the bucket members containing it
    members = fam.members
    return SimpleNamespace(
        buckets={b: [members[i] for i in np.flatnonzero(col)] for b, col in zip(a.tolist(), in_bucket.T)},
        maximal_cubes={b: [members[i] for i in np.flatnonzero(col)] for b, col in zip(a.tolist(), (in_bucket & (count == 1)).T)},
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
        for a, qs in strata.buckets.items():
            for q in qs:
                owners = [m for m in strata.maximal_cubes[a] if contains(m, q)]
                assert len(owners) == 1
            total += len(qs)
        assert total == len(fam)


class TestEntropyTrace:
    def test_chain_constant_weights(self):
        s, w = fix_const()
        rep = entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)),
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
        rep = entropy_trace(Instance(fam, s, w, ExponentConfig(2, 4, 0.0)), EPS_E, root_cube(G4))
        assert rep.passed

    def test_certificate_matches_testing_constant_at_r(self):
        fam, sigma, w = random_setup(2)
        cfg = ExponentConfig(2, 3, 0.0)
        inst = Instance(fam, sigma, w, cfg)
        rep = entropy_trace(inst, EPS_E, fam.root)
        trep = testing_constants(inst)
        assert rep.testing_value == pytest.approx(trep.per_R[fam.position(fam.root)], rel=1e-12)

    def test_wrong_eps_kind(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="direct eps passed to entropy trace"):
            entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)),
                          EPS_D, root_cube(G4))

    def test_missing_r_raises(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="not in the family"):
            entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)),
                          EPS_E, DyadicCube(1, (1,)))

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_stages_pass(self, seed):
        fam, sigma, w = random_setup(seed)
        cfg = ExponentConfig(2, 3, 0.0)
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
        rep = direct_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)),
                           EPS_D, root_cube(G4))
        assert rep.passed

    @pytest.mark.parametrize("seed", range(8))
    def test_randomized_stages_pass(self, seed):
        fam, sigma, w = random_setup(seed)
        cfg = ExponentConfig(2, 3, 0.0)
        rep = direct_trace(Instance(fam, sigma, w, cfg), EPS_D, fam.root)
        assert rep.passed
        for s in rep.strata:
            assert s.realized_constant <= 2 / (1 - fam.lam) + 1e-12
            assert s.support_ratio <= 1 + 1e-12

    def test_small_averages_hit_negative_buckets(self):
        # scaling sigma down pushes every average below 1, exercising the
        # decreasing branch of the direct eps in the inner bound
        fam, sigma, w = random_setup(6)
        small = scaled(sigma, 2.0**-5)
        cfg = ExponentConfig(2, 3, 0.0)
        rep = direct_trace(Instance(fam, small, w, cfg), EPS_D, fam.root)
        assert rep.passed
        assert min(s.a for s in rep.strata) < 0

    def test_wrong_eps_kind(self):
        s, w = fix_const()
        with pytest.raises(ValueError, match="entropy eps passed to direct trace"):
            direct_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)),
                         EPS_E, root_cube(G4))


class TestDualTraces:
    @pytest.mark.parametrize("seed", range(6))
    def test_dual_chains_certify_t_star(self, seed):
        fam, sigma, w = random_setup(seed)
        cfg = ExponentConfig(2, 3, 0.0)
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
                    cfg = ExponentConfig(p, q, alpha)
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
        cfg = ExponentConfig(2, 3, 0.25)
        inst = Instance(fam, sigma, w, cfg)
        de = dual_entropy_trace(inst, EPS_E, fam.root)
        trep = testing_constants(inst)
        assert de.testing_value == pytest.approx(trep.per_R_star[fam.position(fam.root)], rel=1e-12)


def test_four_chains_share_one_inside_sweep(monkeypatch):
    # the four chains of a suite instance run at the root, on the whole
    # family: none takes a down-sweep to restrict the family, and each takes
    # one, for the maximal members of its buckets, when its records are read
    cfg = ExperimentConfig(instances=2, master_seed=3)  # instance 1 has a stopping family

    def traces(i):
        sigma, w, family, _ = build_instance(cfg, i)
        inst = Instance(family, sigma, w, cfg.exponents())
        # the constants the four chains read
        ebump, dbump = lab._bump_reports(sigma, w, inst.cfg, EPS_E, EPS_D,
                                         names=("E", "E_star_symmetric", "D", "D_star"))
        calls = []
        original = SparseFamily.ancestor_sum

        def counted(self, values):
            calls.append(self)
            return original(self, values)

        with monkeypatch.context() as patch:
            patch.setattr(SparseFamily, "ancestor_sum", counted)
            reports = [entropy_trace(inst, EPS_E, family.root, bump=ebump),
                       direct_trace(inst, EPS_D, family.root, bump=dbump),
                       dual_entropy_trace(inst, EPS_E, family.root, bump=ebump),
                       dual_direct_trace(inst, EPS_D, family.root, bump=dbump)]
            made = len(calls)
            texts = [r.to_json() for r in reports]
        return texts, (made, len(calls)), family

    for i in range(cfg.instances):
        _, sweeps, family = traces(i)
        assert sweeps == (0, 4)
    # at every member R, the down-sweep of R's indicator that marks the
    # members a trace at R buckets (column R of the ancestor sum of the
    # identity) marks those that the oracle `contains` puts inside R
    for d, n in ((1, 7), (2, 4)):
        g = GridConfig(d, n)
        sigma = generate_weight(g, "random_cascade", seed=5, volatility=0.9)
        for family in (random_sparse(g, 0.5, seed=1, target_size=40),
                       stopping_family(sigma, 2.0, root_cube(g)),
                       stopping_family(sigma, 1.5, DyadicCube(1, (1,) * d))):
            assert len(family) > 4
            masks = [[contains(r, q) for q in family.members] for r in family.members]
            np.testing.assert_array_equal(masks, family.ancestor_sum(np.eye(len(family))).T > 0)


@pytest.mark.parametrize("d", (1, 2))
def test_a_trace_without_a_bump_scans_only_its_constant(d):
    # the constant is the one its bump report holds, and the trace builds no
    # rho pyramid that its chain does not read: the primal entropy chain
    # reads sigma's, the dual one w's, and the direct chains none
    for trace, eps, key, reads in ((entropy_trace, EPS_E, "E", "sigma"), (direct_trace, EPS_D, "D", None),
                                   (dual_entropy_trace, EPS_E, "E_star_symmetric", "w"),
                                   (dual_direct_trace, EPS_D, "D_star", None)):
        fam, sigma, w = random_setup(1, n=6, dimension=d)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        rep = trace(inst, eps, fam.members[-1])
        built = [name for name, weight in (("sigma", sigma), ("w", w)) if "rho_levels" in vars(weight)]
        assert built == ([reads] if reads else []), trace.__name__
        bumps = entropy_bumps if eps.kind == "entropy" else direct_bumps
        assert rep.bump_constant == bumps(sigma, w, inst.cfg, eps).constants[key]


def test_report_json_schema():
    s, w = fix_const()
    rep = entropy_trace(Instance(chain_family(), s, w, ExponentConfig(2, 4, 0.0)),
                        EPS_E, root_cube(G4))
    data = json.loads(rep.to_json())
    assert data["schema"] == TRACE_SCHEMA
    assert data["passed"] is True
    assert {"stage_identity", "stage_inner", "stage_final", "certificate"} <= set(data)
    assert data["stage_inner"]["strata"][0]["a"] == 0


def rows_of(rep):
    """Check that the report at R is row 0 (R) of its per-member checks: each
    stage flag is that row, `failed` counts the members where any check
    fails, and the chain passes at R exactly when R is not in `failed`.
    Returns the report."""
    flags = {"identity": rep.identity_ok, "inner": rep.inner_ok, "final": rep.final_ok,
             "certificate": rep.certified_ok}
    assert flags == {name: bool(check[0]) for name, check in rep.checks.items()}
    assert len(rep.failed) == np.count_nonzero(~np.logical_and.reduce(list(rep.checks.values())))
    assert rep.passed == (rep.R not in rep.failed)
    return rep


def _deflated(bump: BumpReport, key: str, factor: float) -> BumpReport:
    return dataclasses.replace(bump, constants=dict(bump.constants, **{key: bump.constants[key] * factor}))


class TestNegativeControls:
    """A chain stage that cannot fail certifies nothing.  At the bottom cube
    of the chain under constant weights both the inner bound and the
    certificate hold with less than a factor 2 to spare in the bump
    constant, so halving it must break both.  The identity and the final
    bound each get a control of their own."""

    CFG = ExponentConfig(2, 4, 0.0)
    R = DyadicCube(4, (0,))

    def test_entropy_trace_fails_with_halved_e(self):
        s, w = fix_const()
        inst = Instance(chain_family(), s, w, self.CFG)
        assert entropy_trace(inst, EPS_E, self.R).passed
        bump = _deflated(entropy_bumps(s, w, self.CFG, EPS_E), "E", 0.5)
        rep = rows_of(entropy_trace(inst, EPS_E, self.R, bump=bump))
        assert not rep.inner_ok and not rep.certified_ok and not rep.passed
        assert rep.identity_ok  # the regrouping does not depend on the bump

    def test_direct_trace_fails_with_halved_d(self):
        s, w = fix_const()
        inst = Instance(chain_family(), s, w, self.CFG)
        assert direct_trace(inst, EPS_D, self.R).passed
        bump = _deflated(direct_bumps(s, w, self.CFG, EPS_D), "D", 0.5)
        rep = rows_of(direct_trace(inst, EPS_D, self.R, bump=bump))
        assert not rep.inner_ok and not rep.certified_ok and not rep.passed

    def test_dropped_stratum_breaks_the_identity(self, monkeypatch):
        # stage (i): a regrouping that loses the last bucket no longer adds
        # up to the testing sum (this instance has 2 rho and 8 average buckets)
        fam, sigma, w = random_setup(0, n=12)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        original = prooftrace._strata

        def dropped(*args):
            keys, a, in_bucket = original(*args)
            assert len(a) >= 2
            return keys, a[:-1], in_bucket[:, :-1]

        for trace, eps in ((entropy_trace, EPS_E), (direct_trace, EPS_D)):
            assert trace(inst, eps, fam.root).passed
            with monkeypatch.context() as m:
                m.setattr(prooftrace, "_strata", dropped)
                rep = rows_of(trace(inst, eps, fam.root))
            assert not rep.identity_ok and not rep.passed
            assert fam.root in rep.failed

    @pytest.mark.parametrize("setup", ("chain", "stopping"))
    def test_halved_rho_breaks_the_carleson_estimate(self, monkeypatch, setup):
        # stage (ii), support half: the Carleson estimate divides by rho(Q*),
        # so halved rho keys double every support ratio.  The strata stay the
        # same sets, one bucket lower, and eps(2^a) does not grow, so the
        # inner sums stay within their bounds and only the support half fails.
        if setup == "chain":
            (s, w), fam, cfg = fix_const(), chain_family(), self.CFG
        else:
            fam, s, w = random_setup(5, n=12)
            cfg = ExponentConfig(2, 3, 0.0)
        inst = Instance(fam, s, w, cfg)
        assert entropy_trace(inst, EPS_E, fam.root).passed
        original = prooftrace._strata

        def halved(*args):
            keys, a, in_bucket = original(*args)
            return keys / 2.0, a, in_bucket

        monkeypatch.setattr(prooftrace, "_strata", halved)
        rep = rows_of(entropy_trace(inst, EPS_E, fam.root))
        assert not rep.inner_ok and not rep.passed
        assert any(r.support_ratio > 1.0 + SLACK for r in rep.strata)
        assert all(r.inner_lhs <= r.inner_bound * (1.0 + SLACK) for r in rep.strata)
        assert rep.identity_ok and rep.final_ok and rep.certified_ok
        assert fam.root in rep.failed

    @pytest.mark.parametrize("kind", ("entropy", "direct"))
    def test_shrunk_tail_sum_breaks_the_final_bound(self, kind, monkeypatch):
        # stage (iii) and the certificate scale with Sigma_eps; stages (i)
        # and (ii) do not read it
        fam, sigma, w = random_setup(2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        trace = entropy_trace if kind == "entropy" else direct_trace
        eps = EntropyFunction(kind, 1.0)
        assert trace(inst, eps, fam.root).passed
        monkeypatch.setattr(EntropyFunction, "tail_sum", 1e-6)
        rep = rows_of(trace(inst, eps, fam.root))
        assert not rep.final_ok and not rep.certified_ok and not rep.passed
        assert rep.identity_ok and rep.inner_ok


def stopping_setup(n, s_sigma, s_w):
    """Cascade weights of volatility 0.9 and the stopping family of sigma at
    ratio 2 (lambda = 1/2) on the d=1 grid of leaf level n."""
    g = GridConfig(1, n)
    sigma = generate_weight(g, "random_cascade", seed=s_sigma, volatility=0.9)
    w = generate_weight(g, "random_cascade", seed=s_w, volatility=0.9)
    return stopping_family(sigma, 2.0, root_cube(g)), sigma, w


class TestEveryR:
    """A trace at R runs its chain on the members inside R, checks it at
    every one of them at once and reports at R.  The report at each R must be
    the chain run on the members inside R alone (`trace_oracle`), bit for
    bit, and row 0 of its per-member checks (`rows_of`); `failed` must hold
    exactly the members inside R at which that chain fails."""

    CHAINS = (("entropy", entropy_trace, "E"), ("direct", direct_trace, "D"),
              ("entropy", dual_entropy_trace, "E_star_symmetric"), ("direct", dual_direct_trace, "D_star"))

    @pytest.mark.parametrize("d,seed", [(1, 1), (1, 2), (1, 3), (2, 0), (2, 1), (3, 1), (3, 4)])
    def test_report_at_every_r_is_the_restricted_chain(self, d, seed):
        # even seeds give random families, odd seeds stopping families
        fam, sigma, w = random_setup(seed, n={1: 8, 2: 5, 3: 3}[d], target=40, dimension=d)
        cfg = ExponentConfig(2, 3, 0.25 * (seed % 2))
        inst = Instance(fam, sigma, w, cfg)
        ebump, dbump = lab._bump_reports(sigma, w, cfg, EPS_E, EPS_D,
                                         names=("A", "E", "E_star_symmetric", "D", "D_star"))
        shown = 0
        for factor in (1.0, 0.75, 0.4):
            for kind, trace, key in self.CHAINS:
                bump = _deflated(ebump if kind == "entropy" else dbump, key, factor)
                chain_inst = inst if trace in (entropy_trace, direct_trace) else inst.dual
                reports = [rows_of(trace(inst, bump.eps, r, bump=bump)) for r in fam.members]
                oracles = [trace_oracle(kind, chain_inst, bump.eps, r, bump.constants[key]) for r in fam.members]
                assert [r.to_json() for r in reports] == [o.to_json() for o in oracles]
                failed = [r for r, o in zip(fam.members, oracles) if not o.passed]
                for r, rep in zip(fam.members, reports):
                    assert rep.failed == tuple(q for q in failed if contains(r, q))
                assert factor < 1.0 or not failed
                shown += bool(failed)
        assert shown > 0

    @pytest.mark.parametrize("n,s_sigma,s_w,cube", [(10, 1, 8, "10:962"), (12, 2, 9, "12:901")])
    def test_a_failure_only_below_the_root(self, n, s_sigma, s_w, cube):
        # with 0.6 E, stage (ii) fails at one leaf-level member only: the
        # report at the root passes, and `failed` names that member
        fam, sigma, w = stopping_setup(n, s_sigma, s_w)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        bump = entropy_bumps(sigma, w, inst.cfg, EPS_E)
        assert entropy_trace(inst, EPS_E, fam.root, bump=bump).failed == ()
        rep = entropy_trace(inst, EPS_E, fam.root, bump=_deflated(bump, "E", 0.6))
        assert rep.passed
        assert rep.failed == (parse_cube(cube),)
        at_cube = trace_oracle("entropy", inst, EPS_E, parse_cube(cube), 0.6 * bump.constants["E"])
        assert not at_cube.inner_ok and at_cube.identity_ok and at_cube.final_ok and at_cube.certified_ok

    @pytest.mark.parametrize("factor,violations", [(1.0, 0), (0.6, 1)])
    def test_the_suite_counts_a_failure_below_the_root(self, monkeypatch, factor, violations):
        fam, sigma, w = stopping_setup(10, 1, 8)
        monkeypatch.setattr(lab, "build_instance", lambda cfg, i: (sigma, w, fam, 0))
        original = lab._bump_reports

        def deflated(*args, **kwargs):
            ebump, dbump = original(*args, **kwargs)
            return _deflated(ebump, "E", factor), dbump

        monkeypatch.setattr(lab, "_bump_reports", deflated)
        report = lab.run_verify_bounds(ExperimentConfig(instances=1, leaf_level=10, volatility=0.9))
        [row] = report.rows
        assert report.violations == violations
        # the chain's report at the root and the certified ratio both pass
        assert row["trace_entropy_pass"] is True
        assert row["certified_CE_ratio"] <= 1.0

    def test_one_failed_member_is_maximal_for_several_r(self):
        # a chain of cubes [0, 2^-k) whose averages fall in the buckets
        # 1, 2, 1, 1, 2: the leaf 4:0 is its bucket's maximal member inside
        # 4:0, 3:0 and 2:0, but not inside 1:0, which is in its bucket.
        # Halving D fails stage (ii) at 4:0 alone
        sigma = Weight(G4, np.array([5.0, 1, 2, 2] + [6.5] * 4 + [0.5] * 8))
        _, w = fix_const()
        inst = Instance(chain_family(), sigma, w, ExponentConfig(2, 4, 0.0))
        bump = _deflated(direct_bumps(sigma, w, inst.cfg, EPS_D), "D", 0.5)
        rep = direct_trace(inst, EPS_D, root_cube(G4), bump=bump)
        assert rep.passed
        assert [c.text for c in rep.failed] == ["2:0", "3:0", "4:0"]
        for r_cube in chain_family().members:
            at_r = trace_oracle("direct", inst, EPS_D, r_cube, bump.constants["D"])
            assert at_r.passed == (r_cube not in rep.failed)
            assert at_r.identity_ok and at_r.final_ok and at_r.certified_ok
            assert [s.q_star.text for s in at_r.strata if not s.ok] == ([] if at_r.passed else ["4:0"])

    @pytest.mark.parametrize("kind", ("entropy", "direct"))
    def test_the_final_bound_alone_fails_at_some_r(self, kind, monkeypatch):
        # stage (iii) reads Sigma_eps, stage (ii) does not.  With w(Q) >=
        # w(E_Q), the testing sum of stage (iii) needs a larger Sigma_eps
        # than the certificate; a Sigma_eps between the two needs, at the R
        # where they differ most, fails stage (iii) there and nothing else
        fam, sigma, w = random_setup(2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        eps = EntropyFunction(kind, 1.0)
        rep = (entropy_trace if kind == "entropy" else direct_trace)(inst, eps, fam.root)
        scale = rep.bump_constant ** 3 * inst.sigma_mass ** 1.5
        need_final = fam.descendant_sum(inst.mass_terms) / scale
        need_cert = (inst.testing_values / rep.bump_constant) ** 3
        r = int(np.argmax(need_final / need_cert))
        assert need_cert[r] < need_final[r] / 1.01
        monkeypatch.setattr(EntropyFunction, "tail_sum", float((need_final[r] * need_cert[r]) ** 0.5 * (1 - fam.lam) / 2))
        trace = entropy_trace if kind == "entropy" else direct_trace
        rep = rows_of(trace(inst, eps, fam.root))
        oracles = [trace_oracle(kind, inst, eps, q) for q in fam.members]
        assert not oracles[r].final_ok and oracles[r].certified_ok and oracles[r].inner_ok
        assert rep.failed == tuple(q for q, o in zip(fam.members, oracles) if not o.passed)
        # stages (i) and (ii) do not read Sigma_eps, and the report at each R is
        # the row of the final and certificate arrays
        assert rep.checks["identity"].all() and rep.checks["inner"].all()
        assert rep.checks["final"].tolist() == [o.final_ok for o in oracles]
        assert rep.checks["certificate"].tolist() == [o.certified_ok for o in oracles]
        for q, o in zip(fam.members, oracles):
            assert rows_of(trace(inst, eps, q)).to_json() == o.to_json()

    def test_the_certificate_alone_fails_at_some_r(self):
        # a testing value over the certified bound at one member below the
        # root fails the certificate there, and only there
        fam, sigma, w = random_setup(1)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        rep = entropy_trace(inst, EPS_E, fam.root)
        assert rep.failed == ()
        r = len(fam) // 2
        inst.testing_values[r] = 2 * rep.certified_constant * rep.bump_constant
        rep = rows_of(entropy_trace(inst, EPS_E, fam.root))
        assert rep.passed and rep.failed == (fam.members[r],)
        assert np.flatnonzero(~rep.checks["certificate"]).tolist() == [r]
        assert all(rep.checks[name].all() for name in ("identity", "inner", "final"))
        at_r = trace_oracle("entropy", inst, EPS_E, fam.members[r])
        assert not at_r.certified_ok and at_r.identity_ok and at_r.inner_ok and at_r.final_ok

    def test_a_zero_mass_member_outside_r(self):
        # sigma vanishes on 2:3: the chain at R = 2:0 or 3:1 buckets only
        # the members inside R, none of zero mass, so it passes and nothing
        # inside R fails; the trace at the root names the zero-mass cube
        g = GridConfig(1, 3)
        sigma = Weight(g, np.array([1.0, 2, 3, 4, 5, 6, 0, 0]))
        w = generate_weight(g, "random_cascade", seed=3, volatility=0.5)
        fam = SparseFamily(g, frozenset(parse_cube(t) for t in ("0:0", "2:0", "2:3", "3:1")), 0.5)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        for trace, eps in ((entropy_trace, EPS_E), (direct_trace, EPS_D)):
            for r_cube in (parse_cube("2:0"), parse_cube("3:1")):
                rep = trace(inst, eps, r_cube)
                assert rep.to_json() == trace_oracle(eps.kind, inst, eps, r_cube).to_json()
                assert rep.passed
                assert rep.failed == ()
            with pytest.raises(ValueError, match="zero-mass cube in family: 2:3"):
                trace(inst, eps, fam.root)


class TestSlack:
    def _at_excess(self, excess):
        """Direct trace whose worst inner sum exceeds its bound by the
        relative `excess`, reached by shrinking D."""
        fam, sigma, w = random_setup(2)
        cfg = ExponentConfig(2, 3, 0.0)
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

    # each other stage at the same scale: the relative excess of 4 SLACK
    # fails it at the root, one of SLACK/4 does not
    AT_SLACK = pytest.mark.parametrize("excess,holds", [(4 * SLACK, False), (SLACK / 4, True)],
                                       ids=("fails", "passes"))

    @AT_SLACK
    def test_identity_at_slack(self, excess, holds, monkeypatch):
        # the last member's term made the share `excess` of the testing sum,
        # and that member dropped from its bucket: the bucket sums miss it
        fam, sigma, w = random_setup(2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        inst.mass_terms[-1] = 0.0
        rest = direct_trace(inst, EPS_D, fam.root).lhs_total
        inst.mass_terms[-1] = excess * rest / (1.0 - excess)
        original = prooftrace._strata

        def dropped(*args):
            keys, a, in_bucket = original(*args)
            in_bucket[-1] = False
            return keys, a, in_bucket

        monkeypatch.setattr(prooftrace, "_strata", dropped)
        rep = direct_trace(inst, EPS_D, fam.root)
        assert rep.identity_error == pytest.approx(excess, rel=1e-3)
        assert rep.identity_ok is holds

    @AT_SLACK
    def test_final_bound_at_slack(self, excess, holds, monkeypatch):
        # stage (iii) at the root: Sigma_eps shrunk until the testing sum
        # exceeds the final bound by `excess`
        fam, sigma, w = random_setup(2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        rep = direct_trace(inst, EPS_D, fam.root)
        shrunk = EPS_D.tail_sum * rep.lhs_total / rep.final_bound / (1.0 + excess)
        monkeypatch.setattr(EntropyFunction, "tail_sum", shrunk)
        rep = direct_trace(inst, EPS_D, fam.root)
        assert rep.lhs_total / rep.final_bound == pytest.approx(1.0 + excess, abs=SLACK / 8)
        assert rep.final_ok is holds

    @AT_SLACK
    def test_certificate_at_slack(self, excess, holds):
        # the root's testing value raised to `excess` over the certified bound
        fam, sigma, w = random_setup(2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        rep = direct_trace(inst, EPS_D, fam.root)
        inst.testing_values[0] = rep.certified_constant * rep.bump_constant * (1.0 + excess)
        rep = rows_of(direct_trace(inst, EPS_D, fam.root))
        assert rep.certified_ok is holds and rep.passed is holds


class TestTwoDimensional:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_traces_pass(self, seed):
        fam, sigma, w = random_setup(seed, n=5, dimension=2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.5))
        for trace, eps in ((entropy_trace, EPS_E), (direct_trace, EPS_D)):
            rep = trace(inst, eps, fam.root)
            assert rep.passed
            for s in rep.strata:
                assert s.realized_constant <= 2 / (1 - fam.lam) + 1e-12
                assert s.support_ratio <= 1 + 1e-12

    @pytest.mark.parametrize("seed", range(3))
    def test_dual_traces_pass(self, seed):
        fam, sigma, w = random_setup(seed, n=5, dimension=2)
        inst = Instance(fam, sigma, w, ExponentConfig(2, 3, 0.0))
        assert dual_entropy_trace(inst, EPS_E, fam.root).passed
        assert dual_direct_trace(inst, EPS_D, fam.root).passed


class TestExtremeExponents:
    """At p = 1.01 and q = 50 or 100, C^q nears the top of the double range
    while sigma(Q*)^{q/p} underflows to 0: a chain that powers the two
    factors apart gets an inner or final bound of 0 and fails a true
    inequality.  Each case below had a chain fail that way."""

    @pytest.mark.parametrize("config,i", [
        (dict(q=50.0), 1),  # dual direct chain, stage (ii) at a = -4
        (dict(q=50.0, volatility=0.99), 0),
        (dict(q=100.0), 4),  # primal direct chain
        (dict(q=50.0, dimension=2, leaf_level=5, family_kind="stopping"), 0),
    ], ids=("d1-q50", "d1-q50-volatile", "d1-q100", "d2-stopping-q50"))
    def test_every_chain_passes_with_positive_bounds(self, config, i):
        cfg = ExperimentConfig(p=1.01, **config)
        sigma, w, fam, _ = build_instance(cfg, i)
        inst = Instance(fam, sigma, w, cfg.exponents())
        eps_e, eps_d = EntropyFunction("entropy", cfg.delta), EntropyFunction("direct", cfg.delta)
        for trace, eps in ((entropy_trace, eps_e), (direct_trace, eps_d),
                           (dual_entropy_trace, eps_e), (dual_direct_trace, eps_d)):
            rep = trace(inst, eps, fam.root)
            assert rep.passed, trace.__name__
            assert rep.final_bound > 0
            assert all(s.inner_bound > 0 for s in rep.strata)

    @pytest.mark.parametrize("config", [
        dict(leaf_level=12, lam=0.9, q=11.01, volatility=0.3, master_seed=130014, target_size=62),
        dict(leaf_level=12, lam=0.25, q=50.0, master_seed=249247, target_size=26, delta=0.5,
             family_kind="random"),
    ], ids=("q11", "q50"))
    def test_a_bound_past_the_double_range_is_inf(self, config):
        # the dual chains run at q = p' = 101, where (C sigma(R)^{1/p})^q
        # passes the largest double: the bound is inf, which holds, and it
        # is written as Infinity
        cfg = ExperimentConfig(p=1.01, **config)
        sigma, w, fam, _ = build_instance(cfg, 0)
        inst = Instance(fam, sigma, w, cfg.exponents())
        eps_e, eps_d = EntropyFunction("entropy", cfg.delta), EntropyFunction("direct", cfg.delta)
        for trace, eps in ((dual_entropy_trace, eps_e), (dual_direct_trace, eps_d)):
            rep = trace(inst, eps, fam.root)
            assert rep.passed and rep.failed == ()
            assert rep.final_bound == np.inf
            assert any(s.inner_bound == np.inf for s in rep.strata)
            assert json.loads(rep.to_json())["stage_final"]["bound"] == np.inf
            assert '"bound": Infinity' in rep.to_json()


@pytest.mark.parametrize("d,n", [(1, 13), (2, 6)])
def test_a_suite_instance_makes_no_records_and_names_few_cubes(d, n, monkeypatch):
    # the suite reads each trace's flags and `failed`, never its strata: after
    # one instance no StratumRecord exists, and the only cubes made are those
    # a report names, not one per member.  Reading `strata` makes the records
    # that the trace JSON holds
    cfg = ExperimentConfig(dimension=d, leaf_level=n, family_kind="stopping", master_seed=49)
    n_members = len(lab.build_instance(cfg, 0)[2])
    records, cubes, reports = [], [], []
    record = prooftrace.StratumRecord
    monkeypatch.setattr(prooftrace, "StratumRecord", lambda *args: records.append(args) or record(*args))
    post_init = DyadicCube.__post_init__
    monkeypatch.setattr(DyadicCube, "__post_init__", lambda self: cubes.append(self) or post_init(self))
    for name in ("entropy_trace", "direct_trace", "dual_entropy_trace", "dual_direct_trace"):
        monkeypatch.setattr(lab, name, lambda *args, trace=getattr(lab, name), **kwargs:
                            reports.append(trace(*args, **kwargs)) or reports[-1])
    _, ok = lab._verify_instance(cfg, 0, EPS_E, EPS_D)
    assert ok and len(reports) == 4 and records == []
    # the grid root the family grows from, the argmaxes of the five bump
    # constants and of T and T*, the family's root, and the member whose
    # indicator ratio is checked on the leaves
    assert len(cubes) <= 10 < n_members
    for rep in reports:
        assert [s.to_dict() for s in rep.strata] == json.loads(rep.to_json())["stage_inner"]["strata"]
    assert len(records) == sum(len(rep.strata) for rep in reports) > 0
