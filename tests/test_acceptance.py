"""Acceptance gate: one test per criterion, each printing a PASS line with
its measured runtime (run with -s to see them).  Expected values follow the
oracle-first protocol: closed forms where they exist, independently computed
and frozen sequences otherwise.
"""

import time

import pytest

from sparsebump import lab
from sparsebump.bumps import EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps
from sparsebump.grid import GridConfig, root_cube
from sparsebump.lab import (
    ExperimentConfig,
    build_family,
    build_instance,
    run_carleson_suite,
    run_counterexample,
    run_verify_bounds,
)
from sparsebump.operators import (
    Instance,
    exact_norm_l2,
    norm_lower_bound,
    primal_indicator_ratios,
    testing_constants,
)
from sparsebump.prooftrace import (
    direct_trace,
    dual_direct_trace,
    dual_entropy_trace,
    entropy_trace,
)
from sparsebump.sparse import SparseFamily, random_sparse
from sparsebump.weights import generate_weight

from oracles import dense_norm_l2_oracle, fix_chain_cubes, fix_const, l2_instance

TOL = 1 + 1e-12


def _report(k: int, elapsed: float, detail: str) -> None:
    print(f"\nACCEPTANCE {k}: PASS - {detail} [{elapsed:.2f}s]")


# --------------------------------------------------------------------------
# criterion 1: exact identities on constant weights
# --------------------------------------------------------------------------

def test_acceptance_1_exact_identities_on_constant_weights():
    start = time.perf_counter()
    sigma, w = fix_const()
    n = sigma.grid.leaf_level
    singleton = SparseFamily(sigma.grid, frozenset([root_cube(sigma.grid)]), 0.5)
    for p, q, alpha in [(2.0, 4.0, 0.0), (2.0, 3.0, 0.5)]:
        cfg = ExponentConfig(p, q, alpha)
        # closed form: per-cube value is |Q|^{1/q + 1/p' + alpha/d - 1}, so the
        # sup sits at the leaves when the closed-form exponent is positive and
        # at the root (value 1) otherwise
        exponent = 1 - alpha - 1 / q - 1 / cfg.p_dual
        expected_a = 2.0 ** (n * max(exponent, 0.0))
        ebump = entropy_bumps(sigma, w, cfg, EntropyFunction("entropy", 1.0))
        dbump = direct_bumps(sigma, w, cfg, EntropyFunction("direct", 1.0))
        assert ebump.constants["A"] == pytest.approx(expected_a, rel=1e-12)
        assert ebump.constants["E"] == pytest.approx(expected_a, rel=1e-12)
        assert dbump.constants["D"] == pytest.approx(expected_a, rel=1e-12)
        trep = testing_constants(Instance(singleton, sigma, w, cfg))
        assert trep.T == pytest.approx(1.0, rel=1e-12)
        assert trep.T_star == pytest.approx(1.0, rel=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, elapsed, "A = E = D = closed form and singleton T = T* = 1 at 1e-12")


# --------------------------------------------------------------------------
# criterion 2: Carleson certificate over >= 500 instances
# --------------------------------------------------------------------------

def test_acceptance_2_carleson_certificate(monkeypatch):
    # every member of every instance; i mod 42 sets (grid, lambda, family
    # kind), 7 grids being coprime with 6, so each of the 42 combinations occurs
    grids = (GridConfig(1, 6), GridConfig(1, 8), GridConfig(1, 10), GridConfig(2, 4), GridConfig(2, 6),
             GridConfig(3, 3), GridConfig(3, 4))
    built = []

    def spy(cfg, i):
        sigma, family = build_family(cfg, i)
        built.append(((cfg.dimension, cfg.leaf_level), cfg.lam, i % 2, len(family)))
        return sigma, family

    monkeypatch.setattr(lab, "build_family", spy)
    start = time.perf_counter()
    res = run_carleson_suite(500, grids=grids, lambdas=(0.5, 0.25, 0.75), master_seed=7)
    elapsed = time.perf_counter() - start
    members = {d: sum(n for (dim, _), _, _, n in built if dim == d) for d in (1, 2, 3)}
    assert len(built) == 500
    assert len({combo[:3] for combo in built}) == 42
    assert res["checked"] == sum(members.values())
    assert all(members.values())
    assert res["violations"] == 0
    assert res["checked"] >= 500
    assert res["worst_ratio"] <= 1.0
    assert elapsed < 30.0
    counts = ", ".join(f"{n} in d={d}" for d, n in members.items())
    _report(2, elapsed, f"{res['checked']} members checked ({counts}) "
                        f"over 500 instances, worst lhs/rhs ratio {res['worst_ratio']:.4f}, zero violations")


# --------------------------------------------------------------------------
# criteria 3-5 and 7 share one 200-instance randomized suite
# --------------------------------------------------------------------------

@pytest.fixture(scope="module")
def certificate_suite():
    cfg = ExperimentConfig(instances=200, leaf_level=8, lam=0.5, p=2.0, q=3.0,
                           delta=1.0, master_seed=42, target_size=30, budget=20)
    exps = cfg.exponents()
    eps_e = EntropyFunction("entropy", 1.0)
    eps_d = EntropyFunction("direct", 1.0)
    const_e = (2 * eps_e.tail_sum / (1 - cfg.lam)) ** (1 / cfg.q)
    const_d = (2 * eps_d.tail_sum / (1 - cfg.lam)) ** (1 / cfg.q)
    dual_e = (2 * eps_e.tail_sum / (1 - cfg.lam)) ** (1 / exps.p_dual)
    dual_d = (2 * eps_d.tail_sum / (1 - cfg.lam)) ** (1 / exps.p_dual)

    counts = {k: 0 for k in
              ("entropy_trace", "entropy_cert", "direct_trace", "direct_cert",
               "dual_trace", "dual_cert", "witness")}
    start = time.perf_counter()
    for i in range(cfg.instances):
        sigma, w, family, s_lb = build_instance(cfg, i)
        ebump = entropy_bumps(sigma, w, exps, eps_e)
        dbump = direct_bumps(sigma, w, exps, eps_d)
        inst = Instance(family, sigma, w, exps)
        trep = testing_constants(inst)

        et = entropy_trace(inst, eps_e, family.root, bump=ebump)
        if not (et.identity_ok and et.inner_ok and et.final_ok and et.certified_ok) or et.failed:
            counts["entropy_trace"] += 1
        if not trep.T <= const_e * ebump.constants["E"] * TOL:
            counts["entropy_cert"] += 1

        dt = direct_trace(inst, eps_d, family.root, bump=dbump)
        if not (dt.identity_ok and dt.inner_ok and dt.final_ok and dt.certified_ok) or dt.failed:
            counts["direct_trace"] += 1
        if not trep.T <= const_d * dbump.constants["D"] * TOL:
            counts["direct_cert"] += 1

        de = dual_entropy_trace(inst, eps_e, family.root)
        dd = dual_direct_trace(inst, eps_d, family.root)
        if not (de.passed and dd.passed) or de.failed or dd.failed:
            counts["dual_trace"] += 1
        if not (trep.T_star <= dual_e * ebump.constants["E_star_symmetric"] * TOL
                and trep.T_star <= dual_d * dbump.constants["D_star"] * TOL):
            counts["dual_cert"] += 1

        nlb = norm_lower_bound(inst, cfg.budget, seed=s_lb)
        ratios = primal_indicator_ratios(inst)
        for ratio, term in zip(ratios, trep.per_R):
            if not (nlb * TOL >= ratio and ratio * TOL >= term):
                counts["witness"] += 1
    elapsed = time.perf_counter() - start
    return {"counts": counts, "elapsed": elapsed, "instances": cfg.instances}


def test_acceptance_3_entropy_certificate(certificate_suite):
    c = certificate_suite["counts"]
    assert c["entropy_trace"] == 0
    assert c["entropy_cert"] == 0
    assert certificate_suite["elapsed"] < 120.0
    _report(3, certificate_suite["elapsed"],
            f"entropy chain: all stages at every R and T <= (2S/(1-lam))^(1/q) E on "
            f"{certificate_suite['instances']} instances")


def test_acceptance_4_direct_certificate(certificate_suite):
    c = certificate_suite["counts"]
    assert c["direct_trace"] == 0
    assert c["direct_cert"] == 0
    _report(4, certificate_suite["elapsed"],
            "direct chain: all stages at every R and T <= (2S/(1-lam))^(1/q) D, zero violations")


def test_acceptance_5_dual_certificates(certificate_suite):
    c = certificate_suite["counts"]
    assert c["dual_trace"] == 0
    assert c["dual_cert"] == 0
    _report(5, certificate_suite["elapsed"],
            "swapped chains at every R: T* <= (2S/(1-lam))^(1/p') E*_sym and <= ... D*, "
            "zero violations")


def test_acceptance_7_testing_lower_bound_witness(certificate_suite):
    assert certificate_suite["counts"]["witness"] == 0
    _report(7, certificate_suite["elapsed"],
            "norm_lower_bound >= indicator ratios >= per-R testing terms on "
            "every instance")


# --------------------------------------------------------------------------
# criterion 6: norm oracle agreement
# --------------------------------------------------------------------------

def test_acceptance_6_norm_oracles_agree(l2_stop):
    start = time.perf_counter()
    l2_stop(1e-13)
    worst = 0.0
    for i in range(50):
        n = 3 + (i % 2)
        grid = GridConfig(1, n)
        sigma = generate_weight(grid, "random_cascade", seed=i, volatility=0.8)
        w = generate_weight(grid, "random_cascade", seed=i + 999, volatility=0.8)
        fam = random_sparse(grid, 0.5, seed=i, target_size=8)
        a = exact_norm_l2(l2_instance(fam, sigma, w, 0.0))
        b = dense_norm_l2_oracle(fam, sigma, w, 0.0)
        worst = max(worst, abs(a - b))
        assert abs(a - b) <= 1e-8

    cfg = ExponentConfig(2.0, 2.0, 0.0)
    grid = GridConfig(1, 4)
    chain = SparseFamily(grid, frozenset(fix_chain_cubes(grid, 4)), 0.5)
    pairs = [fix_const()]
    for seed in (5, 6, 7):
        pairs.append((generate_weight(grid, "random_cascade", seed=seed, volatility=0.7),
                      generate_weight(grid, "random_cascade", seed=seed + 50, volatility=0.7)))
    for sigma, w in pairs:
        exact = exact_norm_l2(l2_instance(chain, sigma, w, 0.0))
        lb = norm_lower_bound(Instance(chain, sigma, w, cfg), budget=200, seed=0)
        assert lb <= exact + 1e-8
        assert lb >= 0.99 * exact
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(6, elapsed, f"50 power-vs-dense agreements (worst gap {worst:.2e}) "
                        "and chain lower bounds >= 0.99 * exact")


# --------------------------------------------------------------------------
# criterion 8: counterexample reproduction
# --------------------------------------------------------------------------

def test_acceptance_8_counterexample_reproduction():
    # the divergent pair sigma = 1/(x(1-ln x)^2), w = x^2 at p = q = 2:
    # the L log L diagnostic and the entropy bump must grow with refinement
    # while the direct bump freezes.  Pinned from the computed sequence
    # (delta = 1/2): E(20)/E(8) = 1.2834, |D(20)/D(16) - 1| = 5.4e-6.
    start = time.perf_counter()
    rep = run_counterexample((8, 12, 16, 20), 0.5)
    rows = {r["N"]: r for r in rep.rows}
    llogl = [rows[n]["llogl"] for n in (8, 12, 16, 20)]
    e_seq = [rows[n]["E"] for n in (8, 12, 16, 20)]
    d_seq = [rows[n]["D"] for n in (8, 12, 16, 20)]
    assert all(b > a for a, b in zip(llogl, llogl[1:]))
    assert all(b > a for a, b in zip(e_seq, e_seq[1:]))
    assert e_seq[-1] / e_seq[0] > 1.25  # frozen baseline ratio
    assert abs(d_seq[-1] / d_seq[-2] - 1.0) <= 1e-3  # pinned stabilization tol
    assert rep.violations == 0
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report(8, elapsed,
            f"llogl {llogl[0]:.3f}->{llogl[-1]:.3f} and E {e_seq[0]:.3f}->"
            f"{e_seq[-1]:.3f} increase; D ratio {d_seq[-1]/d_seq[-2]:.7f}")


# --------------------------------------------------------------------------
# criterion 9: determinism of the default suite
# --------------------------------------------------------------------------

def test_acceptance_9_determinism():
    start = time.perf_counter()
    first = run_verify_bounds(ExperimentConfig())
    second = run_verify_bounds(ExperimentConfig())
    assert first.csv_text().encode() == second.csv_text().encode()
    assert first.json_text().encode() == second.json_text().encode()
    assert first.violations == 0
    elapsed = time.perf_counter() - start
    _report(9, elapsed, "two default-suite runs emit byte-identical reports")
