"""Executable inequality chains with explicit tracked constants.

Both traces bound the testing sum

    lhs_total = sum_{Q in S, Q ⊆ R} |Q|^{q alpha/d} <sigma>_Q^q w(Q)

in three stages: (i) regroup the sum exactly by dyadic strata of a key
quantity (rho(Q; sigma) for the entropy chain, <sigma>_Q for the direct
chain) and by the maximal cubes of each stratum; (ii) bound each inner sum
by C^q * (2/(1-lambda)) * sigma(Q*)^{q/p} / eps_floor(a), where C is the
matching bump constant and eps_floor(a) is the infimum of eps over the
bucket [2^a, 2^{a+1}); (iii) sum the strata with disjointness of the
maximal cubes and superadditivity of x -> x^{q/p} to reach

    lhs_total <= (2 Sigma_eps / (1-lambda)) * C^q * sigma(R)^{q/p},

which certifies the testing constant restricted to R:

    T_R <= (2 Sigma_eps / (1-lambda))^{1/q} * C,

because the exceptional-set masses w(E_Q) are dominated by w(Q).  Dual
certificates follow by swapping (sigma, p) <-> (w, q') and rerunning the
same chain.  Every chain takes an `operators.Instance` first and reads its
per-member masses, terms and testing values; a dual chain runs on
`Instance.dual`.

A trace works on per-member arrays: its strata are (|S|, B) masks over the
B buckets.  Two down-sweeps find the members inside R and the maximal members
of every bucket, and one column-batched up-sweep gives every sum the chain
checks, so a trace costs three sweeps whatever its number of strata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .bumps import BumpReport, EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps, eps_eval
from .grid import DyadicCube
from .operators import Instance
from .sparse import SparseFamily, carleson_check  # noqa: F401 (public one-cube check)
# Not called here: every rho comes from Weight.rho_levels.  The name stays
# bound because perfbench/layers.py wraps prooftrace.rho to count rho calls.
from .weights import Weight, rho  # noqa: F401

TRACE_SCHEMA = "trace/v1"

# Relative slack of every inequality check (and the bound on the identity
# error).  Each compared quantity is a sum of at most |S| nonnegative terms,
# each a product of a few correctly rounded factors and pow() results.  A
# sum of n nonnegative terms, in any order, carries a relative rounding
# error of at most (n-1)u/(1-(n-1)u) with u = 2^-53 ~ 1.1e-16, and each
# factor adds about u.  1e-12 is ~9000u: it covers the worst case of the
# certified families (|S| up to a few thousand) with room to spare, while a
# true excess of a part in 1e12 or more is still reported.
SLACK = 1e-12


def _strata(family: SparseFamily, sigma: Weight, key: str, inside: np.ndarray,
            masses: np.ndarray):
    """Per member its key value; the buckets a = floor(log2 key) of the
    members in `inside`, in increasing order; and two (|S|, B) masks, column
    j for bucket a[j]: the members of the bucket and its maximal members.
    `masses` holds sigma(Q) per member.

    A bucket member is maximal when no other member of the bucket contains
    it: its ancestor sum of the bucket mask is 1.  Every cube with zero
    sigma-mass is rejected by name, since neither key is defined there.
    """
    if key not in ("rho", "average"):
        raise ValueError(f"key must be rho or average, got {key!r}")
    zero = inside & (masses <= 0)
    if zero.any():
        raise ValueError(f"zero-mass cube in family: {family.members[np.argmax(zero)].text}")
    keys = (family.gather(sigma.rho_levels) if key == "rho"
            else np.ldexp(masses, sigma.grid.dimension * family.level))
    # key = mantissa * 2^exponent with the mantissa in [0.5, 1), exactly; the
    # exponents as int64 like every other index array, not frexp's int32
    bucket = np.frexp(keys)[1].astype(np.int64) - 1
    a = np.array(sorted(set(bucket[inside].tolist())), dtype=np.int64)
    in_bucket = inside[:, None] & (bucket[:, None] == a)
    return keys, a, in_bucket, in_bucket & (family.ancestor_sum(in_bucket) == 1.0)


@dataclass(frozen=True)
class StratumRecord:
    a: int
    q_star: DyadicCube
    inner_lhs: float
    inner_bound: float
    realized_constant: float
    support_ratio: float
    ok: bool

    def to_dict(self) -> dict:
        return {
            "a": self.a,
            "q_star": self.q_star.text,
            "inner_lhs": self.inner_lhs,
            "inner_bound": self.inner_bound,
            "realized_constant": self.realized_constant,
            "support_ratio": self.support_ratio,
            "ok": self.ok,
        }


@dataclass(frozen=True)
class TraceReport:
    """Outcome of one executed proof chain."""

    kind: str
    R: DyadicCube
    lhs_total: float
    strata: list[StratumRecord] = field(repr=False)
    identity_ok: bool
    identity_error: float
    inner_ok: bool
    final_bound: float
    final_ok: bool
    certified_constant: float
    bump_constant: float
    testing_value: float
    certified_ok: bool
    exponents: ExponentConfig = field(repr=False)
    eps: EntropyFunction = field(repr=False)
    lam: float = 0.0

    @property
    def passed(self) -> bool:
        return self.identity_ok and self.inner_ok and self.final_ok and self.certified_ok

    def to_dict(self) -> dict:
        return {
            "schema": TRACE_SCHEMA,
            "kind": self.kind,
            "R": self.R.text,
            "lambda": self.lam,
            "p": self.exponents.p,
            "q": self.exponents.q,
            "alpha": self.exponents.alpha,
            "eps": {"kind": self.eps.kind, "delta": self.eps.delta,
                    "tail_sum": self.eps.tail_sum},
            "lhs_total": self.lhs_total,
            "stage_identity": {"ok": self.identity_ok, "relative_error": self.identity_error},
            "stage_inner": {"ok": self.inner_ok,
                            "strata": [s.to_dict() for s in self.strata]},
            "stage_final": {"ok": self.final_ok, "bound": self.final_bound},
            "certificate": {
                "ok": self.certified_ok,
                "constant": self.certified_constant,
                "bump_constant": self.bump_constant,
                "testing_value": self.testing_value,
            },
            "passed": self.passed,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)


def _run_trace(kind: str, inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
               c_bump: float | None) -> TraceReport:
    """The chain of `kind` at R on the instance's (family, sigma, w, cfg);
    c_bump is its bump constant (E or D of (sigma, w)), computed here when None."""
    if eps.kind != kind:
        raise ValueError(f"{eps.kind} eps passed to {kind} trace")
    family, sigma, w, cfg = inst.family, inst.sigma, inst.w, inst.cfg
    if r_cube not in family:
        raise ValueError(f"cube {r_cube.text} is not in the family")
    lam = family.lam
    r = family.position[r_cube]
    sigma_q = inst.sigma_mass
    keys, a, in_bucket, top = _strata(family, sigma, "rho" if kind == "entropy" else "average",
                                      family.inside(r), sigma_q)

    if c_bump is None:
        bumps = entropy_bumps if kind == "entropy" else direct_bumps
        c_bump = bumps(sigma, w, cfg, eps).constants["E" if kind == "entropy" else "D"]

    # one up-sweep for every sum of the chain, with w(Q) masses: column 0 the
    # testing sum, column 1 the support sums (sigma(Q) for the Carleson
    # estimate, |Q| for the sparseness volume bound), then per bucket the
    # inner sums over the bucket's members
    term = inst.mass_terms
    support = sigma_q if kind == "entropy" else np.ldexp(1.0, -cfg.d * family.level)
    sums = family.descendant_sum(
        np.column_stack([term, support, np.where(in_bucket, term[:, None], 0.0)]))
    lhs_total = float(sums[r, 0])

    # stage (ii) per (bucket, Q*) pair, in bucket order and then member order;
    # the infimum of eps over [2^a, 2^{a+1}) is eps(2^a) where eps increases
    # (a >= 0) and the right endpoint eps(2^{a+1}) left of 1, where the
    # direct eps decreases
    col, star = np.nonzero(top.T)
    floor_val = eps_eval(eps, np.ldexp(1.0, np.where(a >= 0, a, a + 1)))[col]
    inner_lhs, sigma_star = sums[star, 2 + col], sigma_q[star]
    qp, c_q = cfg.q / cfg.p, c_bump**cfg.q
    sigma_qp = sigma_star**qp
    inner_bound = c_q * (2.0 / (1.0 - lam)) * sigma_qp / floor_val
    scale = c_q * sigma_qp
    realized = np.divide(inner_lhs * floor_val, scale, out=np.where(inner_lhs == 0, 0.0, np.inf),
                         where=scale > 0)
    if kind == "entropy":
        # the ratio carleson_check gives, with rho(Q*) read from the keys
        support_ratio = sums[star, 1] / (keys[star] * sigma_star / (1.0 - lam))
    else:
        support_ratio = sums[star, 1] * (1.0 - lam) / support[star]
    ok = (inner_lhs <= inner_bound * (1.0 + SLACK)) & (support_ratio <= 1.0 + SLACK)
    records = list(map(StratumRecord, a[col].tolist(), [family.members[i] for i in star],
                       inner_lhs.tolist(), inner_bound.tolist(), realized.tolist(),
                       support_ratio.tolist(), ok.tolist()))

    # stage (i): the regrouping identity, the inner sums added left to right
    regrouped = float(np.add.accumulate(inner_lhs)[-1])
    identity_error = abs(lhs_total - regrouped) / lhs_total if lhs_total > 0 else abs(regrouped)
    identity_ok = identity_error <= SLACK

    # stage (iii): the assembled explicit-constant bound
    final_bound = (2.0 * eps.tail_sum / (1.0 - lam)) * c_q * float(sigma_q[r])**qp
    final_ok = lhs_total <= final_bound * (1.0 + SLACK)

    # certificate: testing value at R with w(E_Q) masses (<= the w(Q) form)
    testing_value = float(inst.testing_values[r])
    certified_constant = (2.0 * eps.tail_sum / (1.0 - lam)) ** (1.0 / cfg.q)
    certified_ok = testing_value <= certified_constant * c_bump * (1.0 + SLACK)

    return TraceReport(
        kind=kind, R=r_cube, lhs_total=lhs_total, strata=records,
        identity_ok=identity_ok, identity_error=identity_error,
        inner_ok=bool(ok.all()), final_bound=final_bound, final_ok=final_ok,
        certified_constant=certified_constant, bump_constant=c_bump,
        testing_value=testing_value, certified_ok=certified_ok,
        exponents=cfg, eps=eps, lam=lam,
    )


def entropy_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                  bump: BumpReport | None = None) -> TraceReport:
    """Execute the entropy chain at R: stratify by rho(Q; sigma), verify the
    regrouping identity, the per-stratum inner bounds (through the Carleson
    estimate), and the final bound certifying T_R <= (2 Sigma_eps/(1-lam))^{1/q} E."""
    return _run_trace("entropy", inst, eps, r_cube,
                      None if bump is None else bump.constants["E"])


def direct_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                 bump: BumpReport | None = None) -> TraceReport:
    """Execute the direct-comparison chain at R: stratify by <sigma>_Q; the
    inner bound uses the sparseness volume bound in place of the Carleson
    estimate, certifying T_R <= (2 Sigma_eps/(1-lam))^{1/q} D."""
    return _run_trace("direct", inst, eps, r_cube,
                      None if bump is None else bump.constants["D"])


def dual_entropy_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                       bump: BumpReport | None = None) -> TraceReport:
    """The dual chain, certifying T* <= (2 Sigma_eps/(1-lam))^{1/p'} E*_symmetric:
    run the primal chain with (sigma, p) <-> (w, q') swapped.  `bump` is the
    entropy BumpReport of (sigma, w); its E*_symmetric is the E of the
    swapped pair, so it is read there instead of recomputed."""
    return _run_trace("entropy", inst.dual, eps, r_cube,
                      None if bump is None else bump.constants["E_star_symmetric"])


def dual_direct_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                      bump: BumpReport | None = None) -> TraceReport:
    """The dual direct chain, certifying T* <= (2 Sigma_eps/(1-lam))^{1/p'} D*.
    `bump` is the direct BumpReport of (sigma, w); its D* is the D of the
    swapped pair."""
    return _run_trace("direct", inst.dual, eps, r_cube,
                      None if bump is None else bump.constants["D_star"])
