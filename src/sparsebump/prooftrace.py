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
per-member masses and testing terms; a dual chain runs on `Instance.dual`.
"""

from __future__ import annotations

import json
import math
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


def _bucket_of(value: float) -> int:
    """floor(log2(value)) computed exactly via the binary exponent."""
    if value <= 0 or not math.isfinite(value):
        raise ValueError(f"bucket key must be positive and finite, got {value}")
    mantissa, exponent = math.frexp(value)  # value = mantissa * 2^exponent, mantissa in [0.5, 1)
    return exponent - 1


def _eps_floor(eps: EntropyFunction, a: int) -> float:
    """Infimum of eps over the bucket [2^a, 2^{a+1}).

    For the entropy kind (a >= 0 always) this is eps(2^a).  For the direct
    kind, eps decreases on (0,1), so buckets left of 1 are bounded below by
    the right endpoint value eps(2^{a+1}).
    """
    if a >= 0:
        return eps_eval(eps, 2.0**a)
    return eps_eval(eps, 2.0 ** (a + 1))


def _strata(family: SparseFamily, sigma: Weight, key: str, inside: np.ndarray,
            masses: np.ndarray):
    """Key values of the members in `inside` and, per bucket a = floor(log2
    key) in increasing order, (a, bucket mask, mask of its maximal members);
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
    positions = np.flatnonzero(inside)
    if key == "rho":
        values = family.gather(sigma.rho_levels)[positions].tolist()
    else:
        values = np.ldexp(masses[positions], sigma.grid.dimension * family.level[positions]).tolist()
    bucket = np.zeros(len(family.members), dtype=np.int64)
    bucket[positions] = [_bucket_of(v) for v in values]
    strata = []
    for a in sorted(set(bucket[positions].tolist())):
        in_a = inside & (bucket == a)
        strata.append((a, in_a, in_a & (family.ancestor_sum(in_a) == 1.0)))
    return dict(zip(positions.tolist(), values)), strata


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
    keys, strata = _strata(family, sigma, "rho" if kind == "entropy" else "average",
                           family.inside(r), sigma_q)

    if c_bump is None:
        bumps = entropy_bumps if kind == "entropy" else direct_bumps
        c_bump = bumps(sigma, w, cfg, eps).constants["E" if kind == "entropy" else "D"]

    # stage (i): exact regrouping of the testing sum with w(Q) masses
    term = inst.mass_terms
    lhs_total = float(family.descendant_sum(term)[r])
    if kind == "entropy":
        # the Carleson left-hand sides, sum of sigma(Q) over members Q ⊆ Q*
        carleson_lhs = family.descendant_sum(sigma_q)
    else:
        # the sparseness volume bound: sum of |Q| over members Q inside Q*
        volumes = family.descendant_sum(np.ldexp(1.0, -cfg.d * family.level))
    regrouped = 0.0
    records: list[StratumRecord] = []
    qp = cfg.q / cfg.p
    inner_ok = True
    for a, in_a, top in strata:
        floor_val = _eps_floor(eps, a)
        inner = family.descendant_sum(np.where(in_a, term, 0.0))
        for i in np.flatnonzero(top):
            q_star = family.members[i]
            inner_lhs = float(inner[i])
            regrouped += inner_lhs
            sigma_star = float(sigma_q[i])
            inner_bound = (c_bump**cfg.q) * (2.0 / (1.0 - lam)) * sigma_star**qp / floor_val
            if c_bump > 0 and sigma_star > 0:
                realized = inner_lhs * floor_val / (c_bump**cfg.q * sigma_star**qp)
            else:
                realized = 0.0 if inner_lhs == 0 else math.inf
            # supporting estimate: Carleson for the entropy chain (the ratio
            # carleson_check gives, with rho(Q*) read from the strata keys),
            # the sparseness volume bound for the direct chain
            if kind == "entropy":
                support_ratio = float(carleson_lhs[i]) / (keys[i] * sigma_star / (1.0 - lam))
            else:
                support_ratio = float(volumes[i]) * (1.0 - lam) / q_star.volume
            ok = (inner_lhs <= inner_bound * (1.0 + SLACK)
                  and support_ratio <= 1.0 + SLACK)
            inner_ok = inner_ok and ok
            records.append(
                StratumRecord(a, q_star, inner_lhs, inner_bound, realized,
                              support_ratio, ok))

    if lhs_total > 0:
        identity_error = abs(lhs_total - regrouped) / lhs_total
    else:
        identity_error = abs(regrouped)
    identity_ok = identity_error <= SLACK

    # stage (iii): the assembled explicit-constant bound
    final_bound = (2.0 * eps.tail_sum / (1.0 - lam)) * c_bump**cfg.q * float(sigma_q[r])**qp
    final_ok = lhs_total <= final_bound * (1.0 + SLACK)

    # certificate: testing value at R with w(E_Q) masses (<= the w(Q) form)
    testing_sum = float(inst.testing_sums[r])
    testing_value = float(sigma_q[r]) ** (-1.0 / cfg.p) * testing_sum ** (1.0 / cfg.q)
    certified_constant = (2.0 * eps.tail_sum / (1.0 - lam)) ** (1.0 / cfg.q)
    certified_ok = testing_value <= certified_constant * c_bump * (1.0 + SLACK)

    return TraceReport(
        kind=kind, R=r_cube, lhs_total=lhs_total, strata=records,
        identity_ok=identity_ok, identity_error=identity_error,
        inner_ok=inner_ok, final_bound=final_bound, final_ok=final_ok,
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
