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

The chain at R reads only the members inside R, so a trace at R marks
them, buckets only them and runs one pass over the instance's family and
arrays, which checks the chain at every member inside R.  Stage (ii) does
not depend on R: the bucket's members inside R below a maximal Q* are those
inside Q*, so each member is checked once, in its own bucket, and a failed
Q* fails each R from Q* up to its bucket's next member.  Each stage's check
is one array over the members inside R, R first (`TraceReport.checks`), and
`TraceReport.failed` lists the members where any of them fails.  The report
at R is row R of the pass's arrays, so a chain passes at R exactly when R is
not in `failed`; its `strata`, made when first read, hold one `StratumRecord`
(a named tuple) per (bucket, Q*) pair maximal in its bucket.  A trace costs
one column-batched up-sweep for every sum; below the root, a down-sweep of
R's indicator that marks the members inside R; and, only when `strata` is
first read, a down-sweep of the bucket masks that counts, per bucket, the
bucket's members containing each member.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

# the names marked noqa are not called here (a one-constant PairScan, the support
# ratios and Weight.rho_levels replace them): perfbench/layers.py (BINDINGS) wraps them
from .bumps import BumpReport, EntropyFunction, ExponentConfig, PairScan, eps_eval
from .bumps import direct_bumps, entropy_bumps  # noqa: F401
from .grid import DyadicCube
from .operators import Instance
from .sparse import SparseFamily, carleson_check  # noqa: F401
from .weights import Weight, rho  # noqa: F401

TRACE_SCHEMA = "trace/v1"

# Relative slack of every inequality check (and the bound on the identity
# error).  Each compared quantity is a sum of at most |S| nonnegative terms,
# each a product of a few correctly rounded factors and pow() results.  A
# sum of n nonnegative terms carries a relative rounding error of at most
# (n-1)u/(1-(n-1)u), u = 2^-53, and each factor adds about u: 1e-12 ~ 9000u
# covers that worst case for |S| up to about 9,000 only.  Past it the cover
# is measured: on the stopping families of 30,255 (d=1 N=20) and 35,882
# members (d=2 N=10) that CI certifies at seed 42, where the worst case is
# 4e-12, the identity error of all four chains was at most 3.9e-16 at every
# R, the root included.  A true excess of a part in 1e12 is still reported.
# The one other tolerance, `bumps.SCORE_MARGIN`, widens the argmax search of
# the bump constants; it is derived there.
SLACK = 1e-12


def _strata(family: SparseFamily, sigma: Weight, kind: str, masses: np.ndarray, inside: np.ndarray):
    """Per member the key of the chain of `kind`, rho(Q; sigma) for the
    entropy chain and <sigma>_Q for the direct one; the buckets a = floor(log2
    key) of the members marked by `inside` (those inside R), in increasing
    order; and the (|S|, B) mask, column j for bucket a[j], of the bucket's
    members inside R.  `masses` holds sigma(Q) per member.

    Every cube inside R with zero sigma-mass is rejected by name, since
    neither key is defined there.
    """
    zero = inside & (masses <= 0)
    if zero.any():
        raise ValueError(f"zero-mass cube in family: {family.cube(np.argmax(zero)).text}")
    keys = (family.gather(sigma.rho_levels) if kind == "entropy"
            else np.ldexp(masses, sigma.grid.dimension * family.level))
    # key = mantissa * 2^exponent with the mantissa in [0.5, 1), exactly; the
    # exponents as int64 like every other index array, not frexp's int32
    bucket = np.frexp(keys)[1].astype(np.int64) - 1
    a = np.array(sorted(set(bucket[inside].tolist())), dtype=np.int64)
    in_bucket = inside[:, None] & (bucket[:, None] == a)
    return keys, a, in_bucket


class StratumRecord(NamedTuple):
    a: int
    q_star: DyadicCube
    inner_lhs: float
    inner_bound: float
    realized_constant: float
    support_ratio: float
    ok: bool

    def to_dict(self) -> dict:
        return {**self._asdict(), "q_star": self.q_star.text}


@dataclass(frozen=True)
class TraceReport:
    """Outcome of one executed proof chain."""

    kind: str
    R: DyadicCube
    lhs_total: float
    # makes `strata`, the records of the pairs maximal in their buckets, on its first read
    records: Callable[[], list[StratumRecord]] = field(repr=False, compare=False)
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
    # per member inside R, in member order (R first), whether each stage
    # holds there, keyed identity, inner, final and certificate; the flags
    # above are row 0 of these arrays.  Not in to_dict
    checks: dict[str, np.ndarray] = field(default_factory=dict, repr=False, compare=False)
    # every member inside R at which the chain fails, in member order; not in to_dict
    failed: tuple[DyadicCube, ...] = field(default=(), repr=False)

    strata = cached_property(lambda self: self.records())

    @property
    def passed(self) -> bool:
        """Every stage holds at R: row 0 of every check, so exactly when R is
        not in `failed`."""
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
    """The chain of `kind` on the instance's (family, sigma, w, cfg)
    restricted to the members inside R = r_cube, checked at each of them and
    reported at R; c_bump is its bump constant (E or D of (sigma, w)),
    computed here when None."""
    if eps.kind != kind:
        raise ValueError(f"{eps.kind} eps passed to {kind} trace")
    family = inst.family
    if (r := family.position(r_cube)) < 0:
        raise ValueError(f"cube {r_cube.text} is not in the family")
    # the members inside R: those R's indicator reaches on a down-sweep, all at the root
    inside = family.ancestor_sum(np.arange(len(family)) == r) > 0 if r else np.ones(len(family), dtype=bool)
    sigma, w, cfg = inst.sigma, inst.w, inst.cfg
    lam, sigma_q = family.lam, inst.sigma_mass
    keys, a, in_bucket = _strata(family, sigma, kind, sigma_q, inside)
    if c_bump is None:
        name = "E" if kind == "entropy" else "D"
        c_bump = PairScan(sigma, w, cfg, **{kind: eps}, names=(name,)).found[name][0]

    # one up-sweep for every sum of the chain, with w(Q) masses: column 0 the
    # testing sum, column 1 the support sums (sigma(Q) for the Carleson
    # estimate, |Q| for the sparseness volume bound), then per bucket the
    # sums over its members
    term = inst.mass_terms
    support = sigma_q if kind == "entropy" else np.ldexp(1.0, -family.grid.dimension * family.level)
    sums = family.descendant_sum(np.column_stack([term, support, np.where(in_bucket, term[:, None], 0.0)]))
    lhs = sums[:, 0]

    # stage (ii) per (bucket, Q*) pair, one per member, in bucket order and
    # then member order.  The infimum of eps over [2^a, 2^{a+1}) is eps(2^a)
    # where eps increases (a >= 0), else eps(2^{a+1}): the direct eps falls
    # left of 1.  C^q sigma(Q)^{q/p} is powered as one product, since at
    # extreme exponents C^q overflows and sigma(Q)^{q/p} underflows apart; a
    # bound past the double range is inf, which holds and certifies nothing
    col, star = np.nonzero(in_bucket.T)
    floor_val = eps_eval(eps, np.ldexp(1.0, np.where(a >= 0, a, a + 1)))[col]
    factor = 2.0 * eps.tail_sum / (1.0 - lam)
    certified_constant = factor ** (1.0 / cfg.q)
    # per member R, each stage's check at R: (i) the bucket sums add up to
    # the testing sum; (ii) every pair maximal in its bucket inside R holds,
    # so a failed Q* fails each R from Q* up to its bucket's next member;
    # (iii) the testing sum stays under the final bound; and the certificate
    # (the testing value at R, with w(E_Q) masses, <= the w(Q) form)
    regrouped = sums[:, 2:].sum(axis=1)
    identity_error = np.divide(np.abs(lhs - regrouped), lhs, out=regrouped, where=lhs > 0)
    checks = {"identity": identity_error <= SLACK, "inner": np.ones(len(family), dtype=bool)}
    with np.errstate(over="ignore"):
        scale = (c_bump * sigma_q ** (1 / cfg.p)) ** cfg.q
        inner_lhs, sigma_star, scale_star = sums[star, 2 + col], sigma_q[star], scale[star]
        inner_bound = scale_star * (2.0 / (1.0 - lam)) / floor_val
        realized = np.divide(inner_lhs * floor_val, scale_star, out=np.where(inner_lhs == 0, 0.0, np.inf),
                             where=scale_star > 0)
        if kind == "entropy":
            # the ratio carleson_check gives, with rho(Q*) read from the keys
            support_ratio = sums[star, 1] / (keys[star] * sigma_star / (1.0 - lam))
        else:
            support_ratio = sums[star, 1] * (1.0 - lam) / support[star]
        ok = (inner_lhs <= inner_bound * (1.0 + SLACK)) & (support_ratio <= 1.0 + SLACK)
        final_bound = factor * scale
        checks["final"] = lhs <= final_bound * (1.0 + SLACK)
    checks["certificate"] = inst.testing_values <= certified_constant * c_bump * (1.0 + SLACK)
    for j, c in zip(star[~ok].tolist(), col[~ok].tolist()):
        checks["inner"][j] = False
        while j != r and not in_bucket[(j := family.parent[j]), c]:
            checks["inner"][j] = False

    checks = {name: check[inside] for name, check in checks.items()}
    held = np.logical_and.reduce(list(checks.values()))
    # the report at R: row R of every array, the checks of the members inside
    # R (R first), and the records of the pairs whose Q* no other member of its
    # bucket contains, counted by a down-sweep of the bucket masks when read
    def records():
        pick = family.ancestor_sum(in_bucket)[star, col] == 1
        return list(map(StratumRecord, a[col[pick]].tolist(), map(family.cube, star[pick].tolist()),
                        *(v[pick].tolist() for v in (inner_lhs, inner_bound, realized, support_ratio, ok))))

    return TraceReport(
        kind=kind, R=r_cube, lhs_total=float(lhs[r]),
        records=records,
        identity_ok=bool(checks["identity"][0]), identity_error=float(identity_error[r]),
        inner_ok=bool(checks["inner"][0]), final_bound=float(final_bound[r]), final_ok=bool(checks["final"][0]),
        certified_constant=certified_constant, bump_constant=c_bump,
        testing_value=float(inst.testing_values[r]), certified_ok=bool(checks["certificate"][0]),
        exponents=cfg, eps=eps, lam=lam, checks=checks,
        failed=tuple(map(family.cube, np.flatnonzero(inside)[~held].tolist())),
    )


def entropy_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                  bump: BumpReport | None = None) -> TraceReport:
    """Execute the entropy chain at R: stratify by rho(Q; sigma), verify the
    regrouping identity, the per-stratum inner bounds (through the Carleson
    estimate), and the final bound certifying T_R <= (2 Sigma_eps/(1-lam))^{1/q} E."""
    return _run_trace("entropy", inst, eps, r_cube, bump and bump.constants["E"])


def direct_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                 bump: BumpReport | None = None) -> TraceReport:
    """Execute the direct-comparison chain at R: stratify by <sigma>_Q; the
    inner bound uses the sparseness volume bound in place of the Carleson
    estimate, certifying T_R <= (2 Sigma_eps/(1-lam))^{1/q} D."""
    return _run_trace("direct", inst, eps, r_cube, bump and bump.constants["D"])


def dual_entropy_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                       bump: BumpReport | None = None) -> TraceReport:
    """The dual chain, certifying T* <= (2 Sigma_eps/(1-lam))^{1/p'} E*_symmetric:
    run the primal chain with (sigma, p) <-> (w, q') swapped.  `bump` is the
    entropy BumpReport of (sigma, w); its E*_symmetric is the E of the
    swapped pair, so it is read there instead of recomputed."""
    return _run_trace("entropy", inst.dual, eps, r_cube, bump and bump.constants["E_star_symmetric"])


def dual_direct_trace(inst: Instance, eps: EntropyFunction, r_cube: DyadicCube,
                      bump: BumpReport | None = None) -> TraceReport:
    """The dual direct chain, certifying T* <= (2 Sigma_eps/(1-lam))^{1/p'} D*.
    `bump` is the direct BumpReport of (sigma, w); its D* is the D of the
    swapped pair."""
    return _run_trace("direct", inst.dual, eps, r_cube, bump and bump.constants["D_star"])
