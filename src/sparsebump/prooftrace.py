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

The chain at R reads only the members inside R, which form a
lambda-sparse family with root R, so a trace at R is the chain on that
subfamily, reported at its root.  One pass checks the chain at every
member of the family it runs on.  Stage (ii) does not depend on R: the
bucket's members inside R below a maximal Q* are those inside Q*, so each
member is checked once, in its own bucket; stages (i) and (iii) and the
certificate are per-member arrays.  The report holds one `StratumRecord`
(a named tuple) per (bucket, Q*) pair maximal in its bucket;
`TraceReport.failed` lists every member where the chain fails.  A trace
costs two tree sweeps: a down-sweep that counts, per bucket, the bucket's
members containing each member, an up-sweep for every sum.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .bumps import BumpReport, EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps, eps_eval
from .grid import DyadicCube
from .operators import Instance
# carleson_check and rho are not called here (the support ratios and Weight.rho_levels
# replace them); they stay bound because perfbench/layers.py (BINDINGS) wraps them.
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
# R and 3.0e-15 at the root (a left-to-right sum).  A true excess of a part
# in 1e12 is still reported.  The one other tolerance, `bumps.SCORE_MARGIN`,
# widens the argmax search of the bump constants; it is derived there.
SLACK = 1e-12


def _strata(family: SparseFamily, sigma: Weight, key: str, masses: np.ndarray):
    """Per member its key value; the buckets a = floor(log2 key) in
    increasing order; and two (|S|, B) arrays, column j for bucket a[j]: the
    mask of the bucket's members, and per member the number of the bucket's
    members that contain it (itself included).  A bucket member Q* is
    maximal in its bucket when its count is 1.  `masses` holds sigma(Q) per
    member.

    Every cube with zero sigma-mass is rejected by name, since neither key
    is defined there.
    """
    if key not in ("rho", "average"):
        raise ValueError(f"key must be rho or average, got {key!r}")
    zero = masses <= 0
    if zero.any():
        raise ValueError(f"zero-mass cube in family: {family.members[np.argmax(zero)].text}")
    keys = (family.gather(sigma.rho_levels) if key == "rho"
            else np.ldexp(masses, sigma.grid.dimension * family.level))
    # key = mantissa * 2^exponent with the mantissa in [0.5, 1), exactly; the
    # exponents as int64 like every other index array, not frexp's int32
    bucket = np.frexp(keys)[1].astype(np.int64) - 1
    a = np.array(sorted(set(bucket.tolist())), dtype=np.int64)
    in_bucket = bucket[:, None] == a
    return keys, a, in_bucket, family.ancestor_sum(in_bucket)


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
    # every member inside R at which the chain fails, in member order; not in to_dict
    failed: tuple[DyadicCube, ...] = field(default=(), repr=False)

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
    """The chain of `kind` on the instance's (family, sigma, w, cfg)
    restricted to the members inside R = r_cube, checked at every member and
    reported at R; c_bump is its bump constant (E or D of (sigma, w)),
    computed here when None."""
    if eps.kind != kind:
        raise ValueError(f"{eps.kind} eps passed to {kind} trace")
    family = inst.family
    if r_cube not in family:
        raise ValueError(f"cube {r_cube.text} is not in the family")
    if r_cube != family.root:
        # R's subfamily: the members that R's indicator reaches on a down-sweep
        inside = family.ancestor_sum(np.arange(len(family)) == family.position[r_cube]) > 0
        family = SparseFamily(family.grid, itertools.compress(family.members, inside), family.lam)
        inst = Instance(family, inst.sigma, inst.w, inst.cfg)
    sigma, w, cfg = inst.sigma, inst.w, inst.cfg
    lam, sigma_q = family.lam, inst.sigma_mass
    keys, a, in_bucket, count = _strata(family, sigma, "rho" if kind == "entropy" else "average", sigma_q)
    if c_bump is None:
        bumps = entropy_bumps if kind == "entropy" else direct_bumps
        c_bump = bumps(sigma, w, cfg, eps).constants["E" if kind == "entropy" else "D"]

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
        final_ok = lhs <= scale * (factor * (1.0 + SLACK))
        # stage (iii) at R alone, in the scalar arithmetic of a one-R chain
        final_bound = factor * float(np.float64(c_bump * float(sigma_q[0]) ** (1 / cfg.p)) ** cfg.q)

    # every R: the bucket sums add up to the testing sum (i), which stays
    # under the final bound (iii), and the certificate; then stage (ii) at
    # each R where a failed Q* is maximal in its bucket, from Q* up to the
    # bucket's next member
    certified_constant = factor ** (1.0 / cfg.q)
    bad = ~((np.abs(lhs - sums[:, 2:].sum(axis=1)) <= SLACK * lhs) & final_ok
            & (inst.testing_values <= certified_constant * c_bump * (1.0 + SLACK)))
    if not ok.all():
        for j, c in zip(star[~ok].tolist(), col[~ok].tolist()):
            bad[j] = True
            while (j := family.parent[j]) >= 0 and not in_bucket[j, c]:
                bad[j] = True

    # the report at R: the pairs with no other bucket member above Q*
    pick = count[star, col] == 1
    records = list(map(StratumRecord, a[col[pick]].tolist(), [family.members[i] for i in star[pick]],
                       inner_lhs[pick].tolist(), inner_bound[pick].tolist(), realized[pick].tolist(),
                       support_ratio[pick].tolist(), ok[pick].tolist()))
    # stage (i) at R, the inner sums added left to right
    lhs_total = float(lhs[0])
    regrouped = float(np.add.accumulate(inner_lhs[pick])[-1])
    identity_error = abs(lhs_total - regrouped) / lhs_total if lhs_total > 0 else abs(regrouped)
    # certificate: testing value at R with w(E_Q) masses (<= the w(Q) form)
    testing_value = float(inst.testing_values[0])
    return TraceReport(
        kind=kind, R=r_cube, lhs_total=lhs_total, strata=records,
        identity_ok=identity_error <= SLACK, identity_error=identity_error,
        inner_ok=bool(ok[pick].all()), final_bound=final_bound,
        final_ok=lhs_total <= final_bound * (1.0 + SLACK),
        certified_constant=certified_constant, bump_constant=c_bump, testing_value=testing_value,
        certified_ok=testing_value <= certified_constant * c_bump * (1.0 + SLACK),
        exponents=cfg, eps=eps, lam=lam, failed=tuple(family.members[i] for i in np.flatnonzero(bad)),
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
