"""Bump functionals: the joint two-weight constant, entropy bumps, and
direct-comparison bumps.

Every supremum here runs over the finitely many grid cubes of levels 0..N.
The common (un-bumped) factor is

    joint(Q) = w(Q)^{1/q} sigma(Q)^{1/p'} / |Q|^{1 - alpha/d},

the entropy bump multiplies it by rho(Q; sigma)^{1/q} eps(rho(Q; sigma))^{1/q},
and the direct bump by eps(<sigma>_Q)^{1/q}, with eps drawn from the
logarithmic families below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .grid import DyadicCube, GridConfig
from .maximal import rho
from .weights import Weight, average, mass

LN2 = math.log(2.0)


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent tuple (p, q, alpha, d) with derived Holder duals.

    mode "strict" enforces 1 < p < q < infinity; mode "extended" permits
    p = q for diagonal-case studies.
    """

    p: float
    q: float
    alpha: float
    d: int
    mode: str = "strict"

    def __post_init__(self) -> None:
        if self.mode not in ("strict", "extended"):
            raise ValueError(f"mode must be strict or extended, got {self.mode!r}")
        if not self.p > 1:
            raise ValueError(f"need p > 1, got p={self.p}")
        if self.mode == "strict" and not self.p < self.q:
            raise ValueError(f"strict mode needs p < q, got p={self.p}, q={self.q}")
        if not self.p <= self.q:
            raise ValueError(f"need p <= q, got p={self.p}, q={self.q}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        if self.d not in (1, 2):
            raise ValueError(f"d must be 1 or 2, got {self.d}")
        if not 0 <= self.alpha < self.d:
            raise ValueError(f"need 0 <= alpha < d, got alpha={self.alpha}")

    @property
    def p_dual(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_dual(self) -> float:
        return self.q / (self.q - 1.0)

    def swapped(self) -> "ExponentConfig":
        """The dual exponent pair (q', p') playing the role of (p, q)."""
        return ExponentConfig(self.q_dual, self.p_dual, self.alpha, self.d, self.mode)


@dataclass(frozen=True)
class EntropyFunction:
    """An admissible eps with its dyadic tail sum.

    kind "entropy": eps(t) = (1 + max(ln t, 0))^{1+delta}, increasing on
    [1, inf) with sum_{r>=0} eps(2^r)^{-1} finite.
    kind "direct": eps(t) = (1 + |ln t|)^{1+delta}, decreasing on (0,1),
    increasing on (1, inf), with the two-sided dyadic sum finite.
    """

    kind: str
    delta: float

    def __post_init__(self) -> None:
        if self.kind not in ("entropy", "direct"):
            raise ValueError(f"eps kind must be entropy or direct, got {self.kind!r}")
        if not self.delta > 0:
            raise ValueError(f"need delta > 0, got {self.delta}")

    def __call__(self, t):
        return eps_eval(self, t)

    @cached_property
    def tail_sum(self) -> float:
        return eps_tail_sum(self)


def eps_eval(eps: EntropyFunction, t):
    """Evaluate eps pointwise; eps(1) = 1 for both kinds.  t must be > 0."""
    arr = np.asarray(t, dtype=float)
    if np.any(arr <= 0):
        raise ValueError("eps is defined for t > 0 only")
    log = np.log(arr)
    if eps.kind == "entropy":
        base = 1.0 + np.maximum(log, 0.0)
    else:
        base = 1.0 + np.abs(log)
    out = base ** (1.0 + eps.delta)
    return float(out) if np.isscalar(t) or arr.ndim == 0 else out


def _one_sided_tail_sum(delta: float, term_tol: float = 1e-7, r_cap: int = 10**7) -> float:
    """Upper bound on sum_{r>=0} (1 + r ln 2)^{-(1+delta)}.

    Partial sum until the term drops below term_tol (or r_cap), then an
    integral tail bound; the overshoot is at most the first omitted term.
    """
    s = 1.0 + delta
    total = 0.0
    r = 0
    chunk = 65536
    while r < r_cap:
        hi = min(r + chunk, r_cap)
        block = (1.0 + np.arange(r, hi, dtype=float) * LN2) ** (-s)
        total += float(block.sum())
        r = hi
        if block[-1] < term_tol:
            break
    # integral tail: sum_{j > r-1} f(j) <= int_{r-1}^inf (1 + x ln2)^{-s} dx
    last = r - 1
    tail = (1.0 + last * LN2) ** (-delta) / (delta * LN2)
    return total + tail


def eps_tail_sum(eps: EntropyFunction) -> float:
    """The dyadic inverse sum Sigma_eps, reported as a tight upper bound.

    entropy kind: sum over r >= 0 of eps(2^r)^{-1}.
    direct kind: sum over all integers r; by r <-> -r symmetry this equals
    twice the one-sided sum minus the r = 0 term.
    """
    one_sided = _one_sided_tail_sum(eps.delta)
    if eps.kind == "entropy":
        return one_sided
    return 2.0 * one_sided - 1.0


@dataclass(frozen=True)
class BumpReport:
    """Constants with their argmax cubes and the rho value at each argmax."""

    constants: dict[str, float]
    argmax: dict[str, DyadicCube]
    rho_at_argmax: dict[str, float]
    eps: EntropyFunction | None = None

    def to_dict(self) -> dict:
        out = dict(self.constants)
        out["argmax"] = {k: c.text for k, c in self.argmax.items()}
        out["rho_at_argmax"] = dict(self.rho_at_argmax)
        if self.eps is not None:
            out["eps"] = {
                "kind": self.eps.kind,
                "delta": self.eps.delta,
                "tail_sum": self.eps.tail_sum,
            }
        return out


def _check_same_grid(sigma: Weight, w: Weight) -> GridConfig:
    if sigma.grid != w.grid:
        raise ValueError("sigma and w must live on the same grid")
    return sigma.grid


def joint_factor(sigma: Weight, w: Weight, cfg: ExponentConfig, cube: DyadicCube) -> float:
    """Per-cube joint factor w(Q)^{1/q} sigma(Q)^{1/p'} / |Q|^{1-alpha/d},
    evaluated in scalar arithmetic (the witness form of the constants)."""
    scale = 2.0 ** (cube.level * (cfg.d - cfg.alpha))
    return mass(w, cube) ** (1.0 / cfg.q) * mass(sigma, cube) ** (1.0 / cfg.p_dual) * scale


def _joint_levels(sigma: Weight, w: Weight, cfg: ExponentConfig) -> list[np.ndarray]:
    """Per level, the joint factor w(Q)^{1/q} sigma(Q)^{1/p'} |Q|^{alpha/d - 1}."""
    grid = sigma.grid
    d = grid.dimension
    out = []
    for k in range(grid.leaf_level + 1):
        scale = 2.0 ** (k * (d - cfg.alpha))  # |Q|^{alpha/d - 1}
        out.append(w.mass_levels[k] ** (1.0 / cfg.q)
                   * sigma.mass_levels[k] ** (1.0 / cfg.p_dual) * scale)
    return out


def _rho_of(weight: Weight, cube: DyadicCube) -> float | None:
    """rho(Q; weight), or None where weight(Q) = 0 and rho is undefined."""
    return rho(weight, cube) if mass(weight, cube) > 0 else None


def _sup(sigma: Weight, w: Weight, cfg: ExponentConfig, joint: list[np.ndarray],
         weight: Weight | None = None, eps: EntropyFunction | None = None,
         exponents=(1.0,)) -> list[tuple[float, DyadicCube]]:
    """Per exponent e, the constant sup_Q joint(Q) * bump_e(Q) and its argmax.

    Without a weight the bump is 1 (the joint constant A).  Otherwise the key
    is rho(Q; weight) with bump key^e * eps(key)^e for an entropy eps, and
    <weight>_Q with bump eps(key)^e for a direct eps; a cube where the key is
    undefined (zero mass) contributes 0, as the joint factor vanishes there.
    One scan over the levels evaluates eps once per key and keeps the first
    (smallest level, then index) maximum of each constant; the value is then
    re-evaluated at that cube in scalar arithmetic, multiplied in the same
    order, so a witness recomputation reproduces it exactly.
    """
    entropy = eps is not None and eps.kind == "entropy"

    def bumped(j, t, eps_t, e):
        return (j * t**e if entropy else j) * eps_t**e

    best = [(-np.inf, 0, 0)] * len(exponents)  # (value, level, flat index)
    for k, j in enumerate(joint):
        if weight is not None:
            key = weight.rho_levels[k] if entropy else weight.level_averages(k)
            defined = key > 0  # False on NaN (rho of a zero-mass cube) and on 0
            t = np.where(defined, key, 1.0)
            eps_t = eps_eval(eps, t)
        for i, e in enumerate(exponents):
            vals = j if weight is None else np.where(defined, bumped(j, t, eps_t, e), 0.0)
            m = int(np.argmax(vals))
            if vals.flat[m] > best[i][0]:
                best[i] = (float(vals.flat[m]), k, m)
    out = []
    for (_, k, m), e in zip(best, exponents):
        cube = DyadicCube(k, tuple(int(x) for x in np.unravel_index(m, joint[k].shape)))
        value = joint_factor(sigma, w, cfg, cube)
        if weight is not None:
            t = _rho_of(weight, cube) if entropy else average(weight, cube)
            # t is None or 0 where the key is undefined
            value = bumped(value, t, eps_eval(eps, t), e) if t else 0.0
        out.append((value, cube))
    return out


def _report(found: dict[str, tuple[float, DyadicCube, Weight]], eps: EntropyFunction) -> BumpReport:
    """A BumpReport from name -> (constant, argmax, weight whose rho is reported there)."""
    return BumpReport({name: v for name, (v, _, _) in found.items()},
                      {name: cube for name, (_, cube, _) in found.items()},
                      {name: _rho_of(wt, cube) for name, (_, cube, wt) in found.items()},
                      eps)


def joint_apq_constant(sigma: Weight, w: Weight, cfg: ExponentConfig) -> dict:
    """The un-bumped joint constant A = sup_Q joint(Q) with its argmax.

    The supremum is located by a vectorized scan; the reported value is the
    scalar per-cube expression at the argmax, so a witness recomputation
    reproduces it exactly.
    """
    _check_same_grid(sigma, w)
    [(a, cube)] = _sup(sigma, w, cfg, _joint_levels(sigma, w, cfg))
    return {"A": a, "argmax": cube}


def entropy_bumps(sigma: Weight, w: Weight, cfg: ExponentConfig,
                  eps: EntropyFunction) -> BumpReport:
    """Entropy bump constants.

    E bumps the joint factor by rho(Q; sigma)^{1/q} eps(rho(Q; sigma))^{1/q}.
    The dual constant is computed two ways: E_star_printed keeps
    rho(Q; sigma) in the exponent-1/p' bump; E_star_symmetric (the
    duality-consistent reading, and the one the dual proof chain consumes)
    uses rho(Q; w).  Cubes where the relevant weight has zero mass
    contribute 0, as the joint factor vanishes there.
    """
    if eps.kind != "entropy":
        raise ValueError("direct eps passed to entropy bump")
    _check_same_grid(sigma, w)
    joint = _joint_levels(sigma, w, cfg)
    [a] = _sup(sigma, w, cfg, joint)
    e, e_printed = _sup(sigma, w, cfg, joint, sigma, eps, (1.0 / cfg.q, 1.0 / cfg.p_dual))
    [e_symmetric] = _sup(sigma, w, cfg, joint, w, eps, (1.0 / cfg.p_dual,))
    return _report({"A": (*a, sigma), "E": (*e, sigma), "E_star_printed": (*e_printed, sigma),
                    "E_star_symmetric": (*e_symmetric, w)}, eps)


def direct_bumps(sigma: Weight, w: Weight, cfg: ExponentConfig,
                 eps: EntropyFunction) -> BumpReport:
    """Direct-comparison bump constants.

    D bumps the joint factor by eps(<sigma>_Q)^{1/q}; D_star by
    eps(<w>_Q)^{1/p'}.  Cubes with zero average contribute 0 (the joint
    factor vanishes there too).  rho(Q; sigma) is reported at every argmax.
    """
    if eps.kind != "direct":
        raise ValueError("entropy eps passed to direct bump")
    _check_same_grid(sigma, w)
    joint = _joint_levels(sigma, w, cfg)
    [a] = _sup(sigma, w, cfg, joint)
    [d] = _sup(sigma, w, cfg, joint, sigma, eps, (1.0 / cfg.q,))
    [d_star] = _sup(sigma, w, cfg, joint, w, eps, (1.0 / cfg.p_dual,))
    return _report({"A": (*a, sigma), "D": (*d, sigma), "D_star": (*d_star, sigma)}, eps)
