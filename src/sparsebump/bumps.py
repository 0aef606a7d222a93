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
from .maximal import rho, rho_all
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
    dual_rho: str | None = None

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
        if self.dual_rho is not None:
            out["dual_rho"] = self.dual_rho
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


def _argmax_over_levels(levels: list[np.ndarray]) -> tuple[float, DyadicCube]:
    """Global max with the smallest (level, index) witness on ties."""
    best = -np.inf
    best_cube = None
    for k, arr in enumerate(levels):
        flat = arr.ravel()
        j = int(np.argmax(flat))
        v = float(flat[j])
        if v > best:
            best = v
            if arr.ndim == 1:
                best_cube = DyadicCube(k, (j,))
            else:
                n = arr.shape[1]
                best_cube = DyadicCube(k, (j // n, j % n))
    return best, best_cube


def joint_apq_constant(sigma: Weight, w: Weight, cfg: ExponentConfig) -> dict:
    """The un-bumped joint constant A = sup_Q joint(Q) with its argmax.

    The supremum is located by a vectorized scan; the reported value is the
    scalar per-cube expression at the argmax, so a witness recomputation
    reproduces it exactly.
    """
    _check_same_grid(sigma, w)
    _, cube = _argmax_over_levels(_joint_levels(sigma, w, cfg))
    return {"A": joint_factor(sigma, w, cfg, cube), "argmax": cube}


def _rho_of(weight: Weight, cube: DyadicCube) -> float | None:
    if mass(weight, cube) <= 0:
        return None
    return rho(weight, cube)


def entropy_bumps(sigma: Weight, w: Weight, cfg: ExponentConfig,
                  eps: EntropyFunction, dual_rho: str = "symmetric") -> BumpReport:
    """Entropy bump constants.

    E bumps the joint factor by rho(Q; sigma)^{1/q} eps(rho(Q; sigma))^{1/q}.
    The dual constant is computed both ways: "as_printed" keeps rho(Q; sigma)
    in the exponent-1/p' bump; "symmetric" (the duality-consistent reading,
    and the one the dual proof chain consumes) uses rho(Q; w).  Cubes where
    the relevant weight has zero mass contribute 0, as the joint factor
    vanishes there.
    """
    if eps.kind != "entropy":
        raise ValueError("direct eps passed to entropy bump")
    if dual_rho not in ("as_printed", "symmetric"):
        raise ValueError(f"dual_rho must be as_printed or symmetric, got {dual_rho!r}")
    grid = _check_same_grid(sigma, w)
    joint = _joint_levels(sigma, w, cfg)
    rho_sigma = rho_all(sigma)
    rho_w = rho_all(w)

    def bumped(rho_levels, exponent):
        out = []
        for k in range(grid.leaf_level + 1):
            r = rho_levels[k]
            degenerate = np.isnan(r)
            safe = np.where(degenerate, 1.0, r)
            vals = np.where(
                degenerate, 0.0,
                joint[k] * safe**exponent * eps_eval(eps, safe) ** exponent,
            )
            out.append(vals)
        return out

    def finalize(cube, rho_weight, exponent):
        """Scalar witness value at the scanned argmax."""
        r = _rho_of(rho_weight, cube)
        if r is None:
            return 0.0, None
        return (joint_factor(sigma, w, cfg, cube)
                * r**exponent * eps_eval(eps, r) ** exponent, r)

    _, a_cube = _argmax_over_levels(joint)
    _, e_cube = _argmax_over_levels(bumped(rho_sigma, 1.0 / cfg.q))
    _, ep_cube = _argmax_over_levels(bumped(rho_sigma, 1.0 / cfg.p_dual))
    _, es_cube = _argmax_over_levels(bumped(rho_w, 1.0 / cfg.p_dual))
    e_val, e_rho = finalize(e_cube, sigma, 1.0 / cfg.q)
    ep_val, ep_rho = finalize(ep_cube, sigma, 1.0 / cfg.p_dual)
    es_val, es_rho = finalize(es_cube, w, 1.0 / cfg.p_dual)
    constants = {
        "A": joint_factor(sigma, w, cfg, a_cube),
        "E": e_val,
        "E_star_printed": ep_val,
        "E_star_symmetric": es_val,
    }
    argmax = {"A": a_cube, "E": e_cube, "E_star_printed": ep_cube,
              "E_star_symmetric": es_cube}
    rho_at = {
        "A": _rho_of(sigma, a_cube),
        "E": e_rho,
        "E_star_printed": ep_rho,
        "E_star_symmetric": es_rho,
    }
    return BumpReport(constants, argmax, rho_at, eps, dual_rho)


def direct_bumps(sigma: Weight, w: Weight, cfg: ExponentConfig,
                 eps: EntropyFunction) -> BumpReport:
    """Direct-comparison bump constants.

    D bumps the joint factor by eps(<sigma>_Q)^{1/q}; D_star by
    eps(<w>_Q)^{1/p'}.  Cubes with zero average contribute 0 (the joint
    factor vanishes there too).
    """
    if eps.kind != "direct":
        raise ValueError("entropy eps passed to direct bump")
    grid = _check_same_grid(sigma, w)
    joint = _joint_levels(sigma, w, cfg)

    def bumped(weight, exponent):
        out = []
        for k in range(grid.leaf_level + 1):
            avg = weight.level_averages(k)
            safe = np.where(avg > 0, avg, 1.0)
            vals = np.where(avg > 0, joint[k] * eps_eval(eps, safe) ** exponent, 0.0)
            out.append(vals)
        return out

    def finalize(cube, avg_weight, exponent):
        avg = average(avg_weight, cube)
        if avg <= 0:
            return 0.0
        return joint_factor(sigma, w, cfg, cube) * eps_eval(eps, avg) ** exponent

    _, a_cube = _argmax_over_levels(joint)
    _, d_cube = _argmax_over_levels(bumped(sigma, 1.0 / cfg.q))
    _, ds_cube = _argmax_over_levels(bumped(w, 1.0 / cfg.p_dual))
    constants = {
        "A": joint_factor(sigma, w, cfg, a_cube),
        "D": finalize(d_cube, sigma, 1.0 / cfg.q),
        "D_star": finalize(ds_cube, w, 1.0 / cfg.p_dual),
    }
    argmax = {"A": a_cube, "D": d_cube, "D_star": ds_cube}
    rho_at = {
        "A": _rho_of(sigma, a_cube),
        "D": _rho_of(sigma, d_cube),
        "D_star": _rho_of(sigma, ds_cube),
    }
    return BumpReport(constants, argmax, rho_at, eps)
