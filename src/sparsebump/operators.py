"""The sparse operator T(sigma f), its exact L2 -> L2 operator norm, general
(p, q) norm lower bounds, and the L1-form testing constants.

The operator sums |Q|^{alpha/d} <sigma |f|>_Q 1_Q over the family; it is
self-transpose for the unweighted pairing (its kernel is the symmetric
nonnegative sum of |Q|^{alpha/d - 1} 1_Q x 1_Q), so the adjoint against the
weighted inner products is the same sum applied with w in place of sigma.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bumps import ExponentConfig
from .grid import DyadicCube, leaf_slice, pyramid
from .sparse import SparseFamily
from .weights import LeafFunction, Weight


def _per_level(family: SparseFamily, fn) -> np.ndarray:
    """Per member, fn(level) evaluated once per level in scalar arithmetic."""
    return np.array([fn(k) for k in range(family.grid.leaf_level + 1)])[family.level]


def _sparse_avg_apply(family: SparseFamily, leaf_values: np.ndarray, alpha: float) -> np.ndarray:
    """sum over family cubes of |Q|^{alpha/d} <values>_Q 1_Q, as a leaf array:
    member block sums from one pyramid, their ancestor sums, and on each leaf
    the ancestor sum of its owner."""
    grid = family.grid
    d = grid.dimension
    # |Q|^{alpha/d} / |Q| = 2^{k(d - alpha)}; the leaf volume is a power of
    # two, so folding it in here is exact
    coef = _per_level(family, lambda k: 2.0 ** (k * (d - alpha)) * grid.leaf_volume)
    block_sums = family.gather(pyramid(leaf_values, grid))
    return family.at_leaves(family.ancestor_sum(block_sums * coef))


def apply_sparse(family: SparseFamily, sigma: Weight, f: LeafFunction, alpha: float) -> LeafFunction:
    """T(sigma f): leafwise sum of |Q|^{alpha/d} <sigma |f|>_Q over the
    family cubes containing the leaf."""
    grid = family.grid
    if sigma.grid != grid or f.grid != grid:
        raise ValueError("family, weight, and function must share one grid")
    if not 0 <= alpha < grid.dimension:
        raise ValueError(f"invalid fractional order alpha={alpha}")
    g = sigma.leaf_density * np.abs(f.values)
    return LeafFunction(grid, _sparse_avg_apply(family, g, alpha))


class PowerIterationError(RuntimeError):
    """Raised when the norm iteration fails to converge; carries the last
    two eigenvalue iterates."""

    def __init__(self, message: str, last_two: tuple[float, float]):
        super().__init__(f"{message} (last iterates: {last_two[0]!r}, {last_two[1]!r})")
        self.last_two = last_two


def exact_norm_l2(family: SparseFamily, sigma: Weight, w: Weight, alpha: float,
                  tol: float = 1e-12, max_iter: int = 50_000) -> float:
    """Operator norm of f -> T(sigma f) from L2(sigma) to L2(w).

    Power iteration on the self-adjoint composition G f = T_w(T_sigma f)
    (apply with sigma, multiply by w inside the second application), with
    the deterministic all-ones start on sigma-positive leaves.  Leaves with
    zero sigma-density are excluded from the domain space.
    """
    grid = family.grid
    if sigma.grid != grid or w.grid != grid:
        raise ValueError("family and weights must share one grid")
    support = sigma.leaf_density > 0
    leaf_mass_sigma = sigma.mass_levels[grid.leaf_level]
    leaf_dens_w = w.leaf_density

    def g_op(f: np.ndarray) -> np.ndarray:
        u = _sparse_avg_apply(family, sigma.leaf_density * f, alpha)
        out = _sparse_avg_apply(family, leaf_dens_w * u, alpha)
        out[~support] = 0.0
        return out

    f = np.where(support, 1.0, 0.0)
    norm0 = np.sqrt(float(np.sum(f * f * leaf_mass_sigma)))
    if norm0 == 0:
        raise ValueError("sigma vanishes on every leaf")
    f /= norm0
    lam_prev = np.inf
    lam = np.inf
    for _ in range(max_iter):
        u = g_op(f)
        lam_prev, lam = lam, float(np.sum(u * f * leaf_mass_sigma))
        if lam == 0.0:
            return 0.0
        if abs(lam - lam_prev) <= tol * lam:
            return float(np.sqrt(lam))
        f = u / np.sqrt(float(np.sum(u * u * leaf_mass_sigma)))
    raise PowerIterationError("power iteration did not converge", (lam_prev, lam))


def dense_norm_l2_oracle(family: SparseFamily, sigma: Weight, w: Weight, alpha: float) -> float:
    """Independent dense oracle: assemble the symmetric kernel matrix
    K[L, L'] = v * sum over family cubes containing both leaves of
    |Q|^{alpha/d - 1}, and return the top singular value of
    diag(w)^{1/2} K diag(sigma)^{1/2}.  Intended for small grids."""
    grid = family.grid
    n = grid.n_leaves
    d = grid.dimension
    kernel = np.zeros((n, n))
    flat_index = np.arange(n).reshape(grid.leaf_shape())
    for q in family.members:
        ids = flat_index[leaf_slice(q, grid)].ravel()
        kernel[np.ix_(ids, ids)] += 2.0 ** (q.level * (d - alpha)) * grid.leaf_volume
    # the leaf-volume factors of the two inner products cancel, so the
    # diagonal conjugation uses plain densities
    ds = np.sqrt(sigma.leaf_density.ravel())
    dw = np.sqrt(w.leaf_density.ravel())
    b = dw[:, None] * kernel * ds[None, :]
    return float(np.linalg.svd(b, compute_uv=False)[0])


def _lq_norm(values: np.ndarray, exponent: float, weight: Weight) -> float:
    leaf_mass = weight.mass_levels[weight.grid.leaf_level]
    return float(np.sum(np.abs(values) ** exponent * leaf_mass) ** (1.0 / exponent))


def norm_lower_bound(family: SparseFamily, sigma: Weight, w: Weight,
                     cfg: ExponentConfig, budget: int, seed: int = 0,
                     n_starts: int = 3) -> float:
    """Certified lower bound on the L^p(sigma) -> L^q(w) norm of T(sigma .).

    Evaluates the ratio on the mandatory candidates (each family indicator
    1_R and the constant function) and on `budget` iterates of the
    nonlinear dual-ascent map

        f <- (T*(w (T(sigma f))^{q-1}))^{1/(p-1)},  normalized in L^p(sigma),

    from seeded random nonnegative starts.  Adjoint indicator ratios
    ||T(w 1_R)||_{L^{p'}(sigma)} / w(R)^{1/q'} are also taken: the adjoint
    has the same norm, so they are lower bounds too, and they witness the
    per-R terms of T*.  Returns the best ratio seen; monotone in budget and
    deterministic under the seed.
    """
    grid = family.grid
    alpha = cfg.alpha
    support = sigma.leaf_density > 0
    if not np.any(support):
        return 0.0
    best = 0.0

    def ratio(f_values: np.ndarray) -> float:
        nonlocal best
        denom = _lq_norm(f_values, cfg.p, sigma)
        if denom == 0:
            return 0.0
        u = _sparse_avg_apply(family, sigma.leaf_density * np.abs(f_values), alpha)
        r = _lq_norm(u, cfg.q, w) / denom
        best = max(best, r)
        return r

    ratio(np.ones(grid.leaf_shape()))
    w_masses = family.gather(w.mass_levels)
    for i, w_r in enumerate(w_masses):
        ind = family.at_leaves(family.inside(i))
        ratio(ind)
        if w_r > 0:
            u = _sparse_avg_apply(family, w.leaf_density * ind, alpha)
            best = max(best, _lq_norm(u, cfg.p_dual, sigma) / w_r ** (1.0 / cfg.q_dual))

    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        f = np.where(support, rng.random(grid.leaf_shape()) + 0.5, 0.0)
        denom = _lq_norm(f, cfg.p, sigma)
        if denom == 0:
            continue
        f /= denom
        for _ in range(budget):
            u = _sparse_avg_apply(family, sigma.leaf_density * f, alpha)
            y = _sparse_avg_apply(family, w.leaf_density * u ** (cfg.q - 1.0), alpha)
            y = np.where(support, y, 0.0)
            if not np.any(y > 0):
                break
            f = y ** (1.0 / (cfg.p - 1.0))
            f /= _lq_norm(f, cfg.p, sigma)
            ratio(f)
    return best


@dataclass(frozen=True)
class TestingReport:
    """Testing constants over the family with argmax witnesses and the raw
    per-R values."""

    T: float
    T_star: float
    argmax_R: DyadicCube | None
    argmax_R_star: DyadicCube | None
    per_R: dict[DyadicCube, float]
    per_R_star: dict[DyadicCube, float]
    p: float
    q: float
    alpha: float
    mode: str
    extended_warning: bool

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "q": self.q,
            "alpha": self.alpha,
            "T": self.T,
            "T_star": self.T_star,
            "argmax_R": self.argmax_R.text if self.argmax_R else None,
            "argmax_R_star": self.argmax_R_star.text if self.argmax_R_star else None,
            "mode": self.mode,
            "extended_warning": self.extended_warning,
        }


def testing_terms(family: SparseFamily, sigma: Weight, w_masses: np.ndarray,
                  q: float, alpha: float) -> np.ndarray:
    """Per member, (|Q|^{alpha/d} <sigma>_Q)^q times its entry of `w_masses`:
    the summands of the testing sums."""
    d = family.grid.dimension
    # |Q|^{alpha/d} <sigma>_Q = |Q|^{alpha/d} sigma(Q) 2^{dk}, the last factor exact
    scale = _per_level(family, lambda k: (2.0 ** (-d * k)) ** (alpha / d))
    averages = np.ldexp(family.gather(sigma.mass_levels), d * family.level)
    return (scale * averages) ** q * w_masses


def _primal_testing(family: SparseFamily, sigma: Weight, w: Weight,
                    p: float, q: float, alpha: float) -> tuple[float, DyadicCube | None, dict]:
    """max over R in S of sigma(R)^{-1/p} [ sum_{Q in S, Q ⊆ R}
    (|Q|^{alpha/d} <sigma>_Q)^q w(E_Q) ]^{1/q}; R with sigma(R)=0 skipped."""
    sigma_r = family.gather(sigma.mass_levels)
    sums = family.descendant_sum(testing_terms(family, sigma, family.exceptional_mass(w), q, alpha))
    tested = np.flatnonzero(sigma_r > 0)
    values = sigma_r[tested] ** (-1.0 / p) * sums[tested] ** (1.0 / q)
    per_r = {family.members[i]: float(v) for i, v in zip(tested, values)}
    if not len(values) or values.max() <= 0:
        return 0.0, None, per_r
    j = int(np.argmax(values))
    return float(values[j]), family.members[tested[j]], per_r


def testing_constants(family: SparseFamily, sigma: Weight, w: Weight,
                      cfg: ExponentConfig) -> TestingReport:
    """Sawyer-style testing constants in their off-diagonal L1 form.

    T tests sigma-indicators against w-masses of the exceptional sets;
    T_star is the mirror image under (sigma, p, q) <-> (w, q', p').  The
    strict regime p < q is where the L1 form is known to suffice; extended
    mode (p = q) computes the same quantities with a warning flag.
    """
    if sigma.grid != family.grid or w.grid != family.grid:
        raise ValueError("family and weights must share one grid")
    t_val, t_arg, per_r = _primal_testing(family, sigma, w, cfg.p, cfg.q, cfg.alpha)
    ts_val, ts_arg, per_rs = _primal_testing(family, w, sigma,
                                             cfg.q_dual, cfg.p_dual, cfg.alpha)
    return TestingReport(
        T=t_val, T_star=ts_val, argmax_R=t_arg, argmax_R_star=ts_arg,
        per_R=per_r, per_R_star=per_rs,
        p=cfg.p, q=cfg.q, alpha=cfg.alpha, mode=cfg.mode,
        extended_warning=(cfg.mode == "extended"),
    )


def primal_indicator_ratios(family: SparseFamily, sigma: Weight, w: Weight,
                            cfg: ExponentConfig) -> dict[DyadicCube, float]:
    """Per R in S: ||T(sigma 1_R)||_{L^q(w)} / sigma(R)^{1/p}.

    Each is a valid lower bound for the operator norm and dominates the
    corresponding per-R testing term, since on each disjoint E_Q the full
    sum dominates the single term for Q.
    """
    out = {}
    for i, m in enumerate(family.gather(sigma.mass_levels)):
        if m <= 0:
            continue
        ind = family.at_leaves(family.inside(i))
        u = _sparse_avg_apply(family, sigma.leaf_density * ind, cfg.alpha)
        out[family.members[i]] = _lq_norm(u, cfg.q, w) / m ** (1.0 / cfg.p)
    return out
