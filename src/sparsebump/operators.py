"""The sparse operator T(sigma f), its exact L2 -> L2 operator norm, general
(p, q) norm lower bounds, and the L1-form testing constants.

The operator sums |Q|^{alpha/d} <sigma |f|>_Q 1_Q over the family; it is
self-transpose for the unweighted pairing (its kernel is the symmetric
nonnegative sum of |Q|^{alpha/d - 1} 1_Q x 1_Q), so the adjoint against the
weighted inner products is the same sum applied with w in place of sigma.

T(sigma f) is constant on each exceptional set E_Q and vanishes off the
root, so it is held as one value per member, and the L^r(mu) norm of such
a function v is (sum_Q |v_Q|^r mu(E_Q))^{1/r}.  One apply scales per-member
block sums int_Q sigma f by |Q|^{alpha/d - 1} and adds them down the tree.
The block sums of a per-member input v are the up-sweep of v sigma(E_Q);
leaf arrays are touched only where a leaf input is first reduced to block
sums (`apply_sparse` and each random start of the dual ascent).
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


def _coef(family: SparseFamily, alpha: float) -> np.ndarray:
    """Per member, |Q|^{alpha/d} / |Q| = 2^{k(d - alpha)}."""
    d = family.grid.dimension
    return _per_level(family, lambda k: 2.0 ** (k * (d - alpha)))


def _apply(family: SparseFamily, blocks: np.ndarray, coef: np.ndarray) -> np.ndarray:
    """T on each E_Q: the sum of coef * blocks over the members containing Q,
    from the block sums int_Q sigma f."""
    return family.ancestor_sum(coef * blocks)


def _leaf_blocks(family: SparseFamily, leaf_values: np.ndarray) -> np.ndarray:
    """Block sums of a leaf density: the one reduction of a leaf input."""
    # the leaf volume is a power of two, so scaling the member sums is exact
    return family.gather(pyramid(leaf_values, family.grid)) * family.grid.leaf_volume


def _norm(v: np.ndarray, r: float, mass_exc: np.ndarray) -> float:
    """L^r(mu) norm of the function equal to v on each E_Q and 0 off the root."""
    return float(np.sum(np.abs(v) ** r * mass_exc) ** (1.0 / r))


def apply_sparse(family: SparseFamily, sigma: Weight, f: LeafFunction, alpha: float) -> LeafFunction:
    """T(sigma f): leafwise sum of |Q|^{alpha/d} <sigma |f|>_Q over the
    family cubes containing the leaf."""
    grid = family.grid
    if sigma.grid != grid or f.grid != grid:
        raise ValueError("family, weight, and function must share one grid")
    if not 0 <= alpha < grid.dimension:
        raise ValueError(f"invalid fractional order alpha={alpha}")
    g = sigma.leaf_density * np.abs(f.values)
    u = _apply(family, _leaf_blocks(family, g), _coef(family, alpha))
    return LeafFunction(grid, family.at_leaves(u))


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
    zero sigma-density carry no sigma(E_Q) mass, so they drop out of the
    domain space.
    """
    grid = family.grid
    if sigma.grid != grid or w.grid != grid:
        raise ValueError("family and weights must share one grid")
    sigma_exc, w_exc = family.exceptional_mass(sigma), family.exceptional_mass(w)
    coef = _coef(family, alpha)

    def g_op(f: np.ndarray) -> np.ndarray:
        u = _apply(family, family.descendant_sum(f * sigma_exc), coef)
        return _apply(family, family.descendant_sum(u * w_exc), coef)

    # the start is normalized over the whole grid, off the root too; T
    # vanishes there, so every later iterate lives on the members
    f = np.full(len(family), 1.0 / np.sqrt(float(sigma.mass_levels[0].sum())))
    lam_prev = np.inf
    lam = np.inf
    for _ in range(max_iter):
        u = g_op(f)
        lam_prev, lam = lam, float(np.sum(u * f * sigma_exc))
        if lam == 0.0:
            return 0.0
        if abs(lam - lam_prev) <= tol * lam:
            return float(np.sqrt(lam))
        f = u / np.sqrt(float(np.sum(u * u * sigma_exc)))
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


def _indicator_ratios(family: SparseFamily, mu: Weight, nu: Weight, nu_exc: np.ndarray,
                      coef: np.ndarray, r: float, s: float) -> np.ndarray:
    """Per member R, ||T(mu 1_R)||_{L^r(nu)} / mu(R)^{1/s}, 0 where mu(R) = 0:
    the one array both the norm bound and the indicator ratios read.

    T(mu 1_R) has block mu(Q) on the members Q inside R, mu(R) on the
    family ancestors of R and 0 elsewhere.  Inside R it is the down-sweep of
    coef * mu(Q) over R's subtree, seeded with mu(R) K(R) on E_R, where K is
    the ancestor sum of coef.  Outside R it is mu(R) K(a) on the ring a \\ a'
    between consecutive members a ⊋ a' of R's ancestor chain (a' = R at the
    bottom), whose nu-mass is nu(a) - nu(a'); off the root it vanishes.
    All R are swept at once: step g pairs each member with its g-th family
    ancestor, so the cost is |S| times the depth of the tree.
    """
    n = len(family)
    parent = family.parent
    mu_mass, nu_mass = family.gather(mu.mass_levels), family.gather(nu.mass_levels)
    k_sum = family.ancestor_sum(coef)
    step = coef * mu_mass
    # g = 0: R = Q, where T(mu 1_Q) = mu(Q) K(Q) on E_Q
    u = mu_mass * k_sum
    total = u ** r * nu_exc
    prev, anc = np.arange(n), parent  # per member, its (g-1)-th and g-th family ancestors
    while np.any(anc >= 0):
        live = anc >= 0
        a = anc[live]
        # inside R = a: T(mu 1_R) on E_Q is its value on E_parent(Q) plus Q's own term
        u = u[parent] + step
        total += np.bincount(a, weights=u[live] ** r * nu_exc[live], minlength=n)
        # outside R = the member: mu(R) K(a) on the ring between a and prev
        total[live] += (mu_mass[live] * k_sum[a]) ** r * (nu_mass[a] - nu_mass[prev[live]])
        prev, anc = anc, np.where(live, parent[anc], -1)
    return np.divide(total ** (1.0 / r), mu_mass ** (1.0 / s), out=np.zeros(n), where=mu_mass > 0)


def norm_lower_bound(family: SparseFamily, sigma: Weight, w: Weight,
                     cfg: ExponentConfig, budget: int, seed: int = 0,
                     n_starts: int = 3) -> float:
    """Certified lower bound on the L^p(sigma) -> L^q(w) norm of T(sigma .).

    Evaluates the ratio on the mandatory candidates (each family indicator
    1_R) and on `budget` iterates of the nonlinear dual-ascent map

        f <- (T*(w (T(sigma f))^{q-1}))^{1/(p-1)},  normalized in L^p(sigma),

    from seeded random nonnegative starts.  Adjoint indicator ratios
    ||T(w 1_R)||_{L^{p'}(sigma)} / w(R)^{1/q'} are also taken: the adjoint
    has the same norm, so they are lower bounds too, and they witness the
    per-R terms of T*.  The constant function needs no candidate of its
    own: T(sigma 1) = T(sigma 1_root) and sigma(grid) >= sigma(root), so the
    root's indicator dominates it.  Returns the best ratio seen; monotone in
    budget and deterministic under the seed.
    """
    grid = family.grid
    sigma_exc, w_exc = family.exceptional_mass(sigma), family.exceptional_mass(w)
    coef = _coef(family, cfg.alpha)
    best = float(max(
        _indicator_ratios(family, sigma, w, w_exc, coef, cfg.q, cfg.p).max(),
        _indicator_ratios(family, w, sigma, sigma_exc, coef, cfg.p_dual, cfg.q_dual).max()))
    if budget == 0:
        return best

    rng = np.random.default_rng(seed)
    for _ in range(n_starts):
        # the ascent map is homogeneous and sigma-null leaves carry no mass,
        # so a start needs neither a normalization nor a support mask
        f = rng.random(grid.leaf_shape()) + 0.5
        u = _apply(family, _leaf_blocks(family, sigma.leaf_density * f), coef)
        for _ in range(budget):
            y = _apply(family, family.descendant_sum(u ** (cfg.q - 1.0) * w_exc), coef)
            # y > 0 on every member or on none: the root's term is in each value
            if not np.any(y > 0):
                break
            f = y ** (1.0 / (cfg.p - 1.0))
            f /= _norm(f, cfg.p, sigma_exc)
            u = _apply(family, family.descendant_sum(f * sigma_exc), coef)
            best = max(best, _norm(u, cfg.q, w_exc) / _norm(f, cfg.p, sigma_exc))
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
    """Per R in S with sigma(R) > 0: ||T(sigma 1_R)||_{L^q(w)} / sigma(R)^{1/p}.

    Each is a valid lower bound for the operator norm and dominates the
    corresponding per-R testing term, since on each disjoint E_Q the full
    sum dominates the single term for Q.  `norm_lower_bound` reads the same
    array, so it dominates every ratio here exactly.
    """
    ratios = _indicator_ratios(family, sigma, w, family.exceptional_mass(w),
                               _coef(family, cfg.alpha), cfg.q, cfg.p)
    tested = np.flatnonzero(family.gather(sigma.mass_levels) > 0)
    return {family.members[i]: float(ratios[i]) for i in tested}
