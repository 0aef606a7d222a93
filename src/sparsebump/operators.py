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
The block sums of a per-member input v are the up-sweep of v sigma(E_Q).
A leaf function is a plain array of its leaf values; leaf arrays are
touched only where a leaf input f is first reduced to block sums, as the
pyramid of its leaf masses sigma(L) f(L) (`apply_sparse` and each random
start of the dual ascent).

One `Instance` holds a (family, sigma, w, exponents) with the per-member
arrays its quantities share: sigma(E_Q) and w(E_Q), the cube masses, the
coefficients, the testing values and the indicator ratios, each computed
once.  Every per-instance quantity here takes that instance as its first
argument; the caller builds it once and passes it to each.

The dual ascent of `norm_lower_bound` runs its random starts as the columns
of one (|S|, N_STARTS) array in generation order, so a step is one batched
apply that permutes nothing: on at most `DENSE_MAX` members one product with
the dense member kernel K = A diag(coef) A^T (A the ancestor-or-self
incidence), the family's two sweeps applied to the identity, and on larger
families those sweeps, one step per tree generation (`_member_operator`).
At p = q = 2 it is the power iteration of T_w T_sigma (Boyd 1974), which
`exact_norm_l2` runs from the constant start until its quotient settles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bumps import ExponentConfig, check_alpha
from .grid import DyadicCube, pyramid
from .sparse import SparseFamily
from .weights import Weight

# Largest family whose ascent applies take the dense member kernel.  A dense
# apply is one O(|S|^2) product, after a kernel build of the two sweeps of
# the |S| x |S| identity; the sweeps cost a few calls per tree generation
# (2-4 here, on 4-12 occupied levels).  Whole ascents (the kernel build or
# the up-sweep positions, and every apply; budget 25, 3 starts, min of 9) on
# random and stopping families in d=1 and d=2, on a shared 2-core x86-64 VM
# with one BLAS thread, take dense / sweeps time (three runs):
#     |S| 93-167    0.44-1.09  (dense faster in all but one run)
#     |S| 180-220   0.86-1.36  (a tie)
#     |S| 260-649   1.14-14.5  (sweeps faster)
# Moving the switch changes which apply an instance takes, and so the last
# bits of its bound; the kernel and its two scaled copies hold 3 |S|^2
# floats (0.9 MiB at 200).  Read at call time, so tests can change it, as
# is N_STARTS, the number of random starts of the dual ascent.
DENSE_MAX = 200
N_STARTS = 3


def _per_level(family: SparseFamily, fn) -> np.ndarray:
    """Per member, fn(level) evaluated once per level in scalar arithmetic."""
    return np.array([fn(k) for k in range(family.grid.leaf_level + 1)])[family.level]


def _coef(family: SparseFamily, alpha: float) -> np.ndarray:
    """Per member, |Q|^{alpha/d} / |Q| = 2^{k(d - alpha)}."""
    d = family.grid.dimension
    return _per_level(family, lambda k: 2.0 ** (k * (d - alpha)))


def _leaf_blocks(family: SparseFamily, leaf_mass: np.ndarray) -> np.ndarray:
    """Per member, the sum of `leaf_mass` over its leaves: the block sums
    int_Q sigma f of the leaf masses sigma(L) f(L), the one reduction of a
    leaf input."""
    return family.gather(pyramid(leaf_mass, family.grid))


@dataclass(frozen=True, eq=False)
class Instance:
    """One (family, sigma, w, exponents) and the per-member arrays that the
    norm bound, the indicator ratios, the testing constants and the proof
    traces share, each computed on first use and then kept.  Every array but
    the `kernel` (in generation order) is indexed like `family.members`; the
    per-R ones (`indicator_ratios`, `testing_values`) hold 0 at each R with
    sigma(R) = 0.

    `dual` is the same instance with (sigma, p) <-> (w, q'): it takes over
    the per-weight arrays, its indicator ratios are the adjoint ones and its
    testing values those of T*.
    """

    family: SparseFamily
    sigma: Weight
    w: Weight
    cfg: ExponentConfig

    def __post_init__(self) -> None:
        if self.sigma.grid != self.family.grid or self.w.grid != self.family.grid:
            raise ValueError("family and weights must share one grid")
        check_alpha(self.cfg.alpha, self.family.grid.dimension)

    @cached_property
    def dual(self) -> Instance:
        # the twin gets the arrays, not a reference back: a cycle would keep
        # both weights alive until the next garbage collection
        twin = Instance(self.family, self.w, self.sigma, self.cfg.swapped())
        twin.__dict__.update(sigma_exc=self.w_exc, w_exc=self.sigma_exc, sigma_mass=self.w_mass,
                             w_mass=self.sigma_mass, coef=self.coef)
        return twin

    @cached_property
    def sigma_exc(self) -> np.ndarray:
        """Per member, sigma(E_Q)."""
        return self.family.exceptional_mass(self.sigma)

    @cached_property
    def w_exc(self) -> np.ndarray:
        """Per member, w(E_Q)."""
        return self.family.exceptional_mass(self.w)

    @cached_property
    def sigma_mass(self) -> np.ndarray:
        """Per member, sigma(Q)."""
        return self.family.gather(self.sigma.mass_levels)

    @cached_property
    def w_mass(self) -> np.ndarray:
        """Per member, w(Q)."""
        return self.family.gather(self.w.mass_levels)

    @cached_property
    def coef(self) -> np.ndarray:
        """Per member, |Q|^{alpha/d} / |Q|."""
        return _coef(self.family, self.cfg.alpha)

    @cached_property
    def kernel(self) -> np.ndarray:
        """The dense member kernel in generation order, the member apply's
        sweeps applied to the identity: K[i, j] is the sum of coef over the
        members containing both places i and j, so T(mu v) = K (v mu(E_Q))
        on each E_Q.  K is exactly symmetric: K[i, j] and K[j, i] add the
        same coefs in the same order, and zeros."""
        family = self.family
        inside = family.up_sweep(np.eye(len(family)))  # row Q marks the places inside Q
        inside *= self.coef[family.generations.order, None]
        return family.down_sweep(inside)

    def _testing_terms(self, w_masses: np.ndarray) -> np.ndarray:
        """Per member, (|Q|^{alpha/d} <sigma>_Q)^q times its entry of `w_masses`."""
        family, alpha = self.family, self.cfg.alpha
        d = family.grid.dimension
        # |Q|^{alpha/d} <sigma>_Q = |Q|^{alpha/d} sigma(Q) 2^{dk}, the last factor exact
        scale = _per_level(family, lambda k: (2.0 ** (-d * k)) ** (alpha / d))
        averages = np.ldexp(self.sigma_mass, d * family.level)
        return (scale * averages) ** self.cfg.q * w_masses

    @cached_property
    def testing_values(self) -> np.ndarray:
        """Per member R, the testing value sigma(R)^{-1/p} times the q-th root
        of the testing sum over members Q ⊆ R of (|Q|^{alpha/d} <sigma>_Q)^q
        w(E_Q); 0 where sigma(R) = 0, as for the indicator ratios."""
        mu, sums = self.sigma_mass, self.family.descendant_sum(self._testing_terms(self.w_exc))
        scale = np.power(mu, -1.0 / self.cfg.p, out=np.zeros(len(mu)), where=mu > 0)
        return scale * sums ** (1.0 / self.cfg.q)

    @cached_property
    def mass_terms(self) -> np.ndarray:
        """Per member, (|Q|^{alpha/d} <sigma>_Q)^q w(Q): the terms of the
        testing sum that the proof traces regroup."""
        return self._testing_terms(self.w_mass)

    @cached_property
    def indicator_ratios(self) -> np.ndarray:
        """Per member R, ||T(sigma 1_R)||_{L^q(w)} / sigma(R)^{1/p}, 0 where
        sigma(R) = 0: the one array both the norm bound and the indicator
        ratios read.

        T(sigma 1_R) has block sigma(Q) on the members Q inside R, sigma(R)
        on the family ancestors of R and 0 elsewhere.  Inside R it is the
        down-sweep of coef * sigma(Q) over R's subtree, seeded with
        sigma(R) K(R) on E_R, where K is the ancestor sum of coef.  Outside R
        it is sigma(R) K(a) on the ring a \\ a' between consecutive members
        a ⊋ a' of R's ancestor chain (a' = R at the bottom), whose w-mass is
        w(a) - w(a'); off the root it vanishes.  All R are swept at once:
        step g pairs each member with its g-th family ancestor, so the cost
        is |S| times the depth of the tree.
        """
        family, r, s = self.family, self.cfg.q, self.cfg.p
        n, parent = len(family), family.parent
        mu_mass, nu_mass, nu_exc = self.sigma_mass, self.w_mass, self.w_exc
        k_sum = family.ancestor_sum(self.coef)
        step = self.coef * mu_mass
        # g = 0: R = Q, where T(sigma 1_Q) = sigma(Q) K(Q) on E_Q
        u = mu_mass * k_sum
        total = u ** r * nu_exc
        prev, anc = np.arange(n), parent  # per member, its (g-1)-th and g-th family ancestors
        while np.any(anc >= 0):
            live = anc >= 0
            a = anc[live]
            # inside R = a: T(sigma 1_R) on E_Q is its value on E_parent(Q) plus Q's own term
            u = u[parent] + step
            total += np.bincount(a, weights=u[live] ** r * nu_exc[live], minlength=n)
            # outside R = the member: sigma(R) K(a) on the ring between a and prev
            total[live] += (mu_mass[live] * k_sum[a]) ** r * (nu_mass[a] - nu_mass[prev[live]])
            prev, anc = anc, np.where(live, parent[anc], -1)
        return np.divide(total ** (1.0 / r), mu_mass ** (1.0 / s), out=np.zeros(n), where=mu_mass > 0)


def apply_sparse(family: SparseFamily, sigma: Weight, f: np.ndarray, alpha: float) -> np.ndarray:
    """T(sigma f) on the leaves: leafwise sum of |Q|^{alpha/d} <sigma |f|>_Q
    over the family cubes containing the leaf.  f is any array of the
    grid's `n_leaves` leaf values, in leaf order."""
    grid = family.grid
    if sigma.grid != grid or np.size(f) != grid.n_leaves:
        raise ValueError("family, weight, and function must share one grid")
    check_alpha(alpha, grid.dimension)
    blocks = _leaf_blocks(family, sigma.mass_levels[-1] * np.abs(f).reshape(grid.leaf_shape()))
    return family.at_leaves(family.ancestor_sum(_coef(family, alpha) * blocks))


class PowerIterationError(RuntimeError):
    """Raised when the norm iteration fails to converge; carries its last two
    Rayleigh quotients."""

    def __init__(self, message: str, last_two: tuple[float, float]):
        super().__init__(f"{message} (last iterates: {last_two[0]!r}, {last_two[1]!r})")
        self.last_two = last_two


def exact_norm_l2(inst: Instance, tol: float = 1e-12, max_iter: int = 50_000) -> float:
    """Operator norm of f -> T(sigma f) from L2(sigma) to L2(w) on an
    instance with p = q = 2.

    At p = q = 2 the dual ascent of `norm_lower_bound` is the power iteration
    on the self-adjoint G f = T_w(T_sigma f), up to scale, and the square of
    its ratio is the Rayleigh quotient of G.  Run from the constant start
    (block sums sigma(Q)), the norm is its ratio at the first step whose
    quotient moves by at most tol times itself, or at its last step when it
    ends early: at a fixed point, or at a norm of 0.  Leaves with zero
    sigma-density carry no sigma(E_Q) mass, so they leave the domain space.
    """
    if inst.cfg.p != 2.0 or inst.cfg.q != 2.0:
        raise ValueError(f"exact_norm_l2 needs p = q = 2, got p={inst.cfg.p}, q={inst.cfg.q}")
    if max_iter < 1:
        raise ValueError(f"max_iter must be >= 1, got {max_iter}")
    ratio, steps, last_two = 0.0, 0, (np.inf, np.inf)
    for steps, (ratio,) in enumerate(_ascent(inst, inst.sigma_mass[:, None], max_iter), 1):
        last_two = (last_two[1], float(ratio) ** 2)
        if abs(last_two[1] - last_two[0]) <= tol * last_two[1]:
            return float(ratio)
    if steps < max_iter:  # the ascent ended early
        return float(ratio)
    raise PowerIterationError("power iteration did not converge", last_two)


def _norms(v: np.ndarray, r: float, mass_exc: np.ndarray) -> np.ndarray:
    """Per column of a nonnegative (|S|, m) array, the L^r(mu) norm of the
    function equal to the column on each E_Q and 0 off the root."""
    return (mass_exc @ v ** r) ** (1.0 / r)


def _member_operator(inst: Instance, mass_exc: np.ndarray):
    """v -> T(mu v) on each E_Q for the columns of a per-member array v,
    where mass_exc is mu(E_Q), both in generation order: one product with
    the dense member kernel on families of at most DENSE_MAX members, the
    family's two column-batched sweeps on larger ones: v scaled by mu(E_Q),
    summed up the tree (`SparseFamily.up_sweep`), scaled by coef and summed
    down it (`SparseFamily.down_sweep`)."""
    family = inst.family
    if len(family) <= DENSE_MAX:
        kernel = inst.kernel * mass_exc
        return lambda v: kernel @ v
    coef, mass_exc = inst.coef[family.generations.order, None], mass_exc[:, None]

    def apply(v):
        x = family.up_sweep(v * mass_exc)
        x *= coef
        return family.down_sweep(x)

    return apply


def norm_lower_bound(inst: Instance, budget: int, seed: int = 0) -> float:
    """Certified lower bound on the L^p(sigma) -> L^q(w) norm of T(sigma .).

    Evaluates the ratio on the mandatory candidates (each family indicator
    1_R) and on `budget` iterates of the nonlinear dual-ascent map

        f <- (T*(w (T(sigma f))^{q-1}))^{1/(p-1)},  scaled to a maximum of 1,

    from `N_STARTS` seeded random nonnegative starts.  Adjoint indicator ratios
    ||T(w 1_R)||_{L^{p'}(sigma)} / w(R)^{1/q'} are also taken: the adjoint
    has the same norm, so they are lower bounds too, and they witness the
    per-R terms of T*.  The constant function needs no candidate of its
    own: T(sigma 1) = T(sigma 1_root) and sigma(grid) >= sigma(root), so the
    root's indicator dominates it.  Returns the best ratio seen; monotone in
    budget and deterministic under the seed.  Each start is reduced to its
    block sums, and the starts run together, one column each (`_ascent`).
    """
    if budget < 0:
        raise ValueError(f"budget must be >= 0, got {budget}")
    family, sigma = inst.family, inst.sigma
    best = float(max(inst.indicator_ratios.max(), inst.dual.indicator_ratios.max()))
    if budget == 0:
        return best

    rng = np.random.default_rng(seed)
    # the ascent map is homogeneous and sigma-null leaves carry no mass, so
    # a start needs neither a normalization nor a support mask; each start
    # is reduced to block sums before the next is drawn, so the leaf arrays
    # of one start at a time are alive
    blocks, shape = np.empty((len(family), N_STARTS)), family.grid.leaf_shape()
    leaf_mass = sigma.mass_levels[-1]
    for j in range(N_STARTS):
        blocks[:, j] = _leaf_blocks(family, leaf_mass * (rng.random(shape) + 0.5))
    return max([best, *(float(np.max(r)) for r in _ascent(inst, blocks, budget))])


def _ascent(inst: Instance, blocks: np.ndarray, steps: int):
    """Per step of the dual ascent from the starts whose block sums int_Q
    sigma f (in member order) are the columns of `blocks`, the ratios
    ||T(sigma f)||_{L^q(w)} / ||f||_{L^p(sigma)} of their iterates f, all in
    generation order.  A start whose image vanishes drops out; the ascent
    ends after `steps` steps, with no start left, or at a fixed point."""
    cfg, family, order = inst.cfg, inst.family, inst.family.generations.order
    sigma_exc, w_exc = inst.sigma_exc[order], inst.w_exc[order]
    t_sigma, t_w = _member_operator(inst, sigma_exc), _member_operator(inst, w_exc)
    u = family.down_sweep(inst.coef[order, None] * blocks[order])  # the images T(sigma f)
    f = None
    for _ in range(steps):
        y = t_w(u if cfg.q == 2.0 else u ** (cfg.q - 1.0))
        # y >= 0, and y > 0 on every member of a column or on none: the
        # root's term is in each value
        top = y.max(axis=0)
        live = top > 0
        if not live.all():
            if not live.any():
                return
            y, top = y[:, live], top[live]
        # the map is 1-homogeneous and the ratio scale-free: each column is
        # scaled to a maximum of 1, so the power (exponent 100 at p = 1.01)
        # cannot overflow; y is the apply's own array, so it is scaled in place
        y /= top
        f, f_prev = (y if cfg.p == 2.0 else y ** (1.0 / (cfg.p - 1.0))), f
        # an iterate repeated bit for bit is a fixed point: later steps repeat it
        if np.array_equal(f, f_prev):
            return
        u = t_sigma(f)
        yield _norms(u, cfg.q, w_exc) / _norms(f, cfg.p, sigma_exc)


@dataclass(frozen=True)
class TestingReport:
    """Testing constants over the family with argmax witnesses and the raw
    per-R values: `per_R` and `per_R_star` are per-member arrays in
    `family.members` order (the instance's `testing_values` and those of its
    dual), 0 at the R of zero mass (sigma(R) for T, w(R) for T*)."""

    T: float
    T_star: float
    argmax_R: DyadicCube | None
    argmax_R_star: DyadicCube | None
    per_R: np.ndarray = field(compare=False)
    per_R_star: np.ndarray = field(compare=False)
    p: float
    q: float
    alpha: float

    @property
    def extended_warning(self) -> bool:
        """The diagonal case p = q, where the L1 form is not known to suffice."""
        return self.p == self.q

    @property
    def mode(self) -> str:
        return "extended" if self.extended_warning else "strict"

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


def _primal_testing(inst: Instance) -> tuple[float, DyadicCube | None]:
    """max over R in S of the testing value sigma(R)^{-1/p} [ sum_{Q in S,
    Q ⊆ R} (|Q|^{alpha/d} <sigma>_Q)^q w(E_Q) ]^{1/q}, and an R attaining it;
    R with sigma(R)=0 contribute 0."""
    values = inst.testing_values
    j = int(np.argmax(values))
    return (float(values[j]), inst.family.cube(j)) if values[j] > 0 else (0.0, None)


def testing_constants(inst: Instance) -> TestingReport:
    """Sawyer-style testing constants in their off-diagonal L1 form.

    T tests sigma-indicators against w-masses of the exceptional sets;
    T_star is the mirror image under (sigma, p, q) <-> (w, q', p').  The
    off-diagonal case p < q is where the L1 form is known to suffice; at
    p = q the same quantities are computed, and `extended_warning` is set.
    """
    cfg = inst.cfg
    t_val, t_arg = _primal_testing(inst)
    ts_val, ts_arg = _primal_testing(inst.dual)
    return TestingReport(
        T=t_val, T_star=ts_val, argmax_R=t_arg, argmax_R_star=ts_arg,
        per_R=inst.testing_values, per_R_star=inst.dual.testing_values,
        p=cfg.p, q=cfg.q, alpha=cfg.alpha)


def primal_indicator_ratios(inst: Instance) -> np.ndarray:
    """Per member R, in `family.members` order: ||T(sigma 1_R)||_{L^q(w)} /
    sigma(R)^{1/p}, 0 where sigma(R) = 0.

    Each is a valid lower bound for the operator norm and dominates the
    corresponding per-R testing value, since on each disjoint E_Q the full
    sum dominates the single term for Q.  `norm_lower_bound` reads the same
    array, so it dominates every ratio here exactly.
    """
    return inst.indicator_ratios
