"""Bump functionals: the joint two-weight constant, entropy bumps, and
direct-comparison bumps.

Every supremum here runs over the finitely many grid cubes of levels 0..N.
The common (un-bumped) factor is

    joint(Q) = w(Q)^{1/q} sigma(Q)^{1/p'} / |Q|^{1 - alpha/d},

the entropy bump multiplies it by rho(Q; sigma)^{1/q} eps(rho(Q; sigma))^{1/q},
and the direct bump by eps(<sigma>_Q)^{1/q}, with eps drawn from the
logarithmic families below.

The constants of a pair that its caller asks for (of A, E, the two E*, D
and D*) come from one pass over the (level, chunk) items of the pyramid
(`PairScan`), spread by `grid.blockwise`; the levels of fewer than
`grid.BLOCK` cells share items, so a small grid is one or two items.  The
pass scores each cube for every asked constant in log space, from the logs
of sigma(Q), w(Q) and of the rho(Q) those constants read, taken once per
cube, and keeps the cubes within `SCORE_MARGIN` of each maximum.  Only
those candidates are rechecked in exact arithmetic, so the argmax is the
first exactly maximal cube, and the constant is the exact value that won
there; nothing is evaluated again at the argmax.  The pass builds no
pyramid-sized array of its own; it builds a weight's rho pyramid only for
an asked constant bumped by that rho.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from . import grid as grid_module
from .grid import DyadicCube, GridConfig, blockwise, flat_blocks
from .weights import Weight, mass, rho

LN2 = math.log(2.0)

# Margin of the log-domain scores of `PairScan`: every cube whose score is
# at least top - SCORE_MARGIN * max(1, |top|) is rechecked exactly.  A score
# is a sum of four terms, log w / q, log sigma / p', k (d - alpha) ln 2 and
# the bump's log, each within a few u = 2^-53 of its value, relative to
# max(1, its size).  Only C = k (d - alpha) ln 2 <= 24 ln 2 (d N <= 24), the
# bump B <= 7 (1 + delta) (rho <= N + 1 and |log <sigma>_Q| <= 762) and P,
# the logs of masses above 1, can be positive, so the terms' sizes add up to
# at most |score| + 2 (C + B + P).  For delta <= 10 and masses below 1e10
# that is below 300 max(1, |score|), an error below 1.5e-13 max(1, |score|).
# The exact maximizer trails the top score by at most two such errors; 1e-9
# leaves a factor above 3000.  With a margin of 0, cubes whose exact values
# tie (constant weights at p = q) are told apart by the rounding of their
# scores, and a later cube can win.  The other tolerance of the package is
# `prooftrace.SLACK`.
SCORE_MARGIN = 1e-9
# the largest delta of an eps: the range SCORE_MARGIN is derived for
MAX_DELTA = 10.0


def check_alpha(alpha: float, d: float) -> None:
    """The rule 0 <= alpha < d of the operators T_{alpha,S} on [0,1)^d,
    checked wherever exponents meet a grid of dimension d."""
    if not 0 <= alpha < d:
        raise ValueError(f"need 0 <= alpha < d, got alpha={alpha}")


@dataclass(frozen=True)
class ExponentConfig:
    """Exponent tuple (p, q, alpha), 1 < p <= q < infinity, with derived
    Holder duals; p = q is the diagonal case.  alpha < d is checked where
    the exponents meet a grid of dimension d (`check_alpha`)."""

    p: float
    q: float
    alpha: float

    def __post_init__(self) -> None:
        if not self.p > 1:
            raise ValueError(f"need p > 1, got p={self.p}")
        if not self.p <= self.q:
            raise ValueError(f"need p <= q, got p={self.p}, q={self.q}")
        if not math.isfinite(self.q):
            raise ValueError("q must be finite")
        check_alpha(self.alpha, math.inf)  # no grid yet: only alpha >= 0

    @property
    def p_dual(self) -> float:
        return self.p / (self.p - 1.0)

    @property
    def q_dual(self) -> float:
        return self.q / (self.q - 1.0)

    def swapped(self) -> "ExponentConfig":
        """The dual exponent pair (q', p') playing the role of (p, q)."""
        return ExponentConfig(self.q_dual, self.p_dual, self.alpha)


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
        # at delta = inf every bump is inf or NaN, and no cube is a candidate
        if not 0 < self.delta < math.inf:
            raise ValueError(f"need a finite delta > 0, got {self.delta}")
        if self.delta > MAX_DELTA:
            raise ValueError(f"need delta <= {MAX_DELTA:g}, the range of bumps.SCORE_MARGIN, got {self.delta}")

    @property
    def tail_sum(self) -> float:
        """The dyadic inverse sum Sigma_eps, reported as a tight upper bound.

        entropy kind: sum over r >= 0 of eps(2^r)^{-1}.
        direct kind: sum over all integers r; by r <-> -r symmetry this
        equals twice the one-sided sum minus the r = 0 term.
        """
        one_sided = _one_sided_tail_sum(self.delta)
        return one_sided if self.kind == "entropy" else 2.0 * one_sided - 1.0


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


@cache
def _one_sided_tail_sum(delta: float) -> float:
    """Upper bound on sum_{r>=0} (1 + r ln 2)^{-(1+delta)}.

    Partial sum until the term drops below 1e-7 (or r reaches 10^7), then
    an integral tail bound; the overshoot is at most the first omitted term.
    Cached, as it depends on delta alone and every suite run builds fresh
    EntropyFunctions.
    """
    term_tol, r_cap = 1e-7, 10**7
    s = 1.0 + delta
    total = 0.0
    r = 0
    chunk = 65536
    while r < r_cap:
        hi = min(r + chunk, r_cap)
        block_sum, last_term = _tail_terms(r, hi, s)
        total += block_sum
        r = hi
        if last_term < term_tol:
            break
    # integral tail: sum_{j > r-1} f(j) <= int_{r-1}^inf (1 + x ln2)^{-s} dx
    last = r - 1
    tail = (1.0 + last * LN2) ** (-delta) / (delta * LN2)
    return total + tail


def _tail_terms(lo: int, hi: int, s: float) -> tuple[float, float]:
    """The sum and the last of the terms (1 + r ln 2)^{-s}, r in [lo, hi),
    computed in place in one array, which is freed on return."""
    block = np.arange(lo, hi, dtype=float)
    block *= LN2
    block += 1.0
    np.power(block, -s, out=block)
    return float(block.sum()), float(block[-1])


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


# Per constant: the eps kind that bumps it (None for A), whether its key is
# read from w rather than sigma, and whether its exponent is 1/p' (else 1/q).
CONSTANTS = {
    "A": (None, False, False),
    "E": ("entropy", False, False),
    "E_star_printed": ("entropy", False, True),
    "E_star_symmetric": ("entropy", True, True),
    "D": ("direct", False, False),
    "D_star": ("direct", True, True),
}


def _score_floor(top: float) -> float:
    """The lowest score kept as a candidate beside the maximum score `top`.
    It never decreases as top grows, so a cell within the margin of the
    pass maximum is also within the margin of its own item's maximum."""
    return top - SCORE_MARGIN * max(1.0, abs(top))


def _items(grid: GridConfig) -> list[tuple[tuple[int, slice], ...]]:
    """The (level, chunk) pieces of the pyramid in (level, index) order,
    grouped into items of at most `grid.BLOCK` cells: a level of BLOCK cells
    or more in chunks of BLOCK, one piece an item; the smaller levels whole,
    packed together."""
    block, items, packed, filled = grid_module.BLOCK, [], [], 0
    for k in range(grid.leaf_level + 1):
        size = 2 ** (grid.dimension * k)
        if packed and filled + size > block:
            items.append(tuple(packed))
            packed, filled = [], 0
        if size < block:
            packed.append((k, slice(0, size)))
            filled += size
        else:
            items.extend(((k, c),) for c in flat_blocks(size))
    if packed:
        items.append(tuple(packed))
    return items


def _sizes(item, dimension: int) -> list[int]:
    """The cell count of each (level, chunk) piece of an item."""
    return [len(range(2 ** (dimension * k))[chunk]) for k, chunk in item]


class PairScan:
    """The bump constants of a pair (sigma, w) that its caller asks for, from
    one pass over its pyramid.

    `names` lists the constants the caller reads; None asks for every one
    whose eps the scan has: E, E_star_printed and E_star_symmetric with an
    entropy eps, D and D_star with a direct eps.  A is always scanned, as
    every other score is built on its joint score.  The pass runs on first
    use of `found`, so the first report that reads a shared scan pays for it.
    rho is 1 on every leaf of positive mass, so the leaf cells add no
    entropy bump: their entropy scores are their joint scores, and no log of
    rho is taken for them.
    """

    def __init__(self, sigma: Weight, w: Weight, cfg: ExponentConfig,
                 entropy: EntropyFunction | None = None, direct: EntropyFunction | None = None,
                 names: tuple[str, ...] | None = None):
        if sigma.grid != w.grid:
            raise ValueError("sigma and w must live on the same grid")
        self.grid = sigma.grid
        check_alpha(cfg.alpha, self.grid.dimension)
        self.sigma, self.w, self.cfg = sigma, w, cfg
        self.eps = {"entropy": entropy, "direct": direct}
        held = [name for name, (kind, _, _) in CONSTANTS.items()
                if kind is None or self.eps[kind] is not None]
        if names is not None:
            if unknown := [name for name in names if name not in CONSTANTS]:
                raise ValueError(f"unknown constants {unknown}")
            if lacking := [name for name in names if name not in held]:
                raise ValueError(f"no eps in the scan for {lacking}")
            held = [name for name in held if name == "A" or name in names]
        # per constant of this scan its score (eps kind, key from w,
        # exponent e), A's first; E and E_star_printed share one where q = p'
        self._score_of = {name: (kind, on_w, 1.0 / (cfg.p_dual if dual else cfg.q))
                          for name, (kind, on_w, dual) in CONSTANTS.items() if name in held}
        self.names = list(self._score_of)
        self._scored = list(dict.fromkeys(self._score_of.values()))
        # the distinct bumps (eps kind, key from w) of these scores, direct
        # ones first: they take the rows of the mass logs, and the entropy
        # ones the row of the level term, free once the direct ones are done
        self._bumps = sorted(dict.fromkeys(key[:2] for key in self._scored[1:]),
                             key=lambda bump: bump[0] == "entropy")

    def _scores(self, spare: list, cells: int, item) -> list[tuple[float, np.ndarray, np.ndarray, np.ndarray]]:
        """Per score, over one item of (level, chunk) pieces: the maximum, and
        the levels, flat indices and scores of the cells within the margin
        of it.

        The score of a cube is the log of its joint factor plus the log of
        its bump: e (l + (1+delta) log1p(l)) with l = log rho for an entropy
        bump, e (1+delta) log1p(|log <weight>_Q|) for a direct one.  A cube
        where either weight has no mass scores -inf.  Every array is one of
        five rows of `cells` cells, the pass's largest item, taken from
        `spare` and put back after the item, so the items of a pass reuse a
        few workspaces, one per worker, instead of mapping fresh memory for
        each; each bump and score is built in a row that its inputs no
        longer need."""
        cfg, d = self.cfg, self.grid.dimension
        bounds = np.cumsum([0] + _sizes(item, d))
        try:
            ws = spare.pop()
        except IndexError:  # no workspace is free: this worker's first item
            ws = [np.empty(cells) for _ in range(5)]
        log_s, log_w, log_j, tmp, free = (row[:bounds[-1]] for row in ws)
        if len(item) == 1:
            k_ln2 = item[0][0] * LN2
        else:  # per cell, where the item packs several small levels
            k_ln2 = free
            for (k, _), lo, hi in zip(item, bounds, bounds[1:]):
                k_ln2[lo:hi] = k * LN2

        def level_term(c):
            """c k ln 2 per cell, a scalar for an item of one level."""
            return c * k_ln2 if len(item) == 1 else np.multiply(k_ln2, c, out=tmp)

        def log_of(levels, out, pieces=item):
            """The log of the cells of `pieces` of a per-level array, in `out`."""
            cells = [levels[k].reshape(-1)[chunk] for k, chunk in pieces]
            return np.log(cells[0] if len(cells) == 1 else np.concatenate(cells, out=out), out=out)

        found = {}

        def keep(key, score):
            top = score.max()
            if top != top:  # a zero-mass cube's NaN: it ranks below every cube
                score[np.isnan(score)] = -np.inf
                top = score.max()
            near = np.flatnonzero(score >= _score_floor(top)) if top > -np.inf else np.empty(0, np.int64)
            piece = np.searchsorted(bounds, near, side="right") - 1
            found[key] = (float(top), np.array([k for k, _ in item])[piece],
                          np.array([chunk.start for _, chunk in item])[piece] + near - bounds[piece],
                          score[near])

        # errstate is per thread: log(0) = -inf at a zero-mass cube, where
        # its NaN rho or infinite direct term then makes the score NaN
        with np.errstate(divide="ignore", invalid="ignore"):
            log_of(self.sigma.mass_levels, log_s)
            log_of(self.w.mass_levels, log_w)
            # products with reciprocals, and log(1 + x) for log1p(x), stay
            # within the few ulps the margin allows, and are faster
            np.multiply(log_w, 1.0 / cfg.q, out=log_j)
            log_j += np.multiply(log_s, 1.0 / cfg.p_dual, out=tmp)
            log_j += level_term(d - cfg.alpha)
            keep(self._scored[0], log_j)
            for kind, on_w in self._bumps:
                one_plus_delta = 1.0 + self.eps[kind].delta
                if kind == "direct":
                    b = log_w if on_w else log_s
                    np.abs(np.add(b, level_term(d), out=b), out=b)
                    b += 1.0
                    np.log(b, out=b)
                    b *= one_plus_delta
                else:
                    # rho is 1 on a leaf of positive mass, so the leaf piece
                    # (always an item's last) has bump 0; a zero-mass
                    # leaf's joint score is -inf already
                    inner = item[:-1] if item[-1][0] == self.grid.leaf_level else item
                    b, end = free, bounds[len(inner)]
                    if inner:
                        head, t = b[:end], tmp[:end]
                        log_of((self.w if on_w else self.sigma).rho_levels, head, inner)  # >= 0, as rho >= 1
                        head += np.multiply(np.log(np.add(head, 1.0, out=t), out=t), one_plus_delta, out=t)
                    b[end:] = 0.0
                keys = [key for key in self._scored if key[:2] == (kind, on_w)]
                for key in keys:
                    # the last score of a bump in the bump's own row
                    score = np.multiply(b, key[2], out=b if key == keys[-1] else tmp)
                    score += log_j
                    keep(key, score)
        spare.append(ws)
        return [found[key] for key in self._scored]

    def _exact(self, name: str, k: int, cells: np.ndarray) -> np.ndarray:
        """The constant's per-cube values at the flat indices `cells` of level
        k, in the vector arithmetic of the per-cube oracle: the joint factor
        w^{1/q} sigma^{1/p'} |Q|^{alpha/d - 1}, times t^e eps(t)^e for an
        entropy bump of key t = rho or eps(t)^e for a direct one of key t =
        the average.  Every candidate has positive masses, so t is defined."""
        cfg, d = self.cfg, self.grid.dimension
        j = (self.w.mass_levels[k].reshape(-1)[cells] ** (1.0 / cfg.q)
             * self.sigma.mass_levels[k].reshape(-1)[cells] ** (1.0 / cfg.p_dual))
        j *= 2.0 ** (k * (d - cfg.alpha))
        kind, on_w, e = self._score_of[name]
        if kind is None:
            return j
        weight = self.w if on_w else self.sigma
        if kind == "entropy":
            t = weight.rho_levels[k].reshape(-1)[cells]
        else:  # |Q| = 2^{-dk} exactly, so the average's scaling is exact
            t = weight.mass_levels[k].reshape(-1)[cells] * 2.0 ** (d * k)
        vals = eps_eval(self.eps[kind], t) ** e
        vals *= j * t**e if kind == "entropy" else j
        return vals

    @cached_property
    def found(self) -> dict[str, tuple[float, DyadicCube]]:
        """Per constant, its value and its argmax: the first maximal cube in
        (level, flat index) order.

        One pass over the items of the pyramid (`_items`) through
        `blockwise` scores every constant in log space (`_scores`).  The cells within `SCORE_MARGIN`
        of a constant's maximum are its candidates, evaluated in the exact
        arithmetic of `_exact`; the value reported is the exact value that
        won the argmax, so a witness recomputation in that arithmetic
        reproduces it exactly."""
        grid = self.grid
        for kind, on_w in self._bumps:
            if kind == "entropy":  # built before the pass spreads: cached_property has no lock
                (self.w if on_w else self.sigma).rho_levels
        items, spare = _items(grid), []
        cells = max(sum(_sizes(item, grid.dimension)) for item in items)
        scored = blockwise(lambda item: self._scores(spare, cells, item), items, grid)
        found = {}
        for name in self.names:
            per_item = [item[self._scored.index(self._score_of[name])] for item in scored]
            floor = _score_floor(max(top for top, _, _, _ in per_item))
            # the candidates in (level, flat index) order, and their exact values
            near = [score >= floor for _, _, _, score in per_item]
            levels = np.concatenate([ks[at] for (_, ks, _, _), at in zip(per_item, near)])
            cells = np.concatenate([ms[at] for (_, _, ms, _), at in zip(per_item, near)])
            values = np.empty(len(cells))
            for k in dict.fromkeys(levels.tolist()):  # not np.unique, which imports numpy.ma
                values[levels == k] = self._exact(name, k, cells[levels == k])
            best = int(np.argmax(values))
            k = int(levels[best])
            cube = DyadicCube(k, tuple(int(x) for x in np.unravel_index(int(cells[best]), grid.level_shape(k))))
            found[name] = (float(values[best]), cube)
        return found


def _report(found: dict[str, tuple[float, DyadicCube, Weight]], eps: EntropyFunction) -> BumpReport:
    """A BumpReport from name -> (constant, argmax, weight whose rho is reported
    there); the rho is None where that weight has no mass, as it is undefined."""
    return BumpReport({name: v for name, (v, _, _) in found.items()},
                      {name: cube for name, (_, cube, _) in found.items()},
                      {name: rho(wt, cube) if mass(wt, cube) > 0 else None
                       for name, (_, cube, wt) in found.items()}, eps)


def _scan_of(sigma: Weight, w: Weight, cfg: ExponentConfig, eps: EntropyFunction,
             scan: PairScan | None) -> PairScan:
    """The caller's shared scan of the pair, or a scan of this report's own
    constants."""
    if scan is None:
        return PairScan(sigma, w, cfg, **{eps.kind: eps})
    if scan.sigma is not sigma or scan.w is not w or scan.cfg != cfg or scan.eps[eps.kind] != eps:
        raise ValueError("scan is of another pair, exponents or eps")
    return scan


def entropy_bumps(sigma: Weight, w: Weight, cfg: ExponentConfig,
                  eps: EntropyFunction, scan: PairScan | None = None) -> BumpReport:
    """Entropy bump constants.

    E bumps the joint factor by rho(Q; sigma)^{1/q} eps(rho(Q; sigma))^{1/q}.
    The dual constant is computed two ways: E_star_printed keeps
    rho(Q; sigma) in the exponent-1/p' bump; E_star_symmetric (the
    duality-consistent reading, and the one the dual proof chain consumes)
    uses rho(Q; w).  Cubes where the relevant weight has zero mass
    contribute 0, as the joint factor vanishes there.  `scan` is a
    `PairScan` of (sigma, w, cfg) with this eps that the caller shares with
    `direct_bumps`, and the report holds the constants of this kind that it
    scans; without it all four come from a scan of their own.
    """
    if eps.kind != "entropy":
        raise ValueError("direct eps passed to entropy bump")
    found = _scan_of(sigma, w, cfg, eps, scan).found
    return _report({name: (*found[name], w if name == "E_star_symmetric" else sigma)
                    for name in ("A", "E", "E_star_printed", "E_star_symmetric") if name in found}, eps)


def direct_bumps(sigma: Weight, w: Weight, cfg: ExponentConfig,
                 eps: EntropyFunction, scan: PairScan | None = None) -> BumpReport:
    """Direct-comparison bump constants.

    D bumps the joint factor by eps(<sigma>_Q)^{1/q}; D_star by
    eps(<w>_Q)^{1/p'}.  Cubes with zero average contribute 0 (the joint
    factor vanishes there too).  rho(Q; sigma) is reported at every argmax.
    `scan` is as in `entropy_bumps`.
    """
    if eps.kind != "direct":
        raise ValueError("entropy eps passed to direct bump")
    found = _scan_of(sigma, w, cfg, eps, scan).found
    return _report({name: (*found[name], sigma) for name in ("A", "D", "D_star") if name in found}, eps)
