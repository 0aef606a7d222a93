"""Lambda-sparse families of dyadic cubes.

A family is lambda-sparse when, inside every member Q0, the maximal proper
members occupy at most a lambda-fraction of |Q0|.  The exceptional set E_Q
is the part of Q not covered by proper family members; the E_Q are pairwise
disjoint and |E_Q| >= (1-lambda)|Q|.  The Carleson estimate certified here,
at every member Q0 at once by `carleson_check`, is the explicit-constant form

    sum_{Q in S, Q ⊆ Q0} sigma(Q)  <=  rho(Q0; sigma) sigma(Q0) / (1-lambda).
"""

from __future__ import annotations

import bisect
import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .grid import DyadicCube, GridConfig, coarsen, expand, leaf_slice, parse_cube
from .weights import Weight, average, json_record, mass, rho  # noqa: F401 (rho: perfbench BINDINGS wraps it)


def _tree(level: np.ndarray, index: np.ndarray, depth: int):
    """Array form of cubes sorted by (level, index), given as their levels
    and (|S|, d) indices: per member its row-major index on its level and its
    parent; the level bounds (members on level k are members[bounds[k]:
    bounds[k+1]]); per level-`depth` cube its owner.

    One top-down sweep over levels 0..depth carries, per grid cube, the
    position of the deepest member containing it (-1 for none).  Read at a
    member before the member writes itself, that is its parent (the nearest
    proper ancestor in the collection); the map left at level `depth` holds
    the owners.
    """
    d = index.shape[1]
    # j in d=1, (j1 << k) + j2 in d=2
    flat = (index << (level[:, None] * np.arange(d - 1, -1, -1))).sum(axis=1)
    bounds = np.searchsorted(level, np.arange(depth + 2))
    parent = np.empty(len(level), dtype=np.int64)
    owner = np.full((1,) * d, -1, dtype=np.int64)
    for k in range(depth + 1):
        owner = expand(owner, d) if k else owner
        at_k, sel = owner.reshape(-1), flat[bounds[k]:bounds[k + 1]]
        parent[bounds[k]:bounds[k + 1]] = at_k[sel]
        at_k[sel] = np.arange(bounds[k], bounds[k + 1])
    return flat, bounds, parent, owner


@dataclass(frozen=True)
class SparseFamily:
    """A lambda-sparse collection of dyadic cubes inside one declared root.

    The root must itself belong to the family and contain every member
    (equivalently: the family has a unique maximal cube).

    The family is held as an array tree: `members` in (level, index) order
    (any iterable of cubes on construction, stored sorted and de-duplicated),
    per member its `level` and `parent` (position of the nearest proper
    family ancestor, -1 at the root), and per leaf its `owner` (position of
    the minimal member containing it, -1 outside the root).  Per-cube
    quantities are arrays over `members`, computed by two sweeps over the
    tree: `ancestor_sum` (down) and `descendant_sum` (up).
    """

    grid: GridConfig
    members: tuple[DyadicCube, ...]
    lam: float
    root: DyadicCube = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.lam < 1:
            raise ValueError(f"lambda must be in (0,1), got {self.lam}")
        members = tuple(sorted(set(self.members), key=lambda c: (c.level, c.index)))
        if not members:
            raise ValueError("family must be nonempty")
        object.__setattr__(self, "members", members)
        foreign = [q.text for q in members if q.dimension != self.grid.dimension]
        if foreign:
            raise ValueError(f"cube {foreign[0]} is not of dimension {self.grid.dimension}")
        if members[-1].level > self.grid.leaf_level:
            raise ValueError(f"cube {members[-1].text} below leaf level")
        level = np.array([q.level for q in members])
        index = np.array([q.index for q in members], dtype=np.int64)
        flat, bounds, parent, owner = _tree(level, index, self.grid.leaf_level)
        if np.count_nonzero(parent < 0) != 1:
            raise ValueError("family must have a unique maximal cube (the root)")
        object.__setattr__(self, "root", members[0])
        # per member, the volume of its maximal proper sub-members over its own
        volume = np.ldexp(1.0, -self.grid.dimension * level)
        child = parent >= 0
        ratio = np.bincount(parent[child], weights=volume[child], minlength=len(members)) / volume
        j = int(np.argmax(ratio))
        if ratio[j] > self.lam:
            raise ValueError(
                f"collection is not {self.lam}-sparse: worst ratio "
                f"{float(ratio[j])} at {members[j].text}"
            )
        owner.setflags(write=False)
        arrays = {"parent": parent, "owner": owner, "_flat": flat,
                  "level": level, "_bounds": bounds,
                  "position": {q: i for i, q in enumerate(members)},
                  # members[lo:hi] per occupied level below the root's: the sweep steps
                  "_below_root": [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if 0 < lo < hi]}
        for name, value in arrays.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, cube: DyadicCube) -> bool:
        return cube in self.position

    def gather(self, levels) -> np.ndarray:
        """Per member, its entry of a per-level cube array (levels[k] at level k)."""
        b = self._bounds
        return np.concatenate([levels[k].reshape(-1)[self._flat[b[k]:b[k + 1]]]
                               for k in range(self.grid.leaf_level + 1)])

    def ancestor_sum(self, values) -> np.ndarray:
        """Per member Q, the sum of `values` over the members containing Q
        (Q included): a down-sweep, ancestors added coarsest first.  A 2-D
        `values` is swept column by column, all columns at once."""
        out = np.array(values, dtype=float)
        for lo, hi in self._below_root:
            out[lo:hi] += out[self.parent[lo:hi]]
        return out

    def descendant_sum(self, values) -> np.ndarray:
        """Per member Q, the sum of `values` over the members inside Q
        (Q included): an up-sweep, deepest level first.  A 2-D `values` is
        swept column by column, all columns at once: one bincount per level
        over the flat (parent, column) positions."""
        out = np.array(values, dtype=float)
        cols = out.reshape(len(out), -1)  # a view: (|S|, 1) for a vector
        m = cols.shape[1]
        for lo, hi in reversed(self._below_root):
            # every parent of members[lo:hi] lies before lo
            at = self.parent[lo:hi] if m == 1 else (self.parent[lo:hi, None] * m + np.arange(m)).ravel()
            cols[:lo] += np.bincount(at, weights=cols[lo:hi].ravel(), minlength=lo * m).reshape(lo, m)
        return out

    def at_leaves(self, values) -> np.ndarray:
        """Leaf array holding, on each leaf, the value of its owner; 0 outside the root."""
        return np.append(np.asarray(values, dtype=float), 0.0)[self.owner]

    def exceptional_mass(self, weight: Weight) -> np.ndarray:
        """Per member, the mass weight(E_Q): one up-sweep of the leaf masses
        in which each member reads the sum at its cube and then clears it,
        so each E_Q is summed pairwise up the pyramid over its own leaves."""
        n, b = self.grid.leaf_level, self._bounds
        out = np.empty(len(self.members))
        level_sums = weight.mass_levels[n].copy()
        for k in range(n, self.root.level - 1, -1):
            level_sums = level_sums if k == n else coarsen(level_sums, self.grid.dimension)
            at_k, sel = level_sums.reshape(-1), self._flat[b[k]:b[k + 1]]
            out[b[k]:b[k + 1]] = at_k[sel]
            at_k[sel] = 0.0
        return out


def stopping_family(sigma: Weight, big_lambda: float, root: DyadicCube) -> SparseFamily:
    """Corona construction: starting from `root`, the stopping children of a
    selected Q are the maximal Q' ⊊ Q with <sigma>_{Q'} > big_lambda * <sigma>_Q.

    One top-down sweep over the levels below the root: each cube carries
    the threshold big_lambda * <sigma>_P of its stopping parent P (its
    nearest selected proper ancestor) and is selected when its average
    exceeds it.  Chebyshev gives lambda-sparseness with lambda = 1/big_lambda;
    the result is verified on output by the SparseFamily constructor.
    """
    if big_lambda <= 1:
        raise ValueError(f"stopping ratio must exceed 1, got {big_lambda}")
    grid = sigma.grid
    d = grid.dimension
    if mass(sigma, root) <= 0:
        raise ValueError(f"degenerate weight on cube {root.text}")
    selected = [root]
    chosen = np.ones((1,) * d, dtype=bool)
    avg = threshold = np.full((1,) * d, average(sigma, root))
    for k in range(root.level + 1, grid.leaf_level + 1):
        threshold = expand(np.where(chosen, big_lambda * avg, threshold), d)
        # the level-k cubes inside the root; |Q| = 2^{-dk} exactly
        avg = sigma.mass_levels[k][leaf_slice(root, GridConfig(d, k))] * 2.0 ** (d * k)
        chosen = avg > threshold
        corner = np.array(root.index) << (k - root.level)
        selected += [DyadicCube(k, tuple(j)) for j in (np.argwhere(chosen) + corner).tolist()]
    return SparseFamily(grid, selected, 1.0 / big_lambda)


def random_sparse(grid: GridConfig, lam: float, seed: int, target_size: int) -> SparseFamily:
    """Greedy randomized family: visit non-root cubes in a seeded random
    order and accept each iff lambda-sparseness is preserved; rejected
    candidates are discarded permanently.  Stops at target_size or when the
    candidate pool is exhausted.

    The pool is every non-root cube in (level, row-major index) order; a
    visited pool position is decoded to its (level, index) key
    arithmetically.  The one state is `covered`: per grid cube touched, the
    volume (an exact int, in leaves) of the accepted cubes strictly inside
    it.  An accepted candidate adds its uncovered volume to each cube from
    its parent up to its nearest accepted ancestor, which covers it for the
    cubes above.  Cube objects are made for the accepted keys only.
    """
    if not 0 < lam < 1:
        raise ValueError(f"lambda must be in (0,1), got {lam}")
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    d, n = grid.dimension, grid.leaf_level
    accepted, covered = {(0, (0,) * d)}, Counter()
    if target_size > 1:
        # level k occupies pool positions starts[k-1] .. starts[k]-1
        starts = list(itertools.accumulate((2 ** (d * k) for k in range(1, n + 1)), initial=0))
        rng = np.random.default_rng(seed)
        for pos in map(int, rng.permutation(starts[-1])):
            k = bisect.bisect_right(starts, pos)
            j = pos - starts[k - 1]
            cand = (k, (j,) if d == 1 else (j >> k, j & ((1 << k) - 1)))
            chain = [cand]  # cand, then its proper ancestors up to the nearest accepted one
            while chain[-1] not in accepted:
                level, index = chain[-1]
                chain.append((level - 1, tuple(i >> 1 for i in index)))
            anc, size, absorbed = chain[-1], 1 << d * (n - k), covered[cand]
            if covered[anc] + size - absorbed > lam * (1 << d * (n - anc[0])) or absorbed > lam * size:
                continue
            accepted.add(cand)
            for cube in chain[1:]:
                covered[cube] += size - absorbed
            if len(accepted) >= target_size:
                break
    return SparseFamily(grid, (DyadicCube(k, index) for k, index in accepted), lam)


def carleson_check(family: SparseFamily, sigma: Weight) -> np.ndarray:
    """Per member Q0, in `members` order, the ratio lhs/rhs of the Carleson
    estimate above (contract: ratio <= 1 on every valid instance), lhs summed
    over the members Q ⊆ Q0 by one up-sweep and rho read from `rho_levels`.
    Raises on a member with sigma(Q0) = 0, where rho is undefined (NaN)."""
    masses, rhos = family.gather(sigma.mass_levels), family.gather(sigma.rho_levels)
    if (nan := np.isnan(rhos)).any():
        raise ValueError(f"degenerate weight on cube {family.members[np.argmax(nan)].text}")
    return family.descendant_sum(masses) / (rhos * masses / (1.0 - family.lam))


# --- serialization ----------------------------------------------------------

def family_to_json(family: SparseFamily) -> str:
    return json.dumps(
        {
            "dimension": family.grid.dimension,
            "leaf_level": family.grid.leaf_level,
            "lambda": family.lam,
            "root": family.root.text,
            "cubes": [q.text for q in family.members],
        },
        sort_keys=True,
    )


def family_from_json(text: str) -> SparseFamily:
    record = json_record(text, "family", {"dimension": int, "leaf_level": int, "lambda": float,
                                          "root": str, "cubes": [str]})
    grid = GridConfig(record["dimension"], record["leaf_level"])
    family = SparseFamily(grid, map(parse_cube, record["cubes"]), record["lambda"])
    declared_root = parse_cube(record["root"])
    if family.root != declared_root:
        raise ValueError("declared root does not match the family's maximal cube")
    return family
