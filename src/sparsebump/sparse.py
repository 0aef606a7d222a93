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
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .grid import DyadicCube, GridConfig, coarsen, descendant_block, expand, parse_cube
from .weights import Weight, average, json_record, mass, rho  # noqa: F401 (rho: perfbench BINDINGS wraps it)


def _tree(level: np.ndarray, flat: np.ndarray, d: int, depth: int):
    """Array form of cubes sorted by (level, index), given as their levels
    and row-major indices on their levels: the level bounds (members on
    level k are members[bounds[k]:bounds[k+1]]); per member its parent and
    its generation (0 at a maximal member, 1 at its children, ...); per
    level-`depth` cube its owner.

    One top-down sweep over levels 0..depth carries, per grid cube, the
    position of the deepest member containing it (-1 for none).  Read at a
    member before the member writes itself, that is its parent (the nearest
    proper ancestor in the collection); the map left at level `depth` holds
    the owners.
    """
    bounds = np.searchsorted(level, np.arange(depth + 2))
    parent = np.empty(len(level), dtype=np.int64)
    generation = np.full(len(level) + 1, -1, dtype=np.int64)  # the last entry, read at parent -1, stays -1
    owner = np.full((1,) * d, -1, dtype=np.int64)
    for k in range(depth + 1):
        owner = expand(owner, d) if k else owner
        at_k, sel = owner.reshape(-1), flat[bounds[k]:bounds[k + 1]]
        parent[bounds[k]:bounds[k + 1]] = at_k[sel]
        generation[bounds[k]:bounds[k + 1]] = generation[at_k[sel]] + 1
        at_k[sel] = np.arange(bounds[k], bounds[k + 1])
    return bounds, parent, generation[:-1], owner


class Generations(NamedTuple):
    """A family's members in tree-depth order: the root, then its children,
    then theirs.  The sort is stable, so each generation keeps the members'
    (level, index) order, and every parent lies in the generation just
    before its children.  A place is a position in this order."""

    order: np.ndarray  # per place, its member
    back: np.ndarray  # per member, its place
    slot: np.ndarray  # per place, its parent's place less the start of the parent's generation; -1 at the root
    blocks: tuple[tuple[int, int, int], ...]  # per generation below the root: (parent generation start, lo, hi)


class SparseFamily:
    """A lambda-sparse collection of dyadic cubes inside one declared root.

    The root must itself belong to the family and contain every member
    (equivalently: the family has a unique maximal cube).

    The family is an array tree, built from any iterable of cubes or, by
    `from_arrays`, from their `level` and (|S|, d) `index` arrays, kept in
    (level, index) order without repeats: per member its `parent` (position
    of the nearest proper family ancestor, -1 at the root), per leaf its
    `owner` (position of the minimal member containing it, -1 outside the
    root).  Cubes are made when read: `cube(i)`, `root`, and `members` on
    first use.  `block_sums` and `exceptional_mass` reduce a leaf array to
    per-member sums on one walk up the grid levels (`_leaf_walk`).
    Per-cube quantities are arrays over the members, computed by two sweeps
    over the tree, one step per tree generation (a stopping family spread
    over 9 levels may be 3 generations deep): `down_sweep` and `up_sweep`
    work in place on an array in `generations` order, the order the dual
    ascent keeps, and `ancestor_sum` and `descendant_sum` run them on an
    array in member order.
    """

    def __init__(self, grid: GridConfig, members, lam: float) -> None:
        cubes = set(members)
        if foreign := [q for q in cubes if q.dimension != grid.dimension]:
            first = min(foreign, key=lambda q: (q.level, q.index))
            raise ValueError(f"cube {first.text} is not of dimension {grid.dimension}")
        self._build(grid, [q.level for q in cubes], [q.index for q in cubes], lam)

    @classmethod
    def from_arrays(cls, grid: GridConfig, level, index, lam: float) -> SparseFamily:
        """The family of the cubes (level[i], index[i]), in any order and with repeats."""
        family = cls.__new__(cls)
        family._build(grid, level, index, lam)
        return family

    def _build(self, grid: GridConfig, level, index, lam: float) -> None:
        if not 0 < lam < 1:
            raise ValueError(f"lambda must be in (0,1), got {lam}")
        if not len(level):
            raise ValueError("family must be nonempty")
        level = np.asarray(level, dtype=np.int64)
        if level.max() > grid.leaf_level:  # before its index meets int64 or a shift by its level
            deepest = max(zip(level.tolist(), map(tuple, index)))
            raise ValueError(f"cube {DyadicCube(*deepest).text} below leaf level")
        index = np.asarray(index, dtype=np.int64).reshape(len(level), -1)
        # the checks that DyadicCube makes for the cube constructor
        bad = (level < 0) | ((index < 0) | (index >> level.clip(0)[:, None] > 0)).any(axis=1)
        if bad.any():
            j = int(np.argmax(bad))
            raise ValueError(f"index {tuple(index[j].tolist())} out of range at level {level[j]}")
        # the row-major index on its level: j in d=1, (j1 << k) + j2 in d=2
        flat = (index << (level[:, None] * np.arange(index.shape[1] - 1, -1, -1))).sum(axis=1)
        # the (level, index) order is that of level << 32 | flat, as d k <= 24 here
        self._key, keep = np.unique(level << 32 | flat, return_index=True)
        self.grid, self.lam, self.level, self.index, self._flat = grid, lam, level[keep], index[keep], flat[keep]
        if index.shape[1] != grid.dimension:
            raise ValueError(f"cube {self.cube(0).text} is not of dimension {grid.dimension}")
        self._bounds, self.parent, self._generation, self.owner = _tree(
            self.level, self._flat, grid.dimension, grid.leaf_level)
        if np.count_nonzero(self.parent < 0) != 1:
            raise ValueError("family must have a unique maximal cube (the root)")
        # per member, the volume of its maximal proper sub-members over its own
        volume = np.ldexp(1.0, -grid.dimension * self.level)
        child = self.parent >= 0
        ratio = np.bincount(self.parent[child], weights=volume[child], minlength=len(volume)) / volume
        j = int(np.argmax(ratio))
        if ratio[j] > lam:
            raise ValueError(f"collection is not {lam}-sparse: worst ratio {float(ratio[j])} at {self.cube(j).text}")
        self.owner.setflags(write=False)
        self._positions = np.empty(0, dtype=np.int64)  # up_sweep's, for the last column count above 1

    def __len__(self) -> int:
        return len(self.level)

    def cube(self, i: int) -> DyadicCube:
        """The member at position i."""
        return DyadicCube(int(self.level[i]), tuple(self.index[i].tolist()))

    root = cached_property(lambda self: self.cube(0))

    @cached_property
    def members(self) -> tuple[DyadicCube, ...]:
        """Every member as a cube, in (level, index) order."""
        return tuple(map(DyadicCube, self.level.tolist(), map(tuple, self.index.tolist())))

    def position(self, cube: DyadicCube) -> int:
        """The position of `cube` in `members`, by a binary search over the
        members' (level, index) keys; -1 when it is not a member."""
        key = cube.level << 32 | sum(j << cube.level * axis for axis, j in enumerate(reversed(cube.index)))
        i = int(np.searchsorted(self._key, key))
        return i if cube.dimension == self.grid.dimension and i < len(self) and self._key[i] == key else -1

    def gather(self, levels) -> np.ndarray:
        """Per member, its entry of a per-level cube array (levels[k] at level k)."""
        b = self._bounds
        return np.concatenate([levels[k].reshape(-1)[self._flat[b[k]:b[k + 1]]]
                               for k in range(self.grid.leaf_level + 1)])

    @cached_property
    def generations(self) -> Generations:
        """The members in tree-depth order, with the parent slot of each
        place and the places of each generation."""
        order = np.argsort(self._generation, kind="stable")
        back = np.empty_like(order)
        back[order] = np.arange(len(order))
        bounds = np.searchsorted(self._generation[order], np.arange(self._generation.max() + 2))
        # the root, of generation 0, comes first; generation g's parents start at bounds[g - 1]
        slot = np.append(-1, back[self.parent[order[1:]]] - np.repeat(bounds[:-2], np.diff(bounds[1:])))
        bounds = bounds.tolist()
        return Generations(order, back, slot, tuple(zip(bounds[:-2], bounds[1:-1], bounds[2:])))

    def down_sweep(self, x: np.ndarray) -> np.ndarray:
        """x, in generation order, with each row replaced in place by the sum
        of the rows of its ancestors and itself: each generation below the
        root adds its parents' finished sums, so every member takes one add,
        ancestors added coarsest first.  Returns x."""
        _, _, slot, blocks = self.generations
        for start, lo, hi in blocks:
            # `take` rather than fancy indexing: the same copy, at a third of the cost on (|S|, m) rows
            x[lo:hi] += x[start:lo].take(slot[lo:hi], axis=0)
        return x

    def up_sweep(self, x: np.ndarray) -> np.ndarray:
        """x, in generation order, with each row replaced in place by the sum
        of the rows of its subtree: deepest generation first, one bincount
        over the flat (parent slot, column) positions of x's m columns adds
        each generation's sums into its parent generation, so each parent
        adds the sum of its children taken left to right in member order.
        One column scatters to `slot`; the positions for the last m > 1 are
        kept (|S| m int64) until m changes.  Returns x."""
        cols = x.reshape(len(x), -1)  # a view: (|S|, 1) for a vector
        m = cols.shape[1]
        slot = self.generations.slot
        at = slot if m == 1 else self._positions
        if at.size != slot.size * m:
            at = self._positions = (slot[:, None] * m + np.arange(m)).ravel()
        for start, lo, hi in reversed(self.generations.blocks):
            cols[start:lo] += np.bincount(at[lo * m:hi * m], weights=cols[lo:hi].ravel(),
                                          minlength=(lo - start) * m).reshape(lo - start, m)
        return x

    def ancestor_sum(self, values) -> np.ndarray:
        """Per member Q, the sum of `values` over the members containing Q
        (Q included): `down_sweep` in generation order.  A 2-D `values` is
        swept column by column, all columns at once."""
        order, back = self.generations[:2]
        return self.down_sweep(np.asarray(values, dtype=float).take(order, axis=0)).take(back, axis=0)

    def descendant_sum(self, values) -> np.ndarray:
        """Per member Q, the sum of `values` over the members inside Q
        (Q included): `up_sweep` in generation order.  A 2-D `values` is
        swept column by column, all columns at once."""
        order, back = self.generations[:2]
        return self.up_sweep(np.asarray(values, dtype=float).take(order, axis=0)).take(back, axis=0)

    def at_leaves(self, values) -> np.ndarray:
        """Leaf array holding, on each leaf, the value of its owner; 0 outside the root."""
        return np.append(np.asarray(values, dtype=float), 0.0)[self.owner]

    def block_sums(self, leaf: np.ndarray) -> np.ndarray:
        """Per member Q, the sum of a leaf-shaped array over Q's leaves."""
        return self._leaf_walk(leaf, clear=False)

    def exceptional_mass(self, weight: Weight) -> np.ndarray:
        """Per member, weight(E_Q): the walk of its leaf masses that clears each sum it reads."""
        return self._leaf_walk(weight.mass_levels[-1].copy(), clear=True)

    def _leaf_walk(self, level_sums: np.ndarray, clear: bool) -> np.ndarray:
        """Per member, its cube's entry of the level sums of a leaf-shaped
        array, each level coarsened from the one below, up to the root's.
        With `clear` each member zeroes the entry it read, in place."""
        n, b = self.grid.leaf_level, self._bounds
        out = np.empty(len(self))
        for k in range(n, int(self.level[0]) - 1, -1):
            level_sums = level_sums if k == n else coarsen(level_sums, self.grid.dimension)
            at_k, sel = level_sums.reshape(-1), self._flat[b[k]:b[k + 1]]
            out[b[k]:b[k + 1]] = at_k[sel]
            if clear:
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
    index = [np.array([root.index])]  # per level from the root's down, the selected cubes
    chosen = np.ones((1,) * d, dtype=bool)
    avg = threshold = np.full((1,) * d, average(sigma, root))
    for k in range(root.level + 1, grid.leaf_level + 1):
        threshold = expand(np.where(chosen, big_lambda * avg, threshold), d)
        # the level-k cubes inside the root; |Q| = 2^{-dk} exactly
        avg = sigma.mass_levels[k][descendant_block(root.index, root.level, k)] * 2.0 ** (d * k)
        chosen = avg > threshold
        index.append(np.argwhere(chosen) + (np.array(root.index) << (k - root.level)))
    level = np.repeat(np.arange(root.level, grid.leaf_level + 1), [len(j) for j in index])
    return SparseFamily.from_arrays(grid, level, np.concatenate(index), 1.0 / big_lambda)


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
    cubes above.  The family is built from the accepted keys' arrays.
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
            cand = (k, tuple(j >> k * axis & ((1 << k) - 1) for axis in range(d - 1, -1, -1)))
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
    level, index = zip(*accepted)
    return SparseFamily.from_arrays(grid, level, index, lam)


def carleson_check(family: SparseFamily, sigma: Weight) -> np.ndarray:
    """Per member Q0, in `members` order, the ratio lhs/rhs of the Carleson
    estimate above (contract: ratio <= 1 on every valid instance), lhs summed
    over the members Q ⊆ Q0 by one up-sweep and rho read from `rho_levels`.
    Raises on a member with sigma(Q0) = 0, where rho is undefined (NaN)."""
    masses, rhos = family.gather(sigma.mass_levels), family.gather(sigma.rho_levels)
    if (nan := np.isnan(rhos)).any():
        raise ValueError(f"degenerate weight on cube {family.cube(np.argmax(nan)).text}")
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
