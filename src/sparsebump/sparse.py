"""Lambda-sparse families of dyadic cubes.

A family is lambda-sparse when, inside every member Q0, the maximal proper
members occupy at most a lambda-fraction of |Q0|.  The exceptional set E_Q
is the part of Q not covered by proper family members; the E_Q are pairwise
disjoint and |E_Q| >= (1-lambda)|Q|.  The Carleson estimate certified here
is the explicit-constant form

    sum_{Q in S, Q ⊆ Q0} sigma(Q)  <=  rho(Q0; sigma) sigma(Q0) / (1-lambda).
"""

from __future__ import annotations

import bisect
import itertools
import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import (
    DyadicCube,
    GridConfig,
    contains,
    coarsen,
    expand,
    leaf_slice,
    parse_cube,
    root_cube,
)
from .maximal import rho
from .weights import Weight, average, mass


def _nearest_ancestor_in(cube: DyadicCube, members: set[DyadicCube]) -> DyadicCube | None:
    """Deepest proper ancestor of `cube` among `members` (dyadic chain walk)."""
    c = cube
    while c.level > 0:
        c = c.parent()
        if c in members:
            return c
    return None


def _tree(members: tuple[DyadicCube, ...], depth: int):
    """Array form of cubes sorted by (level, index): per member its row-major
    index on its level and its parent; the level bounds (members on level k
    are members[bounds[k]:bounds[k+1]]); per level-`depth` cube its owner.

    One top-down sweep over levels 0..depth carries, per grid cube, the
    position of the deepest member containing it (-1 for none).  Read at a
    member before the member writes itself, that is its parent (the nearest
    proper ancestor in the collection); the map left at level `depth` holds
    the owners.
    """
    d = members[0].dimension
    flat = np.array([q.index[0] if d == 1 else (q.index[0] << q.level) + q.index[1]
                     for q in members], dtype=np.int64)
    bounds = np.searchsorted([q.level for q in members], np.arange(depth + 2))
    parent = np.empty(len(members), dtype=np.int64)
    owner = np.full((1,) * d, -1, dtype=np.int64)
    for k in range(depth + 1):
        owner = expand(owner, d) if k else owner
        at_k, sel = owner.reshape(-1), flat[bounds[k]:bounds[k + 1]]
        parent[bounds[k]:bounds[k + 1]] = at_k[sel]
        at_k[sel] = np.arange(bounds[k], bounds[k + 1])
    return flat, bounds, parent, owner


def _sparseness(members: tuple[DyadicCube, ...], parent: np.ndarray, lam: float) -> dict:
    """Per member, the volume of its children in the tree (its maximal proper
    sub-members) over its own volume; the worst ratio against lam."""
    volume = np.array([q.volume for q in members])
    child = parent >= 0
    ratio = np.bincount(parent[child], weights=volume[child], minlength=len(members)) / volume
    j = int(np.argmax(ratio))
    worst_ratio = float(ratio[j])
    witness = members[j] if worst_ratio > 0 else None
    return {"ok": worst_ratio <= lam, "worst_ratio": worst_ratio, "witness": witness}


def verify_sparse(cubes, lam: float) -> dict:
    """Check lambda-sparseness: per member, sum the volumes of its maximal
    proper sub-members and compare with lam * volume.

    Returns {ok, worst_ratio, witness}; witness is the cube attaining the
    worst ratio (None when every member has no proper sub-members).
    """
    members = tuple(sorted(set(cubes), key=lambda c: (c.level, c.index)))
    if not members:
        raise ValueError("empty cube collection")
    return _sparseness(members, _tree(members, members[-1].level)[2], lam)


@dataclass(frozen=True)
class SparseFamily:
    """A lambda-sparse collection of dyadic cubes inside one declared root.

    The root must itself belong to the family and contain every member
    (equivalently: the family has a unique maximal cube).

    The family is held as an array tree: `members` in (level, index) order,
    per member its `level` and `parent` (position of the nearest proper
    family ancestor, -1 at the root), and per leaf its `owner` (position of
    the minimal member containing it, -1 outside the root).  Per-cube
    quantities are arrays over `members`, computed by two sweeps over the
    tree: `ancestor_sum` (down) and `descendant_sum` (up).
    """

    grid: GridConfig
    cubes: frozenset[DyadicCube]
    lam: float
    root: DyadicCube = field(init=False)

    def __post_init__(self) -> None:
        if not 0 < self.lam < 1:
            raise ValueError(f"lambda must be in (0,1), got {self.lam}")
        cubes = frozenset(self.cubes)
        if not cubes:
            raise ValueError("family must be nonempty")
        object.__setattr__(self, "cubes", cubes)
        members = tuple(sorted(cubes, key=lambda c: (c.level, c.index)))
        if members[-1].level > self.grid.leaf_level:
            raise ValueError(f"cube {members[-1].text} below leaf level")
        flat, bounds, parent, owner = _tree(members, self.grid.leaf_level)
        if np.count_nonzero(parent < 0) != 1:
            raise ValueError("family must have a unique maximal cube (the root)")
        object.__setattr__(self, "root", members[0])
        check = _sparseness(members, parent, self.lam)
        if not check["ok"]:
            raise ValueError(
                f"collection is not {self.lam}-sparse: worst ratio "
                f"{check['worst_ratio']} at {check['witness'].text}"
            )
        owner.setflags(write=False)
        runs = np.flatnonzero(np.diff(owner.ravel(), prepend=-2))
        arrays = {"members": members, "parent": parent, "owner": owner, "_flat": flat,
                  "level": np.array([q.level for q in members]), "_bounds": bounds,
                  "position": {q: i for i, q in enumerate(members)},
                  # members[lo:hi] per occupied level below the root's: the sweep steps
                  "_below_root": [(lo, hi) for lo, hi in zip(bounds[:-1], bounds[1:]) if 0 < lo < hi],
                  # the owner map run-length encoded in leaf order, for at_leaves
                  "_run_owner": owner.ravel()[runs], "_run_length": np.diff(runs, append=owner.size)}
        for name, value in arrays.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.cubes)

    def __contains__(self, cube: DyadicCube) -> bool:
        return cube in self.cubes

    def gather(self, levels) -> np.ndarray:
        """Per member, its entry of a per-level cube array (levels[k] at level k)."""
        b = self._bounds
        return np.concatenate([levels[k].reshape(-1)[self._flat[b[k]:b[k + 1]]]
                               for k in range(self.grid.leaf_level + 1)])

    def ancestor_sum(self, values) -> np.ndarray:
        """Per member Q, the sum of `values` over the members containing Q
        (Q included): a down-sweep, ancestors added coarsest first."""
        out = np.array(values, dtype=float)
        for lo, hi in self._below_root:
            out[lo:hi] += out[self.parent[lo:hi]]
        return out

    def descendant_sum(self, values) -> np.ndarray:
        """Per member Q, the sum of `values` over the members inside Q
        (Q included): an up-sweep, deepest level first."""
        out = np.array(values, dtype=float)
        for lo, hi in reversed(self._below_root):
            out += np.bincount(self.parent[lo:hi], weights=out[lo:hi], minlength=len(out))
        return out

    def at_leaves(self, values) -> np.ndarray:
        """Leaf array holding, on each leaf, the value of its owner; 0 outside the root."""
        per_run = np.append(np.asarray(values, dtype=float), 0.0)[self._run_owner]
        return np.repeat(per_run, self._run_length).reshape(self.grid.leaf_shape())

    def inside(self, position: int) -> np.ndarray:
        """Mask of the members inside the member at `position` (itself included)."""
        return self.ancestor_sum(np.arange(len(self.members)) == position) > 0

    @cached_property
    def exceptional(self) -> dict[DyadicCube, np.ndarray]:
        """E_Q as flat leaf-index arrays, keyed by family cube.

        A leaf lies in E_Q exactly when Q is the minimal family cube
        containing it, so the E_Q are pairwise disjoint by construction.
        """
        flat = self.owner.ravel()
        counts = np.bincount(flat + 1, minlength=len(self.members) + 1)
        groups = np.split(np.argsort(flat, kind="stable"), np.cumsum(counts)[:-1])
        return dict(zip(self.members, groups[1:]))

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

    def exceptional_volume(self, cube: DyadicCube) -> float:
        return len(self.exceptional[cube]) * self.grid.leaf_volume


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
    return SparseFamily(grid, frozenset(selected), 1.0 / big_lambda)


def random_sparse(grid: GridConfig, lam: float, seed: int, target_size: int) -> SparseFamily:
    """Greedy randomized family: visit non-root cubes in a seeded random
    order and accept each iff lambda-sparseness is preserved; rejected
    candidates are discarded permanently.  Stops at target_size or when the
    candidate pool is exhausted.

    The pool is every non-root cube in (level, row-major index) order; a
    visited pool position is decoded to its cube arithmetically.
    """
    if not 0 < lam < 1:
        raise ValueError(f"lambda must be in (0,1), got {lam}")
    if target_size < 1:
        raise ValueError("target_size must be >= 1")
    d = grid.dimension
    root = root_cube(grid)
    accepted = {root}
    # incremental state: maximal proper sub-members per member + their volume sum
    kids: dict[DyadicCube, set[DyadicCube]] = {root: set()}
    kid_volume: dict[DyadicCube, float] = {root: 0.0}
    if target_size > 1:
        # level k occupies pool positions starts[k-1] .. starts[k]-1
        starts = list(itertools.accumulate(
            (2 ** (d * k) for k in range(1, grid.leaf_level + 1)), initial=0))
        rng = np.random.default_rng(seed)
        for pos in map(int, rng.permutation(starts[-1])):
            k = bisect.bisect_right(starts, pos)
            j = pos - starts[k - 1]
            cand = DyadicCube(k, (j,) if d == 1 else (j >> k, j & ((1 << k) - 1)))
            anc = _nearest_ancestor_in(cand, accepted)
            absorbed = {q for q in kids[anc] if contains(cand, q)}
            absorbed_volume = sum(q.volume for q in absorbed)
            new_anc_volume = kid_volume[anc] - absorbed_volume + cand.volume
            if new_anc_volume > lam * anc.volume or absorbed_volume > lam * cand.volume:
                continue
            accepted.add(cand)
            kids[anc] -= absorbed
            kids[anc].add(cand)
            kid_volume[anc] = new_anc_volume
            kids[cand] = absorbed
            kid_volume[cand] = absorbed_volume
            if len(accepted) >= target_size:
                break
    return SparseFamily(grid, frozenset(accepted), lam)


def carleson_check(family: SparseFamily, sigma: Weight, q0: DyadicCube) -> dict:
    """Explicit-constant Carleson estimate at Q0 in S:

        lhs = sum of sigma(Q) over family members Q ⊆ Q0,
        rhs = rho(Q0; sigma) * sigma(Q0) / (1 - lambda),

    with the contract lhs <= rhs (ratio <= 1) on every valid instance.
    """
    if q0 not in family:
        raise ValueError(f"cube {q0.text} is not in the family")
    rhs = rho(sigma, q0) * mass(sigma, q0) / (1.0 - family.lam)  # rho raises on sigma(Q0) = 0
    lhs = float(family.descendant_sum(family.gather(sigma.mass_levels))[family.position[q0]])
    return {"lhs": lhs, "rhs": rhs, "ratio": lhs / rhs}


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
    record = json.loads(text)
    grid = GridConfig(record["dimension"], record["leaf_level"])
    cubes = frozenset(parse_cube(t) for t in record["cubes"])
    family = SparseFamily(grid, cubes, record["lambda"])
    declared_root = parse_cube(record["root"])
    if family.root != declared_root:
        raise ValueError("declared root does not match the family's maximal cube")
    return family
