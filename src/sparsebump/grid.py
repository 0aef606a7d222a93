"""Dyadic tree geometry over the unit cube [0,1)^d.

Cubes are half-open products prod_i [j_i 2^-k, (j_i+1) 2^-k), so the 2^{dN}
leaves at level N partition the root exactly and all measure bookkeeping is
exact in binary floating point.  A grid of any dimension d >= 1 holds at
most 2^24 leaves: d * N <= 24.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

# Cells per block of the leaf-resolution passes (512 KiB of float64).  Read
# at call time, by `tile_level`, `flat_blocks` and `blockwise`, so tests can
# change it.
BLOCK = 2**16
# `coarsen`'s index of the even and of the odd half of axis a, for a < 24 (d <= 24)
_HALVES = tuple(tuple((slice(None),) * a + (slice(i, None, 2),) for i in (0, 1)) for a in range(24))


def max_leaf_level(dimension: int) -> int:
    """The deepest leaf level of a d-dimensional grid: d * N <= 24."""
    return 24 // dimension


@dataclass(frozen=True)
class GridConfig:
    """Ambient dyadic grid: dimension d and leaf level N."""

    dimension: int
    leaf_level: int

    def __post_init__(self) -> None:
        if self.dimension < 1:
            raise ValueError(f"dimension must be >= 1, got {self.dimension}")
        n_max = max_leaf_level(self.dimension)
        if not 1 <= self.leaf_level <= n_max:
            raise ValueError(
                f"leaf_level must be in [1, {n_max}] for d={self.dimension}, "
                f"got {self.leaf_level}"
            )

    @property
    def n_leaves(self) -> int:
        return 2 ** (self.dimension * self.leaf_level)

    @property
    def leaf_volume(self) -> float:
        return 2.0 ** (-self.dimension * self.leaf_level)

    def leaf_shape(self) -> tuple[int, ...]:
        return (2**self.leaf_level,) * self.dimension

    def level_shape(self, level: int) -> tuple[int, ...]:
        return (2**level,) * self.dimension


@dataclass(frozen=True)
class DyadicCube:
    """A dyadic subcube of [0,1)^d, identified by level k and index j.

    The cube is prod_i [j_i 2^-k, (j_i+1) 2^-k); its volume is exactly
    2^{-dk}.  Any two dyadic cubes are either nested or disjoint.
    """

    level: int
    index: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.level < 0:
            raise ValueError(f"level must be >= 0, got {self.level}")
        if isinstance(self.index, int):
            object.__setattr__(self, "index", (self.index,))
        if not self.index:
            raise ValueError("index must be non-empty")
        for j in self.index:
            if not 0 <= j < 2**self.level:
                raise ValueError(f"index {self.index} out of range at level {self.level}")

    @property
    def dimension(self) -> int:
        return len(self.index)

    @property
    def text(self) -> str:
        """Report form: "k:j" for d=1, "k:(j1,...,jd)" otherwise."""
        if self.dimension == 1:
            return f"{self.level}:{self.index[0]}"
        return f"{self.level}:({','.join(map(str, self.index))})"

    def __str__(self) -> str:
        return self.text


# "k:j", or "k:(j1,...,jd)" with d >= 2
_CUBE = re.compile(r"(\d+):(?:(\d+)|\((\d+(?:,\d+)+)\))")


def parse_cube(text: str) -> DyadicCube:
    """Inverse of DyadicCube.text."""
    m = _CUBE.fullmatch(text.strip())
    if not m:
        raise ValueError(f"cannot parse cube text {text!r}")
    return DyadicCube(int(m[1]), tuple(map(int, (m[2] or m[3]).split(","))))


def descendant_block(index: tuple[int, ...], level: int, finer: int) -> tuple[slice, ...]:
    """Numpy index of the level-`finer` descendants of the level-`level` cube
    `index` in a level-`finer` array."""
    f = 2 ** (finer - level)
    return tuple([slice(j * f, (j + 1) * f) for j in index])


def leaf_slice(cube: DyadicCube, grid: GridConfig) -> tuple[slice, ...]:
    """Numpy index selecting the cube's leaves from a leaf-shaped array."""
    return descendant_block(cube.index, cube.level, grid.leaf_level)


def root_cube(grid: GridConfig) -> DyadicCube:
    return DyadicCube(0, (0,) * grid.dimension)


# --- per-level cube arrays ----------------------------------------------------

def coarsen(arr: np.ndarray, dimension: int, times: int = 1) -> np.ndarray:
    """Sum sibling blocks `times` times: level k+times values -> level k sums.

    Each step adds the 2^d children of every cube pairwise, one axis at a
    time, last axis first (in d=2, (x00 + x01) + (x10 + x11)), so a cube's sum
    is the same binary tree over its leaves wherever it is taken.
    """
    for _ in range(times):
        for even, odd in reversed(_HALVES[:dimension]):
            arr = arr[even] + arr[odd]
    return arr


def expand(arr: np.ndarray, dimension: int, times: int = 1) -> np.ndarray:
    """Repeat each level-k entry over its level k+times descendants."""
    for axis in range(dimension):
        arr = arr.repeat(2**times, axis=axis)
    return arr


def tile_level(grid: GridConfig) -> int:
    """The coarsest level whose cubes (the tiles) hold at most BLOCK leaves."""
    n = grid.leaf_level
    return n - min(n, (BLOCK.bit_length() - 1) // grid.dimension)


def flat_blocks(size: int) -> list[slice]:
    """Consecutive slices of at most BLOCK cells covering range(size)."""
    return [slice(s, s + BLOCK) for s in range(0, size, BLOCK)]


def available_cpus() -> int:
    """The number of CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def blockwise(fn, items, grid: GridConfig) -> list:
    """[fn(item) for item in items] over the blocks of one pass over `grid`,
    in item order.  On a grid of at least 8 * BLOCK leaves the calls run on
    a thread pool made for this call, one worker per available CPU (NumPy
    releases the GIL in each block's ufuncs); below that a pool costs more
    than it saves.  Each call writes only its own block, so the bits do not
    depend on the path."""
    workers = available_cpus() if grid.n_leaves >= 8 * BLOCK else 1
    if workers < 2:
        return [fn(item) for item in items]
    # imported here, so that start-up, and the serial path that every small
    # grid takes, do not pay for threading and logging
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers) as pool:
        return list(pool.map(fn, items))


def pyramid(leaf_arr: np.ndarray, grid: GridConfig) -> list[np.ndarray]:
    """Cube sums of a leaf array on every level: levels[k] holds level k."""
    levels = [leaf_arr]
    for _ in range(grid.leaf_level):
        levels.append(coarsen(levels[-1], grid.dimension))
    levels.reverse()
    return levels
