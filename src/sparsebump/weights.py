"""Weights as nonnegative piecewise-constant densities on dyadic leaf cells.

A Weight is its pyramid of cube masses, built bottom-up so that mass(Q)
equals the sum of the children's masses exactly.  The leaf level, the
masses density * |leaf|, is the only leaf-sized array it keeps; the leaf
densities are read off it, exactly, since |leaf| is a power of two.  On
first use a weight also builds, and then keeps, the pyramid of local
A-infinity characteristics rho(Q) (`rho_levels`), the one source of every
rho value in the package.  Its leaf level is the constant 1, held as a
read-only view of one value, unless some leaf has zero mass and needs its
NaN.  `mass`, `average` and `rho` read one cube's
value from these pyramids; the dyadic maximal function M(sigma 1_Q) that rho
integrates is the test oracle `tests/oracles.py::dyadic_maximal`.

The rho pyramid is built tile by tile, one cube of at most `grid.BLOCK`
leaves at a time, so its temporaries stay cache-sized instead of being leaf
arrays of up to 32 MiB (d=1, N=22) that are mapped fresh on each use;
`coarsen` sums every cube by the same pairwise tree whatever the tiling, so
the values are bitwise those of one whole-grid sweep.  Generators for
closed-form densities use exact interval antiderivatives, never quadrature,
so discretization masses carry no integration error; they too fill the leaf
array block by block, and the weight adopts that array as its leaf level.
The L log L integral also runs block by block.  These passes run through
`grid.blockwise`, on every available CPU once the grid has 8 blocks or more.
"""

from __future__ import annotations

import json
import math
from dataclasses import InitVar, dataclass, field
from functools import cached_property, reduce

import numpy as np

from .grid import (DyadicCube, GridConfig, blockwise, coarsen, descendant_block, expand, flat_blocks,
                   pyramid, tile_level)

@dataclass(frozen=True, eq=False)
class Weight:
    """Nonnegative density on leaf cells, held as its pyramid of cube masses.

    `mass_levels[-1]`, the leaf masses density * |leaf|, is the one
    leaf-sized array a weight keeps; `leaf_density` is read off it.  The
    constructor scales a fresh copy of the given `density`; `from_leaf_mass`
    adopts leaf masses as they are.  Two weights are equal only when they
    are the same object, so a weight can key a dict.
    """

    grid: GridConfig
    density: InitVar[np.ndarray]
    kind: str = "custom"
    parameters: dict = field(default_factory=dict)
    mass_levels: tuple[np.ndarray, ...] = field(init=False, repr=False)
    _leaves_positive: bool = field(init=False, repr=False)

    def __post_init__(self, density) -> None:
        dens = np.asarray(density, dtype=float).reshape(self.grid.leaf_shape())
        # checked before scaling: -5e-324 * |leaf| would round to -0.0.  The
        # scaling is monotone, so the least leaf mass is least * |leaf|.
        least = _check_leaves(dens)
        self._adopt(dens * self.grid.leaf_volume, least * self.grid.leaf_volume)

    @classmethod
    def from_leaf_mass(cls, grid: GridConfig, leaf_mass, kind="custom", parameters=None,
                       copy: bool = True) -> "Weight":
        """The weight whose leaf masses are `leaf_mass`, kept as the leaf
        level of its pyramid; `copy=False` hands over an array that nothing
        else holds, which is then kept as it is."""
        mass = np.array(leaf_mass, dtype=float) if copy else np.asarray(leaf_mass, dtype=float)
        mass = mass.reshape(grid.leaf_shape())
        least = _check_leaves(mass)
        weight = object.__new__(cls)
        vars(weight).update(grid=grid, kind=kind, parameters=parameters or {})
        weight._adopt(mass, least)
        return weight

    def _adopt(self, leaf_mass: np.ndarray, least: float) -> None:
        """Build the read-only mass pyramid on `leaf_mass`, which it keeps;
        `least` is the least leaf mass."""
        levels = pyramid(leaf_mass, self.grid)
        for a in levels:
            a.setflags(write=False)
        object.__setattr__(self, "mass_levels", tuple(levels))
        object.__setattr__(self, "_leaves_positive", bool(least > 0))
        if not self.mass_levels[0].flat[0] > 0:
            raise ValueError("total mass must be positive")

    @property
    def leaf_density(self) -> np.ndarray:
        """The leaf densities, a fresh read-only array: leaf mass / |leaf|.
        |leaf| is a power of two, so this is the density the weight was
        built from, bit for bit, wherever its leaf mass is normal or zero."""
        dens = self.mass_levels[-1] / self.grid.leaf_volume
        dens.setflags(write=False)
        return dens

    @cached_property
    def rho_levels(self) -> tuple[np.ndarray, ...]:
        """rho(Q) = (1/sigma(Q)) * integral over Q of M(sigma 1_Q) for every
        grid cube, one read-only array per level; NaN where sigma(Q) = 0.

        One top-down sweep maintains, per leaf, the maximum average over the
        chain from the leaf up to its level-k ancestor; block sums of the
        excess over the ancestor's own average then give rho for all level-k
        cubes at once.  Suprema over levels 0..N suffice, since densities are
        leaf-constant.  rho >= 1 holds exactly in floating point: the running
        maximum already includes the ancestor's average, so the excess is a
        sum of exact nonnegative terms added to 1.  On a leaf the excess is
        0, so rho is exactly 1, and the leaf level is a zero-stride view of
        1.0 that holds no leaf array, unless some leaf mass is 0 (the leaf
        check found the least one); then it is NaN on those leaves.

        The sweep runs tile by tile (`_tile_excess`): a tile is a cube of
        level `grid.tile_level`, with at most `grid.BLOCK` leaves, so every
        leaf-size temporary is cache-sized (see the module docstring).  A
        tile writes the finished rho of its own cubes on the levels from the
        tile level to N - 1, and one partial excess sum per coarser level,
        which `coarsen` then finishes.  `coarsen` adds the same pairwise tree
        over a cube's leaves wherever it starts, so the bits do not depend on
        the tiling.  The tiles run through `blockwise`, so on a grid of 8 or
        more blocks they spread over the available CPUs.
        """
        grid = self.grid
        d, n, top = grid.dimension, grid.leaf_level, tile_level(grid)
        # every tile writes its blocks into one array per level; the levels
        # coarser than `top` first collect one partial sum per tile
        levels = [None] * top + [np.empty(grid.level_shape(k)) for k in range(top, n)]
        partial = [np.empty(grid.level_shape(top)) for _ in range(top)]

        def tile_pass(tile):
            # errstate is per thread, so each tile sets its own
            with np.errstate(invalid="ignore", divide="ignore"):
                for k, excess in enumerate(self._tile_excess(tile, top)):
                    if k < top:
                        partial[k][descendant_block(tile, top, top)] = excess
                    else:
                        block = descendant_block(tile, top, k)
                        levels[k][block] = self._normalise(excess, k, block)

        blockwise(tile_pass, list(np.ndindex(grid.level_shape(top))), grid)
        with np.errstate(invalid="ignore", divide="ignore"):
            for k in range(top):
                levels[k] = self._normalise(coarsen(partial[k], d, top - k), k, ...)
        # a leaf's excess is 0, and 1.0 + 0 * |leaf| / m is exactly 1
        if self._leaves_positive:
            levels.append(np.broadcast_to(1.0, grid.leaf_shape()))
        else:
            levels.append(np.where(self.mass_levels[n] > 0, 1.0, np.nan))
        for r in levels:
            r.setflags(write=False)
        return tuple(levels)

    def _normalise(self, excess: np.ndarray, k: int, index) -> np.ndarray:
        """rho = 1 + excess * |leaf| / m in place, from the excess sums of the
        level-k cubes at `index`; NaN where m = 0 (the caller silences the
        0/0 warning)."""
        m = self.mass_levels[k][index]
        # in place, in the order of 1.0 + excess * |leaf| / m
        excess *= self.grid.leaf_volume
        excess /= m
        excess += 1.0
        excess[m <= 0] = np.nan
        return excess

    def _tile_excess(self, tile: tuple[int, ...], top: int) -> list[np.ndarray]:
        """Per level k < N, the sums of (chain maximum - level-k average)
        over the leaves of the level-`top` cube `tile`: for k >= top the
        block of the tile's level-k cubes, for k < top a single partial sum
        of shape (1,)*d, taken where the ancestor average is one scalar."""
        d, n = self.grid.dimension, self.grid.leaf_level

        def averages(k, index=None):
            """Level-k averages at `index`, by default at the tile's level-k cubes."""
            if index is None:
                index = descendant_block(tile, top, k)
            # |Q| = 2^{-d k} exactly, so this scaling is exact
            return self.mass_levels[k][index] * 2.0 ** (d * k)

        chain_max = averages(n)
        out: list[np.ndarray] = [None] * n
        for k in range(n - 1, top - 1, -1):
            avg_k = expand(averages(k), d, n - k)
            np.maximum(chain_max, avg_k, out=chain_max)
            out[k] = coarsen(np.subtract(chain_max, avg_k, out=avg_k), d, n - k)
        for k in range(top - 1, -1, -1):
            avg_k = averages(k, tuple(j >> (top - k) for j in tile))
            np.maximum(chain_max, avg_k, out=chain_max)
            out[k] = coarsen(chain_max - avg_k, d, n - top)
        return out


def _check_leaves(values: np.ndarray) -> float:
    """The least of `values`; raises unless they are finite and >= 0."""
    least = values.min()
    # False on a NaN, whose min and max are NaN
    if not (least >= 0 and values.max() < np.inf):
        raise ValueError("leaf densities must be finite and >= 0")
    return least


def mass(sigma: Weight, cube: DyadicCube) -> float:
    """Exact total mass sigma(Q), served from the cube-mass cache."""
    return float(sigma.mass_levels[cube.level][cube.index])


def average(sigma: Weight, cube: DyadicCube) -> float:
    """The average <sigma>_Q = sigma(Q)/|Q|."""
    return mass(sigma, cube) * 2.0 ** (sigma.grid.dimension * cube.level)


def rho(sigma: Weight, cube: DyadicCube) -> float:
    """Local A-infinity characteristic: (1/sigma(Q)) * integral over Q of
    M(sigma 1_Q), read from `sigma.rho_levels`.  Always >= 1; equals 1 iff
    sigma is constant on Q.  Raises on sigma(Q) = 0, where it is undefined."""
    r = float(sigma.rho_levels[cube.level][cube.index])
    if math.isnan(r):
        raise ValueError(f"degenerate weight on cube {cube.text}")
    return r


def llogl_integral(sigma: Weight) -> float:
    """Discrete integral of density * log(e + density).

    This is the L log L diagnostic: it stays bounded under refinement for
    integrable log-regular densities and increases without bound for
    densities outside L log L near a singularity.

    The sum runs block by block over the leaf masses (`flat_blocks`, through
    `blockwise`), so no temporary is leaf-sized, and the block sums are added
    by the pairwise halving tree of `coarsen`.  NumPy sums a power-of-two
    array of 128 or more floats by that same tree of halves, so the value
    is bitwise that of np.sum over the whole grid.
    """
    leaf_volume = sigma.grid.leaf_volume
    leaf_mass = sigma.mass_levels[-1].reshape(-1)

    def block_sum(cells):
        dens = leaf_mass[cells] / leaf_volume
        return np.sum(dens * np.log(np.e + dens))

    sums = np.array(blockwise(block_sum, flat_blocks(leaf_mass.size), sigma.grid))
    return float(coarsen(sums, 1, len(sums).bit_length() - 1)[0] * leaf_volume)


# --- closed-form interval masses ------------------------------------------

def _interval_masses(grid: GridConfig, first: float, rest) -> np.ndarray:
    """Leaf masses of a closed-form density on a d=1 grid: `first` on cell 0
    and rest(i) on the cells i >= 1, with i as floats, block by block
    (`blockwise`) straight into one array."""
    out = np.empty(grid.n_leaves)
    out[0] = first

    def fill(cells):
        lo, hi = max(cells.start, 1), min(cells.stop, out.size)
        out[lo:hi] = rest(np.arange(lo, hi, dtype=float))

    blockwise(fill, flat_blocks(out.size), grid)
    return out


def _power_interval_mass(beta: float, grid: GridConfig) -> np.ndarray:
    """Mass of density x^beta over each leaf cell [i*h, (i+1)*h), h = 2^-N.

    Uses (b^s - a^s)/s with s = beta+1, evaluated cancellation-free via
    expm1/log1p for i >= 1.
    """
    s, h = beta + 1.0, grid.leaf_volume
    # b^s - a^s = a^s * expm1(s * log1p(1/i))
    return _interval_masses(grid, (h**s) / s,
                            lambda i: ((i * h) ** s) * np.expm1(s * np.log1p(1.0 / i)) / s)


def _ce_sigma_interval_mass(grid: GridConfig) -> np.ndarray:
    """Mass of 1/(x (1-ln x)^2) over each leaf cell [i*h, (i+1)*h), h = 2^-N.

    Antiderivative is 1/(1-ln x); the difference is computed as
    ln(b/a) / ((1-ln a)(1-ln b)) to avoid cancellation near x = 1.  1 - ln x
    is taken once per cell edge: cell i's right edge (i + 1.0) h is the
    same float as cell i+1's left edge, so this is the per-cell form, bit
    for bit, at one log per cell instead of two.
    """
    h = grid.leaf_volume

    def rest(i):
        edge = 1.0 - np.log(np.append(i, i[-1:] + 1.0) * h)
        return np.log1p(1.0 / i) / (edge[:-1] * edge[1:])

    return _interval_masses(grid, 1.0 / (1.0 - np.log(h)), rest)


def _cascade_leaf_mass(grid: GridConfig, seed: int, volatility: float) -> np.ndarray:
    """Multiplicative cascade: root mass 1, sibling shares from a bounded
    symmetric distribution, deterministic under seed.  One draw holds the
    shares of all levels, 2^d per parent cube in (level, row-major) order,
    each group normalised by its left-to-right sum; each level's masses are
    written through a transpose that interleaves parent and child axes."""
    d, n = grid.dimension, grid.leaf_level
    shape = (sum(2 ** (d * k) for k in range(n)), 2**d)
    rows = 1.0 + volatility * (2.0 * np.random.default_rng(seed).random(shape) - 1.0)
    rows /= reduce(np.add, rows.T)[:, None]  # ((r0 + r1) + r2) + ...
    interleave = [*range(0, 2 * d, 2), *range(1, 2 * d, 2)]
    masses = np.ones(1)
    for k in range(n):
        m, start = 2**k, (2 ** (d * k) - 1) // (2**d - 1)  # rows above level k
        child = np.empty((2 * m,) * d)
        np.multiply(masses.reshape((m,) * d + (1,) * d), rows[start:start + m**d].reshape((m,) * d + (2,) * d),
                    out=child.reshape((m, 2) * d).transpose(interleave))
        masses = child
    return masses


def generate_weight(grid: GridConfig, kind: str, **params) -> Weight:
    """Build a Weight from a generator descriptor.

    Kinds: constant(value>0); power(beta>-1), density x^beta, d=1 only;
    counterexample_sigma, density 1/(x(1-ln x)^2), d=1 only;
    counterexample_w, density x^2, d=1 only;
    random_cascade(seed, volatility in (0,1)).
    """
    if kind == "constant":
        value = float(params.pop("value", 1.0))
        if params or value <= 0 or not np.isfinite(value):
            raise ValueError("bad generator parameter: constant needs value > 0")
        return Weight(grid, np.full(grid.leaf_shape(), value), kind, {"value": value})

    if kind == "random_cascade":
        seed = int(params.pop("seed", 0))
        volatility = float(params.pop("volatility", 0.5))
        if params or not 0 < volatility < 1:
            raise ValueError("bad generator parameter: volatility must be in (0,1)")
        leaf_mass = _cascade_leaf_mass(grid, seed, volatility)
        return Weight.from_leaf_mass(grid, leaf_mass, kind,
                                     {"seed": seed, "volatility": volatility}, copy=False)

    if kind == "power":
        if "beta" not in params:
            raise ValueError("bad generator parameter: power needs beta")
        beta = float(params.pop("beta"))
        if params or beta <= -1 or not np.isfinite(beta):
            raise ValueError("bad generator parameter: power needs beta > -1")
        parameters = {"beta": beta}
    elif kind in ("counterexample_w", "counterexample_sigma"):
        if params:
            raise ValueError(f"bad generator parameter: {kind} takes none")
        beta, parameters = 2.0, {}
    else:
        raise ValueError(f"bad generator parameter: unknown kind {kind!r}")
    # the interval generators: closed forms on [0,1)
    if grid.dimension != 1:
        raise ValueError(f"bad generator parameter: {kind} is one-dimensional")
    leaf_mass = _ce_sigma_interval_mass(grid) if kind == "counterexample_sigma" else _power_interval_mass(beta, grid)
    return Weight.from_leaf_mass(grid, leaf_mass, kind, parameters, copy=False)


# --- serialization ----------------------------------------------------------

def weight_to_json(sigma: Weight) -> str:
    """JSON record with densities as full-precision decimal literals."""
    record = {
        "dimension": sigma.grid.dimension,
        "leaf_level": sigma.grid.leaf_level,
        "kind": sigma.kind,
        "parameters": sigma.parameters,
        "leaf_density": [repr(float(x)) for x in sigma.leaf_density.ravel()],
    }
    return json.dumps(record, sort_keys=True)


def check_json_field(what: str, key: str, value, want) -> None:
    """Raise a ValueError naming the field unless `value` is of the JSON type
    `want`: int, float (an int too), str, dict (an object) or a tuple of
    these, or [t] for a list (or tuple) of values of type t.  No bool is a
    number."""
    items = isinstance(want, list)
    if items and not isinstance(value, (list, tuple)):
        raise ValueError(f"{what} field {key} must be a list, got {value!r}")
    types = want[0] if items else want
    types = types if isinstance(types, tuple) else (types,)
    for v in value if items else (value,):
        if isinstance(v, bool) or not isinstance(v, types + ((int,) if float in types else ())):
            names = " or ".join(t.__name__ for t in types)
            raise ValueError(f"{what} field {key} must {'hold' if items else 'be'} {names}, got {v!r}")


def json_record(text: str, what: str, fields: dict) -> dict:
    """The JSON object in `text`; a ValueError names what is wrong unless it
    is an object holding every key of `fields`, of the JSON type its value
    names (as in `check_json_field`)."""
    record = json.loads(text)
    if not isinstance(record, dict):
        raise ValueError(f"{what} JSON must be an object, got {type(record).__name__}")
    missing = [k for k in fields if k not in record]
    if missing:
        raise ValueError(f"{what} JSON lacks {', '.join(missing)}")
    for key, want in fields.items():
        check_json_field(f"{what} JSON", key, record[key], want)
    return record


def weight_from_json(text: str) -> Weight:
    record = json_record(text, "weight", {"dimension": int, "leaf_level": int,
                                          "leaf_density": [(str, float)]})
    for key, want in (("kind", str), ("parameters", dict)):  # optional fields
        if key in record:
            check_json_field("weight JSON", key, record[key], want)
    grid = GridConfig(record["dimension"], record["leaf_level"])
    if len(record["leaf_density"]) != grid.n_leaves:
        raise ValueError(f"weight JSON field leaf_density must hold {grid.n_leaves} values, "
                         f"got {len(record['leaf_density'])}")
    dens = np.array([float(x) for x in record["leaf_density"]])
    return Weight(grid, dens.reshape(grid.leaf_shape()),
                  record.get("kind", "custom"), record.get("parameters", {}))


def fix_ce(leaf_level: int) -> tuple[Weight, Weight]:
    """Counterexample pair at a given leaf level: sigma = 1/(x(1-ln x)^2), w = x^2."""
    grid = GridConfig(1, leaf_level)
    return (generate_weight(grid, "counterexample_sigma"),
            generate_weight(grid, "counterexample_w"))
