"""Weights as nonnegative piecewise-constant densities on dyadic leaf cells.

A Weight stores the leaf densities together with a full pyramid of cube
masses, built bottom-up so that mass(Q) equals the sum of the children's
masses exactly.  On first use it also builds, and then keeps, the pyramid of
local A-infinity characteristics rho(Q) (`rho_levels`), the one source of
every rho value in the package.  Generators for closed-form densities use
exact interval antiderivatives, never quadrature, so discretization masses
carry no integration error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .grid import DyadicCube, GridConfig, coarsen, expand, pyramid

GENERATOR_KINDS = (
    "constant",
    "power",
    "counterexample_sigma",
    "counterexample_w",
    "random_cascade",
)


@dataclass(frozen=True)
class Weight:
    """Nonnegative density on leaf cells with cached cube masses."""

    grid: GridConfig
    leaf_density: np.ndarray
    kind: str = "custom"
    parameters: dict = field(default_factory=dict)
    mass_levels: tuple[np.ndarray, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dens = np.asarray(self.leaf_density, dtype=float)
        if dens.shape != self.grid.leaf_shape():
            dens = dens.reshape(self.grid.leaf_shape())
        if np.any(dens < 0) or not np.all(np.isfinite(dens)):
            raise ValueError("leaf densities must be finite and >= 0")
        dens = dens.copy()
        dens.setflags(write=False)
        object.__setattr__(self, "leaf_density", dens)
        levels = pyramid(dens * self.grid.leaf_volume, self.grid)
        for a in levels:
            a.setflags(write=False)
        object.__setattr__(self, "mass_levels", tuple(levels))
        if not self.mass_levels[0].flat[0] > 0:
            raise ValueError("total mass must be positive")

    @classmethod
    def from_leaf_mass(cls, grid: GridConfig, leaf_mass, kind="custom", parameters=None) -> "Weight":
        dens = np.asarray(leaf_mass, dtype=float) / grid.leaf_volume
        return cls(grid, dens, kind, parameters or {})

    def level_averages(self, level: int) -> np.ndarray:
        # |Q| = 2^{-d k} exactly, so this scaling is exact
        return self.mass_levels[level] * 2.0 ** (self.grid.dimension * level)

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
        sum of exact nonnegative terms added to 1.
        """
        grid = self.grid
        n = grid.leaf_level
        chain_max = self.level_averages(n).copy()
        excess_sums: list[np.ndarray] = [None] * (n + 1)
        excess_sums[n] = np.zeros(grid.level_shape(n))
        for k in range(n - 1, -1, -1):
            avg_k = expand(self.level_averages(k), grid.dimension, n - k)
            np.maximum(chain_max, avg_k, out=chain_max)
            excess_sums[k] = coarsen(np.subtract(chain_max, avg_k, out=avg_k), grid.dimension, n - k)
        with np.errstate(invalid="ignore", divide="ignore"):
            for r, m in zip(excess_sums, self.mass_levels):
                # in place, in the order of 1.0 + excess * |leaf| / m
                r *= grid.leaf_volume
                r /= m
                r += 1.0
                r[m <= 0] = np.nan
                r.setflags(write=False)
        return tuple(excess_sums)

    def scaled(self, c: float) -> "Weight":
        if c <= 0:
            raise ValueError("scale factor must be positive")
        return Weight(self.grid, self.leaf_density * c, self.kind,
                      dict(self.parameters, scale=c))


def mass(sigma: Weight, cube: DyadicCube) -> float:
    """Exact total mass sigma(Q), served from the cube-mass cache."""
    return float(sigma.mass_levels[cube.level][cube.index if sigma.grid.dimension == 2 else cube.index[0]])


def average(sigma: Weight, cube: DyadicCube) -> float:
    """The average <sigma>_Q = sigma(Q)/|Q|."""
    return mass(sigma, cube) * 2.0 ** (sigma.grid.dimension * cube.level)


def llogl_integral(sigma: Weight) -> float:
    """Discrete integral of density * log(e + density).

    This is the L log L diagnostic: it stays bounded under refinement for
    integrable log-regular densities and increases without bound for
    densities outside L log L near a singularity.
    """
    dens = sigma.leaf_density
    return float(np.sum(dens * np.log(np.e + dens)) * sigma.grid.leaf_volume)


# --- closed-form interval masses ------------------------------------------

def _power_interval_mass(beta: float, i: np.ndarray, scale: float) -> np.ndarray:
    """Mass of density x^beta over [i*h, (i+1)*h) with h = 2^-N = scale.

    Uses (b^s - a^s)/s with s = beta+1, evaluated cancellation-free via
    expm1/log1p for i >= 1.
    """
    s = beta + 1.0
    a = i * scale
    out = np.empty_like(a)
    first = i == 0
    out[first] = (scale**s) / s
    ip = i[~first].astype(float)
    ap = ip * scale
    # b^s - a^s = a^s * expm1(s * log1p(1/i))
    out[~first] = (ap**s) * np.expm1(s * np.log1p(1.0 / ip)) / s
    return out


def _ce_sigma_interval_mass(i: np.ndarray, scale: float) -> np.ndarray:
    """Mass of 1/(x (1-ln x)^2) over [i*h, (i+1)*h), h = scale.

    Antiderivative is 1/(1-ln x); the difference is computed as
    ln(b/a) / ((1-ln a)(1-ln b)) to avoid cancellation near x = 1.
    """
    out = np.empty(i.shape, dtype=float)
    first = i == 0
    out[first] = 1.0 / (1.0 - np.log(scale))
    ip = i[~first].astype(float)
    la = np.log(ip * scale)
    lb = np.log((ip + 1.0) * scale)
    out[~first] = np.log1p(1.0 / ip) / ((1.0 - la) * (1.0 - lb))
    return out


def ce_sigma_mass(a: float, b: float) -> float:
    """Closed-form mass of the counterexample density over (a, b] in (0, 1]."""
    if not 0 <= a < b <= 1:
        raise ValueError("need 0 <= a < b <= 1")
    fb = 1.0 / (1.0 - np.log(b))
    fa = 0.0 if a == 0 else 1.0 / (1.0 - np.log(a))
    return float(fb - fa)


def _cascade_leaf_mass(grid: GridConfig, seed: int, volatility: float) -> np.ndarray:
    """Multiplicative cascade: root mass 1, sibling shares from a bounded
    symmetric distribution, deterministic under seed."""
    rng = np.random.default_rng(seed)
    d = grid.dimension
    masses = np.ones((1,) * d)
    for k in range(grid.leaf_level):
        n = 2**k
        if d == 1:
            raw = 1.0 + volatility * (2.0 * rng.random((n, 2)) - 1.0)
            shares = raw / raw.sum(axis=1, keepdims=True)
            masses = (masses[:, None] * shares).reshape(2 * n)
        else:
            raw = 1.0 + volatility * (2.0 * rng.random((n, n, 2, 2)) - 1.0)
            shares = raw / raw.sum(axis=(2, 3), keepdims=True)
            expanded = masses[:, :, None, None] * shares
            masses = expanded.transpose(0, 2, 1, 3).reshape(2 * n, 2 * n)
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
        dens = np.full(grid.leaf_shape(), value)
        return Weight(grid, dens, kind, {"value": value})

    if kind == "power":
        if "beta" not in params:
            raise ValueError("bad generator parameter: power needs beta")
        beta = float(params.pop("beta"))
        if params or beta <= -1 or not np.isfinite(beta):
            raise ValueError("bad generator parameter: power needs beta > -1")
        if grid.dimension != 1:
            raise ValueError("bad generator parameter: power is one-dimensional")
        i = np.arange(grid.n_leaves)
        leaf_mass = _power_interval_mass(beta, i, grid.leaf_volume)
        return Weight.from_leaf_mass(grid, leaf_mass, kind, {"beta": beta})

    if kind == "counterexample_sigma":
        if params:
            raise ValueError("bad generator parameter: counterexample_sigma takes none")
        if grid.dimension != 1:
            raise ValueError("bad generator parameter: counterexample_sigma is one-dimensional")
        i = np.arange(grid.n_leaves)
        leaf_mass = _ce_sigma_interval_mass(i, grid.leaf_volume)
        return Weight.from_leaf_mass(grid, leaf_mass, kind, {})

    if kind == "counterexample_w":
        if params:
            raise ValueError("bad generator parameter: counterexample_w takes none")
        w = generate_weight(grid, "power", beta=2.0)
        return Weight(w.grid, w.leaf_density, "counterexample_w", {})

    if kind == "random_cascade":
        seed = int(params.pop("seed", 0))
        volatility = float(params.pop("volatility", 0.5))
        if params or not 0 < volatility < 1:
            raise ValueError("bad generator parameter: volatility must be in (0,1)")
        leaf_mass = _cascade_leaf_mass(grid, seed, volatility)
        return Weight.from_leaf_mass(grid, leaf_mass, kind,
                                     {"seed": seed, "volatility": volatility})

    raise ValueError(f"bad generator parameter: unknown kind {kind!r}")


@dataclass(frozen=True)
class LeafFunction:
    """A real-valued function constant on leaf cells (a test function f)."""

    grid: GridConfig
    values: np.ndarray

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != self.grid.leaf_shape():
            vals = vals.reshape(self.grid.leaf_shape())
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: GridConfig, value: float = 1.0) -> "LeafFunction":
        return cls(grid, np.full(grid.leaf_shape(), float(value)))


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


def weight_from_json(text: str) -> Weight:
    record = json.loads(text)
    grid = GridConfig(record["dimension"], record["leaf_level"])
    dens = np.array([float(x) for x in record["leaf_density"]])
    return Weight(grid, dens.reshape(grid.leaf_shape()),
                  record.get("kind", "custom"), record.get("parameters", {}))


FIX_CONST_GRID = GridConfig(1, 4)


def fix_const() -> tuple[Weight, Weight]:
    """(d=1, N=4, sigma = w = constant 1)."""
    s = generate_weight(FIX_CONST_GRID, "constant", value=1.0)
    return s, s


def fix_half() -> Weight:
    """(d=1, N=2, densities (2,2,0,0))."""
    return Weight(GridConfig(1, 2), np.array([2.0, 2.0, 0.0, 0.0]))


def fix_ce(leaf_level: int) -> tuple[Weight, Weight]:
    """Counterexample pair at a given leaf level: sigma = 1/(x(1-ln x)^2), w = x^2."""
    grid = GridConfig(1, leaf_level)
    return (generate_weight(grid, "counterexample_sigma"),
            generate_weight(grid, "counterexample_w"))


def fix_chain_cubes(grid: GridConfig, depth: int = 4) -> list[DyadicCube]:
    """The chain family {[0, 2^-k) : k = 0..depth} (d=1)."""
    if grid.dimension != 1:
        raise ValueError("chain fixture is one-dimensional")
    depth = min(depth, grid.leaf_level)
    return [DyadicCube(k, (0,)) for k in range(depth + 1)]
