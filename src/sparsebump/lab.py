"""Config-driven experiment runner: randomized verification suites, the
counterexample study, level sweeps, and CSV/JSON report emission.  An
`ExperimentConfig` holds what one suite reads; a sweep takes its (leaf level,
lambda) axes as arguments.

Reports are a pure function of (config, master seed, package version): rows
are assembled in instance order, floats are written with 17 significant
digits, and no wall-clock data enters any output file.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import __version__
from .bumps import BumpReport, EntropyFunction, ExponentConfig, PairScan, check_alpha, direct_bumps, entropy_bumps
from .grid import MAX_LEAF_LEVEL, DyadicCube, GridConfig, leaf_slice, root_cube
from .operators import Instance, apply_sparse, norm_lower_bound, primal_indicator_ratios, testing_constants
from .prooftrace import SLACK, direct_trace, dual_direct_trace, dual_entropy_trace, entropy_trace
from .sparse import SparseFamily, carleson_check, random_sparse, stopping_family
from .weights import Weight, check_json_field, fix_ce, generate_weight, llogl_integral, mass

CSV_COLUMNS = (
    "instance_id", "seed", "N", "lambda", "p", "q", "alpha", "delta",
    "A", "E", "E_star_sym", "D", "D_star", "T", "T_star", "norm_lb",
    "trace_entropy_pass", "trace_direct_pass",
    "certified_CE_ratio", "certified_CD_ratio",
)

COUNTEREXAMPLE_COLUMNS = ("N", "llogl", "A", "E", "D")

SWEEP_COLUMNS = ("N", "lambda", "instances", "max_A", "max_E", "max_D",
                 "max_T", "max_certified_CE_ratio", "max_certified_CD_ratio",
                 "violations")

# Stabilization tolerance for the direct bump in the counterexample study,
# pinned from the computed sequence with a 2x margin (see tests for the
# frozen sequence itself).
D_STABILITY_TOL = 0.05


@dataclass
class ExperimentConfig:
    """Parameters for one experiment run; validated before any computation."""

    dimension: int = 1
    leaf_level: int = 8
    lam: float = 0.5
    p: float = 2.0
    q: float = 3.0
    alpha: float = 0.0
    delta: float = 1.0
    instances: int = 100
    master_seed: int = 42
    budget: int = 25
    target_size: int = 30
    volatility: float = 0.6
    family_kind: str = "mixed"  # random | stopping | mixed

    def __post_init__(self) -> None:
        if self.family_kind not in ("random", "stopping", "mixed"):
            raise ValueError(f"unknown family kind {self.family_kind!r}")
        if self.instances < 0:
            raise ValueError("instances must be >= 0")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if self.budget < 0:
            raise ValueError(f"budget must be >= 0, got {self.budget}")
        if self.target_size < 1:
            raise ValueError(f"target_size must be >= 1, got {self.target_size}")
        if not 0 < self.lam < 1:
            raise ValueError("lambda must be in (0,1)")
        if not 0 < self.volatility < 1:
            raise ValueError(f"volatility must be in (0,1), got {self.volatility}")
        # these raise on invalid ranges
        GridConfig(self.dimension, self.leaf_level)
        self.exponents()
        check_alpha(self.alpha, self.dimension)
        EntropyFunction("entropy", self.delta)

    def grid(self) -> GridConfig:
        return GridConfig(self.dimension, self.leaf_level)

    def exponents(self) -> ExponentConfig:
        return ExponentConfig(self.p, self.q, self.alpha)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        """The config that a JSON object holds; raises ValueError on an
        unknown field or on a value whose JSON type is not that of the
        field's default (as in `check_json_field`)."""
        fields = {f.name: type(f.default) for f in dataclasses.fields(cls)}
        if unknown := set(data) - set(fields):
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        for name, value in data.items():
            check_json_field("config", name, value, fields[name])
        return cls(**data)


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


@dataclass
class SuiteReport:
    """Per-instance rows plus exact violation tallies and a run stamp."""

    columns: tuple[str, ...]
    rows: list[dict] = field(default_factory=list)
    aggregates: dict = field(default_factory=dict)
    violations: int = 0
    environment: dict = field(default_factory=dict)

    def csv_text(self) -> str:
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(",".join(_fmt(row[c]) for c in self.columns))
        return "\n".join(lines) + "\n"

    def json_text(self) -> str:
        return json.dumps(
            {
                "environment": self.environment,
                "aggregates": self.aggregates,
                "violations": self.violations,
                "rows": self.rows,
            },
            sort_keys=True,
            default=_fmt,
        )

    def write(self, out_dir: str | Path, stem: str) -> tuple[Path, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        csv_path = out / f"{stem}.csv"
        json_path = out / f"{stem}.json"
        csv_path.write_text(self.csv_text(), newline="")
        json_path.write_text(self.json_text(), newline="")
        return csv_path, json_path


def instance_seeds(master_seed: int, instance: int, n: int = 4) -> list[int]:
    """Per-instance child seeds from a splittable sequence; deterministic in
    (master_seed, instance) and independent across instances."""
    ss = np.random.SeedSequence((master_seed, instance))
    return [int(s) for s in ss.generate_state(n)]


def build_instance(cfg: ExperimentConfig, instance: int) -> tuple[Weight, Weight, SparseFamily, int]:
    """Weights and family for one suite instance."""
    grid = cfg.grid()
    s_sigma, s_w, s_fam, s_lb = instance_seeds(cfg.master_seed, instance)
    sigma = generate_weight(grid, "random_cascade", seed=s_sigma, volatility=cfg.volatility)
    w = generate_weight(grid, "random_cascade", seed=s_w, volatility=cfg.volatility)
    use_stopping = cfg.family_kind == "stopping" or (
        cfg.family_kind == "mixed" and instance % 2 == 1
    )
    if use_stopping:
        family = stopping_family(sigma, 1.0 / cfg.lam, root_cube(grid))
    else:
        family = random_sparse(grid, cfg.lam, s_fam, cfg.target_size)
    return sigma, w, family, s_lb


def _bump_reports(sigma: Weight, w: Weight, exps: ExponentConfig, eps_e: EntropyFunction,
                  eps_d: EntropyFunction, names: tuple[str, ...] | None = None
                  ) -> tuple[BumpReport, BumpReport]:
    """The entropy and direct bump reports of a pair from one scan of its
    pyramid, which runs inside the first call; `names` are the constants
    the reports hold (all six by default)."""
    scan = PairScan(sigma, w, exps, eps_e, eps_d, names)
    return (entropy_bumps(sigma, w, exps, eps_e, scan=scan),
            direct_bumps(sigma, w, exps, eps_d, scan=scan))


def _leaf_indicator_ratio(family: SparseFamily, sigma: Weight, w: Weight,
                         exps: ExponentConfig, cube: DyadicCube) -> float:
    """||T(sigma 1_R)||_{L^q(w)} / sigma(R)^{1/p} at R = cube through the leaf
    path: one `apply_sparse` on the leaf indicator of R and a norm over the
    leaves, none of the per-member arrays the indicator ratios come from."""
    grid = family.grid
    indicator = np.zeros(grid.leaf_shape())
    indicator[leaf_slice(cube, grid)] = 1.0
    u = apply_sparse(family, sigma, indicator, exps.alpha)
    norm = float(np.sum(u ** exps.q * w.mass_levels[grid.leaf_level])) ** (1.0 / exps.q)
    return norm / mass(sigma, cube) ** (1.0 / exps.p)


def _verify_instance(cfg: ExperimentConfig, i: int, eps_e: EntropyFunction,
                     eps_d: EntropyFunction) -> tuple[dict, bool]:
    """Instance i of the suite: its report row and whether every check held.
    Every stage takes one `Instance`, released on return, before the next
    instance is built."""
    exps = cfg.exponents()
    tolerance = 1.0 + SLACK
    sigma, w, family, s_lb = build_instance(cfg, i)
    inst = Instance(family, sigma, w, exps)
    ebump, dbump = _bump_reports(sigma, w, exps, eps_e, eps_d,
                                 names=("A", "E", "E_star_symmetric", "D", "D_star"))
    trep = testing_constants(inst)
    nlb = norm_lower_bound(inst, cfg.budget, seed=s_lb)
    etrace = entropy_trace(inst, eps_e, family.root, bump=ebump)
    dtrace = direct_trace(inst, eps_d, family.root, bump=dbump)
    ratios = primal_indicator_ratios(inst)
    de = dual_entropy_trace(inst, eps_e, family.root, bump=ebump)
    dd = dual_direct_trace(inst, eps_d, family.root, bump=dbump)

    # a chain failing at any R fails the instance, even when it passes at the
    # root; its certified constant is (2 Sigma_eps/(1-lambda))^{1/q} (1/p' if dual)
    ok = all(t.passed and not t.failed for t in (etrace, dtrace, de, dd))
    ce_ratio = trep.T / (etrace.certified_constant * ebump.constants["E"])
    cd_ratio = trep.T / (dtrace.certified_constant * dbump.constants["D"])
    ok = ok and ce_ratio <= tolerance and cd_ratio <= tolerance

    ok = ok and bool(np.all(ratios >= trep.per_R / tolerance))
    tested = np.flatnonzero(inst.sigma_mass > 0)
    if len(tested):
        # the member-form ratio at one seeded R against the leaf path
        r = tested[np.random.default_rng(instance_seeds(cfg.master_seed, i, 5)[4])
                   .integers(len(tested))]
        leaf = _leaf_indicator_ratio(family, sigma, w, exps, family.members[r])
        ok = ok and abs(ratios[r] - leaf) <= SLACK * leaf

    ok = ok and trep.T_star <= de.certified_constant * ebump.constants["E_star_symmetric"] * tolerance
    ok = ok and trep.T_star <= dd.certified_constant * dbump.constants["D_star"] * tolerance

    row = {
        "instance_id": i,
        "seed": cfg.master_seed,
        "N": cfg.leaf_level,
        "lambda": cfg.lam,
        "p": cfg.p,
        "q": cfg.q,
        "alpha": cfg.alpha,
        "delta": cfg.delta,
        "A": ebump.constants["A"],
        "E": ebump.constants["E"],
        "E_star_sym": ebump.constants["E_star_symmetric"],
        "D": dbump.constants["D"],
        "D_star": dbump.constants["D_star"],
        "T": trep.T,
        "T_star": trep.T_star,
        "norm_lb": nlb,
        "trace_entropy_pass": etrace.passed,
        "trace_direct_pass": dtrace.passed,
        "certified_CE_ratio": ce_ratio,
        "certified_CD_ratio": cd_ratio,
    }
    return row, ok


def _environment(cfg: ExperimentConfig) -> dict:
    return {"seed": cfg.master_seed, "version": __version__, "config": dataclasses.asdict(cfg)}


def run_verify_bounds(cfg: ExperimentConfig) -> SuiteReport:
    """Randomized end-to-end certification suite.

    Per instance: compute all constants, run both proof chains and their
    duals, each checked at every member R of the family and reported at the
    root, and check the certified inequalities.  An instance with any failed
    check, a chain failing at any R included, is tallied as one violation;
    the report is deterministic in the master seed.
    """
    eps_e = EntropyFunction("entropy", cfg.delta)
    eps_d = EntropyFunction("direct", cfg.delta)
    report = SuiteReport(columns=CSV_COLUMNS, environment=_environment(cfg))
    for i in range(cfg.instances):
        row, ok = _verify_instance(cfg, i, eps_e, eps_d)
        report.rows.append(row)
        report.violations += not ok
    report.aggregates = {
        "max_certified_CE_ratio": max((r["certified_CE_ratio"] for r in report.rows), default=0.0),
        "max_certified_CD_ratio": max((r["certified_CD_ratio"] for r in report.rows), default=0.0),
        "instances": cfg.instances,
    }
    return report


def _counterexample_row(n: int, exps: ExponentConfig, eps_e: EntropyFunction,
                        eps_d: EntropyFunction) -> dict:
    """The counterexample study's row of level n.  The level's pair dies on
    return, before the next level's is built."""
    sigma, w = fix_ce(n)
    # before the bump pyramids exist, so its leaf-size temporaries do not
    # add to the level's peak memory
    llogl = llogl_integral(sigma)
    ebump, dbump = _bump_reports(sigma, w, exps, eps_e, eps_d, names=("A", "E", "D"))
    return {"N": n, "llogl": llogl, "A": ebump.constants["A"],
            "E": ebump.constants["E"], "D": dbump.constants["D"]}


def run_counterexample(levels, delta: float, p: float = 2.0, q: float = 2.0,
                       alpha: float = 0.0) -> SuiteReport:
    """Level study of the divergent-entropy weight pair sigma = 1/(x(1-ln x)^2),
    w = x^2 on [0,1), by default in the diagonal case p = q = 2.

    Emits per level the L log L diagnostic and the constants A, E, D, and
    records the trends: the L log L integral and the entropy bump must both
    increase strictly with refinement, while the direct bump stabilizes (its
    per-cube values decay like 2^{-k/2} polylog near the singularity, so the
    supremum freezes once the grid resolves the argmax scale).

    The bump scan covers only A, E and D, so sigma's rho pyramid is the only
    one built, and one level's pair is alive at a time: a level's weights
    are released before the next level's are built.
    """
    levels = tuple(int(n) for n in levels)
    if list(levels) != sorted(set(levels)) or not levels:
        raise ValueError("levels must be strictly increasing and nonempty")
    # the pair's grid is d=1; every level is checked before the first pair is built
    if bad := [n for n in levels if not 1 <= n <= MAX_LEAF_LEVEL[1]]:
        raise ValueError(f"levels must be in [1, {MAX_LEAF_LEVEL[1]}] for d=1, got {bad}")
    eps_e = EntropyFunction("entropy", delta)
    eps_d = EntropyFunction("direct", delta)
    report = SuiteReport(columns=COUNTEREXAMPLE_COLUMNS)
    report.environment = {"seed": 0, "version": __version__,
                          "delta": delta, "p": p, "q": q, "alpha": alpha}
    exps = ExponentConfig(p, q, alpha)
    check_alpha(alpha, 1)
    report.rows = [_counterexample_row(n, exps, eps_e, eps_d) for n in levels]
    llogl_seq = [r["llogl"] for r in report.rows]
    e_seq = [r["E"] for r in report.rows]
    d_seq = [r["D"] for r in report.rows]
    trends = {
        "llogl_increasing": all(b > a for a, b in zip(llogl_seq, llogl_seq[1:])),
        "E_increasing": all(b > a for a, b in zip(e_seq, e_seq[1:])),
        "D_final_ratio": d_seq[-1] / d_seq[-2] if len(d_seq) >= 2 else 1.0,
    }
    trends["D_stable"] = abs(trends["D_final_ratio"] - 1.0) <= D_STABILITY_TOL
    report.aggregates = trends
    if not (trends["llogl_increasing"] and trends["E_increasing"] and trends["D_stable"]):
        report.violations += 1
    return report


def run_sweep(cfg: ExperimentConfig, levels=(8, 12, 16, 20), lambdas=(0.5, 0.25)) -> SuiteReport:
    """Aggregate constants over a (leaf level, lambda) grid of small suites:
    the suite of `cfg` at each leaf level of `levels` and lambda of `lambdas`."""
    levels, lambdas = tuple(levels), tuple(lambdas)
    for name, axis in (("levels", levels), ("lambdas", lambdas)):
        if not axis:
            raise ValueError(f"{name} must be nonempty")
    if bad := [lam for lam in lambdas if not 0 < lam < 1]:
        raise ValueError(f"lambdas must be in (0,1), got {bad[0]}")
    # every (level, lambda) config is made, and so checked, before the first
    # instance is built; the levels are named here, not as a leaf_level
    n_max = MAX_LEAF_LEVEL[cfg.dimension]
    if bad := [n for n in levels if not 1 <= n <= n_max]:
        raise ValueError(f"levels must be in [1, {n_max}] for d={cfg.dimension}, got {bad}")
    subs = [dataclasses.replace(cfg, leaf_level=n, lam=lam) for n in levels for lam in lambdas]
    report = SuiteReport(columns=SWEEP_COLUMNS, environment=_environment(cfg))
    report.environment["config"].update(levels=levels, lambdas=lambdas)
    for sub in subs:
        sub_report = run_verify_bounds(sub)
        rows = sub_report.rows
        report.rows.append({
            "N": sub.leaf_level,
            "lambda": sub.lam,
            "instances": cfg.instances,
            "max_A": max((r["A"] for r in rows), default=0.0),
            "max_E": max((r["E"] for r in rows), default=0.0),
            "max_D": max((r["D"] for r in rows), default=0.0),
            "max_T": max((r["T"] for r in rows), default=0.0),
            "max_certified_CE_ratio": sub_report.aggregates["max_certified_CE_ratio"],
            "max_certified_CD_ratio": sub_report.aggregates["max_certified_CD_ratio"],
            "violations": sub_report.violations,
        })
        report.violations += sub_report.violations
    return report


def run_carleson_suite(instances: int, grids, lambdas, master_seed: int = 7) -> dict:
    """The Carleson certificate at every member of the mixed suite's instances,
    instance i on grids[i % len(grids)] at lambdas[i % len(lambdas)]: the worst
    lhs/rhs ratio, the count of ratios above 1 and the count of members checked."""
    grids, lambdas, ratios = tuple(grids), tuple(lambdas), [np.zeros(0)]
    if empty := [name for name, axis in (("grids", grids), ("lambdas", lambdas)) if not axis]:
        raise ValueError(f"{empty[0]} must be nonempty")
    for i in range(instances):
        grid = grids[i % len(grids)]
        cfg = ExperimentConfig(dimension=grid.dimension, leaf_level=grid.leaf_level,
                               lam=lambdas[i % len(lambdas)], master_seed=master_seed)
        # a random family at even i, the stopping family of sigma at odd i
        sigma, _, family, _ = build_instance(cfg, i)
        ratios.append(carleson_check(family, sigma))
    ratios = np.concatenate(ratios)
    return {"worst_ratio": float(ratios.max(initial=0.0)), "violations": int(np.count_nonzero(ratios > 1.0)),
            "checked": len(ratios)}
