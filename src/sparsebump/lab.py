"""Config-driven experiment runner: randomized verification suites, the
counterexample study, level sweeps, and CSV/JSON report emission.

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
from .bumps import BumpReport, EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps, joint_levels
from .grid import DyadicCube, GridConfig, leaf_slice, root_cube
from .operators import Instance, apply_sparse, norm_lower_bound, primal_indicator_ratios, testing_constants
from .prooftrace import SLACK, direct_trace, dual_direct_trace, dual_entropy_trace, entropy_trace
from .sparse import SparseFamily, carleson_check, random_sparse, stopping_family
from .weights import LeafFunction, Weight, fix_ce, generate_weight, llogl_integral, mass

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

    kind: str = "verify-bounds"
    dimension: int = 1
    leaf_level: int = 8
    lam: float = 0.5
    p: float = 2.0
    q: float = 3.0
    alpha: float = 0.0
    mode: str = "strict"
    delta: float = 1.0
    instances: int = 100
    master_seed: int = 42
    budget: int = 25
    target_size: int = 30
    volatility: float = 0.6
    family_kind: str = "mixed"  # random | stopping | mixed
    levels: tuple[int, ...] = (8, 12, 16, 20)
    lambdas: tuple[float, ...] = (0.5, 0.25)
    out_dir: str | None = None

    KINDS = ("verify-bounds", "counterexample", "sweep")

    def __post_init__(self) -> None:
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.family_kind not in ("random", "stopping", "mixed"):
            raise ValueError(f"unknown family kind {self.family_kind!r}")
        if self.instances < 0:
            raise ValueError("instances must be >= 0")
        if not 0 < self.lam < 1:
            raise ValueError("lambda must be in (0,1)")
        # these raise on invalid ranges
        GridConfig(self.dimension, self.leaf_level)
        self.exponents()
        EntropyFunction("entropy", self.delta)

    def grid(self) -> GridConfig:
        return GridConfig(self.dimension, self.leaf_level)

    def exponents(self) -> ExponentConfig:
        return ExponentConfig(self.p, self.q, self.alpha, self.dimension, self.mode)

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown config fields: {sorted(unknown)}")
        data = dict(data)
        for key in ("levels", "lambdas"):
            if key in data:
                data[key] = tuple(data[key])
        return cls(**data)

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["levels"] = list(self.levels)
        out["lambdas"] = list(self.lambdas)
        return out


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
                  eps_d: EntropyFunction) -> tuple[BumpReport, BumpReport]:
    """The entropy and direct bump reports of a pair from one joint-factor build."""
    joint = joint_levels(sigma, w, exps)
    return (entropy_bumps(sigma, w, exps, eps_e, joint=joint),
            direct_bumps(sigma, w, exps, eps_d, joint=joint))


def _leaf_indicator_ratio(family: SparseFamily, sigma: Weight, w: Weight,
                         exps: ExponentConfig, cube: DyadicCube) -> float:
    """||T(sigma 1_R)||_{L^q(w)} / sigma(R)^{1/p} at R = cube through the leaf
    path: one `apply_sparse` on the leaf indicator of R and a norm over the
    leaves, none of the per-member arrays the indicator ratios come from."""
    grid = family.grid
    indicator = np.zeros(grid.leaf_shape())
    indicator[leaf_slice(cube, grid)] = 1.0
    u = apply_sparse(family, sigma, LeafFunction(grid, indicator), exps.alpha).values
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
    ebump, dbump = _bump_reports(sigma, w, exps, eps_e, eps_d)
    trep = testing_constants(inst)
    nlb = norm_lower_bound(inst, cfg.budget, seed=s_lb)
    etrace = entropy_trace(inst, eps_e, family.root, bump=ebump)
    dtrace = direct_trace(inst, eps_d, family.root, bump=dbump)
    ratios = primal_indicator_ratios(inst)
    de = dual_entropy_trace(inst, eps_e, family.root, bump=ebump)
    dd = dual_direct_trace(inst, eps_d, family.root, bump=dbump)

    ok = etrace.passed and dtrace.passed
    const_e = (2.0 * eps_e.tail_sum / (1.0 - cfg.lam)) ** (1.0 / cfg.q)
    const_d = (2.0 * eps_d.tail_sum / (1.0 - cfg.lam)) ** (1.0 / cfg.q)
    ce_ratio = trep.T / (const_e * ebump.constants["E"])
    cd_ratio = trep.T / (const_d * dbump.constants["D"])
    ok = ok and ce_ratio <= tolerance and cd_ratio <= tolerance

    ok = ok and bool(np.all(ratios >= trep.per_R / tolerance))
    tested = np.flatnonzero(inst.sigma_mass > 0)
    if len(tested):
        # the member-form ratio at one seeded R against the leaf path
        r = tested[np.random.default_rng(instance_seeds(cfg.master_seed, i, 5)[4])
                   .integers(len(tested))]
        leaf = _leaf_indicator_ratio(family, sigma, w, exps, family.members[r])
        ok = ok and abs(ratios[r] - leaf) <= SLACK * leaf

    dual_const = (2.0 / (1.0 - cfg.lam)) ** (1.0 / exps.p_dual)
    ok = ok and de.passed and dd.passed
    ok = ok and trep.T_star <= (dual_const * eps_e.tail_sum ** (1.0 / exps.p_dual)
                                * ebump.constants["E_star_symmetric"]) * tolerance
    ok = ok and trep.T_star <= (dual_const * eps_d.tail_sum ** (1.0 / exps.p_dual)
                                * dbump.constants["D_star"]) * tolerance

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


def run_verify_bounds(cfg: ExperimentConfig) -> SuiteReport:
    """Randomized end-to-end certification suite.

    Per instance: compute all constants, run both proof chains and their
    duals, and check the certified inequalities.  Any failed check is
    tallied as a violation; the report is deterministic in the master seed.
    """
    eps_e = EntropyFunction("entropy", cfg.delta)
    eps_d = EntropyFunction("direct", cfg.delta)
    report = SuiteReport(columns=CSV_COLUMNS)
    stamp = cfg.to_dict()
    stamp.pop("out_dir")  # report bytes depend only on the mathematical config
    report.environment = {
        "seed": cfg.master_seed,
        "version": __version__,
        "config": stamp,
    }
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


def run_counterexample(levels, delta: float, p: float = 2.0, q: float = 2.0,
                       alpha: float = 0.0) -> SuiteReport:
    """Level study of the divergent-entropy weight pair sigma = 1/(x(1-ln x)^2),
    w = x^2 at p = q (extended mode).

    Emits per level the L log L diagnostic and the constants A, E, D, and
    records the trends: the L log L integral and the entropy bump must both
    increase strictly with refinement, while the direct bump stabilizes (its
    per-cube values decay like 2^{-k/2} polylog near the singularity, so the
    supremum freezes once the grid resolves the argmax scale).
    """
    levels = tuple(int(n) for n in levels)
    if list(levels) != sorted(set(levels)) or not levels:
        raise ValueError("levels must be strictly increasing and nonempty")
    eps_e = EntropyFunction("entropy", delta)
    eps_d = EntropyFunction("direct", delta)
    report = SuiteReport(columns=COUNTEREXAMPLE_COLUMNS)
    report.environment = {"seed": 0, "version": __version__,
                          "delta": delta, "p": p, "q": q, "alpha": alpha}
    exps = ExponentConfig(p, q, alpha, 1, "extended")
    for n in levels:
        sigma, w = fix_ce(n)
        ebump, dbump = _bump_reports(sigma, w, exps, eps_e, eps_d)
        report.rows.append({
            "N": n,
            "llogl": llogl_integral(sigma),
            "A": ebump.constants["A"],
            "E": ebump.constants["E"],
            "D": dbump.constants["D"],
        })
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


def run_sweep(cfg: ExperimentConfig) -> SuiteReport:
    """Aggregate constants over a (leaf level, lambda) grid of small suites."""
    report = SuiteReport(columns=SWEEP_COLUMNS)
    stamp = cfg.to_dict()
    stamp.pop("out_dir")
    report.environment = {"seed": cfg.master_seed, "version": __version__,
                          "config": stamp}
    for n in cfg.levels:
        for lam in cfg.lambdas:
            sub = dataclasses.replace(cfg, kind="verify-bounds", leaf_level=n,
                                      lam=lam, levels=(n,), lambdas=(lam,),
                                      out_dir=None)
            sub_report = run_verify_bounds(sub)
            rows = sub_report.rows
            report.rows.append({
                "N": n,
                "lambda": lam,
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


def run_carleson_suite(instances: int, leaf_levels, lambdas, master_seed: int = 7,
                       volatility: float = 0.6, target_size: int = 40) -> dict:
    """Randomized Carleson certificate: (family, weight) instances mixing
    cascade weights with random and stopping-derived families; returns the
    worst observed lhs/rhs ratio and the violation count."""
    leaf_levels = tuple(leaf_levels)
    lambdas = tuple(lambdas)
    worst = 0.0
    violations = 0
    checked = 0
    for i in range(instances):
        n = leaf_levels[i % len(leaf_levels)]
        lam = lambdas[i % len(lambdas)]
        grid = GridConfig(1, n)
        s_sigma, _, s_fam, s_pick = instance_seeds(master_seed, i)
        sigma = generate_weight(grid, "random_cascade", seed=s_sigma,
                                volatility=volatility)
        if i % 2 == 0:
            family = random_sparse(grid, lam, s_fam, target_size)
        else:
            family = stopping_family(sigma, 1.0 / lam, root_cube(grid))
        rng = np.random.default_rng(s_pick)
        picks = {0, int(rng.integers(len(family)))}
        for j in picks:
            res = carleson_check(family, sigma, family.members[j])
            worst = max(worst, res["ratio"])
            checked += 1
            if res["ratio"] > 1.0:
                violations += 1
    return {"worst_ratio": worst, "violations": violations, "checked": checked}
