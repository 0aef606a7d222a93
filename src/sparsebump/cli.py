"""Command-line interface.

Subcommands: constants, norm, testing, trace, verify-bounds, counterexample,
sweep.  verify-bounds and sweep read an optional ExperimentConfig JSON file
under one flag per config field (--field-name, but --seed and --lambda); the
master seed falls back to the SPARSEBUMP_SEED environment variable.
Exit code is 0 on success, 1 when a mathematical assertion failed, and 2 on
usage or config errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .bumps import EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps
from .grid import parse_cube
from .lab import ExperimentConfig, field_type, run_counterexample, run_sweep, run_verify_bounds
from .operators import Instance, exact_norm_l2, norm_lower_bound, testing_constants
from .prooftrace import direct_trace, dual_direct_trace, dual_entropy_trace, entropy_trace
from .sparse import family_from_json
from .weights import weight_from_json


def _parse_eps(text: str) -> EntropyFunction:
    try:
        kind, _, delta = text.partition(":")
        return EntropyFunction(kind, float(delta) if delta else 1.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _flag_type(want):
    """The argparse type of a `lab.field_type`: [t] takes comma-separated t."""
    if not isinstance(want, list):
        return want

    def comma_list(text: str) -> tuple:
        return tuple(want[0](x) for x in text.split(",") if x)
    return comma_list


# the suite flags whose spelling is not the field's
_FLAG_NAMES = {"master_seed": "--seed", "lam": "--lambda"}


def _load_weight(path: str):
    return weight_from_json(Path(path).read_text())


def _add_weight_args(sub) -> None:
    sub.add_argument("--weights", help="weight JSON used for both sigma and w")
    sub.add_argument("--sigma", help="sigma weight JSON")
    sub.add_argument("--w", help="w weight JSON")


def _resolve_weights(args):
    if args.weights:
        both = _load_weight(args.weights)
        return both, both
    if not (args.sigma and args.w):
        raise ValueError("need --weights or both --sigma and --w")
    return _load_weight(args.sigma), _load_weight(args.w)


def _instance(args) -> Instance:
    """The (family, sigma, w, exponents) instance that the flags name."""
    sigma, w = _resolve_weights(args)
    cfg = ExponentConfig(args.p, args.q, args.alpha)
    return Instance(family_from_json(Path(args.family).read_text()), sigma, w, cfg)


def _add_exponent_args(sub) -> None:
    sub.add_argument("--p", type=float, default=2.0)
    sub.add_argument("--q", type=float, default=3.0)
    sub.add_argument("--alpha", type=float, default=0.0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sparsebump",
        description="Two-weight bump constants and certified inequality chains "
                    "for sparse operators on dyadic grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_const = sub.add_parser("constants", help="bump constants for a weight pair")
    _add_weight_args(p_const)
    _add_exponent_args(p_const)

    p_norm = sub.add_parser("norm", help="operator norm (exact L2 oracle and lower bound)")
    p_norm.add_argument("--family", required=True)
    _add_weight_args(p_norm)
    _add_exponent_args(p_norm)
    p_norm.add_argument("--budget", type=int, default=200)
    p_norm.add_argument("--seed", type=int, default=None)

    p_test = sub.add_parser("testing", help="testing constants over a family")
    p_test.add_argument("--family", required=True)
    _add_weight_args(p_test)
    _add_exponent_args(p_test)

    p_trace = sub.add_parser("trace", help="run a certified inequality chain")
    p_trace.add_argument("--family", required=True)
    _add_weight_args(p_trace)
    _add_exponent_args(p_trace)
    p_trace.add_argument("--cube", default=None, help="R in cube text form (default: family root)")
    p_trace.add_argument("--dual", action="store_true", help="run the swapped-argument chain")
    # the eps kind names the bump constants reported, and the chain run
    for p_eps in (p_const, p_trace):
        p_eps.add_argument("--eps", type=_parse_eps, default=EntropyFunction("entropy", 1.0),
                           metavar="KIND:DELTA", help="e.g. entropy:1 or direct:0.5")

    for name in ("verify-bounds", "sweep"):
        p_run = sub.add_parser(name, help=f"run the {name} suite")
        p_run.add_argument("--config", default=None, help="ExperimentConfig JSON file")
        for f in dataclasses.fields(ExperimentConfig):
            flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
            p_run.add_argument(flag, dest=f.name, type=_flag_type(field_type(f)), default=None)

    p_ce = sub.add_parser("counterexample", help="level study of the divergent-entropy pair")
    p_ce.add_argument("--levels", type=_flag_type([int]), default=(8, 12, 16, 20))
    p_ce.add_argument("--delta", type=float, default=0.5)
    p_ce.add_argument("--p", type=float, default=2.0)
    p_ce.add_argument("--q", type=float, default=2.0)
    p_ce.add_argument("--alpha", type=float, default=0.0)
    p_ce.add_argument("--out-dir", default=None)

    return parser


def _suite_config(args) -> ExperimentConfig:
    """The config file's fields under the flags given; the master seed falls
    back to SPARSEBUMP_SEED when neither sets it."""
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    if "master_seed" not in data and os.environ.get("SPARSEBUMP_SEED"):
        data["master_seed"] = int(os.environ["SPARSEBUMP_SEED"])
    for f in dataclasses.fields(ExperimentConfig):
        if getattr(args, f.name) is not None:
            data[f.name] = getattr(args, f.name)
    return ExperimentConfig.from_dict(data)


def _emit(report, out_dir: str | None, stem: str) -> None:
    if out_dir:
        csv_path, json_path = report.write(out_dir, stem)
        print(f"wrote {csv_path}")
        print(f"wrote {json_path}")
    else:
        sys.stdout.write(report.csv_text())
    print(json.dumps({"violations": report.violations,
                      "aggregates": report.aggregates}, sort_keys=True, default=str))


def cli_main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        if args.command == "constants":
            sigma, w = _resolve_weights(args)
            cfg = ExponentConfig(args.p, args.q, args.alpha)
            if args.eps.kind == "entropy":
                report = entropy_bumps(sigma, w, cfg, args.eps)
                skipped = "D"
            else:
                report = direct_bumps(sigma, w, cfg, args.eps)
                skipped = "E"
            out = report.to_dict()
            out["skipped"] = f"{skipped} (needs {'direct' if skipped == 'D' else 'entropy'} eps)"
            print(json.dumps(out, sort_keys=True))
            return 0

        if args.command == "norm":
            inst = _instance(args)
            seed = args.seed if args.seed is not None else int(os.environ.get("SPARSEBUMP_SEED", "0"))
            out = {"lower_bound": norm_lower_bound(inst, args.budget, seed=seed)}
            if args.p == 2.0 and args.q == 2.0:
                out["exact_l2"] = exact_norm_l2(inst)
            print(json.dumps(out, sort_keys=True))
            return 0

        if args.command == "testing":
            print(json.dumps(testing_constants(_instance(args)).to_dict(), sort_keys=True))
            return 0

        if args.command == "trace":
            inst = _instance(args)
            r_cube = parse_cube(args.cube) if args.cube else inst.family.root
            runners = {
                ("entropy", False): entropy_trace,
                ("entropy", True): dual_entropy_trace,
                ("direct", False): direct_trace,
                ("direct", True): dual_direct_trace,
            }
            report = runners[(args.eps.kind, args.dual)](inst, args.eps, r_cube)
            print(report.to_json())
            return 0 if report.passed else 1

        if args.command == "verify-bounds":
            cfg = _suite_config(args)
            report = run_verify_bounds(cfg)
            _emit(report, cfg.out_dir, "verify_bounds")
            return 1 if report.violations else 0

        if args.command == "sweep":
            cfg = _suite_config(args)
            report = run_sweep(cfg)
            _emit(report, cfg.out_dir, "sweep")
            return 1 if report.violations else 0

        if args.command == "counterexample":
            report = run_counterexample(args.levels, args.delta, args.p, args.q, args.alpha)
            _emit(report, args.out_dir, "counterexample")
            return 1 if report.violations else 0

        raise ValueError(f"unknown command {args.command!r}")
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
