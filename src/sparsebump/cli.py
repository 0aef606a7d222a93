"""Command-line interface.

Subcommands: constants, norm, testing, trace, verify-bounds, counterexample,
sweep.  verify-bounds and sweep read an optional ExperimentConfig JSON file
under one flag per config field (--field-name, but --seed and --lambda); a
sweep's axes --levels and --lambdas stand for --leaf-level and --lambda.
Every input has one flag: the weights are --sigma and --w, both required,
and nothing is read from the environment.  The suites and counterexample
print a CSV report, or write it and its JSON under --out-dir.  No
subcommand takes a flag it does not read.
Exit code is 0 on success, 1 when a mathematical assertion failed or the
exact L2 norm's power iteration did not converge, and 2 on usage or config
errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .bumps import EntropyFunction, ExponentConfig, direct_bumps, entropy_bumps
from .grid import parse_cube
from .lab import ExperimentConfig, run_counterexample, run_sweep, run_verify_bounds
from .operators import Instance, PowerIterationError, exact_norm_l2, norm_lower_bound, testing_constants
from .prooftrace import direct_trace, dual_direct_trace, dual_entropy_trace, entropy_trace
from .sparse import family_from_json
from .weights import weight_from_json


def _parse_eps(text: str) -> EntropyFunction:
    try:
        kind, _, delta = text.partition(":")
        return EntropyFunction(kind, float(delta) if delta else 1.0)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _comma_list(item):
    """The argparse type of a comma-separated list of `item`s."""
    def comma_list(text: str) -> tuple:
        return tuple(item(x) for x in text.split(",") if x)
    return comma_list


# the suite flags whose spelling is not the field's
_FLAG_NAMES = {"master_seed": "--seed", "lam": "--lambda"}
_SWEEP_AXES = ("leaf_level", "lam")  # the fields a sweep's --levels and --lambdas set


def _add_weight_args(sub) -> None:
    sub.add_argument("--sigma", required=True, help="sigma weight JSON")
    sub.add_argument("--w", required=True, help="w weight JSON")


def _resolve_weights(args):
    """The (sigma, w) pair that --sigma and --w name."""
    return tuple(weight_from_json(Path(path).read_text()) for path in (args.sigma, args.w))


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
    p_norm.add_argument("--seed", type=int, default=0)

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

    for name, skipped in (("verify-bounds", ()), ("sweep", _SWEEP_AXES)):
        # no abbreviations: --lambda would otherwise name a sweep's --lambdas
        p_run = sub.add_parser(name, help=f"run the {name} suite", allow_abbrev=False)
        p_run.add_argument("--config", default=None, help="ExperimentConfig JSON file")
        for f in dataclasses.fields(ExperimentConfig):
            if f.name not in skipped:
                flag = _FLAG_NAMES.get(f.name, "--" + f.name.replace("_", "-"))
                p_run.add_argument(flag, dest=f.name, type=type(f.default), default=None)
        p_run.add_argument("--out-dir", default=None)
    # the sweep's axes; one not given is no argument, and run_sweep's default
    p_run.add_argument("--levels", type=_comma_list(int), default=argparse.SUPPRESS)
    p_run.add_argument("--lambdas", type=_comma_list(float), default=argparse.SUPPRESS)

    p_ce = sub.add_parser("counterexample", help="level study of the divergent-entropy pair")
    p_ce.add_argument("--levels", type=_comma_list(int), default=(8, 12, 16, 20))
    p_ce.add_argument("--delta", type=float, default=0.5)
    p_ce.add_argument("--out-dir", default=None)

    return parser


def _suite_config(args) -> ExperimentConfig:
    """The config file's fields under the flags given, none that a sweep's
    axes set."""
    data = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    if args.command == "sweep" and (axes := sorted(set(data) & set(_SWEEP_AXES))):
        raise ValueError(f"a sweep's --levels and --lambdas set leaf_level and lam; its config names {axes}")
    fields = {f.name for f in dataclasses.fields(ExperimentConfig)}
    data.update((k, v) for k, v in vars(args).items() if k in fields and v is not None)
    return ExperimentConfig.from_dict(data)


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
            if args.seed < 0:
                raise ValueError(f"seed must be >= 0, got {args.seed}")
            inst = _instance(args)
            out = {"lower_bound": norm_lower_bound(inst, args.budget, seed=args.seed)}
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
            report = run_verify_bounds(_suite_config(args))
        elif args.command == "sweep":
            axes = {axis: getattr(args, axis) for axis in ("levels", "lambdas") if axis in args}
            report = run_sweep(_suite_config(args), **axes)
        elif args.command == "counterexample":
            report = run_counterexample(args.levels, args.delta)
        else:
            raise ValueError(f"unknown command {args.command!r}")
        if args.out_dir:
            for path in report.write(args.out_dir, args.command.replace("-", "_")):
                print(f"wrote {path}")
        else:
            sys.stdout.write(report.csv_text())
        print(json.dumps({"violations": report.violations,
                          "aggregates": report.aggregates}, sort_keys=True, default=str))
        return 1 if report.violations else 0
    except PowerIterationError as exc:
        print(f"error: {exc}", file=sys.stderr)  # names the last two iterates
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_main(sys.argv[1:]))


if __name__ == "__main__":
    main()
