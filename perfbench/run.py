#!/usr/bin/env python3
"""Benchmark for sparsebump: certified-instance time, memory and per-layer
self time on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --write-reference
    python3 perfbench/run.py --workload NAME --select-seeds

Run from the root of a source checkout; the package is imported from
./src.  A run repeats passes over the workload's inputs for about S
seconds, times fresh-interpreter set-ups between them, and checks every
pass against the stored reference report.

The host is shared, and other work on it slows the program by up to a
third, for spells of milliseconds to minutes; it never speeds it up.  So a
run times each instance (each level on the ladder) in every pass and keeps
the fastest of its repeats, its quiet time: `wall_s` is the quiet times
summed over one pass, `instance_s_p50` and `instance_s_max` their median
and maximum over the pass's instances.  That filters the short spells; a
spell longer than the run stays in its numbers.  `setup_s` is the median of
SETUP_PROBES set-ups.

The last line of standard output is one JSON object with `correct`,
`attempted`, `failed` and `metrics`: the end-to-end metrics with --trace 0,
the per-layer metrics with --trace 1.  `--workload all` runs each workload
in a fresh interpreter, one after the other, and prints all their metrics.

A traced run alternates untraced and traced passes.  Each traced pass must
give a report CSV byte-identical to the untraced one before it, and every
wrapped name must be restored, also after an exception.
"""

from __future__ import annotations

import os

# pinned before anything imports numpy, so the numbers measure the program
# and not the thread scheduler
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_ENV:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import workloads as wl  # noqa: E402

SETUP_PROBES = 12

# Pass times measured on a 2-core x86-64 VM when the benchmark was written.
# A run makes --seconds / NOMINAL_PASS_S passes whatever the speed of the
# code, so the number of repeats each quiet time is the fastest of stays
# the same from commit to commit.
NOMINAL_PASS_S = {"suite_default": 1.25, "family_deep": 3.3,
                  "grid_wide": 2.5, "ce_ladder": 5.0}
MIN_PASSES = 3
PROBE_TIMEOUT_S = 60
CHILD_TIMEOUT_S = 180
MAX_PROBLEMS_SHOWN = 20

END_TO_END_UNITS = {"wall_s": "s", "instance_s_p50": "s", "instance_s_max": "s",
                    "setup_s": "s", "peak_rss_mb": "MB"}


def import_package():
    """Import sparsebump from this checkout's src/, never from elsewhere."""
    if not (SRC / "sparsebump" / "__init__.py").is_file():
        raise SystemExit(f"error: no sparsebump package under {SRC}; "
                         "run from the root of a source checkout")
    sys.path.insert(0, str(SRC))
    import sparsebump
    from sparsebump import lab, prooftrace, sparse
    if Path(sparsebump.__file__).resolve().parent != (SRC / "sparsebump").resolve():
        raise SystemExit(f"error: imported sparsebump from {sparsebump.__file__}")
    return {"lab": lab, "prooftrace": prooftrace, "sparse": sparse}


def setup_probe(name: str, seed: int) -> None:
    """Child side of a set-up measurement: imports and config validation,
    then report the monotonic clock (system-wide on Linux)."""
    modules = import_package()
    wl.configs(modules["lab"], name, seed)
    print(repr(time.monotonic()), flush=True)


def measure_setup(name: str, seed: int, probes: int) -> list[float]:
    samples = []
    for _ in range(probes):
        start = time.monotonic()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--setup-probe"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]) - start)
    return samples


def csv_texts(p: wl.Pass) -> list:
    return [r.csv_text() if r is not None else None for r in p.reports]


def measure(modules: dict, name: str, seed: int, seconds: float, trace: bool) -> dict:
    lab = modules["lab"]
    cfgs = wl.configs(lab, name, seed)
    reference = wl.load_reference(name, seed)
    if reference is None:
        raise SystemExit(f"error: no reference at {wl.reference_path(name, seed)}")
    problems = [f"negative control: {s}" for s in wl.negative_control(reference)]
    setup: list[float] = []

    passes: list[wl.Pass] = []
    untraced: list[wl.Pass] = []
    traces: list[layers.LayerTrace] = []
    if trace:
        originals = layers.snapshot(modules)
        try:
            with layers.LayerTrace().installed(modules):
                raise RuntimeError("exception inside the traced block")
        except RuntimeError:
            pass
        problems += [f"{n} not restored after an exception"
                     for n in layers.unrestored(modules, originals)]

    per_pass = sum(c.instances for c in cfgs) or len(wl.LADDER_LEVELS)
    n_passes = max(MIN_PASSES, round(seconds / (NOMINAL_PASS_S[name] * (2 if trace else 1))))
    for i in range(n_passes):
        if not trace:
            # set-ups spread over the run, so a slow spell of the host
            # touches few of them
            setup += measure_setup(name, seed, SETUP_PROBES * (i + 1) // n_passes
                                   - SETUP_PROBES * i // n_passes)
        if trace:
            # each traced pass follows an untraced one: that gives the CSV it
            # must reproduce and the wall time the overhead is taken against
            untraced.append(wl.run_pass(lab, name, cfgs))
            tracer = layers.LayerTrace()
            with tracer.installed(modules):
                p = wl.run_pass(lab, name, cfgs,
                                entry=lambda fn, *a: tracer.span(layers.ROOT_LAYER, fn, *a))
            traces.append(tracer)
            if csv_texts(p) != csv_texts(untraced[-1]):
                problems.append(f"traced pass {len(passes)} report CSV differs from untraced")
        else:
            p = wl.run_pass(lab, name, cfgs)
        passes.append(p)
    if trace:
        problems += [f"{n} not restored" for n in layers.unrestored(modules, originals)]

    attempted = failed = 0
    for p in passes + untraced:
        n_failed, notes = wl.failed_instances(p, reference)
        attempted += sum(p.attempted)
        failed += n_failed
        problems += notes

    walls = [p.wall_s for p in passes]
    quiet = wl.quiet_times(passes)
    first = passes[0]
    context = {
        "workload": name, "seed": seed, "held_out_seed": wl.HELD_OUT_SEED,
        "master_seed": None if name == "ce_ladder" else wl.master_seed(name, seed),
        "d": sorted({c.dimension for c in cfgs}) or [1],
        "N": [c.leaf_level for c in cfgs] or list(wl.LADDER_LEVELS),
        "instances_per_pass": per_pass,
        "family_cubes_sum": sum(first.family_sizes),
        "family_cubes_max": max(first.family_sizes, default=0),
        "leaves_per_pass": first.leaves,
        "passes": len(passes), "pass_wall_s": walls, "instance_quiet_s": quiet,
        "fail_share": failed / attempted,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {v: os.environ[v] for v in THREAD_ENV},
        "trace": int(trace),
    }
    if trace:
        metrics = layer_metrics(traces, passes, untraced)
    else:
        context.update(setup_probes=len(setup))
        wall, p50, largest = wl.pass_times(quiet)
        values = {
            "wall_s": wall,
            "instance_s_p50": p50,
            "instance_s_max": largest,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}
    return {"context": context, "problems": problems, "correct": not problems,
            "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_metrics(traces: list, passes: list, untraced: list) -> dict:
    """Self times are each layer's fastest over the traced passes, the
    overhead the traced minus the untraced quiet pass time."""
    t0 = traces[0]
    out = {f"{k}.self_s": {"value": min(t.self_s[k] for t in traces), "unit": "s"}
           for k in layers.LAYERS}
    for key in ("sparse.carleson", "maximal.rho", "sparse.build", "bumps", "weights"):
        out[f"{key}.calls"] = {"value": t0.calls[key], "unit": "count"}
    traced = t0.counts["prooftrace.traces"]
    out["prooftrace.strata"] = {"value": t0.counts["prooftrace.strata"], "unit": "count"}
    out["prooftrace.pass_ratio"] = {
        "value": t0.counts["prooftrace.passed"] / traced if traced else 0.0, "unit": "ratio"}
    out["sparse.family_cubes"] = {"value": t0.counts["sparse.family_cubes"], "unit": "count"}
    out["sparse.family_cubes_max"] = {"value": t0.family_cubes_max, "unit": "count"}
    out["grid.leaves"] = {"value": passes[0].leaves, "unit": "count"}
    out["trace.overhead_s"] = {
        "value": sum(wl.quiet_times(passes)) - sum(wl.quiet_times(untraced)), "unit": "s"}
    return out


def run_all(seed: int, seconds: float, trace: bool) -> dict:
    """Every workload, one at a time, each in a fresh interpreter."""
    results = {}
    for name in wl.WORKLOADS:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        sys.stderr.write(out.stderr)
        lines = out.stdout.strip().splitlines()
        if out.returncode != 0 or not lines:
            raise SystemExit(f"error: workload {name} exited with {out.returncode}")
        results[name] = json.loads(lines[-1])
    for name, r in results.items():
        print(f"{name}: correct={r['correct']} fail_share={r['failed']}/{r['attempted']}")
        for metric, m in r["metrics"].items():
            print(f"  {metric} {m['value']!r} {m['unit']}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{metric}": m for name, r in results.items()
                    for metric, m in r["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this seed's reference report and exit")
    parser.add_argument("--select-seeds", action="store_true",
                        help="print the workload's catalogue of master seeds and exit")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if args.workload == "all":
        result = run_all(args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result, sort_keys=True))
        return 0 if result["correct"] else 1
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    modules = import_package()
    if args.select_seeds:
        print(wl.select_seeds(modules["lab"], args.workload))
        return 0
    if args.write_reference:
        lab = modules["lab"]
        path = wl.write_reference(args.workload, args.seed, wl.run_pass(
            lab, args.workload, wl.configs(lab, args.workload, args.seed)))
        print(f"wrote {path.relative_to(ROOT)}")
        return 0

    result = measure(modules, args.workload, args.seed, args.seconds, bool(args.trace))
    print("context " + json.dumps(result["context"], sort_keys=True))
    for problem in result["problems"][:MAX_PROBLEMS_SHOWN]:
        print(f"problem: {problem}")
    if len(result["problems"]) > MAX_PROBLEMS_SHOWN:
        print(f"problem: ... {len(result['problems']) - MAX_PROBLEMS_SHOWN} more")
    print(f"fail_share {result['failed']}/{result['attempted']}")
    for metric, m in result["metrics"].items():
        print(f"{metric} {m['value']!r} {m['unit']}")
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
