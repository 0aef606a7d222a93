"""The benchmark workloads, one pass over each, and the reference gate.

A pass runs the workload's inputs through the package's public entry points
(`lab.run_verify_bounds`, and `lab.run_counterexample` for the ladder) and
returns the reports with the per-instance timestamps.  The only hook in a
pass is a timestamp taken where `lab.build_instance` (or `lab.fix_ce` on the
ladder) is called; it also reads the size of the family built there.

Inputs come from the run seed through a catalogue of CATALOGUE master
seeds per workload: seed s selects entry s mod CATALOGUE, and a reference
report for each entry is stored under reference/.  Runs with different
seeds are compared with each other, so a workload's entries are inputs of
one cost: select_seeds() picks them (see MASTER_SEEDS).
"""

from __future__ import annotations

import dataclasses
import gzip
import json
import math
import statistics
import time
from pathlib import Path

CATALOGUE = 12
BASE_SEED = 42
DEFAULT_SEED = 0
HELD_OUT_SEED = 11  # timed by select_seeds only, never in a tuning run

LADDER_LEVELS = (8, 12, 16, 20, 22)
LADDER_DELTA = 0.5

REL_TOL = 1e-12

# instances per suite_default pass: a short pass is repeated more often in
# a run, and the fastest repeat of each instance is what a run reports
SUITE_INSTANCES = 25

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

WORKLOADS = ("suite_default", "family_deep", "grid_wide", "ce_ladder")


# The catalogue of each seeded workload, written by select_seeds() on a
# 2-core x86-64 VM: of SELECT_POOL candidate master seeds, the CATALOGUE
# whose pass time, median instance time and largest instance time are all
# closest to the candidates' medians.  Without it these times differ by up
# to a quarter between seeds: stopping-family sizes vary, and cost is not a
# function of |S| alone.  On family_deep the candidates
# are the master seeds from BASE_SEED up whose parts each have sum |S|^2
# within DEEP_SIZE_TOL of its median over DEEP_SIZE_POOL.
MASTER_SEEDS = {
    "suite_default": (43, 44, 46, 47, 48, 58, 60, 62, 64, 65, 68, 69),
    "family_deep": (49, 57, 70, 75, 81, 84, 109, 137, 151, 162, 199, 234),
    "grid_wide": (44, 46, 47, 49, 56, 60, 64, 65, 67, 71, 73, 77),
}
SELECT_POOL = 36
SELECT_REPEATS = 3
DEEP_SIZE_POOL = 200
DEEP_SIZE_TOL = 0.10


def master_seed(name: str, seed: int) -> int:
    return MASTER_SEEDS[name][seed % CATALOGUE]


def catalogue_index(name: str, seed: int) -> int:
    # the ladder has no random input: one reference serves every seed
    return 0 if name == "ce_ladder" else seed % CATALOGUE


def configs(lab, name: str, seed: int) -> list:
    """The suite configs of one pass; validated on construction. Empty for
    the ladder, whose inputs are fixed by LADDER_LEVELS."""
    if name == "ce_ladder":
        return []
    return master_configs(lab, name, master_seed(name, seed))


def master_configs(lab, name: str, m: int) -> list:
    cfg = lab.ExperimentConfig
    if name == "suite_default":
        return [cfg(master_seed=m, instances=SUITE_INSTANCES)]
    if name == "family_deep":
        # one instance of each part: a pass short enough to repeat six
        # times a run, and a median that is the mean of the two parts, not
        # the time of whichever instance of a part sorts to the middle
        return [cfg(dimension=1, leaf_level=13, family_kind="stopping",
                    instances=1, master_seed=m),
                cfg(dimension=2, leaf_level=6, family_kind="stopping",
                    instances=1, master_seed=m)]
    if name == "grid_wide":
        return [cfg(dimension=1, leaf_level=17, family_kind="random",
                    target_size=30, instances=2, master_seed=m)]
    raise ValueError(f"unknown workload {name!r}")


def candidate_seeds(lab, name: str) -> list:
    pool = range(BASE_SEED, BASE_SEED + (DEEP_SIZE_POOL if name == "family_deep"
                                        else SELECT_POOL))
    if name != "family_deep":
        return list(pool)
    sizes = {m: [sum(len(lab.build_instance(c, i)[2]) ** 2 for i in range(c.instances))
                 for c in master_configs(lab, name, m)]
             for m in pool}
    medians = [statistics.median(parts[k] for parts in sizes.values()) for k in (0, 1)]
    return [m for m, parts in sizes.items()
            if all(abs(v - med) <= DEEP_SIZE_TOL * med
                   for v, med in zip(parts, medians))][:SELECT_POOL]


def select_seeds(lab, name: str) -> tuple:
    """The MASTER_SEEDS rule.  Each candidate is timed as a run times it,
    over SELECT_REPEATS passes taken round-robin so a slow spell of the
    host touches every candidate alike."""
    pool = candidate_seeds(lab, name)
    passes: dict = {m: [] for m in pool}
    for _ in range(SELECT_REPEATS):
        for m in pool:
            passes[m].append(run_pass(lab, name, master_configs(lab, name, m)))
    times = {m: pass_times(quiet_times(ps)) for m, ps in passes.items()}
    medians = [statistics.median(t[k] for t in times.values()) for k in range(3)]

    def distance(m):
        return max(abs(t / med - 1.0) for t, med in zip(times[m], medians))
    return tuple(sorted(sorted(pool, key=distance)[:CATALOGUE]))


def quiet_times(passes: list) -> list[float]:
    """Per instance, the fastest of its durations over the passes."""
    return [min(col) for col in zip(*(p.instance_s for p in passes))]


def pass_times(quiet: list) -> tuple[float, float, float]:
    """Pass, median instance and largest instance time from quiet times."""
    return sum(quiet), statistics.median(quiet), max(quiet)


@dataclasses.dataclass
class Pass:
    reports: list            # one SuiteReport per config (one for the ladder)
    attempted: list          # instances (levels) attempted per report
    instance_s: list         # per-instance durations, in call order
    family_sizes: list       # |S| per instance; empty on the ladder
    leaves: int              # leaf cells summed over instances (levels)
    wall_s: float
    errors: list             # (report position, formatted exception)


def run_pass(lab, name: str, cfgs: list, entry=None) -> Pass:
    """One pass over the workload's inputs, `cfgs` from configs().
    `entry(fn, *args)` calls an entry point; the traced run passes a span
    timer here."""
    entry = entry or (lambda fn, *args: fn(*args))
    stamps: list[float] = []
    sizes: list[int] = []
    hook_name = "fix_ce" if name == "ce_ladder" else "build_instance"
    original = getattr(lab, hook_name)

    def hook(*args):
        stamps.append(time.perf_counter())
        result = original(*args)
        if hook_name == "build_instance":
            sizes.append(len(result[2]))
        return result

    reports, attempted, durations, errors = [], [], [], []
    setattr(lab, hook_name, hook)
    start = time.perf_counter()
    try:
        jobs = ([(lab.run_counterexample, (LADDER_LEVELS, LADDER_DELTA), len(LADDER_LEVELS))]
                if name == "ce_ladder"
                else [(lab.run_verify_bounds, (c,), c.instances) for c in cfgs])
        for pos, (fn, args, n) in enumerate(jobs):
            del stamps[:]
            attempted.append(n)
            try:
                reports.append(entry(fn, *args))
            except Exception as exc:  # an instance that raises fails, the run goes on
                errors.append((pos, f"{type(exc).__name__}: {exc}"))
                reports.append(None)
            stamps.append(time.perf_counter())
            durations.extend(b - a for a, b in zip(stamps, stamps[1:]))
        wall = time.perf_counter() - start
    finally:
        setattr(lab, hook_name, original)
    if name == "ce_ladder":
        leaves = sum(2**n for n in LADDER_LEVELS)
    else:
        leaves = sum(c.grid().n_leaves * c.instances for c in cfgs)
    return Pass(reports, attempted, durations, sizes, leaves, wall, errors)


# --- reference gate ---------------------------------------------------------

def report_record(report) -> dict:
    return {"rows": report.rows, "aggregates": report.aggregates,
            "violations": report.violations}


def reference_path(name: str, seed: int) -> Path:
    return REFERENCE_DIR / f"{name}-{catalogue_index(name, seed):02d}.json.gz"


def write_reference(name: str, seed: int, p: Pass) -> Path:
    if p.errors or any(r.violations for r in p.reports):
        raise RuntimeError("refusing to store a reference from a failed pass")
    path = reference_path(name, seed)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps([report_record(r) for r in p.reports], sort_keys=True)
    # mtime=0 keeps the file a pure function of its content
    path.write_bytes(gzip.compress(text.encode(), mtime=0))
    return path


def load_reference(name: str, seed: int) -> list | None:
    path = reference_path(name, seed)
    if not path.is_file():
        return None
    return json.loads(gzip.decompress(path.read_bytes()))


def same_value(got, want) -> bool:
    """Booleans and integers exactly, floats within REL_TOL relative."""
    if isinstance(want, bool) or isinstance(got, bool):
        return type(got) is type(want) and got == want
    if isinstance(want, float) or isinstance(got, float):
        if not isinstance(got, (int, float)) or not isinstance(want, (int, float)):
            return False
        if got == want or (math.isnan(got) and math.isnan(want)):
            return True
        return abs(got - want) <= REL_TOL * max(abs(got), abs(want))
    return got == want


def _dict_mismatches(got: dict, want: dict) -> list[str]:
    keys = sorted(set(got) | set(want))
    return [k for k in keys if k not in got or k not in want
            or not same_value(got[k], want[k])]


def compare(got: dict, want: dict) -> tuple[set[int], list[str]]:
    """Field-by-field comparison of one report record with its reference.
    Returns the indices of mismatching rows and a description of every
    mismatching field."""
    bad_rows: set[int] = set()
    notes: list[str] = []
    n = max(len(got["rows"]), len(want["rows"]))
    for i in range(n):
        if i >= len(got["rows"]) or i >= len(want["rows"]):
            bad_rows.add(i)
            notes.append(f"row {i}: missing")
            continue
        for key in _dict_mismatches(got["rows"][i], want["rows"][i]):
            bad_rows.add(i)
            notes.append(f"row {i} {key}: {got['rows'][i].get(key)!r} "
                         f"!= {want['rows'][i].get(key)!r}")
    for key in _dict_mismatches(got["aggregates"], want["aggregates"]):
        notes.append(f"aggregate {key}: {got['aggregates'].get(key)!r} "
                     f"!= {want['aggregates'].get(key)!r}")
    if not same_value(got["violations"], want["violations"]):
        notes.append(f"violations: {got['violations']} != {want['violations']}")
    return bad_rows, notes


def failed_instances(p: Pass, reference: list) -> tuple[int, list[str]]:
    """Instances of the pass that failed: they raised, carry a violation,
    or mismatch the reference.  A report-level mismatch with no row to pin
    it on counts as one failed instance."""
    failed = 0
    notes: list[str] = []
    errored = {pos for pos, _ in p.errors}
    for pos, n in enumerate(p.attempted):
        if pos in errored:
            failed += n
            continue
        report = p.reports[pos]
        got = json.loads(json.dumps(report_record(report), sort_keys=True))
        bad_rows, report_notes = compare(got, reference[pos])
        notes.extend(f"report {pos} {s}" for s in report_notes)
        count = len(bad_rows) + report.violations
        if report_notes and not bad_rows:
            count += 1
        failed += min(n, count)
    notes.extend(f"report {pos} raised {msg}" for pos, msg in p.errors)
    return failed, notes


def negative_control(reference: list) -> list[str]:
    """The gate must reject a reference perturbed beyond REL_TOL and accept
    one perturbed well inside it.  Returns the checks that did not hold."""
    problems = []
    first = reference[0]
    key = next((k for k, v in sorted(first["rows"][0].items())
                if isinstance(v, float) and v != 0.0), None)
    if key is None:
        return ["no nonzero float field to perturb"]
    for factor, must_flag in ((1.0 + 1e-9, True), (1.0 + 1e-14, False)):
        perturbed = json.loads(json.dumps(first))
        perturbed["rows"][0][key] *= factor
        bad_rows, _ = compare(first, perturbed)
        if (0 in bad_rows) != must_flag:
            problems.append(f"relative perturbation {factor - 1.0:g} of {key} "
                            f"{'not flagged' if must_flag else 'flagged'}")
    flipped = json.loads(json.dumps(first))
    for field in flipped["rows"][-1:] + [flipped["aggregates"]]:
        bkey = next((k for k, v in sorted(field.items()) if isinstance(v, bool)), None)
        if bkey is not None:
            field[bkey] = not field[bkey]
            bad_rows, notes = compare(first, flipped)
            if not notes:
                problems.append(f"flipped boolean {bkey} not flagged")
            break
    return problems
