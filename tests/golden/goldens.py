"""Golden reports of the lab's report lines: how each is made, how two
compare, and a script that prints the change against them or rewrites them.

Each golden is one report file of a command line, gzipped with mtime 0 so
the file is a pure function of its text: the CSV and JSON of each
`verify-bounds` suite and `sweep` and of a `counterexample` study, and the
JSON that `sparsebump trace` and `sparsebump norm` print on three stored
stopping instances (d=1 N=14, d=2 N=7 and d=3 N=5).  The trace lines run
both chains, primal and dual, at the root and at one member below it, at
p = 1.01, q = 50; a line exits 0 only when every stage of its chain holds.
The norm lines run at p = q = 2, and a line whose lower bound exceeds its
exact L2 norm by more than NORM_SLACK relative raises.  MANIFEST.json
records the command behind each file and the NumPy and Python versions that
made it.

Two reports compare field by field: text, integers and booleans exactly,
floats within REL_TOL relative.  A field named `relative_error` is a
rounding residue near 0 (a trace's stage (i) error), so it compares within
REL_TOL absolute.  A CSV field is named by its column, a JSON field by its
key path with list positions written as [].  Bytes are compared only under
the NumPy and Python versions that made the golden, since another BLAS
build may move the last bits of a product where this one does not.

    python tests/golden/goldens.py           # largest relative change per field
    python tests/golden/goldens.py --write   # rewrite the goldens and MANIFEST.json

The first exits 1 when a field differs by more than the comparison allows,
or a golden's text differs under the NumPy and Python that made it.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import functools
import gzip
import io
import json
import math
import platform
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

from sparsebump import family_to_json, lab, weight_to_json  # noqa: E402
from sparsebump.cli import cli_main  # noqa: E402

REL_TOL = 1e-13
NORM_SLACK = 1e-9
MANIFEST = HERE / "MANIFEST.json"

# per dimension, the stored stopping instance that the trace and norm lines
# read as trace_d<d>_{family,sigma,w}.json (766, 977 and 2,081 members), and
# the member below the root that its trace lines start at (51, 24 and 31
# members inside)
STORED = {d: lab.ExperimentConfig(dimension=d, leaf_level=n, volatility=0.8, family_kind="stopping")
          for d, n in ((1, 14), (2, 7), (3, 5))}
BELOW_ROOT = {1: "4:13", 2: "3:(2,2)", 3: "2:(0,1,0)"}


def _stored(d: int) -> list[str]:
    return [a for name in ("family", "sigma", "w") for a in (f"--{name}", f"trace_d{d}_{name}.json")]


@functools.cache
def _stored_texts(d: int) -> dict[str, str]:
    """Per file name, the JSON text of the stored instance in dimension d,
    made once for the 9 lines that read it."""
    sigma, w, family, _ = lab.build_instance(STORED[d], 0)
    return {f"trace_d{d}_{name}.json": text for name, text in (
        ("sigma", weight_to_json(sigma)), ("w", weight_to_json(w)), ("family", family_to_json(family)))}


# per line, its stem and its arguments; a suite writes <stem>.csv and
# <stem>.json, a trace or norm line's printed JSON is <stem>.json
LINES = {
    "verify_bounds_seed42": ["verify-bounds", "--seed", "42"],
    "verify_bounds_p2_q2": ["verify-bounds", "--instances", "20", "--p", "2", "--q", "2"],
    "verify_bounds_p1.5_q1.5_d2_stopping": ["verify-bounds", "--instances", "20", "--p", "1.5", "--q", "1.5",
                                            "--dimension", "2", "--leaf-level", "5", "--family-kind", "stopping"],
    "counterexample": ["counterexample", "--delta", "0.5", "--levels", "8,12,16"],
    "verify_bounds_p1.01_q50": ["verify-bounds", "--instances", "20", "--p", "1.01", "--q", "50",
                                "--volatility", "0.99"],
    "verify_bounds_p1.01_q50_d2_stopping": ["verify-bounds", "--instances", "20", "--p", "1.01", "--q", "50",
                                            "--dimension", "2", "--leaf-level", "5", "--family-kind", "stopping"],
    "verify_bounds_budget0_seed130014": ["verify-bounds", "--instances", "3", "--leaf-level", "12", "--lambda", "0.9",
                                         "--p", "1.01", "--q", "11.01", "--volatility", "0.3", "--seed", "130014",
                                         "--target-size", "62", "--budget", "0"],
    "verify_bounds_budget0_seed249247": ["verify-bounds", "--instances", "3", "--leaf-level", "12", "--lambda", "0.25",
                                         "--p", "1.01", "--q", "50", "--seed", "249247", "--target-size", "26",
                                         "--budget", "0", "--delta", "0.5", "--family-kind", "random"],
    "verify_bounds_delta10": ["verify-bounds", "--instances", "20", "--delta", "10"],
    "sweep_d1": ["sweep", "--instances", "2", "--levels", "6,8"],
    "sweep_d2_stopping": ["sweep", "--dimension", "2", "--instances", "2", "--levels", "4,5",
                          "--family-kind", "stopping"],
    "sweep_d3": ["sweep", "--dimension", "3", "--instances", "2", "--levels", "3,4"],
    "verify_bounds_d3_alpha2.5": ["verify-bounds", "--dimension", "3", "--leaf-level", "5", "--instances", "10",
                                  "--alpha", "2.5"],
    "verify_bounds_d3_n6_stopping": ["verify-bounds", "--dimension", "3", "--leaf-level", "6", "--instances", "4",
                                     "--family-kind", "stopping"],
    "verify_bounds_d1_n16_stopping": ["verify-bounds", "--instances", "2", "--leaf-level", "16",
                                      "--family-kind", "stopping"],
    "verify_bounds_d2_n8_stopping": ["verify-bounds", "--instances", "2", "--dimension", "2", "--leaf-level", "8",
                                     "--family-kind", "stopping"],
    "verify_bounds_d1_n20_stopping": ["verify-bounds", "--instances", "1", "--leaf-level", "20",
                                      "--family-kind", "stopping"],
    "verify_bounds_d2_n10_stopping": ["verify-bounds", "--instances", "1", "--dimension", "2", "--leaf-level", "10",
                                      "--family-kind", "stopping"],
    **{f"norm_d{d}_n{cfg.leaf_level}_stopping": ["norm", *_stored(d), "--p", "2", "--q", "2", "--budget", "25"]
       for d, cfg in STORED.items()},
    **{f"trace_d{d}_{kind}_{'below' if below else 'root'}{'_dual' if dual else ''}":
       ["trace", *_stored(d), "--p", "1.01", "--q", "50", "--eps", eps, *(["--dual"] if dual else []),
        *([f"--cube={BELOW_ROOT[d]}"] if below else [])]
       for d in STORED for kind, eps in (("entropy", "entropy:1"), ("direct", "direct:0.5"))
       for dual in (False, True) for below in (False, True)},
}


def _stored_dimension(stem: str) -> int | None:
    """The dimension of the stored instance a line reads, None for a suite."""
    return int(stem.split("_")[1][1:]) if stem.startswith(("norm", "trace")) else None


def command(stem: str) -> str:
    """The shell form of a line, as MANIFEST.json records it."""
    text = " ".join(["sparsebump", *LINES[stem]])
    d = _stored_dimension(stem)
    if d is not None:
        cfg = STORED[d]
        text += (f" (the files are lab.build_instance(ExperimentConfig(dimension={d}, leaf_level={cfg.leaf_level}, "
                 "volatility=0.8, family_kind='stopping'), 0), written by family_to_json and weight_to_json)")
    return text


def run_line(stem: str, work: Path) -> dict[str, str]:
    """Per report file name, the text that this tree's line writes, run
    in-process under `work`.  Raises when the line exits nonzero, or when a
    norm line's lower bound exceeds its exact L2 norm by more than
    NORM_SLACK relative."""
    argv = list(LINES[stem])
    out = io.StringIO()
    d = _stored_dimension(stem)
    if d is not None:
        for name, text in _stored_texts(d).items():
            (work / name).write_text(text)
        argv = [str(work / a) if a.endswith(".json") else a for a in argv]
    else:
        argv += ["--out-dir", str(work)]
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise RuntimeError(f"{command(stem)} exited {code}")
    if d is None:
        return {f"{stem}.{ext}": (work / f"{argv[0].replace('-', '_')}.{ext}").read_text()
                for ext in ("csv", "json")}
    if argv[0] == "norm":
        norm = json.loads(out.getvalue())
        if not norm["lower_bound"] <= norm["exact_l2"] * (1 + NORM_SLACK):
            raise RuntimeError(f"{command(stem)}: lower_bound {norm['lower_bound']!r} "
                               f"exceeds exact_l2 {norm['exact_l2']!r} (1 + {NORM_SLACK})")
    return {f"{stem}.json": out.getvalue()}


def golden_path(name: str) -> Path:
    return HERE / f"{name}.gz"


def read_golden(name: str) -> str:
    return gzip.decompress(golden_path(name).read_bytes()).decode()


def _csv_fields(text: str):
    """(field, value) in order: the row count, the header, and per body row
    its length and the (column, cell text) of each cell."""
    rows = list(csv.reader(io.StringIO(text)))
    yield "<rows>", len(rows)
    yield "<header>", ",".join(rows[0])
    for row in rows[1:]:
        yield "<row length>", len(row)
        yield from zip(rows[0], row)


def _cell(text):
    """A CSV cell as the JSON value it stands for: an int, a float or text."""
    if not isinstance(text, str):
        return text
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def _json_fields(value, path=""):
    """(key path, leaf value) of every leaf of a JSON value, in order."""
    if isinstance(value, dict):
        yield path + "{}", sorted(value)
        for key in sorted(value):
            yield from _json_fields(value[key], f"{path}.{key}" if path else key)
    elif isinstance(value, list):
        yield path + "[] length", len(value)
        for item in value:
            yield from _json_fields(item, path + "[]")
    else:
        yield path, value


def _change(want, got) -> float | None:
    """The relative change from want to got, 0 when equal; None when the two
    must match exactly and do not (text, integers, booleans, types)."""
    if isinstance(want, float) or isinstance(got, float):
        if isinstance(want, bool) or isinstance(got, bool) or not all(
                isinstance(v, (int, float)) for v in (want, got)):
            return None
        if want == got or (math.isnan(want) and math.isnan(got)):
            return 0.0
        if math.isinf(want) or math.isinf(got) or math.isnan(want) or math.isnan(got):
            return math.inf
        return abs(got - want) / max(abs(got), abs(want))
    return 0.0 if type(want) is type(got) and want == got else None


def _versions() -> dict[str, str]:
    return {"numpy": np.__version__, "python": platform.python_version()}


def recorded_here(name: str) -> bool:
    """Whether the running NumPy and Python made the golden `name`, as
    MANIFEST.json records."""
    entry = json.loads(MANIFEST.read_text())[name]
    return {key: entry[key] for key in ("numpy", "python")} == _versions()


def compare(name: str, want: str, got: str, exact: bool = False) -> tuple[dict[str, float], list[str]]:
    """Per field, the largest relative change from the golden text `want`
    to `got` (absolute for a `relative_error`), and a line for each field
    that differs by more than the comparison allows (an exact field that
    differs, or a float past REL_TOL); with `exact`, also a line when the
    texts differ."""
    if name.endswith(".csv"):
        pairs = zip(_csv_fields(want), _csv_fields(got))
        pairs = (((k, _cell(a)), (k2, _cell(b))) for (k, a), (k2, b) in pairs)
    else:
        pairs = zip(_json_fields(json.loads(want)), _json_fields(json.loads(got)))
    largest, failures = {}, []
    for (key, a), (key2, b) in pairs:
        if key != key2:
            failures.append(f"{name}: field {key!r} in the golden, {key2!r} now")
            break
        change = _change(a, b)
        if change and math.isfinite(change) and key.rsplit(".", 1)[-1] == "relative_error":
            change = abs(b - a)  # a rounding residue near 0: absolute
        if change is None or change > REL_TOL:
            failures.append(f"{name}: {key}: golden {a!r}, now {b!r}")
        largest[key] = max(largest.get(key, 0.0), math.inf if change is None else change)
    if exact and got != want:
        failures.append(f"{name}: the text differs from the golden made by this NumPy and Python")
    return largest, failures


def write_goldens(reports: dict[str, str]) -> None:
    for name, text in reports.items():
        golden_path(name).write_bytes(gzip.compress(text.encode(), mtime=0))
    files = {name: {"command": command(name.rsplit(".", 1)[0]), **_versions()} for name in sorted(reports)}
    MANIFEST.write_text(json.dumps(files, indent=2, sort_keys=True) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--write", action="store_true", help="rewrite the goldens from this tree")
    args = parser.parse_args(argv)
    reports = {}
    with tempfile.TemporaryDirectory() as work:
        for stem in LINES:
            reports.update(run_line(stem, Path(work)))
    if args.write:
        write_goldens(reports)
        print(f"wrote {len(reports)} goldens and {MANIFEST.name}")
        return 0
    failed = False
    for name, text in reports.items():
        largest, failures = compare(name, read_golden(name), text, exact=recorded_here(name))
        moved = {k: v for k, v in largest.items() if v > 0}
        print(f"{name}: {len(largest) - len(moved)} fields unchanged" + ("" if moved else ", none moved"))
        for key, change in sorted(moved.items(), key=lambda kv: -kv[1]):
            print(f"  {key}: {change:.3g}")
        for line in failures:
            print(f"  FAIL {line}")
        failed |= bool(failures)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
