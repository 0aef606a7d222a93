"""The lab's report lines against their golden reports (tests/golden/).

Each line reruns in-process and must give the golden report field by field:
text, integers and booleans exactly, floats within 1e-13 relative (a
trace's `relative_error`, a rounding residue, within 1e-13 absolute).
Under the NumPy and Python versions that MANIFEST.json records for a
golden, its text must also be byte-identical.  A trace line must also pass
every stage, and a norm line's lower bound must not exceed its exact L2
norm by more than 1e-9 relative.  A change that moves a report past that
rewrites the goldens with
`python tests/golden/goldens.py --write` and states the change, which
`python tests/golden/goldens.py` prints per field before the rewrite.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from sparsebump import cli

_PATH = Path(__file__).resolve().parent / "golden" / "goldens.py"
_SPEC = importlib.util.spec_from_file_location("goldens", _PATH)
goldens = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(goldens)


def test_every_golden_has_its_command():
    manifest = json.loads(goldens.MANIFEST.read_text())
    files = {p.name.removesuffix(".gz") for p in goldens.HERE.glob("*.gz")}
    assert set(manifest) == files
    assert {name.rsplit(".", 1)[0] for name in files} == set(goldens.LINES)
    for name, entry in manifest.items():
        assert entry["command"] == goldens.command(name.rsplit(".", 1)[0]) and entry["numpy"]


@pytest.mark.parametrize("stem", goldens.LINES)
def test_line_matches_its_golden(stem, tmp_path):
    for name, text in goldens.run_line(stem, tmp_path).items():
        assert goldens.compare(name, goldens.read_golden(name), text, exact=goldens.recorded_here(name))[1] == []


@pytest.mark.parametrize(("name", "want", "got", "failures"), [
    ("x.csv", "a,b\n1,0.5\n", "a,b\n1,0.5000000000000001\n", 0),  # 2.2e-16: a last-bit move
    ("x.csv", "a,b\n1,0.5\n", "a,b\n1,0.50000000001\n", 1),
    ("x.csv", "a,b\n1,0.5\n", "a,b\n2,0.5\n", 1),  # an integer cell
    ("x.csv", "a,b\nyes,0.5\n", "a,b\nno,0.5\n", 1),
    ("x.csv", "a,b\n1,0.5\n", "a,c\n1,0.5\n", 2),  # the header, and the field name it gives a cell
    ("x.csv", "a,b\n1,0.5\n", "a,b\n1,0.5\n1,0.5\n", 1),  # a row more
    ("x.json", '{"r": [{"v": 0.5, "ok": true}]}', '{"r": [{"v": 0.5000000000000001, "ok": true}]}', 0),
    ("x.json", '{"r": [{"v": 0.5, "ok": true}]}', '{"r": [{"v": 0.5, "ok": false}]}', 1),
    ("x.json", '{"r": [{"v": 0.5, "ok": true}]}', '{"r": [{"v": 0.5, "ok": 1}]}', 1),  # a boolean's type
    ("x.json", '{"r": [{"v": 0.5}]}', '{"r": [{"v": 0.5}, {"v": 0.5}]}', 1),  # a list's length
    ("x.json", '{"n": 3}', '{"n": 4}', 1),
    ("x.json", '{"v": Infinity}', '{"v": 1e308}', 1),
    # a relative_error is a rounding residue: it compares within REL_TOL absolute
    ("x.json", '{"s": {"relative_error": 0.0}}', '{"s": {"relative_error": 1.2e-16}}', 0),
    ("x.json", '{"s": {"relative_error": 0.0}}', '{"s": {"relative_error": 1e-12}}', 1),
])
def test_compare(name, want, got, failures):
    # a move within 1e-13 relative is reported and passes; every other change fails
    largest, failed = goldens.compare(name, want, got)
    assert len(failed) == failures
    if not failures:
        assert 0 < max(largest.values()) <= goldens.REL_TOL


def test_compare_fails_a_moved_inner_bound():
    # one stratum's inner bound of a trace golden, moved by 1e-12 relative
    name = "trace_d1_direct_root.json"
    want = goldens.read_golden(name)
    trace = json.loads(want)
    assert goldens.compare(name, want, json.dumps(trace))[1] == []
    stratum = next(s for s in trace["stage_inner"]["strata"] if math.isfinite(s["inner_bound"]))
    stratum["inner_bound"] *= 1 + 1e-12
    assert len(goldens.compare(name, want, json.dumps(trace))[1]) == 1


def test_exact_compare_fails_a_one_ulp_move():
    # one float of a trace golden moved by one ulp: within the field
    # comparison, but not byte-identical
    name = "trace_d1_direct_root.json"
    want = goldens.read_golden(name)
    value = json.loads(want)["lhs_total"]
    got = want.replace(repr(value), repr(math.nextafter(value, math.inf)), 1)
    assert got != want
    assert goldens.compare(name, want, got)[1] == []
    assert goldens.compare(name, want, want, exact=True)[1] == []
    assert len(goldens.compare(name, want, got, exact=True)[1]) == 1


@pytest.mark.parametrize(("slack", "raises"), [(0.5e-9, False), (2e-9, True)])
def test_norm_line_checks_its_bound(slack, raises, tmp_path, monkeypatch):
    # a lower bound past exact_l2 (1 + 1e-9) makes the norm line raise
    monkeypatch.setattr(cli, "norm_lower_bound", lambda inst, budget, seed: cli.exact_norm_l2(inst) * (1 + slack))
    if raises:
        with pytest.raises(RuntimeError, match="exceeds exact_l2"):
            goldens.run_line("norm_d1_n14_stopping", tmp_path)
    else:
        goldens.run_line("norm_d1_n14_stopping", tmp_path)
