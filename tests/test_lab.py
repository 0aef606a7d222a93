import argparse
import dataclasses
import functools
import json
import re
import weakref
from collections import Counter

import numpy as np
import pytest

from sparsebump import cli, lab
from sparsebump.cli import cli_main
from sparsebump.grid import GridConfig
from sparsebump.operators import Instance
from sparsebump.lab import (
    CSV_COLUMNS,
    ExperimentConfig,
    instance_seeds,
    run_carleson_suite,
    run_counterexample,
    run_sweep,
    run_verify_bounds,
)
from sparsebump.sparse import SparseFamily, family_to_json
from sparsebump.weights import Weight, generate_weight, weight_to_json

from oracles import fix_chain_cubes, fix_const


SMALL = dict(instances=6, leaf_level=6, master_seed=11, target_size=14, budget=8)


class TestExperimentConfig:
    def test_validation_happens_up_front(self):
        with pytest.raises(ValueError):
            ExperimentConfig(family_kind="nonsense")
        with pytest.raises(ValueError):
            ExperimentConfig(lam=1.5)
        with pytest.raises(ValueError):
            ExperimentConfig(p=1.0)
        with pytest.raises(ValueError):
            ExperimentConfig(leaf_level=0)
        with pytest.raises(ValueError):
            ExperimentConfig(instances=-1)
        # each used to pass here and fail (or run as another value) only once
        # the first instance was built
        for bad in (dict(budget=-3), dict(target_size=0), dict(volatility=0.0),
                    dict(volatility=1.0), dict(volatility=-0.5), dict(master_seed=-1)):
            with pytest.raises(ValueError, match=next(iter(bad))):
                ExperimentConfig(**bad)
        # the sweep's axes are run_sweep's arguments, checked before any
        # instance is built, with the messages they had as config fields
        for bad in (dict(levels=()), dict(lambdas=()), dict(lambdas=(0.5, 1.0)),
                    dict(lambdas=(0.0, 0.5)), dict(lambdas=(-0.25,))):
            with pytest.raises(ValueError, match=next(iter(bad))):
                run_sweep(ExperimentConfig(), **bad)
        # a verify-bounds run reads no level: a d=2 config is valid, and its
        # sweep names the default levels past d=2's deepest grid, 16 and 20
        with pytest.raises(ValueError, match=re.escape("levels must be in [1, 12] for d=2, got [16, 20]")):
            run_sweep(ExperimentConfig(dimension=2))

    def test_dict_roundtrip(self):
        # every field is a JSON scalar: the config survives its JSON text
        cfg = ExperimentConfig(**SMALL)
        again = ExperimentConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg))))
        assert again == cfg

    def test_unknown_field_rejected(self):
        with pytest.raises(ValueError, match="unknown config fields"):
            ExperimentConfig.from_dict({"no_such_field": 1})
        with pytest.raises(ValueError, match=r"unknown config fields: \['kind'\]"):
            ExperimentConfig.from_dict({"kind": "verify-bounds"})
        # the diagonal case is read off p = q
        with pytest.raises(ValueError, match=r"unknown config fields: \['mode'\]"):
            ExperimentConfig.from_dict({"p": 2.0, "q": 2.0, "mode": "extended"})
        # the sweep's axes and the output directory are no part of a suite's config
        with pytest.raises(ValueError, match=r"unknown config fields: \['lambdas', 'levels', 'out_dir'\]"):
            ExperimentConfig.from_dict({"levels": [6], "lambdas": [0.5], "out_dir": "reports"})

    def test_instance_seeds_are_stable(self):
        assert instance_seeds(42, 0) == instance_seeds(42, 0)
        assert instance_seeds(42, 0) != instance_seeds(42, 1)
        assert instance_seeds(42, 0) != instance_seeds(43, 0)


class TestVerifyBounds:
    def test_small_suite_has_no_violations(self):
        rep = run_verify_bounds(ExperimentConfig(**SMALL))
        assert rep.violations == 0
        assert len(rep.rows) == SMALL["instances"]
        assert rep.aggregates["max_certified_CE_ratio"] <= 1.0
        assert rep.aggregates["max_certified_CD_ratio"] <= 1.0

    def test_csv_columns_are_fixed(self):
        rep = run_verify_bounds(ExperimentConfig(**SMALL))
        header = rep.csv_text().splitlines()[0]
        assert header == ",".join(CSV_COLUMNS)
        assert CSV_COLUMNS == (
            "instance_id", "seed", "N", "lambda", "p", "q", "alpha", "delta",
            "A", "E", "E_star_sym", "D", "D_star", "T", "T_star", "norm_lb",
            "trace_entropy_pass", "trace_direct_pass",
            "certified_CE_ratio", "certified_CD_ratio",
        )

    def test_the_scan_holds_only_what_the_row_reads(self, monkeypatch):
        # no row, check or trace reads E_star_printed, so no instance scores it
        scanned = []

        class Spied(lab.PairScan):
            def __init__(self, *args):
                super().__init__(*args)
                scanned.append(set(self.names))

        monkeypatch.setattr(lab, "PairScan", Spied)
        run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=2)))
        assert scanned == [{"A", "E", "E_star_symmetric", "D", "D_star"}] * 2

    def test_empty_suite(self):
        rep = run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=0)))
        assert rep.rows == [] and rep.violations == 0
        assert rep.csv_text().splitlines() == [",".join(CSV_COLUMNS)]

    def test_identical_configs_are_byte_identical(self):
        a = run_verify_bounds(ExperimentConfig(**SMALL))
        b = run_verify_bounds(ExperimentConfig(**SMALL))
        assert a.csv_text() == b.csv_text()
        assert a.json_text() == b.json_text()

    def test_csv_uses_lf_and_full_precision(self, tmp_path):
        rep = run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=2)))
        csv_path, json_path = rep.write(tmp_path, "suite")
        raw = csv_path.read_bytes()
        assert b"\r" not in raw
        # full-precision floats survive a parse round trip
        line = raw.decode().splitlines()[1].split(",")
        value = float(line[CSV_COLUMNS.index("E")])
        assert f"{value:.17g}" == line[CSV_COLUMNS.index("E")]
        assert json.loads(json_path.read_text())["violations"] == 0


class TestCounterexampleStudy:
    def test_trends_on_short_ladder(self):
        rep = run_counterexample((6, 8, 10), 0.5)
        assert rep.aggregates["llogl_increasing"]
        assert rep.aggregates["E_increasing"]
        assert rep.violations == 0

    def test_levels_must_increase(self):
        with pytest.raises(ValueError):
            run_counterexample((8, 8), 0.5)
        with pytest.raises(ValueError):
            run_counterexample((12, 8), 0.5)

    @pytest.mark.parametrize("levels,bad", [("8,25", "[25]"), ("0,8", "[0]")])
    def test_levels_past_the_grid_exit_2_before_any_pair(self, monkeypatch, capsys, levels, bad):
        # each used to build and scan the N=8 pair, then name leaf_level
        built = []
        monkeypatch.setattr(lab, "fix_ce", lambda *args: built.append(args))
        assert cli_main(["counterexample", "--levels", levels]) == 2
        assert capsys.readouterr().err == f"error: levels must be in [1, 24] for d=1, got {bad}\n"
        assert built == []


class TestCounterexampleControls:
    """Each trend check of the ladder must count a violation when its trend
    is broken, and the CLI must then exit 1."""

    LEVELS = (8, 12, 16)

    def test_a_constant_pair_fails_both_increasing_trends(self, monkeypatch, capsys):
        def constant(n):
            c = generate_weight(GridConfig(1, n), "constant", value=1.0)
            return c, c

        monkeypatch.setattr(lab, "fix_ce", constant)
        rep = run_counterexample(self.LEVELS, 0.5)
        assert rep.violations == 1
        assert rep.aggregates == {"llogl_increasing": False, "E_increasing": False,
                                  "D_final_ratio": 1.0, "D_stable": True}
        assert cli_main(["counterexample", "--levels", "8,12,16"]) == 1
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 1

    def test_a_growing_w_fails_d_stable_alone(self, monkeypatch, capsys):
        # w scaled by 1 + n/4 at level n scales D by its square root at
        # p = q = 2: from N = 12 to 16, by (5/4)^{1/2} = 1.118
        fix_ce = lab.fix_ce

        def growing(n):
            sigma, w = fix_ce(n)
            return sigma, Weight.from_leaf_mass(w.grid, w.mass_levels[-1] * (1 + n / 4))

        monkeypatch.setattr(lab, "fix_ce", growing)
        rep = run_counterexample(self.LEVELS, 0.5)
        assert rep.violations == 1
        trends = rep.aggregates
        assert trends["llogl_increasing"] and trends["E_increasing"] and not trends["D_stable"]
        assert trends["D_final_ratio"] == pytest.approx(1.118, abs=1e-3)
        assert cli_main(["counterexample", "--levels", "8,12,16"]) == 1
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 1


class TestCounterexampleMemory:
    """The study builds sigma's rho pyramid but not w's, and holds one
    level's pair at a time."""

    LEVELS = (8, 12, 16)

    @staticmethod
    def record_pairs(monkeypatch) -> list:
        pairs, fix_ce = [], lab.fix_ce

        def recorded(n):
            pairs.append(fix_ce(n))
            return pairs[-1]

        monkeypatch.setattr(lab, "fix_ce", recorded)
        return pairs

    def test_no_rho_pyramid_of_w(self, monkeypatch):
        pairs = self.record_pairs(monkeypatch)
        run_counterexample(self.LEVELS, 0.5)
        assert [sigma.grid.leaf_level for sigma, _ in pairs] == list(self.LEVELS)
        for sigma, w in pairs:
            assert "rho_levels" in sigma.__dict__ and "rho_levels" not in w.__dict__

    def test_a_scan_of_every_constant_builds_it(self, monkeypatch):
        # negative control: with names=None passed through, the scan covers
        # E_star_symmetric, which reads w's pyramid; the rows do not move
        want = run_counterexample(self.LEVELS, 0.5).rows
        pairs = self.record_pairs(monkeypatch)
        bump_reports = lab._bump_reports
        monkeypatch.setattr(lab, "_bump_reports", lambda *args, names: bump_reports(*args, names=None))
        assert run_counterexample(self.LEVELS, 0.5).rows == want
        assert all("rho_levels" in w.__dict__ for _, w in pairs)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_one_pair_alive_at_a_time(self, monkeypatch, spread, cpus):
        spread(256, cpus)  # with 2 CPUs, a thread pool at N = 12 and 16
        refs, alive, fix_ce = [], [], lab.fix_ce

        def tracked(n):
            alive.append([ref() is not None for ref in refs])
            pair = fix_ce(n)
            refs[:] = [weakref.ref(weight) for weight in pair]
            return pair

        monkeypatch.setattr(lab, "fix_ce", tracked)
        run_counterexample(self.LEVELS, 0.5)
        assert alive == [[], [False, False], [False, False]]
        assert [ref() for ref in refs] == [None, None]


def test_carleson_suite_small(monkeypatch):
    original, sizes = lab.build_instance, []

    def spy(cfg, i):
        built = original(cfg, i)
        sizes.append(len(built[2]))
        return built

    monkeypatch.setattr(lab, "build_instance", spy)
    res = run_carleson_suite(30, (GridConfig(1, 5), GridConfig(1, 6)), (0.5, 0.25), master_seed=3)
    assert res["violations"] == 0
    assert res["worst_ratio"] <= 1.0
    assert res["checked"] >= 30
    assert res["checked"] == sum(sizes)


@pytest.mark.parametrize("grids,lambdas,name", [((), (0.5,), "grids"), ((GridConfig(1, 6),), (), "lambdas")])
def test_carleson_suite_names_an_empty_axis(grids, lambdas, name):
    with pytest.raises(ValueError, match=f"^{name} must be nonempty$"):
        run_carleson_suite(2, grids, lambdas)


def test_carleson_suite_catches_one_lowered_rho(monkeypatch):
    # rho at the deepest member of instance 1 (51 members) falls to half of
    # 1 - lambda, so that member's ratio (1 - lambda)/rho becomes 2 and no
    # other ratio moves
    original = lab.build_instance

    def lowered(cfg, i):
        sigma, w, family, seed = original(cfg, i)
        if i == 1:
            q = family.members[-1]
            levels = [np.array(r) for r in sigma.rho_levels]
            levels[q.level][q.index] = 0.5 * (1.0 - cfg.lam)
            # rho_levels is a cached property: every reader sees this copy
            sigma.__dict__["rho_levels"] = tuple(levels)
        return sigma, w, family, seed

    res = run_carleson_suite(2, (GridConfig(1, 10),), (0.5,), master_seed=7)
    assert res["violations"] == 0 and res["worst_ratio"] <= 1.0
    monkeypatch.setattr(lab, "build_instance", lowered)
    res = run_carleson_suite(2, (GridConfig(1, 10),), (0.5,), master_seed=7)
    assert res["violations"] == 1
    assert res["worst_ratio"] > 1.0


def test_sweep_aggregates():
    cfg = ExperimentConfig(instances=2, master_seed=2, target_size=10, budget=4)
    rep = run_sweep(cfg, levels=(5, 6), lambdas=(0.5,))
    assert rep.violations == 0
    assert [r["N"] for r in rep.rows] == [5, 6]
    # the report stamps the axes next to the config's fields
    stamp = rep.environment["config"]
    assert (stamp["levels"], stamp["lambdas"]) == ((5, 6), (0.5,))
    assert {k: v for k, v in stamp.items() if k not in ("levels", "lambdas")} == dataclasses.asdict(cfg)


@pytest.fixture()
def fixture_files(tmp_path):
    s, _ = fix_const()
    g = GridConfig(1, 4)
    fam = SparseFamily(g, frozenset(fix_chain_cubes(g, 4)), 0.5)
    wpath = tmp_path / "fixconst.json"
    fpath = tmp_path / "chain.json"
    wpath.write_text(weight_to_json(s))
    fpath.write_text(family_to_json(fam))
    return wpath, fpath


class TestCli:
    def test_constants_subcommand(self, fixture_files, capsys):
        wpath, _ = fixture_files
        code = cli_main(["constants", "--weights", str(wpath),
                         "--p", "2", "--q", "4", "--alpha", "0", "--eps", "entropy:1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["A"] == 2.0 and out["E"] == 2.0
        assert out["skipped"].startswith("D")

    def test_constants_direct_eps(self, fixture_files, capsys):
        wpath, _ = fixture_files
        code = cli_main(["constants", "--weights", str(wpath),
                         "--p", "2", "--q", "4", "--eps", "direct:1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["D"] == 2.0

    def test_trace_subcommand_passes(self, fixture_files, capsys):
        wpath, fpath = fixture_files
        code = cli_main(["trace", "--family", str(fpath), "--weights", str(wpath),
                         "--p", "2", "--q", "4", "--eps", "entropy:1"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["passed"] is True and out["schema"] == "trace/v1"
        assert out["kind"] == "entropy" and out["R"] == "0:0"

    def test_trace_dual_flag(self, fixture_files, capsys):
        wpath, fpath = fixture_files
        code = cli_main(["trace", "--family", str(fpath), "--weights", str(wpath),
                         "--p", "2", "--q", "4", "--eps", "direct:1", "--dual"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    @pytest.mark.parametrize("cube", (None, "2:0"))
    def test_trace_runs_the_chain_of_the_eps_kind(self, fixture_files, capsys, cube):
        # a --kind flag defaulting to entropy used to override the eps kind
        wpath, fpath = fixture_files
        argv = ["trace", "--family", str(fpath), "--weights", str(wpath), "--p", "2", "--q", "4",
                "--eps", "direct:0.5"]
        assert cli_main(argv + (["--cube", cube] if cube else [])) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["kind"] == "direct" and out["eps"]["kind"] == "direct" and out["eps"]["delta"] == 0.5
        assert out["R"] == (cube or "0:0")

    @pytest.mark.parametrize("command,flag", [("norm", "--eps"), ("testing", "--eps"), ("trace", "--kind")])
    def test_flags_a_command_does_not_read_exit_2(self, fixture_files, capsys, command, flag):
        # norm and testing take no eps, and the eps kind names the chain of a trace
        wpath, fpath = fixture_files
        value = "direct:7" if flag == "--eps" else "entropy"
        assert cli_main([command, "--family", str(fpath), "--weights", str(wpath), flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err

    def test_testing_subcommand(self, fixture_files, capsys):
        wpath, fpath = fixture_files
        code = cli_main(["testing", "--family", str(fpath), "--weights", str(wpath),
                         "--p", "2", "--q", "4"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        # per-R value is 2^{j/4} on the chain; the deepest cube (j = 4) wins
        assert out["T"] == pytest.approx(2.0, rel=1e-12)
        assert out["argmax_R"] == "4:0"

    @pytest.mark.parametrize("given", ([], ["--sigma"], ["--w"]))
    def test_testing_without_weights_exits_2(self, fixture_files, capsys, given):
        wpath, fpath = fixture_files
        argv = ["testing", "--family", str(fpath)] + [x for flag in given for x in (flag, str(wpath))]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: need --weights or both --sigma and --w\n"

    def test_testing_weights_on_two_grids_exit_2(self, fixture_files, tmp_path, capsys):
        wpath, fpath = fixture_files
        other = tmp_path / "other_grid.json"
        other.write_text(weight_to_json(generate_weight(GridConfig(1, 3), "constant", value=1.0)))
        code = cli_main(["testing", "--family", str(fpath), "--sigma", str(wpath),
                         "--w", str(other), "--p", "2", "--q", "4"])
        assert code == 2
        assert "share one grid" in capsys.readouterr().err

    def test_norm_subcommand_diagonal(self, fixture_files, capsys):
        wpath, fpath = fixture_files
        code = cli_main(["norm", "--family", str(fpath), "--weights", str(wpath),
                         "--p", "2", "--q", "2", "--budget", "50"])
        assert code == 0
        out = json.loads(capsys.readouterr().out)
        assert out["lower_bound"] <= out["exact_l2"] + 1e-8

    def test_norm_builds_one_instance(self, fixture_files, capsys, monkeypatch):
        # the lower bound and the exact L2 norm read one instance: sigma(E_Q)
        # and w(E_Q) are each computed once, and so is the dense kernel
        calls = Counter()
        exceptional_mass, kernel = SparseFamily.exceptional_mass, Instance.kernel.func

        def counted_exceptional_mass(self, weight):
            calls["exceptional_mass"] += 1
            return exceptional_mass(self, weight)

        def counted_kernel(self):
            calls["kernel"] += 1
            return kernel(self)

        counted = functools.cached_property(counted_kernel)
        counted.__set_name__(Instance, "kernel")
        monkeypatch.setattr(SparseFamily, "exceptional_mass", counted_exceptional_mass)
        monkeypatch.setattr(Instance, "kernel", counted)
        wpath, fpath = fixture_files
        code = cli_main(["norm", "--family", str(fpath), "--weights", str(wpath),
                         "--p", "2", "--q", "2", "--budget", "50"])
        assert code == 0
        assert "exact_l2" in json.loads(capsys.readouterr().out)
        assert calls == {"exceptional_mass": 2, "kernel": 1}

    def test_verify_bounds_writes_reports(self, tmp_path, capsys):
        code = cli_main(["verify-bounds", "--instances", "2", "--leaf-level", "5",
                         "--seed", "4", "--target-size", "10", "--budget", "4",
                         "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "verify_bounds.csv").exists()
        assert (tmp_path / "verify_bounds.json").exists()

    @pytest.mark.parametrize("argv", [
        ["--lambda", "0.9", "--q", "11.01", "--volatility", "0.3", "--seed", "130014", "--target-size", "62"],
        ["--lambda", "0.25", "--q", "50", "--seed", "249247", "--target-size", "26", "--delta", "0.5",
         "--family-kind", "random"],
    ], ids=("q11", "q50"))
    def test_a_bound_past_the_double_range_exits_0(self, tmp_path, capsys, argv):
        # the dual chains run at q = p' = 101, where their bounds pass the
        # largest double; they are inf, and no check fails
        code = cli_main(["verify-bounds", "--instances", "3", "--leaf-level", "12", "--p", "1.01",
                         "--budget", "0", "--out-dir", str(tmp_path), *argv])
        assert code == 0
        assert json.loads((tmp_path / "verify_bounds.json").read_text())["violations"] == 0

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "suite.json"
        cfg_path.write_text(json.dumps(dict(SMALL, instances=1)))
        code = cli_main(["verify-bounds", "--config", str(cfg_path),
                         "--instances", "2", "--out-dir", str(tmp_path / "out")])
        assert code == 0
        text = (tmp_path / "out" / "verify_bounds.csv").read_text()
        assert len(text.splitlines()) == 3  # header + 2 rows

    def test_counterexample_subcommand(self, capsys):
        code = cli_main(["counterexample", "--levels", "6,8", "--delta", "0.5"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("N,llogl,A,E,D")

    @pytest.mark.parametrize("argv", [
        ["verify-bounds", "--instances", "1", "--delta", "inf"],
        ["sweep", "--instances", "1", "--delta", "inf"],
        ["counterexample", "--levels", "8", "--delta", "inf"],
    ])
    def test_infinite_delta_exits_2(self, capsys, argv):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == "error: need a finite delta > 0, got inf\n"

    @pytest.mark.parametrize("argv", [
        ["verify-bounds", "--instances", "2", "--delta", "1000"],
        ["sweep", "--instances", "2", "--delta", "1000"],
        ["counterexample", "--levels", "8", "--delta", "1000"],
    ], ids=("verify-bounds", "sweep", "counterexample"))
    def test_delta_past_the_margins_range_exits_2(self, capsys, monkeypatch, argv):
        # at delta = 1000 eps overflowed, and the suite reported D = inf and
        # two violations that were false
        built = []
        monkeypatch.setattr(lab, "build_instance", lambda *args: built.append(args))
        monkeypatch.setattr(lab, "fix_ce", lambda *args: built.append(args))
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == ("error: need delta <= 10, the range of "
                                           "bumps.SCORE_MARGIN, got 1000.0\n")
        assert built == []

    def test_delta_past_the_margins_range_in_eps_exits_2(self, fixture_files, capsys):
        wpath, _ = fixture_files
        assert cli_main(["constants", "--weights", str(wpath), "--eps", "direct:1000"]) == 2
        assert "argument --eps: need delta <= 10" in capsys.readouterr().err

    def test_delta_at_the_bound_runs(self, tmp_path, capsys):
        code = cli_main(["verify-bounds", "--instances", "2", "--leaf-level", "6", "--seed", "4",
                         "--budget", "2", "--delta", "10", "--out-dir", str(tmp_path)])
        assert code == 0
        assert json.loads((tmp_path / "verify_bounds.json").read_text())["violations"] == 0

    def test_alpha_at_d_exits_2_before_any_instance(self, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(lab, "build_instance", lambda *args: built.append(args))
        assert cli_main(["verify-bounds", "--instances", "2", "--alpha", "1"]) == 2
        assert capsys.readouterr().err == "error: need 0 <= alpha < d, got alpha=1.0\n"
        assert built == []

    def test_diagonal_suite_takes_no_flag(self, tmp_path, capsys):
        code = cli_main(["verify-bounds", "--instances", "2", "--leaf-level", "6", "--seed", "4",
                         "--budget", "2", "--p", "2", "--q", "2", "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "verify_bounds.json").read_text())
        assert report["violations"] == 0 and "mode" not in report["environment"]["config"]

    def test_testing_at_p_equal_q_reports_extended(self, fixture_files, capsys):
        wpath, fpath = fixture_files
        assert cli_main(["testing", "--family", str(fpath), "--weights", str(wpath),
                         "--p", "2", "--q", "2"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["mode"] == "extended" and out["extended_warning"] is True

    def test_infinite_eps_delta_exits_2(self, fixture_files, capsys):
        wpath, _ = fixture_files
        assert cli_main(["constants", "--weights", str(wpath), "--eps", "entropy:inf"]) == 2
        assert "argument --eps: need a finite delta > 0, got inf" in capsys.readouterr().err

    def test_cube_of_another_dimension_exits_2(self, fixture_files, tmp_path, capsys):
        wpath, _ = fixture_files
        fpath = tmp_path / "mixed.json"
        fpath.write_text(json.dumps({"dimension": 1, "leaf_level": 4, "lambda": 0.5,
                                     "root": "0:0", "cubes": ["0:0", "1:(0,0)"]}))
        code = cli_main(["testing", "--family", str(fpath), "--weights", str(wpath)])
        assert code == 2
        assert "error: cube 1:(0,0) is not of dimension 1" in capsys.readouterr().err

    @pytest.mark.parametrize("which,record,problem", [
        ("weights", {"dimension": 1, "leaf_level": 4}, "weight JSON lacks leaf_density"),
        ("weights", [1.0, 1.0], "weight JSON must be an object, got list"),
        ("family", {"dimension": 1, "leaf_level": 4, "lambda": 0.5, "root": "0:0"},
         "family JSON lacks cubes"),
        ("config", [SMALL], "config must be a JSON object, got list"),
        ("config", {"instances": "x"}, "config field instances must be int, got 'x'"),
        ("weights", {"dimension": 1, "leaf_level": "x", "leaf_density": ["1.0"] * 16},
         "weight JSON field leaf_level must be int, got 'x'"),
        ("weights", {"dimension": 1, "leaf_level": 4, "leaf_density": 5},
         "weight JSON field leaf_density must be a list, got 5"),
        ("family", {"dimension": 1, "leaf_level": 4, "lambda": 0.5, "root": "0:0", "cubes": [0]},
         "family JSON field cubes must hold str, got 0"),
        ("sweep", {"levels": ["a"]}, "unknown config fields: ['levels']"),
        ("config --instances 1", [1], "config must be a JSON object, got list"),
        ("sweep --instances 1", [1], "config must be a JSON object, got list"),
        ("config", {"out_dir": 5}, "unknown config fields: ['out_dir']"),
        ("sweep", {"out_dir": 5}, "unknown config fields: ['out_dir']"),
        ("config", {"levels": [6], "lambdas": [0.5]}, "unknown config fields: ['lambdas', 'levels']"),
        ("sweep", {"lam": 0.25, "leaf_level": 6, "instances": 1},
         "a sweep's --levels and --lambdas set leaf_level and lam; its config names ['lam', 'leaf_level']"),
        ("weights", {"dimension": 1, "leaf_level": 3, "leaf_density": ["1.0"] * 7},
         "weight JSON field leaf_density must hold 8 values, got 7"),
    ], ids=("weight-no-density", "weight-list", "family-no-cubes", "config-list", "config-str-count",
            "weight-str-level", "weight-int-density", "family-int-cube", "sweep-str-level",
            "config-list-with-flag", "sweep-list-with-flag", "config-int-out-dir", "sweep-int-out-dir",
            "config-sweep-axes", "sweep-axis-fields", "weight-short-density"))
    def test_malformed_input_json_exits_2(self, fixture_files, tmp_path, capsys, which, record, problem):
        # `which` names the input file, then any flags a suite command adds
        which, *flags = which.split()
        paths = dict(zip(("weights", "family"), map(str, fixture_files)))
        paths[which] = str(tmp_path / "input.json")
        (tmp_path / "input.json").write_text(json.dumps(record))
        if which in ("config", "sweep"):
            argv = ["verify-bounds" if which == "config" else "sweep", "--config", paths[which], *flags]
        else:
            argv = ["testing", "--family", paths["family"], "--weights", paths["weights"]]
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {problem}\n"

    def test_unknown_command_exits_2(self, capsys):
        assert cli_main(["bogus"]) == 2

    def test_bad_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "bad.json"
        cfg_path.write_text(json.dumps({"lam": 2.0}))
        code = cli_main(["verify-bounds", "--config", str(cfg_path)])
        assert code == 2
        assert "error:" in capsys.readouterr().err

    def test_env_seed_default(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SPARSEBUMP_SEED", "123")
        cli_main(["verify-bounds", "--instances", "1", "--leaf-level", "5",
                  "--target-size", "8", "--budget", "2", "--out-dir", str(tmp_path / "a")])
        monkeypatch.delenv("SPARSEBUMP_SEED")
        cli_main(["verify-bounds", "--instances", "1", "--leaf-level", "5",
                  "--target-size", "8", "--budget", "2", "--seed", "123",
                  "--out-dir", str(tmp_path / "b")])
        a = (tmp_path / "a" / "verify_bounds.csv").read_text()
        b = (tmp_path / "b" / "verify_bounds.csv").read_text()
        assert a == b

    def test_norm_negative_budget_exits_2(self, fixture_files, capsys):
        wpath, fpath = fixture_files
        code = cli_main(["norm", "--family", str(fpath), "--weights", str(wpath), "--budget", "-1"])
        assert code == 2
        assert "budget must be >= 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,bad", ((["--dimension", "2"], "[1, 12] for d=2, got [16, 20]"),
                                          (["--levels", "6,99"], "[1, 24] for d=1, got [99]")),
                             ids=("d2-default-levels", "d1-level-99"))
    def test_sweep_levels_past_the_grid_are_named(self, monkeypatch, capsys, argv, bad):
        # the default levels (8, 12, 16, 20) pass d=2's deepest grid; the
        # error used to name leaf_level, a flag the user never gave
        built = []
        monkeypatch.setattr(lab, "build_instance", lambda *args: built.append(args))
        assert cli_main(["sweep", "--instances", "1", *argv]) == 2
        assert capsys.readouterr().err == f"error: levels must be in {bad}\n"
        assert built == []

    @pytest.mark.parametrize("argv", (["--levels", ""], ["--levels", "6,99"], ["--lambdas", ""],
                                      ["--lambdas", "0.5,1.5"], ["--dimension", "2", "--levels", "4,13"]))
    def test_bad_sweep_grid_exits_2_before_any_instance(self, monkeypatch, capsys, argv):
        # each used to build the instances of its valid (level, lambda)
        # pairs first, or to print an empty report and exit 0
        built = []
        build = lab.build_instance

        def spy(cfg, i):
            built.append((cfg.leaf_level, i))
            return build(cfg, i)

        monkeypatch.setattr(lab, "build_instance", spy)
        code = cli_main(["sweep", "--instances", "1", "--target-size", "8", "--budget", "2", *argv])
        assert code == 2
        assert "error:" in capsys.readouterr().err
        assert built == []

    def test_sweep_subcommand(self, tmp_path):
        code = cli_main(["sweep", "--instances", "1", "--levels", "5,6",
                         "--lambdas", "0.5,0.25", "--target-size", "8", "--budget", "2",
                         "--seed", "3", "--out-dir", str(tmp_path)])
        assert code == 0
        assert (tmp_path / "sweep.csv").exists()
        report = json.loads((tmp_path / "sweep.json").read_text())
        assert [(r["N"], r["lambda"]) for r in report["rows"]] == [(5, 0.5), (5, 0.25), (6, 0.5), (6, 0.25)]
        config = report["environment"]["config"]
        assert (config["levels"], config["lambdas"], config["master_seed"]) == ([5, 6], [0.5, 0.25], 3)


# per suite input (an ExperimentConfig field, a sweep axis or the output
# directory): its flag, a value's text, and the value, which differs from
# the default
SUITE_FLAGS = {
    "dimension": ("--dimension", "2", 2),
    "leaf_level": ("--leaf-level", "5", 5),
    "lam": ("--lambda", "0.25", 0.25),
    "p": ("--p", "1.5", 1.5),
    "q": ("--q", "4", 4.0),
    "alpha": ("--alpha", "0.5", 0.5),
    "delta": ("--delta", "0.5", 0.5),
    "instances": ("--instances", "3", 3),
    "master_seed": ("--seed", "7", 7),
    "budget": ("--budget", "0", 0),
    "target_size": ("--target-size", "9", 9),
    "volatility": ("--volatility", "0.9", 0.9),
    "family_kind": ("--family-kind", "stopping", "stopping"),
    "levels": ("--levels", "5,7", (5, 7)),
    "lambdas": ("--lambdas", "0.5,0.125", (0.5, 0.125)),
    "out_dir": ("--out-dir", "reports", "reports"),
}

# per suite command, the inputs it does not read: a verify-bounds run has no
# axes, and a sweep's axes set its leaf_level and lam
NOT_READ = {"verify-bounds": {"levels", "lambdas"}, "sweep": {"leaf_level", "lam"}}

CONFIG_FIELDS = {f.name for f in dataclasses.fields(ExperimentConfig)}


def _suite_cfg(command, *argv) -> ExperimentConfig:
    return cli._suite_config(cli.build_parser().parse_args([command, *argv]))


def _options(command) -> set:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {a.option_strings[0] for a in sub.choices[command]._actions if a.dest != "help"}


class TestSuiteFlags:
    """verify-bounds takes one flag per ExperimentConfig field and
    --out-dir; sweep takes the same, but its axes --levels and --lambdas
    for --leaf-level and --lambda.  No command takes a flag it ignores."""

    def test_table_covers_every_field(self):
        assert CONFIG_FIELDS <= set(SUITE_FLAGS) and len(CONFIG_FIELDS) == 13
        # 15 options each: --config, --out-dir and one per field, of which
        # a sweep's axes replace two
        for command in ("verify-bounds", "sweep"):
            want = {"--config"} | {flag for name, (flag, _, _) in SUITE_FLAGS.items()
                                   if name not in NOT_READ[command]}
            assert _options(command) == want and len(want) == 15

    @pytest.mark.parametrize("command", ("verify-bounds", "sweep"))
    @pytest.mark.parametrize("name", list(SUITE_FLAGS))
    def test_every_field_has_a_flag(self, monkeypatch, capsys, command, name):
        monkeypatch.delenv("SPARSEBUMP_SEED", raising=False)
        flag, text, value = SUITE_FLAGS[name]
        if name in NOT_READ[command]:
            assert cli_main([command, flag, text, "--instances", "0"]) == 2
            assert f"unrecognized arguments: {flag} {text}" in capsys.readouterr().err
            return
        args = cli.build_parser().parse_args([command, flag, text])
        if name not in CONFIG_FIELDS:
            # an axis or the output directory: an argument, not a config field
            assert getattr(args, name) == value
            assert cli._suite_config(args) == ExperimentConfig()
            return
        assert value != getattr(ExperimentConfig(), name)
        cfg = cli._suite_config(args)
        assert getattr(cfg, name) == value
        assert cfg == dataclasses.replace(ExperimentConfig(), **{name: value})

    def test_flag_over_file_over_environment(self, tmp_path, monkeypatch):
        path = tmp_path / "suite.json"
        path.write_text(json.dumps({"master_seed": 5, "instances": 4}))
        monkeypatch.setenv("SPARSEBUMP_SEED", "9")
        assert _suite_cfg("verify-bounds").master_seed == 9
        assert _suite_cfg("verify-bounds", "--config", str(path)).master_seed == 5
        cfg = _suite_cfg("sweep", "--config", str(path), "--seed", "3", "--instances", "2")
        assert (cfg.master_seed, cfg.instances) == (3, 2)
        assert _suite_cfg("verify-bounds", "--seed", "3").master_seed == 3
        monkeypatch.delenv("SPARSEBUMP_SEED")
        assert _suite_cfg("verify-bounds").master_seed == ExperimentConfig().master_seed

    @pytest.mark.parametrize("command", ("verify-bounds", "sweep"))
    # --mode is no flag of any subcommand, nor --levels of verify-bounds:
    # argparse rejects each and names its value
    @pytest.mark.parametrize("flag,text", [("--mode", "bogus"), ("--family-kind", "nope"),
                                           ("--instances", "x"), ("--levels", "5,a"),
                                           ("--volatility", "1.5")])
    def test_bad_value_exits_2_naming_it(self, capsys, command, flag, text):
        assert cli_main([command, flag, text, "--instances", "0"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and text in err.splitlines()[-1]


class TestSeeds:
    """A negative master seed, or a SPARSEBUMP_SEED that is no int, exits 2
    naming it before any instance is built."""

    @pytest.mark.parametrize("argv,env,message", [
        (["verify-bounds", "--seed", "-1", "--instances", "0"], None, "master_seed must be >= 0, got -1"),
        (["verify-bounds", "--seed", "-1", "--instances", "1"], None, "master_seed must be >= 0, got -1"),
        (["sweep", "--seed", "-3", "--instances", "1"], None, "master_seed must be >= 0, got -3"),
        (["verify-bounds", "--instances", "1"], "-2", "master_seed must be >= 0, got -2"),
        (["verify-bounds", "--instances", "1"], "abc", "SPARSEBUMP_SEED must be an int, got 'abc'"),
        (["sweep", "--instances", "1"], "abc", "SPARSEBUMP_SEED must be an int, got 'abc'"),
    ], ids=("verify-flag-0", "verify-flag-1", "sweep-flag", "verify-env-negative", "verify-env-str",
            "sweep-env-str"))
    def test_suite_seed(self, monkeypatch, capsys, argv, env, message):
        monkeypatch.delenv("SPARSEBUMP_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("SPARSEBUMP_SEED", env)
        built = []
        monkeypatch.setattr(lab, "build_instance", lambda *args: built.append(args))
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert built == []

    @pytest.mark.parametrize("flags,env,message", [
        (["--seed", "-1"], None, "seed must be >= 0, got -1"),
        ([], "-1", "seed must be >= 0, got -1"),
        ([], "abc", "SPARSEBUMP_SEED must be an int, got 'abc'"),
    ], ids=("flag", "env-negative", "env-str"))
    def test_norm_seed(self, fixture_files, monkeypatch, capsys, flags, env, message):
        monkeypatch.delenv("SPARSEBUMP_SEED", raising=False)
        if env is not None:
            monkeypatch.setenv("SPARSEBUMP_SEED", env)
        calls = []
        monkeypatch.setattr(cli, "norm_lower_bound", lambda *args, **kwargs: calls.append(args))
        wpath, fpath = fixture_files
        assert cli_main(["norm", "--family", str(fpath), "--weights", str(wpath), *flags]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert calls == []


def _inflate(monkeypatch, name):
    """Wrap lab.testing_constants so that its report's `name` is 1e3 times
    the computed one."""
    original = lab.testing_constants

    def inflated(*args, **kwargs):
        rep = original(*args, **kwargs)
        return dataclasses.replace(rep, **{name: getattr(rep, name) * 1e3})

    monkeypatch.setattr(lab, "testing_constants", inflated)


class TestNegativeControls:
    """The suite must count a violation when a testing constant is inflated
    past its certified bound, and the CLI must then exit 1."""

    @pytest.fixture()
    def inflated_t(self, monkeypatch):
        _inflate(monkeypatch, "T")

    def test_suite_counts_violations(self, inflated_t):
        rep = run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=3)))
        assert rep.violations == 3
        assert all(row["certified_CE_ratio"] > 1.0 for row in rep.rows)

    def test_cli_exits_1(self, inflated_t, tmp_path, capsys):
        code = cli_main(["verify-bounds", "--instances", "2", "--leaf-level", "5",
                         "--seed", "4", "--target-size", "10", "--budget", "4",
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 2


class _OneCheckControl:
    """A testing quantity that one suite check alone reads, inflated: every
    instance must count a violation while the certified ratios and trace
    flags that the report shows hold, and the CLI must then exit 1."""

    def test_suite_counts_violations(self):
        rep = run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=3)))
        assert rep.violations == 3
        assert all(row["certified_CE_ratio"] <= 1.0 and row["certified_CD_ratio"] <= 1.0 for row in rep.rows)
        assert all(row["trace_entropy_pass"] and row["trace_direct_pass"] for row in rep.rows)

    def test_cli_exits_1(self, tmp_path, capsys):
        code = cli_main(["verify-bounds", "--instances", "2", "--leaf-level", "5",
                         "--seed", "4", "--target-size", "10", "--budget", "4",
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 2


class TestDualCertificateControl(_OneCheckControl):
    """T* inflated fails both dual certificates, T* <= C E*_sym and T* <= C D*."""

    @pytest.fixture(autouse=True)
    def inflated_t_star(self, monkeypatch):
        _inflate(monkeypatch, "T_star")

    @pytest.mark.parametrize("loosened", ("dual_direct_trace", "dual_entropy_trace"),
                             ids=("entropy-kept", "direct-kept"))
    def test_each_certificate_fails_alone(self, monkeypatch, loosened):
        # the other dual chain's certified constant made infinite: its
        # certificate cannot fail, and the one kept must count every instance
        original = getattr(lab, loosened)
        monkeypatch.setattr(lab, loosened, lambda *args, **kwargs: dataclasses.replace(
            original(*args, **kwargs), certified_constant=float("inf")))
        assert run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=3))).violations == 3


class TestPerRControl(_OneCheckControl):
    """The per-R terms of T inflated fail "indicator ratios >= per-R terms"."""

    @pytest.fixture(autouse=True)
    def inflated_per_r(self, monkeypatch):
        _inflate(monkeypatch, "per_R")


class TestLeafPathControl:
    """The member-form indicator ratio at each instance's seeded R is checked
    against the leaf path: a ratio corrupted by a part in 1e9 must count as
    a violation, and the CLI must then exit 1."""

    @pytest.fixture()
    def corrupted_ratios(self, monkeypatch):
        original = Instance.indicator_ratios.func
        monkeypatch.setattr(Instance, "indicator_ratios",
                            property(lambda inst: original(inst) * (1.0 + 1e-9)))

    def test_suite_counts_violations(self, corrupted_ratios):
        rep = run_verify_bounds(ExperimentConfig(**dict(SMALL, instances=3)))
        assert rep.violations == 3
        # the corruption moves nothing the other checks read against
        assert all(row["trace_entropy_pass"] and row["trace_direct_pass"] for row in rep.rows)
        assert all(row["certified_CE_ratio"] <= 1.0 for row in rep.rows)

    def test_cli_exits_1(self, corrupted_ratios, tmp_path, capsys):
        code = cli_main(["verify-bounds", "--instances", "2", "--leaf-level", "5",
                         "--seed", "4", "--target-size", "10", "--budget", "4",
                         "--out-dir", str(tmp_path)])
        assert code == 1
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["violations"] == 2


def test_two_dimensional_suite_has_no_violations():
    rep = run_verify_bounds(ExperimentConfig(**dict(SMALL, dimension=2, leaf_level=4,
                                                    alpha=0.5)))
    assert rep.violations == 0
