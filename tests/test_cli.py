import argparse
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mmotlab
from mmotlab import BUILTIN_COSTS, Coupling, DiscreteMarginal, ProductSpace
from mmotlab.cli import build_parser, main
from mmotlab.experiments import experiment_registry
from mmotlab.io import dump_coupling, dump_marginal


@pytest.fixture
def triple_files(tmp_path):
    m = DiscreteMarginal([0.0, 1.0, 2.0], [1 / 3, 1 / 3, 1 / 3])
    paths = []
    for a in range(3):
        p = tmp_path / f"m{a}.json"
        dump_marginal(m, p)
        paths.append(str(p))
    return paths, ProductSpace([m, m, m])


def _marg_args(paths):
    out = []
    for p in paths:
        out += ["--marginal", p]
    return out


class TestExitCodes:
    def test_no_subcommand_is_usage_error(self):
        assert main([]) == 1

    def test_unknown_subcommand(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["solve", "--cost", "coulomb1d"]) == 1

    def test_unknown_cost(self, triple_files):
        paths, _ = triple_files
        assert main(["solve", *_marg_args(paths), "--cost", "nope"]) == 1

    def test_missing_file(self):
        args = ["solve", "--marginal", "/does/not/exist.json",
                "--marginal", "/does/not/exist.json", "--cost", "coulomb1d"]
        assert main(args) == 1

    def test_unknown_experiment(self, capsys):
        assert main(["repro", "no-such-thing"]) == 1
        err = capsys.readouterr().err
        assert "coulomb-equal" in err  # usage error lists the registry

    def test_tolerance_flag_on_a_command_that_ignores_it(self):
        assert main(["signature", "--cost", "expcos", "--tol-grad", "5"]) == 1

    def test_format_on_a_command_without_a_coupling(self, triple_files, tmp_path):
        paths, space = triple_files
        plan = Coupling({(i, i, i): 1 / 3 for i in range(3)}, space)
        cpath = tmp_path / "plan.json"
        dump_coupling(plan, cpath)
        args = ["extremal", *_marg_args(paths), "--coupling", str(cpath)]
        assert main([*args, "--format", "csv", "--out", str(tmp_path / "e.csv")]) == 1
        assert main([*args, "--out", str(tmp_path / "e.json")]) == 0

    def test_flags_registered_only_where_read(self):
        subcommands = _subcommands()
        tols = {
            "solve": {"--tol-dual"},
            "decompose": {"--tol-support"},
            "check-monotone": {"--tol-support"},
            "check-splitting": {"--tol-dual", "--tol-support"},
            "twist-count": {"--tol-dual", "--tol-grad"},
        }
        for name, sub in subcommands.items():
            options = {opt for action in sub._actions for opt in action.option_strings}
            assert {opt for opt in options if opt.startswith("--tol-")} == tols.get(name, set())
            assert ("--format" in options) == (name in ("solve", "witness")), name
            for action in sub._actions:
                if "--cost" in action.option_strings:
                    assert list(action.choices) == list(BUILTIN_COSTS)

    def test_check_splitting_with_tolerances(self, triple_files, tmp_path):
        paths, _ = triple_files
        out = tmp_path / "s.json"
        code = main(["check-splitting", *_marg_args(paths), "--cost", "coulomb1d",
                     "--tol-dual", "1e-9", "--tol-support", "1e-10", "--out", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["payload"]["support_size"] == 3

    def test_solve_success(self, triple_files, tmp_path):
        paths, _ = triple_files
        out = tmp_path / "report.json"
        code = main(
            ["solve", *_marg_args(paths), "--cost", "coulomb1d", "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["tool"] == "mmotlab"
        assert report["payload"]["primal_value"] == pytest.approx(2.5)

    def test_verification_failure_exits_2(self, triple_files, tmp_path):
        paths, space = triple_files
        # the identity diagonal is feasible for xyz but badly non-monotone
        plan = Coupling({(i, i, i): 1 / 3 for i in range(3)}, space)
        cpath = tmp_path / "plan.json"
        dump_coupling(plan, cpath)
        code = main(
            [
                "check-monotone",
                *_marg_args(paths),
                "--cost",
                "xyz",
                "--coupling",
                str(cpath),
                "--out",
                str(tmp_path / "r.json"),
            ]
        )
        assert code == 2


    def test_nan_weight_marginal_is_a_usage_error(self, triple_files, tmp_path, capsys):
        paths, _ = triple_files
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(
            {"d": 1, "points": [[0.0], [1.0], [2.0]], "weights": [0.5, float("nan"), 0.5]}
        ))
        assert main(["solve", *_marg_args([str(bad), *paths[1:]]), "--cost", "coulomb1d"]) == 1
        assert "weights must be finite" in capsys.readouterr().err

    def test_signed_zero_points_are_a_usage_error(self, triple_files, tmp_path, capsys):
        paths, _ = triple_files
        bad = tmp_path / "signed_zero.json"
        bad.write_text(json.dumps(
            {"d": 1, "points": [[0.0], [-0.0], [1.0]], "weights": [0.25, 0.25, 0.5]}
        ))
        assert main(["solve", *_marg_args([str(bad)] * 3), "--cost", "coulomb1d"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mmotlab: error: {bad}: ") and "pairwise distinct" in err

    @pytest.mark.parametrize("name, flag", [
        ("twowell-extremal", "--grid-size"),
        ("coulomb-equal", "--seed"),
        ("symmetric-witness", "--seed"),
    ])
    def test_repro_flag_the_experiment_lacks(self, name, flag, capsys):
        assert main(["repro", name, flag, "6"]) == 1
        err = capsys.readouterr().err
        assert flag in err and name in err

    def test_marginal_file_missing_a_key(self, triple_files, tmp_path, capsys):
        paths, _ = triple_files
        bad = tmp_path / "no_weights.json"
        bad.write_text(json.dumps({"d": 1, "points": [[0.0], [1.0], [2.0]]}))
        assert main(["solve", *_marg_args([str(bad), *paths[1:]]), "--cost", "coulomb1d"]) == 1
        err = capsys.readouterr().err
        assert "'weights'" in err and str(bad) in err

    def test_maps_file_missing_a_key(self, triple_files, tmp_path, capsys):
        paths, _ = triple_files
        mpath = tmp_path / "maps.json"
        mpath.write_text(json.dumps({"maps": [{"H": {"0": 0, "1": 1, "2": 2}}]}))
        assert main(["thm41", *_marg_args(paths), "--maps", str(mpath)]) == 1
        err = capsys.readouterr().err
        assert "'K'" in err and str(mpath) in err

    def test_coupling_entry_missing_its_mass(self, triple_files, tmp_path, capsys):
        paths, _ = triple_files
        cpath = tmp_path / "plan.json"
        cpath.write_text(json.dumps({"entries": [{"idx": [0, 0, 0]}]}))
        assert main(["extremal", *_marg_args(paths), "--coupling", str(cpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mmotlab: error: {cpath}: ") and "'mass'" in err

    def test_maps_entries_that_are_not_objects(self, triple_files, tmp_path, capsys):
        paths, _ = triple_files
        mpath = tmp_path / "maps.json"
        mpath.write_text(json.dumps({"maps": [[[0, 0], [1, 1], [2, 2]]]}))
        assert main(["thm41", *_marg_args(paths), "--maps", str(mpath)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mmotlab: error: {mpath}: ") and "'H'" in err


def test_cli_import_loads_no_scipy():
    src = str(Path(mmotlab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = "import sys, mmotlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _subcommands():
    return next(
        action.choices for action in build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    )


class TestSpec:
    """A report's ``spec`` holds every flag its command reads."""

    @pytest.fixture
    def inputs(self, triple_files, tmp_path):
        paths, space = triple_files
        plan = Coupling({p: 1 / 6 for p in itertools.permutations((0, 1, 2))}, space)
        cpath = tmp_path / "plan.json"
        dump_coupling(plan, cpath)
        mpath = tmp_path / "maps.json"
        ident = {str(i): i for i in range(3)}
        mpath.write_text(json.dumps({"maps": [{"H": ident, "K": ident}]}))
        marg = _marg_args(paths)
        coupling = ["--coupling", str(cpath)]
        return {
            "solve": [*marg, "--cost", "coulomb1d"],
            "decompose": [*marg, *coupling],
            "check-monotone": [*marg, "--cost", "coulomb1d", *coupling],
            "check-splitting": [*marg, "--cost", "coulomb1d"],
            "twist-count": [*marg, "--cost", "coulomb1d"],
            "signature": ["--cost", "expcos", "--samples", "1"],
            "criterion3": ["--cost", "expcos", "--samples", "1"],
            "extremal": [*marg, *coupling],
            "thm41": [*marg, "--maps", str(mpath)],
            "witness": [*marg, *coupling, "--s1", "0", "--s2", "1", "--s3", "2"],
        }

    def _spec(self, tmp_path, argv):
        out = tmp_path / "spec.json"
        assert main([*argv, "--out", str(out)]) in (0, 2)
        return json.loads(out.read_text())["spec"]

    def test_spec_keys_are_the_registered_flags(self, inputs, tmp_path):
        output_only = {"--help", "--out", "--format", "--seed"}
        for name, sub in _subcommands().items():
            if name == "repro":  # reports the experiment's own spec
                continue
            flags = {opt for action in sub._actions for opt in action.option_strings
                     if opt.startswith("--") and opt not in output_only}
            expected = {f[2:].replace("-", "_") for f in flags} - {"marginal"}
            if "--marginal" in flags:
                expected.add("marginals")
            assert set(self._spec(tmp_path, [name, *inputs[name]])) == expected, name

    def test_twist_count_records_tol_dual(self, inputs, tmp_path):
        specs = [
            self._spec(tmp_path, ["twist-count", *inputs["twist-count"], "--tol-dual", tol])
            for tol in ("1e-9", "1e-3")
        ]
        assert specs[0] != specs[1]
        assert [s["tol_dual"] for s in specs] == [1e-9, 1e-3]

    @pytest.mark.parametrize("command", ["check-monotone", "check-splitting"])
    def test_check_commands_record_tol_support(self, inputs, tmp_path, command):
        argv = [command, *inputs[command], "--tol-support", "1e-7"]
        assert self._spec(tmp_path, argv)["tol_support"] == 1e-7


class TestReports:
    def test_reports_byte_identical_except_timing(self, triple_files, tmp_path):
        paths, _ = triple_files
        outs = []
        for name in ("a.json", "b.json"):
            out = tmp_path / name
            code = main(
                ["solve", *_marg_args(paths), "--cost", "coulomb1d", "--out", str(out)]
            )
            assert code == 0
            outs.append(json.loads(out.read_text()))
        for report in outs:
            report.pop("timing_seconds")
        assert json.dumps(outs[0], sort_keys=True) == json.dumps(outs[1], sort_keys=True)

    def test_csv_support_cells(self, triple_files, tmp_path):
        paths, _ = triple_files
        out = tmp_path / "cells.csv"
        code = main(
            [
                "solve",
                *_marg_args(paths),
                "--cost",
                "coulomb1d",
                "--format",
                "csv",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "idx1,idx2,idx3,mass"
        assert len(lines) > 1

    def test_signature_prints_triples(self, capsys):
        code = main(["signature", "--cost", "expcos", "--samples", "5", "--seed", "7"])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.count("(4,2,0)") == 5
        report = json.loads(captured.out)
        assert report["payload"]["signatures"] == [[4, 2, 0]] * 5

    @pytest.mark.parametrize("command, cost, key", [
        ("signature", "coulomb1d", "signatures"),
        ("criterion3", "xyz", "samples"),
    ])
    def test_one_dimensional_samples(self, command, cost, key, tmp_path):
        out = tmp_path / "r.json"
        assert main([command, "--cost", cost, "--samples", "3", "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["payload"][key]) == 3

    def test_decompose_and_extremal(self, triple_files, tmp_path):
        paths, space = triple_files
        plan = Coupling({(0, 1, 2): 1 / 3, (1, 2, 0): 1 / 3, (2, 0, 1): 1 / 3}, space)
        cpath = tmp_path / "plan.json"
        dump_coupling(plan, cpath)
        out = tmp_path / "d.json"
        assert (
            main(
                ["decompose", *_marg_args(paths), "--coupling", str(cpath),
                 "--out", str(out)]
            )
            == 0
        )
        assert json.loads(out.read_text())["payload"]["k"] == 1
        out2 = tmp_path / "e.json"
        assert (
            main(
                ["extremal", *_marg_args(paths), "--coupling", str(cpath),
                 "--out", str(out2)]
            )
            == 0
        )
        assert json.loads(out2.read_text())["payload"]["is_extremal"] is True

    def test_witness_subcommand(self, triple_files, tmp_path):
        import itertools

        paths, space = triple_files
        plan = Coupling(
            {perm: 1 / 6 for perm in itertools.permutations((0, 1, 2))}, space
        )
        cpath = tmp_path / "plan.json"
        dump_coupling(plan, cpath)
        out = tmp_path / "w.json"
        code = main(
            [
                "witness",
                *_marg_args(paths),
                "--coupling",
                str(cpath),
                "--cost",
                "coulomb1d",
                "--s1", "0", "--s2", "1", "--s3", "2",
                "--out", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["payload"]["tv_distance"] >= 1 / 18 - 1e-12

    @staticmethod
    def _thm41_args(tmp_path, **extra):
        """``thm41`` arguments for a valid two-map family, maps file entries added."""
        m12 = DiscreteMarginal([0.0, 1.0], [0.5, 0.5])
        m3 = DiscreteMarginal([0.0, 1.0, 2.0, 3.0], [0.25] * 4)
        paths = []
        for a, m in enumerate((m12, m12, m3)):
            p = tmp_path / f"t{a}.json"
            dump_marginal(m, p)
            paths.append(str(p))
        maps = {
            "maps": [
                {"H": {"0": 0, "1": 1}, "K": {"0": 0, "1": 1}},
                {"H": {"0": 1, "1": 0}, "K": {"0": 2, "1": 3}},
            ],
            **extra,
        }
        mpath = tmp_path / "maps.json"
        mpath.write_text(json.dumps(maps))
        return ["thm41", *_marg_args(paths), "--maps", str(mpath)]

    def test_thm41_subcommand(self, tmp_path):
        out = tmp_path / "t.json"
        code = main([*self._thm41_args(tmp_path), "--out", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["payload"]["hypothesis_iii"] is True

    def test_thm41_theta_missing_constrained_indices(self, tmp_path, capsys):
        assert main(self._thm41_args(tmp_path, theta={"0": 1.0})) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mmotlab: error: {tmp_path / 'maps.json'}: ")
        assert "theta" in err and "[1, 2, 3]" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("pair, message", [
        ({"H": {"0": 0, "5": 1}, "K": {"0": 0, "5": 1}}, "positive-weight"),
        ({"H": {"0": 0, "1": 1}, "K": {"0": 0}}, "share its domain"),
    ])
    def test_thm41_map_errors_name_the_maps_file(self, tmp_path, capsys, pair, message):
        assert main(self._thm41_args(tmp_path, maps=[pair])) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"mmotlab: error: {tmp_path / 'maps.json'}: ") and message in err

    def test_thm41_on_two_marginals_names_no_file(self, tmp_path, capsys):
        argv = self._thm41_args(tmp_path)
        assert main(argv[:1] + argv[3:]) == 1  # one --marginal fewer
        err = capsys.readouterr().err
        assert err == "mmotlab: error: the map hypotheses are stated for three marginals\n"


class TestRegistry:
    def test_at_least_seven_entries(self):
        assert len(experiment_registry()) >= 7

    def test_expected_names_present(self):
        names = {spec.name for spec in experiment_registry()}
        assert {
            "coulomb-equal",
            "coulomb-unequal",
            "coulomb-sharpness-search",
            "xyz-unique",
            "twowell-extremal",
            "expcos-signature",
            "symmetric-witness",
        } <= names

    def test_specs_round_trip_through_json(self):
        for spec in experiment_registry():
            data = spec.to_dict()
            assert json.loads(json.dumps(data)) == data

    def test_repro_runs_clean(self, tmp_path):
        code = main(
            ["repro", "expcos-signature", "--out", str(tmp_path / "r.json")]
        )
        assert code == 0

    def test_repro_with_overrides(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(
            ["repro", "coulomb-unequal", "--grid-size", "6", "--seed", "3",
             "--out", str(out)]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["spec"]["params"]["grid_size"] == 6
        assert report["spec"]["params"]["seed"] == 3
