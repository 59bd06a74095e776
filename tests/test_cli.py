"""Command-line contract: files, manifests, exit codes, config precedence."""

import argparse
import ast
import contextlib
import hashlib
import inspect
import io
import json
import os
import signal
import struct
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import hdp_lab
from hdp_lab import cli, experiments
from hdp_lab.analytics import reversed_bridge_ensemble
from hdp_lab.cli import main
from hdp_lab.stats import VerificationReport


def read_manifest(directory):
    return json.loads((directory / "manifest.json").read_text())


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestSimulate:
    def test_shape_and_columns(self, tmp_path, capsys):
        rc = main(
            [
                "simulate", "--family", "benchmark", "--paths", "3", "--steps", "4",
                "--alpha", "0.5", "--x0", "1", "--seed", "42", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "paths.csv")
        assert header == ["path_id", "t", "B", "B_theta", "L", "X"]
        assert len(rows) == 3 * 5
        manifest = read_manifest(tmp_path)
        assert manifest["schema_version"] == 1
        assert manifest["non_solution_flag"] is False
        assert manifest["master_seed"] == 42

    def test_same_config_twice_is_identical(self, tmp_path):
        argv = [
            "simulate", "--family", "skew", "--paths", "2", "--steps", "50",
            "--theta", "0.5", "--seed", "7",
        ]
        main([*argv, "--out", str(tmp_path / "a")])
        main([*argv, "--out", str(tmp_path / "b")])
        assert (tmp_path / "a" / "paths.csv").read_text() == (
            tmp_path / "b" / "paths.csv"
        ).read_text()

    def test_non_solution_flag_for_negative_alpha_skew(self, tmp_path):
        rc = main(
            [
                "simulate", "--family", "skew", "--alpha", "-0.5", "--theta", "0.5",
                "--paths", "1", "--steps", "20", "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        assert read_manifest(tmp_path)["non_solution_flag"] is True

    def test_reflected_family_columns_are_consistent(self, tmp_path):
        main(
            [
                "simulate", "--family", "reflected", "--alpha", "0.5", "--x0", "0",
                "--paths", "1", "--steps", "100", "--seed", "3", "--out", str(tmp_path),
            ]
        )
        header, rows = read_csv(tmp_path / "paths.csv")
        data = np.array([[float(c) for c in row[1:]] for row in rows])
        t, b, b_theta, ell, x = data.T
        assert np.all(b_theta >= 0.0)
        assert np.all(np.diff(ell) >= 0.0)
        # the explicit solution is the signed power of the reflected driver
        np.testing.assert_allclose(x, (0.5 * b_theta) ** 2, atol=1e-12)

    def test_bad_alpha_exits_2(self, tmp_path, capsys):
        rc = main(["simulate", "--family", "benchmark", "--alpha", "1.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err

    def test_missing_family_exits_2(self, tmp_path):
        assert main(["simulate", "--out", str(tmp_path)]) == 2


class TestVerify:
    def test_unknown_suite_exits_2(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "foo", "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown suite" in capsys.readouterr().err

    def test_msd_suite_passes_and_writes_report(self, tmp_path, capsys):
        rc = main(["verify", "--suite", "msd", "--out", str(tmp_path)])
        assert rc == 0
        reports = json.loads((tmp_path / "verify_msd.json").read_text())
        assert len(reports) == 6
        assert all(entry["pass"] for entry in reports)
        assert all("master_seed" in entry["metadata"] for entry in reports)
        out = capsys.readouterr().out
        assert "6/6 checks passed" in out


class TestDensity:
    def test_skew_point_value(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("b\n0\n")
        rc = main(
            [
                "density", "--which", "skew", "--theta", "0", "--t-end", "1",
                "--points", str(points), "--out", str(tmp_path),
            ]
        )
        assert rc == 0
        _, rows = read_csv(tmp_path / "density_skew.csv")
        assert float(rows[0][1]) == pytest.approx(1.0 / np.sqrt(2.0 * np.pi), rel=1e-12)
        assert rows[0][2] == "ok"

    def test_skew_value_where_two_pi_t_overflows(self, tmp_path):
        # 2*pi*t overflows at t = 1e308, though phi_t(0) = 1/sqrt(2*pi*t) = 3.989e-155
        points = tmp_path / "pts.csv"
        points.write_text("b\n0\n1\n")
        argv = ["density", "--which", "skew", "--theta", "0.5", "--t-end", "1e308",
                "--points", str(points), "--out", str(tmp_path)]
        assert main(argv) == 0
        _, rows = read_csv(tmp_path / "density_skew.csv")
        phi = 1.0 / (np.sqrt(2.0 * np.pi) * 1e154)
        assert [float(row[1]) for row in rows] == pytest.approx([phi, 1.5 * phi], rel=1e-15, abs=0.0)
        assert [row[2] for row in rows] == ["ok", "ok"]

    def test_yb_outside_wedge_flags_row_and_exits_1(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("y,z\n0.5,0.1\n0.5,5.0\n")
        rc = main(
            [
                "density", "--which", "joint-yb", "--theta", "0.5",
                "--points", str(points), "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        _, rows = read_csv(tmp_path / "density_joint_yb.csv")
        assert rows[0][3] == "ok"
        assert rows[1][3] == "outside-support"
        assert float(rows[1][2]) == 0.0

    def test_bl_nonpositive_local_time_flags_row(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("b,l\n0.3,0.2\n0.3,-1\n")
        rc = main(
            [
                "density", "--which", "joint-bl", "--theta", "0.5",
                "--points", str(points), "--out", str(tmp_path),
            ]
        )
        assert rc == 1
        _, rows = read_csv(tmp_path / "density_joint_bl.csv")
        assert rows[0][3] == "ok"
        assert rows[1][3].startswith("invalid")

    def test_missing_points_file_exits_2(self, tmp_path):
        rc = main(
            ["density", "--which", "skew", "--points", str(tmp_path / "nope.csv"),
             "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_yb_with_zero_theta_exits_2(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("y,z\n0.1,0.1\n")
        rc = main(
            ["density", "--which", "joint-yb", "--theta", "0", "--points", str(points),
             "--out", str(tmp_path)]
        )
        assert rc == 2

    def test_header_after_comment_line(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("# pts\nb\n0.1\n")
        rc = main(
            ["density", "--which", "skew", "--theta", "0.5", "--points", str(points),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "density_skew.csv")
        assert header == ["b", "density", "status"]
        assert [row[0] for row in rows] == ["0.10000000000000001"]

    def test_non_finite_points_flagged_and_exit_1(self, tmp_path, capsys):
        points = tmp_path / "pts.csv"
        points.write_text("b\nnan\ninf\n0.1\n")
        rc = main(
            ["density", "--which", "skew", "--theta", "0.5", "--points", str(points),
             "--out", str(tmp_path)]
        )
        assert rc == 1
        _, rows = read_csv(tmp_path / "density_skew.csv")
        assert [row[2] for row in rows] == ["non-finite", "non-finite", "ok"]
        assert rows[0][1] == rows[1][1] == "nan"
        assert "2 flagged" in capsys.readouterr().out

    @pytest.mark.parametrize("t_end", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("which, row", [("skew", "0.1"), ("joint-bl", "0.1,0.2"), ("joint-yb", "0.1,0.2")])
    def test_bad_t_end_exits_2_before_any_row(self, tmp_path, capsys, t_end, which, row):
        # (0.1, 0.2) lies outside the joint-yb wedge at theta = 0.5: no row reaches a density
        points = tmp_path / "pts.csv"
        points.write_text(f"{row}\n")
        out = tmp_path / "out"
        argv = ["density", "--which", which, "--theta", "0.5", "--t-end", t_end,
                "--points", str(points), "--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: t must be positive and finite, got {float(t_end)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("t_end", ["1e103", "1e-120"])
    @pytest.mark.parametrize("which, row", [("joint-bl", "0.3,0.2"), ("joint-yb", "0.5,0.1")])
    def test_joint_normaliser_out_of_range_exits_2(self, tmp_path, capsys, t_end, which, row):
        points = tmp_path / "pts.csv"
        points.write_text(f"{row}\n")
        out = tmp_path / "out"
        argv = ["density", "--which", which, "--theta", "0.5", "--t-end", t_end,
                "--points", str(points), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: t = ") and err.count("\n") == 1
        assert not out.exists()

    def test_wrong_column_count_exits_2(self, tmp_path):
        points = tmp_path / "pts.csv"
        points.write_text("y,z\n0.1\n")
        rc = main(
            ["density", "--which", "joint-yb", "--theta", "0.5", "--points", str(points),
             "--out", str(tmp_path)]
        )
        assert rc == 2


class TestScalarCommands:
    def test_msd_closed_form_only(self, tmp_path, capsys):
        rc = main(["msd", "--alpha", "0.5", "--theta", "0", "--out", str(tmp_path)])
        assert rc == 0
        header, rows = read_csv(tmp_path / "msd.csv")
        record = dict(zip(header, rows[0]))
        assert float(record["msd"]) == pytest.approx(0.1875)

    @pytest.mark.parametrize("theta", ["-1e-3", "-5E-1", "-.25", "-1"])
    def test_negative_value_in_any_float_notation_is_a_value(self, tmp_path, capsys, theta):
        assert main(["msd", "--theta", theta, "--out", str(tmp_path)]) == 0
        assert f"theta={float(theta):g}," in capsys.readouterr().out

    def test_exit_prob_warning_is_one_stderr_line(self, tmp_path, capsys):
        argv = ["exit-prob", "--step-h", "1e-3", "--paths", "50", "--out", str(tmp_path)]
        assert main(argv) == 0
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("warning: h = 0.001 is coarse"), lines

    def test_msd_negative_paths_exits_2(self, tmp_path, capsys):
        assert main(["msd", "--paths", "-5", "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: --paths must be >= 0, got -5\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("paths", ["1", "2", "3"])
    def test_msd_too_few_paths_for_a_variance_exits_2_naming_the_option(self, tmp_path, capsys, paths):
        assert main(["msd", "--paths", paths, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: --paths must be 0 (closed form only) or >= 4, got {paths}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("paths", ["1", "0", "-3"])
    def test_exit_prob_too_few_paths_exits_2_naming_the_option(self, tmp_path, capsys, paths):
        assert main(["exit-prob", "--paths", paths, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: --paths must be >= 2, got {paths}\n"
        assert not (tmp_path / "out").exists()

    def test_msd_json_with_estimate(self, tmp_path):
        rc = main(
            ["msd", "--alpha", "0", "--theta", "1", "--paths", "5000", "--seed", "9",
             "--format", "json", "--out", str(tmp_path)]
        )
        assert rc == 0
        record = json.loads((tmp_path / "msd.json").read_text())
        assert abs(record["estimate"] - record["msd"]) < 4.0 * record["std_error"]

    def test_exit_prob_full_skew_is_exact(self, tmp_path):
        rc = main(
            ["exit-prob", "--theta", "1", "--paths", "300", "--step-h", "1e-4",
             "--out", str(tmp_path)]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "exit_prob.csv")
        record = dict(zip(header, rows[0]))
        assert float(record["estimate"]) == 1.0
        assert float(record["target"]) == 1.0


@pytest.mark.parametrize("eps, step_h", [("1", "1e-10"), ("1e200", "1e-5")])
def test_exit_prob_over_the_step_ceiling_exits_2(tmp_path, capsys, eps, step_h):
    argv = ["exit-prob", "--eps", eps, "--step-h", step_h, "--out", str(tmp_path / "out")]
    assert main(argv) == 2
    assert "ceiling" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


class TestNonFiniteInputs:
    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--family", "skew", "--x0", "inf", "--paths", "2", "--steps", "10"],
            ["simulate", "--family", "skew", "--x0", "1e300", "--paths", "2", "--steps", "10"],
            ["exit-prob", "--eps", "inf"],
            ["exit-prob", "--step-h", "inf"],
            ["msd", "--t-end", "inf"],
            ["msd", "--t-end", "1e308"],
            ["msd", "--t-end", "1e307"],
            ["msd", "--alpha", "0.5", "--paths", "5", "--t-end", "1e150"],
        ],
    )
    def test_exits_2_and_leaves_no_file(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("x0", ["nan", "inf", "-inf", "-NaN"])
    @pytest.mark.parametrize("joined", [True, False], ids=["joined", "own-token"])
    @pytest.mark.parametrize("family", cli.FAMILIES)
    def test_simulate_start_exits_2_naming_x0(self, tmp_path, capsys, family, joined, x0):
        start = [f"--x0={x0}"] if joined else ["--x0", x0]
        argv = ["simulate", "--family", family, *start, "--paths", "2", "--steps", "10"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: x0 must be finite, got {float(x0)}\n"
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    @pytest.mark.parametrize("flag, value", [("window-a", "-1"), ("window-b", "0"), ("window-a", "nan"),
                                             ("window-b", "inf")])
    def test_nonmarkov_window_exits_2_naming_the_flag_before_any_work(
        self, tmp_path, monkeypatch, capsys, flag, value
    ):
        forked = []
        monkeypatch.setattr(cli, "_fork_map", lambda work, shares: forked.append(shares))
        argv = ["simulate", "--family", "nonmarkov", f"--{flag}={value}", "--paths", "2", "--steps", "10",
                "--workers", "2"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: --{flag} must be positive and finite, got {float(value)}\n"
        assert not (tmp_path / "out").exists()
        assert forked == []

    @pytest.mark.parametrize("x0", ["inf", "-inf", "nan"])
    def test_joint_bl_start_exits_2_and_leaves_no_file(self, tmp_path, capsys, x0):
        points = tmp_path / "pts.csv"
        points.write_text("b,l\n0.3,0.2\n")
        argv = ["density", "--which", "joint-bl", f"--x0={x0}", "--points", str(points)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not [p for p in (tmp_path / "out").rglob("*") if p.is_file()]


#: a count whose arrays need over 2**48 bytes, so that allocating them fails at
#: once under any overcommit setting and no memory is touched
HUGE = str(10**15)


class TestOutOfMemory:
    @pytest.mark.parametrize(
        "argv",
        [
            ["exit-prob", "--paths", HUGE],
            ["simulate", "--family", "benchmark", "--steps", HUGE, "--paths", "1"],
            ["reverse", "--paths", "3", "--steps", HUGE],
            ["msd", "--paths", HUGE],
        ],
    )
    def test_exits_2_with_one_line_and_no_file(self, tmp_path, capsys, argv):
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: out of memory") and err.count("\n") == 1
        assert not [p for p in tmp_path.rglob("*") if p.is_file()]

    def test_partial_csv_is_removed(self, tmp_path, monkeypatch, capsys):
        def exhausted(*args):
            raise MemoryError

        monkeypatch.setattr(cli, "_simulate_columns", exhausted)
        argv = ["simulate", "--family", "skew", "--paths", "2", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not list(tmp_path.iterdir())


class TestReverse:
    def test_explicit_terminals(self, tmp_path):
        rc = main(
            ["reverse", "--theta", "0.5", "--paths", "2", "--steps", "100",
             "--seed", "11", "--out", str(tmp_path), "--workers", "1"]
        )
        assert rc == 0
        header, rows = read_csv(tmp_path / "reversed_paths.csv")
        assert header == ["path_id", "s", "Y", "Z"]
        assert len(rows) == 2 * 101
        manifest = read_manifest(tmp_path)
        assert manifest["terminal_from"] == "explicit"
        assert len(manifest["terminals"]) == 2
        # both reversed coordinates land exactly on the forward start
        last = rows[100]
        assert float(last[2]) == 0.0 and float(last[3]) == 0.0

    def test_forward_sim_terminals(self, tmp_path):
        rc = main(
            ["reverse", "--theta", "1", "--terminal-from", "forward-sim", "--paths", "2",
             "--steps", "80", "--seed", "12", "--out", str(tmp_path), "--workers", "1"]
        )
        assert rc == 0
        assert read_manifest(tmp_path)["terminal_from"] == "forward-sim"

    def test_start_option_is_an_unrecognized_argument(self, tmp_path, capsys):
        """The bridge starts at 0, so ``reverse`` takes no ``--x0``: one ``error:`` line, exit 2."""
        rc = main(["reverse", "--x0", "0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert capsys.readouterr().err == "error: unrecognized arguments: --x0 0.5\n"


class TestConfiguration:
    def test_config_file_fills_gaps_flags_win(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("theta=0.25\nseed=11\npaths=2\nsteps=30\n# comment\n")
        rc = main(
            ["simulate", "--family", "skew", "--theta", "0.5", "--config", str(config),
             "--out", str(tmp_path)]
        )
        assert rc == 0
        manifest = read_manifest(tmp_path)
        assert manifest["theta"] == 0.5  # flag beats file
        assert manifest["master_seed"] == 11
        assert manifest["paths"] == 2

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("bogus=1\n")
        rc = main(["simulate", "--family", "skew", "--config", str(config), "--out", str(tmp_path)])
        assert rc == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_env_seed_fallback(self, tmp_path, monkeypatch):
        monkeypatch.setenv("HDP_LAB_SEED", "123")
        main(
            ["simulate", "--family", "benchmark", "--paths", "1", "--steps", "5",
             "--out", str(tmp_path)]
        )
        assert read_manifest(tmp_path)["master_seed"] == 123

    @pytest.mark.parametrize("command", [["simulate", "--family", "skew"], ["reverse"]])
    def test_workers_accepted_and_validated(self, tmp_path, command):
        argv = [*command, "--paths", "2", "--steps", "10", "--out", str(tmp_path)]
        assert main([*argv, "--workers", "2"]) == 0
        assert main([*argv, "--workers", "0"]) == 2

    def test_bad_env_seed_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDP_LAB_SEED", "abc")
        rc = main(
            ["simulate", "--family", "benchmark", "--paths", "1", "--steps", "5",
             "--out", str(tmp_path)]
        )
        assert rc == 2

    @pytest.mark.parametrize("source", ["flag", "config", "env"])
    @pytest.mark.parametrize(
        "command, seed",
        [
            (["simulate", "--family", "skew", "--paths", "4", "--steps", "10", "--workers", "2"], "-1"),
            (["reverse", "--paths", "4", "--steps", "10", "--workers", "2"], str(2**64)),
            (["exit-prob", "--paths", "10"], "-1"),
            (["msd", "--paths", "10"], str(2**64)),
            (["msd", "--paths", "0"], "-1"),  # draws nothing, but the seed is checked all the same
        ],
    )
    def test_seed_outside_64_bits_exits_2_naming_the_flag_before_any_work(
        self, tmp_path, monkeypatch, capsys, command, seed, source
    ):
        forked = []
        monkeypatch.setattr(cli, "_fork_map", lambda work, shares: forked.append(shares))
        argv = [*command, "--out", str(tmp_path / "out")]
        if source == "flag":
            argv.append(f"--seed={seed}")
        elif source == "config":
            (tmp_path / "run.cfg").write_text(f"seed={seed}\n")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            monkeypatch.setenv("HDP_LAB_SEED", seed)
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: --seed must be from 0 to 2**64 - 1, got {seed}\n"
        assert not (tmp_path / "out").exists()
        assert forked == []

    def test_largest_seed_accepted(self, tmp_path):
        assert main(["msd", "--paths", "4", "--seed", str(2**64 - 1), "--out", str(tmp_path)]) == 0

    def test_other_subcommands_keys_are_accepted_and_left_unread(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("family=bogus\nsuite=bogus\nsteps=x\nworkers=100000\npaths=5\nseed=4\n")
        argv = ["msd", "--theta", "0.5", "--format", "json", "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "msd.json").read_text())
        assert (record["paths"], record["seed"]) == (5, 4)


#: the options each subcommand takes, in --help order
SUBCOMMAND_OPTIONS = {
    "simulate": "family alpha theta x0 t-end steps paths seed window-a window-b out workers config",
    "verify": "suite out workers config",
    "density": "which points theta t-end x0 out config",
    "msd": "alpha theta t-end paths seed out format config",
    "exit-prob": "theta eps step-h paths seed out format config",
    "reverse": "theta horizon terminal-from steps paths seed out workers config",
}


def _keys_read_by(function_name: str) -> set:
    """The ``args.<key>`` options a cli function reads, itself or through any cli function it names, from the source."""
    tree = ast.parse(inspect.getsource(cli))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    keys, seen, todo = set(), set(), [function_name]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(functions[name]):
            if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "args":
                keys.add(node.attr)
            elif isinstance(node, ast.Name) and node.id in functions:
                todo.append(node.id)
    return keys


class TestParserSurface:
    @pytest.mark.parametrize("subcommand, options", SUBCOMMAND_OPTIONS.items())
    def test_each_subcommand_takes_only_the_options_its_command_reads(self, subcommand, options):
        (subparsers,) = [
            action for action in cli.build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        ]
        parser = subparsers.choices[subcommand]
        actions = [action for action in parser._actions if action.dest != "help"]
        assert [action.option_strings[0] for action in actions] == [f"--{n}" for n in options.split()]
        # main reads --config for every subcommand and resolves the rest onto args for the command
        reads = _keys_read_by(parser.get_default("func").__name__) | {"config"}
        assert {action.dest for action in actions} == reads

    @pytest.mark.parametrize(
        "argv",
        [
            ["reverse", "--paths", "1", "--steps", "5", "--t-end", "2"],
            ["verify", "--suite", "msd", "--seed", "3"],
            ["exit-prob", "--paths", "10", "--step-h", "1e-3", "--steps", "5"],
            ["simulate", "--family", "benchmark", "--paths", "1", "--steps", "5", "--format", "json"],
            ["density", "--which", "skew", "--points", "pts.csv", "--workers", "2"],
        ],
    )
    def test_an_option_the_command_does_not_read_exits_2(self, tmp_path, monkeypatch, capsys, argv):
        """One ``error:`` line naming the option (the last two of ``argv``), and no output."""
        monkeypatch.chdir(tmp_path)
        Path("pts.csv").write_text("b\n0\n")
        assert main([*argv, "--out", "out"]) == 2
        assert capsys.readouterr().err == f"error: unrecognized arguments: {' '.join(argv[-2:])}\n"
        assert not Path("out").exists()

    @pytest.mark.parametrize("command, paths", [("msd", 0), ("exit-prob", 20_000), ("simulate", 10)])
    def test_paths_default_per_subcommand_and_in_help(self, capsys, command, paths):
        args = cli.build_parser().parse_args([command])
        assert cli._resolve(args, "paths", {}) == paths
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert f"[{paths}]" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["simulate", "--paths", "abc"], "", "argument --paths: invalid int value: 'abc'"),
            (["simulate", "--family", "skew"], "paths=abc", "config value paths='abc' is not a int"),
            (["simulate", "--family", "bogus"], "",
             "unknown family 'bogus'; choose from benchmark, stopped, nonmarkov, skew, reflected"),
            (["simulate"], "family=bogus",
             "unknown family 'bogus'; choose from benchmark, stopped, nonmarkov, skew, reflected"),
            (["simulate"], "", "--family is required; choose from benchmark, stopped, nonmarkov, skew, reflected"),
            (["density", "--points", "pts.csv"], "which=joint",
             "unknown which 'joint'; choose from skew, joint-bl, joint-yb"),
            (["reverse"], "terminal_from=backward",
             "unknown terminal-from 'backward'; choose from explicit, forward-sim"),
            (["msd"], "format=xml", "unknown format 'xml'; choose from csv, json"),
            (["verify", "--suite", "heat", "--workers", "two"], "",
             "argument --workers: invalid int value: 'two'"),
            ([], "", "the following arguments are required: subcommand"),
        ],
    )
    def test_a_usage_error_is_one_error_line(self, tmp_path, monkeypatch, capsys, argv, config, message):
        """Parse errors, bad values and missing choices, from a flag or a config file alike."""
        monkeypatch.chdir(tmp_path)
        Path("pts.csv").write_text("b\n0\n")
        Path("run.cfg").write_text(config)
        if argv:
            argv = [*argv, "--config", "run.cfg", "--out", "out"]
        assert main(argv) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not Path("out").exists()

    def test_a_bad_value_is_reported_even_where_the_run_would_not_read_it(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("HDP_LAB_SEED", "abc")
        assert main(["msd", "--paths", "0", "--out", str(tmp_path)]) == 2  # closed form only
        assert capsys.readouterr().err == "error: HDP_LAB_SEED='abc' is not an integer\n"

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["simulate", "--help"]])
    def test_help_and_version_exit_0(self, capsys, argv):
        with pytest.raises(SystemExit) as exited:
            main(argv)
        assert exited.value.code == 0
        assert capsys.readouterr().out


#: sha256 of the ensemble CSVs of small runs, recorded with the per-float
#: writer and the one-bridge-per-path reversal; the CSV bytes are frozen
SIMULATE_GOLDEN = {
    "benchmark": (
        ["--alpha", "0.5", "--theta", "0.3", "--x0", "1"],
        "aa97c3ef18a7231ecbd8ec4242b929d4d0bc77d690579d147a4425dfee18c028",
    ),
    "stopped": (
        ["--alpha", "0.3", "--x0", "-0.5"],
        "68ad45ea08adfadabbf3cb8a9891588a57a2fae24bca7d2052d2f42ac7e3c673",
    ),
    "nonmarkov": (
        ["--alpha", "0.5", "--x0", "0.2", "--window-a", "0.3", "--window-b", "0.7"],
        "75f3070d42066719bc861ebded2778efcc49ca1288c86284a5e31ccf3ccda7f0",
    ),
    "skew": (
        ["--alpha", "-0.5", "--theta", "0.5", "--x0", "0.4"],
        "0ef88f13468614e8d1cb878ae8bdee104237cbfa5ca8651c03d7269d7764c04f",
    ),
    "reflected": (
        ["--alpha", "0.5", "--x0", "0.2"],
        "8dad476482103e1398149d80df2ed82c8dc638ac9c8ac25be891ad683ee21132",
    ),
}
REVERSE_GOLDEN = {
    ("explicit", "0.5"): "fa4b247a01ea82ba6e4a445a18f80324768ea9cca4110d98b971024ce8c61e24",
    ("explicit", "-0.5"): "b6fdbbaae7e707a06c8957f576e55a168ca33a350778c8072db922124d7944d2",
    ("explicit", "1"): "31e9a198cafd2333655a1b0d979a1c623770ee124c236c41496cbb816fb7f892",
    ("forward-sim", "0.5"): "ebdc9fe2fb3b4372d5ed2cdad128b96aae0a44d583f9805af3ab06bfb076ca7e",
    ("forward-sim", "-0.5"): "bc55b459cfd8db69cbb0a0fa61793824f0a15c0e63b15c815c4624d725df3017",
    ("forward-sim", "1"): "f73cdaec4fee280233a7315603da27fe116cab35c487af96cdd2c96c7fb298a7",
}


def sha256_of(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestGoldenBytes:
    @pytest.mark.parametrize("family", sorted(SIMULATE_GOLDEN))
    def test_simulate_csv_bytes(self, tmp_path, family):
        flags, digest = SIMULATE_GOLDEN[family]
        rc = main(
            ["simulate", "--family", family, *flags, "--paths", "3", "--steps", "40",
             "--seed", "5", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert sha256_of(tmp_path / "paths.csv") == digest

    @pytest.mark.parametrize("source, theta", sorted(REVERSE_GOLDEN))
    def test_reverse_csv_bytes(self, tmp_path, source, theta):
        rc = main(
            ["reverse", "--theta", theta, "--terminal-from", source, "--paths", "4",
             "--steps", "60", "--seed", "9", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert sha256_of(tmp_path / "reversed_paths.csv") == REVERSE_GOLDEN[(source, theta)]


#: the whole manifest of each golden run above, recorded before the two
#: ensemble commands shared one writer: every key, its value and the layout
_SIMULATED = {
    "columns": ["path_id", "t", "B", "B_theta", "L", "X"], "csv_file": "paths.csv",
    "master_seed": 5, "paths": 3, "schema_version": 1, "steps": 40, "subcommand": "simulate",
    "seed_scheme": "SeedSpec(master_seed, path_id)", "t_end": 1.0,
}
_REVERSED = {
    "columns": ["path_id", "s", "Y", "Z"], "csv_file": "reversed_paths.csv", "horizon": 1.0,
    "master_seed": 9, "paths": 4, "schema_version": 1, "steps": 60, "subcommand": "reverse",
    "theta": 0.5,
}
MANIFEST_GOLDEN = {
    "benchmark": {**_SIMULATED, "family": "benchmark", "alpha": 0.5, "theta": 0.3, "x0": 1.0,
                  "non_solution_flag": False},
    "nonmarkov": {**_SIMULATED, "family": "nonmarkov", "alpha": 0.5, "theta": 0.0, "x0": 0.2,
                  "non_solution_flag": False, "window_a": 0.3, "window_b": 0.7},
    "reflected": {**_SIMULATED, "family": "reflected", "alpha": 0.5, "theta": 0.0, "x0": 0.2,
                  "non_solution_flag": False},
    "skew": {**_SIMULATED, "family": "skew", "alpha": -0.5, "theta": 0.5, "x0": 0.4,
             "non_solution_flag": True},
    "stopped": {**_SIMULATED, "family": "stopped", "alpha": 0.3, "theta": 0.0, "x0": -0.5,
                "non_solution_flag": False},
    "explicit": {
        **_REVERSED, "terminal_from": "explicit",
        "terminals": [0.3278723933668753, -0.708244510697793, 0.18988660842362284, -1.4518160801817732],
        "seed_scheme": "terminals: SeedSpec(master); bridges: SeedSpec(master, 1 + path_id)",
    },
    "forward-sim": {
        **_REVERSED, "terminal_from": "forward-sim",
        "terminals": [1.5491933384829666, -0.0, 0.0, 0.5163977794943222],
        "seed_scheme": (
            "forward walks: SeedSpec(master, path_id); bridges: SeedSpec(master, paths + path_id)"
        ),
    },
}


class TestManifests:
    """Each ensemble manifest, byte for byte: keys, values (-0.0 included) and layout."""

    @staticmethod
    def assert_manifest(directory, literal):
        expected = {**literal, "package_version": hdp_lab.__version__}
        text = (directory / "manifest.json").read_text()
        assert text == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize("family", sorted(SIMULATE_GOLDEN))
    def test_simulate_manifest(self, tmp_path, family):
        flags, _ = SIMULATE_GOLDEN[family]
        argv = ["simulate", "--family", family, *flags, "--paths", "3", "--steps", "40", "--seed", "5"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        self.assert_manifest(tmp_path, MANIFEST_GOLDEN[family])

    @pytest.mark.parametrize("source", ["explicit", "forward-sim"])
    def test_reverse_manifest(self, tmp_path, source):
        argv = ["reverse", "--theta", "0.5", "--terminal-from", source, "--paths", "4",
                "--steps", "60", "--seed", "9"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        self.assert_manifest(tmp_path, MANIFEST_GOLDEN[source])


#: sha256 of small simulate CSVs whose blocks repeat values, recorded with the
#: per-value writer, and whether any of their blocks formats each distinct value
#: once: skew at the benchmark's parameters, stopped from 0 (its X is the
#: absorbed 0 throughout) and reflected from 0 (L = 0 stretches and -0 cells;
#: its B and X are distinct throughout, so every block stays per value)
REPEATED_VALUE_GOLDEN = {
    "skew": (
        ["--alpha", "0.5", "--theta", "0.5", "--x0", "0"],
        "1022b1fe8a272224b8261097e6ef334a463950c11235975afc5f2b2dbdf9006b",
        True,
    ),
    "stopped": (
        ["--alpha", "0.5", "--x0", "0"],
        "aab978da8d2ee4b6a31761b2a4088f7c60f87cd9c0673ae8a4bfc64eedbeeff0",
        True,
    ),
    "reflected": (
        ["--alpha", "0.5", "--x0", "0"],
        "632b5336a4643a9182ddd428077713fce439926050f76eba53a7d6e9c74327a0",
        False,
    ),
}


def _distinct_share(columns):
    """Share of distinct bit patterns among the values of one block."""
    flat = np.column_stack(columns).ravel()
    return len(np.unique(flat.view(np.uint64))) / flat.size


def _distinct_shares(path):
    """``_distinct_share`` of each path's block of an ensemble CSV."""
    blocks = {}
    for line in path.read_text().splitlines()[1:]:
        path_id, _, *values = line.split(",")
        blocks.setdefault(path_id, []).append([float(v) for v in values])
    return [_distinct_share(np.array(rows).T) for rows in blocks.values()]


class TestRepeatedValueBytes:
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("family", sorted(REPEATED_VALUE_GOLDEN))
    def test_simulate_csv_bytes(self, tmp_path, family, workers):
        flags, digest, distinct_once = REPEATED_VALUE_GOLDEN[family]
        rc = main(
            ["simulate", "--family", family, *flags, "--paths", "4", "--steps", "200",
             "--seed", "5", "--out", str(tmp_path), "--workers", workers]
        )
        assert rc == 0
        assert sha256_of(tmp_path / "paths.csv") == digest
        shares = _distinct_shares(tmp_path / "paths.csv")
        assert (min(shares) <= cli._DISTINCT_SHARE) == distinct_once


def _bits(value):
    return struct.pack("<d", value)


_EDGE_VALUES = [
    0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308, 2.2250738585072014e-308,
    1e308, -1e308, 1.7976931348623157e308, 1.0, 1.0000000000000002, 0.1,
    0.09999999999999999, -2.5, float(np.nextafter(-2.5, 0.0)),
]
_VALUES = st.one_of(st.sampled_from(_EDGE_VALUES), st.floats(allow_nan=False))


@st.composite
def _blocks(draw):
    """(path id, times, columns): all one value repeated, all distinct, or a mix."""
    n_rows = draw(st.integers(1, 20))
    n_columns = draw(st.integers(1, 4))
    size = n_rows * n_columns
    mode = draw(st.sampled_from(("repeated", "distinct", "mixed")))
    pool_size = {"repeated": 1, "distinct": size}.get(mode) or draw(st.integers(1, size))
    pool = draw(st.lists(_VALUES, min_size=pool_size, max_size=pool_size, unique_by=_bits))
    if mode == "distinct":
        flat = pool
    else:
        picks = st.lists(st.integers(0, pool_size - 1), min_size=size, max_size=size)
        flat = [pool[i] for i in draw(picks)]
    rows = np.array(flat, dtype=float).reshape(n_rows, n_columns)
    return draw(st.integers(0, 10**6)), np.arange(n_rows) / 7.0, tuple(rows.T.copy())


def _oracle_block(path_id, times, columns):
    """The rows of one block, each value formatted on its own."""
    rows = zip(times.tolist(), zip(*(column.tolist() for column in columns)))
    return "".join(
        f"{path_id},{t:.17g}," + ",".join(f"{v:.17g}" for v in values) + "\n"
        for t, values in rows
    )


def _written_block(path_id, times, columns):
    fh = io.StringIO()
    cli._write_block(fh, path_id, cli._block_template(times, len(columns)), columns)
    return fh.getvalue()


#: blocks every run of the property test checks: signed zeros and last-ulp
#: neighbours, both formatted once per distinct value, and an all-distinct block
_SIGNED_ZEROS = (
    3, np.arange(50) / 7.0,
    (np.tile([0.0, -0.0], 25), np.full(50, -0.0), np.tile([0.0, 5e-324], 25)),
)
_ULP_NEIGHBOURS = (
    0, np.arange(40) / 7.0,
    (np.tile([1.0, 1.0000000000000002, 0.1, 0.09999999999999999], 10),
     np.full(40, 1e308), np.full(40, -1e308)),
)
_ALL_DISTINCT = (8, np.arange(30) / 7.0, (np.linspace(-1.0, 1.0, 30), np.geomspace(1e-300, 1e300, 30)))


class TestBlockWriter:
    """``_write_block`` against a per-value ``%.17g`` oracle, on both sides of the crossover."""

    @settings(max_examples=200)
    @given(_blocks())
    @example(_SIGNED_ZEROS)
    @example(_ULP_NEIGHBOURS)
    @example(_ALL_DISTINCT)
    def test_matches_per_value_oracle(self, block):
        assert _written_block(*block) == _oracle_block(*block)

    def test_examples_lie_on_both_sides_of_the_crossover(self):
        assert _distinct_share(_SIGNED_ZEROS[2]) <= cli._DISTINCT_SHARE
        assert _distinct_share(_ULP_NEIGHBOURS[2]) <= cli._DISTINCT_SHARE
        assert _distinct_share(_ALL_DISTINCT[2]) > cli._DISTINCT_SHARE

    def test_signed_zeros_keep_their_sign(self):
        rows = _written_block(*_SIGNED_ZEROS).splitlines()
        assert rows[:2] == ["3,0,0,-0,0", "3,0.14285714285714285,-0,-0,4.9406564584124654e-324"]


class TestWorkerCounts:
    """Ensemble CSV bytes do not depend on how many processes write them."""

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("family", sorted(SIMULATE_GOLDEN))
    def test_simulate_csv_bytes(self, tmp_path, family, workers):
        flags, digest = SIMULATE_GOLDEN[family]
        rc = main(
            ["simulate", "--family", family, *flags, "--paths", "3", "--steps", "40",
             "--seed", "5", "--out", str(tmp_path), "--workers", workers]
        )
        assert rc == 0
        assert sha256_of(tmp_path / "paths.csv") == digest
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "paths.csv"]

    @pytest.mark.parametrize("workers", ["1", "2", "3"])
    @pytest.mark.parametrize("source, theta", sorted(REVERSE_GOLDEN))
    def test_reverse_csv_bytes(self, tmp_path, source, theta, workers):
        rc = main(
            ["reverse", "--theta", theta, "--terminal-from", source, "--paths", "4",
             "--steps", "60", "--seed", "9", "--out", str(tmp_path), "--workers", workers]
        )
        assert rc == 0
        assert sha256_of(tmp_path / "reversed_paths.csv") == REVERSE_GOLDEN[(source, theta)]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "reversed_paths.csv"]

    @pytest.mark.parametrize(
        "command, csv_name",
        [(["simulate", "--family", "skew", "--theta", "0.5"], "paths.csv"),
         (["reverse", "--theta", "-0.5"], "reversed_paths.csv")],
    )
    @pytest.mark.parametrize("paths, workers", [("7", "3"), ("1", "2")])
    def test_uneven_split_matches_one_worker(self, tmp_path, command, csv_name, paths, workers):
        digests = []
        for count in ("1", workers):
            out = tmp_path / count
            argv = [*command, "--paths", paths, "--steps", "25", "--seed", "4", "--out", str(out)]
            assert main([*argv, "--workers", count]) == 0
            digests.append(sha256_of(out / csv_name))
        assert digests[0] == digests[1]

    @pytest.fixture
    def bridge_batches(self, monkeypatch):
        """Path counts of the reversed_bridge_ensemble calls made in this process."""
        sizes = []

        def spy(theta, terminals, grid, seeds):
            sizes.append(len(terminals))
            return reversed_bridge_ensemble(theta, terminals, grid, seeds)

        monkeypatch.setattr(cli, "reversed_bridge_ensemble", spy)
        return sizes

    def test_reverse_bridges_run_in_bounded_batches(self, tmp_path, monkeypatch, bridge_batches):
        monkeypatch.setattr(cli, "_BRIDGE_BATCH", 3)
        rc = main(
            ["reverse", "--theta", "0.5", "--paths", "4", "--steps", "60", "--seed", "9",
             "--out", str(tmp_path), "--workers", "1"]
        )
        assert rc == 0
        assert bridge_batches == [3, 1]
        assert sha256_of(tmp_path / "reversed_paths.csv") == REVERSE_GOLDEN[("explicit", "0.5")]

    def test_reverse_batch_holds_at_most_the_constant(self, tmp_path, bridge_batches):
        paths = cli._BRIDGE_BATCH + 1
        rc = main(
            ["reverse", "--paths", str(paths), "--steps", "2", "--out", str(tmp_path), "--workers", "1"]
        )
        assert rc == 0
        assert bridge_batches == [cli._BRIDGE_BATCH, 1]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _two_range_simulate_error(tmp_path, monkeypatch, capsys, worker_range, first_range=None) -> str:
    """stderr of a 2-path simulate on 2 workers whose path 0 (this process's range) calls
    ``first_range`` and whose path 1 (the forked worker's) calls ``worker_range``; checks
    that it exits 2 and leaves no file and no child."""
    simulate_columns = cli._simulate_columns

    def columns(family, params, windows, grid, seed):
        ranged = worker_range if seed.stream_index else first_range
        if ranged is not None:
            ranged()
        return simulate_columns(family, params, windows, grid, seed)

    monkeypatch.setattr(cli, "_simulate_columns", columns)
    argv = ["simulate", "--family", "skew", "--paths", "2", "--steps", "20",
            "--out", str(tmp_path), "--workers", "2"]
    assert main(argv) == 2
    assert not list(tmp_path.iterdir())
    _no_child_left()
    return capsys.readouterr().err


def _raise(exc):
    raise exc


class TestEnsembleWorkerFailures:
    def test_memory_error_in_a_worker_range_exits_2(self, tmp_path, monkeypatch, capsys):
        err = _two_range_simulate_error(tmp_path, monkeypatch, capsys, lambda: _raise(MemoryError))
        assert err == "error: out of memory\n"

    def test_dead_worker_exits_2_with_one_line(self, tmp_path, monkeypatch, capsys):
        def dying(theta, terminals, grid, seeds):
            if seeds[0].stream_index > 1:  # any range but the first
                os._exit(1)
            return reversed_bridge_ensemble(theta, terminals, grid, seeds)

        monkeypatch.setattr(cli, "reversed_bridge_ensemble", dying)
        argv = ["reverse", "--paths", "3", "--steps", "20", "--out", str(tmp_path), "--workers", "2"]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not list(tmp_path.iterdir())
        _no_child_left()

    def test_os_error_in_a_worker_range_exits_2(self, tmp_path, monkeypatch, capsys):
        err = _two_range_simulate_error(tmp_path, monkeypatch, capsys, lambda: _raise(OSError("disk full")))
        assert err == "error: disk full\n"

    def test_failure_in_this_range_ends_a_busy_worker_at_once(self, tmp_path, monkeypatch, capsys):
        start = time.monotonic()
        err = _two_range_simulate_error(
            tmp_path, monkeypatch, capsys,
            worker_range=lambda: time.sleep(60.0),
            first_range=lambda: _raise(ValueError("this range failed")),
        )
        assert time.monotonic() - start < 5.0
        assert err == "error: this range failed\n"

    def test_narrow_reverse_forks_no_worker(self, tmp_path, monkeypatch):
        forked = []
        fork_map = cli._fork_map

        def spy(work, shares):
            forked.append(len(shares) - 1)  # the first share runs in this process
            return fork_map(work, shares)

        monkeypatch.setattr(cli, "_fork_map", spy)
        monkeypatch.setattr(cli, "_FORK_PATH_STEPS", 1)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(4)))
        for command in (["reverse"], ["simulate", "--family", "skew"]):
            assert main([*command, "--paths", "7", "--steps", "5", "--out", str(tmp_path / command[0])]) == 0
        assert forked == [0, 3]  # reverse: none; simulate: this process and 3 forked workers

    def test_default_worker_count(self, monkeypatch):
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(4)))
        args = cli.build_parser().parse_args(["simulate"])
        small = cli._FORK_PATH_STEPS
        assert cli._ensemble_workers(args, 10, small // 10) == 1
        assert cli._ensemble_workers(args, 10, 3 * small // 10) == 3
        assert cli._ensemble_workers(args, 200, 2000) == 4
        assert cli._ensemble_workers(args, 2, 10**9) == 2
        assert cli._ensemble_workers(args, 7, 10**9, worker_paths=8) == 1
        assert cli._ensemble_workers(args, 24, 10**9, worker_paths=8) == 3
        args = cli.build_parser().parse_args(["simulate", "--workers", "8"])
        assert cli._ensemble_workers(args, 5, 1) == 5


def _cheap_units(*names):
    return [VerificationReport(name, 0.0, 0.0, 0.0, True, {}) for name in names]


class TestWorkerCeiling:
    """An explicit --workers above WORKERS_PER_CPU x the available CPUs exits 2 before any pool starts."""

    @pytest.fixture
    def pool_sizes(self, monkeypatch):
        """Share counts asked of the fork by the ensembles and verify, run here, unforked; one CPU available."""
        sizes = []

        def shares_here(work, shares):
            sizes.append(len(shares))
            return [work(share) for share in shares]

        monkeypatch.setattr(cli, "_fork_map", shares_here)
        monkeypatch.setattr(experiments, "_fork_map", shares_here)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        cheap = experiments._check(*[(f"unit {i}",) for i in range(6)])(_cheap_units)
        monkeypatch.setitem(experiments.SUITES, "heat", [cheap])
        return sizes

    @pytest.mark.parametrize(
        "command",
        [["simulate", "--family", "skew", "--paths", "5000", "--steps", "1"],
         ["reverse", "--paths", "5000", "--steps", "1"],
         ["verify", "--suite", "heat"]],
    )
    def test_above_the_ceiling_exits_2(self, tmp_path, capsys, pool_sizes, command):
        per_cpu = cli.WORKERS_PER_CPU  # and the limit, on one CPU
        assert main([*command, "--workers", str(per_cpu + 1), "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err == (
            f"error: --workers must be from 1 to {per_cpu} ({per_cpu} per available CPU), "
            f"got {per_cpu + 1}\n"
        )
        assert pool_sizes == []
        assert not list(tmp_path.iterdir())
        assert main([*command, "--workers", "5000", "--out", str(tmp_path)]) == 2
        assert pool_sizes == []

    def test_config_file_workers_meet_the_same_ceiling(self, tmp_path, pool_sizes):
        config = tmp_path / "run.cfg"
        config.write_text(f"workers = {cli.WORKERS_PER_CPU + 1}\n")
        argv = ["simulate", "--family", "skew", "--paths", "9", "--steps", "1", "--config", str(config)]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 2
        assert pool_sizes == []

    def test_at_the_ceiling_the_pools_get_it(self, tmp_path, pool_sizes):
        limit = str(cli.WORKERS_PER_CPU)
        argv = ["simulate", "--family", "skew", "--paths", "5", "--steps", "40"]
        assert main([*argv, "--workers", limit, "--out", str(tmp_path / "simulate")]) == 0
        assert main(["verify", "--suite", "heat", "--workers", limit, "--out", str(tmp_path)]) == 0
        assert pool_sizes == [cli.WORKERS_PER_CPU, cli.WORKERS_PER_CPU]


class TestPartFiles:
    @pytest.mark.parametrize(
        "command, csv_name, digest",
        [(["simulate", "--family", "skew", *SIMULATE_GOLDEN["skew"][0], "--paths", "3", "--steps", "40",
           "--seed", "5"], "paths.csv", SIMULATE_GOLDEN["skew"][1]),
         (["reverse", "--theta", "0.5", "--paths", "4", "--steps", "60", "--seed", "9"],
          "reversed_paths.csv", REVERSE_GOLDEN[("explicit", "0.5")])],
    )
    def test_a_user_file_named_like_a_part_survives(self, tmp_path, command, csv_name, digest):
        keep = tmp_path / f"{csv_name}.part1"
        keep.write_bytes(b"not a part file\n")
        assert main([*command, "--workers", "2", "--out", str(tmp_path)]) == 0
        assert keep.read_bytes() == b"not a part file\n"
        assert sha256_of(tmp_path / csv_name) == digest
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            ["manifest.json", csv_name, keep.name]
        )


def _session_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _interrupt_once_a_part_is_written(tmp_path, argv, part_glob):
    """Run ``argv`` on 2 workers in its own session, SIGINT the session once a part file has
    bytes, and check for one ``error: interrupted`` line, exit 2, no file and no process left."""
    src = str(Path(__file__).parents[1] / "src")
    code = "import sys; from hdp_lab.cli import main; sys.exit(main(sys.argv[1:]))"
    proc = subprocess.Popen(
        [sys.executable, "-c", code, *argv, "--workers", "2", "--out", str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src},
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
    )
    try:
        deadline = time.monotonic() + 30.0
        while not any(p.stat().st_size for p in tmp_path.glob(part_glob)):
            assert proc.poll() is None, proc.stderr.read()
            assert time.monotonic() < deadline, "no worker wrote its part file"
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=30.0)
        left_running = _session_alive(proc.pid)
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
    assert proc.returncode == 2
    assert err == "error: interrupted\n"
    assert not list(tmp_path.iterdir())
    assert not left_running


class TestInterrupt:
    def test_sigint_during_a_pooled_run_exits_2_and_leaves_nothing(self, tmp_path):
        """Ctrl-C reaches the whole process group, as from a terminal, once a worker is writing."""
        argv = ["simulate", "--family", "skew", "--paths", "40", "--steps", "20000"]
        _interrupt_once_a_part_is_written(tmp_path, argv, ".paths.csv.*")

    def test_sigint_during_a_pooled_reverse_exits_2_and_leaves_nothing(self, tmp_path):
        # the worker's range is two bridge batches: it is still busy after its first blocks
        argv = ["reverse", "--theta", "0.5", "--paths", "400", "--steps", "4000"]
        _interrupt_once_a_part_is_written(tmp_path, argv, ".reversed_paths.csv.*")

    def test_interrupt_in_process_cleans_up(self, tmp_path, monkeypatch, capsys):
        def interrupted(*args):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "_simulate_columns", interrupted)
        argv = ["simulate", "--family", "skew", "--paths", "2", "--workers", "1", "--out", str(tmp_path)]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: interrupted\n"
        assert not list(tmp_path.iterdir())
