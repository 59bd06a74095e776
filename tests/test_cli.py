"""Command-line contract: files, manifests, exit codes, config precedence."""

import hashlib
import json
import os

import numpy as np
import pytest

from hdp_lab import cli
from hdp_lab.analytics import reversed_bridge_ensemble
from hdp_lab.cli import main


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

    def test_nonzero_start_exits_2(self, tmp_path, capsys):
        rc = main(["reverse", "--x0", "0.5", "--out", str(tmp_path)])
        assert rc == 2
        assert "x0" in capsys.readouterr().err


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


class TestEnsembleWorkerFailures:
    def test_memory_error_in_a_worker_range_exits_2(self, tmp_path, monkeypatch, capsys):
        simulate_columns = cli._simulate_columns

        def exhausted_after_first(family, params, windows, grid, seed):
            if seed.stream_index >= 1:  # the forked worker's range
                raise MemoryError
            return simulate_columns(family, params, windows, grid, seed)

        monkeypatch.setattr(cli, "_simulate_columns", exhausted_after_first)
        argv = ["simulate", "--family", "skew", "--paths", "2", "--steps", "20",
                "--out", str(tmp_path), "--workers", "2"]
        assert main(argv) == 2
        assert capsys.readouterr().err == "error: out of memory\n"
        assert not list(tmp_path.iterdir())
        _no_child_left()

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

    def test_narrow_reverse_forks_no_worker(self, tmp_path, monkeypatch):
        forked = []
        fork_pool = cli._fork_pool

        def spy(workers, what):
            forked.append(workers)
            return fork_pool(workers, what)

        monkeypatch.setattr(cli, "_fork_pool", spy)
        monkeypatch.setattr(cli, "_FORK_PATH_STEPS", 1)
        monkeypatch.setattr(cli.os, "sched_getaffinity", lambda pid: set(range(4)))
        for command in (["reverse"], ["simulate", "--family", "skew"]):
            assert main([*command, "--paths", "7", "--steps", "5", "--out", str(tmp_path / command[0])]) == 0
        assert forked == [3]  # simulate: this process and 3 forked workers; reverse: none

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
