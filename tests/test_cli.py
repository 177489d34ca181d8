import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import mosqdyn
from mosqdyn.cli import _basin_csv, main, parse_args, run
from mosqdyn.errors import UsageError
from mosqdyn.geometry import RegionBounds, omega_bounds
from mosqdyn.trajectory import BasinRaster

P0_FLAGS = ["--alpha", "0.5", "--beta", "2", "--mu", "0.8", "--d0", "0.3"]


class TestParseArgs:
    def test_simulate_mapping(self):
        cfg = parse_args(["simulate", *P0_FLAGS, "--x0", "1", "--y0", "0.5"])
        assert cfg.subcommand == "simulate"
        assert (cfg.params.alpha, cfg.params.beta) == (0.5, 2.0)
        assert (cfg.x0, cfg.y0) == (1.0, 0.5)
        assert cfg.seed == 0 and cfg.stride == 1
        assert cfg.format == "csv"

    def test_equilibria_boundary_regime(self):
        cfg = parse_args(["equilibria", "--alpha", "0.5", "--beta", "1.28",
                          "--mu", "0.8", "--d0", "0.3"])
        assert cfg.subcommand == "equilibria"
        assert cfg.params.beta == 1.28
        assert cfg.format == "json"

    def test_negative_alpha_names_the_flag(self):
        with pytest.raises(UsageError, match="--alpha"):
            parse_args(["simulate", "--alpha", "-1", "--beta", "2", "--mu", "0.8",
                        "--d0", "0.3", "--x0", "1", "--y0", "0.5"])

    def test_missing_subcommand(self):
        with pytest.raises(UsageError):
            parse_args([])

    def test_unknown_flag(self):
        with pytest.raises(UsageError):
            parse_args(["simulate", *P0_FLAGS, "--bogus", "1"])

    def test_simulate_needs_initial_point(self):
        with pytest.raises(UsageError, match="--x0/--y0"):
            parse_args(["simulate", *P0_FLAGS])

    def test_regime_violations_name_flags(self):
        with pytest.raises(UsageError, match="--d1"):
            parse_args(["verify", *P0_FLAGS, "--d1", "0.1"])
        with pytest.raises(UsageError, match="--mu"):
            parse_args(["verify", "--alpha", "0.5", "--beta", "2", "--mu", "1.5",
                        "--d0", "0.3"])
        with pytest.raises(UsageError, match="--alpha/--d0"):
            parse_args(["verify", "--alpha", "0.8", "--beta", "2", "--mu", "0.8",
                        "--d0", "0.3"])

    def test_csv_not_available_for_json_reports(self):
        with pytest.raises(UsageError, match="--format"):
            parse_args(["verify", *P0_FLAGS, "--format", "csv"])

    def test_config_file_with_flag_override(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"alpha": 0.5, "beta": 2.0, "mu": 0.8, "d0": 0.3, "seed": 5,
             "samples": 1234}
        ))
        cfg = parse_args(["verify", "--config", str(cfg_file), "--seed", "9"])
        assert cfg.params.beta == 2.0
        assert cfg.seed == 9  # flag wins
        assert cfg.samples == 1234

    def test_config_unknown_key(self, tmp_path):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps({"alpha": 0.5, "bogus": 1}))
        with pytest.raises(UsageError, match="bogus"):
            parse_args(["verify", "--config", str(cfg_file)])

    @pytest.mark.parametrize("entry,flag", [
        ({"grid_n": "abc"}, "--grid-n"),
        ({"tol": "x"}, "--tol"),
        ({"max_iter": 2.7}, "--max-iter"),
        ({"format": "xml"}, "--format"),
        ({"seed": True}, "seed"),
        ({"samples": [10]}, "samples"),
    ])
    def test_config_values_get_flag_checks(self, tmp_path, entry, flag):
        cfg_file = tmp_path / "run.json"
        cfg_file.write_text(json.dumps(
            {"alpha": 0.5, "beta": 2.0, "mu": 0.8, "d0": 0.3, **entry}))
        with pytest.raises(UsageError, match=flag):
            parse_args(["basin", "--config", str(cfg_file)])

    def test_flags_may_precede_the_subcommand(self):
        argv = ["--samples", "10", "--seed", "3"]
        assert (parse_args([*P0_FLAGS, "verify", *argv])
                == parse_args(["verify", *P0_FLAGS, *argv]))

    #: The whole stderr line of each refusal below, by (flag, value).
    REFUSALS = {
        ("--max-iter", "0"): "--max-iter: must be >= 1, got 0",
        ("--tol", "0"): "--tol: must be positive and finite, got 0.0",
        ("--grid-n", "0"): "--grid-n: must be >= 1, got 0",
        ("--samples", "-1"): "--samples: must be >= 0, got -1",
        ("--seed", "-1"): "--seed: must be >= 0, got -1",
        ("--stride", "0"): "--stride: must be >= 1, got 0",
        ("--tol", "nan"): "--tol: must be positive and finite, got nan",
        ("--tol", "inf"): "--tol: must be positive and finite, got inf",
    }

    @pytest.mark.parametrize("flag,value", list(REFUSALS))
    def test_out_of_range_value_exits_two(self, capsys, flag, value):
        argv = ["simulate", *P0_FLAGS, "--x0", "1", "--y0", "0.5", flag, value]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"mosqdyn: error: {self.REFUSALS[flag, value]}\n"

    def test_readme_commands_parse(self):
        readme = Path(__file__).resolve().parent.parent / "README.md"
        block = readme.read_text().split("## Command line", 1)[1]
        block = block.split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [line.split() for line in block.splitlines()]
        assert [c[:2] for c in commands] == [["mosqdyn", s] for s in
                                             ("simulate", "equilibria", "verify",
                                              "cycles", "basin", "sweep")]
        for argv in commands:
            assert parse_args(argv[1:]).subcommand == argv[1]

    @pytest.mark.parametrize("content,needle", [
        (None, "cannot read"),
        ("{not json", "is not valid JSON"),
        ("[0.5, 2.0, 0.8, 0.3]", "must hold a JSON object"),
    ], ids=["missing", "not_json", "json_list"])
    def test_bad_config_file_exits_two(self, tmp_path, capsys, content, needle):
        cfg_file = tmp_path / "run.json"
        if content is not None:
            cfg_file.write_text(content)
        assert main(["verify", "--config", str(cfg_file)]) == 2
        err = capsys.readouterr().err
        assert "--config" in err and needle in err

    def test_parse_is_deterministic(self):
        argv = ["verify", *P0_FLAGS, "--samples", "10", "--seed", "3"]
        assert parse_args(argv) == parse_args(argv)


class TestSimulate:
    def test_csv_schema_and_convergence(self, capsys):
        status = run(parse_args(
            ["simulate", *P0_FLAGS, "--x0", "1", "--y0", "0.5", "--stride", "50"]
        ))
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert status == 0
        assert lines[0] == "n,x,y,phi,region"
        first = lines[1].split(",")
        assert first[0] == "0" and first[4] == "omega4"
        last = lines[-1].split(",")
        assert float(last[1]) == pytest.approx(1.5, abs=1e-6)
        assert float(last[2]) == pytest.approx(0.375, abs=1e-6)

    def test_start_far_above_the_rectangle_converges(self, capsys):
        y0 = 1e3 * 0.5 / 0.8  # 1e3 * alpha/mu
        status = run(parse_args(
            ["simulate", *P0_FLAGS, "--x0", "1", "--y0", repr(y0),
             "--stride", "100000"]
        ))
        last = capsys.readouterr().out.strip().split("\n")[-1].split(",")
        assert status == 0
        # converged: within NEAR_FACTOR*tol of (x*, y*) at the default tol 1e-8
        assert max(abs(float(last[1]) - 1.5), abs(float(last[2]) - 0.375)) <= 1e-7

    def test_json_mirror(self, capsys):
        status = run(parse_args(
            ["simulate", *P0_FLAGS, "--x0", "1.5", "--y0", "0.375",
             "--format", "json"]
        ))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["limit"] == "converged_to_positive_fixed_point"
        assert payload["iterations_used"] == 0
        assert payload["boundary_regime"] is False


class TestEquilibria:
    def test_reference_payload(self, capsys):
        status = run(parse_args(["equilibria", *P0_FLAGS]))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["regime"]["threshold"] == pytest.approx(1.28, rel=1e-12)
        assert payload["regime"]["x_star"] == pytest.approx(1.5, rel=1e-12)
        kinds = [fp["classification"] for fp in payload["fixed_points"]]
        assert kinds == ["saddle", "attracting"]
        eig = payload["fixed_points"][0]["eigenvalues"]
        assert eig[0]["re"] == pytest.approx(1.2, abs=1e-12)
        assert eig[1]["re"] == pytest.approx(-0.8, abs=1e-12)

    def test_boundary_payload(self, capsys):
        status = run(parse_args(["equilibria", "--alpha", "0.5", "--beta", "1.28",
                                 "--mu", "0.8", "--d0", "0.3"]))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["regime"]["x_star"] is None
        assert [fp["classification"] for fp in payload["fixed_points"]] == [
            "non_hyperbolic"
        ]


class TestVerify:
    def test_exit_zero_on_reference(self, tmp_path):
        out = tmp_path / "verify.json"
        status = run(parse_args(
            ["verify", *P0_FLAGS, "--samples", "5000", "--seed", "1",
             "--out", str(out)]
        ))
        assert status == 0
        payload = json.loads(out.read_text())
        assert payload["ok"] is True
        assert payload["n_violations"] == 0
        regions = [r["region"] for r in payload["invariance"]]
        assert regions == ["omega_only", "omega1", "omega2"]
        claims = [r["claim"] for r in payload["lyapunov"]["regions"]]
        assert claims == ["nondecreasing", "nonincreasing"]

    def test_corrupted_region_bound_fails_with_exit_one(self, tmp_path, monkeypatch):
        real = omega_bounds

        def corrupted(p):
            b = real(p)
            return RegionBounds(0.5 * b.x_max, b.y_max, b.x_star, b.y_star)

        monkeypatch.setattr("mosqdyn.geometry.omega_bounds", corrupted)
        out = tmp_path / "verify.json"
        status = run(parse_args(
            ["verify", *P0_FLAGS, "--samples", "5000", "--seed", "1",
             "--out", str(out)]
        ))
        assert status == 1
        payload = json.loads(out.read_text())
        assert payload["ok"] is False
        assert payload["n_violations"] > 0

    def test_below_threshold_verifies_rectangle_only(self, capsys):
        status = run(parse_args(
            ["verify", "--alpha", "0.5", "--beta", "1.0", "--mu", "0.8",
             "--d0", "0.3", "--samples", "2000"]
        ))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert [r["region"] for r in payload["invariance"]] == ["omega_only"]
        assert payload["lyapunov"] is None


class TestCycles:
    def test_reference_certificate_and_empty_search(self, capsys):
        status = run(parse_args(["cycles", *P0_FLAGS, "--grid-n", "20"]))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["ok"] is True
        assert payload["certificate"]["branch"] == "b0_positive"
        assert payload["certificate"]["all_positive"] is True
        assert [b["period"] for b in payload["brute_force"]] == [2, 3, 4]
        assert all(b["cycles"] == [] for b in payload["brute_force"])

    def test_below_threshold_has_no_certificate_but_searches(self, capsys):
        status = run(parse_args(
            ["cycles", "--alpha", "0.5", "--beta", "1.0", "--mu", "0.8",
             "--d0", "0.3", "--grid-n", "15"]
        ))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert payload["certificate"] is None
        assert payload["ok"] is True

    def test_degenerate_corner_reports_certificate_failure(self, capsys):
        # mu = 1, alpha + d0 = 1, beta on the threshold: D = 0.  Newton finds
        # residual-level artifacts near the non-hyperbolic origin there, and
        # the search drops them: at or below the threshold no cycle exists.
        status = main(["cycles", "--alpha", "0.5", "--beta", "2", "--mu", "1",
                       "--d0", "0.5", "--grid-n", "7"])
        captured = capsys.readouterr()
        payload = json.loads(captured.out)
        assert status == 1
        assert captured.err == ""
        assert payload["certificate"] is None
        assert "D = 0" in payload["certificate_error"]
        assert payload["ok"] is False
        assert [b["period"] for b in payload["brute_force"]] == [2, 3, 4]
        assert [b["cycles"] for b in payload["brute_force"]] == [[], [], []]


class TestBasin:
    def test_reference_codes(self, tmp_path):
        out = tmp_path / "basin.csv"
        status = run(parse_args(
            ["basin", *P0_FLAGS, "--grid-n", "8", "--out", str(out)]
        ))
        assert status == 0
        codes = np.loadtxt(out, delimiter=",", dtype=int)
        assert codes.shape == (8, 8)
        assert codes[0, 0] == 0  # the origin cell
        flat = codes.ravel()
        assert np.all(flat[1:] == 1)

    def test_json_mirror(self, capsys):
        status = run(parse_args(["basin", *P0_FLAGS, "--grid-n", "4",
                                 "--format", "json"]))
        payload = json.loads(capsys.readouterr().out)
        assert status == 0
        assert len(payload["xs"]) == 4
        assert payload["codes"][0][0] == 0

    @pytest.mark.parametrize("shape", [(1, 1), (5, 7), (7, 5)])
    def test_csv_matches_the_joined_text(self, shape):
        codes = (np.arange(shape[0] * shape[1]) % 4).astype(np.int8).reshape(shape)
        raster = BasinRaster(xs=np.zeros(shape[1]), ys=np.zeros(shape[0]),
                             codes=codes)
        # reference: str() of each code, joined by commas and newlines
        want = "\n".join(",".join(str(int(c)) for c in row) for row in codes) + "\n"
        assert _basin_csv(raster) == want


class TestSweep:
    def test_regime_table(self, capsys):
        status = run(parse_args(
            ["sweep", "--alpha", "0.5", "--beta", "2.56", "--mu", "0.8",
             "--d0", "0.3", "--grid-n", "4"]
        ))
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert status == 0
        assert lines[0] == "beta,regime,origin_class,x_star,y_star,certificate_ok"
        rows = [line.split(",") for line in lines[1:]]
        assert len(rows) == 4
        regimes = [r[1] for r in rows]
        assert regimes == ["below_threshold", "at_threshold",
                           "above_threshold", "above_threshold"]
        assert [r[2] for r in rows] == ["attracting", "non_hyperbolic",
                                        "saddle", "saddle"]
        assert rows[0][5] == "na" and rows[1][5] == "true"
        assert rows[0][3] == "nan" and float(rows[2][3]) > 0.0

    def test_degenerate_corner_row_fails_certificate(self, capsys):
        status = main(["sweep", "--alpha", "0.5", "--beta", "4", "--mu", "1",
                       "--d0", "0.5", "--grid-n", "2"])
        rows = [line.split(",") for line in
                capsys.readouterr().out.strip().split("\n")[1:]]
        assert status == 0
        assert [(r[1], r[5]) for r in rows] == [("at_threshold", "false"),
                                               ("above_threshold", "true")]


class TestDeterminismAndExitCodes:
    def test_verify_and_basin_are_byte_identical(self, tmp_path):
        pairs = []
        for name, argv in [
            ("verify", ["verify", *P0_FLAGS, "--samples", "3000", "--seed", "1"]),
            ("basin", ["basin", *P0_FLAGS, "--grid-n", "6"]),
        ]:
            files = []
            for i in (1, 2):
                out = tmp_path / f"{name}_{i}"
                assert main([*argv, "--out", str(out)]) == 0
                files.append(out.read_bytes())
            pairs.append(files)
        for a, b in pairs:
            assert a == b

    def test_thread_env_does_not_change_bytes(self, tmp_path, monkeypatch):
        argv = ["verify", *P0_FLAGS, "--samples", "3000", "--seed", "1"]
        one = tmp_path / "one"
        assert main([*argv, "--out", str(one)]) == 0
        monkeypatch.setenv("MOSQDYN_THREADS", "3")
        two = tmp_path / "two"
        assert main([*argv, "--out", str(two)]) == 0
        assert one.read_bytes() == two.read_bytes()

    def test_usage_errors_exit_two(self, capsys):
        assert main(["simulate", "--alpha", "-1", "--beta", "2", "--mu", "0.8",
                     "--d0", "0.3", "--x0", "1", "--y0", "0.5"]) == 2
        assert main([]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["equilibria", "--alpha", "0.5", "--beta", "2e-200", "--mu", "1e-200",
         "--d0", "0.3"],
        ["basin", "--alpha", "0.5", "--beta", "2e-200", "--mu", "1e-200",
         "--d0", "0.3", "--grid-n", "2"],
        # only a lower row of the sweep underflows
        ["sweep", "--alpha", "0.5", "--beta", "1e-153", "--mu", "1e-170",
         "--d0", "0.3", "--grid-n", "10"],
    ], ids=lambda argv: argv[0])
    def test_underflowing_fixed_point_exits_two(self, capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("mosqdyn: error: --beta")
        assert "underflow" in lines[0]

    def test_invalid_thread_env_exits_two(self, monkeypatch, capsys):
        monkeypatch.setenv("MOSQDYN_THREADS", "zero")
        assert main(["verify", *P0_FLAGS, "--samples", "100"]) == 2
        assert "MOSQDYN_THREADS" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["simulate", *P0_FLAGS, "--x0", "1", "--y0", "0.5", "--max-iter", "10"],
        ["equilibria", *P0_FLAGS],
        ["verify", *P0_FLAGS, "--samples", "10"],
        ["cycles", *P0_FLAGS, "--grid-n", "1"],
        ["basin", *P0_FLAGS, "--grid-n", "1"],
        ["sweep", *P0_FLAGS, "--grid-n", "1"],
    ], ids=lambda argv: argv[0])
    def test_every_subcommand_refuses_bad_thread_env(self, monkeypatch, capsys,
                                                     argv):
        monkeypatch.setenv("MOSQDYN_THREADS", "0")
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "MOSQDYN_THREADS" in captured.err

    def test_console_entry_point(self, tmp_path):
        out = tmp_path / "eq.json"
        # the child imports the same mosqdyn as this process, installed or not
        src = str(Path(mosqdyn.__file__).resolve().parent.parent)
        env = {**os.environ,
               "PYTHONPATH": os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run(
            [sys.executable, "-m", "mosqdyn", "equilibria", *P0_FLAGS,
             "--out", str(out)],
            capture_output=True,
            env=env,
        )
        assert proc.returncode == 0
        assert json.loads(out.read_text())["regime"]["x_star"] == pytest.approx(1.5)

    def test_csv_floats_carry_full_precision(self, capsys):
        status = run(parse_args(
            ["simulate", *P0_FLAGS, "--x0", "0.1", "--y0", "0.2",
             "--max-iter", "1"]
        ))
        out = capsys.readouterr().out
        assert status == 0
        row = out.strip().split("\n")[1].split(",")
        # 17 significant digits always round-trip to the exact double
        assert float(row[1]) == 0.1 and float(row[2]) == 0.2
        assert row[1] == format(0.1, ".17g")
        from mosqdyn import State, step_w0, validate_params

        p = validate_params(0.5, 2.0, 0.8, 0.3, 0.0)
        expected = step_w0(p, State(0.1, 0.2))
        last = out.strip().split("\n")[-1].split(",")
        assert float(last[1]) == expected.x and float(last[2]) == expected.y
