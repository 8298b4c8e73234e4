import csv
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import pytest

from qmm import acceptance, detkit
from qmm.cli import COMMANDS, main
from qmm.counting import DEFAULT_STATE_CAP
from qmm.config import RunConfig, load_config
from qmm.orthopoly import QuasiDefiniteError, u_coefficients
from qmm.polytope import DiagonalSpec, mc_volume_peel


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.seed == 42 and cfg.output_format == "text"
        assert cfg.state_cap == DEFAULT_STATE_CAP

    def test_file_and_env_override(self, tmp_path, monkeypatch):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nseed = 7\nmc_samples = 5000\n")
        cfg = load_config(str(path), environ={})
        assert cfg.seed == 7 and cfg.mc_samples == 5000
        cfg = load_config(str(path), environ={"QMM_SEED": "9"})
        assert cfg.seed == 9 and cfg.mc_samples == 5000
        # an integral value in float notation reads as that integer, and a
        # long integer is read exactly, not through a float
        env = {"QMM_MC_SAMPLES": "1e5", "QMM_STATE_CAP": "0.5e1", "QMM_SEED": str(2**64 + 1)}
        cfg = load_config(str(path), environ=env)
        assert (cfg.mc_samples, cfg.state_cap, cfg.seed) == (100_000, 5, 2**64 + 1)

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 7\n")
        with pytest.raises(ValueError):
            load_config(str(path))

    @pytest.mark.parametrize("field,value", [("seed", -1), ("mc_samples", 0),
                                             ("state_cap", 0), ("output_format", "yaml")])
    def test_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(**{field: value})
        with pytest.raises(ValueError, match=field):
            RunConfig().override(**{field: value})


class TestCli:
    def test_count_prints_value(self, capsys):
        assert main(["count", "--n", "5", "--t", "6,6,6,7,7"]) == 0
        assert capsys.readouterr().out.strip() == "795"

    def test_pearcey_json_fields(self, capsys):
        assert main(["pearcey", "--a", "-24", "--b", "14", "--k", "0",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["direct"] == pytest.approx(1.01e-5, rel=0.02, abs=0)
        assert payload["saddle"] == pytest.approx(1.04e-5, rel=0.01, abs=0)
        assert payload["ratio"] == pytest.approx(1.03, abs=0.01)

    def test_json_is_byte_identical(self, capsys):
        argv = ["volume", "--h", "0.8,0.6,0.4,0.3", "--mc", "--format", "json",
                "--samples", "20000"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_volume_mc_n7_peels(self, capsys):
        # hit-and-miss finds no hit in 1e5 samples here and would print 0 +- 0
        h = (0.5,) * 7
        assert main(["volume", "--h", ",".join(map(str, h)), "--mc", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["mc"] > 0 and payload["mc_std_error"] > 0
        assert (payload["mc"], payload["mc_std_error"]) == mc_volume_peel(
            DiagonalSpec(7, h), 100_000, 42)

    def test_det_and_criterion_9_share_nodes(self, capsys, monkeypatch):
        asked = []
        nodes = detkit.exp_kernel_nodes
        monkeypatch.setattr(detkit, "exp_kernel_nodes", lambda n: asked.append(n) or nodes(n))
        assert main(["det", "--kind", "exp-kernel", "--n", "7"]) == 0
        acceptance.check_9(RunConfig())
        assert asked == [7, *acceptance.EXPDET_RATIOS]

    def test_usage_error_exit_2(self):
        assert main(["count", "--n", "5", "--badflag", "1"]) == 2

    @pytest.mark.parametrize("argv", [["count", "--n", "3", "--t", "a,b"],
                                      ["volume", "--h", "1,x,2"],
                                      ["partition", "--e", "1,,2"]])
    def test_malformed_list_exit_2(self, capsys, argv):
        assert main(argv) == 2
        assert "expected comma-separated" in capsys.readouterr().err

    def test_numeric_failure_exit_1(self, capsys, monkeypatch):
        # resource guard trips -> diagnostic on stderr, exit 1
        monkeypatch.setenv("QMM_STATE_CAP", "10000")
        rc = main(["count", "--n", "10", "--t", ",".join(["40"] * 10)])
        assert rc == 1
        assert "too large" in capsys.readouterr().err

    def test_verify_asym_honours_the_state_cap(self, capsys, monkeypatch):
        # criterion 4's exact counts stop at the configured cap, as criterion 3's do
        monkeypatch.setenv("QMM_STATE_CAP", "100")
        assert main(["verify", "--suite", "asym"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: instance too large")

    def test_arithmetic_failure_exit_1_without_traceback(self, capsys, monkeypatch):
        def singular(args, cfg):
            raise QuasiDefiniteError("moment functional not quasi-definite")

        monkeypatch.setitem(COMMANDS, "orthopoly", singular)
        assert main(["orthopoly", "--n", "3"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: moment functional not quasi-definite\n"

    def test_verify_suite_exit_codes(self, capsys):
        rc = main(["verify", "--suite", "utilities"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out and "reference:" in out

    def test_verify_known_issue_suite_fails_honestly(self, capsys):
        rc = main(["verify", "--suite", "det"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL (documented)" in out

    def test_partition_text(self, capsys):
        rc = main(["partition", "--e", "1.0,1.1,1.2"])
        assert rc == 0
        assert "z_free" in capsys.readouterr().out

    def test_count_total_skips_exact_oracle(self, capsys):
        # N=12 is far beyond the exact counter; --total needs only the binomial
        rc = main(["count", "--n", "12", "--t", ",".join(["5"] * 12), "--total"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == str(math.comb(66 - 1 + 30, 66 - 1))

    @pytest.mark.parametrize("g", ["0", "0.1"])
    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_nonpositive_samples_exit_2(self, capsys, g, samples):
        rc = main(["partition", "--e", "1,1.1", "--g", g, "--mc", "--samples", samples])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and "must be >= 1" in captured.err

    # the smallest valid call of each subcommand, --samples 0 appended below
    MINIMAL_ARGV = {
        "count": ["--n", "3", "--t", "1,1,2"],
        "asym": ["--n", "3", "--t", "2,2,2"],
        "volume": ["--h", "0.5,0.5,0.5,0.5"],
        "orthopoly": ["--n", "2"],
        "det": ["--kind", "beta", "--n", "2"],
        "pearcey": ["--a", "1", "--b", "1"],
        "partition": ["--e", "1,1.1"],
        "verify": ["--suite", "utilities"],
    }

    @pytest.mark.parametrize("command", sorted(COMMANDS))
    def test_zero_samples_exit_2_on_every_command(self, capsys, command):
        rc = main([command, *self.MINIMAL_ARGV[command], "--samples", "0"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: config: mc_samples must be >= 1, got 0\n"

    @pytest.mark.parametrize("env,flags", [({"QMM_STATE_CAP": "0"}, []),
                                           ({"QMM_SEED": "-1"}, []),
                                           ({"QMM_MC_SAMPLES": "0"}, []),
                                           ({"QMM_STATE_CAP": "4.5e0"}, []),
                                           ({}, ["--seed", "-1"])],
                             ids=["env-state-cap", "env-seed", "env-samples", "env-fraction",
                                  "flag-seed"])
    def test_out_of_range_config_exit_2(self, capsys, monkeypatch, env, flags):
        for key, value in env.items():
            monkeypatch.setenv(key, value)
        rc = main(["count", "--n", "5", "--t", "6,6,6,7,7", *flags])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: config: ")

    def test_pearcey_huge_a_exit_1(self, capsys):
        # the trapezoid rule would need about 1e300 nodes at |a| = 1e300, and
        # a x overflows at 1e308: both are numerical failures, not crashes
        for a, message in (("1e300", "nodes"), ("1e308", "not finite")):
            rc = main(["pearcey", "--a", a, "--b", "1"])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
            assert message in captured.err

    def test_pearcey_value_below_error_exit_1(self, capsys):
        # the value underflows; resolving the phase a x would take about 1e21
        # trapezoid nodes, past the rule's cap (quad had given 1.9e-2 with
        # abserr 4.1e-2 here)
        rc = main(["pearcey", "--a", "1e20", "--b", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "nodes" in captured.err

    def test_pearcey_narrow_gaussian(self, capsys):
        # 8 b^3 overflows a float at b = 1e200; the region test scales it away
        rc = main(["pearcey", "--a", "0", "--b", "1e200", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["region"] == "one-contour"
        assert payload["direct"] == pytest.approx(math.sqrt(math.pi / 1e200), rel=1e-14, abs=0.0)
        assert payload["saddle"] == pytest.approx(math.sqrt(math.pi / 1e200), rel=1e-14, abs=0.0)
        assert payload["ratio"] == pytest.approx(1.0, rel=1e-14)

    def test_pearcey_underflow_exit_1(self, capsys):
        # Gamma(9/2) b^-9/2 = 1.2e-900 at b = 1e200 is below the float range,
        # and so is the value at a = 1e4, b = 1, whose saddles lie near Re x = 12
        for args in (["--a", "0", "--b", "1e200", "--k", "8"], ["--a", "1e4", "--b", "1"]):
            rc = main(["pearcey", *args])
            captured = capsys.readouterr()
            assert rc == 1
            assert captured.out == ""
            assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
            assert "underflows" in captured.err

    def test_verify_json_is_valid(self, capsys):
        rc = main(["verify", "--suite", "partition", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and all(type(r["passed"]) is bool for r in payload)
        assert all(type(r["known_issue"]) is bool for r in payload)

    def test_verify_csv_rows(self, capsys):
        rc = main(["verify", "--suite", "utilities", "--format", "csv"])
        assert rc == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert len(rows) == 5
        assert set(rows[0]) == {"criterion", "clause", "reference", "passed", "detail",
                                "known_issue"}
        assert all(r["passed"] == "True" for r in rows)

    def test_csv_format(self, capsys):
        rc = main(["count", "--n", "3", "--t", "1,1,2", "--format", "csv"])
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split(",") == ["count", "n", "t"]

    @pytest.mark.parametrize("text", [
        "seed 7\n",
        "seed=abc\n",
        None,  # missing file
        "output_format=yaml\n",
        "seed=7\nbogus=1\n",
        "tolerances=1\n",
        "state_cap=0\n",
        "seed=1.7\n",  # a fraction is rejected, not truncated
        "mc_samples=2.9\n",
    ])
    def test_bad_config_exit_2(self, capsys, tmp_path, text):
        path = tmp_path / "run.cfg"
        if text is not None:
            path.write_text(text)
        rc = main(["partition", "--e", "1,1.1", "--config", str(path)])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")

    def test_json_overflow_is_null(self, capsys):
        # value = e^5345 overflows a float; JSON has no Infinity
        rc = main(["asym", "--n", "60", "--t", ",".join(["500"] * 60), "--format", "json"])
        assert rc == 0

        def reject(name):
            raise ValueError(f"non-JSON constant {name}")

        payload = json.loads(capsys.readouterr().out, parse_constant=reject)
        assert payload["value"] is None
        assert math.isfinite(payload["log_value"]) and payload["log_value"] > 700

    def test_exp_kernel_det_past_float_underflow(self, capsys):
        # at n = 20 both determinants lie far below float64's range; the
        # ratio is the mpmath quotient, not a division of two floats
        rc = main(["det", "--kind", "exp-kernel", "--n", "20", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ratio"] == pytest.approx(1.0635709387882695, rel=1e-12)

    def test_exp_kernel_det_prints_no_underflowed_zero(self, capsys):
        # both determinants are about 1e-727 at n = 20, far below float64
        rc = main(["det", "--kind", "exp-kernel", "--n", "20", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        exact, fact = mp.mpf(payload["exact"]), mp.mpf(payload["factored"])
        assert exact > 0 and fact > 0
        assert float(exact / fact) == pytest.approx(payload["ratio"], rel=1e-12)

    def test_orthopoly_u_table(self, capsys):
        assert main(["orthopoly", "--n", "4", "--u", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        umat = u_coefficients(4)
        assert {key: value for key, value in payload.items() if key.startswith("U_")} == {
            f"U_{m}_{k}": umat[m, k] for m in range(5) for k in range(m + 1)}

    @pytest.mark.parametrize("kind,det", [("beta", detkit.beta_det),
                                          ("shifted-factorial", detkit.shifted_factorial_det)])
    def test_exact_det_kinds(self, capsys, kind, det):
        assert main(["det", "--kind", kind, "--n", "5", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"n": 5, "det": str(det(5))}

    def test_partition_tiny_kinetic_eigenvalue(self, capsys):
        # e_1^2 underflows to 0; the weak-coupling exponent 3g/(4 e_1^2) is
        # 0 at g = 0 and its factor exp(-inf) = 0 at g > 0, printed as null
        assert main(["partition", "--e", "1e-300,1", "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert math.isfinite(payload["log_z_weak"]) and math.isfinite(payload["log_z_free"])
        assert main(["partition", "--e", "1e-300,1", "--g", "0.1", "--format", "json"]) == 0
        assert json.loads(capsys.readouterr().out)["log_z_weak"] is None

    @pytest.mark.parametrize("argv,message", [
        (["--e", "nan,1.0"], "kinetic eigenvalues must be positive"),
        (["--e", "inf,1.0"], "kinetic eigenvalues must be positive"),
        (["--e", "1.0,1.1", "--g", "nan"], "coupling must be >= 0"),
    ])
    def test_partition_non_finite_rejected(self, capsys, argv, message):
        rc = main(["partition", *argv])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    def test_pearcey_non_finite_rejected(self, capsys):
        rc = main(["pearcey", "--a", "nan", "--b", "1"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.err == "error: a and b must be finite\n"

    @pytest.mark.parametrize("argv,message", [
        (["partition", "--e=-1,2"], "kinetic eigenvalues must be positive"),
        (["partition", "--e", "1,1,1,1,1", "--g", "0.1", "--mc"],
         "matrix MC limited to n <= 4 (N^2-dimensional integral)"),
        (["orthopoly", "--n", "70"], "n_max capped at 64"),
        (["orthopoly", "--n", "33", "--u"], "U table capped at n_max = 32"),
        (["asym", "--n", "5", "--t", "6,6,6,7,7", "--lam", "nan"], "lambda must be positive and finite"),
        (["asym", "--n", "5", "--t", "6,6,6,7,7", "--lam", "inf"], "lambda must be positive and finite"),
        (["asym", "--n", "5", "--t", "6,6,6,7,7", "--omega", "nan"], "omega must be finite"),
        (["asym", "--n", "5", "--t", "6,6,6,7,7", "--omega", "inf"], "omega must be finite"),
    ])
    def test_rejected_input_exit_2(self, capsys, argv, message):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

    @pytest.mark.parametrize("argv,absent", [
        (["volume", "--h", "1,1,1,1"], {"asymptotic", "applicability_margin"}),
        (["partition", "--e", "1.0", "--zero-kinetic"], {"log_z_weak", "log_z_zero_kinetic"}),
    ])
    def test_inapplicable_formula_left_out(self, capsys, argv, absent):
        # chi = n, N = 1 and g = 0: the formulas return None and the keys are absent
        rc = main([*argv, "--format", "json"])
        assert rc == 0
        assert not absent & set(json.loads(capsys.readouterr().out))

    def test_asym_exact_count_zero(self, capsys):
        # an odd total admits no symmetric zero-diagonal matrix; the ratio to a
        # zero count is inf, which JSON prints as null
        rc = main(["asym", "--n", "3", "--t", "1,1,1", "--exact", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["exact"] == "0"
        assert payload["ratio"] is None

    def test_pearcey_coalescence_band_has_no_saddle(self, capsys):
        # 8 b^3 and 27 a^2 agree to rounding here, so pearcey_region reports the
        # caustic boundary; before the saddle code read that region it printed
        # saddle 378.27673045342095 and ratio 682.6149875969587 at this point
        rc = main(["pearcey", "--a", "2.828427124743362", "--b", "3", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["region"] == "caustic-boundary"
        assert payload["saddle"] is None and payload["ratio"] is None

    # both exit 0 when their output is read
    @pytest.mark.parametrize("argv", [["count", "--n", "5", "--t", "6,6,6,7,7"],
                                      ["verify", "--suite", "count", "--format", "json"]],
                             ids=["count", "verify"])
    def test_closed_pipe_exits_1_quietly(self, argv):
        src = str(Path(__file__).resolve().parents[1] / "src")
        with subprocess.Popen([sys.executable, "-m", "qmm.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env={**os.environ, "PYTHONPATH": src}) as proc:
            proc.stdout.close()  # the reader is gone before the child writes
            err = proc.stderr.read().decode()
        assert proc.returncode == 1
        assert "Traceback" not in err and "Exception ignored" not in err
