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

from qmm.cli import main
from qmm.counting import DEFAULT_STATE_CAP
from qmm.config import RunConfig, load_config


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

    def test_bad_line_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed 7\n")
        with pytest.raises(ValueError):
            load_config(str(path))


class TestCli:
    def test_count_prints_value(self, capsys):
        assert main(["count", "--n", "5", "--t", "6,6,6,7,7"]) == 0
        assert capsys.readouterr().out.strip() == "795"

    def test_pearcey_json_fields(self, capsys):
        assert main(["pearcey", "--a", "-24", "--b", "14", "--k", "0",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["direct"] == pytest.approx(1.01e-5, rel=0.02)
        assert payload["saddle"] == pytest.approx(1.04e-5, rel=0.01)
        assert payload["ratio"] == pytest.approx(1.03, abs=0.01)

    def test_json_is_byte_identical(self, capsys):
        argv = ["volume", "--h", "0.8,0.6,0.4,0.3", "--mc", "--format", "json",
                "--samples", "20000"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

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

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_pearcey_huge_a_exit_1(self, capsys):
        # quad returns nan at |a| ~ 1e300; that is a numerical failure, not a crash
        rc = main(["pearcey", "--a", "1e300", "--b", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "not finite" in captured.err

    def test_pearcey_value_below_error_exit_1(self, capsys):
        # quad gives -7.5e-37 with abserr 2.1e-36 here: no digit of it is known
        rc = main(["pearcey", "--a", "1e20", "--b", "1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.count("\n") == 1 and captured.err.startswith("error: ")
        assert "error estimate" in captured.err

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
    ])
    def test_rejected_input_exit_2(self, capsys, argv, message):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == f"error: {message}\n"

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
