"""Each experiment script in scripts/ runs to the end on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# script -> (small arguments, the header line of its table)
SCRIPTS = {
    "ratio_table.py": (["--max-n", "8"], "N t lambda exact asymptotic ratio"),
    "volume_sweep.py": (["--n", "4", "--points", "3", "--samples", "2000"],
                        "x,exact,asymptotic,mc,mc_se"),
    "pearcey_table.py": (["--kmax", "2"], "k direct saddle ratio"),
    "partition_checks.py": (["--samples", "2000"], "g free weak eigen MC matrix MC"),
}


def _run(script, args):
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    return out.stdout.splitlines()


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    args, header = SCRIPTS[script]
    assert header.split() in [line.split() for line in _run(script, args)]


def test_volume_sweep_n3_has_no_sampler():
    # the N = 3 polytope is a point: exact indicator, nan MC columns
    lines = _run("volume_sweep.py", ["--n", "3", "--points", "3", "--samples", "2000"])
    assert lines[0] == "x,exact,asymptotic,mc,mc_se"
    assert [line.split(",")[3:] for line in lines[1:]] == [["nan", "nan"]] * 3


def test_volume_sweep_one_point():
    lines = _run("volume_sweep.py", ["--n", "4", "--points", "1", "--samples", "2000"])
    assert [line.split(",")[0] for line in lines] == ["x", "0.500000"]


def test_partition_checks_single_eigenvalue():
    # N = 1: the weak-coupling form does not apply and prints nan
    lines = _run("partition_checks.py", ["--e", "1.0", "--samples", "2000"])
    assert len(lines) == 6 and all(line.split()[2] == "nan" for line in lines[1:])


def test_every_script_has_a_run():
    assert sorted(SCRIPTS) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
