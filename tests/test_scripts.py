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


@pytest.mark.parametrize("script", sorted(SCRIPTS))
def test_script_runs(script):
    args, header = SCRIPTS[script]
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / script), *args],
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert out.returncode == 0, out.stderr
    assert header.split() in [line.split() for line in out.stdout.splitlines()]


def test_every_script_has_a_run():
    assert sorted(SCRIPTS) == sorted(p.name for p in (ROOT / "scripts").glob("*.py"))
