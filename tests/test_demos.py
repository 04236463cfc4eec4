"""The demos the README advertises run to completion without warnings and
print the bytes pinned here: the sha256 of each demo's stdout."""

import hashlib
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import env_with_src

DEMOS = sorted((Path(__file__).resolve().parents[1] / "demos").glob("*.py"))

STDOUT_SHA256 = {
    "01_checking_r_matrices":
        "cda1eb6c35c3325b3f61ccaf299c0c51d3b3ca2e6225c887cb98d7422c978cd0",
    "02_cohomology":
        "f98205a0c42d41f9e41c554cd39ef04a3d8d34960c1fa2fcb9dbe61961ac578b",
    "03_graded_and_maurer_cartan":
        "6e18935e138bd6ff05d16446622a32e372d528b8e30454d5fdebbf618bc68252",
    "04_deformations_and_nijenhuis":
        "33187dcf8135b14d32898996d892669657acc906f5ce279d5f5a62b522cd7934",
    "05_doubling_and_involutions":
        "d16edbf2cebc75c75711b5c0650d84a23317e17d9293be234e6e228772cbf4b1",
}


def test_all_five_demos_are_found():
    assert len(DEMOS) == 5


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_runs_cleanly(demo):
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          env=env_with_src(), timeout=120)
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stderr == b""
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[demo.stem]
