"""Every row of ``cli_cases`` through the ``cavlink`` script on PATH.

A plain ``pytest`` run does not collect this module; name it to run it:
``python -m pytest -q tests/installed_cli.py``.
"""

import shutil
import subprocess

import pytest
from cli_cases import CASES, check


@pytest.mark.parametrize("case", CASES.values(), ids=CASES)
def test_case(case, tmp_path):
    script = shutil.which("cavlink")
    assert script, "no cavlink script on PATH: install the package first"

    def call(argv):
        proc = subprocess.run([script, *argv], cwd=tmp_path, capture_output=True, text=True,
                              timeout=300)
        return proc.returncode, proc.stdout, proc.stderr

    check(case, tmp_path, call)
