"""Smoke test: every demo script and the README's examples run against this checkout.

The demos and the README import the public API by name, so a removed or
renamed export shows up here. Each script runs in its own temporary
directory, where it may write its figures and result files.
"""

import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polarpunct.cli import build_parser
from test_ci import _workflow_commands

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
README = ROOT / "README.md"


def _run(argv, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), MPLBACKEND="Agg")
    return subprocess.run([sys.executable, *argv], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script, tmp_path):
    proc = _run([str(script)], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_quick_start_runs(tmp_path):
    code = re.search(r"## Library quick start\n\n```python\n(.*?)```", README.read_text(),
                     re.DOTALL).group(1)
    proc = _run(["-c", code], tmp_path)
    assert proc.returncode == 0, proc.stderr
    # The two lines its comments promise: QUP punctures channel 63, WQP none.
    assert proc.stdout.splitlines() == ["(63,)", "()"]


def test_readme_commands_parse():
    commands = [shlex.split(cmd) for cmd in _workflow_commands(README)]
    assert [argv[0] for argv in commands] == ["construct", "propagate", "puncture",
                                              "simulate", "compare"]
    for argv in commands:
        build_parser().parse_args(argv)  # argparse exits 2 on an unknown or malformed flag
