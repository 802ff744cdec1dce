"""The helper that the CI workflow runs its memory-bounded steps under."""

import subprocess
import sys
from pathlib import Path

import pytest

PEAK_RSS = Path(__file__).resolve().parents[1] / ".github" / "peak_rss.py"


def _peak_rss(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(PEAK_RSS), *argv],
                          capture_output=True, text=True)


@pytest.mark.parametrize("limit, status", [("10000", 0), ("1", 1)])
def test_limit_decides_the_exit_status(limit, status):
    proc = _peak_rss(limit, "--", sys.executable, "-c", "pass")
    assert proc.returncode == status
    assert proc.stdout.startswith("peak RSS ")
    assert f"(limit {limit} MB)" in proc.stdout


def test_failed_command_keeps_its_status():
    proc = _peak_rss("10000", "--", sys.executable, "-c", "raise SystemExit(3)")
    assert proc.returncode == 3
    assert proc.stdout == ""


def test_usage_error():
    proc = _peak_rss("10000", sys.executable, "-c", "pass")
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")


@pytest.mark.parametrize("argv", [("abc", "--", "true"), ("nan", "--", "true"),
                                  ("0", "--", "true"), ()])
def test_bad_limit_is_a_usage_error(argv):
    proc = _peak_rss(*argv)
    assert proc.returncode == 2
    assert proc.stderr.startswith("usage:")
    assert proc.stdout == ""
