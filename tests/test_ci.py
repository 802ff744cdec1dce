"""The CI workflow's ``polar-punct`` command lines, and the helper that its
memory-bounded steps run under."""

import argparse
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from polarpunct.cli import build_parser

GITHUB = Path(__file__).resolve().parents[1] / ".github"
PEAK_RSS = GITHUB / "peak_rss.py"


def _workflow_commands(path: Path) -> list[str]:
    """The argument text of every ``polar-punct`` command in the shell lines of
    ``path``: continued lines joined, comment lines skipped, each command cut
    at ``;``. The file is read as plain text, so no YAML parser is needed."""
    text = re.sub(r"\\\n\s*", " ", path.read_text())
    lines = (line for line in text.splitlines() if not line.lstrip().startswith("#"))
    matches = (re.search(r"(?:^|[\s/])polar-punct(\s.*|$)", line) for line in lines)
    return [m.group(1).split(";")[0].strip() for m in matches if m]


WORKFLOW_COMMANDS = _workflow_commands(GITHUB / "workflows" / "tests.yml")


def test_workflow_runs_every_subcommand():
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert len(WORKFLOW_COMMANDS) >= 15
    assert {shlex.split(cmd)[0] for cmd in WORKFLOW_COMMANDS} == {"--version", *sub.choices}


@pytest.mark.parametrize("command", WORKFLOW_COMMANDS)
def test_workflow_command_parses(command):
    argv = shlex.split(command)
    if argv == ["--version"]:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 0
    else:
        build_parser().parse_args(argv)  # argparse exits 2 on an unknown or malformed flag


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
