"""Run a command and fail if its peak resident set size exceeds a limit.

Usage: python peak_rss.py LIMIT_MB -- CMD [ARG...]

Exits with the command's status if the command fails, else 1 if the peak
RSS of the command (or of the largest process it waited for) exceeds
LIMIT_MB megabytes, else 0. A LIMIT_MB that is no positive number is a
usage error (exit 2), as is a missing ``--``.
"""

import math
import resource
import shlex
import subprocess
import sys


def main(argv: list[str]) -> int:
    try:
        limit_mb = float(argv[0])
    except (IndexError, ValueError):
        limit_mb = math.nan
    if len(argv) < 3 or argv[1] != "--" or not limit_mb > 0:
        print("usage: peak_rss.py LIMIT_MB -- CMD [ARG...]", file=sys.stderr)
        return 2
    status = subprocess.run(argv[2:]).returncode
    if status:
        return status
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB (limit {limit_mb:g} MB): {shlex.join(argv[2:])}")
    return int(peak_mb > limit_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
