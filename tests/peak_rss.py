"""Run a command; fail when it fails or its peak RSS passes a bound.

    python3 tests/peak_rss.py BOUND_MB COMMAND [ARG ...]

The command's standard output and error pass through, and this script adds
one line to standard error: the command's exit code and its peak RSS in MB.
It exits 0 only when the command exits 0 within the bound.  The launcher
itself is small, so the largest peak among its waited-for descendants,
which RUSAGE_CHILDREN reports (in KiB on Linux), is the command's own.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    bound_mb, command = float(argv[0]), argv[1:]
    code = subprocess.call(command)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"exit code {code}, peak RSS {peak_mb:.0f} MB", file=sys.stderr)
    return int(code != 0 or peak_mb > bound_mb)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
