"""Run one traced ``pigeonpost`` CLI command in a fresh interpreter.

Usage: python3 perfbench/traced_cli.py STATS_FILE CLI_ARG...

Imports the CLI from ``src`` (the caller sets ``PYTHONPATH``), installs the
tracer, runs ``pigeonpost.cli.main`` on the remaining arguments and writes
the per-layer self times and counts to STATS_FILE as JSON.  The exit code
is the CLI's.  ``imported_at`` is the ``perf_counter`` reading after
``import pigeonpost.cli``; ``perf_counter`` is the system-wide monotonic
clock on Linux, so the caller subtracts its spawn time to get the start-up
time.
"""

import json
import sys
from time import perf_counter

import pigeonpost.cli

IMPORTED_AT = perf_counter()

from tracer import Tracer  # noqa: E402  (the program's import is timed first)


def main() -> int:
    stats_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = pigeonpost.cli.main(argv)
    finally:
        tracer.uninstall()
        with open(stats_path, "w", encoding="utf-8") as handle:
            json.dump({"imported_at": IMPORTED_AT, **tracer.snapshot()}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
