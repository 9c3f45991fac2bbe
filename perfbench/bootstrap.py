"""Traced CLI job: wrap hopfchar's public functions, then run its CLI.

Usage: python perfbench/bootstrap.py TRACE_PATH SUBCOMMAND [ARGS...]

Runs in the same one-process-per-job layout as `python -m hopfchar.cli`,
and exits with the CLI's status after dumping the spans to TRACE_PATH.
"""

import sys

from spans import Tracer


def main() -> int:
    tracer = Tracer().install()
    from hopfchar import cli
    try:
        return cli.main(sys.argv[2:])
    finally:
        tracer.dump(sys.argv[1])


if __name__ == "__main__":
    sys.exit(main())
