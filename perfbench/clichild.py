"""`python -m qwitt.cli`, timed: one CLI request in a fresh interpreter.

Imports the CLI, runs ``qwitt.cli.main`` on the arguments and prints the
seconds ``main`` took, after the CLI's own output, as the last line of
stdout.  The exit code is the CLI's own.

    python3 perfbench/clichild.py <verb> <payload> [--bound N]
"""

import sys
import time

import qwitt.cli


def main() -> int:
    t0 = time.perf_counter()
    rc = qwitt.cli.main(sys.argv[1:])
    print(time.perf_counter() - t0)
    return rc


if __name__ == "__main__":
    sys.exit(main())
