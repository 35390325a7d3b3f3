"""Time the program's set-up in a fresh interpreter: importing the package
and one warm-up command.  Prints the seconds taken.

    python3 perfbench/setup_probe.py SRC_DIR
"""

import contextlib
import io
import sys
import time


def main() -> None:
    sys.path.insert(0, sys.argv[1])
    t0 = time.perf_counter()
    from depmodal import cli

    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(["examples", "open_door", "--json"])
    elapsed = time.perf_counter() - t0
    if rc != 0:
        sys.exit(f"warm-up command exited {rc}")
    print(repr(elapsed))


if __name__ == "__main__":
    main()
