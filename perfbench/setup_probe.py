"""Set-up probe: imports rigiform from a source tree and loads scenario files.

    python3 perfbench/setup_probe.py SRC_DIR [SCENARIO_FILE ...]

Prints the seconds from just before the import to just after the last
file is loaded and validated.  Run in a fresh interpreter, so the import
of rigiform and numpy is cold.
"""

import sys
from time import perf_counter


def main(argv):
    start = perf_counter()
    sys.path.insert(0, argv[0])
    from rigiform.scenario import load_scenario

    for path in argv[1:]:
        load_scenario(path)
    print(repr(perf_counter() - start))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
