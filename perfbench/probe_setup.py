"""Time langevin-lab's set-up in a fresh interpreter: import plus target builds.

Usage: python3 perfbench/probe_setup.py SRC_DIR TARGET.json [TARGET.json ...]

Prints the seconds from before ``import langevin_lab`` until every
target file has been loaded with ``load_target``.  Nothing else is
imported first, so numpy and scipy import time counts as the program's.
"""

import sys
from time import perf_counter


def main() -> int:
    src, *targets = sys.argv[1:]
    sys.path.insert(0, src)
    t0 = perf_counter()
    import langevin_lab.cli  # noqa: F401  (the CLI imports every module)
    from langevin_lab.targets import load_target

    for path in targets:
        load_target(path)
    print(repr(perf_counter() - t0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
