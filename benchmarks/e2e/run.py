#!/usr/bin/env python3
"""End-to-end serving benchmark: entry point.

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

The benchmark measures the checkout it sits in: it puts ``<checkout>/src`` on
the path for itself and for the server child, and refuses to run without it
(an installed ``repro`` is never what gets measured).  See ``README.md`` in
this directory; ``harness.py`` holds the run itself.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SOURCE = HERE.parents[1] / "src"


def main() -> int:
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"{SOURCE}/repro not found: the benchmark runs from inside a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SOURCE), str(HERE)]
    import harness

    return harness.main(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
