"""Reference figures quoted in bench/README.md.

    python3 bench/reference.py

Packs the seed-0 tiny stream of the square_tiny_stream workload (radii
U[0.002, 0.004] into the general-mode square) at n = 1k, 5k and 10k,
once each, and prints pack and validate circles per second. Then prints
the src/ line count and the size of lanepack.__all__.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

SRC_DIR = Path(__file__).resolve().parent.parent / "src"
SIZES = (1000, 5000, 10000)


def main() -> int:
    sys.path.insert(0, str(SRC_DIR))
    import lanepack
    from lanepack.audit import validate
    from workloads import tiny_radii

    for n in SIZES:
        radii = tiny_radii(0, n)
        t0 = perf_counter()
        result = lanepack.pack_square_online("general", radii)
        t1 = perf_counter()
        report = validate(result)
        t2 = perf_counter()
        if result.status != "all_packed" or not report.valid:
            print(f"n={n}: status {result.status}, valid {report.valid}",
                  file=sys.stderr)
            return 1
        print(f"n={n}: pack {n / (t1 - t0):.0f} circles/s "
              f"({t1 - t0:.2f} s), validate {n / (t2 - t1):.0f} circles/s "
              f"({t2 - t1:.2f} s)")
    lines = sum(len(f.read_text().splitlines())
                for f in sorted((SRC_DIR / "lanepack").glob("*.py")))
    print(f"src/ lines: {lines}")
    print(f"lanepack.__all__: {len(lanepack.__all__)} names")
    return 0


if __name__ == "__main__":
    sys.exit(main())
