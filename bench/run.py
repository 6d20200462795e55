"""lanepack benchmark: time from a radius sequence to an audited packing.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds the workload's inputs from --seed,
runs whole rounds of it for --seconds and checks every output. The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC_DIR = BENCH_DIR.parent / "src"
OUT_DIR = BENCH_DIR / "out"
WORKLOAD_NAMES = ("square_tiny_stream", "rect_mixed_stream", "adversary_batch")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC_DIR / "lanepack" / "__init__.py").is_file():
        print(f"error: no lanepack sources under {SRC_DIR}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC_DIR))
    import harness
    import checks
    from tracing import Tracer, TraceTargetMissing
    from workloads import WORKLOADS

    problems = checks.self_test()
    for problem in problems:
        print(f"checker self-test: {problem}", file=sys.stderr)

    workload = WORKLOADS[args.workload](args.seed)
    tracer = Tracer() if args.trace else None
    try:
        if tracer is None:
            setup_s = harness.setup_seconds(str(SRC_DIR))
            plain, traced = harness.measure(workload, args.seconds, None)
            metrics = harness.end_to_end(plain, setup_s)
        else:
            plain, traced = harness.measure(workload, args.seconds, tracer)
            metrics = harness.per_layer(plain, traced)
            OUT_DIR.mkdir(exist_ok=True)
            tracer.write(OUT_DIR / f"trace-{args.workload}-seed{args.seed}"
                                   ".tsv.gz")
    except TraceTargetMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3

    rounds = plain + [rnd for rnd, _ in traced]
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    print(f"workload {args.workload} seed {args.seed}: {len(plain)} rounds"
          f"{f' + {len(traced)} traced' if traced else ''}, "
          f"{attempted} operations attempted, {failed} failed")
    if tracer is None:
        print(f"  times are scaled to a reference workload time of "
              f"{harness.REFERENCE_S} s; unscaled medians: verified_pack "
              f"{statistics.median(r.verified_s for r in plain):.4g} s, "
              f"reference workload "
              f"{statistics.median(r.ref_s for r in plain):.4g} s")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    # No operation fails at the commit that added the benchmark, so a
    # failed output check is a wrong answer, not a known fault to carry.
    print(json.dumps({"correct": not problems and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
