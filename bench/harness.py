"""Timed rounds of the verified-pack pipeline and the metrics drawn from them.

One operation is one job taken from its radii to an audited packing:
pack_*_online, to_json_dict + json.dumps, json.loads + from_json_dict,
audit.validate. A round runs every job of the workload once. The output
checks run after each operation, outside its timed interval.

The machine's speed drifts between and within runs, so the fixed
reference workload of calibrate.py runs before and after every round, and
every time reported as an end-to-end metric is scaled to REFERENCE_S:
seconds on a machine that runs the reference workload in REFERENCE_S.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import subprocess
import sys
from contextlib import nullcontext
from dataclasses import dataclass
from time import perf_counter

import lanepack
from lanepack import audit

import checks
from calibrate import reference_seconds
from tracing import Tracer
from workloads import Job, Workload

SETUP_STARTS = 7

# The reference workload's median time on the machine of the README's
# reference figures; scaled times are seconds at that speed.
REFERENCE_S = 0.25

# Run in a fresh interpreter; prints the seconds from its first statement
# to a warm packer: import, one small pack, a JSON round trip and validate.
# The outputs are checked by the timed rounds, not here.
SETUP_SCRIPT = """\
import time
t0 = time.perf_counter()
import json
import lanepack
from lanepack.audit import validate
result = lanepack.pack_square_online(
    "general", [0.3, 0.12, 0.07, 0.05, 0.02, 0.01, 0.003])
validate(lanepack.PackResult.from_json_dict(
    json.loads(json.dumps(result.to_json_dict()))))
print(time.perf_counter() - t0)
"""

_NO_SPAN = nullcontext()


def _no_span(name):
    return _NO_SPAN


@dataclass
class Round:
    verified_s: float = 0.0  # pack + serialize + parse + validate
    pack_s: float = 0.0  # inside pack_*_online
    verify_s: float = 0.0  # json.loads + from_json_dict + validate
    ref_s: float = 0.0  # reference workload time next to this round
    placed: int = 0
    audited: int = 0
    json_bytes: int = 0
    vlanes: int = 0
    attempted: int = 0
    failed: int = 0


def verified_pack(job: Job, span=_no_span):
    """Pack one job, serialize, parse back and audit it, timing each step."""
    t0 = perf_counter()
    if job.container == "rect":
        result = lanepack.pack_rect_online(job.param, job.radii)
    else:
        result = lanepack.pack_square_online(job.param, job.radii)
    t1 = perf_counter()
    with span("containers.to_json"):
        text = json.dumps(result.to_json_dict())
    t2 = perf_counter()
    with span("containers.from_json"):
        back = lanepack.PackResult.from_json_dict(json.loads(text))
    report = audit.validate(back)
    t3 = perf_counter()
    return result, text, back, report, (t1 - t0, t3 - t2, t3 - t0)


def run_round(jobs: list[Job], tracer: Tracer | None = None) -> Round:
    span = _no_span if tracer is None else tracer.span
    rnd = Round()
    for job in jobs:
        if tracer is not None:
            tracer.trace_id += 1
        result, text, back, report, (pack_s, verify_s, total_s) = (
            verified_pack(job, span))
        rnd.pack_s += pack_s
        rnd.verify_s += verify_s
        rnd.verified_s += total_s
        rnd.placed += len(result.placements)
        rnd.audited += len(back.placements)
        rnd.json_bytes += len(text)
        rnd.vlanes += sum(":v" in lane.lane_id for lane in result.lanes)
        rnd.attempted += 1
        found = checks.failures(job, result, back, report)
        if found:
            rnd.failed += 1
            print(f"check failed ({job.container} {job.param}, "
                  f"{len(job.radii)} radii): {found[:3]}", file=sys.stderr)
    return rnd


def setup_seconds(src_dir: str) -> float:
    """Median over fresh interpreters of SETUP_SCRIPT's own timing, each
    scaled by the reference workload timed right after it.

    One extra start runs first, untimed, so that compiling bytecode and
    filling the file cache are not counted.
    """
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    times = []
    for _ in range(SETUP_STARTS + 1):
        done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT], env=env,
                              capture_output=True, text=True, timeout=120,
                              check=True)
        times.append(float(done.stdout.split()[-1])
                     * REFERENCE_S / reference_seconds())
    return statistics.median(times[1:])


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(rounds: list[Round], setup_s: float) -> dict:
    """Per-round medians, every time scaled to REFERENCE_S."""
    med = statistics.median
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    speed = [REFERENCE_S / r.ref_s for r in rounds]
    return {
        "verified_pack_s": _metric(
            med(r.verified_s * k for r, k in zip(rounds, speed)), "s"),
        "pack_circles_per_s": _metric(
            med(r.placed / (r.pack_s * k) for r, k in zip(rounds, speed)),
            "1/s"),
        "verify_circles_per_s": _metric(
            med(r.audited / (r.verify_s * k) for r, k in zip(rounds, speed)),
            "1/s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak_kb / 1024.0, "MB"),
    }


def _layer_metrics(rnd: Round, summary) -> dict[str, tuple[float, str]]:
    per_name, counters = summary
    s = {name: v[0] for name, v in per_name.items()}
    calls = {name: v[1] for name, v in per_name.items()}
    finds = calls["lanes.find_position"]
    return {
        "lanes.arrays_s": (s["lanes.arrays"], "s"),
        "lanes.find_position_s": (s["lanes.find_position"], "s"),
        "lanes.find_position_calls": (finds, "count"),
        "lanes.obstacles_per_find": (
            counters["lanes.obstacles"] / finds, "circles/call"),
        "lanes.commits_per_find": (
            counters["lanes.commits"] / finds, "commits/call"),
        "geometry.to_local_s": (s["geometry.to_local"], "s"),
        "geometry.to_local_calls": (calls["geometry.to_local"], "count"),
        "geometry.leftmost_feasible_s": (
            s["geometry.leftmost_feasible"], "s"),
        "geometry.leftmost_feasible_calls": (
            calls["geometry.leftmost_feasible"], "count"),
        "blocks.pack_small_class_s": (s["blocks.pack_small_class"], "s"),
        "blocks.pack_small_class_calls": (
            calls["blocks.pack_small_class"], "count"),
        "blocks.frontier_calls": (
            counters.get("blocks.frontier_calls", 0), "count"),
        "blocks.vlanes_opened": (rnd.vlanes, "count"),
        "dslp.dslp_pack_s": (s["dslp.dslp_pack"], "s"),
        "dslp.dslp_pack_calls": (calls["dslp.dslp_pack"], "count"),
        "dslp.dslp_metrics_s": (s["dslp.dslp_metrics"], "s"),
        "classification.classify_s": (s["classification.classify"], "s"),
        "classification.classify_calls": (
            calls["classification.classify"], "count"),
        "classification.build_class_table_s": (
            s["classification.build_class_table"], "s"),
        "classification.build_class_table_calls": (
            calls["classification.build_class_table"], "count"),
        "containers.run_init_s": (s["containers.run_init"], "s"),
        "containers.pack_self_s": (s["containers.pack_self"], "s"),
        "containers.to_json_s": (s["containers.to_json"], "s"),
        "containers.from_json_s": (s["containers.from_json"], "s"),
        "containers.json_bytes_per_circle": (
            rnd.json_bytes / rnd.placed, "B/circle"),
        "audit.validate_s": (s["audit.validate"], "s"),
        "audit.validate_calls": (calls["audit.validate"], "count"),
        # The pipeline's timed intervals not covered by any span.
        "trace.unattributed_s": (rnd.verified_s - sum(s.values()), "s"),
    }


def per_layer(plain: list[Round], traced: list[tuple[Round, tuple]]) -> dict:
    """Per-round medians of the traced rounds' layer metrics."""
    rows = [_layer_metrics(rnd, summary) for rnd, summary in traced]
    out = {name: _metric(statistics.median(row[name][0] for row in rows),
                         unit)
           for name, (_, unit) in rows[0].items()}
    # Each traced round runs right after an untraced one; pairing them
    # cancels most of the machine's drift.
    overhead = statistics.median(t.verified_s - p.verified_s
                                 for p, (t, _) in zip(plain, traced))
    out["trace.overhead_s"] = _metric(overhead, "s")
    return out


def measure(workload: Workload, seconds: float, tracer: Tracer | None):
    """Run whole rounds for `seconds`; with a tracer, every untraced round
    is followed by a traced one. The reference workload runs before the
    first round and after each (traced) round; an untraced round's ref_s is
    the mean of the two times around it. Returns (plain rounds, traced
    rounds)."""
    for job in workload.warmup:
        verified_pack(job)
    plain: list[Round] = []
    traced: list[tuple[Round, tuple]] = []
    deadline = perf_counter() + seconds
    ref_before = reference_seconds()
    while True:
        rnd = run_round(workload.jobs)
        plain.append(rnd)
        if tracer is not None:
            mark = tracer.mark()
            with tracer.installed():
                traced_rnd = run_round(workload.jobs, tracer)
            traced.append((traced_rnd, tracer.summary(mark)))
        ref_after = reference_seconds()
        rnd.ref_s = (ref_before + ref_after) / 2
        ref_before = ref_after
        if perf_counter() >= deadline:
            return plain, traced
