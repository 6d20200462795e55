"""Golden digests of whole packings, of their placements and audit
reports alone, and of tampered packings' audit reports; the cases and
digests live in tests/golden.py.  The same inputs
also check that feeding a run one radius per call changes nothing and
keeps at most one open sub-lane per class, and that the lanes' running
extents match a scan of their circles."""

import json
import math

import pytest

from golden import (CASES, GOLDEN, INPUTS, PLACEMENT_GOLDEN, REPORT_GOLDEN,
                    STREAMS, TAMPERED_GOLDEN, TINY_STREAM_N, _mixed_stream,
                    _tiny_stream, digest, new_run, placement_digest,
                    report_digest, tampered)
from lanepack.dslp import dslp_metrics
from oracles import CommitLog, metrics, packing_extent, vlane_extents


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_packing(name):
    assert digest(CASES[name]()) == GOLDEN[name]


def test_golden_tiny_stream():
    result = _tiny_stream()
    assert len(result.placements) == TINY_STREAM_N
    assert digest(result) == GOLDEN["square-general-tiny-stream"]


def test_golden_mixed_stream():
    result = _mixed_stream()
    assert result.status == "all_packed"
    assert digest(result) == GOLDEN["rect-2.0-mixed-stream"]


@pytest.mark.parametrize("name", sorted(PLACEMENT_GOLDEN))
def test_golden_placements_and_report(name):
    result = {**CASES, **STREAMS}[name]()
    assert placement_digest(result) == PLACEMENT_GOLDEN[name]
    assert report_digest(result) == REPORT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TAMPERED_GOLDEN))
def test_golden_tampered_report(name):
    assert report_digest(tampered()[name]) == TAMPERED_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_one_radius_per_call(name):
    container, param, build = INPUTS[name]
    radii = list(build())
    whole = new_run(container, param).pack(radii)
    run = new_run(container, param)
    for r in radii:
        result = run.pack([r])
        # Step 1 of the five-step routine tries only open_vlane[class].
        for d in run.medium_lanes:
            ledger = d.ledger
            for lane in ledger.vlanes:
                cls = lane.frame.class_index
                assert lane.closed or lane is ledger.open_vlane[cls]
        if result.status == "rejected":
            break
    assert (json.dumps(result.to_json_dict())
            == json.dumps(whole.to_json_dict()))


def _bits(*xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_running_extents(name):
    container, param, build = INPUTS[name]
    run = new_run(container, param)
    log = CommitLog()
    with log.installed():
        run.pack(build())
    lanes = [] if run.large_lane is None else [run.large_lane]
    for d in run.medium_lanes:
        # dslp_metrics against the same formula over a scan of the logged
        # circles, and the per-circle frame round trip.
        length = d.host.frame.length
        p_host = metrics(d.host, log.placed(d.host),
                         vlane_extents(d, log)).packing_length
        p_t = min(length, p_host
                  + metrics(d.top, log.placed(d.top)).packing_length)
        p_b = min(length, p_host
                  + metrics(d.bottom, log.placed(d.bottom)).packing_length)
        assert _bits(*dslp_metrics(d)) == _bits(p_t, p_b)
        lanes += [d.host, d.top, d.bottom] + d.ledger.vlanes
    for lane in lanes:
        placed = log.placed(lane)
        assert lane.n == len(placed), lane.frame.lane_id
        scan = packing_extent(placed) or (math.inf, -math.inf)
        assert _bits(lane.lo, lane.hi) == _bits(*scan), lane.frame.lane_id
