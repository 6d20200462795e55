"""Golden digests of whole packings, of their placements and audit
reports alone, and of tampered packings' audit reports, the reports
also after a round trip through JSON (each equal to the report of the
result in memory), and tampered files that must not read; the cases
and digests live in tests/golden.py.  The same inputs
also check that feeding a run one radius per call changes nothing, keeps
at most one open sub-lane per class, keeps each lane's sparse blocks in
owner order and its frontier equal to the full scan's, and that the
lanes' running extents match a scan of their circles."""

import json
import math
from unittest import mock

import pytest

from golden import (CASES, GOLDEN, INPUTS, PLACEMENT_GOLDEN, REPORT_GOLDEN,
                    STREAMS, TAMPERED_GOLDEN, TINY_STREAM_N, UNREADABLE,
                    _mixed_stream, _tiny_stream, digest, from_json, new_run,
                    placement_digest, report_digest, tampered, unreadable)
from lanepack import audit, audit_arrays
from lanepack.audit import validate
from lanepack.containers import pack_square_online
from lanepack.dslp import dslp_metrics
from lanepack.genseq import GenSpec, generate
from lanepack.layout import columns, lane_frames, layout
from oracles import (CommitLog, frontier, metrics, packing_extent,
                     vlane_extents)


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
    # The audit of the result read back from JSON, on columns, agrees.
    assert report_digest(from_json(result)) == REPORT_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TAMPERED_GOLDEN))
def test_golden_tampered_report(name):
    assert report_digest(tampered()[name]) == TAMPERED_GOLDEN[name]


@pytest.mark.parametrize("name", sorted(TAMPERED_GOLDEN))
def test_golden_tampered_report_after_json(name):
    assert (report_digest(from_json(tampered()[name]))
            == TAMPERED_GOLDEN[name])


@pytest.mark.parametrize("kind, name", [
    *(("golden", name) for name in sorted({**CASES, **STREAMS})),
    *(("tampered", name) for name in sorted(TAMPERED_GOLDEN))])
def test_memory_and_file_audits_agree(kind, name):
    # validate derives the lane frames from the layout for a result in
    # memory as for one read from its file, so both get one report.
    result = ({**CASES, **STREAMS}[name]() if kind == "golden"
              else tampered()[name])
    assert (json.dumps(validate(result).to_json_dict())
            == json.dumps(validate(from_json(result)).to_json_dict()))


def _split_packing(extra: int):
    """A packing of exactly audit._ALL_PAIRS_MAX + extra circles."""
    radii = generate(GenSpec("uniform", seed=100, count=400, r_min=0.001,
                             r_max=0.032))
    result = pack_square_online("general",
                                radii[:audit._ALL_PAIRS_MAX + extra])
    assert len(result.placements) == audit._ALL_PAIRS_MAX + extra
    return result


@pytest.mark.parametrize("kind, name", [
    *(("golden", name) for name in sorted({**CASES, **STREAMS})),
    *(("tampered", name) for name in sorted(TAMPERED_GOLDEN)),
    ("split", 0), ("split", 1)])
def test_array_and_python_passes_agree(kind, name):
    # Above audit._ALL_PAIRS_MAX validate runs numpy array passes, and at
    # or below it pure-Python ones; forced either way, each result gets
    # one report, in memory and read back from JSON.
    result = {"golden": lambda: {**CASES, **STREAMS}[name](),
              "tampered": lambda: tampered()[name],
              "split": lambda: _split_packing(name)}[kind]()
    n = len(result.placements)
    for r in (result, from_json(result)):
        reports = []
        for split in (audit._ALL_PAIRS_MAX, 0, 1 << 30):
            with mock.patch.object(audit, "_ALL_PAIRS_MAX", split), \
                    mock.patch.object(
                        audit_arrays, "array_passes",
                        wraps=audit_arrays.array_passes) as passes:
                reports.append(json.dumps(validate(r).to_json_dict()))
            assert passes.called == (n > split), (split, n)
        assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("kind, name", [
    *(("golden", name) for name in sorted({**CASES, **STREAMS})),
    *(("tampered", name) for name in sorted(TAMPERED_GOLDEN)),
    ("split", 400 - audit._ALL_PAIRS_MAX)])
def test_array_passes_accept_what_the_python_passes_pass(kind, name):
    # The numpy array passes only accept: they decline (None) exactly the
    # packings in which the pure-Python passes find out-of-order
    # placements, an escape or a lane finding, and give the others' total
    # and per-lane areas bit for bit.  Every golden packing is valid and
    # holds as arrays, so each is accepted, the 20 of more than 64
    # circles among them.
    result = {"golden": lambda: {**CASES, **STREAMS}[name](),
              "tampered": lambda: tampered()[name],
              "split": lambda: _split_packing(name)}[kind]()
    for r in (result, from_json(result)):
        shape = layout(r.container, r.mode, r.b)
        cols = columns(r.placements)
        held = audit_arrays.held_arrays(cols)
        try:
            lane_by_id = lane_frames(shape, r.lanes)
        except ValueError:  # validate refuses it before any pass
            lane_by_id = None
        if held is None or lane_by_id is None:
            assert kind == "tampered"
            continue
        occ = {}
        in_order, total, escaped, found = audit._python_passes(
            cols, shape.box, shape.table, lane_by_id, occ)
        screened = audit_arrays.array_passes(cols, *held, shape.box,
                                             shape.table, lane_by_id)
        if in_order and not escaped and not found:
            assert json.dumps(screened) == json.dumps((total, occ))
        else:
            assert screened is None and kind != "golden"


@pytest.mark.parametrize("name, table, column, value", UNREADABLE)
def test_golden_unreadable_file(name, table, column, value):
    assert unreadable(table, column, value)


@pytest.mark.parametrize("name", sorted(INPUTS))
def test_one_radius_per_call(name):
    container, param, build = INPUTS[name]
    radii = list(build())
    whole = new_run(container, param).pack(radii)
    run = new_run(container, param)
    for r in radii:
        result = run.pack([r])
        for d in run.medium_lanes:
            # Step 1 of the five-step routine tries only open_vlane[class].
            for lane in d.vlanes:
                cls = lane.frame.class_index
                assert lane.closed or lane is d.open_vlane[cls]
            # Steps 2-3 take sparse in owner order, and frontier() leaves
            # out the dense blocks.
            owners = [s.owner_u for s in d.sparse]
            assert all(a < b for a, b in zip(owners, owners[1:])), owners
            assert d.frontier().hex() == frontier(d).hex()
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
        lanes += [d.host, d.top, d.bottom] + d.vlanes
    for lane in lanes:
        placed = log.placed(lane)
        assert lane.n == len(placed), lane.frame.lane_id
        scan = packing_extent(placed) or (math.inf, -math.inf)
        assert _bits(lane.lo, lane.hi) == _bits(*scan), lane.frame.lane_id
