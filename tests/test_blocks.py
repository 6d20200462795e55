import pytest

from lanepack.blocks import (CLOSED, FREE, on_medium_packed,
                             pack_small_class, reservation_for,
                             vlane_position)
from lanepack.classification import build_class_table
from lanepack.dslp import new_dslp
from lanepack.geometry import Orientation, Rect
from lanepack.lanes import Packing, commit, find_position
from lanepack.layout import LaneInfo, _dslp_shape
from oracles import LanePlacement, committed, frontier, packed

TABLE = build_class_table(1.0)
W3 = TABLE.row(3).width  # width of a class-3 vertical sub-lane
R3 = 0.07  # a class-3 radius (bounds: 0.06250 < r <= 0.08413)
R4 = 0.03  # a class-4 radius (bounds: 0.02383 < r <= 0.06250)


def make_ledger(length=8.0):
    """A DSLP lane whose host is lane "H", so its sub-lanes are H:v..."""
    host = LaneInfo.from_rect(Rect(0, 0, length, 1), Orientation.RIGHTWARDS,
                              "H", 1)
    small = _dslp_shape("H", Rect(0, 0, length, 1),
                        Orientation.RIGHTWARDS)[1:]
    return new_dslp("H", (host,) + small, TABLE), Packing()


def pack_medium(ledger, packing, r, seq):
    pos = find_position(ledger.host, r, packing)
    assert pos is not None
    placement = LanePlacement(*pos, r, seq)
    commit(ledger.host, *placement, packing)
    half = "bottom" if placement.v <= ledger.host.frame.width / 2 else "top"
    on_medium_packed(ledger, placement.u, r, half)
    return placement


class TestReservations:
    def test_states(self):
        assert reservation_for(3) == "reserved_3"
        assert reservation_for(4) == "reserved_4"
        assert reservation_for(5) == "reserved_ge5"
        assert reservation_for(9) == "reserved_ge5"
        with pytest.raises(ValueError):
            reservation_for(2)


class TestBlockLifecycle:
    def test_first_medium_opens_sparse_block(self):
        ledger, packing = make_ledger()
        pl = pack_medium(ledger, packing, 0.5, 0)
        assert len(ledger.sparse) == 1
        block = ledger.sparse[0]
        assert block is ledger.sparse[-1]
        assert block.owner_u == pl.u
        assert block.x_cap == ledger.host.frame.length
        assert block.state == FREE

    def test_second_medium_forms_pure_dense_block(self):
        ledger, packing = make_ledger()
        pack_medium(ledger, packing, 0.5, 0)
        b = pack_medium(ledger, packing, 0.5, 1)
        # The two centres bound a dense block, which is not recorded: the
        # vlane-free sparse block was replaced, not kept.
        assert len(ledger.sparse) == 1
        assert ledger.sparse[0].owner_u == b.u
        assert not ledger.sparse[0].has_vlane

    def test_medium_after_vlane_caps_block(self):
        ledger, packing = make_ledger()
        pack_medium(ledger, packing, 0.5, 0)
        assert pack_small_class(ledger, R3, 3, 1, packing) is not None
        first = ledger.sparse[0]
        assert first.has_vlane
        b = pack_medium(ledger, packing, 0.5, 2)
        assert first.x_cap == pytest.approx(b.u - 0.5)
        assert ledger.sparse == [first, ledger.sparse[-1]]  # capped, kept

    def test_mixed_blocks_stay_in_owner_order(self):
        # Classes 3, 4 and 5 each reserve a block of their own, so every
        # medium circle caps a block with a sub-lane and sparse grows.
        ledger, packing = make_ledger()
        for k, cls in enumerate((3, 4, 5, 3)):
            pack_medium(ledger, packing, 0.3, 2 * k)
            r = TABLE.row(cls).lower_bound * 1.01
            assert pack_small_class(ledger, r, cls, 2 * k + 1, packing)
            owners = [s.owner_u for s in ledger.sparse]
            assert len(owners) == k + 1
            assert all(a < b for a, b in zip(owners, owners[1:]))
            assert ledger.frontier().hex() == frontier(ledger).hex()

    def test_frontier_tracks_content(self):
        ledger, packing = make_ledger()
        pl = pack_medium(ledger, packing, 0.5, 0)
        assert ledger.frontier() == pytest.approx(pl.u + 0.5)
        pack_small_class(ledger, R3, 3, 1, packing)
        assert ledger.frontier() == pytest.approx(pl.u + 0.5 + W3)


class TestStripFitting:
    def test_vlane_position_starts_at_owner_tangent(self):
        ledger, packing = make_ledger()
        pl = pack_medium(ledger, packing, 0.5, 0)
        block = ledger.sparse[0]
        assert vlane_position(ledger, block, 0.3) == pytest.approx(pl.u + 0.5)

    def test_existing_vlanes_shift_position(self):
        ledger, packing = make_ledger()
        pl = pack_medium(ledger, packing, 0.5, 0)
        pack_small_class(ledger, R3, 3, 1, packing)
        block = ledger.sparse[0]
        assert vlane_position(ledger, block, 0.3) == pytest.approx(
            pl.u + 0.5 + W3)

    def test_cap_limits_fit(self):
        ledger, packing = make_ledger()
        pl = pack_medium(ledger, packing, 0.5, 0)
        block = ledger.sparse[0]
        block.x_cap = pl.u + 0.5 + 0.25
        assert vlane_position(ledger, block, 0.25) is not None
        assert vlane_position(ledger, block, 0.26) is None


class TestFiveStepRoutine:
    def test_rejects_medium_and_small_classes(self):
        ledger, _ = make_ledger()
        with pytest.raises(ValueError):
            pack_small_class(ledger, 0.3, 1, 0, Packing())
        with pytest.raises(ValueError):
            pack_small_class(ledger, 0.1, 2, 0, Packing())

    def test_opens_vlane_and_reserves_block(self):
        ledger, packing = make_ledger()
        pack_medium(ledger, packing, 0.5, 0)
        c = committed(packing, pack_small_class(ledger, R3, 3, 1, packing))
        assert c is not None
        assert c.lane_id == "H:v3#0"
        block = ledger.sparse[0]
        assert block.state == "reserved_3"
        assert block.has_vlane
        # The host now excludes the strip, which starts at the owner's
        # tangent.
        [(x0, x1)] = ledger.host.exclusions
        assert x1 - x0 == pytest.approx(W3)
        assert x0 == block.owner_u + block.owner_r

    def test_reuses_open_vlane(self):
        ledger, packing = make_ledger()
        pack_medium(ledger, packing, 0.5, 0)
        a = committed(packing, pack_small_class(ledger, R3, 3, 1, packing))
        b = committed(packing, pack_small_class(ledger, R3, 3, 2, packing))
        assert a.lane_id == b.lane_id
        assert len(ledger.vlanes) == 1

    def test_other_class_goes_to_free_area(self):
        ledger, packing = make_ledger()
        pack_medium(ledger, packing, 0.5, 0)
        pack_small_class(ledger, R3, 3, 1, packing)
        c = committed(packing, pack_small_class(ledger, R4, 4, 2, packing))
        assert c is not None
        # The only sparse block is reserved for class 3, so the class-4
        # lane lands in the free area at the frontier.
        assert c.lane_id == "H:v4#1"
        (_, in_block), (x0, _) = ledger.host.exclusions
        block = ledger.sparse[0]
        # The frontier: past the owner's circle and the block's strip.
        assert x0 == pytest.approx(max(block.owner_u + block.owner_r,
                                       in_block))

    def test_full_vlane_spawns_replacement(self):
        ledger, packing = make_ledger(length=8.0)
        pack_medium(ledger, packing, 0.5, 0)
        seq = 1
        lanes_seen = set()
        for _ in range(60):
            c = committed(packing, pack_small_class(ledger, 0.084, 3, seq,
                                                    packing))
            if c is None:
                break
            lanes_seen.add(c.lane_id)
            seq += 1
        assert len(lanes_seen) >= 2
        # Exhausted vlanes are closed, exactly one can be open per class,
        # and it is the class's newest.
        open_v3 = [lane for lane in ledger.vlanes
                   if not lane.closed and lane.frame.class_index == 3]
        assert len(open_v3) <= 1
        assert all(lane is ledger.open_vlane[3] for lane in open_v3)

    def test_step5_closes_host(self):
        ledger, packing = make_ledger(length=1.0)
        pack_medium(ledger, packing, 0.5, 0)
        # No room for any class-3 strip: the sparse block is capped by the
        # lane end and the frontier sits at the lane end.
        c = committed(packing, pack_small_class(ledger, R3, 3, 1, packing))
        assert c is None
        assert ledger.host.closed
        assert ledger.sparse[0].state == CLOSED

    def test_closed_block_stays_closed(self):
        ledger, packing = make_ledger(length=1.0)
        pack_medium(ledger, packing, 0.5, 0)
        pack_small_class(ledger, R3, 3, 1, packing)
        state_after = ledger.sparse[0].state
        assert state_after == CLOSED

    def test_placements_avoid_host_circles(self):
        from oracles import circles_overlap
        ledger, packing = make_ledger()
        pack_medium(ledger, packing, 0.5, 0)
        for seq in range(1, 12):
            pack_small_class(ledger, R3, 3, seq, packing)
        circles = packed(packing)
        for i in range(len(circles)):
            for j in range(i + 1, len(circles)):
                assert not circles_overlap(circles[i], circles[j])
