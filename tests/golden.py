"""Golden digests of whole packings and their audit reports.

tests/test_golden.py checks them under pytest.  Run this file directly,

    PYTHONPATH=src python tests/golden.py

to check every case under any interpreter without pytest; a case whose
audit needs numpy counts as skipped where numpy is missing.

Each case packs a fixed seeded sequence and is hashed three ways: the
serialized result together with its audit report (GOLDEN), the
placements alone (PLACEMENT_GOLDEN) and the audit report alone
(REPORT_GOLDEN). Any change to a single coordinate, lane, class or audit
finding changes them. The audit of each case, and of each tampered case,
must also find the same after a round trip through JSON, where it reads
the placements as columns, and each file in UNREADABLE must not read at
all. The placement and report digests do not depend on the JSON layout:
they were recorded before the result JSON became schema 2 (columns, and
only the lanes that hold circles), and GOLDEN alone was regenerated for
that format, so they show that no placement and no audit finding moved
with it. The sparse-block case rect-6.0-mixed-blocks came later; its
three digests were recorded on the code from before the audit read
placements as columns. Placements must stay bit-identical, so never
regenerate these values to make a test pass.
"""

import dataclasses
import functools
import hashlib
import json
import math
import random
import sys

from lanepack.audit import validate
from lanepack.bounds import guarantee_rect, guarantee_square
from lanepack.containers import (PackResult, RectRun, SquareRun,
                                 pack_rect_online, pack_square_online)
from lanepack.genseq import GenSpec, generate
from lanepack.lanes import LaneInfo

RECT_ASPECTS = (1.0, 1.5, 2.0, 3.0)
SEEDS = (0, 1, 2)
# Above the no-tiny minimum radius before and after it was corrected.
NO_TINY_R_MIN = 0.0267
TINY_STREAM_N = 3000
MIXED_TINY_N = 800


def _square_mode_specs(mode: str, seed: int) -> list[GenSpec]:
    r_min = NO_TINY_R_MIN if mode == "no_tiny" else 0.001
    return [
        GenSpec("greedy_adversary", seed=seed,
                threshold=guarantee_square(mode), r_min=r_min),
        GenSpec("uniform", seed=seed, count=80, r_min=r_min, r_max=0.12),
        GenSpec("uniform", seed=seed + 100, count=400, r_min=r_min,
                r_max=2 * r_min + 0.03),
    ]


def _rect_specs(b: float, seed: int) -> list[GenSpec]:
    return [
        GenSpec("greedy_adversary", seed=seed, threshold=guarantee_rect(b)),
        GenSpec("uniform", seed=seed, count=80, r_min=0.001, r_max=0.15),
        GenSpec("uniform", seed=seed + 100, count=400, r_min=0.001,
                r_max=0.032),
    ]


def _inputs():
    """(name, (container, square mode or rectangle aspect, radii builder))
    of the seeded cases."""
    for b in RECT_ASPECTS:
        for seed in SEEDS:
            for spec in _rect_specs(b, seed):
                yield (f"rect-{b}-{spec.kind}-{spec.seed}",
                       ("rect", b, functools.partial(generate, spec)))
    for mode in ("general", "no_tiny"):
        for seed in SEEDS:
            for spec in _square_mode_specs(mode, seed):
                yield (f"square-{mode}-{spec.kind}-{spec.seed}",
                       ("square", mode, functools.partial(generate, spec)))


def new_run(container: str, param):
    """A fresh run into the square (param: mode) or the rectangle (param:
    aspect b)."""
    return RectRun(param) if container == "rect" else SquareRun(param)


def _pack(container: str, param, build):
    return new_run(container, param).pack(build())


def _tiny_radii():
    rng = random.Random(20190501)
    return [rng.uniform(0.002, 0.004) for _ in range(TINY_STREAM_N)]


def _tiny_stream():
    return _pack("square", "general", _tiny_radii)


def _mixed_radii():
    """Medium and small circles among tiny ones in the 1 x 2 rectangle, so
    blocks are cut and vertical sub-lanes open while tiny circles flow."""
    rng = random.Random(20190502)
    others = ([rng.uniform(0.2505, 0.252)]
              + [rng.uniform(0.0845, 0.088) for _ in range(2)]
              + [rng.uniform(0.024, 0.028) for _ in range(4)]
              + [rng.uniform(0.2505, 0.252)]
              + [rng.uniform(0.063, 0.068) for _ in range(2)])
    radii = [rng.uniform(0.002, 0.0035) for _ in range(MIXED_TINY_N)]
    step = len(radii) // len(others)
    for k, r in enumerate(others):
        radii.insert(k * (step + 1), r)
    return radii


def _mixed_stream():
    return _pack("rect", 2.0, _mixed_radii)


def _blocks_radii():
    """Medium circles, each followed by six circles of class 3, 4 or 5 in
    turn, into the 1 x 6 rectangle.  Each class reserves sparse blocks of
    its own, so medium circles cap blocks that hold sub-lanes: up to seven
    sparse blocks at once, six of them capped, and some closed."""
    rng = random.Random(20190503)
    ranges = {3: (0.063, 0.084), 4: (0.024, 0.062), 5: (0.0085, 0.0235)}
    radii = []
    for k in range(30):
        radii.append(rng.uniform(0.2505, 0.3))
        radii += [rng.uniform(*ranges[3 + k % 3]) for _ in range(6)]
    return radii


def digest(result) -> str:
    payload = {
        "packing": result.to_json_dict(),
        "audit": validate(result).to_json_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def placement_digest(result) -> str:
    """sha256 of the placements, each as (seq, x, y, r, class, lane), and
    of the status and the rejected arrival, by repr; no JSON involved."""
    blob = repr(([(c.seq, c.x, c.y, c.r, c.class_index, c.lane_id)
                  for c in result.placements], result.status,
                 result.rejected_index, result.rejected_radius))
    return hashlib.sha256(blob.encode()).hexdigest()


GOLDEN = {
    "rect-1.0-greedy_adversary-0":
        "9a995b03ad1a855871157b25da0e1f31b7d17e313a15b74f8881081d0bb9166a",
    "rect-1.0-greedy_adversary-1":
        "34441568ef977f5d1e15572c0e3089bcc03de64f79d6f91215707a94ce347b2c",
    "rect-1.0-greedy_adversary-2":
        "2e0095a30a8ed17dca3e7449068f813b81aa5608e360b987b0fe4f1b252d9fec",
    "rect-1.0-uniform-0":
        "17a8f161333804058705fe0b1b3dc92f4950bf63b7e621c01a3916e39f96cb8a",
    "rect-1.0-uniform-1":
        "0e8f1a30078283179c81837f418b7b13e630cc7d7ebfb821e5bdf4c4b56fb18a",
    "rect-1.0-uniform-100":
        "19ee22c82952361dafe633a38a77352ad8a7f5f3e33d3ecbf2dce2d88ae2bb1b",
    "rect-1.0-uniform-101":
        "416f75d3ece300c43911a8be916bd21b73d329b5f0b8765df85c8ae3c6711803",
    "rect-1.0-uniform-102":
        "af0b09327074168e9708eb05bbd62ed2c4e4bcd5209c0285a85b9db96c5866a0",
    "rect-1.0-uniform-2":
        "8aabefa910468216d6a8c122ca879c0503d7df53ea0045792e37d8d2b166cf51",
    "rect-1.5-greedy_adversary-0":
        "92bcdf9bb42e45a68b6e7b5588237e8d9cff94defc1e0df7722e06d91ae28b4b",
    "rect-1.5-greedy_adversary-1":
        "b8c837e4fa434f10f6bcaa3553abfcf8ab8de1b6b6f5f94ee14991de7ce322f6",
    "rect-1.5-greedy_adversary-2":
        "96dc932bda5f1323c560e5593f96d8ac551314a6b5aaf22bb1a3713796ba261b",
    "rect-1.5-uniform-0":
        "222f0e6a81fe937a85009d9e6e287abc1e8bd2c55760010cebe9763c5ad3af67",
    "rect-1.5-uniform-1":
        "7dd2e36bf2150775e3484853533e2187955ee559e9543d4e4ead3917df43bb5d",
    "rect-1.5-uniform-100":
        "e3452ebf23d7c23abfcc74546b04629e72d7b6c85509369f46d4325e62e4b7ad",
    "rect-1.5-uniform-101":
        "2c34fd5a18ce322d370db1bd040d0bbcc60da40355639d1f45835334b8f3fdb7",
    "rect-1.5-uniform-102":
        "0f5fceec878cca324cf90bd25a59cb529f415689ac94438f1c1cf0acd9de8313",
    "rect-1.5-uniform-2":
        "7dd2fc45776d466aa8c98378169e03bf8f451af7ea7e404317394e62c7a2765c",
    "rect-2.0-greedy_adversary-0":
        "19fe31391e8004becb85635ec821e40b8107f7a11dc2817e0592a882aeb6603f",
    "rect-2.0-greedy_adversary-1":
        "f923dc2f5a8318fb17c228286a461b27cb221d23429d9c2307e4dd81a447facf",
    "rect-2.0-greedy_adversary-2":
        "191d29ce003c2c8ebb4a575de856b4e0069a98ce36ebe49742ea1fcc05919eba",
    "rect-2.0-uniform-0":
        "47095368f0acca170ba2de8e543f21ff8b37e8144f23f2d2d9d2a70aeb4dc880",
    "rect-2.0-uniform-1":
        "9ff14afbd5ca27013e8d9ac49b504d505f64d1d4419ecbb4c26aadd62c26d686",
    "rect-2.0-uniform-100":
        "ab4ea54babf5e6a8e425dc3c97fbe745b4f47a61e60afefbb15eb5fb32576ee0",
    "rect-2.0-uniform-101":
        "774690141aae7146ffa299daa52f851db4b559bcc9f16cdff1f108251e831fb4",
    "rect-2.0-uniform-102":
        "a05e749906a894655100bf9c859fb30ea37b07fe3f542490dee289aaba9ab725",
    "rect-2.0-uniform-2":
        "a2209d487d2d283522170652724e57c410091271415d028650162151dd35f97d",
    "rect-3.0-greedy_adversary-0":
        "32048c92c9d0383398dcbb5075c800fd2ffca266b47ccb66ca0cb80abd0f2bed",
    "rect-3.0-greedy_adversary-1":
        "a815f50549c1c33d21084f7ecb432f8b8926f3aecc4ec0395402ef2ffcbe1f20",
    "rect-3.0-greedy_adversary-2":
        "2d22e79e61f45b03b29c8c0a41c51920d82aa2ef351f0556181f45e65dab7b41",
    "rect-3.0-uniform-0":
        "3ec007070374c59596bc80051f7b12df7c9abddd992156b5fdc60b6e44604285",
    "rect-3.0-uniform-1":
        "236156c8b402f88d5cd893c413865982f3ae34de7e2a4c506562e7fa947aaf0c",
    "rect-3.0-uniform-100":
        "7255fa2388b07be5b40bcb8412f6996fe8fd1ffe8703f5b4df9cc258f5f761c0",
    "rect-3.0-uniform-101":
        "03411ec48a63d9caf942c564604a46c21bb4d815983f888eed87f87912d418b1",
    "rect-3.0-uniform-102":
        "5813bd2fd69d26cd922034c099750838a641d2f8209b48b829ce4af291540de8",
    "rect-3.0-uniform-2":
        "e4f1beaecdb0754be89cb7c6b08e6df6126ecce98d641732113a116f334a1c83",
    "square-general-greedy_adversary-0":
        "38da72c4616477b2286939a93040a6c04b6ebf0167b34b3c6f1f1ef97ca19d2b",
    "square-general-greedy_adversary-1":
        "1cc7ac51b94c98ebca1e068d4368acec24d1fe4e3fe58f816fd2e7cbe9d5291c",
    "square-general-greedy_adversary-2":
        "a451bf348520c4efd824f85436bda7131adccdd2b06c6e96611072edba847269",
    "square-general-uniform-0":
        "907ca6cb3726c6caaf3dc1b72a7171e5bad0014357b249fbc346b66d08b3eaf8",
    "square-general-uniform-1":
        "8926e14e8134d76a14861e1e5cf98defa90de5ad4b7f133325119dcfe7e36768",
    "square-general-uniform-100":
        "5dcd23952401145ebd8d066fa6b9ae9a2de7825ea721af76b32a062660a1f778",
    "square-general-uniform-101":
        "4b030a500b2eb09312d7592018506122c6280ea320cb510bb0295714304268fa",
    "square-general-uniform-102":
        "5ebb9e5076ca3df4ef8d739574e0ebb342cbfb6ae803cbfaa0a4276d097dc76d",
    "square-general-uniform-2":
        "461d691fde9858b3a0797d5de84e38b793ff251ebb9c568669bb412a3eceb335",
    "square-no_tiny-greedy_adversary-0":
        "4bd64cb9a1623f100fd4c9130f4d3ca79c43afd35c389f66c69614ef25e99106",
    "square-no_tiny-greedy_adversary-1":
        "6cebdcf6d21114836367a04a3360e8aeaeb8de629e2541024d1ea39c1c28a8d9",
    "square-no_tiny-greedy_adversary-2":
        "d05d2ace5e5d233194b3a30d64de68db57c541487097f399cba63a68760a97f8",
    "square-no_tiny-uniform-0":
        "ac989805f6ac871e63b514b0d7e65e6f11d3030a96d406333887d0a9fbdd2a9c",
    "square-no_tiny-uniform-1":
        "2182fb0568a68163b7a2f34007a2c120e57b4e6ee6ba758a3680a5119dd331aa",
    "square-no_tiny-uniform-100":
        "92f486dff2be151f2c4eef7f2ab71ca57a0019894b37173ca7c076dbe4bcb9a9",
    "square-no_tiny-uniform-101":
        "cf84330ad0e2d632f1b6f6ddad4ab5dadb7c5f377262c9a67e298e93eddf4ca9",
    "square-no_tiny-uniform-102":
        "481e41721954d67938dc42fdab723e9a19f87c1112162bf91bc1a5f87c4761d0",
    "square-no_tiny-uniform-2":
        "53cd86d41f70ed9baa6a9b73958e7e1a1ca8a9963acb4e415aa5e3198c3479aa",
    "square-general-tiny-stream":
        "5b5764b9d0ebb660e6423ee3013d2b3f03c44a47c378e467ac8d56a3ffcc72a2",
    "rect-2.0-mixed-stream":
        "c59d4f202af7af34729e3e0782e6f5322e62b60eb0d70f935cb3b90e2913288b",
    "rect-6.0-mixed-blocks":
        "5e70ae5635ee373311ce82a89d77b90c9e5526c2fa737d717bc7a4a7905dc1a0",
}


# name -> (container, square mode or rectangle aspect, radii builder), for
# the seeded cases, the sparse-block case and then the two streams.
INPUTS = dict(_inputs())
INPUTS["rect-6.0-mixed-blocks"] = ("rect", 6.0, _blocks_radii)
CASES = {name: functools.partial(_pack, *spec)
         for name, spec in INPUTS.items()}
STREAMS = {"square-general-tiny-stream": _tiny_stream,
           "rect-2.0-mixed-stream": _mixed_stream}
INPUTS["square-general-tiny-stream"] = ("square", "general", _tiny_radii)
INPUTS["rect-2.0-mixed-stream"] = ("rect", 2.0, _mixed_radii)


def _replace_at(result, k, **changes):
    """The result with placement k changed; the other placements shared."""
    placements = list(result.placements)
    placements[k] = dataclasses.replace(placements[k], **changes)
    return dataclasses.replace(result, placements=placements)


def _swap_centres(result, i, j):
    """The result with the centres of placements i and j exchanged."""
    a, b = result.placements[i], result.placements[j]
    return _replace_at(_replace_at(result, i, x=b.x, y=b.y), j, x=a.x, y=a.y)


def _tampered_cases():
    """Packings broken one way each, so that every audit finding, its
    detail text and its place in the report are pinned."""
    adv = pack_square_online("general", generate(GenSpec(
        "greedy_adversary", seed=1, threshold=0.3, r_min=0.01)))
    seven = pack_square_online("general",
                               [0.3, 0.12, 0.07, 0.05, 0.02, 0.01, 0.003])
    refused = pack_rect_online(2.0, [0.4, 0.3, 2.0])
    vlanes = pack_rect_online(2.0, generate(GenSpec(
        "greedy_adversary", seed=2, threshold=0.59)))
    big = pack_square_online("general", generate(GenSpec(
        "uniform", seed=100, count=400, r_min=0.001, r_max=0.032)))
    a, b = adv.placements[:2]
    yield "overlap", _replace_at(adv, 1, x=a.x + 0.5 * (a.r + b.r), y=a.y)
    yield "escape", _replace_at(adv, 0, x=1.2)
    yield "class-mismatch", _replace_at(adv, 0, class_index=a.class_index + 1)
    yield "unknown-lane", _replace_at(adv, 0, lane_id="nope")
    yield "duplicate-sequence", _replace_at(adv, 1, seq=a.seq)
    yield "radius-below-class", _replace_at(adv, 0, r=a.r / 10)
    yield "nan-centre", _replace_at(adv, 3, x=math.nan)
    yield "infinite-radius", _replace_at(adv, 4, r=math.inf)
    yield "minus-infinite-centre", _replace_at(adv, 5, y=-math.inf)
    yield "negative-radius", _replace_at(adv, 6, r=-a.r)
    yield "zero-radius", _replace_at(adv, 7, r=0.0)
    yield "dropped-arrival", dataclasses.replace(
        seven, placements=[seven.placements[0]] + seven.placements[2:])
    yield "shifted-arrivals", dataclasses.replace(seven, placements=[
        dataclasses.replace(c, seq=c.seq + 5) for c in seven.placements])
    for k, changes in enumerate(({"status": "rejected", "rejected_index": 2},
                                 {"rejected_index": 7}, {"status": "rejected"},
                                 {"status": "stopped", "rejected_index": 7},
                                 {"rejected_radius": 0.01})):
        yield f"inconsistent-status-{k}", dataclasses.replace(seven, **changes)
    for radius in (None, 0.0, -0.5, math.inf, math.nan, True):
        yield f"refused-radius-{radius}", dataclasses.replace(
            refused, rejected_radius=radius)
    # Vertical sub-lanes, so the lane frames turn.
    yield "reversed", dataclasses.replace(
        vlanes, placements=vlanes.placements[::-1])
    yield "off-alternation", _replace_at(
        vlanes, 8, x=vlanes.placements[8].x + 1e-3)
    yield "frontier-reversed", _swap_centres(vlanes, 8, 9)
    yield "gap-too-small", _replace_at(
        vlanes, 13, y=vlanes.placements[12].y - 1e-3)
    # Above _ALL_PAIRS_MAX, so the overlap check is the numpy strip sweep.
    first = big.placements[0]
    moved = _replace_at(big, len(big.placements) - 1, x=first.x, y=first.y)
    yield "large-overlap-and-swap", _swap_centres(moved, 20, 21)
    yield "large-reversed", dataclasses.replace(
        big, placements=big.placements[::-1])
    # A class-1 lane is SLP whatever strategy the result names.
    pair = pack_rect_online(2.0, [0.26, 0.26])
    close = _replace_at(pair, 1, x=pair.placements[0].x + 0.22)
    yield "gap-too-small-named-tlp", dataclasses.replace(close, lanes=[
        LaneInfo(lane.origin, lane.eu, lane.ev, lane.length, lane.width,
                 lane.lane_id, "TLP", lane.class_index)
        for lane in close.lanes])


@functools.cache
def tampered() -> dict:
    return dict(_tampered_cases())


# Result files edited one way each, as (name, table, column, new value of
# its first entry), that from_json_dict must refuse with ValueError rather
# than read and audit.
UNREADABLE = (("float-arrival", "placements", "i", 0.0),
              ("string-width", "lanes", "width", "a"))


@functools.cache
def _four_circles() -> str:
    return json.dumps(pack_square_online(
        "general", [0.3, 0.12, 0.07, 0.05]).to_json_dict())


def unreadable(table: str, column: str, value) -> bool:
    """Whether from_json_dict refuses the four-circle square's file with
    the column's first entry replaced by value."""
    d = json.loads(_four_circles())
    d[table][column][0] = value
    try:
        PackResult.from_json_dict(d)
    except ValueError:
        return True
    return False


def report_digest(result) -> str:
    blob = json.dumps(validate(result).to_json_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def from_json(result):
    """The result as read back from its JSON text: its placements are the
    column view that the audit of a file reads."""
    return PackResult.from_json_dict(json.loads(json.dumps(
        result.to_json_dict())))


# Digests of the audit reports alone, recorded before validate() was
# rewritten to walk the placements once: the violations, their order and
# their detail text must not change.
TAMPERED_GOLDEN = {
    "overlap":
        "570b6606273cbb68447cda7d2dca1d9d7218bb3f1337607a17e1e67928f40445",
    "escape":
        "bea24882b68af524eea12c1bf00c1ace6cd7d2346e23e7d0df1ce135daf53b80",
    "class-mismatch":
        "19022991e40417771df19f6e8804219689c1bd3b62a8e10e89f2c06a12312a2c",
    "unknown-lane":
        "0b5a0a4ff8543a50db1ce727950d0d01ff37645dd1a9066f011437435285388b",
    "duplicate-sequence":
        "1873ceba29e0b16dc47d47771c651b60061a3bbbba15ffbc4e73c11395b2ca78",
    "radius-below-class":
        "a0bf010bb59521e46ffb1c7ac7f1fa5cc7904e4d057deece1b34ee80f7e48147",
    "nan-centre":
        "831d7ce58677d6031b16f95eaed1794d1f1833510efbc6e9b40a83ced1a0d294",
    "infinite-radius":
        "96316536c380662471e061baf9d43a17a2af23c1912b68455e964d1d4af2cfdb",
    "minus-infinite-centre":
        "12922cb9e9bd30ce73397f1ac38827eb8f6a2fd1ceb8cb72afe44b4208604c20",
    "negative-radius":
        "b5e1cc767c1233a7a3d4c26d93c39076b4899ec9fcd26d5bc117bf4f679fd731",
    "zero-radius":
        "c25b19f4e8f1abd141273ffeeaee4c73be95109edbfc5b0d21d39826e3f4e5df",
    "dropped-arrival":
        "b5d854593b2652319f45f733ca807da6583672e171ab6e907de6c27804989751",
    "shifted-arrivals":
        "766ec4467f32a772a436bcc0b068e84d77cd1246e46262e5ac79be02c1c4fc43",
    "inconsistent-status-0":
        "f065947c478432915a984c70e1c7b72090372fc638717d03d23699847b381ebc",
    "inconsistent-status-1":
        "5f6fee38e69ce6580d41a72405da2e7cc9d2dbb57f90fea8c8647e60d4efed64",
    "inconsistent-status-2":
        "3cbe859e6bd54e6bb089b5213e9a74cea2adeedb5c7c98b87d149d07a013b922",
    "inconsistent-status-3":
        "535c266728246cf54387425faeeb54575c1570b4b140d2c410a34dee43c5213d",
    "inconsistent-status-4":
        "5e138f3dfe2e65682cef070c58b4d14bdd5b8a0772e756bbbaba9ad416fe27cf",
    "refused-radius-None":
        "f6031bf93bb841fa9208ec099c921f005e5916940ba8ba57a3c772913ecb0b45",
    "refused-radius-0.0":
        "e67dd922965b92eec60d596df63c12df6ef5560c909feb6e8c5485c5ae475e6b",
    "refused-radius--0.5":
        "1157d3ceabd3458243d2e89005a70a1a85cbed98055e511b0b79437346755060",
    "refused-radius-inf":
        "672692ab6298ac1b9520166688712da9d40e81a0f89723de2a58ace2fa6fa394",
    "refused-radius-nan":
        "161f92690c580c73311887770cb4f11da1f9431b440c0b6e6ec63aa7d1e70c0b",
    "refused-radius-True":
        "850920719b452edb793fa600661d9b72cca26d6a1c90265558cbdb5f0a650a95",
    "reversed":
        "fad5ed53aa6a44b9561f311a712497dc881c0b225cf51e4727d872419940942f",
    "off-alternation":
        "0ab8af9008be48b16a486f9c7a351bfe37fb2c0056d1c029a717e3bb8a7ec119",
    "frontier-reversed":
        "f869cafe5a0f2c595321180a026f42823d38166bac24fafb6d5eb064109966d8",
    "gap-too-small":
        "79957a4eb07eaa70122711869c91fd164b48c353cdde328efc3abf0d615aba14",
    "large-overlap-and-swap":
        "8265648efb02276e1ee4f07bb1cc9a7ea52d645ffd3f94018557935682831318",
    "large-reversed":
        "9bee8ebb0f83aef0ad2c4686cd38182981fa6164319fae81f85bbc62ac54f96d",
    # Its lane is named TLP, but the gap check of a class-1 lane runs.
    "gap-too-small-named-tlp":
        "b8bd1ad2e7d7230930d1d7b6d78ae05da00b664a613ca089a001b2e649dcea6b",
}


# placement_digest of every golden case, recorded before the result JSON
# changed layout: no placement may move with the format.
PLACEMENT_GOLDEN = {
    "rect-1.0-greedy_adversary-0":
        "6550de4af485e24c626618aca76e68392b80b644a3c69e21bcd7425d1faf9e9a",
    "rect-1.0-greedy_adversary-1":
        "afb4365565eb3823ec48e8595b229bce3bfb564b693dd9f9b06079270fe12f1b",
    "rect-1.0-greedy_adversary-2":
        "eeaff782602591990f6081e88032a7f1b66dc72e36f24a13338e28eab050dd22",
    "rect-1.0-uniform-0":
        "2c982770262b7923bf57f19fde38c886dde99b703f6c75bcdd249af93590b680",
    "rect-1.0-uniform-1":
        "caead17fe2c8bda693d0e3a326c0e49315659668e8aa3f00dd9112c77276b3f1",
    "rect-1.0-uniform-100":
        "72b4c11283bc72afb4b48e3b70ba9e791396f48884f95d905be319d7c8ea3cb0",
    "rect-1.0-uniform-101":
        "b93b55ee3d8c7ef0b2b2b1a26115c8dbd7504645c46cec1ae81daef222a5db23",
    "rect-1.0-uniform-102":
        "8f85cb969715dbe583c79b547da5368c8928b4afbd09083b11592be466030708",
    "rect-1.0-uniform-2":
        "9460323274983389130bef65134d4968f798fbca33cd4f464f19508f3769f878",
    "rect-1.5-greedy_adversary-0":
        "f148d3c2501ec53de0d3f539078b5cc0b7b905103033b0b6482dd54b97f87c72",
    "rect-1.5-greedy_adversary-1":
        "0baf9f9db7dae35310f9e75bbc006e16dd7afa01f53267c9d027c246ab016501",
    "rect-1.5-greedy_adversary-2":
        "0eee336bbdca5f15b35350eac108f50e152b12694de2a15780dbedbe8c92e33c",
    "rect-1.5-uniform-0":
        "9b416f6257f237ac07fe5e02142a9ce8d8e206970da8a6707dccafef4e5e1756",
    "rect-1.5-uniform-1":
        "740de62f7d7ac5bf32d197aed0f540ec853c2e99d29851c36a0a9f0a3d581b2b",
    "rect-1.5-uniform-100":
        "72b4c11283bc72afb4b48e3b70ba9e791396f48884f95d905be319d7c8ea3cb0",
    "rect-1.5-uniform-101":
        "b93b55ee3d8c7ef0b2b2b1a26115c8dbd7504645c46cec1ae81daef222a5db23",
    "rect-1.5-uniform-102":
        "8f85cb969715dbe583c79b547da5368c8928b4afbd09083b11592be466030708",
    "rect-1.5-uniform-2":
        "d19a9ffcc6354e6f2c2bbffe473e3061413390c1a363c0641c53d2c8a77d4dd9",
    "rect-2.0-greedy_adversary-0":
        "218aef521134afd82229a34cadf0b264abea1a9a59b129eb24710dded298cc73",
    "rect-2.0-greedy_adversary-1":
        "09a17b1904cc54f660635cbadc67159b1b5d99e8b50d56cc75481a6b10ef826b",
    "rect-2.0-greedy_adversary-2":
        "40eb1d09b4c325b41770823667bf831ffe161814950d9efb8c20f74ce8fa999b",
    "rect-2.0-uniform-0":
        "be001ac4b516f618984fbff155061bbba1cbd7e8da76d3bde8bee01f4d249b1a",
    "rect-2.0-uniform-1":
        "6788495caee6be38eda33cca872021116df1ae4f1d79245597bcb7606dcb4a19",
    "rect-2.0-uniform-100":
        "72b4c11283bc72afb4b48e3b70ba9e791396f48884f95d905be319d7c8ea3cb0",
    "rect-2.0-uniform-101":
        "b93b55ee3d8c7ef0b2b2b1a26115c8dbd7504645c46cec1ae81daef222a5db23",
    "rect-2.0-uniform-102":
        "8f85cb969715dbe583c79b547da5368c8928b4afbd09083b11592be466030708",
    "rect-2.0-uniform-2":
        "8ec17d9da8003838b6d35136ebc161dca7960ed48c3422db56f136f270f724c6",
    "rect-3.0-greedy_adversary-0":
        "a905d91dba82f0f145e5d0b7e29b666b2c87b645e52182b12d687cf91aebc1a2",
    "rect-3.0-greedy_adversary-1":
        "633613b8755d84e062962766a64aea911982b528bf6b47b861e9bc6af2f9629f",
    "rect-3.0-greedy_adversary-2":
        "d9b7d74438f87821d175e920b7073a2530f1848658f8a73ae66afdb2b48c3324",
    "rect-3.0-uniform-0":
        "aac4ddfffb96d1da4b0be9f20fb3fa5f8bb6c17cbd259f43e10d9eba8ea59748",
    "rect-3.0-uniform-1":
        "19a7647fd4670c0129a56402a420ecf1eff744eed4a374ed5417b305fd808f11",
    "rect-3.0-uniform-100":
        "72b4c11283bc72afb4b48e3b70ba9e791396f48884f95d905be319d7c8ea3cb0",
    "rect-3.0-uniform-101":
        "b93b55ee3d8c7ef0b2b2b1a26115c8dbd7504645c46cec1ae81daef222a5db23",
    "rect-3.0-uniform-102":
        "8f85cb969715dbe583c79b547da5368c8928b4afbd09083b11592be466030708",
    "rect-3.0-uniform-2":
        "5e25c4af495a853aa315ac83b28e82de8fdae3c24f0377ecea98c97f53872478",
    "square-general-greedy_adversary-0":
        "dcd13780de48f16a1f2f3132c97f16cb280fe3f9568fe61b91ca0d1ee3adeef2",
    "square-general-greedy_adversary-1":
        "80140b4bd307121d718036e53f7b53caa75093781c8834bf16a6b9d4a2fcf87a",
    "square-general-greedy_adversary-2":
        "42724267d327f9978714ca7221a81d1212ad47db28ef1b63c1b5f839a07e741d",
    "square-general-uniform-0":
        "311991feb54c083e74819543fa6fdbb2cadcfbeaf200c0e702a301024d312b0d",
    "square-general-uniform-1":
        "55c7404e521ffb81461e2d2a72d853750b8367ac468b1968355a263ec04c93ff",
    "square-general-uniform-100":
        "28bb8c4d0b83cba6ac82ddf891ef56e3181ebc0532bd65b47eeb3f484e12c181",
    "square-general-uniform-101":
        "e3743f2d6613cb46e73d0f7c2caf851e48395b57388008103ba9c94c94e9fd2f",
    "square-general-uniform-102":
        "bb38878115df7187276cc6b9adb54ebdde10622ab9029187b61c4b25492115f8",
    "square-general-uniform-2":
        "1a296f9ed486fc959f5a08d5ac17fad79f910638a0ee8e0c21a2de1258d6940b",
    "square-no_tiny-greedy_adversary-0":
        "bcc407f4772106e36e18154e43dbe2972428f11e35f40eca2565f350c4f98a1e",
    "square-no_tiny-greedy_adversary-1":
        "2384614f6ed846400193c5599b4404fa9f39ff52113ab99776a078c496a837f5",
    "square-no_tiny-greedy_adversary-2":
        "137173e68f46a151e9f9bd30a293c5461223e3a8a406b62ba8dec6a3d135c539",
    "square-no_tiny-uniform-0":
        "e08d4b0cd6de3dec8ebb8f4fd82ad0534704fb837e014a5b0012e721def03e50",
    "square-no_tiny-uniform-1":
        "e43782853b9ce720c59ff2baf0adfc6f9c0d14c05b043c7e6852f02a1759187b",
    "square-no_tiny-uniform-100":
        "c126c7a4ada16926cbf66d723a906d928cba46f24798d483cc6ddb80649774ad",
    "square-no_tiny-uniform-101":
        "ae69ac3c511e9deda1033881de8d8262dc6aa066ff5c70a18628fa67e9f7acd8",
    "square-no_tiny-uniform-102":
        "25e262084795cc57a9a701ea85b2af813cd591120bef1b70e6520cf7f809183f",
    "square-no_tiny-uniform-2":
        "c413baf3a159d144f561f5d7930362670962b3722480778674c6a01ae84724d6",
    "square-general-tiny-stream":
        "eb7d8fe1dda9825a9f489e5503a131b149f5cfb885a676001bcde82b6c00a659",
    "rect-2.0-mixed-stream":
        "fc5954bd73d5234914fdb4163c038dd58c4096663a8ec934eb63486ae42c9a07",
    "rect-6.0-mixed-blocks":
        "9e0fd883962741c9f7031e851297d84f75d80cd601d6abf42850f55584836f7d",
}

# report_digest of every golden case, recorded with PLACEMENT_GOLDEN:
# the audit's findings on an untampered packing must not move either.
REPORT_GOLDEN = {
    "rect-1.0-greedy_adversary-0":
        "09e5981bc80a045a91fa23c786b0d629c14005fb7e9acfddffb4870e866eab63",
    "rect-1.0-greedy_adversary-1":
        "e8d9c736254835c08530fb8aa1f3209cf925d8b7cd980bb47da17ead05313db3",
    "rect-1.0-greedy_adversary-2":
        "2beae331c720ec8aa44fb35e56c5e1f1d59a8f730819dc0b6f6fb660e06adf1d",
    "rect-1.0-uniform-0":
        "666368e8f7bda114fcef8a31fa063e5f569cb33abb8687b6e14fb6f8efd8bf5d",
    "rect-1.0-uniform-1":
        "d8690bddf348e9ec7aee794e862099eab56b42d78001f3f534b1dec119809756",
    "rect-1.0-uniform-100":
        "c4ad24fbc29648ac2af3abd755a80a8d62c5ce821dd277f1e20ee8b309c40e3b",
    "rect-1.0-uniform-101":
        "3251becf9f288c414ec02a32c69b13c815899608c5a1780a257c35668eb3bc9c",
    "rect-1.0-uniform-102":
        "799f246fb889ab4cbb6a378728e511f89c9d344b9d12793a2ae92b89d21853a6",
    "rect-1.0-uniform-2":
        "971ea7f592db33e91857701262f06ef31414b249da6b80d744fefc4ae7879e84",
    "rect-1.5-greedy_adversary-0":
        "00f8dce98b3f89e3b846741dcacd9aa1c07f1a3fe67579edda46bd6e541f6b71",
    "rect-1.5-greedy_adversary-1":
        "30bcfceb28fdb629b104f77d2e215d941bb29d8f5e94cc40f0a5c6eb7a9070be",
    "rect-1.5-greedy_adversary-2":
        "90cb48f2fa173ff2fa590c53fb19c2a680c0ceceffc5dfba794fa893cefb9350",
    "rect-1.5-uniform-0":
        "81d14510653d41342adbb5004837162295f20869b413314335a999db26964efd",
    "rect-1.5-uniform-1":
        "2746ce83383a7ae2306eb229faea5710cab086a04bdf678a78da25169071a613",
    "rect-1.5-uniform-100":
        "d768c067e1aaf3cc36d8ec1619ac9157c82b14d9cf3015b58ebfdfe078857844",
    "rect-1.5-uniform-101":
        "6d7c42e0da9f944c890b0274ffc22f65ae1b954d2f988ce8cedba84f8951d439",
    "rect-1.5-uniform-102":
        "3f344bfd833ff5f3ee5be01073f1dc4d2b3861cdd6574b5609fa0017a63392b7",
    "rect-1.5-uniform-2":
        "59507ac402cff9c34db0c78a49a3f345176f4ea2be5be2d4edb2a2309dae1143",
    "rect-2.0-greedy_adversary-0":
        "dd9ee0458f7fd738984db9f5cd22868512292979f890621c46fdf807ee50be2d",
    "rect-2.0-greedy_adversary-1":
        "bdccf2e1b5a2fbaec04049a11f3481eea338f8846e8bc43c02151291b3d36c2e",
    "rect-2.0-greedy_adversary-2":
        "d4a116648c21d9ac508fc0a70f6b86f3542e1577c633e77532e9df277544a27c",
    "rect-2.0-uniform-0":
        "dbd7591957c3edd825f2a924b787eca30bceefc51d71d61e7e1643aa40cd41a5",
    "rect-2.0-uniform-1":
        "effac31fa0463726d42c206abb7a5a8dd6f03a4eef9e399bc5fb53a6cad2b4c8",
    "rect-2.0-uniform-100":
        "159261ba057990bce72743790ac29471c6f343aebce8aa09c28c7916b8c669f0",
    "rect-2.0-uniform-101":
        "cd1540fa141f28c32186e17e50be66bd4069f171b0e8cae5177d4e5281694adf",
    "rect-2.0-uniform-102":
        "4bc4a4287d2b406c37d1ab1b9b4bd7faa1b25c8120f91bb3d908c840f2ed8bae",
    "rect-2.0-uniform-2":
        "7ea3bc89983edfffe8097816a9c9f28c6923289746daebc858cc544fe1227db5",
    "rect-3.0-greedy_adversary-0":
        "643283021b50f360ec173004e058fe200a108738a0d08d5a08cc96f95bc76f6e",
    "rect-3.0-greedy_adversary-1":
        "8c9908e0142908c32b7d50d0801e88d79c4dcd62a38648cea66ddc5781d9be3b",
    "rect-3.0-greedy_adversary-2":
        "e42e3da57e0ec07d5bfa6b5695b673d7a1e9a67aa614d60c50a129c2fc8e1c72",
    "rect-3.0-uniform-0":
        "8782ac6efd614b4a5109376374c697caa64c95c6915aaa9b3807688435ba95aa",
    "rect-3.0-uniform-1":
        "66557b7b51f3989357bb51e0e76c82252917889e3bd0c7a1083e8ae3689f8c50",
    "rect-3.0-uniform-100":
        "a6626475d69a5a3b69cfb347fdebe736edf042554d44c7f05751d159655d6f75",
    "rect-3.0-uniform-101":
        "3dba26557669c7790bf458a2bc8b2b0eb2dc0790b02961469381acca2121d35d",
    "rect-3.0-uniform-102":
        "dd8fe2231a0bef930f53e0283a2bc4aa8f1ab58e08a1cc3228784d2ed9cd8504",
    "rect-3.0-uniform-2":
        "85a4dd39c5e3de5d9e9f0bae8fb5c5448ccdc7f8ad51b5d78b112f6cb04de623",
    "square-general-greedy_adversary-0":
        "0592fb6c78bf00959ca44c37f977402f2749c4c4264487062c269c280581290e",
    "square-general-greedy_adversary-1":
        "236c46e3821d24efa96a5088a557d69e06111078745443aa18f03f033787d4e5",
    "square-general-greedy_adversary-2":
        "c7167ac9c25f3bb713fa8984e4437f9419dbe163f43e63419e51fb717426a643",
    "square-general-uniform-0":
        "6f17efbf59f8b7ff1c9824ec7a9c7f71152ee02c0e73c19d5182c3d7e4482576",
    "square-general-uniform-1":
        "eaf933c2286208730535aa406cdb9e0d1271f3b99befa9b0960ae2bc7336916b",
    "square-general-uniform-100":
        "4300b0ef658568e7cfecad61eb5fa31710b7ce6e028dac8be322d333e47c7dcd",
    "square-general-uniform-101":
        "c9b99dca92349edb21c98c82b554bbeff6a81190a8a498f4674fd3a8f51e777c",
    "square-general-uniform-102":
        "2c5c02258282ae64056dcc4247018699695e34810498bf9c045748b0b88dd963",
    "square-general-uniform-2":
        "ffcd3c7e4588cc812e7b6263603c64a6c3feab6e629d3c4ff716eb8911c9b8f2",
    "square-no_tiny-greedy_adversary-0":
        "8e109fea99b9356bc0050f68515d50b2855db533effe3f6765a2b722e3a6f3f4",
    "square-no_tiny-greedy_adversary-1":
        "fe1f89d12372eb20f790ae0d9a6fff19265be0c3c157a858ef1dcf06d393fef3",
    "square-no_tiny-greedy_adversary-2":
        "396bd1a8b2764003e122a59c96ed152d8babce0f755d225db77b94634cca928c",
    "square-no_tiny-uniform-0":
        "ae03e500d8f21b0709207ab9cffd86210231a6d1b1c773cce9285adbbf8bacc3",
    "square-no_tiny-uniform-1":
        "7a6bde6c037dbc8e0fbe072a208c8f503b25e687b93c46841ffff844982af26c",
    "square-no_tiny-uniform-100":
        "6d8f7c398b12bade3d71d776013486a22168532a6920b9957f993c380e9d71b3",
    "square-no_tiny-uniform-101":
        "d4e2d065ad570824d1af24d3ecd4e561404ac02e9f658d22320a1033aefb677f",
    "square-no_tiny-uniform-102":
        "55bb114f9b4cb4caf4b6f5eb87864f9c8d0ea77f0a187a0fdbe31b2bf32ae376",
    "square-no_tiny-uniform-2":
        "0c81e8f7fea5ea58924b215f63717f3096115f5dac4feb41759c586457076776",
    "square-general-tiny-stream":
        "7827a735c99f732a936996319065c4534bbdd72316cb71d74809a5fea7ac498f",
    "rect-2.0-mixed-stream":
        "e36944b827aac2d859e6e67e38d29248b5e9f6d6abde9309d22e7d96a790ee9d",
    "rect-6.0-mixed-blocks":
        "49a360a720816bba148c28cd8a14ffea0139747f1dcd7e8a054a5bc2b92d2e3e",
}


def main() -> int:
    """Check every digest; a case whose audit needs a missing numpy is
    skipped.  Exit status 1 if any digest differs."""
    checks = []
    for name, build in {**CASES, **STREAMS}.items():
        result = functools.cache(build)  # packed once for its 4 checks
        checks += [(name, lambda r=result: digest(r()), GOLDEN[name]),
                   (f"placements-{name}",
                    lambda r=result: placement_digest(r()),
                    PLACEMENT_GOLDEN[name]),
                   (f"report-{name}", lambda r=result: report_digest(r()),
                    REPORT_GOLDEN[name]),
                   # The audit of the packing read back from JSON.
                   (f"json-report-{name}",
                    lambda r=result: report_digest(from_json(r())),
                    REPORT_GOLDEN[name])]
    checks += [(f"tampered-{name}", lambda name=name: report_digest(
                    tampered()[name]), want)
               for name, want in TAMPERED_GOLDEN.items()]
    checks += [(f"json-tampered-{name}", lambda name=name: report_digest(
                    from_json(tampered()[name])), want)
               for name, want in TAMPERED_GOLDEN.items()]
    checks += [(f"unreadable-{name}", lambda t=tamper: unreadable(*t), True)
               for name, *tamper in UNREADABLE]
    counts = {"passed": 0, "failed": 0, "skipped": 0}
    for name, run, want in checks:
        try:
            outcome = "passed" if run() == want else "failed"
        except ModuleNotFoundError as exc:
            if exc.name != "numpy":
                raise
            outcome = "skipped"
        counts[outcome] += 1
        if outcome == "failed":
            print(f"FAILED {name}")
    print(f"Python {sys.version.split()[0]}: "
          + ", ".join(f"{v} {k}" for k, v in counts.items()))
    return 1 if counts["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
