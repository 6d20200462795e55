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
the placements as columns, and each file in UNREADABLE must be refused
before any report exists. The placement and report digests do not depend
on the JSON layout: they were recorded before the result JSON became
schema 2 (columns, and only the lanes that hold circles). GOLDEN alone
was regenerated for schema 2, again for schema 3, which writes a lane as
its id plus a sub-lane's strip start and side and reads every frame from
the layout, and once more when per_lane dropped the dump of the packer's
block records and the circle counts, keeping only the lane lengths and
the closed flags; every other key of each file stayed the same. So the
other digests show that no placement and no audit finding moved with any
of these formats, and the reports after a round trip through JSON,
tampered ones included, that the frames the audit derives from a lane
table are the run's. No digest changed when the audit took over deriving
the frames of a result in memory too. The sparse-block case
rect-6.0-mixed-blocks came later; its three digests were recorded on the
code from before the audit read placements as columns. Placements must
stay bit-identical, so never regenerate these values to make a test
pass.
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
from lanepack.containers import (RectRun, SquareRun, pack_rect_online,
                                 pack_square_online)
from lanepack.genseq import GenSpec, generate
from lanepack.layout import PackResult

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
        "6c722684ea975d50f85c0bf93cd13307d3b06233df02fb8d307b897788bf0b4c",
    "rect-1.0-greedy_adversary-1":
        "1645b83eeb3e59e0e5691f19d18b077d9f42de37e62202267f9736f27579f446",
    "rect-1.0-greedy_adversary-2":
        "165c180cc48b58062e667d05f5b3227c5df9cb35255ef9d931317160c2b2f1c6",
    "rect-1.0-uniform-0":
        "e5a561c8c74e56841de6e87263ad647063283e2d471f947a219238bbda313873",
    "rect-1.0-uniform-1":
        "92b6cfa2380cf7d63613ec3caed25442a36c5fcdab40ddd3e35b50d9f2b94e96",
    "rect-1.0-uniform-100":
        "987705c7364e50ffd2aae8a5d2ad3f23e32aabdab81237347c10ea03298eac45",
    "rect-1.0-uniform-101":
        "f770d89f1435c04affa0cdd3a419655bc9666c3108ee7da0b034d195e42f51a4",
    "rect-1.0-uniform-102":
        "c0aea3c3d198158058d4d27a88fd5d5cd9c3c942bfc9884fbcf506993b0939ee",
    "rect-1.0-uniform-2":
        "c40e66c76fb70ab7c98d2fa6fed35af5ad271d756fde3b682f32c21e5f1a316f",
    "rect-1.5-greedy_adversary-0":
        "74a0f661cf6a7c77b06bf106ade3994ce6630f4a8714d58268eb806ec6f20c2b",
    "rect-1.5-greedy_adversary-1":
        "df663d529c4e9ad6a83e4784d8a10a76be3d79b816ef43b9626ba140861eefcc",
    "rect-1.5-greedy_adversary-2":
        "921593ae8e74f6a2fd30ba5a0372d77762bc59f48fd5023b26d03823b61fc5cf",
    "rect-1.5-uniform-0":
        "342b383c65f68a1f2350d553ca49840981e8433ad7bb0909b44961cf531af7c8",
    "rect-1.5-uniform-1":
        "375f525cf9b8c3dfb44a884714cf4413e2a0b3dc55550a11bfc55c1f0c349a74",
    "rect-1.5-uniform-100":
        "58f2fc6dac3ad21f439adabd391f83fecc82cf3a2ecc326f0a3c8de911385aae",
    "rect-1.5-uniform-101":
        "0477c5cea7b5beb5f679977391dcfc2d5e5ecc01bb5c720262dacdaa03da9c62",
    "rect-1.5-uniform-102":
        "8ea1d685f725bbaf8f19c6cb447b746f7e4e6b1b18df2f8434356e056f04d54d",
    "rect-1.5-uniform-2":
        "00f84b2011655a60ccc23ff4c541181295b975c7bcbfe154a4ef3a996422a9ce",
    "rect-2.0-greedy_adversary-0":
        "92bce2eae170eb1f49a3507f5f33edc3b3a3d6c0e81ab14068cffbfddf33da14",
    "rect-2.0-greedy_adversary-1":
        "ceede4061b4fc298d991e1c87742d32433220948cba10378888360c074b48c8d",
    "rect-2.0-greedy_adversary-2":
        "1c1a01060072e7863183720c186583ce69110f5b098bfa1dbcd196330b717d93",
    "rect-2.0-uniform-0":
        "44f1f21c23cbd68bc85e4936fa7dc37464985832561fa7f947b28fede9e822bf",
    "rect-2.0-uniform-1":
        "a8686b86bf15de1dca05b28560c1fb66f289f04187161885b7b0257411a95361",
    "rect-2.0-uniform-100":
        "89d4392890037788c7e653e2eef5d9247eda18ad5031e8a9a8b1229ef631e10a",
    "rect-2.0-uniform-101":
        "45fa068ff1cc2a2c21162ff8a839bfafc7e12294a1677f21ba67ea132d3a48d4",
    "rect-2.0-uniform-102":
        "8255cba8c4e7a11d71cccefdd22fe006c73e0f580008c8ac622fd265b7f771cc",
    "rect-2.0-uniform-2":
        "509eb60e09d8053e36d780a8d74abc0638b17452564e403de37d3b6dad2cb598",
    "rect-3.0-greedy_adversary-0":
        "fd6fb46103d3f9f4bf3e16a1c091da82f07f97a4476b6156865956e94d3ea174",
    "rect-3.0-greedy_adversary-1":
        "0f00b01b90f6877b02d3a18c0d2f27a8d2f1f7e8727ccbb523a790d891dccc76",
    "rect-3.0-greedy_adversary-2":
        "cb0be82fd7021737c3e7f819922db9851c0c7476778ebbabf4eb97f6d1daf75f",
    "rect-3.0-uniform-0":
        "db1029301a82aad2e12bc461617027f29e35af977e338e2c20096eaff5d55172",
    "rect-3.0-uniform-1":
        "31f3c6c41fbb84ff3aa52b966baba55bf85cebf2919c76d1aad648ef142870ad",
    "rect-3.0-uniform-100":
        "e7d03bb04807ae81e38a983b62d55cb0997905603883f65e9a8af40f28e08d26",
    "rect-3.0-uniform-101":
        "3eff1099a5067a70a4c9610ab09248e31005ab540ff057923cc21ea350780cdd",
    "rect-3.0-uniform-102":
        "39736441f63cd1c9e4c9fbcd4080e444cf8d6a987b95cfd0c1c496a665873446",
    "rect-3.0-uniform-2":
        "a511b56c62a933756090c740edf1d1c70c6e6fcc7669d1b5d67424f061bb7662",
    "square-general-greedy_adversary-0":
        "628fb8edb7fa480e8531db2185afd45c541d61d26178e132812d0c4b75c51df1",
    "square-general-greedy_adversary-1":
        "a11f9ba5de11910a793f3666417299cdce0be1938c3e566f3a5b365a1309db37",
    "square-general-greedy_adversary-2":
        "fce51f83b7faacf91b58ab981529e4e1d29d4eb857709b3c6674e2a309b9d77f",
    "square-general-uniform-0":
        "574f300d02414bc0f5f3def7af1dcd0d270a312d9b0e77e43a1d65daf0fbe5bb",
    "square-general-uniform-1":
        "3973f2ab0dd772fd9e7228c183a0d970f7a7dd91ab1afab97387958a2665937a",
    "square-general-uniform-100":
        "7837c837f90616b76af28ef8036ea71a5cb7495b6e037cc0a5ebf4a1a6ffcb3d",
    "square-general-uniform-101":
        "37fa91c7fe5c0c3805b7e8c91be915d750cea7b2305e02f84ce9b36ed49e6d8f",
    "square-general-uniform-102":
        "ad915b74093a448b583f1502413b88bba372e42caec7ffd1295db98d2036f988",
    "square-general-uniform-2":
        "e7d124a5b99e86981f294055e6f6f985fc4fd96623070543e3bcb0f7d4aeb7b5",
    "square-no_tiny-greedy_adversary-0":
        "e33daf789669b9afd3b5521edb323e061ac7498068c10b3cb32a4ed025861f26",
    "square-no_tiny-greedy_adversary-1":
        "711f8ee38da140fae1e426bb46aacff4a9f04a64e65bf05f6e2da3959ff40eff",
    "square-no_tiny-greedy_adversary-2":
        "7d3f277d76713761be8caa6a381979df411b29fb1c630ecb72b97b905417b856",
    "square-no_tiny-uniform-0":
        "a56e7619ac67dc8f3f4e4abcc305a200de0b086777235534718dbf3ed2211145",
    "square-no_tiny-uniform-1":
        "6a80c70cab961fd86725d297089f80d79c464eac71cea09e1e7f285dcb335c86",
    "square-no_tiny-uniform-100":
        "fbf56b6f8b963af5d3ace4f62d477d6b3f521d169fc344ba01d8cc99ea526dab",
    "square-no_tiny-uniform-101":
        "30fccd9749d755d078cbfcd208f14edd05c0ce11635745b935288464031be908",
    "square-no_tiny-uniform-102":
        "eb138f9d8fc6f78a38c79cd26d4530e26381a90a06960db835dbedead113c939",
    "square-no_tiny-uniform-2":
        "000be6911aef0cd9f0742ac848923f66c7cf1eab02af7accc56d579391b4feb4",
    "square-general-tiny-stream":
        "5b7bccc94e748653882b813e5a7a38e9922e80df9e6be7601f290fa6224bb284",
    "rect-2.0-mixed-stream":
        "e664699a6a3ddaaa91ebc8c5fc46101ff626cd6928861ee7647fa557c6211acd",
    "rect-6.0-mixed-blocks":
        "531137588534df50920ef0e23fee936f0be0c5615febac824acc3f4f17e8b5c5",
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


@functools.cache
def tampered() -> dict:
    return dict(_tampered_cases())


# Result files edited one way each, as (name, table, column, new value of
# its last entry), that must be refused with ValueError before any audit
# report exists: by from_json_dict, which types the columns, or by
# validate, which fits the lane table to the layout.  The last lane is a
# sub-lane of the 1-long L1 host.
UNREADABLE = (("float-arrival", "placements", "i", 0.0),
              ("string-x0", "lanes", "x0", "a"),
              ("strip-past-host", "lanes", "x0", 1.0))


@functools.cache
def _five_circles() -> str:
    return json.dumps(pack_square_online(
        "general", [0.3, 0.12, 0.07, 0.05, 0.003]).to_json_dict())


def unreadable(table: str, column: str, value) -> bool:
    """Whether reading and auditing the five-circle square's file with
    the column's last entry replaced by value raises ValueError."""
    d = json.loads(_five_circles())
    d[table][column][-1] = value
    try:
        validate(PackResult.from_json_dict(d))
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
