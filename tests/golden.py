"""Golden digests of whole packings and their audit reports.

tests/test_golden.py checks them under pytest.  Run this file directly,

    PYTHONPATH=src python tests/golden.py

to check every case under any interpreter without pytest; a case whose
audit needs numpy counts as skipped where numpy is missing.

Each case packs a fixed seeded sequence and hashes the serialized result
together with its audit report.  The digests were recorded before the
placement sweep was windowed to the lane's frontier and the audit's
overlap check became a sort-and-sweep; any change to a single
coordinate, lane, class or audit finding changes them.  Placements must
stay bit-identical, so never regenerate these values to make a test pass.
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


def digest(result) -> str:
    payload = {
        "packing": result.to_json_dict(),
        "audit": validate(result).to_json_dict(),
    }
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


GOLDEN = {
    "rect-1.0-greedy_adversary-0":
        "ce5793a10da587f49901073ed0a6c4d74946e12682b74d5a1811d99091f12f49",
    "rect-1.0-greedy_adversary-1":
        "7a5023b3342c95d342c263cedf44c7e16423a62bd69d90b3b3356fe889b211b9",
    "rect-1.0-greedy_adversary-2":
        "0995b48b2658ddbc195eaebe3b1f74b4255ad53437b9595ce4965ed49fcca110",
    "rect-1.0-uniform-0":
        "fe249a980868ddc56c37f9e458bb33f3f2fe9ad68f39c39f825858d94fa0af88",
    "rect-1.0-uniform-1":
        "1d4f99747f1570cc86368424cd0bc1b0a865e01fc39ae63ee0cd20c36f6d02af",
    "rect-1.0-uniform-100":
        "875a03933143268e515df804a08f695757832c0a73152ecadd5861d24992a203",
    "rect-1.0-uniform-101":
        "3347d86deb3d17839a1765d0913fe92786f4dfb0644075423f11a3461d317e12",
    "rect-1.0-uniform-102":
        "bb909ff552044b0b8dbe4c0b804fca00807ee78422dd1f161290b89bdd99706f",
    "rect-1.0-uniform-2":
        "097e2d8c75be28bd419d50bc4cbda42c4a14e6c31cccd96f55f089c81158c9a8",
    "rect-1.5-greedy_adversary-0":
        "7b5283e1ed973cc3e15b1c811a4bc62b422f02726fdcb160b8a02893f06b91c0",
    "rect-1.5-greedy_adversary-1":
        "532fca889332d7bff46bbb1432f43fc0575cd0dfa652813001f9350100cc75e8",
    "rect-1.5-greedy_adversary-2":
        "3c66a5125b7128556484f4abb151b91e7b0fff36637d2f4f34ec2a1440109f63",
    "rect-1.5-uniform-0":
        "7489401f7ae329b2b13007c0939acfc7b4ebc0b28ec26ebab851ba6648975328",
    "rect-1.5-uniform-1":
        "7b0cc3360752a8529002068b1439980412ff0df55e6eae7e3bba78a007ec0b9e",
    "rect-1.5-uniform-100":
        "4aec211a3b2250937a7611a0bc4881f8160b222bb1982e0bd6094e10d83b6d41",
    "rect-1.5-uniform-101":
        "c9b5ebde8954369ec17170e891375a6c779ce6811299aceaa6c7159bc09dce53",
    "rect-1.5-uniform-102":
        "4145d326b907c7be27107747bf31be880cf6c20f4180f564298336cd3e36fe92",
    "rect-1.5-uniform-2":
        "11e3224ddaf92b8a59bd2f587cdbd4aa02f59e21899de5109c7079a42c89dbab",
    "rect-2.0-greedy_adversary-0":
        "56636195ae9fb6db100ea34b7beab008f0f8e76fa3266c18193dc86c4e0465c2",
    "rect-2.0-greedy_adversary-1":
        "6c9de26c0bdb69059bb7a87c8e6fda56b74ab85a4f72be3451c560b989515f13",
    "rect-2.0-greedy_adversary-2":
        "340acdd9f5db5fa06d518ae1dee2a9db95089f1d751fae930231436db6615512",
    "rect-2.0-uniform-0":
        "7cf1df70ac0fb3d0ffbed4e419d2bb26deee7628e2a2276db5af7fac37a2e58b",
    "rect-2.0-uniform-1":
        "d06524d63351a03fd0a8c9b7f1295eb3899180fd1c9f0c4c2d674df5e345724d",
    "rect-2.0-uniform-100":
        "cd171ff11aa8814bd5d4c0decfd38693040229a3e06556670838f294e061b0c5",
    "rect-2.0-uniform-101":
        "bffc9d1c9c4c44714f3324f01f96d19b9e080ee562cc2b9f36e398c61e441d31",
    "rect-2.0-uniform-102":
        "49add92376e54e953726aa1955e8e4330ec445865758223909efaf3d93c39ec1",
    "rect-2.0-uniform-2":
        "fe77c27420f2ca2f40634b107fe3e11ec8cc803a97e1641efac9b6e094c578c1",
    "rect-3.0-greedy_adversary-0":
        "996fd2c3cd8a4994a9f75d4665fa0968f4088fd4b00e2140f94acd9aa26fa1f9",
    "rect-3.0-greedy_adversary-1":
        "72280eef133471dbe4bce43038b06b004fb533ba22c0a36f85d6d3201ddd3bd2",
    "rect-3.0-greedy_adversary-2":
        "0e266710a281cef35ce52b6a27e2d7593ab8e13d9f58cfdfb1dae2f6180fc7e0",
    "rect-3.0-uniform-0":
        "b808b47dfd6f31a353fa5ccc77eaed67514cd67b95ef523b0afe24567594d1c8",
    "rect-3.0-uniform-1":
        "a9263e4f83dc5230b37ea26ffcc33150d41b760881d752e72035a4aa2186a561",
    "rect-3.0-uniform-100":
        "3f5e892e3e21afc71b92309e2121ff26d591801db84e7fa5a405e4e5157abed8",
    "rect-3.0-uniform-101":
        "6940cdfe287f0041cfca9719fdf71df870a6012e0bd570e3883d55f279a23d90",
    "rect-3.0-uniform-102":
        "1d94e2b55a4b595d62d04881fd563a6c7416c6b3fab2ec598abda40e18bd8d55",
    "rect-3.0-uniform-2":
        "307eb4627067e9eb636e7e14c58ad769e8f9be6ca1fc8251b326452cfed25f7c",
    "square-general-greedy_adversary-0":
        "dadd31662f63b30b23ccd3fb60a4fa828aac753bb01ff7dfc53a10d662c7cca6",
    "square-general-greedy_adversary-1":
        "60fdab6807762f4a9a342fcd67d33146fb1119815fc1fd4726fda80a0b950b72",
    "square-general-greedy_adversary-2":
        "835d8ebba082dbdb6986cdb7ec069afc72975a06a41f010c2ee3028f92df5d18",
    "square-general-uniform-0":
        "93453f7c259c17c88b55f2a27acc04cfae6358db0a1b6440a67c434d97b924bd",
    "square-general-uniform-1":
        "170c57e6d59d2ddc30d6986da5904edc52ab2b9e286d2950383ed8724791fad0",
    "square-general-uniform-100":
        "139401ed0ef9bd1fea6db0f46249ccbc97242e3978b7614302b08b7d09b01653",
    "square-general-uniform-101":
        "0b5edb61c68ae32396439743a3048a145e2bb368e9d4fced028ef9c419077cf2",
    "square-general-uniform-102":
        "d8e721aa490646ff495133e165cbe9edf231e4002f0a80025ffd434568b006a5",
    "square-general-uniform-2":
        "6d4444ee699c75cfdd9c103e34bcca276b4b2ca207b9135c6ac9d712a9e046a8",
    "square-no_tiny-greedy_adversary-0":
        "19dad9879c53119c73bc3b18641186b1a3745dcd2819f9e9e60384a721af9327",
    "square-no_tiny-greedy_adversary-1":
        "0eeabbca663f5249b1697e61a3487c5680cc6dd3d9cc02c84393af76880b191e",
    "square-no_tiny-greedy_adversary-2":
        "0316b1e7f9cff3870c62e50397c837ec9e0c94dbc58674b78b744c31ac61bd2f",
    "square-no_tiny-uniform-0":
        "2aa7eef9544a24c4a4100b4dd07f654e0c4e42b78aebca9f6e7457e3a2dff2c2",
    "square-no_tiny-uniform-1":
        "5e345209923c7c556be2ab697162dca90c51fb3f5783d0f65e373fe16fd19b82",
    "square-no_tiny-uniform-100":
        "af23de8fd21e4dc39075e747ea4ab8ef7bcce93f02ee2db446c6aa98645defa2",
    "square-no_tiny-uniform-101":
        "1c2697a7bb5c391c243064c983dabfeef6062731943720f3a9337c1a85adc6ae",
    "square-no_tiny-uniform-102":
        "d02b4e7b768551954034fae11615f145b828dd0e56c8a0af55e0a9f21a3f6a81",
    "square-no_tiny-uniform-2":
        "52d5f118c19a68315f25fdd08f2a6668da26e3dba1309498bceda380224f2c86",
    "square-general-tiny-stream":
        "3be2e03fd41e3ef85980a53cfbd23ec25a9314d62e265f8c1d6b919fd76e7d4c",
    "rect-2.0-mixed-stream":
        "9f858537de8cfd7774ffe53cb6fdf7b3f4b775ec718497b7d3cbc8ad8c586a48",
}


# name -> (container, square mode or rectangle aspect, radii builder), for
# the seeded cases and then the two streams.
INPUTS = dict(_inputs())
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


def report_digest(result) -> str:
    blob = json.dumps(validate(result).to_json_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


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
}


def main() -> int:
    """Check every digest; a case whose audit needs a missing numpy is
    skipped.  Exit status 1 if any digest differs."""
    checks = [(name, lambda build=build: digest(build()), GOLDEN[name])
              for name, build in {**CASES, **STREAMS}.items()]
    checks += [(f"tampered-{name}", lambda name=name: report_digest(
                    tampered()[name]), want)
               for name, want in TAMPERED_GOLDEN.items()]
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
