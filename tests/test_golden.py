"""Golden digests of whole packings and their audit reports.

Each case packs a fixed seeded sequence and hashes the serialized result
together with its audit report.  The digests were recorded before the
placement sweep was windowed to the lane's frontier and the audit's
overlap check became a sort-and-sweep; any change to a single
coordinate, lane, class or audit finding changes them.  Placements must
stay bit-identical, so never regenerate these values to make a test pass.
"""

import hashlib
import json
import random

import pytest

from lanepack.audit import validate
from lanepack.bounds import guarantee_rect, guarantee_square
from lanepack.containers import pack_rect_online, pack_square_online
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


def _cases():
    for b in RECT_ASPECTS:
        for seed in SEEDS:
            for spec in _rect_specs(b, seed):
                yield (f"rect-{b}-{spec.kind}-{spec.seed}",
                       lambda b=b, spec=spec: pack_rect_online(
                           b, generate(spec)))
    for mode in ("general", "no_tiny"):
        for seed in SEEDS:
            for spec in _square_mode_specs(mode, seed):
                yield (f"square-{mode}-{spec.kind}-{spec.seed}",
                       lambda mode=mode, spec=spec: pack_square_online(
                           mode, generate(spec)))


def _tiny_stream():
    rng = random.Random(20190501)
    radii = [rng.uniform(0.002, 0.004) for _ in range(TINY_STREAM_N)]
    return pack_square_online("general", radii)


def _mixed_stream():
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
    return pack_rect_online(2.0, radii)


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

CASES = dict(_cases())


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
