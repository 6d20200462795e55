"""Golden digests of whole packings and of tampered packings' audit
reports; the cases and digests live in tests/golden.py."""

import pytest

from golden import (CASES, GOLDEN, TAMPERED_GOLDEN, TINY_STREAM_N,
                    _mixed_stream, _tiny_stream, digest, report_digest,
                    tampered)


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


@pytest.mark.parametrize("name", sorted(TAMPERED_GOLDEN))
def test_golden_tampered_report(name):
    assert report_digest(tampered()[name]) == TAMPERED_GOLDEN[name]
