"""Tests for interval signatures."""

import pytest

from repro.bist.signatures import (
    aliasing_probability,
    diagnose_interval,
    interval_signatures,
)


def test_interval_signature_counts():
    sigs = interval_signatures(list(range(100)), interval=16)
    assert len(sigs.signatures) == 7  # 6 full + 1 tail
    exact = interval_signatures(list(range(96)), interval=16)
    assert len(exact.signatures) == 6


def test_interval_validates():
    with pytest.raises(ValueError):
        interval_signatures([1, 2], interval=0)


def test_first_failing_interval_brackets_error():
    stream = list(range(80))
    golden = interval_signatures(stream, interval=10)
    corrupted = list(stream)
    corrupted[37] ^= 0x40
    observed = interval_signatures(corrupted, interval=10)
    index = golden.first_failing_interval(observed)
    assert index == 3  # cycle 37 lies in interval [30, 40)
    assert diagnose_interval(golden, observed) == (30, 40)


def test_clean_stream_diagnoses_none():
    stream = [5] * 40
    golden = interval_signatures(stream, interval=8)
    assert diagnose_interval(golden, interval_signatures(stream, 8)) is None


def test_error_persists_in_later_signatures():
    """The MISR is not reset per interval, so every signature after the
    corruption differs (no re-aliasing back to clean, generically)."""
    stream = list(range(64))
    corrupted = list(stream)
    corrupted[5] ^= 0x01
    golden = interval_signatures(stream, interval=8)
    observed = interval_signatures(corrupted, interval=8)
    diffs = [a != b for a, b in zip(golden.signatures, observed.signatures)]
    assert diffs[0] is True
    assert sum(diffs) >= len(diffs) - 1


def test_mismatched_schemes_rejected():
    a = interval_signatures([1, 2, 3], 2)
    b = interval_signatures([1, 2, 3], 3)
    with pytest.raises(ValueError):
        a.first_failing_interval(b)


def test_aliasing_probability():
    assert aliasing_probability(8) == pytest.approx(2 ** -8)
    assert aliasing_probability(8, 2) == pytest.approx(2 ** -16)
    with pytest.raises(ValueError):
        aliasing_probability(0)
