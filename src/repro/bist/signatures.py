"""Interval signatures and aliasing analysis.

A single end-of-test MISR compare gives one bit of information; splitting
the response stream into intervals with one signature each (a standard
BIST refinement) bounds *when* the first error occurred, which feeds
diagnosis, and reduces the effective aliasing probability.  The classic
aliasing bound for a ``w``-bit MISR is ``2^-w`` per compare.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.bist.misr import Misr


@dataclass(frozen=True)
class IntervalSignatures:
    """Signatures of a response stream split into fixed-size intervals."""

    interval: int
    signatures: Tuple[int, ...]
    width: int = 8

    def first_failing_interval(self, other: "IntervalSignatures"
                               ) -> Optional[int]:
        """Index of the first interval whose signatures differ."""
        if (self.interval, self.width) != (other.interval, other.width):
            raise ValueError("interval schemes differ")
        for i, (a, b) in enumerate(zip(self.signatures, other.signatures)):
            if a != b:
                return i
        if len(self.signatures) != len(other.signatures):
            return min(len(self.signatures), len(other.signatures))
        return None

    def cycle_window(self, index: int) -> Tuple[int, int]:
        """[start, end) cycle range covered by interval ``index``."""
        return index * self.interval, (index + 1) * self.interval


def interval_signatures(stream: Sequence[int], interval: int,
                        width: int = 8, seed: int = 0) -> IntervalSignatures:
    """Compact ``stream`` into per-interval MISR signatures.

    The MISR is *not* reset between intervals (each signature covers the
    stream prefix), so a single corrupted cycle changes every signature
    from its interval onward — the first mismatching interval brackets the
    first error.
    """
    if interval < 1:
        raise ValueError("interval must be positive")
    misr = Misr(width, seed=seed)
    signatures: List[int] = []
    for i, word in enumerate(stream):
        misr.absorb(word)
        if (i + 1) % interval == 0:
            signatures.append(misr.signature)
    if len(stream) % interval:
        signatures.append(misr.signature)
    return IntervalSignatures(interval=interval,
                              signatures=tuple(signatures), width=width)


def aliasing_probability(width: int, n_compares: int = 1) -> float:
    """Classic MISR aliasing bound: per-compare escape ≈ 2^-width.

    With ``n_compares`` independent signature compares the probability
    that *every* compare aliases is ``2^(-width · n_compares)``; the
    probability that a corrupted stream escapes entirely is bounded by the
    single-compare bound of the *final* signature, ``2^-width``, and
    interval signatures can only improve on it.
    """
    if width < 1 or n_compares < 1:
        raise ValueError("width and n_compares must be positive")
    return 2.0 ** (-width * n_compares)


def diagnose_interval(golden: IntervalSignatures,
                      observed: IntervalSignatures) -> Optional[Tuple[int, int]]:
    """Cycle window containing the first error, or ``None`` if clean."""
    index = golden.first_failing_interval(observed)
    if index is None:
        return None
    return golden.cycle_window(index)
