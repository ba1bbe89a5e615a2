"""Entropy estimation for the controllability metric.

The paper defines controllability as normalised entropy::

    C(X) = H(X) / H(uniform) = H(X) / n      (n-bit signal X)

For narrow signals the entropy is estimated exactly from the sample
histogram.  For wide signals a histogram over 2ⁿ bins is hopeless with a
few thousand samples, so — like the paper, which relies on
``H(X,Y) = H(X) + H(Y)`` for independent ports — we assume independence
*across bits* and average the per-bit binary entropies.  Multi-port
components compose width-weighted, the paper's
``C(X,Y) = (1/2n)(C(X) + C(Y))`` generalised to unequal widths.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Iterable, Sequence, Tuple

#: Widest signal for which exact histogram entropy is used by default.
EXACT_WIDTH_LIMIT = 8


def histogram_entropy(samples: Sequence[int]) -> float:
    """Exact entropy (bits) of the empirical distribution of ``samples``."""
    if not samples:
        raise ValueError("cannot estimate entropy from no samples")
    counts = Counter(samples)
    total = len(samples)
    entropy = 0.0
    for count in counts.values():
        p = count / total
        entropy -= p * math.log2(p)
    return entropy


def per_bit_entropy(samples: Sequence[int], width: int) -> float:
    """Mean of the per-bit binary entropies (bit-independence assumption).

    Returns a value in [0, 1]: it is already normalised per bit, i.e. it
    *is* the controllability under the independence assumption.
    """
    if not samples:
        raise ValueError("cannot estimate entropy from no samples")
    if width <= 0:
        raise ValueError("width must be positive")
    total = len(samples)
    acc = 0.0
    for i in range(width):
        ones = sum((s >> i) & 1 for s in samples)
        p = ones / total
        if 0 < p < 1:
            acc += -(p * math.log2(p) + (1 - p) * math.log2(1 - p))
    return acc / width


def controllability_from_samples(samples: Sequence[int], width: int) -> float:
    """The paper's ``C(X) = H(X)/n`` from a sample stream.

    Uses the exact histogram estimate for signals up to
    ``EXACT_WIDTH_LIMIT`` bits (when the sample count supports it) and
    the per-bit estimate for wider signals.
    """
    if width <= 0:
        raise ValueError("width must be positive")
    if width <= EXACT_WIDTH_LIMIT and len(samples) >= (1 << width):
        return min(1.0, histogram_entropy(samples) / width)
    return per_bit_entropy(samples, width)


def combine_independent(values_and_widths: Iterable[Tuple[float, int]]) -> float:
    """Width-weighted composition of per-port controllabilities.

    For two equal-width ports this reduces to the paper's
    ``C(X,Y) = (1/2n)(C(X) + C(Y))``.
    """
    total_width = 0
    acc = 0.0
    for value, width in values_and_widths:
        if width <= 0:
            raise ValueError("port width must be positive")
        acc += value * width
        total_width += width
    if total_width == 0:
        raise ValueError("no ports to combine")
    return acc / total_width
