"""Multiple-input signature register (response compactor).

The paper's template architecture feeds the core's 8-bit output into a
MISR so the self-test response can be validated with a single signature
compare.  This is the classic MISR: an LFSR whose next state additionally
XORs the parallel input word.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro._util import mask
from repro.bist.lfsr import PRIMITIVE_TAPS


class Misr:
    """A ``width``-bit MISR with maximal-length feedback."""

    def __init__(self, width: int = 8, seed: int = 0,
                 taps: Optional[Sequence[int]] = None):
        if taps is None:
            if width not in PRIMITIVE_TAPS:
                raise ValueError(
                    f"no tabulated polynomial for width {width}; pass taps="
                )
            taps = PRIMITIVE_TAPS[width]
        self.width = width
        self.taps = tuple(taps)
        self._mask = mask(width)
        self.state = seed & self._mask

    def absorb(self, word: int) -> int:
        """Clock the MISR once with ``word`` on the parallel inputs."""
        feedback = 0
        for t in self.taps:
            feedback ^= (self.state >> (self.width - t)) & 1
        shifted = ((self.state >> 1) | (feedback << (self.width - 1)))
        self.state = (shifted ^ word) & self._mask
        return self.state

    @property
    def signature(self) -> int:
        return self.state

    def reset(self, seed: int = 0) -> None:
        self.state = seed & self._mask
