"""BIST hardware models: LFSRs, MISR and the test-program template architecture.

These model the "minimal insertion of external LFSR hardware" of the paper:
LFSR1 feeds pseudorandom data into trapped load instructions, LFSR2
XOR-masks register fields so each pass through the test loop exercises a
different register group, and a MISR compacts the core's output stream.
"""

from repro.bist.lfsr import Lfsr, PRIMITIVE_TAPS
from repro.bist.misr import Misr
from repro.bist.template import RandomLoad, TemplateArchitecture

__all__ = [
    "Lfsr",
    "PRIMITIVE_TAPS",
    "Misr",
    "RandomLoad",
    "TemplateArchitecture",
]
