"""The DSP core *family*: validated design points around the paper core.

The paper evaluates its self-test method on one core.  The family turns
that single configuration into a parameterized design space — register-file
size, operand/accumulator width, pipeline depth, shifter and adder
implementation, optional truncater/limiter — so the whole
metrics → Phase 1-3 → fault-simulation pipeline can run across it instead
of at a point (see ``repro.harness.sweeps``).

Two classes:

* :class:`~repro.dsp.corespec.CoreSpec` — a frozen, validated description
  of one design point.  Illegal combinations (e.g. an accumulator narrower
  than the MAC product) raise :class:`~repro.runtime.errors.ConfigError`
  from :meth:`CoreSpec.validate` and never build anything.
* :class:`CoreBuild` — the cached build context for a legal spec: ISA
  control words, decoder truth table, behavioural core factory,
  gate-level netlist, and the per-spec component registry that the
  metrics/fault layers consume.

``CoreSpec.paper()`` is the paper core.  Its build comes from the same
code as every other point; golden tests pin what it produces (netlist
structural hash, component registry, metrics tables, Phase 1 selection).
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Optional

from repro._util import mask
from repro.dsp.components import ComponentSpec, columns_of, components_for
# The spec and its legal axis values are re-exported: the family layer
# is where callers (sweeps, tests) pick them up.
from repro.dsp.corespec import (  # noqa: F401
    AMT_WIDTH,
    N_REGISTERS_CHOICES,
    OPERAND_WIDTH_CHOICES,
    PAPER_SPEC,
    PIPELINE_DEPTH_CHOICES,
    SHIFTER_STYLES,
    CoreSpec,
    control_word_for,
)
from repro.dsp.isa import ControlWord, Opcode
from repro.dsp.mac import MacParams
from repro.logic.netlist import Netlist


# ----------------------------------------------------------------------
# Build context
# ----------------------------------------------------------------------
class CoreBuild:
    """Cached build context for one legal :class:`CoreSpec`.

    Obtain instances through :meth:`CoreBuild.get`, which validates the
    spec and memoises the (expensive) gate-level build.
    """

    def __init__(self, spec: CoreSpec):
        spec.validate()
        self.spec = spec
        self.mac_params = MacParams(
            operand_width=spec.operand_width,
            acc_width=spec.acc_width,
            frac=spec.acc_frac,
            frac_drop=spec.frac_drop,
            amt_width=AMT_WIDTH,
            has_truncater=spec.has_truncater,
            has_limiter=spec.has_limiter,
        )
        self.components = components_for(spec)
        self.operand_mask = mask(spec.operand_width)
        self.acc_mask = mask(spec.acc_width)
        self._by_name = {c.name: c for c in self.components}
        #: Opcode -> control word; the behavioural core reads it every
        #: cycle, so it is a plain dict.
        self.control_words: Dict[Opcode, ControlWord] = {
            op: control_word_for(spec, op) for op in Opcode}
        self._netlist: Optional[Netlist] = None

    # ------------------------------------------------------------------
    @staticmethod
    @lru_cache(maxsize=64)
    def get(spec: CoreSpec) -> "CoreBuild":
        return CoreBuild(spec)

    # ------------------------------------------------------------------
    @property
    def drain_length(self) -> int:
        """NOPs appended to flush the pipeline: one per stage."""
        return self.spec.pipeline_depth

    #: Cycle offset of an instruction issued at cycle 0 in the ID stage
    #: (the metrics engines inject/observe relative to it).
    @property
    def id_cycle(self) -> int:
        return 0 if self.spec.pipeline_depth == 3 else 1

    # ------------------------------------------------------------------
    def control_word(self, opcode: Opcode) -> ControlWord:
        return self.control_words[opcode]

    def component_by_name(self, name: str) -> ComponentSpec:
        return self._by_name[name]

    def all_columns(self, metrics_only: bool = True):
        """All (component, mode) columns of this point, registry order."""
        return columns_of(self.components, metrics_only)

    # ------------------------------------------------------------------
    def make_core(self, state=None, stuck_bits=None):
        """A fresh behavioural core for this point."""
        from repro.dsp.core import DspCore
        return DspCore(state=state, stuck_bits=stuck_bits, build=self)

    @property
    def netlist(self) -> Netlist:
        """The gate-level core (cached)."""
        if self._netlist is None:
            from repro.dsp.gatelevel import make_gatelevel_core
            # The paper core is named ``dsp_core``: the lint baseline
            # keys its findings as ``netlist:dsp_core:...``.
            name = "dsp_core" if self.spec.is_paper \
                else f"dsp_core_{self.spec.label()}"
            self._netlist = make_gatelevel_core(name=name, spec=self.spec)
        return self._netlist

    @property
    def area(self) -> int:
        """Gate + flop count — the landscape's area proxy."""
        n = self.netlist
        return len(n.gates) + len(n.dffs)


def paper_build() -> CoreBuild:
    """The paper core's build context (shared instance)."""
    return CoreBuild.get(PAPER_SPEC)


#: The paper core's build context: the default of every ``build=``
#: parameter.
PAPER_BUILD = paper_build()
