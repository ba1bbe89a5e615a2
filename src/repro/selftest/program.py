"""The self-test program intermediate representation.

A :class:`TestProgram` is a list of annotated template lines.  Each line is
either a concrete :class:`~repro.dsp.isa.Instruction` or a
:class:`~repro.bist.template.RandomLoad` (the trapped "ld rnd" pseudo-op),
carries the metrics-table columns it is responsible for, the phase that
introduced it, and whether it belongs to the test loop or to the one-shot
prologue of Phase 3 ATPG sequences ("these instructions are only executed
once").

``render()`` produces a listing in the style of the paper's Figure 7:
assembled binary, symbolic code, and the covered-columns comment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

from repro.bist.lfsr import Lfsr
from repro.bist.template import RandomLoad, TemplateArchitecture, TemplateItem
from repro.dsp.isa import disassemble, encode

Column = Tuple[str, int]


@dataclass(frozen=True)
class ProgramLine:
    """One line of the self-test program."""

    item: TemplateItem
    comment: str = ""
    phase: str = ""                      # "wrapper" | "phase1" | "phase2" | "phase3"
    covers: Tuple[Column, ...] = ()
    in_loop: bool = True
    #: The metrics-table accumulator-state variant this line was selected
    #: as ("0" or "R"; "" when the line is not a measured row).  The lint
    #: pass checks the claim against the program's actual dataflow.
    acc_state: str = ""

    def symbolic(self) -> str:
        if isinstance(self.item, RandomLoad):
            return f"ld rnd, R{self.item.dest}"
        return disassemble(self.item)

    def bit_code(self) -> str:
        if isinstance(self.item, RandomLoad):
            word = self.item.encode_template()
        else:
            word = encode(self.item)
        return format(word, "017b")


@dataclass
class TestProgram:
    """An ordered self-test program with loop and one-shot sections."""

    __test__ = False  # not a pytest test class despite the name

    lines: List[ProgramLine] = field(default_factory=list)

    def add(self, item: TemplateItem, comment: str = "", phase: str = "",
            covers: Sequence[Column] = (), in_loop: bool = True,
            acc_state: str = "") -> ProgramLine:
        line = ProgramLine(item=item, comment=comment, phase=phase,
                           covers=tuple(covers), in_loop=in_loop,
                           acc_state=acc_state)
        self.lines.append(line)
        return line

    def __len__(self) -> int:
        return len(self.lines)

    @property
    def loop_lines(self) -> List[ProgramLine]:
        return [l for l in self.lines if l.in_loop]

    @property
    def one_shot_lines(self) -> List[ProgramLine]:
        return [l for l in self.lines if not l.in_loop]

    def loop_items(self) -> List[TemplateItem]:
        return [l.item for l in self.loop_lines]

    def one_shot_items(self) -> List[TemplateItem]:
        return [l.item for l in self.one_shot_lines]

    def covered_columns(self) -> List[Column]:
        seen = []
        for line in self.lines:
            for column in line.covers:
                if column not in seen:
                    seen.append(column)
        return seen

    # ------------------------------------------------------------------
    def template_architecture(
        self,
        lfsr1: Optional[Lfsr] = None,
        lfsr2: Optional[Lfsr] = None,
        mask_registers: bool = True,
    ) -> TemplateArchitecture:
        """The runtime architecture executing the program's loop section."""
        return TemplateArchitecture(
            self.loop_items(), lfsr1=lfsr1, lfsr2=lfsr2,
            mask_registers=mask_registers,
        )

    def n_vectors(self, n_iterations: int) -> int:
        """Loop vectors plus the one-shot prologue."""
        return len(self.one_shot_lines) + n_iterations * len(self.loop_lines)

    # ------------------------------------------------------------------
    def render(self) -> str:
        """Figure 7-style listing: bit code, symbolic code, comments."""
        out = []
        if self.one_shot_lines:
            out.append("; --- one-shot section (executed once, Phase 3) ---")
            out.extend(self._render_lines(self.one_shot_lines))
            out.append("; --- test loop ---")
        out.extend(self._render_lines(self.loop_lines))
        return "\n".join(out)

    @staticmethod
    def _render_lines(lines: Sequence[ProgramLine]) -> List[str]:
        rendered = []
        for line in lines:
            comment_bits = []
            if line.covers:
                comment_bits.append(",".join(
                    f"{c[0]}:{c[1]}" for c in line.covers
                ))
            if line.comment:
                comment_bits.append(line.comment)
            comment = (" // " + " ".join(comment_bits)) if comment_bits else ""
            rendered.append(
                f"{line.bit_code()}  {line.symbolic():<24}{comment}"
            )
        return rendered
