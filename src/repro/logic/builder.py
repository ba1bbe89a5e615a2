"""Structural construction helpers for :class:`~repro.logic.netlist.Netlist`.

The builder hands out fresh net ids, wires gates, and offers the small set of
word-level idioms (buses, 2:1 muxes, constants) that the RTL component
library in :mod:`repro.rtl` is written in terms of.  Muxes are deliberately
*composed from primitive gates* rather than being a gate type so that the
stuck-at fault universe resembles a synthesised standard-cell netlist.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.logic.gates import GateType
from repro.logic.netlist import Netlist


class NetlistBuilder:
    """Incrementally constructs a :class:`Netlist`.

    Typical usage::

        b = NetlistBuilder("adder8")
        a = b.input_bus("a", 8)
        c = b.input_bus("b", 8)
        total, carry = ripple_adder(b, a, c)
        b.output_bus("sum", total)
        netlist = b.finish()
    """

    def __init__(self, name: str):
        self.netlist = Netlist(name)
        self._fresh = 0
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None
        self._region: Optional[str] = None

    # ------------------------------------------------------------------
    # Nets and ports
    # ------------------------------------------------------------------
    def net(self, name: Optional[str] = None) -> int:
        """Create a net; anonymous nets get a unique ``_t<N>`` name."""
        if name is None:
            name = f"_t{self._fresh}"
            self._fresh += 1
        net_id = self.netlist.add_net(name)
        if self._region is not None:
            self.netlist.net_regions[net_id] = self._region
        return net_id

    def region(self, label: str):
        """Context manager tagging every net created inside with ``label``.

        Used when assembling flat designs from component generators, so
        flat fault populations can be reported per component::

            with b.region("multiplier"):
                product = multiplier_into(b, opa, opb)
        """
        builder = self

        class _Region:
            def __enter__(self):
                self.previous = builder._region
                builder._region = label

            def __exit__(self, *exc):
                builder._region = self.previous
                return False

        return _Region()

    def input(self, name: str) -> int:
        """Declare a scalar primary input, registered as a 1-bit bus too."""
        net = self.netlist.add_net(name)
        self.netlist.add_input(net)
        self.netlist.add_bus(name, [net])
        return net

    def input_bus(self, name: str, width: int) -> List[int]:
        nets = []
        for i in range(width):
            net = self.netlist.add_net(f"{name}[{i}]")
            self.netlist.add_input(net)
            nets.append(net)
        self.netlist.add_bus(name, nets)
        return nets

    def output(self, net: int, name: Optional[str] = None) -> int:
        # ``name`` is accepted for symmetry but outputs reuse the net name.
        del name
        self.netlist.add_output(net)
        return net

    def output_bus(self, name: str, nets: Sequence[int]) -> List[int]:
        for net in nets:
            self.netlist.add_output(net)
        return self.netlist.add_bus(name, nets)

    def bus(self, name: str, nets: Sequence[int]) -> List[int]:
        """Register an internal bus (metadata only)."""
        return self.netlist.add_bus(name, nets)

    # ------------------------------------------------------------------
    # Gates
    # ------------------------------------------------------------------
    def gate(self, kind: GateType, inputs: Sequence[int],
             name: Optional[str] = None) -> int:
        out = self.net(name)
        self.netlist.add_gate(kind, out, inputs)
        return out

    def const0(self) -> int:
        if self._const0 is None:
            self._const0 = self.gate(GateType.CONST0, (), name="_const0")
        return self._const0

    def const1(self) -> int:
        if self._const1 is None:
            self._const1 = self.gate(GateType.CONST1, (), name="_const1")
        return self._const1

    def const_value(self, net: int) -> Optional[int]:
        """0/1 if ``net`` is a known constant generator, else ``None``.

        Lets word-level generators specialise logic fed by constants
        instead of building gates with untestable stuck-at faults.
        """
        if net == self._const0:
            return 0
        if net == self._const1:
            return 1
        return None

    def not_(self, a: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.NOT, (a,), name)

    def buf(self, a: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.BUF, (a,), name)

    def and_(self, *ins: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.AND, ins, name)

    def or_(self, *ins: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.OR, ins, name)

    def nand(self, *ins: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.NAND, ins, name)

    def nor(self, *ins: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.NOR, ins, name)

    def xor(self, a: int, b: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.XOR, (a, b), name)

    def xnor(self, a: int, b: int, name: Optional[str] = None) -> int:
        return self.gate(GateType.XNOR, (a, b), name)

    # ------------------------------------------------------------------
    # Word-level idioms
    # ------------------------------------------------------------------
    def mux2(self, sel: int, a: int, b: int, name: Optional[str] = None) -> int:
        """2:1 mux from primitive gates: ``sel ? b : a``."""
        nsel = self.not_(sel)
        t_a = self.and_(a, nsel)
        t_b = self.and_(b, sel)
        return self.or_(t_a, t_b, name=name)

    def mux2_bus(self, sel: int, a: Sequence[int], b: Sequence[int]) -> List[int]:
        """Bit-wise 2:1 mux over two equal-width buses."""
        if len(a) != len(b):
            raise ValueError(f"mux2_bus width mismatch: {len(a)} vs {len(b)}")
        return [self.mux2(sel, ai, bi) for ai, bi in zip(a, b)]

    def mux4_bus(self, sel: Sequence[int], options: Sequence[Sequence[int]]) -> List[int]:
        """4:1 bus mux from a 2-bit select (``sel[0]`` is the LSB)."""
        if len(sel) != 2 or len(options) != 4:
            raise ValueError("mux4_bus needs 2 select bits and 4 options")
        low = self.mux2_bus(sel[0], options[0], options[1])
        high = self.mux2_bus(sel[0], options[2], options[3])
        return self.mux2_bus(sel[1], low, high)

    def dff(self, d: int, init: int = 0, name: Optional[str] = None) -> int:
        q = self.net(name)
        self.netlist.add_dff(q, d, init)
        return q

    # ------------------------------------------------------------------
    def finish(self) -> Netlist:
        """Validate and return the completed netlist."""
        self.netlist.validate()
        return self.netlist
