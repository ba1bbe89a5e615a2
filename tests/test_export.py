"""Tests for Verilog/vector/testbench export."""

import re

from repro.bist.template import RandomLoad, TemplateArchitecture
from repro.dsp.gatelevel import make_gatelevel_core
from repro.dsp.isa import Instruction, Opcode
from repro.logic.builder import NetlistBuilder
from repro.logic.export import to_verilog
from repro.rtl.arith import make_addsub
from repro.selftest.export import (
    expected_responses,
    write_testbench,
    write_vector_file,
)


def test_verilog_combinational():
    src = to_verilog(make_addsub(4), "addsub4")
    assert src.startswith("module addsub4")
    assert src.strip().endswith("endmodule")
    assert "input a_0;" in src
    assert "output result_0;" in src
    # no registers in a combinational netlist
    assert "always" not in src


def test_verilog_sequential():
    b = NetlistBuilder("reg1")
    a = b.input("a")
    q = b.dff(a, init=1, name="q")
    b.output(q)
    src = to_verilog(b.finish())
    assert "reg q;" in src
    assert "q <= 1'b1;" in src      # reset value
    assert "q <= a;" in src         # next state
    assert "always @(posedge clk)" in src


def test_verilog_gate_flavours():
    b = NetlistBuilder("gates")
    x = b.input("x")
    y = b.input("y")
    b.output(b.nand(x, y))
    b.output(b.xnor(x, y))
    b.output(b.not_(x))
    b.output(b.const1())
    src = to_verilog(b.finish())
    assert "~(x & y)" in src
    assert "~(x ^ y)" in src
    assert "= ~x;" in src
    assert "1'b1;" in src


def test_verilog_full_core_exports():
    src = to_verilog(make_gatelevel_core(), "dsp_core")
    assert src.count("assign") > 2000
    assert "always @(posedge clk)" in src
    # Balanced module/endmodule.
    assert src.count("module") - src.count("endmodule") == \
        src.count("endmodule")  # exactly one of each
    assert len(re.findall(r"^module ", src, re.M)) == 1


def test_expected_responses_drain():
    words = [0] * 3
    responses = expected_responses(words)
    assert len(responses) == 3 + 4
    assert all(valid in (0, 1) for valid, _ in responses)


def test_write_vector_file(tmp_path):
    program = [
        RandomLoad(0), RandomLoad(1),
        Instruction(Opcode.MPYA, rega=0, regb=1, dest=2),
        Instruction(Opcode.OUT, regb=2),
    ]
    words = TemplateArchitecture(program).expand(3)
    path = tmp_path / "vectors.txt"
    count = write_vector_file(path, words)
    lines = path.read_text().splitlines()
    assert count == len(lines) == len(words) + 4
    for line in lines:
        instr, valid, out = line.split()
        assert len(instr) == 17 and len(out) == 8
        assert valid in ("0", "1")
    # At least one cycle must observe a value.
    assert any(line.split()[1] == "1" for line in lines)


def test_write_testbench(tmp_path):
    path = tmp_path / "tb.v"
    write_testbench(path, make_gatelevel_core(), vector_file="v.txt")
    src = path.read_text()
    assert "module dsp_core_tb;" in src
    assert '$fopen("v.txt", "r")' in src
    assert "PASS" in src and "FAIL" in src
    assert src.count("endmodule") == 2  # core + testbench
