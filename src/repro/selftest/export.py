"""Test-set export: vector files and a self-checking testbench.

The paper's Perl script emitted (a) the test patterns fed to the fault
simulator and (b) a VHDL testbench "used to simulate the execution of our
test program on the core... for verification purposes to ensure that the
model used for fault simulation behaves correctly".  The equivalents here
write a plain-text vector file (one 17-bit instruction word per line with
the expected port response) and a structural-Verilog testbench skeleton
driving the exported gate-level core.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro.dsp.core import DspCore
from repro.dsp.isa import Instruction, Opcode, encode
from repro.logic.export import to_verilog
from repro.logic.netlist import Netlist


def expected_responses(words: Sequence[int]) -> List[tuple]:
    """(out_valid, out_value) per cycle, including the 4-NOP drain."""
    core = DspCore()
    nop = encode(Instruction(Opcode.NOP))
    responses = []
    for word in list(words) + [nop] * 4:
        result = core.step(word)
        responses.append((int(result.out_valid), result.out_value))
    return responses


def write_vector_file(path: Union[str, Path], words: Sequence[int]) -> int:
    """Write ``<instr17> <out_valid> <out8>`` lines; returns line count.

    This is the fault-simulator input format: stimulus plus the expected
    fault-free response for every cycle.
    """
    responses = expected_responses(words)
    nop = encode(Instruction(Opcode.NOP))
    padded = list(words) + [nop] * 4
    lines = [
        f"{word:017b} {valid} {value:08b}"
        for word, (valid, value) in zip(padded, responses)
    ]
    Path(path).write_text("\n".join(lines) + "\n")
    return len(lines)


def write_testbench(path: Union[str, Path], netlist: Netlist,
                    vector_file: str = "vectors.txt",
                    module_name: Optional[str] = None) -> None:
    """Write the exported core plus a self-checking Verilog testbench."""
    module = module_name or netlist.name
    core_src = to_verilog(netlist, module)
    n_in = len(netlist.inputs)
    out_nets = netlist.buses["out"]
    tb = f"""
// Self-checking testbench for {module}: drives the vector file produced
// by repro.selftest.export.write_vector_file and compares the output
// port against the recorded fault-free responses.
module {module}_tb;
  reg clk = 0, rst = 1;
  reg [{n_in - 1}:0] instr;
  wire [7:0] out_bus;
  wire out_valid;
  integer file, status, errors;
  reg [16:0] v_instr;
  reg v_valid;
  reg [7:0] v_out;

  {module} dut (.clk(clk), .rst(rst)
"""
    for i, net in enumerate(netlist.inputs):
        tb += f"    , .{_port(netlist, net)}(instr[{i}])\n"
    for i, net in enumerate(out_nets):
        tb += f"    , .{_port(netlist, net)}(out_bus[{i}])\n"
    tb += f"    , .{_port(netlist, netlist.buses['out_valid'][0])}(out_valid)\n"
    tb += f"""  );

  always #5 clk = ~clk;

  initial begin
    errors = 0;
    file = $fopen("{vector_file}", "r");
    @(negedge clk) rst = 0;
    while (!$feof(file)) begin
      status = $fscanf(file, "%b %b %b\\n", v_instr, v_valid, v_out);
      instr = v_instr;
      @(negedge clk);
      if (out_valid !== v_valid || (v_valid && out_bus !== v_out)) begin
        errors = errors + 1;
        $display("mismatch: got %b/%b want %b/%b",
                 out_valid, out_bus, v_valid, v_out);
      end
    end
    if (errors == 0) $display("PASS");
    else $display("FAIL: %0d mismatches", errors);
    $finish;
  end
endmodule
"""
    Path(path).write_text(core_src + tb)


def _port(netlist: Netlist, net: int) -> str:
    from repro.logic.export import _sanitise
    return _sanitise(netlist.net_names[net]).strip("\\ ")
