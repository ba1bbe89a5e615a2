"""JSON artifact loaders for the lint CLI.

``repro lint`` accepts small JSON documents describing the two subject
kinds (dispatched on their ``"kind"`` field):

* ``{"kind": "netlist", ...}`` — a flat gate-level netlist;
* ``{"kind": "program", ...}`` — a self-test program in assembler syntax.

The loaders are deliberately *permissive*: their whole point is to admit
defective artifacts (multi-driven nets, dead stores, bogus covers claims)
so the rules can flag them.  Structural sanity is the linter's job, not
the loader's — gates are appended to ``Netlist.gates`` directly, bypassing
:meth:`~repro.logic.netlist.Netlist.add_gate`'s incremental guard, exactly
the way a buggy generator would.  Only *syntactic* problems (unknown gate
kinds, unparseable assembler lines, missing fields) raise
:class:`~repro.runtime.errors.ConfigError`.

Example netlist document::

    {"kind": "netlist", "name": "demo",
     "nets": ["a", "b", "y"],
     "inputs": ["a", "b"], "outputs": ["y"],
     "gates": [{"kind": "and", "output": "y", "inputs": ["a", "b"]}],
     "dffs": [], "buses": {}}

Example program document::

    {"kind": "program",
     "lines": [{"asm": "MACA+ R0, R1, R2", "acc_state": "R",
                "covers": [["addsub", 0]]},
               {"ld_rnd": 0, "in_loop": true}]}
"""

from __future__ import annotations

import json
from typing import Any, Dict, Union

from repro.bist.template import RandomLoad
from repro.dsp.isa import assemble
from repro.logic.gates import GateType
from repro.logic.netlist import Dff, Gate, Netlist
from repro.runtime.errors import ConfigError
from repro.selftest.program import TestProgram

ARTIFACT_KINDS = ("netlist", "program")

Artifact = Union[Netlist, TestProgram]


def load_document(path: str) -> Dict[str, Any]:
    """Read and minimally vet one artifact file."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read artifact {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"artifact {path!r} is not JSON: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("kind") not in ARTIFACT_KINDS:
        raise ConfigError(
            f"artifact {path!r} must be a JSON object with "
            f"\"kind\" in {ARTIFACT_KINDS}"
        )
    return doc


def load_artifact(path: str) -> Artifact:
    """Load one artifact file into its lintable subject."""
    doc = load_document(path)
    kind = doc["kind"]
    if doc["kind"] == "netlist":
        return netlist_from_doc(doc)
    return program_from_doc(doc)


# ----------------------------------------------------------------------
# Netlists
# ----------------------------------------------------------------------
def netlist_from_doc(doc: Dict[str, Any]) -> Netlist:
    """Build a (possibly defective) netlist from its JSON description."""
    netlist = Netlist(name=str(doc.get("name", "artifact")))
    for name in doc.get("nets", []):
        netlist.add_net(str(name))

    def net(ref: Any) -> int:
        if isinstance(ref, int):
            return ref
        try:
            return netlist.net_id(str(ref))
        except KeyError:
            raise ConfigError(
                f"netlist {netlist.name!r}: unknown net {ref!r}"
            ) from None

    for ref in doc.get("inputs", []):
        netlist.add_input(net(ref))
    for ref in doc.get("outputs", []):
        netlist.add_output(net(ref))
    for entry in doc.get("gates", []):
        try:
            kind = GateType(str(entry["kind"]).lower())
        except (KeyError, ValueError):
            raise ConfigError(
                f"netlist {netlist.name!r}: bad gate entry {entry!r}"
            ) from None
        gate = Gate(kind=kind, output=net(entry.get("output")),
                    inputs=tuple(net(i) for i in entry.get("inputs", [])))
        # Appended directly: duplicate drivers must *load* so the linter
        # can flag them (NET001); add_gate would reject them here.
        if gate.output not in netlist.driver:
            netlist.driver[gate.output] = len(netlist.gates)
        netlist.gates.append(gate)
        netlist._topo_cache = None
    for entry in doc.get("dffs", []):
        init = entry.get("init", 0)
        dff = Dff(q=net(entry.get("q")), d=net(entry.get("d")),
                  init=None if init is None else int(init) & 1)
        netlist.dffs.append(dff)
        netlist._dff_q[dff.q] = dff
        netlist._topo_cache = None
    for name, nets in doc.get("buses", {}).items():
        netlist.buses[str(name)] = [net(ref) for ref in nets]
    return netlist


# ----------------------------------------------------------------------
# Programs
# ----------------------------------------------------------------------
def program_from_doc(doc: Dict[str, Any]) -> TestProgram:
    """Build a self-test program from its JSON description."""
    program = TestProgram()
    for i, entry in enumerate(doc.get("lines", [])):
        if not isinstance(entry, dict):
            raise ConfigError(f"program line {i} must be an object, "
                              f"got {entry!r}")
        if "ld_rnd" in entry:
            item: Any = RandomLoad(int(entry["ld_rnd"]))
        elif "asm" in entry:
            try:
                item = assemble(str(entry["asm"]))
            except ValueError as exc:
                raise ConfigError(
                    f"program line {i}: {exc}"
                ) from exc
        else:
            raise ConfigError(
                f"program line {i} needs an \"asm\" or \"ld_rnd\" field"
            )
        covers = [
            (str(component), int(mode))
            for component, mode in entry.get("covers", [])
        ]
        program.add(
            item,
            comment=str(entry.get("comment", "")),
            phase=str(entry.get("phase", "")),
            covers=covers,
            in_loop=bool(entry.get("in_loop", True)),
            acc_state=str(entry.get("acc_state", "")),
        )
    return program

