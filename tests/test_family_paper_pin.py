"""``CoreSpec.paper()`` is pinned to the pre-family core, byte for byte.

The family builder's whole contract is that the paper point is not "a
very similar core" but *the* core: same netlist hash, same component
registry, same measured metrics, same Phase 1 selection.  These tests
route the existing golden payloads through ``build=paper_build()`` — they
must match the goldens regenerated *before* the family layer existed, so
any drift of the family layer away from the paper core fails loudly.
"""

import pytest

from tests.test_goldens import TABLE1_PARAMS, TABLE2_PARAMS, _cell

from repro.dsp.components import COMPONENTS
from repro.dsp.family import CoreBuild, CoreSpec, paper_build
from repro.dsp.gatelevel import make_gatelevel_core
from repro.dsp.isa import Opcode, control_word
from repro.dsp.mac import MacParams
from repro.metrics.simple_metrics import build_table1
from repro.metrics.table import build_metrics_table
from repro.runtime.cache import netlist_hash
from repro.selftest.phase1 import run_phase1

#: The structural hash of the paper core's gate-level netlist at the
#: moment the family layer landed.  If this changes, the family
#: refactor altered the paper core — that is never an intended change.
PAPER_NETLIST_HASH = \
    "287a7304d18a0508c502078c50cca6a943b5b9f6bea7eb9bb7bfe9ced9949d88"


#: The paper core's component registry, field for field, as the
#: hand-written list defined it before the family generator produced it:
#: (name, kind, output_width, input_ports, modes, mode_labels, output_bus,
#: state_key, in_metrics_table, netlist structural hash).  The
#: combinational netlists define the hierarchical fault universe.
PAPER_REGISTRY = [
    ("multiplier", "comb", 18, (("a", 8), ("b", 8)), (0,), ((0, ""),),
     "p", None, True,
     "2c77d5ceb848d88d822f60fda01ba678cf2f63b57fd14236a46e8a48d1afdc20"),
    ("shifter", "comb", 18, (("data", 18), ("amt", 4), ("mode", 2)),
     (0, 1, 2, 3), ((0, "00"), (1, "01"), (2, "10"), (3, "11")),
     "out", None, True,
     "23d6d4ae5b83e1c64bbb7d83fd2defabeec82e0a325bb5f870b53f52ee0da02e"),
    ("addsub", "comb", 18, (("a", 18), ("b", 18), ("sub", 1)), (0, 1),
     ((0, "add"), (1, "sub")), "result", None, True,
     "4bf01a316ca1e53cc2bcb1b4b2872f69a5b2776002ac095fe54bf826a02be600"),
    ("truncater", "comb", 18, (("data", 18), ("en", 1)), (0, 1),
     ((0, "pass"), (1, "trunc")), "out", None, True,
     "33623c8f95feab41e154fc99dbd09046b3daf029a664c87075f5cc6043e39c4b"),
    ("limiter", "comb", 8, (("data", 18),), (0,), ((0, ""),),
     "out", None, True,
     "28c00a240439e22b63887fee6e49bd3a436bf7ac9d52222403c03727253e889b"),
    ("muxa", "comb", 18, (("data", 18), ("en", 1)), (0, 1),
     ((0, "0"), (1, "1")), "out", None, True,
     "4cd76e8eb6c3c9ee63ed495c1bd05edeeb39d2f0cb22f22a69f7c5e24e414383"),
    ("muxb", "comb", 18, (("data", 18), ("en", 1)), (0, 1),
     ((0, "0"), (1, "1")), "out", None, True,
     "35df8b4a6daad5bfc1b7ff773852991c8ee8f6c05482c33167a16cc903632549"),
    ("muxg_shifter", "comb", 18, (("a", 18), ("b", 18), ("sel", 1)),
     (0, 1), ((0, "A"), (1, "B")), "out", None, True,
     "6fa0554dce8185b983325f186ed2e5d74c0aa40b91eb1339d1492086cc57db0d"),
    ("muxg_limiter", "comb", 14, (("a", 14), ("b", 14), ("sel", 1)),
     (0, 1), ((0, "A"), (1, "B")), "out", None, True,
     "65320fe7657e56f4b712917196e396488a7ba55e3aed4a5c05cbc69bf5e7a180"),
    ("mux7", "comb", 8, (("a", 8), ("b", 8), ("sel", 1)), (0, 1),
     ((0, "mac"), (1, "buf")), "out", None, True,
     "2443e1d68fa313f1d24a18f83239fbb28538b0d2126fc5f30f34695d76e0070b"),
    ("decoder", "comb", 12, (("in", 5),), (0,), ((0, ""),),
     "out", None, False,
     "88b800f5065cb439c090b3d93224ceab43795631fee66318c49e54e1e8534089"),
    ("acca", "register", 18, (("d", 18), ("en", 1)), (0,), ((0, ""),),
     "out", ("acc_a",), True, None),
    ("accb", "register", 18, (("d", 18), ("en", 1)), (0,), ((0, ""),),
     "out", ("acc_b",), True, None),
    ("macreg", "register", 8, (("d", 8),), (0,), ((0, ""),),
     "out", ("macreg",), True, None),
    ("buffer", "register", 8, (("d", 8),), (0,), ((0, ""),),
     "out", ("buffer",), True, None),
    ("temp", "register", 8, (("d", 8),), (0,), ((0, ""),),
     "out", ("temp",), True, None),
]


@pytest.fixture(scope="module")
def paper():
    return paper_build()


def test_paper_netlist_hash_pinned(paper):
    assert netlist_hash(paper.netlist) == PAPER_NETLIST_HASH
    # ... and the build's netlist is the same object graph the historical
    # constructor produces, not merely an equivalent one.
    assert netlist_hash(make_gatelevel_core()) == \
        PAPER_NETLIST_HASH


def test_paper_component_registry_pinned(paper):
    assert paper.components is COMPONENTS
    registry = [
        (c.name, c.kind, c.output_width, c.input_ports, c.modes,
         c.mode_labels, c.output_bus, c.state_key, c.in_metrics_table,
         netlist_hash(c.netlist()) if c.kind == "comb" else None)
        for c in COMPONENTS
    ]
    assert registry == PAPER_REGISTRY
    assert paper.mac_params == MacParams()


def test_paper_build_is_cached_singleton(paper):
    assert CoreBuild.get(CoreSpec.paper()) is paper


def test_paper_control_words_identical(paper):
    for op in Opcode:
        assert paper.control_word(op) == control_word(op), op.name


def test_table1_matches_pre_family_golden(golden):
    table = build_table1(**TABLE1_PARAMS)
    payload = {
        row: {col: _cell(cell.c, cell.o) for col, cell in cells.items()}
        for row, cells in table.items()
    }
    golden("table1.json", payload)


def test_table2_through_build_matches_pre_family_golden(golden, paper):
    table = build_metrics_table(**TABLE2_PARAMS, build=paper)
    payload = {}
    for row in table.rows:
        cells = {}
        for column in table.columns:
            cell = table.cell(row, column)
            if cell is None:
                continue
            label = f"{column[0]}:{column[1]}"
            cells[label] = _cell(cell.c, cell.o,
                                 covered=table.is_covered(row, column))
        payload[row.label] = cells
    golden("table2.json", payload)


def test_phase1_through_build_matches_pre_family_golden(golden, paper):
    table = build_metrics_table(**TABLE2_PARAMS, build=paper)
    result = run_phase1(table)
    payload = {
        "wrappers": [v.label for v in result.wrapper_rows],
        "wrapper_covered": [f"{c[0]}:{c[1]}" for c in result.wrapper_covered],
        "selections": [
            {"variant": variant.label,
             "columns": [f"{c[0]}:{c[1]}" for c in columns]}
            for variant, columns in result.selections
        ],
        "uncovered": [f"{c[0]}:{c[1]}" for c in result.uncovered],
    }
    golden("phase1_selection.json", payload)
