"""Content-addressed caches shared by every simulator (and pool worker).

Three memoisation layers back the campaign engine's throughput:

* **Compiled-evaluator cache.**  :class:`~repro.logic.compiled.CompiledEvaluator`
  construction code-generates and ``exec``-compiles one function per
  netlist — historically *per simulator instance*, so building a
  :class:`~repro.faults.combsim.CombFaultSimulator` for each of the
  core's components recompiled identical netlists over and over.  Here
  evaluators are cached by **structural hash** (gates, flip-flops, PIs,
  POs — names excluded), so structurally identical netlists share one
  compiled function no matter how many simulator instances exist.

* **Fanout-cone cache.**  Fault simulation re-evaluates only a fault's
  fanout cone on top of the good values, and every excited fault walks
  its site's cone once per block.  Each site's cone — gates in
  evaluation order plus the primary outputs it reaches — is memoised by
  structural hash and net id, so both stuck-at polarities, every
  simulator instance and every pool worker forked after a warm-up share
  one derivation per site.

* **Good-machine trace cache.**  Fault simulation evaluates the
  fault-free machine once per pattern block and then re-evaluates only
  per-fault cones on top.  Repeated grading passes (metrics sweeps,
  re-prepared campaigns, pool workers re-deriving a trace) used to
  re-simulate the good machine from scratch; the trace cache keys the
  full good-value vector by ``(netlist hash, packed pattern block)`` and
  replays it.  The cache is a bounded LRU so paper-scale sweeps cannot
  grow it without limit.

The caches are guarded by locks (the serial runner's timeout threads
may race the main thread) and are inherited copy-on-write by forked pool
workers — warm a cache before the fork and every worker shares it.

Hit/miss counters are process-local; pool workers snapshot theirs with
:func:`counter_snapshot` after each unit, ship the delta through the
result stream, and the parent folds it back in with
:func:`merge_counts` — so :func:`cache_stats` in the parent reports
true campaign-wide aggregates under ``jobs > 1``.

Cached good-value vectors are returned by reference and must be treated
as **read-only** by callers (cone re-evaluation copies on write already).
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Callable, Dict, List, Mapping, Sequence, Tuple

from repro.logic.netlist import Gate, Netlist

#: Bound on the number of good-machine blocks kept (LRU eviction).
TRACE_CACHE_MAX = 256

_LOCK = threading.Lock()
_COMPILED: Dict[str, object] = {}
_COMPILED3: Dict[str, object] = {}
_CONES: Dict[str, Dict[int, Tuple[List[Gate], List[int]]]] = {}
_TRACE: "OrderedDict[Tuple, List[int]]" = OrderedDict()
_STATS = {
    "compile_hits": 0, "compile_misses": 0,
    "cone_hits": 0, "cone_misses": 0,
    "trace_hits": 0, "trace_misses": 0,
}

#: Cache kinds reported by :func:`cache_stats` and :func:`cache_delta`.
CACHE_KINDS = ("compile", "cone", "trace")


# ----------------------------------------------------------------------
# Structural hashing
# ----------------------------------------------------------------------
def netlist_hash(netlist: Netlist) -> str:
    """A structural content hash of ``netlist`` (hex digest).

    Covers everything evaluation depends on — net count, primary
    inputs/outputs, flip-flops and the gate graph — and nothing it does
    not (net *names* and bus metadata are excluded), so two
    independently built but structurally identical netlists hash equal
    and share cache entries.  The digest is memoised on the netlist and
    recomputed if the netlist has grown since.
    """
    shape = (netlist.n_nets, len(netlist.gates), len(netlist.dffs))
    cached = getattr(netlist, "_structural_hash", None)
    if cached is not None and cached[0] == shape:
        return cached[1]
    digest = hashlib.sha256()
    digest.update(repr(shape).encode())
    digest.update(repr(tuple(netlist.inputs)).encode())
    digest.update(repr(tuple(netlist.outputs)).encode())
    for dff in netlist.dffs:
        digest.update(f"D{dff.q}:{dff.d}:{dff.init};".encode())
    for gate in netlist.gates:
        digest.update(
            f"G{gate.kind.name}:{gate.output}:{gate.inputs};".encode()
        )
    value = digest.hexdigest()
    netlist._structural_hash = (shape, value)  # type: ignore[attr-defined]
    return value


# ----------------------------------------------------------------------
# Compiled evaluators
# ----------------------------------------------------------------------
def compiled_evaluator(netlist: Netlist):
    """The shared two-valued :class:`CompiledEvaluator` for ``netlist``.

    Structurally identical netlists receive the same instance; its
    ``.netlist`` attribute references whichever netlist compiled first.
    """
    from repro.logic.compiled import CompiledEvaluator
    return _compiled_for(netlist, _COMPILED, CompiledEvaluator)


def compiled_evaluator3(netlist: Netlist):
    """The shared three-valued :class:`CompiledEvaluator3` for ``netlist``."""
    from repro.logic.compiled import CompiledEvaluator3
    return _compiled_for(netlist, _COMPILED3, CompiledEvaluator3)


def _compiled_for(netlist: Netlist, table: Dict[str, object],
                  factory: Callable[[Netlist], object]):
    key = netlist_hash(netlist)
    with _LOCK:
        hit = table.get(key)
        if hit is not None:
            _STATS["compile_hits"] += 1
            return hit
        _STATS["compile_misses"] += 1
    built = factory(netlist)  # compile outside the lock
    with _LOCK:
        return table.setdefault(key, built)


def fanout_cone(netlist: Netlist, net: int) -> Tuple[List[Gate], List[int]]:
    """The fanout cone of fault site ``net``: its gates in evaluation
    order and the primary outputs it reaches (``net`` itself included
    when it is one), shared read-only.

    Keyed by structural hash, then net id: structurally identical
    netlists assign identical net ids to their gate graphs, so every
    simulator instance over the same structure — and both stuck-at
    polarities of the site — share one entry.
    """
    key = netlist_hash(netlist)
    with _LOCK:
        cones = _CONES.get(key)
        if cones is None:
            cones = _CONES[key] = {}
        hit = cones.get(net)
        if hit is not None:
            _STATS["cone_hits"] += 1
            return hit
        _STATS["cone_misses"] += 1
    gates = netlist.transitive_fanout_gates(net)
    touched = {net} | {gate.output for gate in gates}
    cone = (gates, [out for out in netlist.outputs if out in touched])
    with _LOCK:
        return cones.setdefault(net, cone)


# ----------------------------------------------------------------------
# Good-machine trace cache
# ----------------------------------------------------------------------
def block_key(bus_patterns: Mapping[str, Sequence[int]],
              n_patterns: int) -> Tuple:
    """An exact, hashable key for one packed pattern block."""
    return (n_patterns, tuple(sorted(
        (name, tuple(words)) for name, words in bus_patterns.items()
    )))


def cached_good_values(netlist: Netlist,
                       bus_patterns: Mapping[str, Sequence[int]],
                       n_patterns: int,
                       compute: Callable[[], List[int]]) -> List[int]:
    """The good-machine value vector for one pattern block, memoised.

    ``compute`` is invoked (outside the lock) only on a miss; its result
    is stored under ``(netlist hash, stimulated bus layout, block key)``
    and returned by reference on later hits — treat it as read-only.
    The bus layout is part of the key because the structural hash
    ignores names: two identical structures that bind the same bus name
    to different nets must not share traces.
    """
    layout = tuple(
        (name, tuple(netlist.buses[name])) for name in sorted(bus_patterns)
    )
    key = (netlist_hash(netlist), layout) \
        + block_key(bus_patterns, n_patterns)
    with _LOCK:
        hit = _TRACE.get(key)
        if hit is not None:
            _TRACE.move_to_end(key)
            _STATS["trace_hits"] += 1
            return hit
        _STATS["trace_misses"] += 1
    values = compute()
    with _LOCK:
        stored = _TRACE.setdefault(key, values)
        _TRACE.move_to_end(key)
        while len(_TRACE) > TRACE_CACHE_MAX:
            _TRACE.popitem(last=False)
    return stored


# ----------------------------------------------------------------------
# Pool aggregation
# ----------------------------------------------------------------------
def counter_snapshot() -> Dict[str, int]:
    """The raw per-kind hit/miss counters (no sizes, no derived rates).

    Pool workers snapshot before/after each unit and ship the
    difference to the parent; see :func:`merge_counts`.
    """
    with _LOCK:
        return dict(_STATS)


def merge_counts(delta: Mapping[str, int]) -> None:
    """Fold a worker's counter delta into this process's counters."""
    with _LOCK:
        for key in _STATS:
            _STATS[key] += delta.get(key, 0)


# ----------------------------------------------------------------------
# Introspection / test hooks
# ----------------------------------------------------------------------
def cache_stats() -> Dict[str, float]:
    """A snapshot of hit/miss counters, sizes and derived hit rates."""
    with _LOCK:
        stats = dict(_STATS)
        stats["compiled_evaluators"] = len(_COMPILED) + len(_COMPILED3)
        stats["cones"] = sum(len(c) for c in _CONES.values())
        stats["trace_blocks"] = len(_TRACE)
    for kind in CACHE_KINDS:
        total = stats[f"{kind}_hits"] + stats[f"{kind}_misses"]
        stats[f"{kind}_hit_rate"] = \
            stats[f"{kind}_hits"] / total if total else 0.0
    return stats


def cache_delta(before: Dict[str, float],
                after: Dict[str, float]) -> Dict[str, float]:
    """Per-run cache accounting from two :func:`cache_stats` snapshots.

    The module-level counters are cumulative across a session; the
    delta is what one measured run actually hit and missed.
    """
    delta: Dict[str, float] = {}
    for kind in CACHE_KINDS:
        hits = after[f"{kind}_hits"] - before[f"{kind}_hits"]
        misses = after[f"{kind}_misses"] - before[f"{kind}_misses"]
        total = hits + misses
        delta[f"{kind}_hits"] = hits
        delta[f"{kind}_misses"] = misses
        delta[f"{kind}_hit_rate"] = round(hits / total, 4) if total else 0.0
    return delta


def clear_caches() -> None:
    """Drop every cached entry and zero the counters (test isolation)."""
    with _LOCK:
        _COMPILED.clear()
        _COMPILED3.clear()
        _CONES.clear()
        _TRACE.clear()
        for key in _STATS:
            _STATS[key] = 0
