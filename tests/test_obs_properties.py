"""Property tests for the observability layer (repro.obs).

Three laws the layer's correctness rests on:

* **Span trees always balance.**  Whatever nested mix of clean exits,
  ``Exception`` raises and :class:`~repro.runtime.chaos.ChaosKill`
  (a ``BaseException``) a workload produces, every entered span is
  recorded exactly once, the thread-local stack ends empty, and the
  recorded tree is referentially intact.

* **Metric merges are associative and commutative.**  Counter
  snapshots merge to the same aggregate regardless of grouping or
  order.

* **Sharded equals serial.**  Applying an op stream to one registry
  gives the same snapshot as splitting the stream across per-shard
  registries and merging — the invariant that makes pooled campaign
  metrics trustworthy.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.obs.schema import validate_span_record
from repro.obs.trace import Tracer
from repro.runtime.chaos import ChaosKill

# ----------------------------------------------------------------------
# Span balance under exceptions and ChaosKill
# ----------------------------------------------------------------------
#: A workload is a tree: leaves act ("ok" returns, "raise" throws an
#: Exception, "kill" throws a BaseException), inner nodes nest children.
WORKLOADS = st.recursive(
    st.sampled_from(["ok", "raise", "kill"]),
    lambda children: st.lists(children, max_size=3),
    max_leaves=12,
)


def _walk(tracer, node, entered):
    with tracer.span("node"):
        entered[0] += 1
        if node == "raise":
            raise ValueError("injected failure")
        if node == "kill":
            raise ChaosKill("injected kill")
        if isinstance(node, list):
            for child in node:
                _walk(tracer, child, entered)


@given(workload=WORKLOADS)
def test_span_trees_always_balance(workload):
    tracer = Tracer(seed=7)
    entered = [0]
    raised = False
    try:
        _walk(tracer, workload, entered)
    except (ValueError, ChaosKill):
        raised = True
    assert tracer.depth() == 0
    spans = [r for r in tracer.records if r["kind"] == "span"]
    assert len(spans) == entered[0]      # every entry produced one exit
    for record in spans:
        assert validate_span_record(record) == []
    ids = {record["id"] for record in spans}
    assert len(ids) == len(spans)        # sequence-keyed ids are unique
    for record in spans:                 # referential integrity
        assert record["parent"] == tracer.root_id \
            or record["parent"] in ids
    if raised:
        # The failing span (and everything it unwound through) is marked.
        assert any(record.get("attrs", {}).get("error")
                   in ("ValueError", "ChaosKill") for record in spans)
    else:
        assert not any("error" in record.get("attrs", {})
                       for record in spans)


# ----------------------------------------------------------------------
# Merge algebra
# ----------------------------------------------------------------------
OPS = st.lists(
    st.tuples(st.sampled_from("abc"),
              st.integers(min_value=1, max_value=100)),
    max_size=40,
)


def _apply(ops):
    registry = MetricsRegistry()
    for name, n in ops:
        registry.incr(name, n)
    return registry.snapshot()


def _merged(*snapshots):
    """Fold snapshots, left to right, into a fresh registry, as the
    pool folds each worker's payload into the parent's."""
    registry = MetricsRegistry()
    for snapshot in snapshots:
        registry.merge_snapshot(snapshot)
    return registry.snapshot()


@settings(max_examples=60)
@given(a=OPS, b=OPS, c=OPS)
def test_snapshot_merge_is_associative(a, b, c):
    sa, sb, sc = _apply(a), _apply(b), _apply(c)
    assert _merged(_merged(sa, sb), sc) \
        == _merged(sa, _merged(sb, sc))


@settings(max_examples=60)
@given(a=OPS, b=OPS)
def test_snapshot_merge_is_commutative(a, b):
    sa, sb = _apply(a), _apply(b)
    assert _merged(sa, sb) == _merged(sb, sa)


@settings(max_examples=60)
@given(ops=OPS, splits=st.lists(st.integers(min_value=0, max_value=40),
                                max_size=3))
def test_sharded_merge_equals_serial_totals(ops, splits):
    """However the op stream is sharded, merging the per-shard
    snapshots reproduces the serial registry exactly."""
    bounds = sorted({min(s, len(ops)) for s in splits})
    shards, start = [], 0
    for bound in bounds + [len(ops)]:
        shards.append(ops[start:bound])
        start = bound
    serial = _apply(ops)
    assert _merged(*[_apply(shard) for shard in shards]) == serial
