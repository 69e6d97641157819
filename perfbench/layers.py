"""Per-layer metrics: which entry points are timed and how spans and the
program's counters become the numbers of a traced run.

Each metric counts only spans under operations of one kind (``query``,
``mutation``, ``reverse`` or ``setup``) and is normalised per operation of
that kind.  ``*.ms`` metrics are self time, except the maintenance hooks
and set-up steps, which are inclusive: a watch that recomputes pays its
whole re-planned query inside ``on_mutation``, and a set-up step is timed
whole.  A layer a workload bypasses reads 0.
"""

from __future__ import annotations

import repro.distributed.socket_transport as socket_transport
import repro.exec.drivers as drivers
import repro.service.service as service_module
from repro.columnar.database import ColumnarDatabase, DatabaseLayout
from repro.columnar.engine import QueryContext
from repro.distributed.transport import NetworkBackend
from repro.dynamic import DynamicDatabase
from repro.reverse.engine import ReverseTopkEngine
from repro.reverse.index import RTopkIndex
from repro.service.cache import ResultCache
from repro.service.planner import ListStatistics, QueryPlanner
from repro.service.service import QueryService
from repro.service.sharding import ShardExecutor
from repro.watch.manager import SubscriptionManager

#: (owner, attribute, span name) of every timed entry point
ENTRY_POINTS = (
    (service_module, "patch_database", "columnar.patch"),
    (DatabaseLayout, "__init__", "columnar.layout"),
    (DatabaseLayout, "patched", "columnar.layout"),
    (ColumnarDatabase, "from_database", "columnar.rebuild"),
    (ColumnarDatabase, "overall_scores", "columnar.totals"),
    (ShardExecutor, "reload", "sharding.reload"),
    (ShardExecutor, "run", "sharding.run"),
    (QueryPlanner, "plan", "planner.plan"),
    (ListStatistics, "__init__", "planner.statistics"),
    (QueryContext, "__init__", "exec.context"),
    (ResultCache, "lookup", "cache.lookup"),
    (QueryService, "submit", "service.submit"),
    (DynamicDatabase, "update_score", "dynamic.mutate"),
    (DynamicDatabase, "insert_item", "dynamic.mutate"),
    (DynamicDatabase, "remove_item", "dynamic.mutate"),
    (SubscriptionManager, "on_mutation", "watch.maintain"),
    (ReverseTopkEngine, "on_mutation", "reverse.maintain"),
    (ReverseTopkEngine, "query", "reverse.query"),
    (RTopkIndex, "decide", "reverse.decide"),
    (drivers, "drive", "exec.drivers"),
    (NetworkBackend, "execute_plan", "distributed.execute_plan"),
    (socket_transport, "send_frame", "socket.send"),
    (socket_transport, "recv_frame", "socket.recv"),
)


def install(tracer) -> None:
    for owner, attr, name in ENTRY_POINTS:
        tracer.wrap(owner, attr, name)


# (metric, unit, how, argument, root kind)
#   self  — self milliseconds of the named spans per root operation
#   incl  — inclusive milliseconds of the named spans per root operation
#   calls — calls of the named span per root operation
#   count — a program counter (summed over rounds) per root operation
#   share — a program counter as a share of another (the service's
#           submits, which include watch recomputes and warm-up queries)
#   value — a figure the run computes directly
PER_LAYER = (
    ("columnar.patch.ms", "ms", "self", "columnar.patch", "query"),
    ("columnar.patch.calls", "1/op", "calls", "columnar.patch", "query"),
    ("columnar.layout.ms", "ms", "self", "columnar.layout", "query"),
    ("columnar.rebuild.ms", "ms", "self", "columnar.rebuild", "query"),
    ("columnar.rebuild.calls", "1/op", "calls", "columnar.rebuild", "query"),
    ("sharding.reload.ms", "ms", "self", "sharding.reload", "query"),
    ("planner.plan.ms", "ms", "self", "planner.plan", "query"),
    ("planner.statistics.ms", "ms", "self", "planner.statistics", "query"),
    ("planner.statistics.builds", "1/op", "calls", "planner.statistics", "query"),
    ("columnar.totals.ms", "ms", "self", "columnar.totals", "query"),
    ("columnar.totals.calls", "1/op", "calls", "columnar.totals", "query"),
    ("exec.context.ms", "ms", "self", "exec.context", "query"),
    ("exec.context.builds", "1/op", "calls", "exec.context", "query"),
    ("service.retained_mb_per_scoring", "MB", "value", "retained_mb_per_scoring", None),
    ("cache.lookup.ms", "ms", "self", "cache.lookup", "query"),
    ("cache.hit", "share", "share", "cache_hit", "queries"),
    ("cache.revalidated", "share", "share", "cache_revalidated", "queries"),
    ("cache.patched", "share", "share", "cache_patched", "queries"),
    ("cache.miss", "share", "share", "cache_miss", "queries"),
    ("cache.reuse_share", "share", "value", "cache_reuse_share", None),
    ("sharding.run.ms", "ms", "self", "sharding.run", "query"),
    ("exec.accesses.sorted", "1/op", "count", "accesses_sorted", "query"),
    ("exec.accesses.random", "1/op", "count", "accesses_random", "query"),
    ("exec.accesses.direct", "1/op", "count", "accesses_direct", "query"),
    ("service.submit.ms", "ms", "self", "service.submit", "query"),
    ("dynamic.mutate.ms", "ms", "self", "dynamic.mutate", "mutation"),
    ("watch.maintain.ms", "ms", "incl", "watch.maintain", "mutation"),
    ("watch.unchanged", "1/op", "count", "watch_unchanged", "mutation"),
    ("watch.patched", "1/op", "count", "watch_patched", "mutation"),
    ("watch.recomputed", "1/op", "count", "watch_recomputed", "mutation"),
    ("watch.deltas", "1/op", "count", "watch_deltas", "mutation"),
    ("reverse.maintain.ms", "ms", "incl", "reverse.maintain", "mutation"),
    ("reverse.maintain.unchanged", "1/op", "count", "reverse_maintain_unchanged", "mutation"),
    ("reverse.maintain.patched", "1/op", "count", "reverse_maintain_patched", "mutation"),
    ("reverse.maintain.dropped", "1/op", "count", "reverse_maintain_dropped", "mutation"),
    ("reverse.query.ms", "ms", "self", "reverse.query", "reverse"),
    ("reverse.decide.ms", "ms", "self", "reverse.decide", "reverse"),
    ("reverse.bound_decided_share", "share", "value", "reverse_bound_decided_share", None),
    ("reverse.boundary_hits", "1/op", "count", "reverse_boundary_hits", "reverse"),
    ("reverse.fallbacks", "1/op", "count", "reverse_fallbacks", "reverse"),
    ("reverse.fallback.ms", "ms", "value", "reverse_fallback_ms", None),
    ("exec.drivers.ms", "ms", "self", "exec.drivers", "query"),
    ("exec.drivers.rounds", "1/op", "count", "rounds", "query"),
    ("distributed.execute_plan.ms", "ms", "self", "distributed.execute_plan", "query"),
    ("socket.send.ms", "ms", "self", "socket.send", "query"),
    ("socket.recv.ms", "ms", "self", "socket.recv", "query"),
    ("owner.serve.ms", "ms", "value", "owner_serve_ms", None),
    ("owner.ops", "1/op", "count", "owner_ops", "query"),
    ("wire_bytes_per_query", "B", "count", "bytes", "query"),
    ("wire_messages_per_query", "count", "count", "messages", "query"),
    ("mutation_p50_ms", "ms", "value", "mutation_p50_ms", None),
    ("mutation_p90_ms", "ms", "value", "mutation_p90_ms", None),
    ("reverse_p50_ms", "ms", "value", "reverse_p50_ms", None),
    ("dynamic.build.ms", "ms", "incl", "dynamic.build", "setup"),
    ("service.build.ms", "ms", "incl", "service.build", "setup"),
    ("reverse.warmup.ms", "ms", "incl", "reverse.warmup", "setup"),
    ("storage.snapshot_write.ms", "ms", "incl", "storage.snapshot_write", "setup"),
    ("storage.cluster_start.ms", "ms", "incl", "storage.cluster_start", "setup"),
)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def per_layer(tracer, counts: dict, ops: dict, values: dict) -> dict:
    """Every per-layer metric of a traced run, ``{name: {value, unit}}``.

    ``counts`` are program counters summed over the traced rounds, ``ops``
    the operations per kind, ``values`` figures computed by the run.
    """
    self_time, inclusive, calls, under = tracer.summary()
    queries = counts.get("queries", 0)
    values = dict(values)
    values["cache_reuse_share"] = _share(
        counts.get("cache_hit", 0)
        + counts.get("cache_revalidated", 0)
        + counts.get("cache_patched", 0),
        queries,
    )
    values["reverse_bound_decided_share"] = _share(
        counts.get("reverse_bound_decided", 0), counts.get("reverse_users", 0)
    )
    # Fallback work is everything the engine's query calls except the
    # bound decision: the planned top-k it runs for undecided users.
    fallback = sum(
        seconds
        for (root, parent, child), seconds in under.items()
        if root == "reverse" and parent == "reverse.query" and child != "reverse.decide"
    )
    values["reverse_fallback_ms"] = 1000 * _share(fallback, ops.get("reverse", 0))
    metrics = {}
    for name, unit, how, argument, kind in PER_LAYER:
        if how in ("self", "incl", "calls"):
            table = {"self": self_time, "incl": inclusive, "calls": calls}[how]
            scale = 1 if how == "calls" else 1000
            value = scale * _share(table.get((kind, argument), 0), ops.get(kind, 0))
        elif how == "count":
            value = _share(counts.get(argument, 0), ops.get(kind, 0))
        elif how == "share":
            value = _share(counts.get(argument, 0), counts.get(kind, 0))
        else:
            value = values.get(argument, 0.0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def percentile(values: list[float], fraction: float) -> float:
    """Linear-interpolated percentile (0.0 for no samples)."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
