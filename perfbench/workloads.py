"""The three benchmark workloads.

Each workload is a closed loop: one client, one process, one thread, the
next operation sent only after the previous one returned.  A workload is
replayed in *rounds*: a round is a fixed list of operations generated from
the seed, and every round starts from the same program state, so every
round does identical work and yields identical counts.  Only the call into
the program is timed; oracle checks run outside the timed path.

* ``scoring_mix`` — a static uniform database read by many users'
  weighted scorings (per-scoring precomputation and the result cache);
* ``live_mix`` — a dynamic uniform database with writes beside reads,
  standing watches and reverse top-k (the write→read path);
* ``socket_cluster`` — a correlated snapshot served by two owner
  processes over TCP (round planning, frame encode/decode, owner serving).
"""

from __future__ import annotations

import multiprocessing
import os
import time
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from oracle import Oracle
from repro import (
    SUM,
    ColumnarDatabase,
    DynamicDatabase,
    QueryService,
    WeightedSumScoring,
)
from repro.bench.batch import QuerySpec
from repro.distributed.socket_transport import SocketCluster
from repro.distributed.transport import NetworkBackend
from repro.exec.drivers import DRIVERS
from repro.storage import write_snapshot

#: items and lists of every workload (the ROADMAP baseline scale)
N = 100_000
M = 4
ONES = [1.0] * M

_perf = time.perf_counter


@dataclass
class Record:
    """One operation: its kind, latency and outcome."""

    kind: str  #: "query" | "mutation" | "reverse"
    seconds: float
    failed: bool = False
    wrong: bool = False  #: the answer disagreed with the oracle


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


def _call(tracer, kind: str, call):
    """Run one operation; returns ``(value, seconds)``."""
    if tracer is None:
        started = _perf()
        value = call()
        return value, _perf() - started
    with tracer.op(kind):
        started = _perf()
        value = call()
        seconds = _perf() - started
    return value, seconds


def _rss_mb(pid: str = "self") -> float:
    """Resident set size now, from ``/proc/<pid>/statm``."""
    with open(f"/proc/{pid}/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def _peak_rss_mb(pid: str) -> float:
    """High-water resident set size, from ``/proc/<pid>/status``."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def _service_counts(service) -> dict[str, int]:
    """The service's lifetime counters (reverse ones once it has served one)."""
    c = service.counters
    counts = {
        "queries": c.queries,
        "cache_hit": c.cache_hits - c.revalidated - c.patched,
        "cache_revalidated": c.revalidated,
        "cache_patched": c.patched,
        "cache_miss": c.executions,
        "snapshot_patches": c.snapshot_patches,
        "snapshot_refreshes": c.snapshot_refreshes,
        "watch_unchanged": c.watch_unchanged,
        "watch_patched": c.watch_patched,
        "watch_recomputed": c.watch_recomputed,
        "watch_deltas": c.watch_deltas,
    }
    engine = service.reverse_engine
    if engine is not None:
        r = engine.counters
        counts.update(
            reverse_queries=r.queries,
            reverse_bound_decided=r.bound_in + r.bound_out,
            reverse_boundary_hits=r.boundary_hits,
            reverse_fallbacks=r.fallbacks,
            reverse_maintain_unchanged=r.maintenance_unchanged,
            reverse_maintain_patched=r.maintenance_patched,
            reverse_maintain_dropped=r.maintenance_dropped,
        )
    return counts


def _counts_since(service, before: dict[str, int], tally: list[int]) -> dict[str, int]:
    """Counter growth over a round, plus the round's access tallies."""
    after = _service_counts(service)
    counts = {key: value - before.get(key, 0) for key, value in after.items()}
    counts.update(
        accesses_sorted=tally[0], accesses_random=tally[1], accesses_direct=tally[2]
    )
    return counts


def _weights(rng, low: float, high: float) -> list[float]:
    return rng.uniform(low, high, M).tolist()


class ScoringMix:
    """Read-only weighted top-k over a static uniform database.

    A round is 80 queries: 20 by users seen for the first time, with k in
    1..16 (the slow mode: full-table totals, planner statistics and a query
    context are built per scoring); 40 ``auto`` queries by a user already
    seen, two per user, with k in 17..32 and in 33..50 (cache misses over
    warm per-scoring state); and 20 exact repeats of an earlier query
    (cache hits).  The fixed shares keep the median inside the middle mode
    and the 90th percentile inside the slow one on every seed.  Users come
    from a population of one million with Zipf skew, which also weights who
    repeats when; a fresh service is built for every round.
    """

    name = "scoring_mix"
    POPULATION = 1_000_000
    FIRST, REPEAT, HIT = 20, 40, 20

    def __init__(self, seed: int, workdir: str) -> None:
        self.rows = np.random.default_rng([seed, 1]).random((M, N))
        self.oracle = Oracle(self.rows)
        self.ops = self._make_round(np.random.default_rng([seed, 2]), seed)
        self.service = None
        self.counts: dict[str, float] = {}
        self.retained_mb_per_scoring = 0.0

    def _make_round(self, rng, seed: int) -> list[tuple]:
        users: list[int] = []
        while len(users) < self.FIRST:
            rank = int(rng.zipf(1.2))
            if rank <= self.POPULATION and rank not in users:
                users.append(rank)
        self.scorings = {
            user: WeightedSumScoring(
                _weights(np.random.default_rng([seed, 3, user]), 0.5, 1.0)
            )
            for user in users
        }
        # The explicit algorithms ride on first-seen queries, so every
        # kernel runs while the middle (repeat) mode stays one plan shape.
        first_algs = [
            str(a) for a in rng.permutation(["auto", "ta", "bpa", "bpa2"] * (self.FIRST // 4))
        ]
        rest = ["F"] * (self.FIRST - 1) + ["R"] * self.REPEAT + ["H"] * self.HIT
        order = ["F"] + [str(kind) for kind in rng.permutation(rest)]
        pending = list(users)
        # k groups never shared with a user's first query under the
        # service's power-of-two overfetch, so each repeat misses the cache
        groups: dict[int, list[range]] = {}
        ops: list[tuple] = []
        owed = 0  # repeats deferred until a seen user has a group left

        def pick(candidates: list[int]) -> int:
            popularity = np.array([1.0 / user**1.2 for user in candidates])
            return candidates[int(rng.choice(len(candidates), p=popularity / popularity.sum()))]

        for kind in order:
            if kind == "F":
                user = pending.pop(0)
                groups[user] = [range(17, 33), range(33, 51)]
                ops.append((user, first_algs.pop(), int(rng.integers(1, 17))))
            elif kind == "R":
                owed += 1
            else:
                user = pick(list(groups))
                ops.append(ops[int(rng.choice([i for i, op in enumerate(ops) if op[0] == user]))])
            while owed and any(groups.values()):
                user = pick([u for u, left in groups.items() if left])
                ks = groups[user].pop(int(rng.integers(len(groups[user]))))
                ops.append((user, "auto", int(rng.choice(ks))))
                owed -= 1
        return ops

    def setups_before(self, round_index: int) -> int:
        return 1

    def setup(self, tracer) -> float:
        started = _perf()
        with _span(tracer, "service.build"):
            database = ColumnarDatabase.from_score_rows(self.rows)
            self.service = QueryService(database)
            # Warm-up: the shared layout and the SUM path, no user scoring.
            self.service.submit(QuerySpec(algorithm="auto", k=10, scoring=SUM))
        return _perf() - started

    def round(self, tracer) -> list[Record]:
        service = self.service
        records = []
        tally = [0, 0, 0]
        before = _service_counts(service)
        rss_before = _rss_mb()
        for user, algorithm, k in self.ops:
            scoring = self.scorings[user]
            spec = QuerySpec(algorithm=algorithm, k=k, scoring=scoring)
            try:
                served, seconds = _call(tracer, "query", lambda: service.submit(spec))
            except Exception:  # noqa: BLE001 - an operation that raises counts as failed
                records.append(Record("query", 0.0, failed=True))
                continue
            wrong = self.oracle.topk_problem(scoring.weights, k, served.items)
            records.append(Record("query", seconds, failed=bool(wrong), wrong=bool(wrong)))
            t = served.stats.tally
            tally[0] += t.sorted
            tally[1] += t.random
            tally[2] += t.direct
        self.retained_mb_per_scoring = (_rss_mb() - rss_before) / self.FIRST
        self.counts = _counts_since(service, before, tally)
        return records

    def end_round(self) -> None:
        self.service.close()
        self.service = None

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb("self")

    def close(self) -> None:
        if self.service is not None:
            self.end_round()


class LiveMix:
    """Writes beside reads on a dynamic uniform database.

    Setup builds the ``DynamicDatabase`` and a service over it, registers
    four standing ``watch`` queries (SUM at k = 10, 20, 30 and 50) and ten
    reverse top-k users, and warms every user's k = 10 boundary.  A round
    is the 16 steps of ``STEPS``; each step is one mutation followed by one
    forward query, and four steps add a ``submit_reverse(item, k=10)`` for
    the item the step mutated.

    * Four demotes (the SUM top-1 loses one list score) make every SUM
      watch recompute: the slow quarter of mutations, so the mutation
      median sits among the harmless ones and the 90th percentile among
      the demotes.  They also drop the users' cached reverse boundaries,
      so the reverse right after them falls back for every user (one
      reverse in four).
    * One promote lifts an outsider into the SUM top-50 (watches patch).
    * The eleven uniform mutations (updates, inserts, removes) are harmless.

    After a demote the query is a SUM query whose ``k`` shares a cache
    entry with the recomputed watches (a hit).  Every other query uses one
    of three weight vectors in turn with ``k`` in 9..16: the first use of
    each vector misses (the slowest queries: statistics, context and
    execution), later uses revalidate (snapshot patch and statistics).
    Before another round the database is restored by undoing the round's
    mutations and the service is rebuilt.
    """

    name = "live_mix"
    WATCH_KS = (10, 20, 30, 50)
    USERS = 10
    REVERSE_K = 10
    #: (mutation, whether a reverse query follows the step's query)
    STEPS = (
        ("demote", False),
        ("demote", False),
        ("demote", False),
        ("demote", False),
        ("promote", True),
        ("update", False),
        ("insert", False),
        ("update", True),
        ("remove", False),
        ("update", False),
        ("update", True),
        ("insert", False),
        ("update", False),
        ("update", True),
        ("remove", False),
        ("update", False),
    )

    def __init__(self, seed: int, workdir: str) -> None:
        self.seed = seed
        self.rows = np.random.default_rng([seed, 1]).random((M, N))
        # The scorings are part of the workload's definition, not of its
        # inputs: the same working set and registry on every seed.
        rng = np.random.default_rng(0)
        self.weighted = [WeightedSumScoring(_weights(rng, 0.5, 1.5)) for _ in range(3)]
        self.users = {
            f"user{u:02d}": _weights(rng, 0.5, 1.5) for u in range(self.USERS)
        }
        self.inserts = sum(kind == "insert" for kind, _ in self.STEPS)
        self.database = None
        self.service = None
        self.undo: list = []
        self.counts: dict[str, float] = {}

    # -- set-up ------------------------------------------------------------

    def setups_before(self, round_index: int) -> int:
        return 1

    def setup(self, tracer) -> float | None:
        started = _perf()
        first = self.database is None
        if first:
            with _span(tracer, "dynamic.build"):
                self.database = DynamicDatabase.from_score_rows(self.rows)
        else:
            # Restore the initial state: undo the last round's mutations
            # (the old service is closed, so nothing listens).
            for undo in reversed(self.undo):
                undo()
        self.undo = []
        self.oracle = Oracle(self.rows, spare=self.inserts)
        with _span(tracer, "service.build"):
            service = QueryService(self.database)
            service.submit(QuerySpec(algorithm="auto", k=10, scoring=SUM))
            self.watches = [
                service.watch(QuerySpec(algorithm="auto", k=k, scoring=SUM))
                for k in self.WATCH_KS
            ]
        with _span(tracer, "reverse.warmup"):
            registry = service.reverse_registry
            for user, weights in self.users.items():
                registry.add(user, weights)
            # Boundaries are cached for users a bound cannot decide; probe
            # items from the SUM top-60 until every user holds one.
            for _total, item in self.oracle.ranked(ONES, 60)[50:60]:
                service.submit_reverse(item, self.REVERSE_K)
                if service.reverse_engine.cached_boundaries == self.USERS:
                    break
        self.service = service
        # Only the first set-up builds the database; restores are left out
        # of setup_s so that it always measures the same work.
        return _perf() - started if first else None

    # -- operations --------------------------------------------------------

    def _uniform_item(self, rng) -> int:
        """A random live item outside the SUM top-100 (so the step is harmless)."""
        top = {item for _total, item in self.oracle.ranked(ONES, 100)}
        while True:
            item = int(rng.integers(N))
            if self.oracle.alive[item] and item not in top:
                return item

    def _mutation(self, rng, kind: str, new_id: int):
        """The step's mutation as ``(call, oracle_replay, undo, item)``."""
        oracle, database = self.oracle, self.database
        if kind == "insert":
            scores = rng.random(M).tolist()
            return (
                lambda: database.insert_item(new_id, scores),
                lambda: oracle.insert(new_id, scores),
                lambda: database.remove_item(new_id),
                new_id,
            )
        if kind == "remove":
            item = self._uniform_item(rng)
            scores = oracle.scores[:, item].tolist()
            return (
                lambda: database.remove_item(item),
                lambda: oracle.remove(item),
                lambda: database.insert_item(item, scores),
                item,
            )
        if kind == "demote":
            _total, item = oracle.ranked(ONES, 1)[0]
            j = int(rng.integers(M))
            new = float(rng.uniform(0.0, 0.1))
        elif kind == "promote":
            _total, item = oracle.ranked(ONES, 100)[60 + int(rng.integers(40))]
            j = int(np.argmin(oracle.scores[:, item]))
            new = float(rng.uniform(0.995, 1.0))
        else:
            item = self._uniform_item(rng)
            j = int(rng.integers(M))
            new = float(rng.random())
        old = float(oracle.scores[j, item])
        return (
            lambda: database.update_score(j, item, new),
            lambda: oracle.update(j, item, new),
            lambda: database.update_score(j, item, old),
            item,
        )

    def _watch_problem(self) -> str | None:
        for subscription in self.watches:
            problem = self.oracle.topk_problem(
                ONES, subscription.spec.k, subscription.entries
            )
            if problem:
                return f"watch k={subscription.spec.k}: {problem}"
        return None

    def round(self, tracer) -> list[Record]:
        rng = np.random.default_rng([self.seed, 5])
        service = self.service
        records: list[Record] = []
        tally = [0, 0, 0]
        new_id = N
        weighted_queries = 0
        before = _service_counts(service)
        for kind, reverse in self.STEPS:
            call, replay, undo, item = self._mutation(rng, kind, new_id)
            new_id += kind == "insert"
            try:
                _, seconds = _call(tracer, "mutation", call)
            except Exception:  # noqa: BLE001 - an operation that raises counts as failed
                records.append(Record("mutation", 0.0, failed=True))
            else:
                replay()
                self.undo.append(undo)
                wrong = self._watch_problem()
                records.append(
                    Record("mutation", seconds, failed=bool(wrong), wrong=bool(wrong))
                )

            if kind == "demote":
                scoring, weights = SUM, ONES
                k = int(rng.integers(17, 33))
            else:
                scoring = self.weighted[weighted_queries % len(self.weighted)]
                weights = scoring.weights
                weighted_queries += 1
                k = int(rng.integers(9, 17))
            spec = QuerySpec(algorithm="auto", k=k, scoring=scoring)
            try:
                served, seconds = _call(tracer, "query", lambda: service.submit(spec))
            except Exception:  # noqa: BLE001
                records.append(Record("query", 0.0, failed=True))
            else:
                wrong = self.oracle.topk_problem(weights, k, served.items)
                records.append(
                    Record("query", seconds, failed=bool(wrong), wrong=bool(wrong))
                )
                t = served.stats.tally
                tally[0] += t.sorted
                tally[1] += t.random
                tally[2] += t.direct

            if reverse:
                records.append(self._reverse(tracer, item))
        self.counts = _counts_since(service, before, tally)
        self.counts["reverse_users"] = self.counts["reverse_queries"] * self.USERS
        return records

    def _reverse(self, tracer, item: int) -> Record:
        service = self.service
        try:
            answer, seconds = _call(
                tracer, "reverse", lambda: service.submit_reverse(item, self.REVERSE_K)
            )
        except Exception:  # noqa: BLE001
            return Record("reverse", 0.0, failed=True)
        expected = tuple(
            sorted(
                user
                for user, weights in self.users.items()
                if self.oracle.is_in_topk(weights, item, self.REVERSE_K)
            )
        )
        wrong = tuple(answer.users) != expected
        return Record("reverse", seconds, failed=wrong, wrong=wrong)

    def end_round(self) -> None:
        # Close first: the undo mutations must reach no subscriber.
        self.service.close()
        self.service = None

    def peak_rss_mb(self) -> float:
        return _peak_rss_mb("self")

    def close(self) -> None:
        if self.service is not None:
            self.end_round()


class SocketClusterMix:
    """Pipelined block drivers against two owner processes over TCP.

    The database mixes one shared uniform component with one per list, so
    list scores are positively correlated.  Set-up (made three times, the
    median reported) builds the columnar database, writes it as a
    ``.bpsn`` snapshot, warm-starts ``SocketCluster.from_snapshot(owners=2)``
    and runs one warm-up query.  A round is 800 queries: every k in 1..50
    eight times with ``ta-block`` and eight times with ``bpa2-block``
    (alternating, width 64), each with SUM, the owners reset before each
    query as ``hammer_cluster`` does.  Owners are stateless across
    queries, so the cluster is kept across rounds.  The client and the
    owners run on one CPU.
    """

    name = "socket_cluster"
    SETUPS = 3
    OWNERS = 2
    #: queries per k and algorithm in a round (~25 s of queries)
    REPEATS = 8
    #: positions per block round: wide enough that a query is a few dozen
    #: frames, so frame work outweighs cross-process wake-up latency, whose
    #: run-to-run swing on a shared host is the largest noise source here
    WIDTH = 64

    def __init__(self, seed: int, workdir: str) -> None:
        # The client and the owners it spawns (which inherit the mask) share
        # one CPU: a query is a chain of request/reply hand-offs, and on a
        # shared host cross-CPU wake-ups swing run to run far more than the
        # work itself (interleaved 100-query batches spread 0.08 pinned
        # against 0.22-0.26 unpinned or with owners on the other CPU).
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        rng = np.random.default_rng([seed, 1])
        shared = rng.random(N)
        self.rows = 0.8 * shared + 0.2 * rng.random((M, N))
        self.oracle = Oracle(self.rows)
        ks = np.random.default_rng([seed, 2]).permutation(
            np.tile(np.arange(1, 51), self.REPEATS)
        )
        self.ops = [(name, int(k)) for k in ks for name in ("ta-block", "bpa2-block")]
        self.path = os.path.join(workdir, f"socket-{seed}.bpsn")
        self.cluster = None
        self.fabric = None
        self.counts: dict[str, float] = {}
        self.owner_peak = 0.0
        self.owner_serve_seconds = 0.0

    def _open(self, tracer) -> None:
        with _span(tracer, "storage.snapshot_write"):
            write_snapshot(ColumnarDatabase.from_score_rows(self.rows), self.path, epoch=0)
        with _span(tracer, "storage.cluster_start"):
            self.cluster = SocketCluster.from_snapshot(self.path, owners=self.OWNERS)
            self.fabric = self.cluster.connect()
        self._reset()
        self._drive("ta-block", 10)

    def _note_owner_peak(self) -> None:
        owners = sum(
            _peak_rss_mb(str(child.pid)) for child in multiprocessing.active_children()
        )
        self.owner_peak = max(self.owner_peak, owners)

    def _shut(self) -> None:
        self._note_owner_peak()
        if self.fabric is not None:
            self.fabric.close()
            self.fabric = None
        if self.cluster is not None:
            self.cluster.close()
            self.cluster = None

    def setups_before(self, round_index: int) -> int:
        return self.SETUPS if round_index == 0 else 0

    def setup(self, tracer) -> float:
        self._shut()
        started = _perf()
        self._open(tracer)
        return _perf() - started

    def _reset(self) -> None:
        for owner in range(self.cluster.placement.owners):
            self.fabric.request(f"owner/{owner}", "reset")
        self.fabric.reset_stats()

    def _drive(self, name: str, k: int):
        backend = NetworkBackend.remote(
            self.fabric,
            m=M,
            n=N,
            protocol="pipelined",
            placement=self.cluster.placement,
        )
        return backend, DRIVERS[name](backend, k, SUM, width=self.WIDTH)

    def _owner_metrics(self) -> tuple[float, int]:
        seconds, ops = 0.0, 0
        for owner in range(self.cluster.placement.owners):
            metrics = self.fabric.request(f"owner/{owner}", "state", {"metrics": True})
            for entry in metrics["per_list"].values():
                seconds += entry["seconds"]
                ops += entry["ops"]
        return seconds, ops

    def round(self, tracer) -> list[Record]:
        records = []
        totals = dict.fromkeys(
            ("messages", "bytes", "rounds", "accesses_sorted", "accesses_random", "accesses_direct"),
            0,
        )
        serve_before, ops_before = self._owner_metrics()
        for name, k in self.ops:
            self._reset()
            try:
                (backend, outcome), seconds = _call(
                    tracer, "query", lambda: self._drive(name, k)
                )
            except Exception:  # noqa: BLE001
                records.append(Record("query", 0.0, failed=True))
                continue
            stats = self.fabric.stats
            totals["messages"] += stats.messages
            totals["bytes"] += stats.bytes
            totals["rounds"] += outcome.rounds
            tally = backend.total_tally()
            totals["accesses_sorted"] += tally.sorted
            totals["accesses_random"] += tally.random
            totals["accesses_direct"] += tally.direct
            wrong = self.oracle.topk_problem(ONES, k, outcome.items)
            records.append(Record("query", seconds, failed=bool(wrong), wrong=bool(wrong)))
        serve_after, ops_after = self._owner_metrics()
        self.owner_serve_seconds += serve_after - serve_before
        totals["owner_ops"] = ops_after - ops_before
        totals["queries"] = len(self.ops)
        self.counts = totals
        return records

    def end_round(self) -> None:
        pass

    def peak_rss_mb(self) -> float:
        self._note_owner_peak()
        return _peak_rss_mb("self") + self.owner_peak

    def close(self) -> None:
        self._shut()
        if os.path.exists(self.path):
            os.remove(self.path)


WORKLOADS = {
    workload.name: workload for workload in (ScoringMix, LiveMix, SocketClusterMix)
}
