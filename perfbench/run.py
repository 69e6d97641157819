"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload scoring_mix --seed 1 --seconds 20 --trace 0

The program is imported from ``src/`` of the checkout the script lives in.
The run repeats whole rounds of the workload until the operations it timed
add up to ``--seconds``, checks every answer against the benchmark's own
oracle, and prints ``{"correct", "attempted", "failed", "metrics"}`` as the
last line: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``.  A traced run also writes its spans and its own
end-to-end figures (for the tracing overhead) under ``.perfbench/``.

Every round of a run does identical work, so the program's counters must
repeat exactly from round to round; a run whose counters drift fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
import time
from contextlib import nullcontext

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKDIR = os.path.join(ROOT, ".perfbench")
#: no new round starts once a run has taken this long (wall seconds)
WALL_CAP = 150.0


def _import_program() -> bool:
    source = os.path.join(ROOT, "src")
    sys.path.insert(0, source)
    try:
        import repro
    except ImportError as exc:
        print(f"perfbench: cannot import the program from {source}: {exc}", file=sys.stderr)
        return False
    if not os.path.abspath(repro.__file__).startswith(source + os.sep):
        print(f"perfbench: imported repro from {repro.__file__}, not {source}", file=sys.stderr)
        return False
    return True


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    import layers
    from spans import Tracer
    from workloads import WORKLOADS

    os.makedirs(WORKDIR, exist_ok=True)
    started = time.perf_counter()
    workload = WORKLOADS[workload_name](seed, WORKDIR)
    tracer = Tracer() if trace else None
    records, setups, rounds = [], [], []
    measured = 0.0
    try:
        if tracer is not None:
            layers.install(tracer)
        while not rounds or (
            measured < seconds and time.perf_counter() - started < WALL_CAP
        ):
            for _ in range(workload.setups_before(len(rounds))):
                with tracer.op("setup") if tracer is not None else nullcontext():
                    took = workload.setup(tracer)
                if took is not None:
                    setups.append(took)
            done = workload.round(tracer)
            workload.end_round()
            rounds.append(dict(workload.counts))
            records.extend(done)
            measured += sum(record.seconds for record in done)
        peak_rss = workload.peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
        workload.close()

    for index, counts in enumerate(rounds[1:], start=1):
        if counts != rounds[0]:
            raise RuntimeError(
                f"round {index} counted {counts}, round 0 counted {rounds[0]}: "
                "the work varies, so its timings cannot be steady"
            )

    ok = [record for record in records if not record.failed]
    by_kind = {
        kind: [1000 * r.seconds for r in ok if r.kind == kind]
        for kind in ("query", "mutation", "reverse")
    }
    op_seconds = sum(record.seconds for record in ok)
    end_to_end = {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "ops_per_s": {"value": len(ok) / op_seconds if op_seconds else 0.0, "unit": "1/s"},
        "query_p50_ms": {"value": layers.percentile(by_kind["query"], 0.5), "unit": "ms"},
        "query_p90_ms": {"value": layers.percentile(by_kind["query"], 0.9), "unit": "ms"},
        "peak_rss_mb": {"value": peak_rss, "unit": "MB"},
    }
    result = {
        "correct": not any(record.wrong for record in records),
        "attempted": len(records),
        "failed": sum(record.failed for record in records),
    }
    if tracer is None:
        result["metrics"] = end_to_end
        return result

    totals: dict[str, float] = {}
    for counts in rounds:
        for key, value in counts.items():
            totals[key] = totals.get(key, 0) + value
    ops = {kind: len([r for r in records if r.kind == kind]) for kind in by_kind}
    ops["setup"] = tracer.ops["setup"]
    values = {
        "retained_mb_per_scoring": getattr(workload, "retained_mb_per_scoring", 0.0),
        "owner_serve_ms": 1000
        * getattr(workload, "owner_serve_seconds", 0.0)
        / max(1, ops["query"]),
        "mutation_p50_ms": layers.percentile(by_kind["mutation"], 0.5),
        "mutation_p90_ms": layers.percentile(by_kind["mutation"], 0.9),
        "reverse_p50_ms": layers.percentile(by_kind["reverse"], 0.5),
    }
    result["metrics"] = layers.per_layer(tracer, totals, ops, values)
    stem = os.path.join(WORKDIR, f"trace-{workload_name}-{seed}")
    tracer.write(stem + ".spans.jsonl")
    with open(stem + ".json", "w", encoding="utf-8") as handle:
        json.dump({"traced_end_to_end": end_to_end, "counts": totals}, handle, indent=1)
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not _import_program():
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except RuntimeError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
