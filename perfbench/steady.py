"""Steadiness and determinism check for the benchmark.

Usage, from the root of a checkout::

    python3 perfbench/steady.py [--workloads a,b] [--seeds 1-10] [--seconds S] [--out f.json]

For every workload it runs ``run.py`` once per seed, back to back, and
prints each end-to-end metric's median, quartiles and spread (the distance
between the quartiles as a share of the median, as
``statistics.quantiles(values, n=4)`` gives them) against the bound in
``BENCHMARK.json``, with the bound the measured spread suggests (three
times the worst spread, at most 0.25).  It then runs the first seed twice
traced: every count-type per-layer metric must repeat exactly, and the
traced run's own end-to-end figures give the tracing overhead.  It starts
by printing the machine's noise floor: the spread of a fixed pure-Python
loop repeated back to back.  Exits 1 when a spread exceeds its bound or a
count differs.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: per-layer units whose values are counts the program makes
COUNT_UNITS = {"1/op", "B", "count", "share"}


def _seeds(text: str) -> list[int]:
    if "-" in text:
        low, high = (int(part) for part in text.split("-"))
        return list(range(low, high + 1))
    return [int(part) for part in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    completed = subprocess.run(
        [
            sys.executable,
            os.path.join(ROOT, "perfbench", "run.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=False,
    )
    if completed.returncode != 0:
        raise RuntimeError(
            f"{workload} seed {seed} trace {trace} exited {completed.returncode}: "
            f"{completed.stderr.strip()[-2000:]}"
        )
    return json.loads(completed.stdout.strip().splitlines()[-1])


def noise_floor(repeats: int = 20) -> float:
    """Spread of a fixed pure-Python loop repeated back to back."""
    seconds = []
    for _ in range(repeats):
        started = time.perf_counter()
        total = 0.0
        for i in range(2_000_000):
            total += i * 0.5
        seconds.append(time.perf_counter() - started)
    return spread(seconds)[3]


def spread(values: list[float]) -> tuple[float, float, float, float]:
    """``(median, q1, q3, (q3 - q1) / median)``."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", help="write every run's figures here (JSON)")
    args = parser.parse_args(argv)
    seeds = _seeds(args.seeds)
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    floor = noise_floor()
    print(f"noise floor: a fixed loop repeated 20 times spreads {floor:.3f}")
    report: dict = {
        "seconds": args.seconds,
        "seeds": seeds,
        "noise_floor": floor,
        "workloads": {},
    }
    healthy = True
    worst: dict[str, float] = {}
    for workload in args.workloads.split(","):
        runs = [run_once(workload, seed, args.seconds, 0) for seed in seeds]
        shares = {run["failed"] / run["attempted"] for run in runs}
        print(f"\n== {workload}: {len(runs)} runs, attempted {[r['attempted'] for r in runs]}, "
              f"failed share {sorted(shares)}, correct {all(r['correct'] for r in runs)}")
        print(f"{'metric':<14} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
        rows = {}
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            median, q1, q3, width = spread(values)
            rows[name] = {"values": values, "median": median, "q1": q1, "q3": q3, "spread": width}
            flag = ""
            if name != "setup_s":
                worst[name] = max(worst.get(name, 0.0), width)
                if width >= bound:
                    flag, healthy = "  OVER BOUND", False
                elif width >= bound / 3:
                    flag = "  above a third of the bound"
            print(f"{name:<14} {median:12.4f} {q1:12.4f} {q3:12.4f} {width:8.4f} {bound:6.3f}{flag}")
        if len(shares) != 1 or not all(run["correct"] for run in runs):
            healthy = False

        traced = [run_once(workload, seeds[0], args.seconds, 1) for _ in range(2)]
        differing = [
            name
            for name, metric in traced[0]["metrics"].items()
            if metric["unit"] in COUNT_UNITS
            and metric["value"] != traced[1]["metrics"][name]["value"]
        ]
        print(f"count-type metrics repeat across two traced runs of seed {seeds[0]}: "
              f"{'yes' if not differing else 'NO: ' + ', '.join(differing)}")
        healthy = healthy and not differing
        with open(os.path.join(ROOT, ".perfbench", f"trace-{workload}-{seeds[0]}.json"),
                  encoding="utf-8") as handle:
            traced_e2e = json.load(handle)["traced_end_to_end"]
        untraced_rate = runs[0]["metrics"]["ops_per_s"]["value"]
        traced_rate = traced_e2e["ops_per_s"]["value"]
        overhead = untraced_rate / traced_rate - 1 if traced_rate else float("inf")
        print(f"tracing overhead (seed {seeds[0]}): ops_per_s {untraced_rate:.4f} untraced, "
              f"{traced_rate:.4f} traced -> {100 * overhead:+.1f}%")
        report["workloads"][workload] = {
            "end_to_end": rows,
            "failed_shares": sorted(shares),
            "per_layer": traced[0]["metrics"],
            "tracing_overhead": overhead,
        }
    print("\nsuggested bounds (3 x worst spread, at most 0.25; setup_s keeps 0.25):")
    for name, width in worst.items():
        print(f"  {name:<14} {min(0.25, 3 * width):.3f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=1)
    return 0 if healthy else 1


if __name__ == "__main__":
    sys.exit(main())
