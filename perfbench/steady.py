"""Steadiness command: how much each end-to-end metric moves between runs.

    python3 perfbench/steady.py --runs 10 [--workloads starjoin_grid ...] [--seconds 15]

Runs every chosen workload ``--runs`` times in each of two sets, A and B,
interleaved (A1 B1 A2 B2 ...) with a different ``--seed`` per run, and
prints for every metric: each set's median and quartiles, the spread
(quartile distance over median, as ``statistics.quantiles(n=4)`` gives the
quartiles), and the gap between the two medians, next to the metric's
bound from ``BENCHMARK.json``.  A spread or a gap above a third of its
bound is flagged.  For the batch workloads it also compares the per-pass
reduction rules (per-cell floor, median pass, fastest pass), which is how
``run.PASS_RULE`` was chosen; for every workload it prints the spread of
the uncorrected throughput and, on the grids, of the host-speed factor.
``--trace`` adds one traced run per workload and reports the tracing
overhead on ``ops_per_s``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH_DIR, ROOT

RUN_TIMEOUT_S = 900
#: Two interleaved sets of the same code: their medians' gap is what a
#: comparison of two commits would see from the host alone.
SETS = 2


def run_once(workload: str, seed: int, seconds: int, trace: int = 0) -> tuple[dict, dict]:
    completed = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=str(ROOT), capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
    )
    if completed.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} failed:\n{completed.stderr[-2000:]}")
    lines = completed.stdout.strip().splitlines()
    result, detail = json.loads(lines[-1]), json.loads(lines[-2])["detail"]
    if not result["correct"] or result["failed"]:
        raise SystemExit(f"{workload} seed {seed}: correct={result['correct']} failed={result['failed']}")
    return result, detail


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return statistics.median(values), q1, q3, (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10, help="runs per set (two sets)")
    parser.add_argument("--workloads", nargs="*", default=None)
    parser.add_argument("--seconds", type=int, default=None, help="default: run_seconds")
    parser.add_argument("--trace", action="store_true", help="add a traced run per workload")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    values = {(w, s): {} for w in workloads for s in range(SETS)}
    rules = {w: {} for w in workloads}
    failed_share = {w: set() for w in workloads}
    steal = []
    seed = 0
    for _ in range(args.runs):
        for current in range(SETS):
            for workload in workloads:
                seed += 1
                result, detail = run_once(workload, seed, seconds)
                for name, entry in result["metrics"].items():
                    values[(workload, current)].setdefault(name, []).append(entry["value"])
                for rule, rate in detail.get("ops_per_s_by_rule", {}).items():
                    rules[workload].setdefault(f"ops_per_s by {rule} pass", []).append(rate)
                rules[workload].setdefault("ops_per_s uncorrected", []).append(detail["raw_ops_per_s"])
                if "host_factor" in detail:
                    rules[workload].setdefault("host factor", []).append(detail["host_factor"])
                failed_share[workload].add(result["failed"] / result["attempted"])
                steal.append(detail["host"]["steal_share"] or 0.0)
                print(f"  {workload} seed {seed}: " + ", ".join(
                    f"{n}={e['value']:.4g}" for n, e in result["metrics"].items()), flush=True)

    print(f"\n{args.runs} runs x {SETS} sets, {seconds} s each; "
          f"CPU steal per run: max {max(steal):.2%}, median {statistics.median(steal):.2%}")
    for workload in workloads:
        print(f"\n{workload}  (failed share per run: {sorted(failed_share[workload])})")
        for name in values[(workload, 0)]:
            bound = bounds.get(name)
            row = []
            medians = []
            for current in range(SETS):
                mid, q1, q3, rel = spread(values[(workload, current)][name])
                medians.append(mid)
                flag = " !" if bound is not None and rel > bound / 3 else ""
                row.append(f"set {'AB'[current]}: median {mid:.4g} [{q1:.4g}, {q3:.4g}] spread {rel:.1%}{flag}")
            gap = abs(medians[1] / medians[0] - 1)
            flag = " !" if bound is not None and gap > bound / 3 else ""
            print(f"  {name:16s} bound {bound}: " + " | ".join(row) + f" | A/B gap {gap:.1%}{flag}")
        for label, rates in rules[workload].items():
            mid, q1, q3, rel = spread(rates)
            print(f"  {label}: median {mid:.4g} spread {rel:.1%}")
    if args.trace:
        print("\ntracing overhead (one traced run against the untraced median):")
        for workload in workloads:
            result, detail = run_once(workload, seed + 1, seconds, trace=1)
            traced = result["metrics"]["traced_ops_per_s"]["value"]
            untraced = statistics.median(values[(workload, 0)]["ops_per_s"])
            share = result["metrics"]["wrapped_share"]["value"]
            print(f"  {workload}: traced {traced:.4g}/s vs untraced {untraced:.4g}/s "
                  f"-> overhead {1 - traced / untraced:.1%}; wrapped share {share:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
