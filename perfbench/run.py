"""Run one workload of the benchmark and print its result.

    python3 perfbench/run.py --workload starjoin_grid --seed 1 --seconds 15 --trace 0

Run from the root of a repository checkout.  ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` runs with every layer wrapped and prints
the per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it (``{"detail": ...}``) holds the raw per-pass figures and the host record.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import signal
import subprocess
import sys
import time
from time import perf_counter

from common import (
    BENCH_DIR,
    READY_TIMEOUT_S,
    BenchError,
    Children,
    HostRecord,
    emit_result,
    fresh_run_dir,
    host_factor,
    log,
    median,
    metric,
    percentile,
    read_line,
    remove_run_dir,
    require_source_tree,
)

WORKLOADS = ("starjoin_grid", "kstar_grid", "serve_mix")

#: Fresh worker processes per batch run.  Each one sets up from scratch (the
#: median of their launch-to-ready times is ``setup_s``) and times its share
#: of the passes; every metric is the median over the processes, so the
#: memory layout of any one process weighs little.
WORKER_PROCESSES = 4

#: Nominal seconds of one pass, fixed from measurements on the reference
#: host.  Each worker process makes ``round(seconds / nominal / WORKER_PROCESSES)``
#: passes, so the work of a run depends on ``--seconds`` only, never on the clock.
NOMINAL_PASS_S = {"starjoin_grid": 0.65, "kstar_grid": 0.6}

#: How the passes of one process become its figures: ``"median"`` takes
#: the median pass, and for latency and CPU time the median repetition of
#: each release and cell; ``"fastest"`` the fastest pass; ``"floor"`` sums,
#: per cell, the fastest of its identical repetitions.  Chosen with
#: ``steady.py`` (see README, "Reduction rule").
PASS_RULE = "median"

RUN_TIMEOUT_S = 150.0


def passes_for(workload: str, seconds: int) -> int:
    """Passes per worker process."""
    return max(2, round(seconds / NOMINAL_PASS_S[workload] / WORKER_PROCESSES))


def process_figures(result: dict) -> dict:
    """The figures of one worker process, at the host's reference speed: a
    pass's wall times count only the share of the host the hypervisor did
    not steal, and the process's calibrations give its speed factor.
    Throughput under every reduction rule; latency and CPU time from each
    release's and cell's median repetition."""
    ops = result["ops_per_pass"]
    kept = [1.0 - steal for steal in result["pass_steal"]]
    walls = [wall * share for wall, share in zip(result["pass_walls"], kept)]
    trials = [[t * share for t in times] for times, share in zip(result["trials"], kept)]
    cells = [[t * share for t in times] for times, share in zip(result["cell_walls"], kept)]
    factor = host_factor(result["calibrations"])
    release_ms = [1000.0 * median(column) / factor for column in zip(*trials)]
    return {
        "host_factor": factor,
        "raw_ops_per_s": ops / median(result["pass_walls"]),
        "ops_per_s": {
            "median": factor * ops / median(walls),
            "fastest": factor * ops / min(walls),
            "floor": factor * ops / sum(min(column) for column in zip(*cells)),
        },
        "request_p50_ms": percentile(release_ms, 50),
        "request_p99_ms": percentile(release_ms, 99),
        "cpu_ms_per_op": 1000.0 * sum(median(column) for column in zip(*result["cell_cpus"])) / ops / factor,
        "peak_rss_mb": result["peak_rss_mb"],
    }


# ----------------------------------------------------------------------
# batch workloads
# ----------------------------------------------------------------------
def run_grid(workload: str, seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    passes = passes_for(workload, seconds)
    run_dir = fresh_run_dir(workload)
    setups, results = [], []
    try:
        with Children() as children:
            for index in range(WORKER_PROCESSES):
                out_path = run_dir / f"result{index}.json"
                log_path = run_dir / f"worker{index}.log"
                argv = [
                    sys.executable, str(BENCH_DIR / "grid_worker.py"),
                    "--workload", workload, "--seed", str(seed), "--passes", str(passes),
                    "--check", str(int(index == WORKER_PROCESSES - 1)),
                    "--trace", str(int(trace)), "--out", str(out_path),
                ]
                began = perf_counter()
                proc = children.spawn(argv, log_path=log_path)
                read_line(proc, "ready", time.monotonic() + READY_TIMEOUT_S)
                setups.append(perf_counter() - began)
                try:
                    code = proc.wait(RUN_TIMEOUT_S)
                except subprocess.TimeoutExpired as error:
                    raise BenchError(f"worker {index} did not finish in time") from error
                if code != 0:
                    tail = log_path.read_text(errors="replace")[-2000:]
                    raise BenchError(f"worker {index} exited with {code}:\n{tail}")
                results.append(json.loads(out_path.read_text()))
    finally:
        remove_run_dir(run_dir)

    figures = [process_figures(result) for result in results]
    checked = results[-1]
    correct = checked["correct"]
    error = checked.get("error")
    if len({result["digest"] for result in results}) != 1:
        correct, error = False, "worker processes released different answers"
    ops = sum(result["ops_per_pass"] * len(result["pass_walls"]) for result in results)
    detail = {
        "processes": len(results),
        "passes_per_process": passes,
        "ops_per_pass": checked["ops_per_pass"],
        "pass_walls": [result["pass_walls"] for result in results],
        "calibrations": [result["calibrations"] for result in results],
        "pass_steal": [result["pass_steal"] for result in results],
        "host_factor": median([f["host_factor"] for f in figures]),
        "raw_ops_per_s": median([f["raw_ops_per_s"] for f in figures]),
        "ops_per_s_by_rule": {
            rule: median([f["ops_per_s"][rule] for f in figures]) for rule in ("median", "fastest", "floor")
        },
        "setups": setups,
        "checks": checked.get("checks"),
        "error": error,
    }
    summary = {"correct": correct, "attempted": ops, "failed": 0}
    if not trace:
        summary["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "ops_per_s": metric(detail["ops_per_s_by_rule"][PASS_RULE], "1/s"),
        }
        for name, unit in (("request_p50_ms", "ms"), ("request_p99_ms", "ms"),
                           ("cpu_ms_per_op", "ms"), ("peak_rss_mb", "MB")):
            summary["metrics"][name] = metric(median([f[name] for f in figures]), unit)
        return summary, detail

    import layers

    timed, setup_totals = [], []
    for result in results:
        setup = result["setup_spans"]["totals"]
        timed.append({"totals": {
            name: [calls - setup.get(name, [0, 0, 0])[0], wall - setup.get(name, [0, 0, 0])[1],
                   own - setup.get(name, [0, 0, 0])[2]]
            for name, (calls, wall, own) in result["spans"]["totals"].items()
        }})
        setup_totals.append(setup)
    values = layers.span_metrics(layers.merge_totals(*timed))
    walls = sum(sum(result["pass_walls"]) for result in results)
    covered = sum(result["spans"]["root_s"] - result["setup_spans"]["root_s"] for result in results)
    cache = {key: sum(result["cache"][key] for result in results) for key in results[0]["cache"]}
    lookups = cache["hits"] + cache["misses"]
    values.update({
        "import.repro_s": median([result["import_s"] for result in results]),
        "datagen.build_s": median([s.get("datagen.build", [0, 0.0])[1] for s in setup_totals]),
        "graph.generate_s": median([s.get("graph.generate", [0, 0.0])[1] for s in setup_totals]),
        "cache.gets": lookups,
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.puts": cache["puts"],
        "cache.evictions": cache["evictions"],
        "unattributed_ms": 1000.0 * (walls - covered),
        "wrapped_share": covered / walls,
        "traced_ops_per_s": detail["ops_per_s_by_rule"][PASS_RULE],
    })
    summary["metrics"] = layers.complete(values)
    return summary, detail


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one workload of the benchmark.")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    # A stopped run still stops its children: SIGTERM unwinds through the
    # ``Children`` context like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    try:
        require_source_tree()
        host = HostRecord()
        if args.workload == "serve_mix":
            import serve_mix

            summary, detail = serve_mix.run(args.seed, args.seconds, bool(args.trace))
        else:
            summary, detail = run_grid(args.workload, args.seed, args.seconds, bool(args.trace))
        detail["host"] = host.finish()
    except BenchError as error:
        log(f"benchmark error: {error}")
        return 2
    print(json.dumps({"detail": detail}), flush=True)
    emit_result(summary["correct"], summary["attempted"], summary["failed"], summary["metrics"])
    if not summary["correct"]:
        log(f"output check failed: {detail.get('error')}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
