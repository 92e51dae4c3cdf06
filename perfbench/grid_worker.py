"""Worker process of the batch workloads ``starjoin_grid`` and ``kstar_grid``.

Launched by ``run.py`` as a fresh interpreter, several times per run.  It
imports ``repro``, builds the workload's instance and exact answers, prints
``ready`` (the end of set-up), runs ``--passes`` timed passes and, with
``--check 1``, checks the outputs; it writes its result as JSON to ``--out``.

Every pass does the same seeded work from an empty engine cache: a fresh
``LocalCacheBackend`` is installed through ``repro.db.cache.backend_scope``
before the pass and dropped after it.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import sys
import time
from contextlib import contextmanager
from time import perf_counter

from common import CheckFailed, calibration_s, cpu_times, steal_share, vm_hwm_mb
import checks

#: Trials per grid cell in one pass (each trial is one noisy release).
STARJOIN_TRIALS = 2
KSTAR_TRIALS = 2
#: Fact rows of the star-join instance (one SSB scale factor).
STARJOIN_ROWS = 1_000_000
#: Graph scale of the Table 2 datasets (fraction of Deezer / Amazon).
KSTAR_GRAPH_SCALE = 0.1
#: Generator seeds of the instances.  The instances are fixed benchmark
#: datasets, like the paper's; ``--seed`` drives every random choice of a
#: run (mechanism noise, truncation order, the served request stream).
SSB_INSTANCE_SEED = 1_000
DEEZER_INSTANCE_SEED = 2_000
AMAZON_INSTANCE_SEED = 3_000

PAPER_EPSILONS = (0.1, 0.2, 0.5, 0.8, 1.0)
KSTAR_EPSILONS = (0.1, 0.5, 1.0)
SSB_QUERIES = ("Qc1", "Qc2", "Qc3", "Qc4", "Qs2", "Qs3", "Qs4", "Qg2", "Qg4")
STAR_MECHANISMS = ("PM", "R2T", "LS", "TM")


def supported(mechanism: str, query: str) -> bool:
    """Table 1's supported pairs: LS answers COUNT only, R2T and TM no GROUP BY."""
    if mechanism == "LS":
        return query.startswith("Qc")
    if mechanism in ("R2T", "TM"):
        return not query.startswith("Qg")
    return True


def digest(values) -> str:
    def plain(value):
        groups = getattr(value, "groups", None)
        if groups is not None:
            return sorted((repr(key), repr(float(v))) for key, v in groups.items())
        if hasattr(value, "tolist"):
            return [repr(float(v)) for v in value.tolist()]
        return repr(float(value))

    return hashlib.sha256(json.dumps([plain(v) for v in values]).encode()).hexdigest()


# ----------------------------------------------------------------------
# starjoin_grid
# ----------------------------------------------------------------------
class StarJoinGrid:
    """Table 1 (PM, R2T, LS, TM × nine SSB queries × five ε) plus Figure 9
    (independent PM and WD on W1 / W2 × five ε)."""

    def __init__(self, seed: int):
        from repro.datagen.ssb import SSBConfig, SSBGenerator, ssb_schema
        from repro.core.workload import answer_workload_exact
        from repro.db.executor import QueryExecutor
        from repro.dp.neighboring import PrivacyScenario
        from repro.workloads.ssb_queries import ssb_query
        from repro.workloads.workload_matrices import workload_w1, workload_w2

        self.seed = seed
        self.database = SSBGenerator(
            SSBConfig(scale_factor=1.0, rows_per_scale_factor=STARJOIN_ROWS, seed=SSB_INSTANCE_SEED)
        ).build()
        self.scenario = PrivacyScenario.dimensions("Customer", "Supplier", "Part")
        self.queries = {name: ssb_query(name) for name in SSB_QUERIES}
        schema = ssb_schema()
        self.workloads = {"W1": workload_w1(schema), "W2": workload_w2(schema)}
        executor = QueryExecutor(self.database)
        self.exact = {name: executor.execute(query) for name, query in self.queries.items()}
        self.workload_exact = {
            name: answer_workload_exact(self.database, queries) for name, queries in self.workloads.items()
        }
        self.cells = [
            (mechanism, name, epsilon)
            for epsilon in PAPER_EPSILONS
            for mechanism in STAR_MECHANISMS
            for name in SSB_QUERIES
            if supported(mechanism, name)
        ] + [
            (mechanism, name, epsilon)
            for name in self.workloads
            for epsilon in PAPER_EPSILONS
            for mechanism in ("PM-W", "WD")
        ]

    @property
    def ops_per_pass(self) -> int:
        return len(self.cells) * STARJOIN_TRIALS

    def stream(self, mechanism, name, epsilon):
        from repro.evaluation.experiments.common import cell_stream

        return cell_stream(self.seed, "starjoin_grid", mechanism, name, epsilon)

    def run_pass(self, timer: "PassTimer") -> list:
        """One pass over every cell; returns the released answers in order."""
        from repro.core.workload import IndependentPMWorkload, WorkloadDecomposition
        from repro.evaluation.runner import evaluate_mechanism, make_star_mechanism
        from repro.rng import spawn

        released = []
        for mechanism, name, epsilon in self.cells:
            with timer.cell():
                stream = self.stream(mechanism, name, epsilon)
                if name in self.workloads:
                    builder = IndependentPMWorkload if mechanism == "PM-W" else WorkloadDecomposition
                    for trial_rng in spawn(stream, STARJOIN_TRIALS):
                        began = perf_counter()
                        answer = builder(epsilon=epsilon).answer(self.database, self.workloads[name], rng=trial_rng)
                        timer.trials.append(perf_counter() - began)
                        released.append(answer.values)
                    continue
                result = evaluate_mechanism(
                    make_star_mechanism(mechanism, epsilon, scenario=self.scenario),
                    self.database,
                    self.queries[name],
                    trials=STARJOIN_TRIALS,
                    rng=stream,
                    exact_answer=self.exact[name],
                    record_answers=True,
                )
            if result.unsupported:
                raise CheckFailed(f"{mechanism} refused {name}: {result.message}")
            timer.trials.extend(result.times)
            released.extend(result.answers)
        return released

    def check(self, passes: list) -> int:
        """Check every output; returns how many checks ran."""
        from repro.core.predicate_mechanism import PredicateMechanism
        from repro.rng import spawn

        reference = checks.SSBReference(self.database)
        count = 0
        for name, query in self.queries.items():
            checks.check_answer(f"exact {name}", self.exact[name], reference.answer(query),
                                exact=query.aggregate.measure is None)
            count += 1
        for name, queries in self.workloads.items():
            for index, query in enumerate(queries):
                checks.check_answer(f"exact {name}[{index}]", self.workload_exact[name][index],
                                    reference.answer(query), exact=True)
                count += 1
        checks.check_identical("starjoin_grid", [digest(answers) for answers in passes])
        first = passes[0]
        position = 0
        for mechanism, name, epsilon in self.cells:
            trial_answers = first[position : position + STARJOIN_TRIALS]
            position += STARJOIN_TRIALS
            label = f"{mechanism} {name} ε={epsilon}"
            if mechanism == "PM" and name.startswith("Qc"):
                for value in trial_answers:
                    checks.check_count_release(label, value, reference.num_rows)
                    count += 1
            if mechanism == "R2T":
                for value in trial_answers:
                    checks.check_nonnegative(label, value)
                    count += 1
            if mechanism == "PM":
                # Re-run trial 0 from its own seed: the same draws give the
                # noisy query and the per-predicate charges behind the release.
                query = self.queries[name]
                pm = PredicateMechanism(epsilon=epsilon)
                noisy_query, accountant = pm.perturb_query(query, rng=spawn(self.stream(mechanism, name, epsilon), 1)[0])
                charges = [budget.epsilon for _label, budget in accountant.ledger]
                checks.check_pm_release(label, reference, query, noisy_query, charges, epsilon, trial_answers[0])
                count += 1
        return count


# ----------------------------------------------------------------------
# kstar_grid
# ----------------------------------------------------------------------
class KStarGrid:
    """Table 2: PM, R2T, TM on Q2* / Q3* × three ε over a Deezer-like and an
    Amazon-like power-law graph."""

    def __init__(self, seed: int):
        from repro.graph.generators import amazon_like, deezer_like
        from repro.graph.kstar import kstar_count
        from repro.workloads.kstar_queries import q2star, q3star

        self.seed = seed
        self.graphs = {
            "Deezer": deezer_like(rng=DEEZER_INSTANCE_SEED, scale=KSTAR_GRAPH_SCALE),
            "Amazon": amazon_like(rng=AMAZON_INSTANCE_SEED, scale=KSTAR_GRAPH_SCALE),
        }
        self.queries = {
            (dataset, label): builder(graph)
            for dataset, graph in self.graphs.items()
            for label, builder in (("Q2*", q2star), ("Q3*", q3star))
        }
        self.exact = {key: kstar_count(self.graphs[key[0]], query) for key, query in self.queries.items()}
        self.cells = [
            (mechanism, key, epsilon)
            for key in self.queries
            for epsilon in KSTAR_EPSILONS
            for mechanism in ("PM", "R2T", "TM")
        ]

    @property
    def ops_per_pass(self) -> int:
        return len(self.cells) * KSTAR_TRIALS

    def stream(self, mechanism, key, epsilon):
        from repro.evaluation.experiments.common import cell_stream

        return cell_stream(self.seed, "kstar_grid", key[0], key[1], epsilon, mechanism)

    def run_pass(self, timer: "PassTimer") -> list:
        from repro.evaluation.runner import evaluate_kstar_mechanism, make_kstar_mechanism

        released = []
        for mechanism, key, epsilon in self.cells:
            with timer.cell():
                result = evaluate_kstar_mechanism(
                    make_kstar_mechanism(mechanism, epsilon),
                    self.graphs[key[0]],
                    self.queries[key],
                    trials=KSTAR_TRIALS,
                    rng=self.stream(mechanism, key, epsilon),
                    exact_answer=self.exact[key],
                    record_answers=True,
                )
            timer.trials.extend(result.times)
            released.extend(result.answers)
        return released

    def check(self, passes: list) -> int:
        from repro.evaluation.runner import make_kstar_mechanism
        from repro.rng import spawn

        count = 0
        degrees = {
            dataset: checks.edge_degrees(graph.edges, graph.num_nodes) for dataset, graph in self.graphs.items()
        }
        for key, query in self.queries.items():
            checks.check_answer(f"exact {key}", self.exact[key], checks.kstar_reference(degrees[key[0]], query.k),
                                exact=True)
            count += 1
        checks.check_identical("kstar_grid", [digest(answers) for answers in passes])
        first = passes[0]
        position = 0
        for mechanism, key, epsilon in self.cells:
            trial_answers = first[position : position + KSTAR_TRIALS]
            position += KSTAR_TRIALS
            label = f"{mechanism} {key} ε={epsilon}"
            for value in trial_answers:
                if mechanism == "PM":
                    checks.check_count_release(label, value, self.exact[key])
                elif mechanism == "R2T":
                    checks.check_nonnegative(label, value)
                count += 1
            if mechanism == "TM":
                # Re-run trial 0 with the truncation observed on this graph.
                graph = self.graphs[key[0]]
                seen = []
                original = graph.truncated_degree_sequence

                def observed(threshold, rng=None):
                    truncated = original(threshold, rng=rng)
                    seen.append((threshold, truncated))
                    return truncated

                graph.truncated_degree_sequence = observed
                try:
                    again = make_kstar_mechanism("TM", epsilon).answer_value(
                        graph, self.queries[key], rng=spawn(self.stream(mechanism, key, epsilon), 1)[0]
                    )
                finally:
                    del graph.truncated_degree_sequence
                checks.check_answer(label + " re-run", again, trial_answers[0], exact=True)
                if not seen:
                    raise CheckFailed(f"{label}: TM truncated no degrees")
                for threshold, truncated in seen:
                    checks.check_truncation(label, threshold, truncated, degrees[key[0]])
                    count += 1
        return count


WORKLOADS = {"starjoin_grid": StarJoinGrid, "kstar_grid": KStarGrid}


class PassTimer:
    """Wall and CPU time of every cell of one pass, and every release's latency."""

    def __init__(self) -> None:
        self.cell_walls: list[float] = []
        self.cell_cpus: list[float] = []
        self.trials: list[float] = []
        self.wall = 0.0
        #: share of the host's CPU time stolen during the pass
        self.steal = 0.0

    @contextmanager
    def cell(self):
        wall, cpu = perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.cell_cpus.append(time.process_time() - cpu)
            self.cell_walls.append(perf_counter() - wall)


# ----------------------------------------------------------------------
def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, required=True)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1, help="check every output")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    began = perf_counter()
    import repro  # noqa: F401  (the import cost is part of set-up)
    from repro.db.cache import LocalCacheBackend, backend_scope

    import_s = perf_counter() - began
    tracer = None
    if args.trace:
        from layers import LayerTracer

        tracer = LayerTracer()
        tracer.install()
    grid = WORKLOADS[args.workload](args.seed)
    print("ready", flush=True)
    setup_spans = tracer.snapshot() if tracer else None

    passes, timers, calibrations = [], [], []
    hits = misses = puts = evictions = 0
    for _ in range(args.passes):
        gc.collect()
        calibrations.append(calibration_s())
        timer = PassTimer()
        with backend_scope(LocalCacheBackend(192)) as backend:
            host_before = cpu_times()
            started = perf_counter()
            passes.append(grid.run_pass(timer))
            timer.wall = perf_counter() - started
            timer.steal = steal_share(host_before, cpu_times())
            stats = backend.stats()
        timers.append(timer)
        hits, misses = hits + stats.hits, misses + stats.misses
        puts, evictions = puts + stats.puts, evictions + stats.evictions
    calibrations.append(calibration_s())

    result = {
        "ops_per_pass": grid.ops_per_pass,
        "pass_walls": [timer.wall for timer in timers],
        "calibrations": calibrations,
        "pass_steal": [timer.steal for timer in timers],
        "cell_walls": [timer.cell_walls for timer in timers],
        "cell_cpus": [timer.cell_cpus for timer in timers],
        "trials": [timer.trials for timer in timers],
        "peak_rss_mb": vm_hwm_mb(os.getpid()),
        "import_s": import_s,
        "cache": {"hits": hits, "misses": misses, "puts": puts, "evictions": evictions},
    }
    if tracer is not None:
        tracer.uninstall()
        result["spans"] = tracer.snapshot()
        result["setup_spans"] = setup_spans
    result["digest"] = hashlib.sha256("".join(digest(answers) for answers in passes).encode()).hexdigest()
    try:
        result["checks"] = grid.check(passes) if args.check else 0
        result["correct"] = True
    except CheckFailed as error:
        result["correct"] = False
        result["error"] = str(error)
    with open(args.out, "w") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main())
