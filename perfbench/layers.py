"""Per-layer timers, installed from the benchmark's own code.

A traced run wraps the public functions of each ``repro`` layer with a
timer.  A synchronous span's *self time* is its duration minus the
durations of the wrapped spans it called on the same thread; a span with no
wrapped parent on its thread is a *root*, and the roots' summed duration is
the wrapped share of a timed phase.  Coroutines (the servers' per-request
handlers) are timed as flat spans: their children run on other threads or
in other processes, so their self time is derived by explicit subtraction
in the workload that reports it.

Module-level functions are replaced in their defining module *and* in every
loaded ``repro`` module that imported them by name, so ``from x import f``
call sites see the wrapper too.  End-to-end metrics are never measured with
these wrappers installed.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import threading
from collections import defaultdict
from time import perf_counter

#: (span name, module, qualified name).  Span names group into the layer
#: metrics reported by :func:`span_metrics`.
WRAPS: tuple[tuple[str, str, str], ...] = (
    # evaluation
    ("runner", "repro.evaluation.runner", "evaluate_mechanism"),
    ("runner", "repro.evaluation.runner", "evaluate_kstar_mechanism"),
    # core
    ("pm.answer", "repro.core.predicate_mechanism", "PredicateMechanism.answer"),
    ("pm.perturb", "repro.core.predicate_mechanism", "PredicateMechanism.perturb_query"),
    ("wd.answer", "repro.core.workload", "WorkloadDecomposition.answer"),
    ("wd.answer", "repro.core.workload", "IndependentPMWorkload.answer"),
    ("wd.decompose", "repro.core.matrix_decomposition", "MatrixDecomposition.decompose"),
    ("wd.cube", "repro.core.workload", "build_data_cube"),
    # baselines
    ("r2t", "repro.baselines.r2t", "RaceToTheTop.answer_value"),
    ("tm", "repro.baselines.truncation", "TruncationMechanism.answer_value"),
    ("ls", "repro.baselines.local_sensitivity", "LocalSensitivityMechanism.answer_value"),
    # graph
    ("kstar", "repro.graph.dp_kstar", "KStarPM.answer_value"),
    ("kstar", "repro.graph.dp_kstar", "KStarR2T.answer_value"),
    ("kstar", "repro.graph.dp_kstar", "KStarTM.answer_value"),
    ("graph.truncate", "repro.graph.edge_table", "Graph.truncated_degree_sequence"),
    ("graph.star_prefix", "repro.graph.kstar", "star_count_prefix"),
    ("graph.kstar_count", "repro.graph.kstar", "kstar_count"),
    ("graph.generate", "repro.graph.generators", "powerlaw_graph"),
    # dp
    ("dp.noise", "repro.dp.noise", "laplace_noise"),
    ("dp.noise", "repro.dp.noise", "cauchy_noise"),
    ("dp.noise", "repro.dp.noise", "geometric_noise"),
    # db.executor / db.engine
    ("executor", "repro.db.executor", "QueryExecutor.execute"),
    ("engine.selection", "repro.db.engine", "ExecutionEngine.selection_mask"),
    ("engine.selection", "repro.db.engine", "ExecutionEngine.fact_mask"),
    ("engine.selection", "repro.db.engine", "ExecutionEngine.selected_count"),
    ("engine.cube", "repro.db.engine", "ExecutionEngine.data_cube"),
    ("engine.cube", "repro.db.engine", "ExecutionEngine.count_answer_via_cube"),
    ("engine.contribution", "repro.db.engine", "ExecutionEngine.contribution_per_key"),
    ("engine.contribution", "repro.db.engine", "ExecutionEngine.sorted_contributions"),
    ("engine.contribution", "repro.db.engine", "ExecutionEngine.truncated_sum_from_sorted"),
    ("engine.stats", "repro.db.engine", "ExecutionEngine.fan_out"),
    ("engine.stats", "repro.db.engine", "ExecutionEngine.max_fan_out"),
    ("engine.stats", "repro.db.engine", "ExecutionEngine.measure_values"),
    ("engine.result", "repro.db.engine", "ExecutionEngine.cached_result"),
    ("engine.store", "repro.db.engine", "ExecutionEngine.store_result"),
    # db.cache (client side)
    ("cache.get", "repro.db.cache.local", "LocalCacheBackend.get"),
    ("cache.put", "repro.db.cache.local", "LocalCacheBackend.put"),
    ("cache.get", "repro.db.cache.remote", "RemoteCacheBackend.get"),
    ("cache.put", "repro.db.cache.remote", "RemoteCacheBackend.put"),
    # db.storage
    ("storage.read", "repro.db.storage.mapped", "MappedColumnStore.read_chunk"),
    # db.sql
    ("sql.parse", "repro.db.sql", "parse_star_join_sql"),
    # datagen
    ("datagen.build", "repro.datagen.ssb", "SSBGenerator.build"),
    ("datagen.build", "repro.datagen.ssb", "SSBGenerator.spill_to"),
    # serving (shard)
    ("serve.request", "repro.serving.server", "QueryServer._respond"),
    ("serve.plan", "repro.serving.planner", "QueryPlanner.plan"),
    ("serve.execute", "repro.serving.planner", "QueryPlanner.execute"),
    ("ledger.admit", "repro.serving.ledger", "BudgetLedger.admit"),
    ("ledger.settle", "repro.serving.ledger", "BudgetLedger.settle"),
    ("ledger.journal", "repro.serving.durable", "LedgerJournal.record_charge"),
    ("ledger.journal", "repro.serving.durable", "LedgerJournal.settle"),
    # serving.fleet (router) and the cache server
    ("router.request", "repro.serving.fleet.router", "FleetRouter._respond"),
    ("cache_server.op", "repro.db.cache.server", "CacheServer._dispatch"),
)


class LayerTracer:
    """Accumulates calls, wall time and self time per span name."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, wall seconds, self seconds]
        self.totals: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
        #: summed duration of root spans (no wrapped parent on their thread),
        #: in all and per span name
        self.root_s = 0.0
        self.roots: dict[str, float] = defaultdict(float)
        self.installed: list[tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, wall: float, own: float, root: bool) -> None:
        with self._lock:
            entry = self.totals[name]
            entry[0] += 1
            entry[1] += wall
            entry[2] += own
            if root:
                self.root_s += wall
                self.roots[name] += wall

    def wrap(self, name: str, function):
        tracer = self
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def timed_coroutine(*args, **kwargs):
                began = perf_counter()
                try:
                    return await function(*args, **kwargs)
                finally:
                    wall = perf_counter() - began
                    tracer._record(name, wall, wall, False)

            return timed_coroutine

        @functools.wraps(function)
        def timed(*args, **kwargs):
            stack = tracer._stack()
            stack.append(0.0)
            began = perf_counter()
            try:
                return function(*args, **kwargs)
            finally:
                wall = perf_counter() - began
                children = stack.pop()
                if stack:
                    stack[-1] += wall
                tracer._record(name, wall, wall - children, not stack)

        return timed

    # -- installation --------------------------------------------------
    def install(self) -> None:
        for name, module_name, qualname in WRAPS:
            module = importlib.import_module(module_name)
            owner_path, _, attribute = qualname.rpartition(".")
            if owner_path:
                owner = functools.reduce(getattr, owner_path.split("."), module)
                raw = inspect.getattr_static(owner, attribute)
                if isinstance(raw, staticmethod):
                    replacement = staticmethod(self.wrap(name, raw.__func__))
                elif isinstance(raw, classmethod):
                    replacement = classmethod(self.wrap(name, raw.__func__))
                else:
                    replacement = self.wrap(name, raw)
                setattr(owner, attribute, replacement)
                self.installed.append((owner, attribute, raw))
                continue
            original = getattr(module, attribute)
            replacement = self.wrap(name, original)
            for loaded_name, loaded in list(sys.modules.items()):
                if not loaded_name.startswith("repro") or loaded is None:
                    continue
                if getattr(loaded, attribute, None) is original:
                    setattr(loaded, attribute, replacement)
                    self.installed.append((loaded, attribute, original))

    def uninstall(self) -> None:
        for owner, attribute, original in reversed(self.installed):
            setattr(owner, attribute, original)
        self.installed.clear()

    # -- reading -------------------------------------------------------
    def snapshot(self) -> dict:
        with self._lock:
            return {
                "totals": {name: list(entry) for name, entry in self.totals.items()},
                "root_s": self.root_s,
                "roots": dict(self.roots),
            }


# ----------------------------------------------------------------------
# layer metrics
# ----------------------------------------------------------------------
#: Every per-layer metric and its unit, in report order.
LAYER_METRICS: tuple[tuple[str, str], ...] = (
    ("import.repro_s", "s"),
    ("datagen.build_s", "s"),
    ("graph.generate_s", "s"),
    ("engine.calls", "count"),
    ("engine.self_ms", "ms"),
    ("engine.selection_ms", "ms"),
    ("engine.cube_ms", "ms"),
    ("engine.contribution_ms", "ms"),
    ("executor.executions", "count"),
    ("executor.cold_ratio", "ratio"),
    ("executor.self_ms", "ms"),
    ("cache.gets", "count"),
    ("cache.hit_ratio", "ratio"),
    ("cache.puts", "count"),
    ("cache.evictions", "count"),
    ("cache.get_ms", "ms"),
    ("cache.put_ms", "ms"),
    ("cache.wire_bytes", "bytes"),
    ("cache.retries", "count"),
    ("cache.breaker_trips", "count"),
    ("cache_server.ops", "count"),
    ("cache_server.self_ms", "ms"),
    ("storage.chunk_reads", "count"),
    ("storage.read_ms", "ms"),
    ("pm.perturb_ms", "ms"),
    ("pm.answers", "count"),
    ("wd.decompose_ms", "ms"),
    ("wd.self_ms", "ms"),
    ("r2t.self_ms", "ms"),
    ("tm.self_ms", "ms"),
    ("ls.self_ms", "ms"),
    ("graph.truncate_ms", "ms"),
    ("graph.truncations", "count"),
    ("graph.star_prefix_ms", "ms"),
    ("kstar.self_ms", "ms"),
    ("dp.noise_ms", "ms"),
    ("dp.noise_draws", "count"),
    ("runner.self_ms", "ms"),
    ("sql.parses", "count"),
    ("sql.parse_ms", "ms"),
    ("serve.plan_ms", "ms"),
    ("serve.execute_ms", "ms"),
    ("serve.queue_wait_ms", "ms"),
    ("serve.coalesced", "count"),
    ("ledger.admit_ms", "ms"),
    ("ledger.settle_ms", "ms"),
    ("ledger.journal_writes", "count"),
    ("router.self_ms", "ms"),
    ("unattributed_ms", "ms"),
    ("wrapped_share", "ratio"),
    ("traced_ops_per_s", "1/s"),
)


def merge_totals(*snapshots: dict) -> dict:
    """Sum several processes' span totals into one name -> [calls, wall, self]."""
    merged: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0])
    for snapshot in snapshots:
        for name, (calls, wall, own) in snapshot["totals"].items():
            entry = merged[name]
            entry[0] += calls
            entry[1] += wall
            entry[2] += own
    return merged


def span_metrics(totals: dict) -> dict:
    """The layer metrics that follow from span totals alone."""

    def calls(*names):
        return sum(totals[n][0] for n in names if n in totals)

    def self_ms(*names):
        return 1000.0 * sum(totals[n][2] for n in names if n in totals)

    engine = [n for n in totals if n.startswith("engine.")]
    executions = calls("executor")
    return {
        "engine.calls": calls(*engine),
        "engine.self_ms": self_ms(*engine),
        "engine.selection_ms": self_ms("engine.selection"),
        "engine.cube_ms": self_ms("engine.cube"),
        "engine.contribution_ms": self_ms("engine.contribution"),
        "executor.executions": executions,
        "executor.cold_ratio": calls("engine.store") / executions if executions else 0.0,
        "executor.self_ms": self_ms("executor"),
        "cache.get_ms": self_ms("cache.get"),
        "cache.put_ms": self_ms("cache.put"),
        "storage.chunk_reads": calls("storage.read"),
        "storage.read_ms": self_ms("storage.read"),
        "pm.perturb_ms": self_ms("pm.perturb"),
        "pm.answers": calls("pm.answer"),
        "wd.decompose_ms": self_ms("wd.decompose"),
        "wd.self_ms": self_ms("wd.answer", "wd.decompose", "wd.cube"),
        "r2t.self_ms": self_ms("r2t"),
        "tm.self_ms": self_ms("tm"),
        "ls.self_ms": self_ms("ls"),
        "graph.truncate_ms": self_ms("graph.truncate"),
        "graph.truncations": calls("graph.truncate"),
        "graph.star_prefix_ms": self_ms("graph.star_prefix", "graph.kstar_count"),
        "kstar.self_ms": self_ms("kstar"),
        "dp.noise_ms": self_ms("dp.noise"),
        "dp.noise_draws": calls("dp.noise"),
        "runner.self_ms": self_ms("runner"),
        "sql.parses": calls("sql.parse"),
        "sql.parse_ms": self_ms("sql.parse"),
        "serve.plan_ms": self_ms("serve.plan"),
        "serve.execute_ms": self_ms("serve.execute"),
        "ledger.admit_ms": self_ms("ledger.admit"),
        "ledger.settle_ms": self_ms("ledger.settle"),
        "ledger.journal_writes": calls("ledger.journal"),
        "cache_server.ops": calls("cache_server.op"),
        "cache_server.self_ms": self_ms("cache_server.op"),
    }


def complete(values: dict) -> dict:
    """Every per-layer metric, zero where the workload's layers did no work."""
    out = {}
    for name, unit in LAYER_METRICS:
        out[name] = {"value": float(values.get(name, 0.0)), "unit": unit}
    return out
