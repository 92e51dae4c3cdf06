"""The ``serve_mix`` workload: a served request, end to end.

Topology (three fresh processes per set-up, each started through
``launch.py``)::

    load generator (this process, 2 connections, closed loop)
      -> fleet router        repro.serving.fleet.router
      -> one serving shard   repro.serving.server  (mapped SSB + graph,
                              --ledger-path journal, --cache-backend remote)
      -> one cache server    repro.db.cache.server (memory only)

The request stream is generated here from ``--seed`` and documented in the
README: a Zipf-popular head of named SSB queries, a tail of ad-hoc SQL at
fresh ε, and some k-star requests, from a few hundred analysts.
"""

from __future__ import annotations

import json
import math
import socket
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from common import (
    BENCH_DIR,
    READY_TIMEOUT_S,
    SRC,
    BenchError,
    CheckFailed,
    Children,
    StealSampler,
    cpu_seconds,
    fresh_run_dir,
    median,
    metric,
    percentile,
    read_line,
    remove_run_dir,
    vm_hwm_mb,
)
from grid_worker import (
    DEEZER_INSTANCE_SEED, KSTAR_EPSILONS, PAPER_EPSILONS, SSB_INSTANCE_SEED, SSB_QUERIES, STAR_MECHANISMS, supported,
)

SETUP_REPEATS = 3
#: How much more than the stolen share of the host the closed loop loses:
#: a segment that ran while a share ``s`` of the host's CPU time was
#: stolen is scaled by ``exp(STEAL_SENSITIVITY * s)``.  Fitted on this
#: host over 24 segments of three runs under 3-37 % steal (README,
#: "Host-speed calibration"); a chain of four processes on two vCPUs loses
#: about 2.4 times the stolen share, not once.
STEAL_SENSITIVITY = 2.4
#: Requests per second of ``--seconds``: a run serves a fixed count,
#: ``NOMINAL_RATE * seconds``, whatever the clock says.
NOMINAL_RATE = 400
#: Requests per measured segment: 1 000, so ten samples lie beyond each
#: segment's p99.
SEGMENT = 1_000
CONNECTIONS = 2
#: Engine worker threads of the shard.  One: with two, the shard's
#: in-process cache tier (``LocalCacheBackend`` under ``RemoteCacheBackend``)
#: is used from both threads without a lock, and now and then a request
#: fails with "dictionary changed size during iteration" while an eviction
#: scans a region another thread is writing (see CHANGES.md, FOUND).  The
#: second connection's request waits in the shard's queue instead.
SHARD_WORKERS = 1
ANALYSTS = 300
ZIPF_EXPONENT = 1.1
#: Served instances (registered on the shard at start-up).
SSB_ROWS = 240_000
GRAPH_SCALE = 0.01
#: Every n-th request is replayed offline and compared with its served answer.
SAMPLE_EVERY = 97
REQUEST_TIMEOUT_S = 60.0
LOOP_TIMEOUT_S = 120.0

REGIONS = ("AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST")
YEARS = tuple(range(1992, 1999))
MFGRS = tuple(f"MFGR#{m}" for m in range(1, 6))
CATEGORIES = tuple(f"MFGR#{m}{c}" for m in range(1, 6) for c in range(1, 6))
#: dimension -> its join condition with the fact table
JOINS = {
    "Date": "Lineorder.DK = Date.DK",
    "Customer": "Lineorder.CK = Customer.CK",
    "Supplier": "Lineorder.SK = Supplier.SK",
    "Part": "Lineorder.PK = Part.PK",
}


# ----------------------------------------------------------------------
# the request stream
# ----------------------------------------------------------------------
def _filter(kind: str, rng: np.random.Generator) -> tuple[str, str]:
    """One WHERE filter of the generated SQL: (dimension, condition)."""
    if kind == "year":
        if rng.random() < 0.5:
            return "Date", f"Date.year = {YEARS[rng.integers(len(YEARS))]}"
        low = int(rng.integers(len(YEARS)))
        high = int(rng.integers(low, len(YEARS)))
        return "Date", f"Date.year BETWEEN {YEARS[low]} AND {YEARS[high]}"
    if kind == "month":
        low = int(rng.integers(1, 13))
        return "Date", f"Date.month BETWEEN {low} AND {int(rng.integers(low, 13))}"
    if kind in ("Customer.region", "Supplier.region"):
        return kind.split(".")[0], f"{kind} = '{REGIONS[rng.integers(len(REGIONS))]}'"
    if kind == "mfgr":
        return "Part", f"Part.mfgr = '{MFGRS[rng.integers(len(MFGRS))]}'"
    return "Part", f"Part.category = '{CATEGORIES[rng.integers(len(CATEGORIES))]}'"


FILTER_KINDS = ("year", "month", "Customer.region", "Supplier.region", "mfgr", "category")


def generate_sql(index: int, rng: np.random.Generator) -> str:
    """The ``index``-th ad-hoc star-join query of the tail, inside the
    ``repro.db.sql`` grammar: COUNT(*) or SUM(revenue) alternately, one to
    three filters (cycling) on distinct attributes drawn from
    ``FILTER_KINDS`` (point or BETWEEN), explicit foreign-key join
    conditions, and GROUP BY Date.year on every tenth query."""
    chosen = rng.choice(len(FILTER_KINDS), size=1 + index % 3, replace=False)
    filters = [_filter(FILTER_KINDS[i], rng) for i in sorted(chosen)]
    grouped = index % 10 == 9
    dimensions = sorted({dim for dim, _ in filters} | ({"Date"} if grouped else set()))
    aggregate = "count(*)" if index % 2 == 0 else "sum(revenue)"
    where = [JOINS[dim] for dim in dimensions] + [condition for _, condition in filters]
    sql = f"SELECT {aggregate} FROM Lineorder, {', '.join(dimensions)} WHERE {' AND '.join(where)}"
    return sql + (" GROUP BY Date.year" if grouped else "")


#: The mix, cycled every ten requests: seven head (H), two tail (T), one
#: k-star (K).  Cycling keeps the shares exact for every seed; the seed
#: picks the keys, queries, ε and analysts.
MIX = "HHTHKHHTHH"
#: Popularity rank of the head keys: a fixed ranking, so the Zipf-popular
#: keys are the same for every seed.
HEAD_RANKING_SEED = 7


def request_stream(seed: int, count: int) -> list[dict]:
    """The seeded request sequence of one run."""
    head = [
        (mechanism, name, epsilon)
        for name in SSB_QUERIES
        for mechanism in STAR_MECHANISMS
        if supported(mechanism, name)
        for epsilon in PAPER_EPSILONS
    ]
    ranked = [head[i] for i in np.random.default_rng(HEAD_RANKING_SEED).permutation(len(head))]
    weights = 1.0 / np.arange(1, len(head) + 1) ** ZIPF_EXPONENT
    weights /= weights.sum()
    rng = np.random.default_rng([seed, 0x5E57E])
    requests, counts = [], {"T": 0, "K": 0}
    for index in range(count):
        analyst = f"analyst{int(rng.integers(ANALYSTS)):03d}"
        part = MIX[index % len(MIX)]
        if part == "H":
            mechanism, name, epsilon = ranked[rng.choice(len(ranked), p=weights)]
            request = {"database": "ssb", "mechanism": mechanism, "epsilon": epsilon, "query": name}
        elif part == "T":
            epsilon = round(float(rng.uniform(0.1, 1.0)), 6)
            sql = generate_sql(counts["T"], rng)
            request = {"database": "ssb", "mechanism": "PM", "epsilon": epsilon, "sql": sql}
        else:
            request = {
                "database": "graph",
                "mechanism": ("PM", "R2T", "TM")[counts["K"] % 3],
                "epsilon": KSTAR_EPSILONS[rng.integers(len(KSTAR_EPSILONS))],
                "k": 2 + (counts["K"] // 3) % 2,
            }
        if part in counts:
            counts[part] += 1
        request.update(op="query", analyst=analyst, trials=1)
        requests.append(request)
    return requests


# ----------------------------------------------------------------------
# client
# ----------------------------------------------------------------------
class Connection:
    """One JSON-lines connection to the router."""

    def __init__(self, address: tuple[str, int]):
        self.sock = socket.create_connection(address, timeout=REQUEST_TIMEOUT_S)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.file = self.sock.makefile("rwb")

    def request(self, message: dict) -> dict:
        self.file.write(json.dumps(message).encode() + b"\n")
        self.file.flush()
        line = self.file.readline()
        if not line:
            raise BenchError("router closed the connection")
        return json.loads(line)

    def close(self) -> None:
        self.file.close()
        self.sock.close()


def _address(line: str) -> tuple[str, int]:
    token = line.split(" on ", 1)[1].split()[0]
    host, port = token.rsplit(":", 1)
    return host, int(port)


class Topology:
    """The cache server, the shard and the router of one set-up."""

    def __init__(self, children: Children, run_dir: Path, seed: int, trace: bool, tag: str):
        self.children = children
        self.dir = run_dir / tag
        self.dir.mkdir()
        self.seed = seed
        self.trace = trace
        self.procs = {}

    def _start(self, role: str, module: str, args: list, banner: str) -> tuple[str, int]:
        argv = [sys.executable, str(BENCH_DIR / "launch.py")]
        if self.trace:
            argv += ["--trace-out", str(self.dir / f"{role}.spans.json")]
        proc = self.children.spawn(argv + [module] + args, log_path=self.dir / f"{role}.log")
        self.procs[role] = proc
        return _address(read_line(proc, banner, time.monotonic() + READY_TIMEOUT_S))

    def start(self) -> tuple[str, int]:
        cache = self._start("cache_server", "repro.db.cache.server", ["--port", "0"], "cache server on")
        ssb = {"name": "ssb", "kind": "ssb", "scale_factor": 1.0,
               "rows_per_scale_factor": SSB_ROWS, "seed": SSB_INSTANCE_SEED}
        graph = {"name": "graph", "kind": "kstar", "generator": "deezer",
                 "scale": GRAPH_SCALE, "seed": DEEZER_INSTANCE_SEED}
        shard = self._start(
            "shard", "repro.serving.server",
            ["--port", "0", "--seed", str(self.seed), "--workers", str(SHARD_WORKERS),
             "--analyst-epsilon", "1e9", "--max-analysts", str(ANALYSTS),
             "--ledger-path", str(self.dir / "ledger.sqlite"),
             "--cache-backend", "remote", "--cache-url", f"{cache[0]}:{cache[1]}",
             "--storage", "mapped", "--data-dir", str(self.dir / "data"),
             "--register", json.dumps(ssb), "--register", json.dumps(graph)],
            "serving on",
        )
        router = self._start("router", "repro.serving.fleet.router",
                             ["--port", "0", "--shard", f"{shard[0]}:{shard[1]}"], "fleet router on")
        # Ready means serving: a ping relayed through the router to the shard.
        connection = Connection(router)
        try:
            if not connection.request({"op": "ping"}).get("ok"):
                raise BenchError("the fleet does not answer ping")
        finally:
            connection.close()
        return router

    def pids(self) -> list[int]:
        return [proc.pid for proc in self.procs.values()]

    def stop(self) -> None:
        for role in ("router", "shard", "cache_server"):
            proc = self.procs.get(role)
            if proc is not None and self.children.stop(proc) != 0:
                raise BenchError(f"{role} exited with code {proc.returncode}")

    def spans(self) -> dict:
        return {role: json.loads((self.dir / f"{role}.spans.json").read_text()) for role in self.procs}


# ----------------------------------------------------------------------
def _closed_loop(address, requests: list[dict]) -> tuple[list, list, dict, int, list]:
    """Serve ``requests`` over CONNECTIONS connections, each sending its
    next request when the previous reply arrived.  Returns every request's
    send and reply times, the sampled responses, the failure count and the
    first errors."""
    starts, ends = [0.0] * len(requests), [0.0] * len(requests)
    sampled, errors = {}, []
    failures = [0] * CONNECTIONS  # one counter per thread: no shared update

    def worker(offset: int) -> None:
        connection = None
        try:
            connection = Connection(address)
            for index in range(offset, len(requests), CONNECTIONS):
                starts[index] = perf_counter()
                response = connection.request(requests[index])
                ends[index] = perf_counter()
                if not response.get("ok"):
                    failures[offset] += 1
                    errors.append(response.get("error"))
                elif index % SAMPLE_EVERY == 0:
                    sampled[index] = response["result"]
        except Exception as error:  # surfaced below, after the join
            errors.append(repr(error))
            failures[offset] = len(requests)
        finally:
            if connection is not None:
                connection.close()

    threads = [threading.Thread(target=worker, args=(offset,), daemon=True) for offset in range(CONNECTIONS)]
    deadline = time.monotonic() + LOOP_TIMEOUT_S
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(max(deadline - time.monotonic(), 0.0))
        if thread.is_alive():
            raise BenchError("the closed loop did not finish in time")
    if any(count >= len(requests) for count in failures):
        raise BenchError(f"load generator failed: {errors[-1]}")
    return starts, ends, sampled, sum(failures), errors[:3]


def _offline_answers(seed: int, requests: list[dict], indices) -> dict:
    """Replay sampled requests offline through ``evaluate_mechanism`` on the
    documented stream (``repro.serving.request_stream``)."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from repro.datagen.ssb import SSBConfig, SSBGenerator
    from repro.db.cache import query_fingerprint
    from repro.db.sql import parse_star_join_sql
    from repro.dp.neighboring import PrivacyScenario
    from repro.evaluation.runner import (
        evaluate_kstar_mechanism, evaluate_mechanism, make_kstar_mechanism, make_star_mechanism,
    )
    from repro.graph.generators import deezer_like
    from repro.serving.planner import request_stream as served_stream, serialize_answer
    from repro.workloads.kstar_queries import kstar_query
    from repro.workloads.ssb_queries import ssb_query

    database = SSBGenerator(SSBConfig(scale_factor=1.0, rows_per_scale_factor=SSB_ROWS, seed=SSB_INSTANCE_SEED)).build()
    graph = deezer_like(rng=DEEZER_INSTANCE_SEED, scale=GRAPH_SCALE)
    scenario = PrivacyScenario.dimensions("Customer", "Supplier", "Part")
    answers = {}
    for index in indices:
        request = requests[index]
        mechanism, epsilon = request["mechanism"], request["epsilon"]
        if request["database"] == "graph":
            label = f"kstar:{request['k']}"
            result = evaluate_kstar_mechanism(
                make_kstar_mechanism(mechanism, epsilon), graph, kstar_query(request["k"], graph), trials=1,
                rng=served_stream(seed, "graph", mechanism, label, epsilon, 1), record_answers=True,
            )
        else:
            if "sql" in request:
                query = parse_star_join_sql(request["sql"], database.schema, name="sql")
            else:
                query = ssb_query(request["query"], database.schema)
            fingerprint = query_fingerprint(query)
            label = str(fingerprint) if fingerprint is not None else query.describe()
            result = evaluate_mechanism(
                make_star_mechanism(mechanism, epsilon, scenario=scenario), database, query, trials=1,
                rng=served_stream(seed, "ssb", mechanism, label, epsilon, 1), record_answers=True,
            )
        answers[index] = json.loads(json.dumps(serialize_answer(result.answers[0])))
    return answers


def run(seed: int, seconds: int, trace: bool) -> tuple[dict, dict]:
    count = SEGMENT * max(1, round(NOMINAL_RATE * seconds / SEGMENT))
    requests = request_stream(seed, count)
    run_dir = fresh_run_dir("serve_mix")
    setups = []
    try:
        with Children() as children:
            for index in range(SETUP_REPEATS):
                topology = Topology(children, run_dir, seed, trace, f"setup{index}")
                began = perf_counter()
                address = topology.start()
                setups.append(perf_counter() - began)
                if index < SETUP_REPEATS - 1:
                    topology.stop()
            pids = topology.pids()
            cpu_before = sum(cpu_seconds(pid) for pid in pids)
            began = perf_counter()
            with StealSampler() as steal:
                starts, ends, sampled, failed, errors = _closed_loop(address, requests)
            wall = perf_counter() - began
            cpu_s = sum(cpu_seconds(pid) for pid in pids) - cpu_before
            peak_mb = sum(vm_hwm_mb(pid) for pid in pids)
            connection = Connection(address)
            try:
                after_began = perf_counter()
                budget = connection.request({"op": "budget"})
                telemetry = connection.request({"op": "telemetry"}) if trace else None
                stats = connection.request({"op": "stats"}) if trace else None
                after_s = perf_counter() - after_began
            finally:
                connection.close()
            topology.stop()
            spans = topology.spans() if trace else None
    finally:
        remove_run_dir(run_dir)

    segments = _segments(starts, ends, steal)
    detail = {"requests": count, "wall_s": wall, "setups": setups, "errors": errors, "segments": segments,
              "raw_ops_per_s": median([f["raw_ops_per_s"] for f in segments])}
    try:
        tally: dict = {}
        for request in requests:
            tally[request["analyst"]] = tally.get(request["analyst"], 0.0) + request["epsilon"] * request["trials"]
        if failed:
            raise CheckFailed(f"{failed} request(s) failed: {errors}")
        if not budget.get("ok"):
            raise CheckFailed(f"budget op failed: {budget.get('error')}")
        spent = _spent_by_analyst(budget["result"])
        checks.check_ledger(spent, tally)
        offline = _offline_answers(seed, requests, sorted(sampled))
        for index, result in sampled.items():
            checks.check_served(f"request {index}", result["answer"], offline[index])
        detail["checks"] = len(sampled) + len(tally) + 1
        correct = True
    except CheckFailed as error:
        detail["error"] = str(error)
        correct = False
    summary = {"correct": correct, "attempted": count, "failed": failed}
    if not trace:
        summary["metrics"] = {
            "setup_s": metric(median(setups), "s"),
            "ops_per_s": metric(median([f["ops_per_s"] for f in segments]), "1/s"),
            "request_p50_ms": metric(median([f["p50_ms"] for f in segments]), "ms"),
            "request_p99_ms": metric(median([f["p99_ms"] for f in segments]), "ms"),
            "cpu_ms_per_op": metric(1000.0 * cpu_s / count, "ms"),
            "peak_rss_mb": metric(peak_mb, "MB"),
        }
        return summary, detail
    latency_s = sum(end - start for start, end in zip(starts, ends))
    summary["metrics"] = _layer_metrics(spans, telemetry, stats, latency_s + after_s,
                                        median([f["ops_per_s"] for f in segments]))
    return summary, detail


def _segments(starts: list, ends: list, steal: "StealSampler") -> list[dict]:
    """Throughput and latency quantiles of every SEGMENT consecutive
    replies, in the order they arrived, scaled for the share of the host's
    CPU time the hypervisor stole meanwhile; the run reports their medians,
    so a burst of host noise in one segment weighs little."""
    order = sorted(range(len(ends)), key=ends.__getitem__)
    figures, since = [], min(starts)
    for first in range(0, len(order) - SEGMENT + 1, SEGMENT):
        members = order[first : first + SEGMENT]
        latencies = [ends[i] - starts[i] for i in members]
        until = ends[members[-1]]
        stolen = steal.share(since, until)
        slowdown = math.exp(STEAL_SENSITIVITY * stolen)
        figures.append({
            "raw_ops_per_s": SEGMENT / (until - since),
            "ops_per_s": SEGMENT / (until - since) * slowdown,
            "p50_ms": 1000.0 * percentile(latencies, 50) / slowdown,
            "p99_ms": 1000.0 * percentile(latencies, 99) / slowdown,
            "steal": stolen,
        })
        since = until
    return figures


def _spent_by_analyst(result: dict) -> dict:
    """Spent ε per analyst from the router's per-shard ``budget`` answer."""
    spent = {}
    for shard, summary in result["shards"].items():
        if summary is None:
            raise CheckFailed(f"shard {shard} did not answer the budget op")
        spent.update({name: float(account["spent_epsilon"]) for name, account in summary["analysts"].items()})
    return spent


#: Shard spans that run while the shard registers its instances, before
#: the timed phase.
SETUP_SPANS = ("datagen.build", "graph.generate")


def _layer_metrics(spans: dict, telemetry: dict, stats: dict, client_s: float, traced_rate: float) -> dict:
    """Layer metrics of a traced run.  The client-observed time splits into
    the router's self time, the shard's wrapped root spans (which cover
    their children's self times), the shard's queue wait, and the rest:
    the client's own time and hop outside the router's handler, plus the
    shard's time inside its request handler outside any wrapped span
    (line decoding, dispatch, executor hand-off).  ``unattributed_ms`` is
    that rest; ``wrapped_share`` is the share the reported parts cover."""
    import layers

    shard, router, cache_server = spans["shard"], spans["router"], spans["cache_server"]
    totals = layers.merge_totals(shard, cache_server)
    values = layers.span_metrics(totals)
    router_wall = router["totals"].get("router.request", [0, 0.0])[1]
    shard_wall = shard["totals"].get("serve.request", [0, 0.0])[1]
    shard_spans = sum(wall for name, wall in shard["roots"].items() if name not in SETUP_SPANS)
    values.update(_counters(telemetry, stats))
    queue_wait = values["serve.queue_wait_ms"] / 1000.0
    shard_gap = shard_wall - shard_spans - queue_wait
    router_self = router_wall - shard_wall
    values.update({
        "import.repro_s": shard["import_s"],
        "datagen.build_s": shard["totals"].get("datagen.build", [0, 0.0])[1],
        "graph.generate_s": shard["totals"].get("graph.generate", [0, 0.0])[1],
        "router.self_ms": 1000.0 * router_self,
        "unattributed_ms": 1000.0 * ((client_s - router_wall) + shard_gap),
        "wrapped_share": (router_self + shard_spans + queue_wait) / client_s,
        "traced_ops_per_s": traced_rate,
    })
    return layers.complete(values)


def _counters(telemetry: dict, stats: dict) -> dict:
    """Counters read through the public ``telemetry`` and ``stats`` ops."""
    if not (telemetry.get("ok") and stats.get("ok")):
        raise BenchError("telemetry/stats ops failed through the router")
    (shard,) = telemetry["result"]["shards"].values()
    cache = shard["subsystem"]["cache"]["counters"]
    (shard_stats,) = stats["result"]["shards"].values()
    breaker = shard_stats["cache"]["breaker"]
    lookups = cache["hits"] + cache["misses"]
    return {
        "cache.gets": lookups,
        "cache.hit_ratio": cache["hits"] / lookups if lookups else 0.0,
        "cache.puts": cache["puts"],
        "cache.evictions": cache["evictions"],
        "cache.wire_bytes": cache["bytes_sent"] + cache["bytes_received"],
        "cache.retries": breaker["failures_total"],
        "cache.breaker_trips": breaker["trips"],
        "serve.queue_wait_ms": 1000.0 * shard["histograms"]["serving_queue_wait_seconds"]["sum_s"],
        "serve.coalesced": shard_stats["planner"]["singleflight"]["coalesced"],
    }
