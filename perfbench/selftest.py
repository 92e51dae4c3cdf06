"""Self-test of the output checks: each must accept a correct answer and
reject a corrupted one.

    python3 perfbench/selftest.py

Runs in a few seconds on a small SSB instance and a small graph; exits 0
when every check accepted the true output and rejected every corruption.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any

import numpy as np

import checks
from common import SRC, CheckFailed

sys.path.insert(0, str(SRC))


@dataclass(frozen=True)
class PointPredicate:
    """A stand-in noisy predicate whose value may leave its domain."""

    table: str
    attribute: str
    domain: Any
    value: Any

    def describe(self) -> str:
        return f"{self.table}.{self.attribute} = {self.value!r}"


@dataclass(frozen=True)
class NoisyQuery:
    predicates: tuple


def main() -> int:
    from repro.core.predicate_mechanism import PredicateMechanism
    from repro.datagen.ssb import SSBConfig, SSBGenerator
    from repro.db.executor import QueryExecutor
    from repro.graph.generators import deezer_like
    from repro.workloads.kstar_queries import q2star
    from repro.graph.kstar import kstar_count
    from repro.graph.dp_kstar import KStarTM

    database = SSBGenerator(SSBConfig(scale_factor=1.0, rows_per_scale_factor=30_000, seed=5)).build()
    reference = checks.SSBReference(database)
    executor = QueryExecutor(database)
    from repro.workloads.ssb_queries import ssb_query

    outcomes = []

    def expect(label: str, accepted: bool, call) -> None:
        try:
            call()
            ok = accepted
        except CheckFailed:
            ok = not accepted
        outcomes.append((label, ok))
        print(f"{'ok  ' if ok else 'FAIL'} {label}: {'accepts' if accepted else 'rejects'}")

    # exact answers: scalar COUNT, scalar SUM, GROUP BY
    for name in ("Qc3", "Qs3", "Qg2"):
        query = ssb_query(name)
        exact = executor.execute(query)
        want = reference.answer(query)
        is_count = query.aggregate.measure is None
        expect(f"exact {name}", True, lambda: checks.check_answer(name, exact, want, is_count))
        if query.is_grouped:
            wrong = dict(exact.groups)
            key = next(iter(wrong))
            wrong[key] += 1.0
            expect(f"exact {name}, one group off by 1", False, lambda: checks.check_answer(name, wrong, want, False))
            dropped = dict(exact.groups)
            dropped.pop(key)
            expect(f"exact {name}, one group missing", False, lambda: checks.check_answer(name, dropped, want, False))
        else:
            expect(f"exact {name} + 1", False, lambda: checks.check_answer(name, exact + 1, want, is_count))

    # a PM release: the noisy query, its charges and its value
    query = ssb_query("Qc3")
    pm = PredicateMechanism(epsilon=0.5)
    noisy_query, accountant = pm.perturb_query(query, rng=np.random.default_rng(3))
    value = pm.answer(database, query, rng=np.random.default_rng(3)).value
    charges = [budget.epsilon for _label, budget in accountant.ledger]
    n = reference.num_rows

    def pm_check(noisy=noisy_query, spent=charges, released=value):
        return lambda: checks.check_pm_release("PM", reference, query, noisy, spent, 0.5, released)

    expect("PM release", True, pm_check())
    expect("PM release + 1", False, pm_check(released=value + 1))
    expect("PM charges short of ε", False, pm_check(spent=charges[:-1]))
    first, *rest = tuple(noisy_query.predicates)
    outside = PointPredicate(first.table, first.attribute, first.domain, "ATLANTIS")
    expect("PM noisy predicate outside its domain", False, pm_check(noisy=NoisyQuery((outside, *rest))))
    expect("PM count in range", True, lambda: checks.check_count_release("PM", value, n))
    expect("PM count fractional", False, lambda: checks.check_count_release("PM", value + 0.5, n))
    expect("PM count above fact rows", False, lambda: checks.check_count_release("PM", n + 1, n))
    expect("PM count negative", False, lambda: checks.check_count_release("PM", -1.0, n))
    expect("R2T non-negative", True, lambda: checks.check_nonnegative("R2T", 0.0))
    expect("R2T negative", False, lambda: checks.check_nonnegative("R2T", -0.5))
    expect("identical passes", True, lambda: checks.check_identical("grid", ["a", "a"]))
    expect("passes differ", False, lambda: checks.check_identical("grid", ["a", "b"]))

    # k-star: exact counts and TM truncation
    graph = deezer_like(rng=4, scale=0.01)
    degrees = checks.edge_degrees(graph.edges, graph.num_nodes)
    exact = kstar_count(graph, q2star(graph))
    want = checks.kstar_reference(degrees, 2)
    expect("k-star exact", True, lambda: checks.check_answer("Q2*", exact, want, True))
    expect("k-star exact + 1", False, lambda: checks.check_answer("Q2*", exact + 1, want, True))
    tau = KStarTM(epsilon=1.0)._pick_threshold(degrees)
    truncated = graph.truncated_degree_sequence(tau, rng=np.random.default_rng(1))
    expect("TM truncation", True, lambda: checks.check_truncation("TM", tau, truncated, degrees))
    over_tau = truncated.copy()
    over_tau[int(np.argmax(degrees))] = tau + 1
    expect("TM degree above τ", False, lambda: checks.check_truncation("TM", tau, over_tau, degrees))
    low = int(np.argmin(degrees))
    over_degree = truncated.copy()
    over_degree[low] = degrees[low] + 1
    expect("TM degree above the original", False,
           lambda: checks.check_truncation("TM", max(tau, int(degrees[low]) + 1), over_degree, degrees))

    # serving: ledger tally and served-vs-offline answers
    tally = {"a": 0.6, "b": 0.1}
    expect("ledger", True, lambda: checks.check_ledger({"a": 0.6, "b": 0.1}, tally))
    expect("ledger under-charges", False, lambda: checks.check_ledger({"a": 0.5, "b": 0.1}, tally))
    expect("ledger misses an analyst", False, lambda: checks.check_ledger({"a": 0.6}, tally))
    expect("served answer", True, lambda: checks.check_served("r", 12.5, 12.5))
    expect("served answer differs", False, lambda: checks.check_served("r", 12.5, 12.500001))

    failures = [label for label, ok in outcomes if not ok]
    print(f"\n{len(outcomes) - len(failures)}/{len(outcomes)} check outcomes as expected")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
