"""Output checks, computed apart from the program.

Every reference here is the benchmark's own: star-join answers come from a
numpy join over the instance's raw columns (foreign keys matched to
dimension keys by value, predicates evaluated from their literal fields),
k-star counts from a ``bincount`` of the edge list.  The remaining checks
are properties the method must have.  Each check raises
:class:`~common.CheckFailed`; ``selftest.py`` feeds each one a corrupted
answer to show that it can fail.

SUM answers are compared with a relative tolerance of 1e-9: the measures
are non-integral floats, and the engine sums them in another order than
this reference does.  COUNT answers must match exactly.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Sequence

import numpy as np

from common import CheckFailed

#: The SSB star: dimension table -> (fact foreign-key column, dimension key).
SSB_STAR = {"Date": ("DK", "DK"), "Customer": ("CK", "CK"), "Supplier": ("SK", "SK"), "Part": ("PK", "PK")}

SUM_RTOL = 1e-9


def _close(got: float, want: float) -> bool:
    return math.isclose(float(got), float(want), rel_tol=SUM_RTOL, abs_tol=1e-6)


class SSBReference:
    """A numpy star join over the raw columns of one SSB instance."""

    def __init__(self, database) -> None:
        self.database = database
        fact = database.fact
        self.num_rows = int(fact.num_rows)
        self._fact = {name: np.asarray(fact.codes(name)) for name in fact.column_names}
        self._rows: dict[str, np.ndarray] = {}
        self._columns: dict[str, np.ndarray] = {}

    def _dimension_rows(self, table: str) -> np.ndarray:
        rows = self._rows.get(table)
        if rows is None:
            fk_column, key_column = SSB_STAR[table]
            keys = np.asarray(self.database.dimension(table).codes(key_column))
            order = np.argsort(keys, kind="stable")
            fk = self._fact[fk_column]
            rows = order[np.clip(np.searchsorted(keys[order], fk), 0, len(keys) - 1)]
            if not np.array_equal(keys[rows], fk):
                raise CheckFailed(f"fact foreign keys {fk_column} do not all match {table}.{key_column}")
            self._rows[table] = rows
        return rows

    def column(self, table: str, attribute: str) -> np.ndarray:
        """Codes of ``table.attribute`` gathered onto every fact row."""
        key = f"{table}.{attribute}"
        codes = self._columns.get(key)
        if codes is None:
            dimension = np.asarray(self.database.dimension(table).codes(attribute))
            codes = dimension[self._dimension_rows(table)]
            self._columns[key] = codes
        return codes

    def predicate_mask(self, predicate) -> np.ndarray:
        values = list(predicate.domain.values)
        codes = self.column(predicate.table, predicate.attribute)
        kind = type(predicate).__name__
        if kind == "PointPredicate":
            return codes == values.index(predicate.value)
        if kind == "RangePredicate":
            return (codes >= values.index(predicate.low)) & (codes <= values.index(predicate.high))
        if kind == "SetPredicate":
            return np.isin(codes, [values.index(value) for value in predicate.values])
        if kind == "TruePredicate":
            return np.ones(self.num_rows, dtype=bool)
        raise CheckFailed(f"reference cannot evaluate a {kind}")

    def answer(self, query) -> Any:
        """COUNT / SUM as a float, GROUP BY as ``{decoded key tuple: value}``."""
        mask = np.ones(self.num_rows, dtype=bool)
        for predicate in query.predicates:
            mask &= self.predicate_mask(predicate)
        measure = query.aggregate.measure
        if measure is None:
            weights = np.ones(self.num_rows)
        else:
            weights = self._fact[measure.column].astype(np.float64)
            if measure.subtract is not None:
                weights = weights - self._fact[measure.subtract]
        if not query.is_grouped:
            return float(weights[mask].sum())
        keys = [self.column(table, attribute)[mask] for table, attribute in query.group_by]
        groups: dict[tuple, float] = {}
        for row, weight in zip(zip(*keys), weights[mask]):
            groups[row] = groups.get(row, 0.0) + float(weight)
        decoded = {}
        for row, total in groups.items():
            decoded[
                tuple(
                    self.database.table(table).domain(attribute).values[code]
                    for (table, attribute), code in zip(query.group_by, row)
                )
            ] = total
        return decoded


def check_answer(label: str, got: Any, want: Any, exact: bool) -> None:
    """``got`` (program) equals ``want`` (reference): scalars or group dicts."""
    if isinstance(want, dict):
        groups = getattr(got, "groups", got)
        if set(groups) != set(want):
            raise CheckFailed(f"{label}: group keys differ from the reference")
        for key, value in want.items():
            if not _close(groups[key], value):
                raise CheckFailed(f"{label}: group {key} is {groups[key]!r}, reference {value!r}")
        return
    if exact and float(got) != float(want):
        raise CheckFailed(f"{label}: {got!r} != reference {want!r}")
    if not exact and not _close(got, want):
        raise CheckFailed(f"{label}: {got!r} differs from reference {want!r}")


def check_pm_release(label: str, reference: SSBReference, query, noisy_query, charges: Sequence[float],
                     epsilon: float, released: Any) -> None:
    """One PM trial: domain-valid noisy predicates, charges summing to ε, and
    a release equal to the reference answer of the reported noisy query."""
    for predicate in noisy_query.predicates:
        domain = list(predicate.domain.values)
        kind = type(predicate).__name__
        if kind == "PointPredicate":
            inside = predicate.value in domain
        elif kind == "RangePredicate":
            inside = (predicate.low in domain and predicate.high in domain
                      and domain.index(predicate.low) <= domain.index(predicate.high))
        elif kind == "SetPredicate":
            inside = all(value in domain for value in predicate.values)
        else:
            inside = True
        if not inside:
            raise CheckFailed(f"{label}: noisy predicate {predicate.describe()} leaves its domain")
    if [p.attribute for p in noisy_query.predicates] != [p.attribute for p in query.predicates]:
        raise CheckFailed(f"{label}: noisy query does not perturb the query's own predicates")
    if not math.isclose(sum(charges), epsilon, rel_tol=1e-9):
        raise CheckFailed(f"{label}: per-predicate charges sum to {sum(charges)!r}, not ε={epsilon!r}")
    check_answer(label, released, reference.answer(noisy_query), exact=query.aggregate.measure is None)


def check_count_release(label: str, value: float, upper: float) -> None:
    """A COUNT release of PM is an integer in [0, upper]."""
    if not (float(value).is_integer() and 0 <= value <= upper):
        raise CheckFailed(f"{label}: count release {value!r} is not an integer in [0, {upper}]")


def check_nonnegative(label: str, value: float) -> None:
    if not value >= 0:
        raise CheckFailed(f"{label}: release {value!r} is negative")


def check_identical(label: str, digests: Iterable[str]) -> None:
    """Every pass released byte-identical answers."""
    distinct = set(digests)
    if len(distinct) != 1:
        raise CheckFailed(f"{label}: passes released {len(distinct)} different answer sets")


# ----------------------------------------------------------------------
# k-star
# ----------------------------------------------------------------------
def edge_degrees(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Node degrees from the raw edge list (each undirected edge once)."""
    return np.bincount(np.asarray(edges).ravel(), minlength=num_nodes).astype(np.int64)


def kstar_reference(degrees: np.ndarray, k: int) -> int:
    """Σ_v C(deg v, k), in exact integers."""
    return int(sum(math.comb(int(d), k) * int(n) for d, n in zip(*np.unique(degrees, return_counts=True))))


def check_truncation(label: str, threshold: int, truncated: np.ndarray, degrees: np.ndarray) -> None:
    """TM's truncated degrees never exceed τ nor the original degrees."""
    truncated = np.asarray(truncated)
    if truncated.shape != degrees.shape:
        raise CheckFailed(f"{label}: truncated degree sequence has the wrong length")
    if (truncated > threshold).any():
        raise CheckFailed(f"{label}: a truncated degree exceeds τ={threshold}")
    if (truncated > degrees).any() or (truncated < 0).any():
        raise CheckFailed(f"{label}: a truncated degree exceeds the original degree")


# ----------------------------------------------------------------------
# serving
# ----------------------------------------------------------------------
def check_ledger(spent: dict, tally: dict) -> None:
    """Per analyst, the ledger's spent ε equals the client's own tally."""
    if set(spent) != set(tally):
        raise CheckFailed(f"ledger knows {len(spent)} analysts, the load generator used {len(tally)}")
    for analyst, want in tally.items():
        if not math.isclose(spent[analyst], want, rel_tol=1e-9, abs_tol=1e-12):
            raise CheckFailed(f"ledger charged {analyst} {spent[analyst]!r}, tally {want!r}")


def check_served(label: str, served: Any, offline: Any) -> None:
    """A served answer equals the offline run of its documented stream."""
    if served != offline:
        raise CheckFailed(f"{label}: served {served!r} != offline {offline!r}")
