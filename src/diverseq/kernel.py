"""Materialized answer relations, the group-capping reduction, and the
exhaustive search that together solve diversity in the data-complexity regime.

Any query fragment can be routed here: answers are materialized into a single
deduplicated relation, the relation is shrunk by capping rules that preserve
the optimal diversity of every monotone aggregator exactly, and the (now
parameter-bounded) remainder is searched exhaustively. Unions and cyclic
queries, whose structure the join-tree solver cannot exploit, take this path.
"""

from __future__ import annotations

import csv
import itertools
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .dbio import parse_csv_value
from .errors import (
    CombinatorialBudgetExceeded,
    NotMonotone,
    PreconditionViolated,
)
from .model import (
    Aggregator,
    Assignment,
    Database,
    Outcome,
    Payload,
    Value,
    _Interner,
)
from .queries import Conjunct, Query, satisfies_literal, sols_atom


@dataclass(frozen=True)
class AnswerRelation:
    """A deduplicated relation of answer tuples over a fixed column order."""

    columns: tuple[str, ...]
    rows: frozenset[tuple[Value, ...]]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match the column count")

    @classmethod
    def from_payload_rows(cls, columns: Sequence[str],
                          rows: Iterable[Sequence[Payload]]) -> "AnswerRelation":
        interner = _Interner()
        interned = frozenset(
            tuple(interner.intern(p) for p in row) for row in rows
        )
        return cls(tuple(columns), interned)

    def sorted_rows(self) -> list[tuple[Value, ...]]:
        return sorted(self.rows, key=lambda r: tuple(v.index for v in r))

    def assignments(self) -> list[Assignment]:
        return [
            Assignment(dict(zip(self.columns, row))) for row in self.sorted_rows()
        ]

    def payload_rows(self) -> set[tuple[Payload, ...]]:
        return {tuple(v.payload for v in row) for row in self.rows}


# --- materialization ---------------------------------------------------------


def _join(acc: list[Assignment], sols: Iterable[Assignment]) -> list[Assignment]:
    sols = list(sols)
    if not acc:
        return []
    shared = sorted(acc[0].variables & (sols[0].variables if sols else frozenset()))
    buckets: dict[tuple, list[Assignment]] = {}
    for s in sols:
        buckets.setdefault(tuple(s[v] for v in shared), []).append(s)
    out = []
    for a in acc:
        for s in buckets.get(tuple(a[v] for v in shared), ()):
            out.append(a.merge(s))
    return out


def _evaluate_conjunct(query: Query, conjunct: Conjunct, db: Database) -> set[tuple[Value, ...]]:
    acc: list[Assignment] = [Assignment()]
    for atom in conjunct.positive_atoms:
        acc = _join(acc, sols_atom(atom, db))
        if not acc:
            return set()
    negatives = conjunct.negative_literals
    out: set[tuple[Value, ...]] = set()
    for assignment in acc:
        if negatives and not all(
            satisfies_literal(lit, assignment, db) for lit in negatives
        ):
            continue
        out.add(tuple(assignment[v] for v in query.free_vars))
    return out


def materialize_answers(query: Query, db: Database) -> AnswerRelation:
    """Evaluate the query and store its answers as a single relation.

    Unions contribute the union of their disjuncts' answers; negated literals
    filter after the positive join. Rows are deduplicated.
    """
    rows: set[tuple[Value, ...]] = set()
    for conjunct in query.conjuncts:
        rows |= _evaluate_conjunct(query, conjunct, db)
    return AnswerRelation(query.free_vars, frozenset(rows))


# --- capping rules -------------------------------------------------------------


def _group_threshold(t: int, k: int) -> int:
    return math.factorial(t) ** 2 * k ** t


def apply_capping_rule(answers: AnswerRelation, t: int, k: int) -> AnswerRelation:
    """One level of the reduction: cap groups that fix all but t columns.

    For every choice of m-t fixed columns and every value combination on them
    whose group reaches t!^2 * k^t rows, keep t*k rows pairwise differing on
    all unfixed columns (greedy, first fit in lexicographic order) and delete
    the rest. Assumes the levels below t are already exhausted; violations of
    that precondition raise PreconditionViolated.
    """
    m = len(answers.columns)
    if not 1 <= t <= m:
        raise ValueError(f"level {t} out of range for {m} columns")

    rows = answers.sorted_rows()
    # Precondition: every group fixing m-(t-1) columns is already small.
    prior_threshold = _group_threshold(t - 1, k)
    for fixed in itertools.combinations(range(m), m - (t - 1)):
        counts: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row[i].index for i in fixed)
            counts[key] = counts.get(key, 0) + 1
        oversized = max(counts.values(), default=0)
        if oversized > prior_threshold:
            raise PreconditionViolated(
                f"a group fixing {m - (t - 1)} columns holds {oversized} rows; "
                f"level {t - 1} allows {prior_threshold}"
            )

    threshold = _group_threshold(t, k)
    for fixed in itertools.combinations(range(m), m - t):
        free = [i for i in range(m) if i not in fixed]
        ordered = sorted(
            rows,
            key=lambda r: tuple(r[i].index for i in fixed) + tuple(r[i].index for i in free),
        )
        for _, group_iter in itertools.groupby(
            ordered, key=lambda r: tuple(r[i].index for i in fixed)
        ):
            group = list(group_iter)
            if len(group) < threshold:
                continue
            chosen: list[tuple[Value, ...]] = []
            for row in group:
                if all(
                    all(row[i] != prior[i] for i in free) for prior in chosen
                ):
                    chosen.append(row)
                    if len(chosen) == t * k:
                        break
            if len(chosen) < t * k:
                raise PreconditionViolated(
                    f"greedy selection found only {len(chosen)} of {t * k} rows"
                )
            dropped = set(group) - set(chosen)
            rows = [r for r in rows if r not in dropped]
    return AnswerRelation(answers.columns, frozenset(rows))


def kernelize(answers: AnswerRelation, k: int) -> AnswerRelation:
    """Apply every capping level in order, each to a fixpoint.

    The result has at most m!^2 * k^m rows and preserves, for every monotone
    aggregator, the exact optimal diversity of k pairwise-distinct answers.
    """
    current = answers
    for t in range(1, len(answers.columns) + 1):
        while True:
            reduced = apply_capping_rule(current, t, k)
            if reduced.rows == current.rows:
                break
            current = reduced
    m = len(answers.columns)
    if m:
        assert len(current.rows) <= _group_threshold(m, k), "kernel size bound violated"
    return current


# --- exhaustive search over the kernel ------------------------------------------


def solve_fo_diverse(answers: AnswerRelation, k: int, d: float | None,
                     aggregator: Aggregator, *, allow_duplicates: bool = False,
                     witness: bool = False,
                     budget: int = 10_000_000) -> Outcome:
    """Kernelize, then exhaustively search k-subsets (or multisets) of answers.

    Only monotone aggregators are admitted: capping is justified by exchanging
    a deleted answer for a kept one that is at least as far from every other.
    """
    if not aggregator.monotone:
        raise NotMonotone(f"aggregator {aggregator.label} is not flagged monotone")
    kernel = kernelize(answers, k)
    pool = kernel.assignments()
    n = len(pool)
    count = math.comb(n + k - 1, k) if allow_duplicates else math.comb(n, k)
    if count > budget:
        raise CombinatorialBudgetExceeded(
            f"{count} candidate sets exceed the budget of {budget}"
        )
    xs = list(answers.columns)
    combos = (
        itertools.combinations_with_replacement(range(n), k)
        if allow_duplicates
        else itertools.combinations(range(n), k)
    )
    best = None
    best_combo = None
    for combo in combos:
        value = aggregator.aggregate(
            sum(1 for x in xs if pool[i][x] != pool[j][x])
            for i, j in itertools.combinations(combo, 2)
        )
        if best is None or value > best:
            best, best_combo = value, combo
    stats = {
        "answers": len(answers.rows),
        "kernel": n,
        "candidates": count,
        "k": k,
    }
    if best is None:
        return Outcome(False, None, None, routing="fo-kernel", stats=stats)
    decision = d is None or best >= d
    solution = tuple(pool[i] for i in best_combo) if (decision and witness) else None
    return Outcome(decision, best, solution, routing="fo-kernel", stats=stats)


# --- CSV import/export ------------------------------------------------------------


def read_answer_csv(path: str) -> AnswerRelation:
    """Read an answer relation; the header row names the columns in order.

    Fields are read by `dbio.parse_csv_value`: canonical integer text becomes
    an int, every other field the string as written.
    """
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        try:
            columns = next(reader)
        except StopIteration:
            raise ValueError(f"{path}: empty answer file") from None
        rows = []
        for record in reader:
            if not record:
                continue
            rows.append(tuple(parse_csv_value(field) for field in record))
    return AnswerRelation.from_payload_rows(tuple(columns), rows)


def write_answer_csv(answers: AnswerRelation, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(answers.columns)
        for row in answers.sorted_rows():
            writer.writerow([v.payload for v in row])
