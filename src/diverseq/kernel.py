"""Materialized answer relations, the group-capping reduction, and the exact
kernel search that together solve diversity in the data-complexity regime.

Any query fragment can be routed here: answers are materialized into a single
deduplicated relation, the relation is shrunk by capping rules that preserve
the optimal diversity of every monotone aggregator exactly, and the (now
parameter-bounded) remainder is searched exactly. Unions and cyclic queries,
whose structure the join-tree solver cannot exploit, take this path.

Rows are tuples of value indices from the database load to the search:
the conjunct join, capping and the distance matrix compare integers, and
`Value` objects are built only for the witness and for output. Capping
skips the levels that cannot act and works in linear passes: one dict
grouping per fixed column set over the rows, sorted once. The search is a
depth-first branch and bound over a matrix of pairwise distances; its
budget counts pair distances, C(k, 2) (at least one) per search node it
visits.
"""

from __future__ import annotations

import collections
import csv
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .dbio import parse_csv_value
from .errors import (
    DEFAULT_BUDGET,
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
    _IndexRows,
    _Interner,
)
from .queries import Conjunct, Query, relation_of, sols_atom


@dataclass(frozen=True)
class AnswerRelation(_IndexRows):
    """A deduplicated relation of answer tuples over a fixed column order.

    Each row is a tuple of indices into `values`: the value table of the
    database the answers come from, or the relation's own when it is read
    from payloads.
    """

    columns: tuple[str, ...]
    rows: frozenset[tuple[int, ...]]
    values: tuple[Value, ...] = field(repr=False)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != len(self.columns):
                raise ValueError("row width does not match the column count")

    @classmethod
    def from_payload_rows(cls, columns: Sequence[str],
                          rows: Iterable[Sequence[Payload]]) -> "AnswerRelation":
        interner = _Interner()
        indexed = frozenset(tuple([interner.intern(p) for p in row]) for row in rows)
        return cls(tuple(columns), indexed, tuple(interner.values))

    def assignments(self) -> list[Assignment]:
        return [Assignment(zip(self.columns, row)) for row in self.sorted_rows()]


# --- materialization ---------------------------------------------------------


def _evaluate_conjunct(query: Query, conjunct: Conjunct, db: Database) -> set[tuple[int, ...]]:
    """The conjunct's answers as index tuples over the head.

    A binding is an index tuple over the variables bound so far, at the
    positions `slot` gives them. Each positive atom's sols are bucketed on
    the variables it shares with the binding and hash-joined; a negative
    literal then drops the bindings whose projection is among its atom's
    sols.
    """
    for atom in conjunct.positive_atoms:  # refused even after an empty join
        relation_of(atom, db)
    slot: dict[str, int] = {}
    acc: list[tuple[int, ...]] = [()]
    for atom in conjunct.positive_atoms:
        variables = sorted(atom.variables)
        shared = [j for j, v in enumerate(variables) if v in slot]
        new = [j for j, v in enumerate(variables) if v not in slot]
        buckets: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
        for s in sols_atom(atom, db):
            buckets.setdefault(tuple([s[j] for j in shared]), []).append(
                tuple([s[j] for j in new]))
        probe = [slot[variables[j]] for j in shared]
        acc = [a + b for a in acc for b in buckets.get(tuple([a[i] for i in probe]), ())]
        if not acc:
            return set()
        for j in new:
            slot[variables[j]] = len(slot)
    for lit in conjunct.negative_literals:
        held = set(sols_atom(lit.atom, db))
        probe = [slot[v] for v in sorted(lit.variables)]
        acc = [a for a in acc if tuple([a[i] for i in probe]) not in held]
    head = [slot[v] for v in query.free_vars]
    return {tuple([a[i] for i in head]) for a in acc}


def materialize_answers(query: Query, db: Database) -> AnswerRelation:
    """Evaluate the query and store its answers as a single relation.

    Unions contribute the union of their disjuncts' answers; negated literals
    filter after the positive join. Rows are deduplicated.
    """
    rows: set[tuple[int, ...]] = set()
    for conjunct in query.conjuncts:
        rows |= _evaluate_conjunct(query, conjunct, db)
    return AnswerRelation(query.free_vars, frozenset(rows), db.domain)


# --- capping rules -------------------------------------------------------------


def _group_threshold(t: int, k: int) -> int:
    return math.factorial(t) ** 2 * k ** t


def _key_of(columns: Sequence[int]):
    """The group key of an index row: its entries at `columns`."""
    if not columns:
        return lambda row: ()
    return operator.itemgetter(*columns)


def apply_capping_rule(answers: AnswerRelation, t: int, k: int) -> AnswerRelation:
    """One level of the reduction: cap groups that fix all but t columns.

    For every choice of m-t fixed columns and every value combination on them
    whose group reaches t!^2 * k^t rows, keep t*k rows pairwise differing on
    all unfixed columns (greedy, first fit in lexicographic order) and delete
    the rest. Assumes the levels below t are already exhausted; violations of
    that precondition raise PreconditionViolated.

    The index rows are sorted once. One dict pass per fixed column set
    groups them; a group keeps the sorted order, which within the group is
    the order of its free columns. The groups of one column set are
    disjoint, so their deletions are applied together. Since a group is a
    subset of the rows, the precondition scan is skipped when there are at
    most (t-1)!^2 * k^(t-1) rows, and capping stops once fewer than
    t!^2 * k^t rows are left.
    """
    m = len(answers.columns)
    if not 1 <= t <= m:
        raise ValueError(f"level {t} out of range for {m} columns")

    rows = sorted(answers.rows)
    # Precondition: every group fixing m-(t-1) columns is already small.
    prior_threshold = _group_threshold(t - 1, k)
    if len(rows) > prior_threshold:
        for fixed in itertools.combinations(range(m), m - (t - 1)):
            oversized = max(collections.Counter(map(_key_of(fixed), rows)).values())
            if oversized > prior_threshold:
                raise PreconditionViolated(
                    f"a group fixing {m - (t - 1)} columns holds {oversized} rows; "
                    f"level {t - 1} allows {prior_threshold}"
                )

    threshold = _group_threshold(t, k)
    keep = t * k
    for fixed in itertools.combinations(range(m), m - t):
        if len(rows) < threshold:
            break
        free = [i for i in range(m) if i not in fixed]
        key = _key_of(fixed)
        groups: dict[object, list[tuple[int, ...]]] = {}
        for row in rows:
            groups.setdefault(key(row), []).append(row)
        dropped: set[tuple[int, ...]] = set()
        for group in groups.values():
            if len(group) < threshold:
                continue
            taken = [set() for _ in free]
            chosen: list[tuple[int, ...]] = []
            for row in group:
                if all(row[i] not in seen for i, seen in zip(free, taken)):
                    chosen.append(row)
                    for i, seen in zip(free, taken):
                        seen.add(row[i])
                    if len(chosen) == keep:
                        break
            if len(chosen) < keep:
                raise PreconditionViolated(
                    f"greedy selection found only {len(chosen)} of {keep} rows"
                )
            dropped.update(group)
            dropped.difference_update(chosen)
        if dropped:
            rows = [row for row in rows if row not in dropped]
    if len(rows) == len(answers.rows):
        return answers
    return AnswerRelation(answers.columns, frozenset(rows), answers.values)


def kernelize(answers: AnswerRelation, k: int) -> AnswerRelation:
    """Apply every capping level in order.

    The result has at most m!^2 * k^m rows and preserves, for every monotone
    aggregator, the exact optimal diversity of k pairwise-distinct answers.

    One pass reaches each level's fixpoint: a capped group keeps t*k rows
    that pairwise differ on its free columns, which a second pass would keep
    whole. A level is skipped when neither its capping (no group reaches
    t!^2 * k^t rows) nor its precondition scan (no group exceeds
    (t-1)!^2 * k^(t-1) rows) can fire on the rows left.
    """
    current = answers
    m = len(answers.columns)
    for t in range(1, m + 1):
        n = len(current.rows)
        if n < _group_threshold(t, k) and n <= _group_threshold(t - 1, k):
            continue
        current = apply_capping_rule(current, t, k)
    if m:
        assert len(current.rows) <= _group_threshold(m, k), "kernel size bound violated"
    return current


# --- search over the kernel -----------------------------------------------------


def _distance_rows(rows: Sequence[tuple[int, ...]]) -> Iterator[list[int]]:
    """The Hamming distances of index row i to rows 0..i, for i = 0, 1, ...
    The rows index one value table, so a distance counts the columns whose
    indices differ."""
    for i, a in enumerate(rows):
        yield [sum(map(operator.ne, a, b)) for b in rows[:i + 1]]


def solve_fo_diverse(answers: AnswerRelation, k: int, d: float | None,
                     aggregator: Aggregator, *, allow_duplicates: bool = False,
                     witness: bool = False,
                     budget: int = DEFAULT_BUDGET) -> Outcome:
    """Kernelize, then search k-subsets (or multisets) of answers.

    Only monotone aggregators are admitted: capping is justified by exchanging
    a deleted answer for a kept one that is at least as far from every other.

    The search is a depth-first branch and bound over index combinations in
    `itertools` order. A branch is cut when even the largest distance m on
    every pair still open cannot beat the best value found; monotonicity
    makes that bound sound for every admitted aggregator. The search stops
    at the ceiling, every pair at distance m. The best value is replaced
    only by a greater one, so the witness is the lexicographically first
    optimum, as in plain enumeration. The budget caps the search nodes
    visited (every prefix the search extends or scores, complete sets
    included) at C(k, 2) pair distances (at least 1) each, so a k whose one
    node costs more is refused before the search starts.
    """
    if not aggregator.monotone:
        raise NotMonotone(f"aggregator {aggregator.label} is not flagged monotone")
    kernel = kernelize(answers, k)
    rows = sorted(kernel.rows)
    n = len(rows)
    count = math.comb(n + k - 1, k) if allow_duplicates else math.comb(n, k)
    best = None
    best_combo = None
    if count:
        pairs = k * (k - 1) // 2
        cost = max(1, pairs)
        if k and cost > budget:
            raise CombinatorialBudgetExceeded(
                f"one search node costs {cost} pair distances, over the budget of {budget}"
            )
        aggregate = aggregator.aggregate
        # Row i of the distance matrix is made when the search first reaches
        # row i; it only ever moves one row past the rows made so far.
        distance_rows = _distance_rows(rows)
        matrix: list[list[int]] = []
        m = len(answers.columns)
        ceiling = aggregate([m] * pairs)
        step = 0 if allow_duplicates else 1
        if not k:
            best, best_combo = aggregate(()), ()
        # One frame per chosen prefix: the rows that may extend it, the
        # prefix, and the distances among its rows.
        frames = [(iter(range(n - (k - 1) * step)), (), [])] if k else []
        spent = 0
        while frames:
            options, chosen, dists = frames[-1]
            i = next(options, None)
            if i is None:
                frames.pop()
                continue
            spent += cost
            if spent > budget:
                raise CombinatorialBudgetExceeded(
                    f"the search over {n} kernel answers spent more than the budget "
                    f"of {budget} at {cost} pair distances per node"
                )
            if i == len(matrix):
                matrix.append(next(distance_rows))
            row = matrix[i]
            grown = dists + [row[j] for j in chosen]
            picked = chosen + (i,)
            if len(picked) == k:
                value = aggregate(grown)
                if best is None or value > best:
                    best, best_combo = value, picked
                    if best == ceiling:
                        break
            elif best is None or aggregate(grown + [m] * (pairs - len(grown))) > best:
                depth = len(picked)
                frames.append((iter(range(i + step, n - (k - 1 - depth) * step)),
                               picked, grown))
    stats = {
        "answers": len(answers.rows),
        "kernel": n,
        "candidates": count,
        "k": k,
    }
    if best is None:
        return Outcome(False, None, None, stats=stats)
    decision = d is None or best >= d
    solution = None
    if decision and witness:
        pool = kernel.assignments()
        solution = tuple(pool[i] for i in best_combo)
    return Outcome(decision, best, solution, stats=stats)


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
