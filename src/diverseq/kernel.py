"""Materialized answer relations, the group-capping reduction, and the exact
kernel search that together solve diversity in the data-complexity regime.

Any query fragment can be routed here: answers are materialized into a single
deduplicated relation, the relation is shrunk by capping rules that preserve
the optimal diversity of every monotone aggregator exactly, and the (now
parameter-bounded) remainder is searched exactly. Unions and cyclic queries,
whose structure the join-tree solver cannot exploit, take this path.

Rows are tuples of value indices from the database load to the search:
`queries.join` joins each conjunct's atom sols, and capping and the search
compare integers. The load builds one `Value` per distinct value, and
`Assignment` objects are built only for the witness and for output. A
relation holds its rows once, as a tuple of the distinct rows in sorted
order, and each capping level filters that tuple in order and
hands it on, so the search reads the answers in sorted order. Kernelization
stops at the first level that cannot act, and capping works in linear
passes over the rows: level 1 counts each group's rows and keeps its first
k, and a higher level groups the rows in one dict per fixed column set,
skipping the column sets that no capped group can fill. A level does not
re-check its precondition on the relation the level below has just
returned, which meets it by construction, so kernelization makes no
precondition scan; a relation from anywhere else is scanned. The search is
`model.best_tuple`, the depth-first branch and bound that the join-tree
engine shares, which counts each pair's distance when it first reaches the
pair and stops at a ceiling read off the columns' distinct values. Its
budget counts pair distances, C(k, 2) (at least one) per search node it
visits, and on its own count the join's partial answers.
"""

from __future__ import annotations

import collections
import itertools
import math
import operator
from typing import Iterable, Sequence

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
    _Record,
    best_tuple,
)
from .queries import Query, _key_of, _tuple_of, join, sols_atom


class AnswerRelation(_IndexRows, _Record, frozen=True):
    """A relation of answer tuples over a fixed column order. `rows` holds
    each distinct row once, in sorted order, however the rows were given.

    Each row is a tuple of indices into `values`: the value table of the
    database the answers come from, or the relation's own when it is read
    from payloads.
    """

    _fields = ("columns", "rows", "values")
    _hidden = ("values",)  # a list: not hashable
    rows: tuple[tuple[int, ...], ...]

    def __init__(self, columns: tuple[str, ...], rows: Iterable[tuple[int, ...]],
                 values: Sequence[Value]) -> None:
        rows = tuple(sorted(set(rows)))
        if not set(map(len, rows)) <= {len(columns)}:
            raise ValueError("row width does not match the column count")
        self.__dict__.update(columns=columns, rows=rows, values=values)

    @classmethod
    def from_payload_rows(cls, columns: Sequence[str],
                          rows: Iterable[Sequence[Payload]]) -> "AnswerRelation":
        rows, width, interner = list(rows), len(columns), _Interner()
        if not set(map(len, rows)) <= {width}:
            raise ValueError("row width does not match the column count")
        indices = iter(interner.intern_all(list(itertools.chain.from_iterable(rows))))
        indexed = zip(*[indices] * width) if width else [()] * len(rows)
        return cls(tuple(columns), indexed, tuple(interner.values))

    def assignments(self) -> list[Assignment]:
        return [Assignment(zip(self.columns, row)) for row in self.sorted_rows()]


# --- materialization ---------------------------------------------------------


def materialize_answers(query: Query, db: Database, *,
                        budget: int = DEFAULT_BUDGET) -> AnswerRelation:
    """Evaluate the query and store its answers as a single relation.

    A disjunct's answers are `queries.join` of its positive atoms' sols over
    the head and the other variables its negative literals need, less the
    tuples whose values on a negative literal's variables are among its
    atom's sols. The disjuncts' answers are united and deduplicated. A
    disjunct's join that builds more than `budget` partial answers is
    refused, apart from the search's budget, with CombinatorialBudgetExceeded.
    """
    head = query.free_vars
    rows: set[tuple[int, ...]] = set()
    for conjunct in query.conjuncts:
        needed = {v for lit in conjunct.negative_literals for v in lit.variables}
        order = head + tuple(sorted(needed.difference(head)))
        inputs = [(sorted(atom.variables), sols_atom(atom, db))
                  for atom in conjunct.positive_atoms]
        filters = [(_tuple_of([order.index(v) for v in sorted(lit.variables)]),
                    set(sols_atom(lit.atom, db))) for lit in conjunct.negative_literals]
        found = join(inputs, order, budget, CombinatorialBudgetExceeded(
            f"the answer join builds over {budget} partial answers"))
        for probe, held in filters:
            found = [row for row in found if probe(row) not in held]
        if len(order) > len(head):
            found = map(operator.itemgetter(slice(len(head))), found)
        rows.update(found)
    return AnswerRelation(head, rows, db.values)


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

    The precondition is checked by a scan of every group fixing m-t+1
    columns, which runs unless one of two things already proves it. A group
    is a subset of the rows, so the scan is skipped when there are at most
    (t-1)!^2 * k^(t-1) rows. And for k >= 1 the relation this function
    returned at level t-1 meets it: capping there left every such group
    with at most max((t-1)*k, (t-1)!^2 * k^(t-1) - 1) rows, and later
    column sets only delete rows. Each returned relation records its level
    and k for that; it is not a field, and a relation built any other way,
    or returned at another level, is scanned. So `kernelize`, which feeds
    each level the one below's output, never scans.

    The rows come sorted (`AnswerRelation.rows`) and the
    returned relation keeps them in that order; within a group, sorted
    order is the order of its free columns. At level 1 a group's rows
    differ on its one free column, since the rows are distinct, so for
    k >= 1 the greedy keeps the group's first k rows: one pass per fixed
    column set counts the rows kept per group. At a higher level one dict
    pass per fixed column set groups the rows, and the groups of one column
    set are disjoint, so their deletions are applied together. A capped
    group holds one value in every fixed column, so a column set is skipped
    when one of its columns has no value that t!^2 * k^t of the level's
    rows hold; rows only leave later, so the skip is exact. Counts only
    fall and thresholds only rise, so a level counts only the columns that
    the level it was returned from found filled, which each returned
    relation records beside its level. Capping stops once fewer than
    t!^2 * k^t rows are left.
    """
    m = len(answers.columns)
    if not 1 <= t <= m:
        raise ValueError(f"level {t} out of range for {m} columns")

    rows = answers.rows
    if t == 1:
        # No precondition scan: a group fixing all m columns holds one row,
        # since the rows are distinct. For the same reason a group fixing
        # m-1 columns holds rows that differ on the free one, so the greedy
        # keeps its first k rows. With k = 0 it keeps them all.
        for fixed in itertools.combinations(range(m), m - 1):
            if not k or len(rows) < k:
                break
            key = _key_of(fixed)
            counts: dict[object, int] = {}
            kept = []
            for row in rows:
                group = key(row)
                count = counts.get(group, 0)
                if count < k:
                    counts[group] = count + 1
                    kept.append(row)
            rows = kept
        return _capped(answers, rows, t, k)

    below = getattr(answers, "_capped_at", None) == (t - 1, k)
    if len(rows) > _group_threshold(t - 1, k) and not below:
        _check_level_below(rows, m, t, k)

    threshold = _group_threshold(t, k)
    keep = t * k
    # A capped group holds one value in each fixed column, so a column
    # where no value reaches the threshold is fixed by no capped group.
    # Level t - 1 found its unfilled columns on a superset of these rows
    # and under a lower threshold: they stay unfilled and are not counted.
    fillable = getattr(answers, "_fillable", None) if below else None
    filled = [c for c in (range(m) if fillable is None else fillable)
              if max(collections.Counter(map(operator.itemgetter(c), rows)).values(),
                     default=0) >= threshold]
    for fixed in itertools.combinations(filled, m - t):
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
    return _capped(answers, rows, t, k, filled)


def _check_level_below(rows: Sequence[tuple[int, ...]], m: int, t: int, k: int) -> None:
    """Raise PreconditionViolated unless every group fixing m-(t-1) columns
    holds at most (t-1)!^2 * k^(t-1) rows."""
    prior_threshold = _group_threshold(t - 1, k)
    for fixed in itertools.combinations(range(m), m - (t - 1)):
        oversized = max(collections.Counter(map(_key_of(fixed), rows)).values())
        if oversized > prior_threshold:
            raise PreconditionViolated(
                f"a group fixing {m - (t - 1)} columns holds {oversized} rows; "
                f"level {t - 1} allows {prior_threshold}"
            )


def _capped(answers: AnswerRelation, rows: Sequence[tuple[int, ...]], t: int,
            k: int, filled: list[int] | None = None) -> AnswerRelation:
    """`answers` cut down to `rows`, a subset of its rows in sorted order,
    as level t's output for k, with `filled`, the columns that level found
    a value of t!^2 * k^t rows in, or None where it did not count them.
    The output is a relation of its own even when it keeps every row, so
    `answers` keeps its own record; its rows, a subset of checked ones,
    are not checked again. Only k >= 1 is recorded: at k = 0 level 1 keeps
    every row, which leaves level 2's precondition unmet."""
    capped = object.__new__(AnswerRelation)
    capped.__dict__.update(columns=answers.columns, rows=tuple(rows), values=answers.values)
    if k:
        capped.__dict__.update(_capped_at=(t, k), _fillable=filled)
    return capped


def kernelize(answers: AnswerRelation, k: int) -> AnswerRelation:
    """Apply every capping level in order.

    The result has at most m!^2 * k^m rows and preserves, for every monotone
    aggregator, the exact optimal diversity of k pairwise-distinct answers.

    One pass reaches each level's fixpoint: a capped group keeps t*k rows
    that pairwise differ on its free columns, which a second pass would keep
    whole. A level is entered only when its capping can fire: when the rows
    left reach t!^2 * k^t, the size of a group it caps. That size rises
    with t and capping only deletes rows, so no level after the first one
    the rows do not reach can be entered, and kernelization stops there.
    Each level entered after the first gets the output of the level below,
    so none makes a precondition scan. k must be at least 1: at k = 0 the
    bound is 0, which no non-empty relation meets.
    """
    if k < 1:
        raise ValueError(f"kernelize needs k >= 1, got {k}")
    current = answers
    m = len(answers.columns)
    for t in range(1, m + 1):
        if len(current.rows) < _group_threshold(t, k):
            break
        current = apply_capping_rule(current, t, k)
    if m:
        assert len(current.rows) <= _group_threshold(m, k), "kernel size bound violated"
    return current


# --- search over the kernel -----------------------------------------------------


def solve_fo_diverse(answers: AnswerRelation, k: int, d: float | None,
                     aggregator: Aggregator, *, allow_duplicates: bool = False,
                     witness: bool = False,
                     budget: int = DEFAULT_BUDGET) -> Outcome:
    """Kernelize, then search k-subsets (or multisets) of answers.

    Only monotone aggregators are admitted: capping is justified by exchanging
    a deleted answer for a kept one that is at least as far from every other.

    The search is `model.best_tuple`, the depth-first branch and bound that
    the join-tree engine decides a matrix root with, over the kernel's
    sorted rows, each pair's distance counted when the search first
    reaches it. Its prefix bound is m, the column count, the largest
    distance two answers can have; it stops at a ceiling no k answers
    exceed (`model.column_ceiling` once a complete set falls short of every
    pair at m), and the witness is the lexicographically first optimum.
    The budget caps the search nodes visited (every prefix the search
    extends or scores, complete sets included) at C(k, 2) pair distances
    (at least 1) each, so a k whose one node costs more is refused before
    the search starts. At k = 0 the empty set is the only candidate, so
    nothing is kernelized or searched.
    """
    if not aggregator.monotone:
        raise NotMonotone(f"aggregator {aggregator.label} is not flagged monotone")
    if k == 0:
        best = aggregator.aggregate(())
        decision = d is None or best >= d
        stats = {"answers": len(answers.rows), "kernel": 0, "candidates": 1, "k": 0}
        return Outcome(decision, best, () if decision and witness else None, stats=stats)
    kernel = kernelize(answers, k)
    rows = kernel.rows
    n = len(rows)
    count = math.comb(n + k - 1, k) if allow_duplicates else math.comb(n, k)
    found = None
    if count:
        cost = max(1, k * (k - 1) // 2)
        if cost > budget:
            raise CombinatorialBudgetExceeded(
                f"one search node costs {cost} pair distances, over the budget of {budget}"
            )
        found = best_tuple(rows, k, aggregator, distinct=not allow_duplicates,
                           limit=budget // cost,
                           refusal=CombinatorialBudgetExceeded(
                               f"the search over {n} kernel answers spent more than the "
                               f"budget of {budget} at {cost} pair distances per node"))
    stats = {
        "answers": len(answers.rows),
        "kernel": n,
        "candidates": count,
        "k": k,
    }
    if found is None:
        return Outcome(False, None, None, stats=stats)
    best, best_combo = found
    decision = d is None or best >= d
    solution = None
    if decision and witness:
        values = kernel.values
        solution = tuple(Assignment(zip(kernel.columns, [values[i] for i in rows[c]]))
                         for c in best_combo)
    return Outcome(decision, best, solution, stats=stats)
