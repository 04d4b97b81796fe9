"""Domain values, relations, database instances, assignments, and diversity.

The diversity of a collection of answers is an aggregate (sum, min, or a
custom symmetric function) of all pairwise Hamming distances, where the
Hamming distance counts the free variables on which two answers disagree.
Values, relations, and assignments are immutable; a database is append-only
while loading and read-only afterwards. All operations are pure.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Mapping, Sequence, Union

from .errors import UnboundVariable

Payload = Union[int, str]


class Value:
    """An interned domain constant.

    Equality and hashing follow the payload; the total order follows the
    interning (load) order, which makes sorted iteration deterministic and
    lets inner loops work on dense integer indices.
    """

    __slots__ = ("payload", "index")

    def __init__(self, payload: Payload, index: int):
        self.payload = payload
        self.index = index

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Value):
            return self.payload == other.payload and type(self.payload) is type(other.payload)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.payload)

    def __lt__(self, other: "Value") -> bool:
        return self.index < other.index

    def __repr__(self) -> str:
        return f"Value({self.payload!r})"


class _Interner:
    """Assigns dense indices to payloads in first-appearance order and keeps
    the values in index order. Payloads of different types never share an
    index, as `Value` equality requires: each type has its own index."""

    def __init__(self) -> None:
        self._index: dict[type, dict[Payload, int]] = {}
        self.values: list[Value] = []

    def intern(self, payload: Payload) -> int:
        index = self._index.setdefault(type(payload), {})
        position = index.get(payload)
        if position is None:
            position = index[payload] = len(self.values)
            self.values.append(Value(payload, position))
        return position

    def intern_all(self, payloads: Sequence[Payload]) -> list[int]:
        """The index of each payload in turn, interning as `intern` would:
        when the payloads share one type, once per distinct payload."""
        kinds = set(map(type, payloads))
        if len(kinds) != 1:
            return [self.intern(p) for p in payloads]
        index, values = self._index.setdefault(kinds.pop(), {}), self.values
        for payload in dict.fromkeys(payloads):
            if payload not in index:
                position = index[payload] = len(values)
                values.append(Value(payload, position))
        return list(map(index.__getitem__, payloads))

    def lookup(self, payload: Payload) -> Value | None:
        position = self._index.get(type(payload), {}).get(payload)
        return None if position is None else self.values[position]


class _IndexRows:
    """Rows stored as tuples of indices into `values`, a table of interned
    values. Within one table index equality is value equality, and sorting
    index tuples orders rows by their values' load order."""

    rows: frozenset[tuple[int, ...]]
    values: Sequence[Value]

    def sorted_rows(self) -> list[tuple[Value, ...]]:
        values = self.values
        return [tuple([values[i] for i in row]) for row in sorted(self.rows)]

    def payload_rows(self) -> set[tuple[Payload, ...]]:
        values = self.values
        return {tuple([values[i].payload for i in row]) for row in self.rows}


@dataclass(frozen=True)
class Relation(_IndexRows):
    """A named relation: a duplicate-free set of rows, each a tuple of
    `arity` indices into `values`, the value table of its database, which
    the database's relations share."""

    name: str
    arity: int
    rows: frozenset[tuple[int, ...]]
    values: Sequence[Value] = field(repr=False, hash=False)  # a list: not hashable


def check_arity(name: str, arity: int, rows: Iterable[Sequence[Payload]]) -> None:
    """ValueError unless every row of relation `name` has `arity` values."""
    for row in rows:
        if len(row) != arity:
            raise ValueError(f"relation {name}: row {row!r} does not match arity {arity}")


class Database:
    """A database instance under active-domain semantics.

    The domain is exactly the set of values appearing in some row, in load
    order. A database loaded with only the relations a query names (as the
    CLI loads it) has only their values, numbered as they are met in those
    relations; a value no loaded relation holds has no index, which to a
    query is the same as being in no row. Values are interned per database
    into one value table, `values`, that its relations share and that only
    grows, and rows hold their indices, so the solvers join and compare
    integers; `Value` objects are built only for answers handed out.
    """

    def __init__(self) -> None:
        self._interner = _Interner()
        self.values: Sequence[Value] = self._interner.values
        self.relations: dict[str, Relation] = {}

    @classmethod
    def from_rows(cls, relations: Mapping[str, Iterable[Sequence[Payload]]]) -> "Database":
        """Build a database, inferring each arity from the first row given.

        Relations with no rows cannot be inferred this way; use add_relation.
        """
        db = cls()
        for name, rows in relations.items():
            rows = [tuple(r) for r in rows]
            if not rows:
                raise ValueError(f"relation {name}: cannot infer arity from zero rows")
            db.add_relation(name, len(rows[0]), rows)
        return db

    def add_relation(self, name: str, arity: int, rows: Iterable[Sequence[Payload]]) -> Relation:
        """Add a relation from its rows, interning their values row by row."""
        if name in self.relations:
            raise ValueError(f"relation {name} already defined")
        rows = list(rows)
        check_arity(name, arity, rows)
        if arity:
            return self.add_flat(name, arity, list(itertools.chain.from_iterable(rows)))
        return self._store(name, 0, frozenset(map(tuple, rows)))

    def add_flat(self, name: str, arity: int, payloads: Sequence[Payload]) -> Relation:
        """Add a relation of arity >= 1 given as its rows' payloads end to
        end, interning them in that order."""
        if name in self.relations:
            raise ValueError(f"relation {name} already defined")
        if arity < 1 or len(payloads) % arity:
            raise ValueError(f"relation {name}: {len(payloads)} values do not make rows "
                             f"of arity {arity}")
        indices = self._interner.intern_all(payloads)
        return self._store(name, arity, frozenset(zip(*[iter(indices)] * arity)))

    def _store(self, name: str, arity: int, rows: frozenset[tuple[int, ...]]) -> Relation:
        relation = self.relations[name] = Relation(name, arity, rows, self.values)
        return relation

    @property
    def domain(self) -> tuple[Value, ...]:
        return tuple(self.values)

    def value(self, payload: Payload) -> Value | None:
        """The interned value for a payload, or None if it is not in the domain."""
        return self._interner.lookup(payload)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {n: r.payload_rows() for n, r in self.relations.items()}
        return mine == {n: r.payload_rows() for n, r in other.relations.items()}

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}/{r.arity}:{len(r.rows)}" for n, r in sorted(self.relations.items()))
        return f"Database({parts})"


class Assignment(Mapping):
    """A finite partial mapping from variable names to values. Immutable."""

    __slots__ = ("_bindings", "_hash")

    def __init__(self, bindings: Mapping[str, Value] | Iterable[tuple[str, Value]] = ()):
        self._bindings = dict(bindings)
        self._hash: int | None = None

    def __getitem__(self, variable: str) -> Value:
        return self._bindings[variable]

    def __iter__(self) -> Iterator[str]:
        return iter(self._bindings)

    def __len__(self) -> int:
        return len(self._bindings)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._bindings.items()))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Assignment):
            return self._bindings == other._bindings
        return NotImplemented

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}->{v.payload!r}" for k, v in sorted(self._bindings.items()))
        return "{" + inner + "}"

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(self._bindings)

    def restrict(self, variables: Iterable[str]) -> "Assignment":
        """Keep only the given variables; their order fixes iteration order."""
        bindings = self._bindings
        out: dict[str, Value] = {}
        for v in variables:
            if v in bindings:
                out[v] = bindings[v]
        return Assignment(out)

    def as_payload_dict(self) -> dict[str, Payload]:
        return {v: x.payload for v, x in self._bindings.items()}


def hamming_distance(a: Assignment, b: Assignment, variables: Iterable[str]) -> int:
    """Number of the given variables on which the two assignments differ.

    Raises UnboundVariable if either assignment leaves one of them unbound.
    """
    count = 0
    for v in variables:
        try:
            if a[v] != b[v]:
                count += 1
        except KeyError:
            raise UnboundVariable(f"variable {v} unbound in distance computation") from None
    return count


@dataclass(frozen=True)
class Aggregator:
    """Combines the multiset of pairwise distances into a diversity score.

    Custom aggregators receive the distances as a sorted tuple, which makes
    them symmetric by construction; sum and min are exact over integers, and
    min of an empty multiset (a single answer) is +infinity.
    """

    kind: str  # "sum" | "min" | "custom"
    fn: Callable[[tuple[int, ...]], float] | None = None
    monotone: bool = True
    name: str = ""

    def aggregate(self, distances: Iterable[int]) -> float:
        ds = tuple(distances)
        if self.kind == "sum":
            return sum(ds)
        if self.kind == "min":
            return min(ds) if ds else math.inf
        assert self.fn is not None
        return self.fn(tuple(sorted(ds)))

    @property
    def label(self) -> str:
        return self.name or self.kind


SUM = Aggregator("sum", name="sum")
MIN = Aggregator("min", name="min")


def custom_aggregator(fn: Callable[[tuple[int, ...]], float], *, monotone: bool,
                      name: str = "custom") -> Aggregator:
    return Aggregator("custom", fn=fn, monotone=monotone, name=name)


def pair_order(k: int) -> tuple[tuple[int, int], ...]:
    """The k(k-1)/2 slot pairs (i, j) with i < j, row-major: the order of
    every pair-distance vector."""
    return tuple((i, j) for i in range(k) for j in range(i + 1, k))


def distance_rows(rows: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The Hamming distances of row i to rows 0..i, for i = 0, 1, ...: the
    lower triangle of the rows' distance matrix, a row at a time, as
    `best_tuple` reads it. The rows are value-index tuples of one width
    over one value table, so a distance counts the columns whose indices
    differ; a row's distance to itself is 0 without a count."""
    ne = operator.ne
    for i, a in enumerate(rows):
        row = [sum(map(ne, a, b)) for b in rows[:i]]
        row.append(0)
        yield row


def best_tuple(rows: Iterator[Sequence[int]], n: int, k: int, aggregator: Aggregator,
               top: int, *, distinct: bool, limit: float = math.inf,
               refusal: Exception | None = None) -> tuple[float, tuple[int, ...]] | None:
    """The sorted k-tuple of n rows whose pair distances aggregate highest,
    as (value, tuple), or None when there is no tuple. The aggregator must
    be monotone.

    `rows` yields row i of the distance matrix, at least its distances to
    rows 0..i, when the search first reaches row i; the search only ever
    moves one row past the rows made so far. The tuples are non-decreasing,
    or when `distinct` strictly increasing with no zero distance, since two
    distinct rows may agree on every column.

    A depth-first branch and bound in `itertools` order: a prefix is cut
    when even `top`, the largest distance, on every pair still open cannot
    beat the best value found, and the search stops at the ceiling, every
    pair at `top`. The best is replaced only by a greater value, so the
    result is the first optimum in that order, as plain enumeration finds.
    The distances of a prefix are collected column by column, not in
    `pair_order`. Every node visited (each prefix extended or scored) counts
    one, and a visit past `limit` raises `refusal`. At k = 0 the empty tuple
    is the one candidate.
    """
    aggregate = aggregator.aggregate
    if k == 0:
        return aggregate(()), ()
    pairs = k * (k - 1) // 2
    ceiling = aggregate([top] * pairs)
    step = 1 if distinct else 0
    matrix: list[Sequence[int]] = []
    best = best_picked = None
    # One frame per chosen prefix: the rows that may extend it, the prefix,
    # and the distances among its rows.
    frames = [(iter(range(n - (k - 1) * step)), (), [])]
    visits = 0
    while frames:
        options, chosen, dists = frames[-1]
        i = next(options, None)
        if i is None:
            frames.pop()
            continue
        visits += 1
        if visits > limit:
            raise refusal
        if i == len(matrix):
            matrix.append(next(rows))
        row = matrix[i]
        added = [row[j] for j in chosen]
        if distinct and 0 in added:
            continue
        grown = dists + added
        picked = chosen + (i,)
        if len(picked) == k:
            value = aggregate(grown)
            if best is None or value > best:
                best, best_picked = value, picked
                if best == ceiling:
                    break
        elif best is None or aggregate(grown + [top] * (pairs - len(grown))) > best:
            depth = len(picked)
            frames.append((iter(range(i + step, n - (k - 1 - depth) * step)), picked, grown))
    return None if best is None else (best, best_picked)


def pairwise_distances(answers: Sequence[Assignment], variables: Iterable[str]) -> list[int]:
    """All k(k-1)/2 pairwise Hamming distances, in `pair_order`."""
    xs = tuple(variables)
    return [hamming_distance(answers[i], answers[j], xs) for i, j in pair_order(len(answers))]


def diversity_of_set(aggregator: Aggregator, answers: Sequence[Assignment],
                     variables: Iterable[str]) -> float:
    """Aggregate of all pairwise distances of the given answers."""
    return aggregator.aggregate(pairwise_distances(answers, variables))


@dataclass
class Outcome:
    """Result of a diversity solve: decision, best achievable score, witness."""

    decision: bool
    diversity: float | None
    witness: tuple[Assignment, ...] | None = None
    stats: dict = field(default_factory=dict)
