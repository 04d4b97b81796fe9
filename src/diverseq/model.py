"""Domain values, relations, database instances, assignments, and diversity.

The diversity of a collection of answers is an aggregate (sum, min, or a
custom symmetric function) of all pairwise Hamming distances, where the
Hamming distance counts the free variables on which two answers disagree.
Values, relations, and assignments are immutable; a database is append-only
while loading and read-only afterwards. All operations are pure.
"""

from __future__ import annotations

import math
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
    the values in index order."""

    def __init__(self) -> None:
        self._index: dict[tuple[type, Payload], int] = {}
        self.values: list[Value] = []

    def intern(self, payload: Payload) -> int:
        key = (type(payload), payload)
        index = self._index.get(key)
        if index is None:
            index = self._index[key] = len(self.values)
            self.values.append(Value(payload, index))
        return index

    def lookup(self, payload: Payload) -> Value | None:
        index = self._index.get((type(payload), payload))
        return None if index is None else self.values[index]


class _IndexRows:
    """Rows stored as tuples of indices into `values`, a table of interned
    values. Within one table index equality is value equality, and sorting
    index tuples orders rows by their values' load order."""

    rows: frozenset[tuple[int, ...]]
    values: tuple[Value, ...]

    def sorted_rows(self) -> list[tuple[Value, ...]]:
        values = self.values
        return [tuple([values[i] for i in row]) for row in sorted(self.rows)]

    def payload_rows(self) -> set[tuple[Payload, ...]]:
        values = self.values
        return {tuple([values[i].payload for i in row]) for row in self.rows}


@dataclass(frozen=True)
class Relation(_IndexRows):
    """A named relation: a duplicate-free set of equal-length rows, each a
    tuple of indices into the database's value table `values`."""

    name: str
    arity: int
    rows: frozenset[tuple[int, ...]]
    values: tuple[Value, ...] = field(repr=False)

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.arity:
                raise ValueError(
                    f"relation {self.name}: row of length {len(row)}, arity is {self.arity}"
                )


class Database:
    """A database instance under active-domain semantics.

    The domain is exactly the set of values appearing in some row, in load
    order. Values are interned per database and rows hold their indices, so
    the solvers join and compare integers; `Value` objects are built only
    for answers handed out.
    """

    def __init__(self, relations: Mapping[str, tuple[int, Iterable[Sequence[Payload]]]] | None = None):
        self._interner = _Interner()
        self.relations: dict[str, Relation] = {}
        if relations:
            for name, (arity, rows) in relations.items():
                self.add_relation(name, arity, rows)

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
        if name in self.relations:
            raise ValueError(f"relation {name} already defined")
        intern = self._interner.intern
        interned = []
        for row in rows:
            if len(row) != arity:
                raise ValueError(f"relation {name}: row {row!r} does not match arity {arity}")
            interned.append(tuple([intern(p) for p in row]))
        relation = Relation(name, arity, frozenset(interned), self.domain)
        self.relations[name] = relation
        return relation

    @property
    def domain(self) -> tuple[Value, ...]:
        return tuple(self._interner.values)

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
