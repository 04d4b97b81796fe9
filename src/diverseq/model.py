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

from .errors import IncompatibleAssignments, UnboundVariable

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
    """Assigns dense indices to payloads in first-appearance order."""

    def __init__(self) -> None:
        self._by_key: dict[tuple[type, Payload], Value] = {}

    def intern(self, payload: Payload) -> Value:
        key = (type(payload), payload)
        value = self._by_key.get(key)
        if value is None:
            value = Value(payload, len(self._by_key))
            self._by_key[key] = value
        return value

    def lookup(self, payload: Payload) -> Value | None:
        return self._by_key.get((type(payload), payload))

    def values(self) -> tuple[Value, ...]:
        return tuple(self._by_key.values())


@dataclass(frozen=True)
class Relation:
    """A named relation: a duplicate-free set of equal-length value tuples."""

    name: str
    arity: int
    rows: frozenset[tuple[Value, ...]]

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.arity:
                raise ValueError(
                    f"relation {self.name}: row of length {len(row)}, arity is {self.arity}"
                )

    def sorted_rows(self) -> list[tuple[Value, ...]]:
        return sorted(self.rows, key=lambda r: tuple(v.index for v in r))


class Database:
    """A database instance under active-domain semantics.

    The domain is exactly the set of values appearing in some row, in load
    order. Values are interned per database, so equality checks inside the
    solvers reduce to integer comparisons.
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
        interned = []
        for row in rows:
            if len(row) != arity:
                raise ValueError(f"relation {name}: row {row!r} does not match arity {arity}")
            interned.append(tuple(self._interner.intern(p) for p in row))
        relation = Relation(name, arity, frozenset(interned))
        self.relations[name] = relation
        return relation

    @property
    def domain(self) -> tuple[Value, ...]:
        return self._interner.values()

    def value(self, payload: Payload) -> Value | None:
        """The interned value for a payload, or None if it is not in the domain."""
        return self._interner.lookup(payload)

    def max_relation_size(self) -> int:
        return max((len(r.rows) for r in self.relations.values()), default=0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {n: {tuple(v.payload for v in row) for row in r.rows} for n, r in self.relations.items()}
        theirs = {n: {tuple(v.payload for v in row) for row in r.rows} for n, r in other.relations.items()}
        return mine == theirs

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

    def compatible(self, other: "Assignment") -> bool:
        """True iff the two mappings agree on every shared variable."""
        a, b = self._bindings, other._bindings
        if len(b) < len(a):
            a, b = b, a
        return all(v not in b or b[v] == x for v, x in a.items())

    def merge(self, other: "Assignment") -> "Assignment":
        """Union of the two mappings; self wins on shared variables."""
        if not self.compatible(other):
            raise IncompatibleAssignments(f"cannot merge {self} with {other}")
        merged = dict(other._bindings)
        merged.update(self._bindings)
        return Assignment(merged)

    def intersect(self, other: "Assignment") -> "Assignment":
        """self restricted to the variables the two mappings share."""
        return Assignment(
            {v: x for v, x in self._bindings.items() if v in other._bindings}
        )

    def as_payload_dict(self) -> dict[str, Payload]:
        return {v: x.payload for v, x in self._bindings.items()}


EMPTY_ASSIGNMENT = Assignment()


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
    routing: str = ""
    stats: dict = field(default_factory=dict)
