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


class _Record:
    """Named fields with the value semantics `dataclasses` would generate,
    without its import or the `exec` of each generated method at import.

    A subclass names its fields in `_fields` and stores them in its
    `__init__`; a frozen one writes them into `self.__dict__`, which its
    refusal of assignment does not guard. Two records are equal when they
    are of one class and their fields are equal. The repr shows the fields,
    and the hash is that of their tuple, but for those in `_hidden`, which
    only equality reads. A class declared with `frozen=True` is hashable and
    refuses assignment with an AttributeError; any other is unhashable.
    """

    _fields: tuple[str, ...] = ()
    _hidden: tuple[str, ...] = ()

    def __init_subclass__(cls, *, frozen: bool = False, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._shown = tuple(f for f in cls._fields if f not in cls._hidden)
        cls._compared = staticmethod(_fields_of(cls._fields))
        if frozen:
            cls._hashed = staticmethod(_fields_of(cls._shown))
            cls.__setattr__ = cls.__delattr__ = _Record._refuse
        else:
            cls.__hash__ = None

    def _refuse(self, name: str, *value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._compared(self) == self._compared(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._hashed(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._shown)
        return f"{type(self).__qualname__}({fields})"


def _fields_of(names: tuple[str, ...]) -> Callable[[object], tuple]:
    """The function from an object to the tuple of its attributes `names`."""
    get = operator.attrgetter(*names)
    return get if len(names) > 1 else lambda record: (get(record),)


class _Interner:
    """Assigns dense indices to payloads in first-appearance order and keeps
    the values in index order. Payloads of different types never share an
    index, as `Value` equality requires: each type has its own index."""

    def __init__(self) -> None:
        self._index: dict[type, dict[Payload, int]] = {}
        self.values: list[Value] = []

    def intern_all(self, payloads: Sequence[Payload]) -> list[int]:
        """The index of each payload in turn, interning each payload not
        yet seen, in first-appearance order: when the payloads share one
        type, once per distinct payload."""
        values, kinds = self.values, set(map(type, payloads))
        if len(kinds) == 1:
            index = self._index.setdefault(kinds.pop(), {})
            for payload in dict.fromkeys(payloads):
                if payload not in index:
                    position = index[payload] = len(values)
                    values.append(Value(payload, position))
            return list(map(index.__getitem__, payloads))
        indexes, positions = {kind: self._index.setdefault(kind, {}) for kind in kinds}, []
        for payload in payloads:
            index = indexes[type(payload)]
            position = index.get(payload)
            if position is None:
                position = index[payload] = len(values)
                values.append(Value(payload, position))
            positions.append(position)
        return positions

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


class Relation(_IndexRows, _Record, frozen=True):
    """A named relation: a duplicate-free set of rows, each a tuple of
    `arity` indices into `values`, the value table of its database, which
    the database's relations share."""

    _fields = ("name", "arity", "rows", "values")
    _hidden = ("values",)  # a list: not hashable

    def __init__(self, name: str, arity: int, rows: frozenset[tuple[int, ...]],
                 values: Sequence[Value]) -> None:
        self.__dict__.update(name=name, arity=arity, rows=rows, values=values)


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
    grows, one `Value` per distinct value, and rows hold their indices, so
    the solvers join and compare integers; `Assignment` objects are built
    only for answers handed out.
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
        rows = list(rows)
        check_arity(name, arity, rows)
        self.add_relations([(name, arity, len(rows))], list(itertools.chain.from_iterable(rows)))
        return self.relations[name]

    def add_relations(self, shapes: Sequence[tuple[str, int, int]],
                      payloads: Sequence[Payload]) -> None:
        """Add relations given as (name, arity, number of rows) each, and
        all their rows' payloads end to end, relation after relation. The
        payloads are interned in that order in one pass, and each relation's
        rows are cut from the one list of their indices. A relation of
        arity 0 and at least one row holds the empty row."""
        defined = set(self.relations)
        for name, arity, count in shapes:
            if name in defined:
                raise ValueError(f"relation {name} already defined")
            defined.add(name)
            if arity < 0 or count < 0:
                raise ValueError(f"relation {name}: {count} rows of arity {arity}")
        if sum(arity * count for _, arity, count in shapes) != len(payloads):
            raise ValueError(f"{len(payloads)} values do not make the rows of {shapes!r}")
        indices = iter(self._interner.intern_all(payloads))
        for name, arity, count in shapes:
            run = [itertools.islice(indices, arity * count)] * arity
            rows = frozenset(zip(*run)) if arity else frozenset(itertools.repeat((), count))
            self.relations[name] = Relation(name, arity, rows, self.values)

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


class Aggregator(_Record, frozen=True):
    """Combines the multiset of pairwise distances into a diversity score.

    Custom aggregators receive the distances as a sorted tuple, which makes
    them symmetric by construction; sum and min are exact over integers, and
    min of an empty multiset (a single answer) is +infinity.
    """

    _fields = ("kind", "fn", "monotone", "name")  # kind: "sum" | "min" | "custom"

    def __init__(self, kind: str, fn: Callable[[tuple[int, ...]], float] | None = None,
                 monotone: bool = True, name: str = "") -> None:
        self.__dict__.update(kind=kind, fn=fn, monotone=monotone, name=name)

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


def _sorted_tuples(n: int, k: int) -> int:
    """How many sorted k-tuples n rows make: C(n + k - 1, k), and 1, the
    empty tuple, when k = 0, even over no rows."""
    return math.comb(n + k - 1, k) if k else 1


def _slot_tuples(n: int, k: int, stateless: bool, table_cap: int) -> int | None:
    """The slot tuples a table over n rows counts: all n^k of them, or for a
    stateless table the sorted ones it stores. None when the count has 64
    bits more than table_cap, so surely exceeds it: a count far past the cap
    could take minutes to compute and be too long to print."""
    if n > 1:
        bits = (math.lgamma(n + k) - math.lgamma(k + 1) - math.lgamma(n)) / math.log(2) \
            if stateless else k * math.log2(n)
        if bits > max(table_cap, 1).bit_length() + 64:
            return None
    return _sorted_tuples(n, k) if stateless else n ** k


def distance_rows(rows: Sequence[Sequence[int]]) -> Iterator[list[int]]:
    """The Hamming distances of row i to rows 0..i, for i = 0, 1, ...: the
    lower triangle of the rows' distance matrix, a row at a time, for a
    reader of every pair. The rows are value-index tuples of one width
    over one value table, so a distance counts the columns whose indices
    differ; a row's distance to itself is 0 without a count."""
    ne = operator.ne
    for i, a in enumerate(rows):
        row = [sum(map(ne, a, b)) for b in rows[:i]]
        row.append(0)
        yield row


def column_ceiling(rows: Sequence[Sequence[int]], k: int, aggregator: Aggregator) -> float:
    """A bound on the aggregate of any k of `rows`, value-index tuples of
    one width, repeats allowed, under a monotone aggregator.

    Under sum and min the bound is per column (Plotkin, IRE Trans.
    Information Theory 6(4), 1960): k rows over a column holding v distinct
    values agree on it in at least as many pairs as the most even split of
    k over min(v, k) values makes, so the column adds at most C(k, 2) less
    those pairs to the sum. The sum over the columns bounds the sum, and
    that divided by C(k, 2), rounded down, bounds the min. Any other
    aggregator is bounded by every pair at the rows' width.
    """
    pairs = k * (k - 1) // 2
    width = len(rows[0]) if rows else 0
    if aggregator.kind not in ("sum", "min") or not pairs:
        return aggregator.aggregate([width] * pairs)
    total = pairs * width
    for v in map(len, map(set, zip(*rows))):
        if v < k:
            q, r = divmod(k, v)
            total -= r * (q + 1) * q // 2 + (v - r) * q * (q - 1) // 2
    return total if aggregator.kind == "sum" else total // pairs


# The distances `best_tuple` counts for a row when a prefix first ends in
# it: to itself and the next seven rows.
_FIRST_RUN = 8


def best_tuple(rows: Sequence[Sequence[int]], k: int, aggregator: Aggregator, *,
               distinct: bool, limit: float = math.inf,
               refusal: Exception | None = None) -> tuple[float, tuple[int, ...]] | None:
    """The sorted k-tuple of `rows` whose pair distances aggregate highest,
    as (value, tuple of row positions), or None when there is no tuple. The
    aggregator must be monotone.

    The rows are value-index tuples of one width over one value table, so
    a pair's distance counts the columns whose indices differ. Distances
    are counted as the search reaches them and kept: row j holds its
    distances to rows j, j+1, ..., counted in runs, the first when a
    prefix first ends in row j and the next whenever the search reads past
    them, each as long as what the row holds. The search reads a row's
    later partners in order, so a row holds at most twice the distances
    the search has read from it, or the first run, and no cut waits for
    the whole triangle. The tuples are non-decreasing, or when
    `distinct` strictly increasing with no zero distance, since two
    distinct rows may agree on every column.

    A depth-first branch and bound in `itertools` order: a prefix is cut
    when even the rows' width, the largest distance, on every pair still
    open cannot beat the best value found. The search stops at a ceiling no
    tuple exceeds: first every pair at the width, and once a complete tuple
    has scored below that, `column_ceiling`, which is computed only then.
    The best is replaced only by a greater value, so the result is the
    first optimum in that order, as plain enumeration finds. The distances
    of a prefix are collected column by column, not in `pair_order`. Every
    node visited (each prefix extended or scored) counts one, and a visit
    past `limit` raises `refusal`. At k = 0 the empty tuple is the one
    candidate.
    """
    aggregate = aggregator.aggregate
    if k == 0:
        return aggregate(()), ()
    n = len(rows)
    top = len(rows[0]) if rows else 0
    pairs = k * (k - 1) // 2
    ceiling = aggregate([top] * pairs)
    tightened = False
    step = 1 if distinct else 0
    ne = operator.ne
    # near[j][i - j] is the distance of rows j and i, for i from j on.
    near: dict[int, list[int]] = {}

    def count(j: int, stop: int) -> None:
        # Row j's distances to the rows before `stop` that it lacks.
        known = near.setdefault(j, [0])
        a = rows[j]
        known.extend([sum(map(ne, a, b)) for b in rows[j + len(known):stop]])

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
        try:
            added = [near[j][i - j] for j in chosen]
        except IndexError:
            for j in chosen:
                if i - j == len(near[j]):
                    count(j, j + 2 * len(near[j]))
            added = [near[j][i - j] for j in chosen]
        if distinct and 0 in added:
            continue
        grown = dists + added
        picked = chosen + (i,)
        if len(picked) == k:
            value = aggregate(grown)
            if best is None or value > best:
                best, best_picked = value, picked
                if best < ceiling and not tightened:
                    ceiling, tightened = column_ceiling(rows, k, aggregator), True
                if best >= ceiling:
                    break
        elif best is None or aggregate(grown + [top] * (pairs - len(grown))) > best:
            depth = len(picked)
            frames.append((iter(range(i + step, n - (k - 1 - depth) * step)), picked, grown))
            if i not in near:
                count(i, i + _FIRST_RUN)
    return None if best is None else (best, best_picked)


def pairwise_distances(answers: Sequence[Assignment], variables: Iterable[str]) -> list[int]:
    """All k(k-1)/2 pairwise Hamming distances, in `pair_order`."""
    xs = tuple(variables)
    return [hamming_distance(answers[i], answers[j], xs) for i, j in pair_order(len(answers))]


def diversity_of_set(aggregator: Aggregator, answers: Sequence[Assignment],
                     variables: Iterable[str]) -> float:
    """Aggregate of all pairwise distances of the given answers."""
    return aggregator.aggregate(pairwise_distances(answers, variables))


class Outcome(_Record):
    """Result of a diversity solve: decision, best achievable score, witness."""

    _fields = ("decision", "diversity", "witness", "stats")

    def __init__(self, decision: bool, diversity: float | None,
                 witness: tuple[Assignment, ...] | None = None, stats: dict | None = None) -> None:
        self.decision = decision
        self.diversity = diversity
        self.witness = witness
        self.stats = {} if stats is None else stats
