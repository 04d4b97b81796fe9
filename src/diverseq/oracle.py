"""Ground-truth brute force and instance generators for hardness reductions.

Everything here is deliberately naive: answers come from backtracking search
in body order, diversity maxima from exhausting all k-subsets, and the
generators build the classic reductions (independent set via per-edge
relations, independent set via one wide relation, list coloring via a
two-disjunct union). These are the reference implementations every solver is
tested against. Both searches spend a budget: the enumeration counts the rows
it tries, the diversity search its candidate sets' pair distances.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Mapping, Sequence

from .errors import (
    DEFAULT_BUDGET,
    CombinatorialBudgetExceeded,
    DegreeTooHigh,
    NotBipartiteOrNot3Regular,
)
from .model import Aggregator, Assignment, Database, Value, _Record
from .queries import (
    Atom,
    Conjunct,
    Constant,
    Literal,
    Query,
    Variable,
    relation_of,
    satisfies_literal,
)


class Graph(_Record, frozen=True):
    """A simple undirected graph on vertices 1..n."""

    _fields = ("n", "edges")

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        for u, v in edges:
            if not (1 <= u < v <= n):
                raise ValueError(f"bad edge ({u}, {v}) for n={n}")
        self.__dict__.update(n=n, edges=edges)

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "Graph":
        normalized = frozenset(
            (min(u, v), max(u, v)) for u, v in edges if u != v
        )
        return cls(n, normalized)

    def sorted_edges(self) -> list[tuple[int, int]]:
        return sorted(self.edges)

    def degree(self, v: int) -> int:
        return sum(1 for e in self.edges if v in e)

    def neighbors(self, v: int) -> set[int]:
        return {u if w == v else w for u, w in self.edges if v in (u, w)}

    def bipartition(self) -> tuple[set[int], set[int]] | None:
        color: dict[int, int] = {}
        for start in range(1, self.n + 1):
            if start in color:
                continue
            color[start] = 0
            queue = [start]
            while queue:
                v = queue.pop()
                for u in self.neighbors(v):
                    if u not in color:
                        color[u] = 1 - color[v]
                        queue.append(u)
                    elif color[u] == color[v]:
                        return None
        left = {v for v, c in color.items() if c == 0}
        return left, set(range(1, self.n + 1)) - left


def independent_sets(g: Graph, size: int) -> Iterable[tuple[int, ...]]:
    for combo in itertools.combinations(range(1, g.n + 1), size):
        if all((u, v) not in g.edges for u, v in itertools.combinations(combo, 2)):
            yield combo


def has_independent_set(g: Graph, size: int) -> bool:
    return next(iter(independent_sets(g, size)), None) is not None


def has_admissible_coloring(g: Graph, lists: Mapping[int, frozenset[int]]) -> bool:
    """List-coloring feasibility by backtracking."""
    vertices = sorted(range(1, g.n + 1), key=lambda v: len(lists.get(v, ())))
    coloring: dict[int, int] = {}

    def assign(i: int) -> bool:
        if i == len(vertices):
            return True
        v = vertices[i]
        for c in sorted(lists.get(v, frozenset())):
            if all(coloring.get(u) != c for u in g.neighbors(v)):
                coloring[v] = c
                if assign(i + 1):
                    return True
                del coloring[v]
        return False

    return assign(0)


# --- answer enumeration -------------------------------------------------------


def enumerate_answers(query: Query, db: Database, *,
                      budget: int = DEFAULT_BUDGET) -> frozenset[Assignment]:
    """Exactly the query's answers over its free variables, by backtracking
    over the positive atoms in body order.

    Each row tried against a partial assignment costs 1, and a disjunct
    that costs more than `budget` is refused (CombinatorialBudgetExceeded).
    """
    answers: set[Assignment] = set()
    for conjunct in query.conjuncts:
        answers |= _enumerate_conjunct(query, conjunct, db, budget)
    return frozenset(answers)


def _enumerate_conjunct(query: Query, conjunct: Conjunct, db: Database,
                        budget: int) -> set[Assignment]:
    atoms = conjunct.positive_atoms
    negatives = conjunct.negative_literals
    # Resolved up front, so an atom that names no relation or has the wrong
    # arity is refused even when an earlier atom matches no row; a negative
    # literal's atom too, even when no binding reaches it.
    rows = [relation_of(atom, db).sorted_rows() for atom in atoms]
    for lit in negatives:
        relation_of(lit.atom, db)
    out: set[Assignment] = set()
    tried = 0

    def backtrack(i: int, bound: dict[str, Value]) -> None:
        nonlocal tried
        if i == len(atoms):
            indices = {v: x.index for v, x in bound.items()}
            if all(satisfies_literal(lit, indices, db) for lit in negatives):
                out.add(Assignment(bound).restrict(query.free_vars))
            return
        atom = atoms[i]
        for row in rows[i]:
            tried += 1
            if tried > budget:
                raise CombinatorialBudgetExceeded(
                    f"the answer enumeration tries over {budget} rows")
            extension = dict(bound)
            ok = True
            for term, value in zip(atom.terms, row):
                if isinstance(term, Constant):
                    interned = db.value(term.payload)
                    if interned is None or interned != value:
                        ok = False
                        break
                else:
                    prior = extension.get(term.name)
                    if prior is None:
                        extension[term.name] = value
                    elif prior != value:
                        ok = False
                        break
            if ok:
                backtrack(i + 1, extension)

    backtrack(0, {})
    return out


def bruteforce_diversity(answers: Iterable[Assignment], k: int,
                         aggregator: Aggregator, *,
                         allow_duplicates: bool = False,
                         budget: int = DEFAULT_BUDGET
                         ) -> tuple[float | None, tuple[Assignment, ...] | None]:
    """Exact maximum diversity over all k-subsets (or k-multisets) of answers.

    Returns (None, None) when no candidate set exists. The reported maximizer
    is the lexicographically least one under the canonical answer order.
    Each candidate set costs its C(k, 2) pair distances (at least 1).
    """
    pool = list(answers)
    if not pool:
        return (None, None) if k > 0 else (aggregator.aggregate(()), ())
    cost = max(1, math.comb(k, 2))
    if cost > budget:
        raise CombinatorialBudgetExceeded(
            f"one candidate set costs {cost} pair distances, over the budget of {budget}"
        )
    xs = sorted(pool[0].variables)
    pool.sort(key=lambda a: tuple(a[x].index for x in xs))
    n = len(pool)
    count = math.comb(n + k - 1, k) if allow_duplicates else math.comb(n, k)
    if count * cost > budget:
        raise CombinatorialBudgetExceeded(
            f"{count} candidate sets of {cost} pair distances exceed the budget of {budget}"
        )
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
    if best is None:
        return None, None
    return best, tuple(pool[i] for i in best_combo)


# --- reduction generators --------------------------------------------------------


class DiverseInstance(_Record, frozen=True):
    """A generated problem instance with its intended thresholds."""

    _fields = ("db", "query", "k", "d_sum", "d_min")

    def __init__(self, db: Database, query: Query, k: int, d_sum: int, d_min: int) -> None:
        self.__dict__.update(db=db, query=query, k=k, d_sum=d_sum, d_min=d_min)


def independent_set_to_diverse_query(g: Graph, s: int) -> DiverseInstance:
    """Per-edge binary relations; an independent set of size s exists iff
    s answers pairwise differ on all m+1 variables.

    The query grows with the graph (one atom per edge) while k = s; reaching
    d means every pair of chosen answers differs everywhere.
    """
    edges = g.sorted_edges()
    m = len(edges)
    db = Database()
    db.add_relation("R", 1, [(i,) for i in range(1, g.n + 1)])
    for j, (u, v) in enumerate(edges, start=1):
        rows = []
        for i in range(1, g.n + 1):
            rows.append((i, 0) if i in (u, v) else (i, i))
        db.add_relation(f"R{j}", 2, rows)
    variables = ["v"] + [f"x{j}" for j in range(1, m + 1)]
    literals = [Literal(Atom("R", (Variable("v"),)))]
    for j in range(1, m + 1):
        literals.append(Literal(Atom(f"R{j}", (Variable("v"), Variable(f"x{j}")))))
    query = Query("Q", tuple(variables), (Conjunct(tuple(literals)),))
    return DiverseInstance(
        db=db,
        query=query,
        k=s,
        d_sum=math.comb(s, 2) * (m + 1),
        d_min=m + 1,
    )


def independent_set_to_wide_relation(g: Graph, s: int) -> DiverseInstance:
    """One five-column relation, one row per vertex; fixed query shape.

    Each edge claims the lowest slot still free for both endpoints (degree
    at most three guarantees one exists), marking both rows there. s answers
    pairwise differing on all five columns exist iff the graph has an
    independent set of size s.
    """
    for v in range(1, g.n + 1):
        if g.degree(v) > 3:
            raise DegreeTooHigh(f"vertex {v} has degree {g.degree(v)}")
    slots = {v: [f"free_{v}"] * 5 for v in range(1, g.n + 1)}
    for j, (u, v) in enumerate(g.sorted_edges(), start=1):
        t = next(
            (
                t
                for t in range(5)
                if slots[u][t] == f"free_{u}" and slots[v][t] == f"free_{v}"
            ),
            None,
        )
        assert t is not None, "degree bound guarantees a free slot"
        slots[u][t] = f"taken_{j}"
        slots[v][t] = f"taken_{j}"
    db = Database()
    db.add_relation("R", 5, [tuple(slots[v]) for v in range(1, g.n + 1)])
    variables = tuple(f"x{i}" for i in range(1, 6))
    query = Query(
        "Q",
        variables,
        (Conjunct((Literal(Atom("R", tuple(Variable(v) for v in variables))),)),),
    )
    return DiverseInstance(
        db=db, query=query, k=s, d_sum=5 * math.comb(s, 2), d_min=5
    )


_COLOR_RELATIONS: dict[frozenset[int], str] = {
    frozenset({1}): "R_1",
    frozenset({2}): "R_2",
    frozenset({3}): "R_3",
    frozenset({1, 2}): "R_12",
    frozenset({1, 3}): "R_13",
    frozenset({2, 3}): "R_23",
    frozenset({1, 2, 3}): "R_123",
}


def list_coloring_database() -> Database:
    """The fixed database of the union-query reduction.

    One ternary relation per nonempty color list holds the constant triples
    of its colors; S and Sp hold the two flag values. R_0 stays empty so that
    a vertex with an empty list yields an unsatisfiable atom.
    """
    db = Database()
    db.add_relation("R_0", 3, [])
    for colors, name in sorted(_COLOR_RELATIONS.items(), key=lambda kv: kv[1]):
        db.add_relation(name, 3, [(c, c, c) for c in sorted(colors)])
    db.add_relation("S", 1, [(0,)])
    db.add_relation("Sp", 1, [(1,)])
    return db


def list_coloring_to_union_query(g: Graph,
                                 lists: Mapping[int, frozenset[int]]) -> DiverseInstance:
    """Two-disjunct union over a fixed database; k = 2, d = 3n + 1.

    Needs a bipartite 3-regular graph. Each disjunct encodes one side: a
    vertex's atom ties the variables of its three incident edges to a single
    color from its list, and a one-bit flag variable separates the disjuncts.
    Two answers differing everywhere correspond to an admissible coloring.
    """
    parts = g.bipartition()
    if parts is None or any(g.degree(v) != 3 for v in range(1, g.n + 1)):
        raise NotBipartiteOrNot3Regular("need a bipartite 3-regular graph")
    left, right = (sorted(parts[0]), sorted(parts[1]))
    if len(left) != len(right):
        raise NotBipartiteOrNot3Regular("parts must have equal size")
    n = len(left)
    edges = g.sorted_edges()
    edge_index = {e: j for j, e in enumerate(edges, start=1)}

    def relation_for(v: int) -> str:
        colors = frozenset(lists.get(v, frozenset()))
        if not colors:
            return "R_0"
        if not colors <= {1, 2, 3}:
            raise ValueError(f"list of vertex {v} goes beyond colors 1..3")
        return _COLOR_RELATIONS[colors]

    def side_literals(side: Sequence[int], flag_relation: str) -> tuple[Literal, ...]:
        literals = []
        for v in side:
            incident = sorted(
                edge_index[(min(v, u), max(v, u))] for u in g.neighbors(v)
            )
            terms = tuple(Variable(f"x{j}") for j in incident)
            literals.append(Literal(Atom(relation_for(v), terms)))
        literals.append(Literal(Atom(flag_relation, (Variable("y"),))))
        return tuple(literals)

    variables = tuple(f"x{j}" for j in range(1, len(edges) + 1)) + ("y",)
    query = Query(
        "Q",
        variables,
        (
            Conjunct(side_literals(left, "S")),
            Conjunct(side_literals(right, "Sp")),
        ),
    )
    d = 3 * n + 1
    return DiverseInstance(
        db=list_coloring_database(), query=query, k=2, d_sum=d, d_min=d
    )
