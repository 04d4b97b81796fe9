"""Diversity solver for conjunctive queries with negation, bounded treewidth.

The dynamic program walks a nice tree decomposition bottom-up. Entries pair a
k-tuple of bag assignments with the pairwise free-variable distances their
extensions below the node realize:

    leaf       enumerate all bag assignments satisfying the covered literals
    introduce  cross with the candidate values of the new variable, re-check
               coverage
    forget     project the forgotten variable away, coalescing duplicates
    join       match identical bag tuples, add distances, subtract the overlap

A variable ranges only over its candidate values: those in its column of
every positive atom that mentions it. That loses no answer, and no node
table loses an entry that can reach the root: the query is safe, and every
positive atom mentioning a variable is covered below the node that forgets
it, so an assignment outside the candidates fails there at the latest.

Provenance mirrors the join-tree solver, so witnesses reconstruct the same way.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

from .errors import CorruptProvenance, TableGuardExceeded
from .model import (
    Aggregator,
    Assignment,
    Database,
    Outcome,
    Value,
    pair_order,
    pairwise_distances,
)
from .queries import Literal, Query, Variable, relation_of, satisfies_literal
from .structure import (
    NiceTreeDecomposition,
    TreeDecomposition,
    make_nice,
    tree_decompose,
    validate_decomposition,
)

DEFAULT_TABLE_CAP = 10_000_000


@dataclass
class BagTable:
    """Table at one decomposition node: (bag tuples, distance vector) -> refs.

    Bag assignments are value-index tuples over the sorted bag variables;
    refs holds one (child node, child entry key) provenance link per child.
    """

    node: int
    bag: tuple[str, ...]
    k: int
    entries: dict[tuple, tuple] = field(default_factory=dict)


class BagSolver:
    """Bottom-up sweep over one nice tree decomposition."""

    def __init__(self, query: Query, db: Database, k: int,
                 ntd: NiceTreeDecomposition, table_cap: int):
        self.query = query
        self.db = db
        self.k = k
        self.ntd = ntd
        self.table_cap = table_cap
        self.domain: list[Value] = list(db.domain)
        self.free = frozenset(query.free_vars)
        self.pairs = pair_order(k)
        self.literals: tuple[Literal, ...] = query.conjuncts[0].literals
        self.tables: dict[int, BagTable] = {}
        self.width = ntd.width
        self.max_table = 0
        self.candidates = self._candidate_values()
        # Literal positions per variable, so a bag's covered literals are
        # found without scanning the whole query; a ground literal is
        # covered by every bag.
        self.ground = [n for n, lit in enumerate(self.literals) if not lit.variables]
        self.literals_of: dict[str, list[int]] = {}
        for n, lit in enumerate(self.literals):
            for v in lit.variables:
                self.literals_of.setdefault(v, []).append(n)

    # -- helpers ------------------------------------------------------------

    def _candidate_values(self) -> dict[str, list[int]]:
        """Per variable, the sorted domain indices found in its column of
        every positive atom that mentions it."""
        found: dict[str, set[int]] = {}
        for lit in self.literals:
            if not lit.positive:
                continue
            rows = relation_of(lit.atom, self.db).rows
            for pos, term in enumerate(lit.atom.terms):
                if isinstance(term, Variable):
                    column = {row[pos].index for row in rows}
                    prior = found.get(term.name)
                    found[term.name] = column if prior is None else prior & column
        return {v: sorted(found[v]) for v in found}

    def bag_order(self, node: int) -> tuple[str, ...]:
        return tuple(sorted(self.ntd.bags[node]))

    def covered_literals(self, bag: frozenset[str]) -> list[Literal]:
        """The literals whose variables all lie in the bag, in query order."""
        near = sorted({n for v in bag for n in self.literals_of.get(v, ())}.union(self.ground))
        return [self.literals[n] for n in near if self.literals[n].variables <= bag]

    def satisfying_tuples(self, node: int) -> list[tuple[int, ...]]:
        """All candidate-value index tuples over the bag that satisfy the
        covered literals."""
        order = self.bag_order(node)
        lits = self.covered_literals(self.ntd.bags[node])
        options = [self.candidates[v] for v in order]
        if math.prod(len(o) for o in options) > self.table_cap:
            raise TableGuardExceeded(
                f"bag enumeration at node {node} exceeds {self.table_cap}"
            )
        out = []
        for combo in itertools.product(*options):
            assignment = Assignment(
                {v: self.domain[idx] for v, idx in zip(order, combo)}
            )
            if all(satisfies_literal(lit, assignment, self.db) for lit in lits):
                out.append(combo)
        return out

    def x_positions(self, order: Sequence[str]) -> list[int]:
        return [i for i, v in enumerate(order) if v in self.free]

    def check_bound(self, table: BagTable) -> None:
        bound = (
            len(self.domain) ** (self.k * (self.width + 1))
            * (len(self.free) + 1) ** len(self.pairs)
        )
        assert len(table.entries) <= bound, (
            f"bag table at node {table.node} holds {len(table.entries)} entries, "
            f"bound is {bound}"
        )
        self.max_table = max(self.max_table, len(table.entries))

    def guard(self, table: BagTable) -> None:
        if len(table.entries) > self.table_cap:
            raise TableGuardExceeded(
                f"table at node {table.node} exceeded {self.table_cap} entries"
            )

    # -- node rules ----------------------------------------------------------

    def leaf(self, node: int) -> BagTable:
        order = self.bag_order(node)
        sat = self.satisfying_tuples(node)
        if len(sat) ** self.k > self.table_cap:
            raise TableGuardExceeded(
                f"leaf table at node {node} would hold {len(sat) ** self.k} entries"
            )
        xpos = self.x_positions(order)
        table = BagTable(node=node, bag=order, k=self.k)
        for ptuple in itertools.product(sat, repeat=self.k):
            dvec = tuple(
                sum(1 for p in xpos if ptuple[i][p] != ptuple[j][p])
                for i, j in self.pairs
            )
            table.entries[(ptuple, dvec)] = ()
        self.check_bound(table)
        return table

    def introduce(self, node: int, child: int, z: str) -> BagTable:
        child_table = self.tables[child]
        order = self.bag_order(node)
        zpos = order.index(z)
        z_free = z in self.free
        lits = self.covered_literals(self.ntd.bags[node])
        z_values = self.candidates[z]

        # Per distinct child assignment: the satisfying extensions with z.
        extension_cache: dict[tuple, list[tuple[int, tuple[int, ...]]]] = {}

        def extensions(cpart: tuple) -> list[tuple[int, tuple[int, ...]]]:
            cached = extension_cache.get(cpart)
            if cached is not None:
                return cached
            found = []
            for idx in z_values:
                extended = cpart[:zpos] + (idx,) + cpart[zpos:]
                assignment = Assignment(
                    {v: self.domain[i] for v, i in zip(order, extended)}
                )
                if all(satisfies_literal(lit, assignment, self.db) for lit in lits):
                    found.append((idx, extended))
            extension_cache[cpart] = found
            return found

        table = BagTable(node=node, bag=order, k=self.k)
        out = table.entries
        for (ptuple, dvec), _ in child_table.entries.items():
            slot_options = [extensions(part) for part in ptuple]
            if any(not opts for opts in slot_options):
                continue
            for chosen in itertools.product(*slot_options):
                new_parts = tuple(ext for _, ext in chosen)
                if z_free:
                    new_dvec = tuple(
                        dvec[n] + (1 if chosen[i][0] != chosen[j][0] else 0)
                        for n, (i, j) in enumerate(self.pairs)
                    )
                else:
                    new_dvec = dvec
                key = (new_parts, new_dvec)
                if key not in out:
                    out[key] = ((child, (ptuple, dvec)),)
            self.guard(table)
        self.check_bound(table)
        return table

    def forget(self, node: int, child: int, z: str) -> BagTable:
        child_table = self.tables[child]
        child_order = self.bag_order(child)
        zpos = child_order.index(z)
        order = self.bag_order(node)
        table = BagTable(node=node, bag=order, k=self.k)
        out = table.entries
        for (ptuple, dvec) in child_table.entries:
            projected = tuple(p[:zpos] + p[zpos + 1:] for p in ptuple)
            key = (projected, dvec)
            if key not in out:
                out[key] = ((child, (ptuple, dvec)),)
        self.check_bound(table)
        return table

    def join(self, node: int, left: int, right: int) -> BagTable:
        left_table = self.tables[left]
        right_table = self.tables[right]
        order = self.bag_order(node)
        xpos = self.x_positions(order)
        buckets: dict[tuple, list[tuple]] = {}
        for (ptuple, dvec) in right_table.entries:
            buckets.setdefault(ptuple, []).append((ptuple, dvec))
        table = BagTable(node=node, bag=order, k=self.k)
        out = table.entries
        for (ptuple, dvec) in left_table.entries:
            matches = buckets.get(ptuple)
            if not matches:
                continue
            overlap = tuple(
                sum(1 for p in xpos if ptuple[i][p] != ptuple[j][p])
                for i, j in self.pairs
            )
            for rkey in matches:
                rdvec = rkey[1]
                combined = tuple(
                    dvec[n] + rdvec[n] - overlap[n] for n in range(len(self.pairs))
                )
                key = (ptuple, combined)
                if key not in out:
                    out[key] = ((left, (ptuple, dvec)), (right, rkey))
            self.guard(table)
        self.check_bound(table)
        return table

    # -- driver ----------------------------------------------------------------

    def run(self) -> None:
        for node in self.ntd.postorder():
            kind = self.ntd.kinds[node]
            kids = self.ntd.children.get(node, ())
            if kind == "leaf":
                table = self.leaf(node)
            elif kind == "join":
                table = self.join(node, kids[0], kids[1])
            elif kind[0] == "introduce":
                table = self.introduce(node, kids[0], kind[1])
            else:
                table = self.forget(node, kids[0], kind[1])
            self.tables[node] = table

    def witness(self, root_key: tuple) -> tuple[Assignment, ...]:
        collected: list[dict] = [dict() for _ in range(self.k)]
        stack = [(self.ntd.root, root_key)]
        while stack:
            node, key = stack.pop()
            table = self.tables[node]
            for i in range(self.k):
                for v, idx in zip(table.bag, key[0][i]):
                    value = self.domain[idx]
                    prior = collected[i].get(v)
                    if prior is not None and prior != value:
                        raise CorruptProvenance(f"conflicting bindings for {v}")
                    collected[i][v] = value
            stack.extend(table.entries[key])
        xs = list(self.query.free_vars)
        out = tuple(Assignment(b).restrict(xs) for b in collected)
        if tuple(pairwise_distances(out, xs)) != root_key[1]:
            raise CorruptProvenance("witness distances disagree with the kept entry")
        return out


def solve_cqneg(query: Query, db: Database, k: int, d: float | None,
                aggregator: Aggregator, *, witness: bool = False,
                allow_duplicates: bool = False,
                decomposition: TreeDecomposition | None = None,
                table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Decide diversity for a single-disjunct query, negation allowed.

    Accepts a caller-supplied tree decomposition (validated first); otherwise
    builds one with the min-fill heuristic. d = None asks for the maximum.
    """
    if len(query.conjuncts) != 1:
        raise ValueError("the bag solver handles single-disjunct queries")
    if decomposition is None:
        decomposition = tree_decompose(query, "minfill")
    violations = validate_decomposition(decomposition, query)
    if violations:
        raise ValueError(f"invalid decomposition: {violations[0]}")
    ntd = decomposition if isinstance(decomposition, NiceTreeDecomposition) \
        else make_nice(decomposition)
    solver = BagSolver(query, db, k, ntd, table_cap)
    solver.run()

    best_key, best = None, None
    for key in solver.tables[ntd.root].entries:
        dvec = key[1]
        if not allow_duplicates and any(x == 0 for x in dvec):
            continue
        value = aggregator.aggregate(dvec)
        if best is None or value > best:
            best_key, best = key, value
    decision = best is not None and (d is None or best >= d)
    solution = None
    if decision and witness and best_key is not None:
        solution = solver.witness(best_key)
    stats = {
        "nodes": len(ntd.bags),
        "width": ntd.width,
        "max_table": solver.max_table,
        "k": k,
    }
    return Outcome(decision, best, solution, routing="cqneg", stats=stats)
