"""Diversity solver for conjunctive queries with negation, bounded treewidth.

A tree decomposition makes the query acyclic over its bags' satisfying
assignments (Gottlob, Leone and Scarcello, JCSS 2002), so the engine is
the join-tree engine of `acq` run over a nice decomposition. A k = 1 pass
first runs Yannakakis' full reducer over it (VLDB 1981). Bottom-up, each
node gets the bag assignments its cone satisfies: a leaf's satisfying
tuples, the extensions of an introduce node's child set that keep the
covered literals true, a forget node's projections, and at a join the
intersection of the children's sets. Top-down, acq's down sweep
semi-joins each child with its parent (the up sweep would keep every
bottom-up set as it is). What is left is exactly each bag's share of the
answers. A node whose bottom-up set holds more assignments than a table
under the cap could pair is refused as soon as it passes that count, as
the sweep without the pass would refuse it at that node's table.

The dynamic program then walks the decomposition bottom-up over those
reduced sols. Each node's table is an `acq.DPTable` whose sols are bag
assignments, as value-index tuples over the sorted bag; an entry pairs a
sorted k-tuple of them with the pairwise free-variable distances their
extensions below the node realize:

    leaf       all sorted k-tuples of the node's sols (`dp_init`)
    introduce  the node's `dp_init` merged with its child (`dp_merge`):
               each sol's one partner is its projection without the new
               variable; the k = 1 pass has already checked the literals
    forget     the child's table projected onto the node's bag
               (`dp_project`): each entry re-sorted, once per arrangement
               of the slots that become equal; `dp_merge` projects a child
               whose sols share a projection the same way
    join       the merge of the right child into the left; both children
               hold the join's sols, so every slot tuple meets its own

A rule that re-sorts records its slot map in the provenance link, so the
root is decided by `dp_finalize` and the witness rebuilt by `extract_witness`
exactly as in the join-tree solver. Literal checks bind value indices. The
reducer drops only sols that lie on no root entry's provenance chain, so
the root entries, their order and the witnesses are those of a sweep over
the unreduced sols; only the tables below the root shrink.

A variable ranges only over its candidate values: those in its column of
every positive atom that mentions it. That loses no answer, and no node
table loses an entry that can reach the root: the query is safe, and every
positive atom mentioning a variable is covered below the node that forgets
it, so an assignment outside the candidates fails there at the latest.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

from .acq import (
    DPTable,
    _reduce_down,
    _slot_tuples,
    dp_finalize,
    dp_init,
    dp_merge,
    dp_project,
    extract_witness,
)
from .errors import DEFAULT_TABLE_CAP, TableGuardExceeded
from .model import (
    Aggregator,
    Assignment,
    Database,
    Outcome,
)
from .queries import Literal, Query, Variable, relation_of, satisfies_literal
from .structure import (
    NiceTreeDecomposition,
    TreeDecomposition,
    make_nice,
    tree_decompose,
    validate_decomposition,
)


class BagSolver:
    """Bottom-up sweep over one nice tree decomposition. Building the
    solver runs the k = 1 pass, so `sols` holds every node's reduced sols
    before `run` (or a single node rule) builds a k-tuple table."""

    def __init__(self, query: Query, db: Database, k: int,
                 ntd: NiceTreeDecomposition, table_cap: int):
        self.query = query
        self.db = db
        self.k = k
        self.ntd = ntd
        self.table_cap = table_cap
        self.free = frozenset(query.free_vars)
        self.literals: tuple[Literal, ...] = query.conjuncts[0].literals
        self.tables: dict[int, DPTable] = {}
        self.candidates = self._candidate_values()
        # Literal positions per variable, so a bag's covered literals are
        # found without scanning the whole query; a ground literal is
        # covered by every bag.
        self.ground = [n for n, lit in enumerate(self.literals) if not lit.variables]
        self.literals_of: dict[str, list[int]] = {}
        for n, lit in enumerate(self.literals):
            for v in lit.variables:
                self.literals_of.setdefault(v, []).append(n)
        self.most = self._most_sols()
        self.sols = self._reduce()

    # -- helpers ------------------------------------------------------------

    def _candidate_values(self) -> dict[str, list[int]]:
        """Per variable, the sorted domain indices found in its column of
        every positive atom that mentions it. A negative literal's atom is
        resolved too, so that one naming no relation, or with the wrong
        arity, is refused even when no binding reaches it."""
        found: dict[str, set[int]] = {}
        for lit in self.literals:
            rows = relation_of(lit.atom, self.db).rows
            if not lit.positive:
                continue
            for pos, term in enumerate(lit.atom.terms):
                if isinstance(term, Variable):
                    column = {row[pos] for row in rows}
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
        covered literals, sorted (the candidate lists are). The enumeration
        stops, refused, as soon as they pass `most`."""
        order = self.bag_order(node)
        lits = self.covered_literals(self.ntd.bags[node])
        options = [self.candidates[v] for v in order]
        if math.prod(len(o) for o in options) > self.table_cap:
            raise TableGuardExceeded(
                f"bag enumeration at node {node} exceeds {self.table_cap}"
            )
        return self._bounded(node, (combo for combo in itertools.product(*options)
                                    if self.satisfies(order, combo, lits)))

    def satisfies(self, order: tuple[str, ...], part: tuple[int, ...],
                  lits: list[Literal]) -> bool:
        """Whether the bag assignment with index tuple `part` satisfies lits."""
        bindings = dict(zip(order, part))
        return all(satisfies_literal(lit, bindings, self.db) for lit in lits)

    # -- k = 1 pass -----------------------------------------------------------

    def _most_sols(self) -> int:
        """The most sols whose sorted k-tuples fit a table under the cap."""
        k, cap = self.k, self.table_cap
        lo, hi = 0, cap
        while lo < hi:
            mid = (lo + hi + 1) // 2
            size = _slot_tuples(mid, k, True, cap)
            lo, hi = (mid, hi) if size is not None and size <= cap else (lo, mid - 1)
        return lo

    def _bounded(self, node: int, parts) -> list[tuple[int, ...]]:
        """The bag assignments `parts` yields, refused as soon as they pass
        `most`, before the rest are built."""
        found = list(itertools.islice(parts, self.most + 1))
        if len(found) > self.most:
            raise TableGuardExceeded(
                f"node {node} has over {self.most} bag assignments, whose sorted "
                f"{self.k}-tuples exceed {self.table_cap} entries")
        return found

    def _reduce(self) -> dict[int, list[tuple[int, ...]]]:
        """The k = 1 pass: per node, the sorted bag assignments that extend
        to an answer. The bottom-up sets are built here; acq's down sweep
        then cuts them to the answers' projections.

        The sweep without this pass stores every sorted k-tuple of a node's
        bottom-up sols, so a node with more than `most` of them would be
        refused there; a leaf or introduce node is refused here as soon as
        its sols pass `most` (`_bounded`). A forget or join node holds no
        more sols than its child.
        """
        ntd = self.ntd
        order = ntd.postorder()
        sols: dict[int, list[tuple[int, ...]]] = {}
        for node in order:
            kind = ntd.kinds[node]
            kids = ntd.children.get(node, ())
            if kind == "leaf":
                sols[node] = self.satisfying_tuples(node)
            elif kind == "join":
                right = set(sols[kids[1]])
                sols[node] = [p for p in sols[kids[0]] if p in right]
            elif kind[0] == "introduce":
                bag = self.bag_order(node)
                zpos = bag.index(kind[1])
                lits = self.covered_literals(ntd.bags[node])
                extended = (p[:zpos] + (idx,) + p[zpos:]
                            for p in sols[kids[0]] for idx in self.candidates[kind[1]])
                sols[node] = sorted(self._bounded(node, (e for e in extended
                                                         if self.satisfies(bag, e, lits))))
            else:
                zpos = self.bag_order(kids[0]).index(kind[1])
                sols[node] = sorted({p[:zpos] + p[zpos + 1:] for p in sols[kids[0]]})
        _reduce_down(ntd, sols)
        return sols

    # -- node rules ----------------------------------------------------------

    def _init(self, node: int) -> DPTable:
        return dp_init(node, self.ntd.bags[node], self.sols[node], self.k,
                       self.query.free_vars, table_cap=self.table_cap)

    def leaf(self, node: int) -> DPTable:
        return self._init(node)

    def introduce(self, node: int, child: int, z: str) -> DPTable:
        return dp_merge(self._init(node), self.tables[child], self.query.free_vars,
                        table_cap=self.table_cap)

    def forget(self, node: int, child: int, z: str) -> DPTable:
        table = dp_project(self.tables[child], node, self.ntd.bags[node],
                           table_cap=self.table_cap)
        table.check_bound(len(self.free))
        return table

    def join(self, node: int, left: int, right: int) -> DPTable:
        return dp_merge(replace(self.tables[left], node=node), self.tables[right],
                        self.query.free_vars, table_cap=self.table_cap)

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
        return extract_witness(self.tables[self.ntd.root], root_key, self.query.free_vars,
                               self.db.domain)


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
        decomposition = tree_decompose(query)
    violations = validate_decomposition(decomposition, query)
    if violations:
        raise ValueError(f"invalid decomposition: {violations[0]}")
    ntd = make_nice(decomposition)
    solver = BagSolver(query, db, k, ntd, table_cap)
    solver.run()
    decision, best_key, best = dp_finalize(solver.tables[ntd.root], aggregator, d,
                                           allow_duplicates)
    solution = solver.witness(best_key) if decision and witness else None
    stats = {
        "nodes": len(ntd.bags),
        "width": ntd.width,
        "max_table": max(len(table.entries) for table in solver.tables.values()),
        "k": k,
    }
    return Outcome(decision, best, solution, stats=stats)
