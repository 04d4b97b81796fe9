"""Diversity solver for conjunctive queries with negation, bounded treewidth.

A tree decomposition is a join tree over its bags' satisfying assignments
(Gottlob, Leone and Scarcello, JCSS 2002), and `acq`'s rules change any
number of variables along an edge, so the engine is acq's join-tree engine
run over the decomposition as it is.

A k = 1 pass first gives each bag its sols, value-index tuples over the
sorted bag. In postorder, a bag's bottom-up sols are `queries.join`, a
lazy hash join, of each child's sols projected onto the variables they
share, the sols of every positive atom the bag covers, and each bag
variable's candidate values, filtered by the negative literals the bag
covers. acq's down sweep (Yannakakis, VLDB 1981) then leaves exactly each
bag's share of the answers. A join is refused once it builds more partial
assignments than the cap, and the root's, whose sols the sweep leaves, as
soon as they outnumber what a table under the cap could pair.

Then, bottom-up, each node's table is an `acq.DPTable` over those sols:

    leaf       `dp_init` of a childless bag
    forget     when the bag adds no variable to its first child's: that
               child's table under the bag's id
    introduce  otherwise, the bag's `dp_init` merged with the table of its
               first child in merge order (`dp_merge`)
    join       the table so far merged with each further child's table, in
               `acq.merge_order`: first the children the merge adds as
               matrices, then those it projects or merges as rows, each
               group in tree order (a forget's child stays first)

Only `dp_merge` projects a table, a child whose sols share a projection
onto the shared variables. A forget needs none: whatever a bag inside its
child's shares with its parent or siblings lies in that bag.

Tables are stateless exactly when acq's are: when the solve sums distances
and allows duplicate answers. The root is decided by `dp_finalize`, which
searches a matrix root by branch and bound, and the witness rebuilt by
`extract_witness`. The reducer drops only sols that lie on no root entry's
provenance chain, so only the tables below the root shrink.

A variable ranges only over its candidate values: those in its column of
every positive atom that mentions it. That loses no answer: the query is
safe, so every variable lies in some positive atom, which some bag covers.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import replace

from .acq import (
    DPTable,
    _project,
    _reduce_down,
    dp_finalize,
    dp_init,
    dp_merge,
    extract_witness,
    merge_order,
)
from .errors import DEFAULT_TABLE_CAP, TableGuardExceeded
from .model import SUM, Aggregator, Assignment, Database, Outcome
from .queries import Literal, Query, Variable, join, relation_of, satisfies_literal, sols_atom
from . import structure
from .structure import TreeDecomposition, tree_decompose, validate_decomposition

# Bound only because the traced benchmark wraps it: nothing here calls the
# nice form. It goes when the program records its own spans (ROADMAP item 6).
make_nice = structure.make_nice


# Beyond this k, `_most_sols` counts up rather than take a root of cap * k!;
# at the default cap, k = 64 leaves at most 31 sols.
_ROOT_MAX_K = 64


def _integer_root(x: int, k: int) -> int:
    """The largest r with r^k <= x, for x >= 0 and k >= 1, by Newton's
    method in integers from above."""
    if x < 2:
        return x
    r = 1 << -(-x.bit_length() // k)  # 2^ceil(bits / k) > the root
    while True:
        s = ((k - 1) * r + x // r ** (k - 1)) // k
        if s >= r:
            return r
        r = s


class BagSolver:
    """Bottom-up sweep over one tree decomposition. Building the solver runs
    the k = 1 pass, so `sols` holds every bag's reduced sols before `run`
    (or a single node rule) builds a k-tuple table."""

    def __init__(self, query: Query, db: Database, k: int, td: TreeDecomposition,
                 table_cap: int, stateless: bool = False):
        self.query = query
        self.db = db
        self.k = k
        self.td = td
        self.table_cap = table_cap
        self.stateless = stateless
        # Literals by least variable (None if ground): a bag finds its own fast.
        self.literals: dict[str | None, list[Literal]] = {}
        for lit in query.conjuncts[0].literals:
            self.literals.setdefault(min(lit.variables, default=None), []).append(lit)
        self.tables: dict[int, DPTable] = {}
        self.candidates = self._candidate_values()
        self.most = self._most_sols()
        self.sols = self._reduce()

    # -- helpers ------------------------------------------------------------

    def _candidate_values(self) -> dict[str, list[int]]:
        """Per variable, the sorted domain indices found in its column of
        every positive atom that mentions it. A negative literal's atom is
        resolved too, so that one naming no relation, or with the wrong
        arity, is refused even when no binding reaches it."""
        found: dict[str, set[int]] = {}
        for lit in self.query.conjuncts[0].literals:
            rows = relation_of(lit.atom, self.db).rows
            if not lit.positive:
                continue
            for pos, term in enumerate(lit.atom.terms):
                if isinstance(term, Variable):
                    column = {row[pos] for row in rows}
                    prior = found.get(term.name)
                    found[term.name] = column if prior is None else prior & column
        return {v: sorted(found[v]) for v in found}

    def satisfying_tuples(self, node: int,
                          below: dict[int, list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
        """The node's bottom-up sols, given its children's in `below`: the
        candidate assignments of its bag that satisfy the literals it covers
        and meet each child's sols on the variables they share, sorted. The
        root's are refused as soon as they pass `most` (`_bounded`)."""
        bags = self.td.bags
        bag, order = bags[node], tuple(sorted(bags[node]))
        inputs = []
        for child in self.td.children.get(node, ()):
            shared = bag & bags[child]
            inputs.append((tuple(sorted(shared)),
                           list(dict.fromkeys(_project(below[child], bags[child], shared)))))
        covered = [lit for v in (None, *order) for lit in self.literals.get(v, ())
                   if lit.variables <= bag]
        inputs += [(tuple(sorted(lit.variables)), sols_atom(lit.atom, self.db))
                   for lit in covered if lit.positive]
        inputs += [((v,), [(i,) for i in self.candidates[v]]) for v in order]
        negative = [lit for lit in covered if not lit.positive]
        parts = join(inputs, order, self.table_cap, TableGuardExceeded(
            f"join at node {node} builds over {self.table_cap} partial bag assignments"))
        parts = (part for part in parts if self.satisfies(order, part, negative))
        return sorted(self._bounded(node, parts) if node == self.td.root else parts)

    def satisfies(self, order: tuple[str, ...], part: tuple[int, ...],
                  lits: list[Literal]) -> bool:
        """Whether the bag assignment with index tuple `part` satisfies lits."""
        bindings = dict(zip(order, part))
        return all(satisfies_literal(lit, bindings, self.db) for lit in lits)

    # -- k = 1 pass -----------------------------------------------------------

    def _most_sols(self) -> int:
        """The most sols n whose C(n + k - 1, k) sorted k-tuples fit a table
        under the cap. Since n^k / k! <= C(n + k - 1, k) <= (n + k - 1)^k / k!,
        n is at most r, the integer k-th root of cap * k!, and r - k + 1
        fits: the count is stepped down from r at most k - 1 times. Past
        `_ROOT_MAX_K` the factorial grows costly and n is small: the count
        is stepped up from n = 1 instead."""
        k, cap = self.k, self.table_cap
        if not k:
            return cap  # one empty tuple, however many sols
        if k <= _ROOT_MAX_K:
            n = min(cap, _integer_root(cap * math.factorial(k), k))
            while math.comb(n + k - 1, k) > cap:
                n -= 1
            return n
        if not cap:
            return 0
        n, count = 1, 1
        while True:
            count = count * (n + k) // n  # C(n + k, k), the count for n + 1
            if count > cap:
                return n
            n += 1

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
        """The k = 1 pass: per bag, the sorted assignments that extend to an
        answer. The sweep without it stores every sorted k-tuple of a bag's
        bottom-up sols, so it would refuse a bag with more than `most`."""
        sols: dict[int, list[tuple[int, ...]]] = {}
        for node in self.td.postorder():
            sols[node] = self.satisfying_tuples(node, sols)
        _reduce_down(self.td, sols)
        return sols

    # -- node rules ----------------------------------------------------------

    def leaf(self, node: int) -> DPTable:
        return dp_init(node, self.td.bags[node], self.sols[node], self.k,
                       self.query.free_vars, stateless=self.stateless,
                       table_cap=self.table_cap)

    def forget(self, node: int, child: int) -> DPTable:
        # the parent's merge projects it onto what they share, if it must
        return replace(self.tables[child], node=node)

    def introduce(self, node: int, child: int) -> DPTable:
        return dp_merge(self.leaf(node), self.tables[child], self.query.free_vars,
                        table_cap=self.table_cap)

    def join(self, table: DPTable, child: int) -> DPTable:
        return dp_merge(table, self.tables[child], self.query.free_vars,
                        table_cap=self.table_cap)

    # -- driver ----------------------------------------------------------------

    def run(self) -> None:
        bags = self.td.bags
        for node in self.td.postorder():
            kids = self.td.children.get(node, ())
            if not kids:
                table, rest = self.leaf(node), ()
            elif bags[node] <= bags[kids[0]]:
                # the bag's sols are its first child's projected onto it
                table = self.forget(node, kids[0])
                rest = merge_order(table.variables, table.sols, kids[1:], self.tables)
            else:
                first, *rest = merge_order(bags[node], self.sols[node], kids, self.tables)
                table = self.introduce(node, first)
            for child in rest:
                table = self.join(table, child)
            self.tables[node] = table

    def witness(self, root_key: tuple) -> tuple[Assignment, ...]:
        return extract_witness(self.tables[self.td.root], root_key, self.query.free_vars,
                               self.db.values)


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
    solver = BagSolver(query, db, k, decomposition, table_cap,
                       stateless=allow_duplicates and aggregator is SUM)
    solver.run()
    root = solver.tables[decomposition.root]
    decision, best_key, best = dp_finalize(root, aggregator, d, allow_duplicates)
    solution = solver.witness(best_key) if decision and witness else None
    stats = {
        "nodes": len(decomposition.bags),
        "width": decomposition.width,
        "max_table": max(len(table.entries) for table in solver.tables.values()),
        "k": k,
    }
    return Outcome(decision, best, solution, stats=stats)
