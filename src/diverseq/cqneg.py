"""Diversity solver for conjunctive queries with negation, bounded treewidth.

The dynamic program walks a nice tree decomposition bottom-up. Each node's
table is an `acq.DPTable` whose sols are bag assignments, as value-index
tuples over the sorted bag; an entry pairs a sorted k-tuple of them with the
pairwise free-variable distances their extensions below the node realize:

    leaf       all sorted k-tuples of the bag assignments satisfying the
               covered literals (`dp_init`)
    introduce  extend each slot by the new variable's candidate values that
               keep the covered literals true, re-sort, add their distances
    forget     project the variable away and re-sort (unless the slots
               stay sorted and distinct), one entry per arrangement of the
               slots that become equal
    join       the join-tree merge (`dp_merge`) of the right child into
               the left: the node keeps the left child's sols, and a tuple
               holding a sol the right child lacks makes no entry

A rule that re-sorts records its slot map in the provenance link, so the
root is decided by `dp_finalize` and the witness rebuilt by `extract_witness`
exactly as in the join-tree solver. Literal checks bind value indices.

A variable ranges only over its candidate values: those in its column of
every positive atom that mentions it. That loses no answer, and no node
table loses an entry that can reach the root: the query is safe, and every
positive atom mentioning a variable is covered below the node that forgets
it, so an assignment outside the candidates fails there at the latest.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import replace

from .acq import (
    DEFAULT_TABLE_CAP,
    DPTable,
    _pair_map,
    _slot_maps,
    dp_finalize,
    dp_init,
    dp_merge,
    extract_witness,
)
from .errors import TableGuardExceeded
from .model import (
    Aggregator,
    Assignment,
    Database,
    Outcome,
    pair_order,
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
    """Bottom-up sweep over one nice tree decomposition."""

    def __init__(self, query: Query, db: Database, k: int,
                 ntd: NiceTreeDecomposition, table_cap: int):
        self.query = query
        self.db = db
        self.k = k
        self.ntd = ntd
        self.table_cap = table_cap
        self.free = frozenset(query.free_vars)
        self.pairs = pair_order(k)
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
        covered literals, sorted (the candidate lists are)."""
        order = self.bag_order(node)
        lits = self.covered_literals(self.ntd.bags[node])
        options = [self.candidates[v] for v in order]
        if math.prod(len(o) for o in options) > self.table_cap:
            raise TableGuardExceeded(
                f"bag enumeration at node {node} exceeds {self.table_cap}"
            )
        return [combo for combo in itertools.product(*options)
                if self.satisfies(order, combo, lits)]

    def satisfies(self, order: tuple[str, ...], part: tuple[int, ...],
                  lits: list[Literal]) -> bool:
        """Whether the bag assignment with index tuple `part` satisfies lits."""
        bindings = dict(zip(order, part))
        return all(satisfies_literal(lit, bindings, self.db) for lit in lits)

    def new_table(self, node: int, parts) -> tuple[DPTable, dict]:
        """An empty table with the sorted index tuples `parts` as sols, and their positions."""
        sols = sorted(parts)
        table = DPTable(node=node, variables=self.ntd.bags[node], sols=sols, k=self.k)
        return table, {p: n for n, p in enumerate(sols)}

    # -- node rules ----------------------------------------------------------

    def leaf(self, node: int) -> DPTable:
        return dp_init(node, self.ntd.bags[node], self.satisfying_tuples(node), self.k,
                       self.query.free_vars, table_cap=self.table_cap)

    def introduce(self, node: int, child: int, z: str) -> DPTable:
        child_table = self.tables[child]
        order = self.bag_order(node)
        zpos = order.index(z)
        lits = self.covered_literals(self.ntd.bags[node])
        # Per child sol: the (z value, extended part) pairs that keep the
        # covered literals true.
        extensions = []
        for part in child_table.sols:
            ext = [(idx, part[:zpos] + (idx,) + part[zpos:]) for idx in self.candidates[z]]
            extensions.append([(idx, e) for idx, e in ext if self.satisfies(order, e, lits)])
        table, index = self.new_table(node, [e for ext in extensions for _, e in ext])
        options = [[(idx, index[e]) for idx, e in ext] for ext in extensions]

        k, pairs, z_free = self.k, self.pairs, z in self.free
        out = table.entries
        # One slot map per product: slots that become equal came from equal
        # child slots, whose other order the product also yields.
        moves: dict[tuple, list] = {}  # child tuple -> (tuple, sigma, pair map, z distances)
        for ckey in child_table.entries:
            ctuple, cvec = ckey
            found = moves.get(ctuple)
            if found is None:
                found = moves[ctuple] = []
                for chosen in itertools.product(*[options[c] for c in ctuple]):
                    new = [n for _, n in chosen]
                    sigma = tuple(sorted(range(k), key=new.__getitem__))
                    zs = [chosen[s][0] for s in sigma]
                    zdist = [int(z_free and zs[i] != zs[j]) for i, j in pairs]
                    found.append((tuple([new[s] for s in sigma]), sigma, _pair_map(sigma), zdist))
            for ntuple, sigma, pmap, zdist in found:
                vec = tuple([cvec[m] + d for m, d in zip(pmap, zdist)])
                key = (ntuple, vec)
                if key not in out:
                    out[key] = (sum(vec), ((child, ckey, sigma),))
            table.guard(self.table_cap)
        table.check_bound(len(self.free))
        return table

    def forget(self, node: int, child: int, z: str) -> DPTable:
        child_table = self.tables[child]
        zpos = self.bag_order(child).index(z)
        projected = [p[:zpos] + p[zpos + 1:] for p in child_table.sols]
        table, index = self.new_table(node, set(projected))
        proj = [index[p] for p in projected]  # child sol -> node sol
        k, out = self.k, table.entries
        identity = tuple(range(k))
        moves: dict[tuple, list] = {}  # child tuple -> (tuple, sigma, pair map or None)
        for ckey, (value, _) in child_table.entries.items():
            ctuple, cvec = ckey
            found = moves.get(ctuple)
            if found is None:
                projs = tuple([proj[c] for c in ctuple])
                if all(map(operator.lt, projs, projs[1:])):  # still sorted, distinct
                    found = [(projs, identity, None)]
                elif len(set(projs)) < k:  # slots project alike: every arrangement
                    target = tuple(sorted(projs))
                    found = [(target, s, _pair_map(s)) for s in _slot_maps(ctuple, proj, target)]
                else:
                    sigma = tuple(sorted(range(k), key=projs.__getitem__))
                    found = [(tuple(sorted(projs)), sigma, _pair_map(sigma))]
                moves[ctuple] = found
            for target, sigma, pmap in found:
                key = (target, cvec if pmap is None else tuple([cvec[m] for m in pmap]))
                if key not in out:
                    out[key] = (value, ((child, ckey, sigma),))
        table.guard(self.table_cap)
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
        return extract_witness(self.tables, root_key, self.ntd, self.query.free_vars,
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
        decomposition = tree_decompose(query, "minfill")
    violations = validate_decomposition(decomposition, query)
    if violations:
        raise ValueError(f"invalid decomposition: {violations[0]}")
    ntd = decomposition if isinstance(decomposition, NiceTreeDecomposition) \
        else make_nice(decomposition)
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
