"""Diversity solver for conjunctive queries with negation, bounded treewidth.

A tree decomposition is a join tree over its bags' satisfying assignments
(Gottlob, Leone and Scarcello, JCSS 2002), and `acq`'s rules change any
number of variables along an edge, so the engine is acq's tree driver,
`acq.TreeSolver`, run over the decomposition as it is. What is cqneg's own
is the k = 1 pass that gives each bag its sols.

The pass gives each bag value-index tuples over the sorted bag. In
postorder, a bag's bottom-up sols are `queries.join`, a lazy hash join, of
each child's sols projected onto the variables they share, the sols of
every positive atom the bag covers, and each bag variable's candidate
values, filtered by the negative literals the bag covers. acq's down sweep
(Yannakakis, VLDB 1981) then leaves exactly each bag's share of the
answers. A join is refused once it builds more partial assignments than
the cap, and the root's, whose sols the sweep leaves, as soon as they
outnumber what a table under the cap could pair.

The driver then builds each node's `acq.DPTable` over those sols by acq's
node rules (leaf, forget, introduce and join), decides at the root and
rebuilds the witness. Tables are stateless exactly when acq's are: when
the solve sums distances and allows duplicate answers. The reducer drops
only sols that lie on no root entry's provenance chain, so only the tables
below the root shrink.

A variable ranges only over its candidate values: those in its column of
every positive atom that mentions it. That loses no answer: the query is
safe, so every variable lies in some positive atom, which some bag covers.
"""

from __future__ import annotations

from .acq import TreeSolver, _project, _reduce_down
from .errors import DEFAULT_TABLE_CAP, TableGuardExceeded
from .model import SUM, Aggregator, Database, Outcome
from .queries import Literal, Query, Variable, join, relation_of, satisfies_literal, sols_atom
from . import structure
from .structure import TreeDecomposition, tree_decompose, validate_decomposition

# Bound only because the traced benchmark wraps it: nothing here calls the
# nice form. It goes when the program records its own spans (ROADMAP item 2).
make_nice = structure.make_nice


class BagSolver(TreeSolver):
    """The tree driver over one tree decomposition, with cqneg's k = 1 pass.
    Building the solver runs the pass, so `sols` holds every bag's reduced
    sols before `run` (or a single node rule) builds a k-tuple table."""

    def __init__(self, query: Query, db: Database, k: int, td: TreeDecomposition,
                 table_cap: int, stateless: bool = False):
        super().__init__(td, {}, k, query.free_vars, db.values, table_cap, stateless)
        self.query = query
        self.db = db
        # Literals by least variable (None if ground): a bag finds its own fast.
        self.literals: dict[str | None, list[Literal]] = {}
        for lit in query.conjuncts[0].literals:
            self.literals.setdefault(min(lit.variables, default=None), []).append(lit)
        self.candidates = self._candidate_values()
        self._reduce()

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
        root's are refused as they arrive (`_bounded`)."""
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

    def _bounded(self, node: int, parts) -> list[tuple[int, ...]]:
        """The bag assignments `parts` yields, refused at the first n whose
        C(n + k - 1, k) sorted k-tuples pass the cap, before the rest are
        built. The count is carried from part to part."""
        k, cap = self.k, self.table_cap
        found, count = [], 1
        for n, part in enumerate(parts, 1):
            if n > 1:
                count = count * (n + k - 1) // (n - 1)  # C(n + k - 1, k) from n - 1's
            if count > cap:
                raise TableGuardExceeded(
                    f"node {node} has over {n - 1} bag assignments, whose sorted "
                    f"{k}-tuples exceed {cap} entries")
            found.append(part)
        return found

    def _reduce(self) -> None:
        """The k = 1 pass: per bag, the sorted assignments that extend to an
        answer. The sweep without it stores every sorted k-tuple of a bag's
        bottom-up sols, so it would refuse whatever `_bounded` refuses."""
        for node in self.td.postorder():
            self.sols[node] = self.satisfying_tuples(node, self.sols)
        _reduce_down(self.td, self.sols)


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
    return solver.solve(aggregator, d, allow_duplicates, witness, width=decomposition.width)
