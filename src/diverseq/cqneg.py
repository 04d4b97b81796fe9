"""Diversity solver for conjunctive queries with negation, bounded treewidth.

A tree decomposition is a join tree over its bags' satisfying assignments
(Gottlob, Leone and Scarcello, JCSS 2002), and a join tree is a tree
decomposition whose bags are atoms, so the engine is acq's, `acq.TreeSolver`,
run over the decomposition as it is: the one k = 1 pass, then the node rules
(leaf, forget, introduce and join), the decision at the root and the
witness. Tables are stateless exactly when acq's are: when the solve sums
distances and allows duplicate answers.

In the k = 1 pass, a bag whose variables are a positive atom's starts from
that atom's rows. A bag that no atom's variables make, such as the {x, y,
z} that a negative literal over x and z adds above R(x, y) and T(y, z), is
a lazy hash join, refused once it builds more partial assignments than the
cap. Its variables range only over their candidate values: those in their
column of every positive atom that mentions them. That loses no answer: the
query is safe, so every variable lies in some positive atom, which some bag
covers. Each bag checks the negative literals it covers.
"""

from __future__ import annotations

from .acq import TreeSolver
from .errors import DEFAULT_TABLE_CAP
from .model import SUM, Aggregator, Database, Outcome
from .queries import Literal, Query, satisfies_literal
from . import structure
from .structure import TreeDecomposition, tree_decompose, validate_decomposition

# Bound only because the traced benchmark wraps it: nothing here calls the
# nice form. It goes when the program records its own spans (ROADMAP item 2).
make_nice = structure.make_nice


class BagSolver(TreeSolver):
    """`acq.TreeSolver` as cqneg runs it. Its literal checks call this
    module's `satisfies_literal`, which the traced benchmark run counts; the
    class goes when the program records its own spans (ROADMAP item 2)."""

    def satisfies(self, order: tuple[str, ...], part: tuple[int, ...],
                  lits: list[Literal]) -> bool:
        bindings = dict(zip(order, part))
        return all(satisfies_literal(lit, bindings, self.db) for lit in lits)


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
