import itertools
import math
import random
import time

import pytest

from diverseq import acq
from diverseq.acq import (
    _project,
    dp_finalize,
    dp_init,
    dp_project,
    merge_order,
    solve_acq,
    solve_acq_sum,
    solve_acq_sum_dup,
)
from diverseq.cqneg import BagSolver, solve_cqneg
from diverseq.errors import DEFAULT_TABLE_CAP, ArityMismatch, TableGuardExceeded, UnknownRelation
from diverseq.kernel import materialize_answers, solve_fo_diverse
from diverseq.model import MIN, SUM, Database, diversity_of_set
from diverseq.oracle import bruteforce_diversity, enumerate_answers
from diverseq.queries import parse_query
from diverseq.structure import TreeDecomposition, gyo_join_tree, make_nice, tree_decompose
from helpers import (
    column_candidates,
    counted_free_vars,
    literal_solutions,
    random_acyclic_query,
    random_cqneg_query,
    provenance_bindings,
    reference_merge,
    reference_project,
    small_answer_instances,
    sol_bindings,
)


def grid_instance():
    db = Database.from_rows(
        {"R": [(1, 1), (1, 2), (2, 1), (2, 2)], "S": [(1, 1)]}
    )
    q = parse_query("Q(x, y) :- R(x, y), !S(x, y).")
    return q, db


def solver_for(q, db, k):
    td = tree_decompose(q)
    return BagSolver(q, db, k, td, table_cap=10 ** 7), td


def childless(td):
    return next(n for n in td.postorder() if not td.children.get(n))


def test_leaf_rule_counts_survivors():
    q, db = grid_instance()
    solver, td = solver_for(q, db, 1)
    leaf = childless(td)
    assert td.bags[leaf] == {"x", "y"}
    table = solver.leaf(leaf)
    # of the 4 grid assignments, (1,1) violates the negated literal
    assert len(table.entries) == 3
    sols = [sol_bindings(table, key[0][0], db.domain) for key in table.entries]
    values = {(a["x"].payload, a["y"].payload) for a in sols}
    assert values == {(1, 2), (2, 1), (2, 2)}


def test_leaf_rule_k2_pairs_with_distances():
    q, db = grid_instance()
    solver, td = solver_for(q, db, 2)
    table = solver.leaf(childless(td))
    # the sorted pairs of the 3 survivors: 3 distinct, 3 repeated
    assert len(table.entries) == 6
    for (ptuple, dvec) in table.entries:
        a, b = (sol_bindings(table, i, db.domain) for i in ptuple)
        assert ptuple == tuple(sorted(ptuple))
        expected = sum(1 for v in ("x", "y") if a[v] != b[v])
        assert dvec == (expected,)


def test_leaf_rule_uncovered_bag_admits_every_candidate():
    db = Database.from_rows({"R": [(1, 2), (3, 4)], "T": [(1,), (2,), (4,)]})
    q = parse_query("Q(x, y) :- R(x, y), T(x).")
    td = tree_decompose(q)
    solver = BagSolver(q, db, 1, td, table_cap=10 ** 7)
    # fabricate a childless node covering only y: no literal fits inside
    # {y}, so every candidate of y (its column of R, the one atom naming it)
    # survives
    node = max(td.bags) + 1
    td.bags[node] = frozenset({"y"})
    td.children[node] = ()
    sols = solver.satisfying_tuples(node, {})
    candidates = column_candidates(q, db)
    assert {v.payload for v in candidates["y"]} == {2, 4}
    assert {v.payload for v in candidates["x"]} == {1}
    assert [db.domain[i] for (i,) in sols] == sorted(candidates["y"])


def test_introduce_existential_keeps_distances():
    db = Database.from_rows({"R": [(1, 1), (2, 2)], "T": [(1,), (2,)]})
    q = parse_query("Q(x) :- R(x, y), T(x).")
    out = solve_cqneg(q, db, 2, 1, SUM)
    assert out.decision is True and out.diversity == 1


def test_introduce_checks_newly_covered_negative_literal():
    q, db = grid_instance()
    for k in (1, 2):
        out = solve_cqneg(q, db, k, 0, SUM, allow_duplicates=True, witness=True)
        assert out.decision is True
        for a in out.witness:
            assert (a["x"].payload, a["y"].payload) != (1, 1)


def test_forget_projects_and_coalesces():
    db = Database.from_rows({"R": [(1, 1), (1, 2)], "T": [(1,)]})
    q = parse_query("Q(x) :- R(x, y), T(x).")
    # both R rows project to x=1 with identical distances: one answer
    answers = enumerate_answers(q, db)
    assert len(answers) == 1
    out = solve_cqneg(q, db, 1, 0, SUM)
    assert out.decision is True
    # A root forget: the root {x} decides on its child's table over {x, y},
    # whose two sols are one answer, so two distinct answers do not exist,
    # and two with a duplicate reach 0, in exact and stateless tables.
    td = TreeDecomposition(root=0, children={0: (1,), 1: ()},
                           bags={0: frozenset({"x"}), 1: frozenset({"x", "y"})})
    for aggregator in (SUM, MIN):
        for dup, expected in ((False, (False, None)), (True, (True, 0))):
            assert bruteforce_diversity(answers, 2, aggregator, allow_duplicates=dup)[0] \
                == expected[1]
            out = solve_cqneg(q, db, 2, None, aggregator, witness=True,
                              allow_duplicates=dup, decomposition=td)
            assert (out.decision, out.diversity) == expected
            assert out.witness == (None if not dup else (next(iter(answers)),) * 2)
            assert out.stats["max_table"] == 3  # the sorted pairs of two sols


def test_join_rule_no_double_counting():
    # two branches sharing the bag {x}: distances on x counted once
    db = Database.from_rows({"R": [(1,), (2,)], "S": [(1,), (2,)], "T": [(1,), (2,)]})
    q = parse_query("Q(x) :- R(x), S(x), T(x).")
    out = solve_cqneg(q, db, 2, 1, SUM)
    assert out.decision is True and out.diversity == 1


def test_solve_grid_examples():
    q, db = grid_instance()
    out = solve_cqneg(q, db, 2, 2, MIN, witness=True)
    assert out.decision is True and out.diversity == 2
    assert sorted((a["x"].payload, a["y"].payload) for a in out.witness) == [
        (1, 2), (2, 1)
    ]
    out = solve_cqneg(q, db, 3, 5, SUM)
    assert out.decision is False and out.diversity == 4


def test_negation_can_kill_everything():
    db = Database.from_rows({"R": [(1, 1), (2, 2)], "S": [(1, 1), (2, 2), (1, 2)]})
    q = parse_query("Q(x, y) :- R(x, y), !S(x, y).")
    for k in (1, 2):
        out = solve_cqneg(q, db, k, 0, SUM)
        assert out.decision is False
    assert enumerate_answers(q, db) == frozenset()


def test_supplied_decomposition_is_used():
    q, db = grid_instance()
    td = tree_decompose(q)
    out = solve_cqneg(q, db, 2, 2, MIN, decomposition=td)
    assert out.decision is True


def test_invalid_decomposition_rejected():
    q, db = grid_instance()
    other = parse_query("Q(a, b) :- R(a, b).")
    td = tree_decompose(other)
    with pytest.raises(ValueError):
        solve_cqneg(q, db, 2, 2, MIN, decomposition=td)


@pytest.mark.parametrize("root, children, violation", [
    (5, {0: (1,), 1: ()}, "root 5 is not a node"),
    (0, {0: (1,), 1: (0,)}, "node 0 reached twice (not a tree)"),
    (0, {0: (2,), 1: ()}, "edge to unknown node 2"),
    (0, {0: (), 1: ()}, "nodes [1] unreachable from the root"),
])
def test_supplied_decomposition_that_is_no_tree_is_refused(root, children, violation):
    # Both bags cover every literal, so the shape alone is at fault.
    q, db = grid_instance()
    bags = {0: frozenset({"x", "y"}), 1: frozenset({"x", "y"})}
    with pytest.raises(ValueError) as refusal:
        solve_cqneg(q, db, 2, 2, MIN, decomposition=TreeDecomposition(root, children, bags))
    assert str(refusal.value) == f"invalid decomposition: {violation}"


def test_union_is_refused_by_the_bag_solver():
    q = parse_query("Q(x) :- R(x).\nQ(x) :- T(x).")
    db = Database.from_rows({"R": [(1,)], "T": [(2,)]})
    with pytest.raises(ValueError) as refusal:
        solve_cqneg(q, db, 2, 1, SUM)
    assert str(refusal.value) == "the bag solver handles single-disjunct queries"


def test_supplied_nice_decomposition_gives_the_same_outcome():
    # A nice decomposition is a tree decomposition, walked as it is; most of
    # its nodes are forgets, which hand their child's table on. The decision
    # and diversity are those of the plain one and of the brute-force
    # oracle, at k = 1 as well, and in stateless tables (sum with
    # duplicates); each witness is a set of k answers, distinct unless
    # duplicates are allowed, that realizes the diversity, and the stats
    # count each decomposition's own nodes.
    rng = random.Random(83)
    witnesses = 0
    for _ in range(30):
        query, db = random_cqneg_query(rng)
        td = tree_decompose(query)
        nice_td = make_nice(td)
        answers = enumerate_answers(query, db)
        for k, aggregator, dup in ((1, SUM, False), (2, SUM, False), (3, MIN, False),
                                   (2, SUM, True), (3, SUM, True)):
            expected, _ = bruteforce_diversity(answers, k, aggregator, allow_duplicates=dup)
            plain = solve_cqneg(query, db, k, None, aggregator, witness=True,
                                allow_duplicates=dup, decomposition=td)
            nice = solve_cqneg(query, db, k, None, aggregator, witness=True,
                               allow_duplicates=dup, decomposition=nice_td)
            assert (nice.decision, nice.diversity) == (plain.decision, plain.diversity)
            assert (plain.decision, plain.diversity) == \
                ((False, None) if expected is None else (True, expected))
            assert plain.stats["nodes"] == len(td.bags)
            assert nice.stats["nodes"] == len(nice_td.bags)
            for out in (plain, nice):
                assert (out.witness is None) == (not out.decision)
                if out.witness is not None:
                    assert len(out.witness) == k
                    assert dup or len(set(out.witness)) == k
                    assert all(a in answers for a in out.witness)
                    assert diversity_of_set(aggregator, out.witness,
                                            query.free_vars) == out.diversity
            witnesses += plain.witness is not None
    assert witnesses >= 20


def test_k0_counts_the_empty_tuple():
    # k = 0 asks for the empty set of answers, which exists whether or not
    # the query has answers, in exact and stateless tables alike.
    q = parse_query("Q(x) :- R(x), !S(x).")
    for r_rows in ([(1,)], [(1,), (2,), (3,)]):
        db = Database.from_rows({"R": r_rows, "S": [(1,)]})
        answers = enumerate_answers(q, db)
        for aggregator in (SUM, MIN):
            for dup in (False, True):
                expected, best = bruteforce_diversity(answers, 0, aggregator, allow_duplicates=dup)
                assert best == ()
                out = solve_cqneg(q, db, 0, None, aggregator, witness=True, allow_duplicates=dup)
                assert (out.decision, out.diversity, out.witness) == (True, expected, ())
                assert out.stats["max_table"] == 1


def test_table_guard():
    q, db = grid_instance()
    with pytest.raises(TableGuardExceeded):
        solve_cqneg(q, db, 3, 1, SUM, table_cap=5)


def test_oracle_equivalence_random_cqneg():
    rng = random.Random(71)
    for _ in range(25):
        query, db = random_cqneg_query(rng)
        k = rng.choice([2, 3])
        answers = enumerate_answers(query, db)
        for aggregator in (SUM, MIN):
            expected, _ = bruteforce_diversity(answers, k, aggregator)
            got = solve_cqneg(query, db, k, None, aggregator)
            if expected is None:
                assert got.decision is False
            else:
                assert got.decision is True and got.diversity == expected


def test_oracle_equivalence_random_cqneg_with_duplicates():
    # Multisets of answers: under sum the tables are stateless, as acq's
    # are, and never larger than the exact ones; under min they stay exact.
    # Every witness is k answers, repeats allowed, that realize the
    # diversity.
    rng = random.Random(5)
    witnesses = shrunk = 0
    for _ in range(60):
        query, db = random_cqneg_query(rng)
        answers = enumerate_answers(query, db)
        for k, aggregator in ((2, SUM), (3, SUM), (3, MIN)):
            expected, _ = bruteforce_diversity(answers, k, aggregator, allow_duplicates=True)
            got = solve_cqneg(query, db, k, None, aggregator, witness=True,
                              allow_duplicates=True)
            if expected is None:
                assert got.decision is False and got.witness is None
                continue
            assert got.decision is True and got.diversity == expected
            assert len(got.witness) == k and all(a in answers for a in got.witness)
            assert diversity_of_set(aggregator, got.witness, query.free_vars) == expected
            witnesses += 1
            if aggregator is SUM:
                exact = BagSolver(query, db, k, tree_decompose(query), 10 ** 7)
                exact.run()
                exact_max = max(len(t.entries) for t in exact.tables.values())
                assert got.stats["max_table"] <= exact_max
                shrunk += got.stats["max_table"] < exact_max
    assert witnesses >= 100 and shrunk > 0, (witnesses, shrunk)


def test_witness_contract_random_cqneg():
    rng = random.Random(73)
    for _ in range(20):
        query, db = random_cqneg_query(rng)
        k = rng.choice([2, 3])
        out = solve_cqneg(query, db, k, None, SUM, witness=True)
        if not out.decision:
            continue
        answers = enumerate_answers(query, db)
        assert len(set(out.witness)) == k
        for a in out.witness:
            assert a in answers
        assert diversity_of_set(SUM, out.witness, query.free_vars) == out.diversity


def is_checked_forget(solver, node):
    """Whether node is a forget, a bag with one child, whose bag holds its
    own; if so, checks that its table is that child's under its id, the
    same object's entries."""
    td = solver.td
    kids = td.children.get(node, ())
    if not (len(kids) == 1 and td.bags[node] <= td.bags[kids[0]]):
        return False
    table, first = solver.tables[node], solver.tables[kids[0]]
    assert vars(solver.forget(node, kids[0])) == {**vars(first), "node": node}
    assert table.node == node
    assert (table.variables, table.sols) == (first.variables, first.sols)
    assert table.entries is first.entries
    return True


def merge_sequence(solver, node):
    """A node's children in the order the solver merges them: a forget's
    one child, or `acq.merge_order` over the bag's init."""
    td = solver.td
    kids = td.children.get(node, ())
    if len(kids) == 1 and td.bags[node] <= td.bags[kids[0]]:
        return list(kids)
    return merge_order(solver.leaf(node), kids, solver.tables)


def test_node_tables_match_witness_semantics():
    # e in D_t iff solutions of the subtree's covered literals extend e,
    # every variable taking one of its candidate values. A table stores the
    # entries of D_t at sorted tuples of its sols. A node's sols are its bag
    # assignments that extend to an answer (the k = 1 pass), and its table's
    # sols are those, or at a forget node (a bag with one child, whose bag
    # holds its own) that child's table's: a forget is that table under the
    # node's id. Any other node with children starts from its init over its
    # sols, and its table is the reference merge of each child's table into
    # that, child by child in the solver's merge order (`merge_sequence`),
    # entry for entry: keys, order and sums, and the answers each entry's
    # provenance gives on the free variables (`provenance_bindings`), which
    # every table reads off its answer rows and its links to its children.
    # The first merge is the introduce rule, each further one the join rule.
    # The merge projects a child only where its join is not functional, and
    # the projection of every child onto the variables it shares with its
    # parent is the reference projection.
    rng = random.Random(79)
    joins = {2: 0, 3: 0}
    introduces = forgets = projections = 0
    for n in range(100):
        query, db = random_cqneg_query(rng, max_vars=4, dom_size=2)
        if n % 2:
            # values no positive atom holds are nobody's candidates
            db.add_relation("U", 1, [(7,), (8,)])
        candidates = column_candidates(query, db)
        k = 2 if n < 16 else 3
        td = tree_decompose(query)
        solver = BagSolver(query, db, k, td, table_cap=10 ** 7)
        solver.run()
        literals = query.conjuncts[0].literals
        free = query.free_vars
        counted = counted_free_vars(td, free)
        every_var = sorted(frozenset().union(*td.bags.values()))
        answers = [
            g for g in literal_solutions(literals, every_var, db)
            if all(g[v] in candidates[v] for v in every_var)
        ]
        for node in td.postorder():
            bag = td.bags[node]
            table = solver.tables[node]
            kids = td.children.get(node, ())
            forget = is_checked_forget(solver, node)
            assert set(solver.sols[node]) == {tuple(g[v].index for v in sorted(bag))
                                              for g in answers}
            if forget:
                reference = solver.tables[kids[0]]
                forgets += 1
            else:
                assert (table.node, table.variables, table.sols) == \
                    (node, bag, solver.sols[node])
                reference = dp_init(node, bag, solver.sols[node], k, counted[node])
            order = sorted(table.variables)
            sols = table.sols
            assert sorted(set(_project(sols, table.variables, bag))) == solver.sols[node]
            assert set(sols) == {tuple(g[v].index for v in order) for g in answers}
            for n, child in enumerate(merge_sequence(solver, node)):
                shared = bag & td.bags[child]
                expected_projection = reference_project(solver.tables[child], shared)
                projected = dp_project(solver.tables[child], shared)
                assert (projected.node, projected.variables, projected.sols) == \
                    (child, expected_projection.variables, expected_projection.sols)
                assert list(projected.entries.items()) == \
                    list(expected_projection.entries.items())
                projections += 1
                if n == 0 and forget:
                    continue
                introduces += n == 0
                reference = reference_merge(reference, solver.tables[child])
            joins[k] += max(len(kids) - 1, 0)  # join rules applied
            assert [(key, value) for key, (value, _) in table.entries.items()] == \
                [(key, value) for key, (value, _) in reference.entries.items()]
            assert [provenance_bindings(table, key, free) for key in table.entries] == \
                [provenance_bindings(reference, key, free) for key in reference.entries]
            # distances over the free variables the subtree's nodes count
            subtree_bags, local_free = [bag], list(counted[node])
            stack = list(td.children.get(node, ()))
            while stack:
                current = stack.pop()
                subtree_bags.append(td.bags[current])
                local_free += counted[current]
                stack.extend(td.children.get(current, ()))
            cone = frozenset().union(*subtree_bags)
            covered = [lit for lit in literals if lit.variables <= cone]
            cone_vars = sorted(cone)
            witnesses = [
                g for g in literal_solutions(covered, cone_vars, db)
                if all(g[v] in candidates[v] for v in cone_vars)
            ]
            kept = set(sols)
            expected = set()
            for combo in itertools.product(witnesses, repeat=k):
                ptuple = tuple(
                    tuple(g[v].index for v in order) for g in combo
                )
                if ptuple != tuple(sorted(ptuple)) or not kept.issuperset(ptuple):
                    continue
                dvec = tuple(
                    sum(1 for x in local_free if combo[i][x] != combo[j][x])
                    for i in range(k) for j in range(i + 1, k)
                )
                expected.add((ptuple, dvec))
            stored = {
                (tuple(sols[i] for i in ptuple), dvec)
                for ptuple, dvec in table.entries
            }
            assert stored == expected
    assert joins[2] >= 3 and joins[3] >= 10, joins
    assert introduces > 0 and forgets > 0, (introduces, forgets)
    assert projections > introduces, (introduces, projections)


def test_forget_needs_an_only_child():
    # Instance 28 of the random_cqneg_query(Random(7), max_vars=5,
    # dom_size=3) sweep: min-fill's root {v3} has two children, {v0, v3}
    # first and {v2, v3}. Taking the first child's table, as a forget, and
    # joining the second into it keys the root by {v0, v3}, a larger exact
    # table than the root's own init joined with both (the introduce path),
    # which is what the solver builds. The solve matches the brute force.
    db = Database.from_rows({"P0": [(2, 1), (2, 3), (3, 2), (3, 3)],
                             "P1": [(1, 1), (1, 2), (1, 3), (2, 2)],
                             "N0": [(1, 3), (2, 2), (3, 3)]})
    query = parse_query("Q(v2) :- P0(v1, v0), P1(v2, v3), !N0(v3, v0).")
    td = tree_decompose(query)
    root = td.root
    first, second = td.children[root]
    assert td.bags[root] == {"v3"} <= td.bags[first] == {"v0", "v3"}
    answers = enumerate_answers(query, db)
    for k in (2, 3):
        for aggregator, dup in ((SUM, False), (MIN, False), (SUM, True)):
            expected, _ = bruteforce_diversity(answers, k, aggregator, allow_duplicates=dup)
            out = solve_cqneg(query, db, k, None, aggregator, witness=True,
                              allow_duplicates=dup)
            assert out.decision is (expected is not None) and out.diversity == expected
            if expected is not None:
                assert diversity_of_set(aggregator, out.witness, query.free_vars) == expected
            solver = BagSolver(query, db, k, td, table_cap=10 ** 7,
                               stateless=dup and aggregator is SUM)
            for node in td.postorder():  # the introduce path at every node
                kids = td.children[node]
                if not kids:
                    solver.tables[node] = solver.leaf(node)
                    continue
                table = solver.leaf(node)
                head, *rest = merge_order(table, kids, solver.tables)
                table = solver.introduce(table, head)
                for child in rest:
                    table = solver.join(table, child)
                solver.tables[node] = table
            introduced = max(len(table.entries) for table in solver.tables.values())
            assert out.stats["max_table"] == introduced
            grown = len(solver.join(solver.forget(root, first), second).entries)
            assert grown >= introduced and (dup or grown > introduced)


def test_solver_projects_only_a_child_whose_bag_holds_its_parents(monkeypatch):
    # No node rule projects a table: a forget node (a bag with one child,
    # whose bag holds its own) takes that child's table under its own id,
    # and the merges that introduce and join make are the only callers of
    # dp_project. Each projects the child it merges exactly when the
    # child's sols share a projection onto the variables the child's table
    # shares with the table so far, so every projected child's bag holds
    # all that its parent's table reads of it; in postorder, child by child.
    projections = []
    project = acq.dp_project

    def recording(child, variables, **kwargs):
        projections.append((child.node, variables))
        return project(child, variables, **kwargs)

    monkeypatch.setattr(acq, "dp_project", recording)
    rng = random.Random(5)
    forgets = merged = projected = 0
    for _ in range(60):
        query, db = random_cqneg_query(rng, max_vars=5, dom_size=3)
        td = tree_decompose(query)
        projections.clear()
        solver = BagSolver(query, db, 2, td, table_cap=10 ** 7)
        solver.run()
        expected = []
        for node in td.postorder():
            kids = td.children.get(node, ())
            forget = is_checked_forget(solver, node)
            forgets += forget
            variables = solver.tables[node].variables
            for child in kids[forget:]:
                child_table = solver.tables[child]
                shared = variables & child_table.variables
                proj = _project(child_table.sols, child_table.variables, shared)
                if len(set(proj)) < len(proj):
                    expected.append((child, shared))
                merged += 1
        assert projections == expected
        projected += len(expected)
    assert forgets > 0 and merged > projected > 0, (forgets, merged, projected)


def test_functional_child_merges_first_as_a_matrix(monkeypatch):
    # The benchmark's neg-w1 shape: the bag {y, z} has the children {w, y}
    # (first in tree order; each y has two successors w, so it is projected
    # onto {y} and merged as rows) and {x, y} (R pairs each y with one x, a
    # functional join). The functional child merges first and adds its
    # matrix, and only the projected child is merged as rows. Merges are
    # seen through `acq.dp_merge`, which the tree driver calls.
    merges = []
    merge = acq.dp_merge

    def recording(parent, child, *args, **kwargs):
        merged = merge(parent, child, *args, **kwargs)
        merges.append((parent.node, child.variables, merged.answer_rows is not None))
        return merged

    monkeypatch.setattr(acq, "dp_merge", recording)
    live = range(1, 7)
    db = Database.from_rows({
        "R": [(x, 7 - x) for x in live],
        "T": [(y, y % 6 + 1) for y in live] + [(y, (y + 2) % 6 + 1) for y in live],
        "S": [(1, 6), (2, 5)],
    })
    query = parse_query("Q(x, y, z, w) :- R(x, y), T(y, z), T(y, w), !S(x, y).")
    td = tree_decompose(query)
    bag = next(n for n in td.postorder() if td.bags[n] == {"y", "z"})
    assert [td.bags[c] for c in td.children[bag]] == [{"w", "y"}, {"x", "y"}]
    for k in (2, 3):
        merges.clear()
        out = solve_cqneg(query, db, k, None, SUM, witness=True)
        assert merges == [(bag, {"x", "y"}, True), (bag, {"w", "y"}, False)]
        answers = enumerate_answers(query, db)
        best, _ = bruteforce_diversity(answers, k, SUM)
        assert out.diversity == best
        assert diversity_of_set(SUM, out.witness, query.free_vars) == best


def test_row_merge_keeps_its_folded_matrix_parents_rows(monkeypatch):
    # The neg-w1 shape with a third successor for each even y: at the bag
    # {y, z} the functional child {x, y} is added as answer rows, and the
    # projected child {w, y} is then merged as rows into that matrix table.
    # The merged table keeps the parent's answer rows, where the witness
    # walk reads x, and each new entry has one link, to the entry of the
    # child's projection onto {y} it joined; the parent's entries have no
    # links of their own. Under sum, min and sum with duplicates the
    # witness re-verifies, reaches the brute force's diversity, and is the
    # one the row merge gave when it copied each parent entry's links to
    # the added child, and when it linked each new entry to its parent
    # entry (pinned).
    merges = []
    merge = acq.dp_merge

    def recording(parent, child, *args, **kwargs):
        merges.append((parent, merge(parent, child, *args, **kwargs)))
        return merges[-1][1]

    monkeypatch.setattr(acq, "dp_merge", recording)
    live = range(1, 7)
    db = Database.from_rows({
        "R": [(x, 7 - x) for x in live],
        "T": [(y, y % 6 + 1) for y in live] + [(y, (y + 2) % 6 + 1) for y in live]
        + [(y, (y + 3) % 6 + 1) for y in live if y % 2 == 0],
        "S": [(1, 6), (2, 5)],
    })
    query = parse_query("Q(x, y, z, w) :- R(x, y), T(y, z), T(y, w), !S(x, y).")
    answers = enumerate_answers(query, db)
    for aggregator, dup in ((SUM, False), (MIN, False), (SUM, True)):
        merges.clear()
        out = solve_cqneg(query, db, 3, None, aggregator, witness=True, allow_duplicates=dup)
        ((parent, merged),) = [(p, m) for p, m in merges if m.answer_rows is None]
        assert any(m is parent for _, m in merges)  # a merge added rows to make it
        assert parent.answer_rows is not None and "x" in parent.columns
        assert all(links == () for _, links in parent.entries.values())
        assert merged.entries and merged.rows is parent.rows
        for _, links in merged.entries.values():
            ((table, child_key, _),) = links
            assert table.variables == {"y"} and child_key in table.entries
            ((projected, _, _),) = table.entries[child_key][1]
            assert projected.variables == {"w", "y"}
        best, _ = bruteforce_diversity(answers, 3, aggregator, allow_duplicates=dup)
        assert out.diversity == best == (4 if aggregator is MIN else 12)
        assert diversity_of_set(aggregator, out.witness, query.free_vars) == best
        assert [tuple(a[v].payload for v in "xyzw") for a in out.witness] == \
            [(6, 1, 2, 2), (5, 2, 6, 6), (4, 3, 4, 4)]


def test_row_merge_over_a_matrix_parent_that_added_no_child(monkeypatch):
    # R pairs each y with two x, so at the bag {y, z} of the join tree and
    # of the min-fill decomposition the only child, {x, y}, is projected
    # onto {y} and merged as rows into the bag's init: a matrix table that
    # no merge added rows to. The merged table keeps that parent's answer
    # rows, which the witness walk reads z off, and each new entry has one
    # link, to the entry of the child's projection it joined. Through
    # solve_acq and solve_cqneg, under sum, min and sum with duplicates, the
    # witness re-verifies, reaches the brute force's diversity, and is the
    # one the merge gave when it linked such a parent not at all, and when
    # it linked each new entry to its parent entry (pinned).
    merges = []
    merge = acq.dp_merge

    def recording(parent, child, **kwargs):
        merges.append((parent, merge(parent, child, **kwargs)))
        return merges[-1][1]

    monkeypatch.setattr(acq, "dp_merge", recording)
    db = Database.from_rows({"R": [(1, 1), (2, 1), (3, 2), (4, 2), (5, 3)],
                             "S": [(1, 5), (2, 6), (3, 5)]})
    query = parse_query("Q(x, y, z) :- R(x, y), S(y, z).")
    answers = enumerate_answers(query, db)
    for solve in (solve_acq, solve_cqneg):
        for aggregator, dup in ((SUM, False), (MIN, False), (SUM, True)):
            merges.clear()
            out = solve(query, db, 3, None, aggregator, witness=True, allow_duplicates=dup)
            ((parent, merged),) = merges  # the one merge; no merge made the parent
            assert parent.variables == {"y", "z"} and parent.answer_rows is not None
            assert merged.answer_rows is None and merged.entries
            assert merged.rows is parent.rows and parent.columns == ("z",)
            for _, links in merged.entries.values():
                ((table, child_key, _),) = links
                assert table.variables == {"y"} and table.node != parent.node
                assert child_key in table.entries
            best, _ = bruteforce_diversity(answers, 3, aggregator, allow_duplicates=dup)
            assert out.diversity == best == (2 if aggregator is MIN else 8)
            assert diversity_of_set(aggregator, out.witness, query.free_vars) == best
            assert [tuple(a[v].payload for v in "xyz") for a in out.witness] == \
                [(1, 1, 5), (3, 2, 6), (5, 3, 5)]


def test_every_link_crosses_one_tree_edge():
    # Every table keeps its sols' answer rows, so a merge links each new
    # entry only to the child entry it joined, never to a table of its own
    # node. On random acyclic instances over their GYO join tree, min-fill's
    # decomposition and its nice form, and on random negation instances
    # over the latter two, at k = 2 and 3, under sum, min and sum with
    # duplicates, every link that the witness walk of the kept root entry
    # follows points to the table of a child of the linking table's node,
    # a forget node's table being its child's. A projection keeps its
    # child's id, has empty answer rows, and links only to that child's
    # table. The witness re-verifies.
    rng = random.Random(151)
    links = projected = stateless = 0
    for trial in range(36):
        if trial % 2:
            query, db = random_cqneg_query(rng, max_vars=5, dom_size=2)
            trees = [tree_decompose(query)]
        else:
            query, db = random_acyclic_query(rng, max_rows=6)
            trees = [gyo_join_tree(query), tree_decompose(query)]
        trees.append(make_nice(trees[-1]))
        for td in trees:
            for k in (2, 3):
                for aggregator, dup in ((SUM, False), (MIN, False), (SUM, True)):
                    solver = BagSolver(query, db, k, td, table_cap=10 ** 7,
                                       stateless=dup and aggregator is SUM)
                    solver.run()
                    built = {}  # the node whose rule built each node's table
                    for node in td.postorder():
                        forget = is_checked_forget(solver, node)
                        built[node] = built[td.children[node][0]] if forget else node
                    root = solver.tables[td.root]
                    decision, root_key, _ = dp_finalize(root, aggregator, None, dup)
                    if not decision:
                        continue
                    solver.witness(root_key)
                    stateless += root.stateless
                    stack = [(root, root_key)]
                    while stack:
                        table, key = stack.pop()
                        assert len(table.rows) == len(table.sols)
                        for linked, child_key, _ in table.entries[key][1]:
                            if linked.node == table.node:
                                assert linked is solver.tables[table.node]
                                assert not any(table.rows)
                                projected += 1
                            else:
                                assert linked.node in td.children[built[table.node]]
                            links += 1
                            stack.append((linked, child_key))
    assert links > 500 and projected > 200 and stateless > 100, (links, projected, stateless)


def test_some_solver_merges_add_matrices(monkeypatch):
    # A child table that joins its parent one to one is merged as it is,
    # so where both are matrices and every parent sol has a partner, the
    # merge adds matrices, as acq's merges do.
    results = []
    merge = acq.dp_merge

    def recording(*args, **kwargs):
        results.append(merge(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(acq, "dp_merge", recording)
    rng = random.Random(5)
    for _ in range(60):
        query, db = random_cqneg_query(rng, max_vars=5, dom_size=3)
        BagSolver(query, db, 2, tree_decompose(query), table_cap=10 ** 7).run()
    added = sum(table.answer_rows is not None for table in results)
    assert 0 < added < len(results), (added, len(results))


def _unreduced_solver(query, db, k, td, table_cap):
    """A solver whose rules run without the k = 1 pass, over the sols the
    sweep finds bottom-up alone: each bag's assignments that keep its
    covered literals true and meet its children's bottom-up sols, with no
    refusal at the root bound. A join that builds more partial assignments
    than the cap raises."""
    solver = BagSolver(query, db, k, td, table_cap=10 ** 7)
    solver.table_cap = table_cap
    solver._bounded = lambda node, parts: list(parts)
    sols = {}
    for node in td.postorder():
        sols[node] = solver.satisfying_tuples(node, sols)
    solver.sols = sols
    return solver


def _spelled_entries(solver, node):
    """A node's entries in order, slots spelled as their sols, each with its
    state, its sum and the answers its provenance gives on the free
    variables (`provenance_bindings`). Links or answer rows may give them:
    whether a merge projects a child, adds it as answer rows or merges it
    as rows depends on the sols, which the k = 1 pass may have cut."""
    table = solver.tables[node]
    free = solver.query.free_vars
    return [
        ((tuple(table.sols[p] for p in key[0]), key[1]), value,
         provenance_bindings(table, key, free))
        for key, (value, _) in table.entries.items()
    ]


def _with_dangling_rows(db, rng):
    """db with one to three more rows per relation, each a copy of a row
    with one value replaced by another of 1..4, so some join no sibling."""
    out = Database()
    for name, rel in db.relations.items():
        rows = [tuple(v.payload for v in r) for r in rel.sorted_rows()]
        for _ in range(rng.randint(1, 3) if rows else 0):
            row = list(rng.choice(rows))
            row[rng.randrange(rel.arity)] = rng.randint(1, 4)
            rows.append(tuple(row))
        out.add_relation(name, rel.arity, list(dict.fromkeys(rows)))
    return out


def test_full_reducer_keeps_root_entries(monkeypatch):
    # The same rules over the bottom-up sols alone, merging each node's
    # children in the order the reduced solver chose from its own tables,
    # build tables that, each cut to the reduced table's own sols, are the
    # reduced tables: entries, order, sums and the answers their provenance
    # gives. At the root
    # nothing is cut, so the root entries and every witness are equal; the
    # reduced tables are no larger.
    orders = {}

    def recording(table, kids, tables):
        orders[tuple(kids)] = merge_order(table, kids, tables)
        return orders[tuple(kids)]

    def replaying(table, kids, tables):
        return orders[tuple(kids)]

    rng = random.Random(89)
    shrunk = dangling = forgets = 0
    for trial in range(150):
        query, plain_db = random_cqneg_query(rng, max_vars=5, dom_size=3)
        db = _with_dangling_rows(plain_db, rng)
        k = 2 if trial % 2 == 0 else 3
        td = tree_decompose(query)
        reduced = BagSolver(query, db, k, td, table_cap=10 ** 7)
        monkeypatch.setattr(acq, "merge_order", recording)
        reduced.run()
        full = _unreduced_solver(query, db, k, td, table_cap=10 ** 7)
        monkeypatch.setattr(acq, "merge_order", replaying)
        full.run()
        # a child with bottom-up sols that its parent's bottom-up sols miss
        dangling += any(
            not set(_project(full.sols[kid], td.bags[kid], td.bags[node] & td.bags[kid]))
            <= set(_project(full.sols[node], td.bags[node], td.bags[node] & td.bags[kid]))
            for node in td.postorder() for kid in td.children.get(node, ()))
        for node in td.postorder():
            assert set(reduced.sols[node]) <= set(full.sols[node])
            # a forget node's table is its child's, over the child's sols
            forgets += is_checked_forget(reduced, node) + is_checked_forget(full, node)
            kept = set(reduced.tables[node].sols)
            assert kept <= set(full.tables[node].sols)
            assert _spelled_entries(reduced, node) == [
                e for e in _spelled_entries(full, node) if kept.issuperset(e[0][0])]
        root = td.root
        assert _spelled_entries(reduced, root) == _spelled_entries(full, root)
        assert [reduced.witness(key) for key in reduced.tables[root].entries] == \
            [full.witness(key) for key in full.tables[root].entries]
        sizes = [max(len(t.entries) for t in s.tables.values()) for s in (reduced, full)]
        assert sizes[0] <= sizes[1]
        shrunk += sizes[0] < sizes[1]
    assert dangling > 0 and shrunk > 0 and forgets > 0, (dangling, shrunk, forgets)


def test_reducer_refuses_a_wide_bag_before_building_it():
    # A root bag over six variables above a leaf over one: the root's join
    # has a million assignments. With k = 2 and a cap of 1000 entries a
    # node may hold 44 assignments (45 * 44 / 2 sorted pairs is 990), so
    # the k = 1 pass refuses the root's join after its 45th assignment; the
    # million-assignment root is never built.
    variables = [f"x{i}" for i in range(1, 7)]
    query = parse_query(f"Q({', '.join(variables)}) :- "
                        + ", ".join(f"R({v})" for v in variables) + ".")
    db = Database()
    db.add_relation("R", 1, [(v,) for v in range(10)])
    td = TreeDecomposition(root=0, children={0: (1,), 1: ()},
                           bags={0: frozenset(variables), 1: frozenset({"x1"})})
    with pytest.raises(TableGuardExceeded, match="over 44 bag assignments"):
        BagSolver(query, db, 2, td, table_cap=1000)
    with pytest.raises(TableGuardExceeded):
        solve_cqneg(query, db, 2, None, SUM, decomposition=td, table_cap=1000)
    # 100 assignments make 5050 sorted pairs: that cap refuses the root's
    # join after its 101st assignment, one less after its 100th.
    with pytest.raises(TableGuardExceeded, match="over 100 bag assignments"):
        BagSolver(query, db, 2, td, table_cap=5050)
    with pytest.raises(TableGuardExceeded, match="over 99 bag assignments"):
        BagSolver(query, db, 2, td, table_cap=5049)



@pytest.mark.parametrize("k, most", [(2, 4471), (3, 390)])
def test_reducer_refuses_a_wide_root_at_the_default_cap_as_its_join_yields(monkeypatch, k, most):
    # The six-variable root above at the default cap of 10,000,000 entries:
    # a table under it pairs 4471 assignments at k = 2 (C(4472, 2) sorted
    # pairs) and 390 at k = 3 (C(392, 3) sorted triples). The root's join
    # of a million assignments is within the cap, so it is the root's own
    # bound that refuses, after the join has yielded one assignment more.
    variables = [f"x{i}" for i in range(1, 7)]
    query = parse_query(f"Q({', '.join(variables)}) :- "
                        + ", ".join(f"R({v})" for v in variables) + ".")
    db = Database()
    db.add_relation("R", 1, [(v,) for v in range(10)])
    td = TreeDecomposition(root=0, children={0: (1,), 1: ()},
                           bags={0: frozenset(variables), 1: frozenset({"x1"})})
    yielded = []
    join = acq.join

    def counting(*args):
        for part in join(*args):
            yielded.append(part)
            yield part

    monkeypatch.setattr(acq, "join", counting)
    started = time.perf_counter()
    with pytest.raises(TableGuardExceeded, match=f"^node 0 has over {most} bag assignments"):
        BagSolver(query, db, k, td, table_cap=DEFAULT_TABLE_CAP)
    assert time.perf_counter() - started < 1.0
    assert len(yielded) == most + 1

def test_wide_bag_below_the_root_is_refused_by_its_join():
    # The same six-variable bag as a child of the root {x1}: the down sweep
    # could still cut its bottom-up sols, so they are not held to the 44 a
    # table under the cap could pair; its join is refused once it builds
    # more partial assignments than the cap, before the million are built.
    variables = [f"x{i}" for i in range(1, 7)]
    query = parse_query(f"Q({', '.join(variables)}) :- "
                        + ", ".join(f"R({v})" for v in variables) + ".")
    db = Database()
    db.add_relation("R", 1, [(v,) for v in range(10)])
    td = TreeDecomposition(root=0, children={0: (1,), 1: ()},
                           bags={0: frozenset({"x1"}), 1: frozenset(variables)})
    for cap in (1000, 5050):
        with pytest.raises(TableGuardExceeded,
                           match=f"^join at node 1 builds over {cap} partial bag assignments$"):
            BagSolver(query, db, 2, td, table_cap=cap)
        with pytest.raises(TableGuardExceeded):
            solve_cqneg(query, db, 2, None, SUM, decomposition=td, table_cap=cap)


def _most_sols_by_search(k, cap):
    """The reference for the root's refusal: a binary search over the table
    guard's own count for the most sols a node may hold."""
    lo, hi = 0, cap
    while lo < hi:
        mid = (lo + hi + 1) // 2
        size = acq._slot_tuples(mid, k, True, cap)
        lo, hi = (mid, hi) if size is not None and size <= cap else (lo, mid - 1)
    return lo


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 63, 64, 65, 200, 20_000, 100_000_000])
def test_root_is_refused_past_the_binary_searched_bound(k):
    # The root's sorted k-tuples are counted as its assignments arrive: the
    # most sols whose sorted k-tuples fit under the cap, as the binary
    # search over the guard's count finds them, are kept, and one more sol
    # is refused, naming that bound. Caps whose bound takes more sols than
    # a test builds quickly are skipped.
    db = Database.from_rows({"R": [(1,)]})
    td = TreeDecomposition(root=0, children={0: ()}, bags={0: frozenset({"x"})})
    solver = BagSolver(parse_query("Q(x) :- R(x)."), db, k, td, table_cap=1)
    caps = [*range(130), 1000, 12345, DEFAULT_TABLE_CAP - 1, DEFAULT_TABLE_CAP, 10 ** 18]
    if k <= 200:  # past it the search computes exact counts of thousands of factors
        caps.append(10 ** 40 + 7)
    checked = 0
    for cap in caps:
        most = _most_sols_by_search(k, cap)
        if most >= 20_000:
            continue
        assert math.comb(most + k - 1, k) <= cap < math.comb(most + k, k)
        solver.table_cap = cap
        assert solver._bounded(0, iter(range(most))) == list(range(most))
        with pytest.raises(TableGuardExceeded, match=f"^node 0 has over {most} bag assignments, "
                           f"whose sorted {k}-tuples exceed {cap} entries$"):
            solver._bounded(0, iter(range(most + 1)))
        checked += 1
    assert checked >= 132, checked


def test_bag_the_down_sweep_cuts_is_not_refused_for_its_bottom_up_sols():
    # R and S pair each of 50 values with itself, and U keeps z in {1, 2}:
    # min-fill's leaf {x, y} has 50 bottom-up sols under {y, z}, under the
    # root {z}, and the down sweep leaves it 2. With k = 2 and a cap of 100
    # a node may hold 13 sols (14 * 13 / 2 sorted pairs is 91), but only
    # the root is held to that before the sweep, so the query is answered,
    # as fo-kernel answers it. R(x, y) covers the leaf, whose sols are R's
    # rows with no join, so a cap under 50 refuses nothing either. With 14
    # values of z kept, the root {z} is refused at its 14th sol.
    def instance(kept):
        return Database.from_rows({"R": [(i, i) for i in range(50)],
                                   "S": [(i, i) for i in range(50)],
                                   "U": [(z,) for z in range(1, kept + 1)], "T": [(999,)]})

    db = instance(2)
    query = parse_query("Q(x) :- R(x, y), S(y, z), U(z), !T(x).")
    td = tree_decompose(query)
    leaf = childless(td)
    assert td.bags[leaf] == {"x", "y"} and td.root != leaf and td.bags[td.root] == {"z"}
    assert len(BagSolver(query, instance(13), 2, td, table_cap=100).sols[td.root]) == 13
    with pytest.raises(TableGuardExceeded, match=f"^node {td.root} has over 13 bag assignments"):
        BagSolver(query, instance(14), 2, td, table_cap=100)
    solver = BagSolver(query, db, 2, td, table_cap=100)
    assert len(solver.satisfying_tuples(leaf, {})) == 50
    assert len(solver.sols[leaf]) == 2
    expected = solve_fo_diverse(materialize_answers(query, db), 2, None, SUM)
    for cap in (49, 100, 10 ** 7):
        out = solve_cqneg(query, db, 2, None, SUM, witness=True, table_cap=cap)
        assert (out.decision, out.diversity) == (expected.decision, expected.diversity) \
            == (True, 1)
        assert sorted(a["x"].payload for a in out.witness) == [1, 2]


def test_join_tree_gives_cqneg_the_answer_acq_gives():
    # A join tree is a tree decomposition whose bags are atoms: cqneg run
    # over an acyclic query's GYO join tree runs acq's one k = 1 pass and
    # node rules over the same tree, so decision, diversity, witness, the
    # largest table and the node count are acq's, on instances with
    # dangling rows, at k = 2 and 3, under each acq entry point.
    rng = random.Random(151)
    solvers = (
        (SUM, False, lambda q, db, k: solve_acq(q, db, k, None, SUM, witness=True)),
        (MIN, False, lambda q, db, k: solve_acq(q, db, k, None, MIN, witness=True)),
        (SUM, False, lambda q, db, k: solve_acq_sum(q, db, k, None, witness=True)),
        (SUM, True, lambda q, db, k: solve_acq_sum_dup(q, db, k, None, witness=True)),
    )
    answered = 0
    for trial in range(60):
        query, plain_db = random_acyclic_query(rng, max_rows=6)
        db = _with_dangling_rows(plain_db, rng)
        k = 2 + trial % 2
        for aggregator, dup, solve in solvers:
            expected = solve(query, db, k)
            out = solve_cqneg(query, db, k, None, aggregator, witness=True,
                              allow_duplicates=dup, decomposition=gyo_join_tree(query))
            assert (out.decision, out.diversity, out.witness) == \
                (expected.decision, expected.diversity, expected.witness), trial
            assert [out.stats[key] for key in ("max_table", "nodes")] == \
                [expected.stats[key] for key in ("max_table", "nodes")], trial
            answered += out.witness is not None
    assert answered > 150, answered


def _counting_joins(monkeypatch):
    """The bags the k = 1 pass hash-joins, one per call of `acq.join`."""
    calls = []
    original = acq.join

    def counting(inputs, order, *args):
        calls.append(frozenset(order))
        return original(inputs, order, *args)

    monkeypatch.setattr(acq, "join", counting)
    return calls


def test_atom_covered_bag_starts_from_its_atom_with_no_join(monkeypatch):
    # R and S pair each of 5000 values with itself, and U keeps z in
    # {1, 2}: min-fill's bags {x, y}, {y, z} and {z} are R's, S's and U's
    # variables, so each starts from its atom's rows, semi-joined with its
    # children, and no bag is hash-joined. The answer is fo-kernel's.
    db = Database.from_rows({"R": [(i, i) for i in range(5000)],
                             "S": [(i, i) for i in range(5000)],
                             "U": [(1,), (2,)], "T": [(999,)]})
    query = parse_query("Q(x) :- R(x, y), S(y, z), U(z), !T(x).")
    td = tree_decompose(query)
    assert sorted(map(sorted, td.bags.values())) == [["x", "y"], ["y", "z"], ["z"]]
    calls = _counting_joins(monkeypatch)
    out = solve_cqneg(query, db, 2, None, SUM, witness=True)
    assert calls == []
    expected = solve_fo_diverse(materialize_answers(query, db), 2, None, SUM)
    assert (out.decision, out.diversity) == (expected.decision, expected.diversity) == (True, 1)
    assert sorted(a["x"].payload for a in out.witness) == [1, 2]


def test_bag_no_atom_covers_is_hash_joined(monkeypatch):
    # The neg-w2 shape: !S(x, z) puts x, y and z in one bag, whose
    # variables are neither R(x, y)'s nor T(y, z)'s, so it is hash-joined
    # over its candidate values, as is any bag no atom's variables make
    # (min-fill's root {z}). The answers are the brute force's.
    db = Database.from_rows({"R": [(1, 2), (2, 3), (3, 1)],
                             "T": [(1, 2), (1, 3), (2, 3), (2, 1), (3, 1), (3, 2)],
                             "S": [(1, 3), (2, 1)], "U": [(7,)]})
    query = parse_query("Q(x, y, z) :- R(x, y), T(y, z), !S(x, z).")
    td = tree_decompose(query)
    atom_bags = {atom.variables for atom in query.conjuncts[0].positive_atoms}
    joined = sorted((bag for bag in td.bags.values() if bag not in atom_bags), key=sorted)
    assert frozenset({"x", "y", "z"}) in joined
    calls = _counting_joins(monkeypatch)
    answers = enumerate_answers(query, db)
    for k in (2, 3):
        for aggregator in (SUM, MIN):
            calls.clear()
            out = solve_cqneg(query, db, k, None, aggregator, witness=True)
            assert sorted(calls, key=sorted) == joined
            expected, _ = bruteforce_diversity(answers, k, aggregator)
            assert out.decision is True and out.diversity == expected
            assert diversity_of_set(aggregator, out.witness, query.free_vars) == expected


def test_leaf_enumeration_stops_at_the_bound(monkeypatch):
    # One leaf over {x, y}, 100 candidates each: the candidate product is
    # 10,000 and C never holds, so every assignment satisfies. With k = 2
    # and a cap of 10,000 entries a node may hold 140 assignments (141 * 140
    # / 2 sorted pairs is 9870), so the leaf is refused after checking 141
    # of them, not all 10,000.
    query = parse_query("Q(x, y) :- A(x), B(y), !C(x, y).")
    db = Database()
    db.add_relation("A", 1, [(v,) for v in range(100)])
    db.add_relation("B", 1, [(v,) for v in range(100, 200)])
    db.add_relation("C", 2, [])
    td = TreeDecomposition(root=0, children={0: ()}, bags={0: frozenset({"x", "y"})})
    checked = []
    satisfies = BagSolver.satisfies

    def counting(self, order, part, lits):
        checked.append(part)
        return satisfies(self, order, part, lits)

    monkeypatch.setattr(BagSolver, "satisfies", counting)
    with pytest.raises(TableGuardExceeded, match="over 140 bag assignments"):
        BagSolver(query, db, 2, td, table_cap=10_000)
    assert len(checked) == 141


def test_introduce_table_is_guarded_as_a_leaf_is():
    # Two values of x under five of y: the bag {x, y} holds 10 sols, whose
    # 55 sorted pairs fit caps from 55 up, so the k = 1 pass keeps them;
    # the 100 slot tuples they stand for fit only a cap of 100. The
    # introduce rule at the bag {x, y} starts from the leaf's init over its
    # sols, so it is refused exactly as a leaf over the same bag is.
    query = parse_query("Q(x, y) :- A(x), B(y).")
    db = Database()
    db.add_relation("A", 1, [(1,), (2,)])
    db.add_relation("B", 1, [(v,) for v in range(10, 15)])
    bag = frozenset({"x", "y"})
    under_leaf = TreeDecomposition(root=0, children={0: (1,), 1: ()},
                                   bags={0: bag, 1: frozenset({"x"})})
    alone = TreeDecomposition(root=0, children={0: ()}, bags={0: bag})
    for td, kids in ((under_leaf, (1,)), (alone, ())):
        (node,) = [n for n in td.bags if td.bags[n] == bag]
        assert td.children[node] == kids
        for cap in (55, 99):
            solver = BagSolver(query, db, 2, td, table_cap=cap)
            assert len(solver.sols[node]) == 10
            with pytest.raises(TableGuardExceeded, match=rf"^initial table at node {node}: "
                               r"10 partial solutions, 100 slot tuples$"):
                solver.run()
            with pytest.raises(TableGuardExceeded):
                solve_cqneg(query, db, 2, None, SUM, decomposition=td, table_cap=cap)
        solver = BagSolver(query, db, 2, td, table_cap=100)
        solver.run()
        assert len(solver.tables[node].entries) == 55


def test_reducer_refuses_only_what_the_sweep_without_it_refuses():
    # The sweep without the k = 1 pass stores every sorted k-tuple of a
    # node's bottom-up sols, so whatever the pass refuses it refuses too.
    rng = random.Random(97)
    joins = bounds = 0
    for trial in range(1500):
        query, plain_db = random_cqneg_query(rng, max_vars=5, dom_size=3)
        db = _with_dangling_rows(plain_db, rng)
        k = 2 if trial % 2 == 0 else 3
        cap = rng.randint(1, 60)
        td = tree_decompose(query)
        try:
            BagSolver(query, db, k, td, table_cap=cap)
        except TableGuardExceeded as refusal:
            if str(refusal).startswith("join"):
                # The sweep runs the same join over sols no smaller.
                joins += 1
                with pytest.raises(TableGuardExceeded, match="^join"):
                    _unreduced_solver(query, db, k, td, table_cap=cap)
            else:
                # A root-bound refusal: only the sweep's own tables refuse.
                bounds += 1
                unreduced = _unreduced_solver(query, db, k, td, table_cap=cap)
                with pytest.raises(TableGuardExceeded):
                    unreduced.run()
    assert joins > 10 and bounds > 10, (joins, bounds)


def test_negation_free_matches_acq():
    rng = random.Random(83)
    for query, db in small_answer_instances(rng, 25, max_atoms=3, max_rows=6,
                                            max_dom=3):
        k = rng.choice([2, 3])
        for aggregator in (SUM, MIN):
            a = solve_acq(query, db, k, None, aggregator)
            b = solve_cqneg(query, db, k, None, aggregator)
            assert a.decision == b.decision
            assert a.diversity == b.diversity


def test_unrelated_domain_values_cost_nothing():
    # 3200 values the query never mentions: the same answer as without them
    q, db = grid_instance()
    padded = Database.from_rows({
        "R": [(1, 1), (1, 2), (2, 1), (2, 2)], "S": [(1, 1)],
        "U": [(1000 + i,) for i in range(3200)],
    })
    assert len(padded.domain) == 3202
    for k, aggregator in ((2, MIN), (2, SUM), (3, SUM), (3, MIN)):
        plain = solve_cqneg(q, db, k, None, aggregator, witness=True)
        out = solve_cqneg(q, padded, k, None, aggregator, witness=True)
        assert out.decision is plain.decision is True
        assert out.diversity == plain.diversity
        assert [a.as_payload_dict() for a in out.witness] == \
            [a.as_payload_dict() for a in plain.witness]
        assert out.stats["max_table"] == plain.stats["max_table"]


def test_candidates_check_positive_atoms():
    db = Database.from_rows({"R": [(1, 2)], "S": [(1,)]})
    td = tree_decompose(parse_query("Q(x) :- R(x, y), !S(x)."))
    for text, error in (("Q(x) :- R(x, y), T(x), !S(x).", UnknownRelation),
                        ("Q(x) :- R(x, y), S(x, y).", ArityMismatch)):
        q = parse_query(text)
        with pytest.raises(error):
            solve_cqneg(q, db, 1, None, SUM)
    with pytest.raises(UnknownRelation):
        BagSolver(parse_query("Q(x) :- R(x, y), T(y), !S(x)."), db, 1, td, 10 ** 7)


def test_deep_path_query_needs_no_recursion():
    # A 2000-atom path gives a tree decomposition 2000 levels deep; walking
    # it and the witness provenance must be iterative.
    n = 2000
    body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    q = parse_query(f"Q(x0, x{n}) :- {body}, !S(x0).")
    db = Database.from_rows({"R": [(1, 1), (1, 2), (2, 1), (2, 2)], "S": [(3,)]})
    for k, best in ((1, 0), (2, 2)):
        out = solve_cqneg(q, db, k, None, SUM, witness=True)
        assert out.decision is True and out.diversity == best
        assert len(out.witness) == k == len(set(out.witness))
        assert diversity_of_set(SUM, out.witness, q.free_vars) == best
        for a in out.witness:
            assert set(a.as_payload_dict()) == {"x0", f"x{n}"}


def test_bag_with_few_joint_solutions_is_answered_whatever_its_candidate_product():
    # One bag over {x, y, z} holds R's 300 rows, whose candidate product is
    # 300^3 = 27M tuples, past the default cap: the bag's join yields only
    # the 300 rows, so the query is answered, as fo-kernel answers it.
    rows = [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(300)]
    db = Database.from_rows({"R": rows, "S": [(0,)]})
    query = parse_query("Q(x, y, z) :- R(x, y, z), !S(x).")
    answers = materialize_answers(query, db)
    assert len(answers.rows) == 299
    expected = solve_fo_diverse(answers, 2, None, SUM)
    out = solve_cqneg(query, db, 2, None, SUM, witness=True)
    assert out.decision is expected.decision is True
    assert out.diversity == expected.diversity == 3
    assert len(set(out.witness)) == 2
    assert diversity_of_set(SUM, out.witness, query.free_vars) == 3


def test_join_that_builds_past_the_cap_is_refused(monkeypatch):
    # A and B give 100 * 100 pairs, and C removes every one: the bag's join
    # yields nothing, but would build and check 10,000 assignments. With a
    # cap of 5000 it is refused once it has built more than that, before it
    # checks the rest.
    query = parse_query("Q(x, y) :- A(x), B(y), !C(x, y).")
    db = Database()
    db.add_relation("A", 1, [(v,) for v in range(100)])
    db.add_relation("B", 1, [(v,) for v in range(100, 200)])
    db.add_relation("C", 2, [(a, b) for a in range(100) for b in range(100, 200)])
    td = TreeDecomposition(root=0, children={0: ()}, bags={0: frozenset({"x", "y"})})
    checked = []
    satisfies = BagSolver.satisfies

    def counting(self, order, part, lits):
        checked.append(part)
        return satisfies(self, order, part, lits)

    monkeypatch.setattr(BagSolver, "satisfies", counting)
    with pytest.raises(TableGuardExceeded,
                       match="^join at node 0 builds over 5000 partial bag assignments$"):
        BagSolver(query, db, 2, td, table_cap=5000)
    assert 0 < len(checked) < 5000
    assert not BagSolver(query, db, 2, td, table_cap=10 ** 5).sols[0]
