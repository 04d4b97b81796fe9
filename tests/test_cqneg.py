import itertools
import random
from dataclasses import replace

import pytest

from diverseq.acq import solve_acq
from diverseq.cqneg import BagSolver, solve_cqneg
from diverseq.errors import ArityMismatch, TableGuardExceeded, UnknownRelation
from diverseq.model import MIN, SUM, Database, diversity_of_set
from diverseq.oracle import bruteforce_diversity, enumerate_answers
from diverseq.queries import parse_query
from diverseq.structure import make_nice, tree_decompose
from helpers import (
    column_candidates,
    literal_solutions,
    random_cqneg_query,
    reference_merge,
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
    ntd = make_nice(tree_decompose(q, "exact"))
    return BagSolver(q, db, k, ntd, table_cap=10 ** 7), ntd


def test_leaf_rule_counts_survivors():
    q, db = grid_instance()
    solver, ntd = solver_for(q, db, 1)
    leaf = next(n for n, kind in ntd.kinds.items() if kind == "leaf")
    assert ntd.bags[leaf] == {"x", "y"}
    table = solver.leaf(leaf)
    # of the 4 grid assignments, (1,1) violates the negated literal
    assert len(table.entries) == 3
    sols = [sol_bindings(table, key[0][0], db.domain) for key in table.entries]
    values = {(a["x"].payload, a["y"].payload) for a in sols}
    assert values == {(1, 2), (2, 1), (2, 2)}


def test_leaf_rule_k2_pairs_with_distances():
    q, db = grid_instance()
    solver, ntd = solver_for(q, db, 2)
    leaf = next(n for n, kind in ntd.kinds.items() if kind == "leaf")
    table = solver.leaf(leaf)
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
    ntd = make_nice(tree_decompose(q, "exact"))
    solver = BagSolver(q, db, 1, ntd, table_cap=10 ** 7)
    # fabricate a node covering only y: no literal fits inside {y}, so every
    # candidate of y (its column of R, the one atom naming it) survives
    ntd.bags[max(ntd.bags) + 1] = frozenset({"y"})
    node = max(ntd.bags)
    ntd.kinds[node] = "leaf"
    table = solver.leaf(node)
    candidates = column_candidates(q, db)
    assert {v.payload for v in candidates["y"]} == {2, 4}
    assert {v.payload for v in candidates["x"]} == {1}
    assert {(sol_bindings(table, key[0][0], db.domain)["y"], key[1])
            for key in table.entries} == \
        {(v, ()) for v in candidates["y"]}


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
    td = tree_decompose(q, "exact")
    out = solve_cqneg(q, db, 2, 2, MIN, decomposition=td)
    assert out.decision is True


def test_invalid_decomposition_rejected():
    q, db = grid_instance()
    other = parse_query("Q(a, b) :- R(a, b).")
    td = tree_decompose(other, "exact")
    with pytest.raises(ValueError):
        solve_cqneg(q, db, 2, 2, MIN, decomposition=td)


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


def test_node_tables_match_witness_semantics():
    # e in D_t iff solutions of the subtree's covered literals extend e,
    # every variable taking one of its candidate values. A table stores the
    # entries of D_t at sorted tuples of its sols. A join node's table is the
    # reference merge of its right child into its left, entry for entry.
    rng = random.Random(79)
    joins = {2: 0, 3: 0}
    unmatched = 0  # joins where a left sol has no equal right sol
    for n in range(100):
        query, db = random_cqneg_query(rng, max_vars=4, dom_size=2)
        if n % 2:
            # values no positive atom holds are nobody's candidates
            db.add_relation("U", 1, [(7,), (8,)])
        candidates = column_candidates(query, db)
        k = 2 if n < 16 else 3
        ntd = make_nice(tree_decompose(query, "exact"))
        solver = BagSolver(query, db, k, ntd, table_cap=10 ** 7)
        solver.run()
        literals = query.conjuncts[0].literals
        free = query.free_vars
        for node in ntd.postorder():
            if ntd.kinds[node] == "join":
                joins[k] += 1
                left, right = ntd.children[node]
                table = solver.tables[node]
                reference = reference_merge(replace(solver.tables[left], node=node),
                                            solver.tables[right], free)
                assert table.sols == solver.tables[left].sols
                assert list(table.entries.items()) == list(reference.items())
                unmatched += not set(table.sols) <= set(solver.tables[right].sols)
            subtree_bags = [ntd.bags[node]]
            stack = list(ntd.children.get(node, ()))
            while stack:
                current = stack.pop()
                subtree_bags.append(ntd.bags[current])
                stack.extend(ntd.children.get(current, ()))
            cone = frozenset().union(*subtree_bags)
            covered = [lit for lit in literals if lit.variables <= cone]
            cone_vars = sorted(cone)
            witnesses = [
                g for g in literal_solutions(covered, cone_vars, db)
                if all(g[v] in candidates[v] for v in cone_vars)
            ]
            order = solver.bag_order(node)
            local_free = [x for x in free if x in cone]
            expected = set()
            for combo in itertools.product(witnesses, repeat=k):
                ptuple = tuple(
                    tuple(g[v].index for v in order) for g in combo
                )
                if ptuple != tuple(sorted(ptuple)):
                    continue
                dvec = tuple(
                    sum(1 for x in local_free if combo[i][x] != combo[j][x])
                    for i in range(k) for j in range(i + 1, k)
                )
                expected.add((ptuple, dvec))
            parts = solver.tables[node].sols
            stored = {
                (tuple(parts[i] for i in ptuple), dvec)
                for ptuple, dvec in solver.tables[node].entries
            }
            assert stored == expected
    assert joins[2] >= 3 and joins[3] >= 10, joins
    assert unmatched > 0


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
    nice = make_nice(tree_decompose(parse_query("Q(x) :- R(x, y), !S(x)."), "exact"))
    for text, error in (("Q(x) :- R(x, y), T(x), !S(x).", UnknownRelation),
                        ("Q(x) :- R(x, y), S(x, y).", ArityMismatch)):
        q = parse_query(text)
        with pytest.raises(error):
            solve_cqneg(q, db, 1, None, SUM)
    with pytest.raises(UnknownRelation):
        BagSolver(parse_query("Q(x) :- R(x, y), T(y), !S(x)."), db, 1, nice, 10 ** 7)


def test_deep_path_query_needs_no_recursion():
    # A 2000-atom path gives a tree decomposition 2000 levels deep; building
    # its nice form and walking the witness provenance must be iterative.
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
