import itertools
import random
from dataclasses import replace

import pytest

from diverseq.acq import _project, dp_init, solve_acq
from diverseq.cqneg import BagSolver, solve_cqneg
from diverseq.errors import ArityMismatch, TableGuardExceeded, UnknownRelation
from diverseq.kernel import materialize_answers, solve_fo_diverse
from diverseq.model import MIN, SUM, Database, diversity_of_set
from diverseq.oracle import bruteforce_diversity, enumerate_answers
from diverseq.queries import parse_query
from diverseq.structure import TreeDecomposition, make_nice, tree_decompose
from helpers import (
    column_candidates,
    literal_solutions,
    random_cqneg_query,
    reference_merge,
    reference_project,
    small_answer_instances,
    sol_bindings,
    spelled_links,
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


def test_supplied_nice_decomposition_gives_the_same_outcome():
    # A nice decomposition is a tree decomposition, walked as it is: the
    # decision and diversity are those of the plain one, each witness is a
    # set of k distinct answers that realizes the diversity, and the stats
    # count each decomposition's own nodes.
    rng = random.Random(83)
    witnesses = 0
    for _ in range(30):
        query, db = random_cqneg_query(rng)
        td = tree_decompose(query)
        nice_td = make_nice(td)
        answers = enumerate_answers(query, db)
        for k, aggregator in ((2, SUM), (3, MIN)):
            plain = solve_cqneg(query, db, k, None, aggregator, witness=True,
                                decomposition=td)
            nice = solve_cqneg(query, db, k, None, aggregator, witness=True,
                               decomposition=nice_td)
            assert (nice.decision, nice.diversity) == (plain.decision, plain.diversity)
            assert plain.stats["nodes"] == len(td.bags)
            assert nice.stats["nodes"] == len(nice_td.bags)
            for out in (plain, nice):
                assert (out.witness is None) == (not out.decision)
                if out.witness is not None:
                    assert len(set(out.witness)) == k
                    assert all(a in answers for a in out.witness)
                    assert diversity_of_set(aggregator, out.witness,
                                            query.free_vars) == out.diversity
            witnesses += plain.witness is not None
    assert witnesses >= 20


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


def test_node_tables_match_witness_semantics():
    # e in D_t iff solutions of the subtree's covered literals extend e,
    # every variable taking one of its candidate values. A table stores the
    # entries of D_t at sorted tuples of its sols, and its sols are the
    # node's bag assignments that extend to an answer (the k = 1 pass). A
    # forget is the reference projection of a child's table onto the
    # variables it shares with its parent. A node with children starts from
    # its init over its sols, and its table is the reference merge of each
    # child's reference projection into that, child by child, entry for
    # entry; the first merge is the introduce rule, each further one the
    # join rule. A bag that adds no variable to its first child's starts
    # from that child's projection instead.
    rng = random.Random(79)
    joins = {2: 0, 3: 0}
    introduces = forgets = 0
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
        every_var = sorted(frozenset().union(*td.bags.values()))
        answers = [
            g for g in literal_solutions(literals, every_var, db)
            if all(g[v] in candidates[v] for v in every_var)
        ]
        for node in td.postorder():
            order = sorted(td.bags[node])
            sols = solver.tables[node].sols
            assert sols == solver.sols[node]
            assert set(sols) == {tuple(g[v].index for v in order) for g in answers}
            kids = td.children.get(node, ())
            reference = dp_init(node, td.bags[node], sols, k, free)
            for n, child in enumerate(kids):
                forgets += 1
                shared = td.bags[node] & td.bags[child]
                projected = reference_project(solver.tables[child], node, shared)
                table = solver.forget(node, child)
                assert (table.variables, table.sols) == (projected.variables, projected.sols)
                assert list(table.entries.items()) == list(projected.entries.items())
                if n == 0 and shared == td.bags[node]:
                    assert projected.sols == sols
                    reference = projected
                else:
                    introduces += n == 0
                    reference = replace(reference,
                                        entries=reference_merge(reference, projected, free))
            joins[k] += max(len(kids) - 1, 0)  # join rules applied
            assert spelled_links(solver.tables[node].entries) == \
                spelled_links(reference.entries)
            subtree_bags = [td.bags[node]]
            stack = list(td.children.get(node, ()))
            while stack:
                current = stack.pop()
                subtree_bags.append(td.bags[current])
                stack.extend(td.children.get(current, ()))
            cone = frozenset().union(*subtree_bags)
            covered = [lit for lit in literals if lit.variables <= cone]
            cone_vars = sorted(cone)
            witnesses = [
                g for g in literal_solutions(covered, cone_vars, db)
                if all(g[v] in candidates[v] for v in cone_vars)
            ]
            local_free = [x for x in free if x in cone]
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
                for ptuple, dvec in solver.tables[node].entries
            }
            assert stored == expected
    assert joins[2] >= 3 and joins[3] >= 10, joins
    assert introduces > 0 and forgets > introduces, (introduces, forgets)


def _unreduced_solver(query, db, k, td, table_cap):
    """A solver whose rules run without the k = 1 pass, over the sols the
    sweep finds bottom-up alone: each bag's assignments that keep its
    covered literals true and meet its children's bottom-up sols, with no
    refusal at `most`. A join that builds more partial assignments than the
    cap raises."""
    solver = BagSolver(query, db, k, td, table_cap=10 ** 7)
    solver.table_cap = table_cap
    sols = {}
    for node in td.postorder():
        sols[node] = solver.satisfying_tuples(node, sols)
    solver.sols = sols
    return solver


def _spelled_entries(solver, node):
    """A node's entries in order, slots spelled as their sols, each with its
    sum and its provenance links, each spelled as the linked table's node
    and the child key spelled the same way."""

    def spell(table, key):
        return tuple(table.sols[p] for p in key[0]), key[1]

    table = solver.tables[node]
    return [
        (spell(table, key), value,
         tuple((child.node, spell(child, ckey), sigma) for child, ckey, sigma in refs))
        for key, (value, refs) in table.entries.items()
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


def test_full_reducer_keeps_root_entries():
    # The same rules over the bottom-up sols alone build tables that, cut
    # to the reduced sols, are the reduced tables: entries, order, sums and
    # provenance. At the root nothing is cut, so the root entries and every
    # witness are equal; the reduced tables are no larger.
    rng = random.Random(89)
    shrunk = dangling = 0
    for trial in range(150):
        query, plain_db = random_cqneg_query(rng, max_vars=5, dom_size=3)
        db = _with_dangling_rows(plain_db, rng)
        k = 2 if trial % 2 == 0 else 3
        td = tree_decompose(query)
        reduced = BagSolver(query, db, k, td, table_cap=10 ** 7)
        reduced.run()
        full = _unreduced_solver(query, db, k, td, table_cap=10 ** 7)
        full.run()
        # a child with bottom-up sols that its parent's bottom-up sols miss
        dangling += any(
            not set(_project(full.sols[kid], td.bags[kid], td.bags[node] & td.bags[kid]))
            <= set(_project(full.sols[node], td.bags[node], td.bags[node] & td.bags[kid]))
            for node in td.postorder() for kid in td.children.get(node, ()))
        for node in td.postorder():
            kept = set(reduced.sols[node])
            assert kept <= set(full.sols[node])
            assert _spelled_entries(reduced, node) == [
                e for e in _spelled_entries(full, node) if kept.issuperset(e[0][0])]
        root = td.root
        assert _spelled_entries(reduced, root) == _spelled_entries(full, root)
        assert [reduced.witness(key) for key in reduced.tables[root].entries] == \
            [full.witness(key) for key in full.tables[root].entries]
        sizes = [max(len(t.entries) for t in s.tables.values()) for s in (reduced, full)]
        assert sizes[0] <= sizes[1]
        shrunk += sizes[0] < sizes[1]
    assert dangling > 0 and shrunk > 0, (dangling, shrunk)


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
    refused = 0
    for trial in range(150):
        query, plain_db = random_cqneg_query(rng, max_vars=5, dom_size=3)
        db = _with_dangling_rows(plain_db, rng)
        k = 2 if trial % 2 == 0 else 3
        cap = rng.randint(1, 60)
        td = tree_decompose(query)
        try:
            BagSolver(query, db, k, td, table_cap=cap)
        except TableGuardExceeded:
            refused += 1
            with pytest.raises(TableGuardExceeded):
                _unreduced_solver(query, db, k, td, table_cap=cap).run()
    assert refused > 10, refused


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
