import itertools
import random

import pytest

from diverseq.acq import (
    EXACT,
    FLAGS,
    NONE,
    _sorted_sols,
    _traverse,
    dp_finalize,
    dp_init,
    dp_merge,
    dp_project,
    extract_witness,
    solve_acq,
    solve_acq_sum,
    solve_acq_sum_dup,
)
from diverseq.errors import NotAcyclic, TableGuardExceeded
from diverseq.model import MIN, SUM, Database, diversity_of_set, pair_order
from diverseq.oracle import (
    Graph,
    bruteforce_diversity,
    enumerate_answers,
    independent_set_to_diverse_query,
)
from diverseq.queries import parse_query
from diverseq.structure import gyo_join_tree
from helpers import (
    conjunction_solutions,
    is_permutation_closed,
    reference_merge,
    reference_project,
    slot_closure,
    small_answer_instances,
    sol_bindings,
    spelled_links,
)


def k2_instance():
    """Single-edge graph reduction: answers (1,0) and (2,0)."""
    return independent_set_to_diverse_query(Graph.from_edges(2, [(1, 2)]), 2)


def k3_instance():
    return independent_set_to_diverse_query(
        Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), 2
    )


def test_dp_init_k2_atom():
    fx = k2_instance()
    atom = fx.query.conjuncts[0].positive_atoms[1]  # R1(v, x1)
    table = dp_init(1, atom.variables, _sorted_sols(atom, fx.db), 2, fx.query.free_vars)
    # two rows: slot tuples (0, 0), (0, 1), (1, 1) are stored, (1, 0) is not
    assert [key[0] for key in table.entries] == [(0, 0), (0, 1), (1, 1)]
    full = slot_closure(((key, None) for key in table.entries), 2)
    assert len(full) == 4
    # the mixed pair carries distance 1 (answers differ on v only)
    assert ((0, 1), (1,)) in table.entries
    assert ((1, 0), (1,)) in full


def test_dp_init_empty_relation():
    db = Database()
    db.add_relation("R", 1, [])
    q = parse_query("Q(x) :- R(x).")
    atom = q.conjuncts[0].positive_atoms[0]
    table = dp_init(0, atom.variables, _sorted_sols(atom, db), 2, q.free_vars)
    assert table.entries == {}


def test_dp_init_k1_has_empty_distance_vector():
    fx = k2_instance()
    atom = fx.query.conjuncts[0].positive_atoms[0]
    table = dp_init(0, atom.variables, _sorted_sols(atom, fx.db), 1, fx.query.free_vars)
    assert len(table.entries) == 2
    assert all(key[1] == () for key in table.entries)


def test_dp_merge_disjoint_free_vars_adds_distances():
    db = Database.from_rows({"R": [(1,), (2,)], "S": [(1, 5), (1, 6)]})
    q = parse_query("Q(x, y) :- R(x), S(x, y).")
    jt = gyo_join_tree(q)
    atoms = q.conjuncts[0].positive_atoms
    root_atom = atoms[jt.root]
    child_node = jt.children[jt.root][0]
    child_atom = atoms[child_node]
    parent = dp_init(jt.root, root_atom.variables, _sorted_sols(root_atom, db), 2, q.free_vars)
    child = dp_init(child_node, child_atom.variables, _sorted_sols(child_atom, db), 2, q.free_vars)
    merged = dp_merge(parent, child, q.free_vars)
    # x = 1 for both S rows; distances on x (0) and y add with no overlap
    for (ptuple, dvec) in merged.entries:
        a, b = (sol_bindings(merged, p, db.domain) for p in ptuple)
        x_equal = a["x"] == b["x"]
        assert x_equal or dvec[0] >= 1


def test_dp_merge_drops_incompatible_pairs():
    db = Database.from_rows({"R": [(1,)], "S": [(2, 5)]})
    q = parse_query("Q(x, y) :- R(x), S(x, y).")
    jt = gyo_join_tree(q)
    atoms = q.conjuncts[0].positive_atoms
    child_node = jt.children[jt.root][0]
    parent = dp_init(jt.root, atoms[jt.root].variables, _sorted_sols(atoms[jt.root], db),
                     1, q.free_vars)
    child = dp_init(child_node, atoms[child_node].variables, _sorted_sols(atoms[child_node], db),
                    1, q.free_vars)
    merged = dp_merge(parent, child, q.free_vars)
    assert merged.entries == {}


def test_dp_finalize_k2_thresholds():
    fx = k2_instance()
    out = solve_acq(fx.query, fx.db, 2, fx.d_sum, SUM)
    assert out.decision is False and out.diversity == 1
    out = solve_acq(fx.query, fx.db, 2, 1, SUM, witness=True)
    assert out.decision is True
    assert sorted(tuple(a[v].payload for v in fx.query.free_vars)
                  for a in out.witness) == [(1, 0), (2, 0)]


def test_dp_finalize_zero_distance_pruning():
    db = Database.from_rows({"R": [(1,)]})
    q = parse_query("Q(x) :- R(x).")
    out = solve_acq(q, db, 2, 0, SUM)
    assert out.decision is False  # both answers identical, pruned
    out_dup = solve_acq(q, db, 2, 0, SUM, allow_duplicates=True)
    assert out_dup.decision is True and out_dup.diversity == 0


def test_solve_acq_k3_fixture():
    fx = k3_instance()
    out = solve_acq(fx.query, fx.db, 2, 4, SUM)
    assert out.decision is False and out.diversity == 3
    answers = enumerate_answers(fx.query, fx.db)
    best, _ = bruteforce_diversity(answers, 2, SUM)
    assert best == 3


def test_solve_acq_isolated_vertices():
    db = Database.from_rows({"R": [(1,), (2,)]})
    q = parse_query("Q(v) :- R(v).")
    out = solve_acq(q, db, 2, 1, SUM)
    assert out.decision is True and out.diversity == 1


def test_solve_acq_k1_min_is_infinite():
    db = Database.from_rows({"R": [(1,)]})
    q = parse_query("Q(v) :- R(v).")
    out = solve_acq(q, db, 1, 100, MIN)
    assert out.decision is True


def test_sum_and_min_coincide_for_two_answers():
    rng = random.Random(17)
    for query, db in small_answer_instances(rng, 25):
        with_sum = solve_acq(query, db, 2, None, SUM)
        with_min = solve_acq(query, db, 2, None, MIN)
        assert with_sum.decision == with_min.decision
        if with_sum.diversity is not None:
            assert with_sum.diversity == with_min.diversity


def test_solve_acq_rejects_cyclic():
    q = parse_query("Q(x, y, z) :- R(x, y), S(y, z), T(z, x).")
    db = Database.from_rows({"R": [(1, 1)], "S": [(1, 1)], "T": [(1, 1)]})
    with pytest.raises(NotAcyclic):
        solve_acq(q, db, 2, 1, SUM)


def test_table_guard_triggers():
    fx = k3_instance()
    with pytest.raises(TableGuardExceeded):
        solve_acq(fx.query, fx.db, 3, 1, SUM, table_cap=8)


def test_extract_witness_single_node_tree():
    db = Database.from_rows({"R": [(1, 2), (3, 4)]})
    q = parse_query("Q(x, y) :- R(x, y).")
    # one pair of answers differing on both columns: sum diversity 2
    out = solve_acq(q, db, 2, 2, SUM, witness=True)
    assert out.decision is True
    assert diversity_of_set(SUM, out.witness, q.free_vars) == 2


def test_witness_contract_random():
    rng = random.Random(29)
    for query, db in small_answer_instances(rng, 30):
        k = rng.choice([2, 3])
        out = solve_acq(query, db, k, None, SUM, witness=True)
        if not out.decision:
            continue
        answers = enumerate_answers(query, db)
        assert len(set(out.witness)) == k
        for a in out.witness:
            assert a in answers
        assert diversity_of_set(SUM, out.witness, query.free_vars) == out.diversity


def test_table_semantics_against_subtree_enumeration():
    # Expanded under slot permutations, the stored (sorted) entries are
    # exactly the partials and distances that subtree solution tuples realize.
    rng = random.Random(31)
    checked = 0
    while checked < 12:
        query, db = small_answer_instances(
            rng, 1, max_answers=12, max_atoms=3, max_dom=3, max_rows=5
        )[0]
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        k = 2 if checked % 2 == 0 else 3
        free = query.free_vars

        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db), k, free)
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child], free)
            tables[node] = table

            subtree_atoms = []
            stack = [node]
            while stack:
                current = stack.pop()
                subtree_atoms.append(atoms[current])
                stack.extend(jt.children.get(current, ()))
            subsols = conjunction_solutions(subtree_atoms, db)
            expected = set()
            index_of = {sol: i for i, sol in enumerate(table.sols)}
            node_order = sorted(atoms[node].variables)
            subtree_vars = {v for a in subtree_atoms for v in a.variables}
            local_free = [x for x in free if x in subtree_vars]
            for combo in itertools.product(subsols, repeat=k):
                ptuple = tuple(index_of[tuple(g[v].index for v in node_order)] for g in combo)
                dvec = tuple(
                    sum(1 for x in local_free if combo[i][x] != combo[j][x])
                    for i in range(k) for j in range(i + 1, k)
                )
                expected.add((ptuple, dvec))
            assert is_permutation_closed(expected, k)
            assert all(list(key[0]) == sorted(key[0]) for key in table.entries)
            full = slot_closure(((key, None) for key in table.entries), k)
            assert set(full) == expected
        checked += 1


def test_permutation_closure():
    # Every table stores exactly the sorted slot tuples of a table closed
    # under slot permutations: expanding it and keeping the sorted tuples
    # gives the stored entries back.
    rng = random.Random(37)
    for trial, (query, db) in enumerate(
        small_answer_instances(rng, 8, max_atoms=3, max_rows=6)
    ):
        k = 2 if trial % 2 == 0 else 3
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db),
                            k, query.free_vars)
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child], query.free_vars)
            tables[node] = table
            stored = set(table.entries)
            assert all(list(key[0]) == sorted(key[0]) for key in stored)
            full = slot_closure(((key, None) for key in stored), k)
            assert is_permutation_closed(full, k)
            assert {key for key in full if list(key[0]) == sorted(key[0])} == stored


def test_dp_merge_shared_existential_adds_distances_exactly():
    # the shared variable x is existential, so the correction term is zero
    # and subtree distances add up
    db = Database.from_rows({"R": [(1, 5), (2, 6)], "S": [(1, 7), (2, 8)]})
    q = parse_query("Q(y, z) :- R(x, y), S(x, z).")
    out = solve_acq(q, db, 2, None, SUM, witness=True)
    # answers: (5,7) and (6,8); they differ on both free variables
    assert out.diversity == 2
    assert diversity_of_set(SUM, out.witness, q.free_vars) == 2


def test_dp_merge_shared_free_variable_subtracts_overlap():
    # the shared variable x is free: its contribution must be counted once
    db = Database.from_rows({"R": [(1, 5), (2, 6)], "S": [(1, 7), (2, 8)]})
    q = parse_query("Q(x, y, z) :- R(x, y), S(x, z).")
    out = solve_acq(q, db, 2, None, SUM)
    # the two answers (1,5,7) and (2,6,8) differ on all three variables
    assert out.diversity == 3


# --- sum fast path -----------------------------------------------------------


def test_sum_path_matches_generic_on_random_instances():
    rng = random.Random(41)
    for query, db in small_answer_instances(rng, 40):
        k = rng.choice([2, 3])
        generic = solve_acq(query, db, k, None, SUM)
        fast = solve_acq_sum(query, db, k, None)
        assert generic.decision == fast.decision
        assert generic.diversity == fast.diversity


def test_sum_decomposes_by_column():
    rng = random.Random(43)
    for query, db in small_answer_instances(rng, 10):
        answers = sorted(
            enumerate_answers(query, db),
            key=lambda a: tuple(a[v].index for v in query.free_vars),
        )[:3]
        if len(answers) < 2:
            continue
        total = diversity_of_set(SUM, answers, query.free_vars)
        by_column = sum(
            diversity_of_set(SUM, answers, [x]) for x in query.free_vars
        )
        assert total == by_column


def test_sum_path_k3_fixture_value():
    fx = k3_instance()
    out = solve_acq_sum(fx.query, fx.db, 2, None, witness=True)
    assert out.diversity == 3
    assert diversity_of_set(SUM, out.witness, fx.query.free_vars) == 3


def test_sum_path_witnesses_are_distinct_answers():
    rng = random.Random(47)
    for query, db in small_answer_instances(rng, 25):
        out = solve_acq_sum(query, db, 2, None, witness=True)
        if not out.decision:
            continue
        answers = enumerate_answers(query, db)
        assert len(set(out.witness)) == 2
        for a in out.witness:
            assert a in answers
        assert diversity_of_set(SUM, out.witness, query.free_vars) == out.diversity


def test_sum_table_semantics_against_subtree_enumeration():
    # A sum-table entry (partials, flags), stored sorted and expanded under
    # slot permutations, must hold the maximum subtree-local sum diversity
    # over extensions whose pairwise difference pattern equals the flags.
    rng = random.Random(67)
    checked = 0
    while checked < 10:
        query, db = small_answer_instances(
            rng, 1, max_answers=12, max_atoms=3, max_dom=3, max_rows=5
        )[0]
        k = 2 if checked % 2 == 0 else 3
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        free = query.free_vars
        pairs = pair_order(k)

        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db),
                            k, free, rule=FLAGS)
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child], free)
            tables[node] = table

            subtree_atoms = []
            stack = [node]
            while stack:
                current = stack.pop()
                subtree_atoms.append(atoms[current])
                stack.extend(jt.children.get(current, ()))
            subsols = conjunction_solutions(subtree_atoms, db)
            index_of = {sol: i for i, sol in enumerate(table.sols)}
            node_order = sorted(atoms[node].variables)
            subtree_vars = {v for a in subtree_atoms for v in a.variables}
            local_free = [x for x in free if x in subtree_vars]
            expected: dict = {}
            for combo in itertools.product(subsols, repeat=k):
                ptuple = tuple(index_of[tuple(g[v].index for v in node_order)] for g in combo)
                ds = [
                    sum(1 for x in local_free if combo[i][x] != combo[j][x])
                    for i, j in pairs
                ]
                key = (ptuple, tuple(1 if d > 0 else 0 for d in ds))
                value = sum(ds)
                if key not in expected or value > expected[key]:
                    expected[key] = value
            assert is_permutation_closed(expected, k)
            assert all(list(key[0]) == sorted(key[0]) for key in table.entries)
            got = slot_closure(
                ((key, value) for key, (value, _) in table.entries.items()), k
            )
            assert got == expected
        checked += 1


def test_dup_table_semantics_against_subtree_enumeration():
    # A duplicates-mode entry holds, per sorted partial tuple, the maximum
    # subtree-local sum diversity over all index-aligned extension tuples.
    rng = random.Random(71)
    checked = 0
    while checked < 10:
        query, db = small_answer_instances(
            rng, 1, max_answers=12, max_atoms=3, max_dom=3, max_rows=5
        )[0]
        k = 2 if checked % 2 == 0 else 3
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        free = query.free_vars
        pairs = pair_order(k)

        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db),
                            k, free, rule=NONE)
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child], free)
            tables[node] = table

            subtree_atoms = []
            stack = [node]
            while stack:
                current = stack.pop()
                subtree_atoms.append(atoms[current])
                stack.extend(jt.children.get(current, ()))
            subsols = conjunction_solutions(subtree_atoms, db)
            index_of = {sol: i for i, sol in enumerate(table.sols)}
            node_order = sorted(atoms[node].variables)
            subtree_vars = {v for a in subtree_atoms for v in a.variables}
            local_free = [x for x in free if x in subtree_vars]
            expected: dict = {}
            for combo in itertools.product(subsols, repeat=k):
                ptuple = tuple(
                    sorted(index_of[tuple(g[v].index for v in node_order)] for g in combo)
                )
                value = sum(
                    sum(1 for x in local_free if combo[i][x] != combo[j][x])
                    for i, j in pairs
                )
                if ptuple not in expected or value > expected[ptuple]:
                    expected[ptuple] = value
            got = {key[0]: value for key, (value, _) in table.entries.items()}
            assert got == expected
        checked += 1


# --- duplicates allowed ------------------------------------------------------


def test_dup_single_answer_three_copies():
    db = Database.from_rows({"R": [(7,)]})
    q = parse_query("Q(x) :- R(x).")
    out = solve_acq_sum_dup(q, db, 3, 0, witness=True)
    assert out.decision is True and out.diversity == 0
    assert len(out.witness) == 3


def test_dup_k2_fixture_best_multiset():
    fx = k2_instance()
    out = solve_acq_sum_dup(fx.query, fx.db, 3, 2, witness=True)
    assert out.decision is True and out.diversity == 2
    assert diversity_of_set(SUM, out.witness, fx.query.free_vars) == 2


def test_dup_matches_multiset_bruteforce():
    rng = random.Random(53)
    for query, db in small_answer_instances(rng, 30):
        k = rng.choice([2, 3])
        fast = solve_acq_sum_dup(query, db, k, None)
        answers = enumerate_answers(query, db)
        best, _ = bruteforce_diversity(answers, k, SUM, allow_duplicates=True)
        if best is None:
            assert fast.decision is False
        else:
            assert fast.diversity == best


def test_dup_entry_count_within_multiset_bound():
    # check_bound asserts the binomial bound inside every table build; a full
    # solve exercising several merges is enough to trip it if wrong.
    rng = random.Random(59)
    for query, db in small_answer_instances(rng, 10):
        solve_acq_sum_dup(query, db, 3, None)


# --- full reducer ----------------------------------------------------------------


def _with_dangling(db, rng):
    """db with a few more rows per relation, each a copy of a row with one
    value replaced by a fresh one (100, 101 or 102), so most join nothing."""
    out = Database()
    for name, rel in db.relations.items():
        rows = [tuple(v.payload for v in r) for r in rel.sorted_rows()]
        for _ in range(rng.randint(1, 3)):
            row = list(rng.choice(rows))
            row[rng.randrange(rel.arity)] = 100 + rng.randrange(3)
            rows.append(tuple(row))
        out.add_relation(name, rel.arity, list(dict.fromkeys(rows)))
    return out


def _root_entries(tables, jt, free, db):
    """The root's entries in order, each spelled as its slots' solutions,
    its state, its sum and the answers its provenance gives."""
    table = tables[jt.root]
    return [
        (tuple(table.sols[p] for p in key[0]), key[1], entry[0],
         extract_witness(table, key, free, db.domain))
        for key, entry in table.entries.items()
    ]


def _pairwise_consistent(jt, atoms, sols):
    """Semi-join along every join-tree edge, both ways, until nothing
    changes; on an acyclic query this leaves each atom exactly the
    solutions in some full join result."""
    sols = dict(sols)
    changed = True
    while changed:
        changed = False
        for node in jt.postorder():
            for child in jt.children.get(node, ()):
                for a, b in ((node, child), (child, node)):
                    shared = atoms[a].variables & atoms[b].variables
                    cols_a, cols_b = (
                        [n for n, v in enumerate(sorted(atoms[x].variables)) if v in shared]
                        for x in (a, b))
                    seen = {tuple(s[c] for c in cols_b) for s in sols[b]}
                    kept = [s for s in sols[a] if tuple(s[c] for c in cols_a) in seen]
                    changed |= len(kept) < len(sols[a])
                    sols[a] = kept
    return sols


def test_full_reducer_keeps_root_entries():
    # The reducer leaves exactly the pairwise-consistent solutions, in order.
    # Reduced and unreduced traversals agree on the root table (slots,
    # vectors, values, order, provenance); the reduced tables are no larger.
    rng = random.Random(67)
    rows_dropped = shrunk = 0
    for trial, (query, plain_db) in enumerate(
        small_answer_instances(rng, 24, max_atoms=4, max_rows=6)
    ):
        db = _with_dangling(plain_db, rng)
        k = 2 if trial % 2 == 0 else 3
        free = query.free_vars
        atoms = query.conjuncts[0].positive_atoms
        for rule in (EXACT, FLAGS, NONE):
            jt, reduced, stats = _traverse(query, db, k, free, rule, 10 ** 7)
            full, max_full = {}, 0
            for node in jt.postorder():
                table = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db),
                                k, free, rule=rule)
                for child in jt.children.get(node, ()):
                    table = dp_merge(table, full[child], free)
                full[node] = table
                max_full = max(max_full, len(table.entries))
                rows_dropped += len(table.sols) - len(reduced[node].sols)
            consistent = _pairwise_consistent(
                jt, atoms, {node: full[node].sols for node in full})
            assert all(reduced[node].sols == consistent[node] for node in full)
            assert _root_entries(reduced, jt, free, db) == _root_entries(full, jt, free, db)
            assert stats["max_table"] <= max_full
            shrunk += stats["max_table"] < max_full
    assert rows_dropped > 0 and shrunk > 0


def test_dp_merge_matches_reference_merge():
    # Every merge equals the naive one (every parent entry, child entry and
    # slot map; first candidate with the highest sum) in keys, order, sums
    # and provenance links, under each state rule, dangling rows included.
    rng = random.Random(73)
    cases = [
        (query, _with_dangling(db, rng), 2 if trial % 2 == 0 else 3)
        for trial, (query, db) in enumerate(
            small_answer_instances(rng, 16, max_atoms=4, max_rows=6))
    ]
    # The parent's slots project onto y out of the child's sorted order and
    # with a repeat, so a k = 3 merge has several slot maps, none the identity.
    cases.append((
        parse_query("Q(x, z) :- R(x, y), S(y, z)."),
        Database.from_rows({"S": [(10, 5), (10, 6), (20, 7)], "R": [(1, 20), (2, 10), (3, 10)]}),
        3,
    ))
    # One partner per parent sol (the root S), rising with the parent sols
    # but skipping the child's dangling sols x = 42 and x = 44 (no full
    # reducer here): the partner map is strictly increasing, not the identity.
    cases.append((
        parse_query("Q(x, z) :- R(x, y), S(y, z)."),
        Database.from_rows({"S": [(10, 5), (20, 6), (30, 7)],
                            "R": [(41, 10), (42, 99), (43, 20), (44, 98), (45, 30)]}),
        3,
    ))
    # One partner per parent sol, child sols in the parent's order: every
    # slot map is the identity.
    star = Graph.from_edges(4, [(1, 2), (1, 3), (1, 4)])
    for k in (3, 4):
        fx = independent_set_to_diverse_query(star, k)
        cases.append((fx.query, fx.db, k))
    # One partner per parent sol (the root C1) in a rotated order, so slot
    # maps include 3-cycles, which differ from their inverses; then the
    # same with x1 = 40 joining two C0 rows, which mixes both paths.
    chain = parse_query("Q(x0, x2) :- C0(x0, x1), C1(x1, x2).")
    c1 = [(10, 5), (20, 6), (30, 7)]
    c0 = [(1, 30), (2, 10), (3, 20)]
    cases.append((chain, Database.from_rows({"C1": c1, "C0": c0}), 3))
    cases.append((chain, Database.from_rows({"C1": c1 + [(40, 8)],
                                             "C0": c0 + [(4, 40), (5, 40)]}), 3))
    # A parent sol (x1 = 50) that no C0 row joins, with the other partners
    # rising and then rotated: tuples holding it make no entry on the
    # direct path and on the per-tuple one.
    for child_rows in ([(1, 10), (2, 20), (3, 30)], c0):
        cases.append((chain, Database.from_rows({"C1": c1 + [(50, 9)], "C0": child_rows}), 3))
    merges = 0
    cycles = set()
    partner_maps = set()
    for query, db, k in cases:
        free = query.free_vars
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        for rule in (EXACT, FLAGS, NONE):
            tables = {}
            for node in jt.postorder():
                table = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db),
                                k, free, rule=rule)
                for child in jt.children.get(node, ()):
                    expected = reference_merge(table, tables[child], free)
                    partner_maps.add((rule.name, _partner_map_kind(table, tables[child])))
                    table = dp_merge(table, tables[child], free)
                    assert spelled_links(table.entries) == spelled_links(expected)
                    merges += 1
                    cycles.update(
                        (rule.name, sigma)
                        for _, refs in table.entries.values() for _, _, sigma in refs
                        if any(sigma[sigma[i]] != i for i in range(k)))
                tables[node] = table
    assert merges > 0
    assert {name for name, _ in cycles} == {"exact", "flags", "none"}
    for rule in ("exact", "flags", "none"):
        for kind in ("identity", "increasing", "permuted", "projected", "unjoined"):
            assert (rule, kind) in partner_maps


def _partner_map_kind(parent, child):
    """How a merge's parent sols map to their join partners: "projected"
    when some sol has several, so the merge projects the child first, else
    "unjoined" when some has none, else "identity", "increasing" (strictly,
    not the identity) or "permuted"."""
    shared = sorted(parent.variables & child.variables)
    proj_c = [tuple(sol_bindings(child, c)[v] for v in shared) for c in range(len(child.sols))]
    proj_p = [tuple(sol_bindings(parent, p)[v] for v in shared) for p in range(len(parent.sols))]
    counts = [proj_c.count(proj) for proj in proj_p]
    if max(counts, default=0) > 1:
        return "projected"
    if 0 in counts:
        return "unjoined"
    single = [proj_c.index(proj) for proj in proj_p]
    if single == list(range(len(single))):
        return "identity"
    if all(a < b for a, b in zip(single, single[1:])):
        return "increasing"
    return "permuted"


def test_dp_project_matches_reference_project():
    # Every projection equals the naive one (every child entry under every
    # slot map that leaves the projections sorted; first candidate with the
    # highest sum) in sols, keys, order, sums and provenance links, under
    # each state rule and k = 2, 3 and 4. The child tables are each node's
    # init and its merged table; each is projected onto every subset of its
    # variables, so many projections repeat.
    rng = random.Random(83)
    instances = list(small_answer_instances(rng, 12, max_atoms=3, max_rows=5))
    instances.append((parse_query("Q(x, z) :- R(x, y), S(y, z)."),
                      Database.from_rows({"S": [(10, 5), (10, 6), (20, 7)],
                                          "R": [(1, 20), (2, 10), (3, 10)]})))
    projections = repeated = rearranged = 0
    for trial, (query, db) in enumerate(instances):
        free = query.free_vars
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        k = (2, 3, 4)[trial % 3]
        for rule in (EXACT, FLAGS, NONE):
            tables = {}
            for node in jt.postorder():
                init = dp_init(node, atoms[node].variables, _sorted_sols(atoms[node], db),
                               k, free, rule=rule)
                table = init
                for child in jt.children.get(node, ()):
                    table = dp_merge(table, tables[child], free)
                tables[node] = table
                names = sorted(table.variables)
                for source in (init, table):
                    for size in range(len(names)):
                        for kept in itertools.combinations(names, size):
                            kept = frozenset(kept)
                            got = dp_project(source, 99, kept)
                            expected = reference_project(source, 99, kept)
                            assert got.sols == expected.sols
                            assert list(got.entries.items()) == list(expected.entries.items())
                            got.check_bound(len(free))
                            projections += 1
                            repeated += len(got.sols) < len(source.sols)
                            links = [ckey for _, refs in got.entries.values()
                                     for _, ckey, _ in refs]
                            rearranged += len(set(links)) < len(links)
    # some child entry lands at several keys, one per arrangement
    assert projections > 0 and repeated > 0 and rearranged > 0, \
        (projections, repeated, rearranged)


# --- oracle equivalence (small smoke version of the acceptance sweep) -----------


def test_oracle_equivalence_small():
    rng = random.Random(61)
    for query, db in small_answer_instances(rng, 30):
        k = rng.choice([2, 3])
        answers = enumerate_answers(query, db)
        for aggregator in (SUM, MIN):
            expected, _ = bruteforce_diversity(answers, k, aggregator)
            got = solve_acq(query, db, k, None, aggregator)
            if expected is None:
                assert got.decision is False
            else:
                assert got.diversity == expected


# --- deep join trees ------------------------------------------------------------


def test_deep_path_query_needs_no_recursion():
    # A 2000-atom path has a 2000-level join tree; every walk over it
    # (postorder, provenance) must be iterative.
    n = 2000
    body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    q = parse_query(f"Q(x0, x{n}) :- {body}.")
    db = Database.from_rows({"R": [(1, 1), (1, 2), (2, 1), (2, 2)]})
    for k, best in ((1, 0), (2, 2)):
        outcomes = [
            solve_acq(q, db, k, None, SUM, witness=True),
            solve_acq_sum(q, db, k, None, witness=True),
            solve_acq_sum_dup(q, db, k, None, witness=True),
        ]
        for out in outcomes:
            assert out.decision is True and out.diversity == best
            assert out.stats["nodes"] == n
            assert len(out.witness) == k == len(set(out.witness))
            assert diversity_of_set(SUM, out.witness, q.free_vars) == best
            for a in out.witness:
                assert set(a.as_payload_dict()) == {"x0", f"x{n}"}
