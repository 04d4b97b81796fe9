import itertools
import math
import operator
import random
import time

import pytest

from diverseq import acq
from diverseq.cqneg import BagSolver
from diverseq.acq import (
    DPTable,
    _MatrixEntries,
    _slot_maps,
    _slot_tuples,
    dp_finalize,
    dp_init,
    dp_merge,
    dp_project,
    extract_witness,
    merge_order,
    solve_acq,
    solve_acq_sum,
    solve_acq_sum_dup,
)
from diverseq.errors import NotAcyclic, TableGuardExceeded
from diverseq.model import MIN, SUM, Database, custom_aggregator, diversity_of_set, pair_order
from diverseq.oracle import (
    Graph,
    bruteforce_diversity,
    enumerate_answers,
    independent_set_to_diverse_query,
)
from diverseq.queries import parse_query, sols_atom
from diverseq.structure import gyo_join_tree, tree_decompose
from helpers import (
    conjunction_solutions,
    is_permutation_closed,
    random_acyclic_query,
    random_cqneg_query,
    reference_matrix_entries,
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
    table = dp_init(1, atom.variables, sorted(sols_atom(atom, fx.db)), 2, fx.query.free_vars)
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
    table = dp_init(0, atom.variables, sorted(sols_atom(atom, db)), 2, q.free_vars)
    assert table.entries == {}


def test_dp_init_k1_has_empty_distance_vector():
    fx = k2_instance()
    atom = fx.query.conjuncts[0].positive_atoms[0]
    table = dp_init(0, atom.variables, sorted(sols_atom(atom, fx.db)), 1, fx.query.free_vars)
    assert len(table.entries) == 2
    assert all(key[1] == () for key in table.entries)


def test_matrix_table_reads_as_its_rows():
    # An initial table keeps only its sols' answer rows, yet reads as the
    # read-only mapping of its rows: one entry per sorted slot tuple, in
    # combinations_with_replacement order, each (sum, no links).
    sols = [(1, 5), (1, 6), (2, 5), (3, 7)]
    variables = frozenset({"x", "y"})
    for k in (1, 2, 3):
        for stateless in (False, True):
            table = dp_init(0, variables, sols, k, ["x", "y"], stateless=stateless)
            entries = table.entries
            assert table.answer_rows is not None
            tuples = list(itertools.combinations_with_replacement(range(len(sols)), k))
            assert len(entries) == len(tuples) == math.comb(len(sols) + k - 1, k)
            assert [key[0] for key in entries] == tuples
            assert list(entries.keys()) == list(entries)
            rows = {}
            for ptuple in tuples:
                vec = tuple(sum(map(operator.ne, sols[ptuple[i]], sols[ptuple[j]]))
                            for i, j in pair_order(k))
                rows[(ptuple, () if stateless else vec)] = (sum(vec), ())
            assert list(entries.items()) == list(rows.items())
            assert list(entries.values()) == list(rows.values())
            assert entries == rows and dict(entries) == rows
            assert all(key in entries and entries[key] == rows[key] for key in rows)
            if k < 2:
                continue
            # Foreign keys: wrong state, unsorted tuple, index out of range
            # (either end), wrong arity, and not a key at all.
            ptuple, state = next(key for key in rows if key[0] == (0, 3) + (3,) * (k - 2))
            wrong_state = (ptuple, (9,) * len(pair_order(k)))
            if stateless:
                wrong_state = (ptuple, state + (0,))
            foreign = [
                wrong_state,
                ((3, 0) + ptuple[2:], state),
                ((0,) * (k - 1) + (len(sols),), state),
                ((-1,) + (0,) * (k - 1), state),
                (ptuple[:-1], state),
                (ptuple + (3,), state),
                ptuple,
                [ptuple, state],
            ]
            for key in foreign:
                assert key not in entries
                assert entries.get(key) is None
                with pytest.raises(KeyError):
                    entries[key]


def test_matrix_table_without_sols():
    # No sols: no entry for k >= 1, and the one empty tuple for k = 0.
    for stateless in (False, True):
        for k in (1, 2):
            table = dp_init(0, frozenset({"x"}), [], k, ["x"], stateless=stateless)
            assert table.entries == {} and len(table.entries) == 0
            assert list(table.entries) == [] and ((0,) * k, ()) not in table.entries
        table = dp_init(0, frozenset({"x"}), [], 0, ["x"], stateless=stateless)
        assert table.entries == {((), ()): (0, ())}


def test_k0_counts_the_empty_tuple():
    # k = 0 asks for the empty set of answers, which exists whether or not
    # the query has answers: one slot tuple, for exact and stateless tables
    # (which once failed to count it over no sols).
    assert _slot_tuples(0, 0, True, 10) == _slot_tuples(0, 0, False, 10) == 1
    q = parse_query("Q(x) :- R(x), S(x).")
    for r_rows in ([(3,)], [(1,), (2,)]):
        db = Database.from_rows({"R": r_rows, "S": [(1,), (2,)]})
        answers = enumerate_answers(q, db)
        for aggregator in (SUM, MIN):
            for dup in (False, True):
                expected, best = bruteforce_diversity(answers, 0, aggregator, allow_duplicates=dup)
                assert best == ()
                out = solve_acq(q, db, 0, None, aggregator, witness=True, allow_duplicates=dup)
                assert (out.decision, out.diversity, out.witness) == (True, expected, ())
                assert out.stats["max_table"] == 1
        out = solve_acq_sum_dup(q, db, 0, None, witness=True)
        assert (out.decision, out.diversity, out.witness) == (True, 0, ())


def test_dp_merge_disjoint_free_vars_adds_distances():
    db = Database.from_rows({"R": [(1,), (2,)], "S": [(1, 5), (1, 6)]})
    q = parse_query("Q(x, y) :- R(x), S(x, y).")
    jt = gyo_join_tree(q)
    atoms = q.conjuncts[0].positive_atoms
    root_atom = atoms[jt.root]
    child_node = jt.children[jt.root][0]
    child_atom = atoms[child_node]
    parent = dp_init(jt.root, root_atom.variables, sorted(sols_atom(root_atom, db)), 2,
                     q.free_vars)
    child = dp_init(child_node, child_atom.variables, sorted(sols_atom(child_atom, db)), 2,
                    q.free_vars)
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
    parent = dp_init(jt.root, atoms[jt.root].variables, sorted(sols_atom(atoms[jt.root], db)),
                     1, q.free_vars)
    child = dp_init(child_node, atoms[child_node].variables,
                    sorted(sols_atom(atoms[child_node], db)), 1, q.free_vars)
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
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)), k,
                            free)
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
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
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


# --- sum solvers -------------------------------------------------------------


def test_solve_acq_under_sum_matches_the_sum_solvers():
    # solve_acq derives its tables from the aggregator and the duplicates
    # flag, so under sum it is solve_acq_sum, or with duplicates allowed
    # solve_acq_sum_dup, down to the witness and the table sizes.
    rng = random.Random(41)
    for query, db in small_answer_instances(rng, 40):
        for k in (2, 3):
            for allow_duplicates, dedicated in ((False, solve_acq_sum),
                                                (True, solve_acq_sum_dup)):
                generic = solve_acq(query, db, k, None, SUM, witness=True,
                                    allow_duplicates=allow_duplicates)
                fast = dedicated(query, db, k, None, witness=True)
                assert (generic.decision, generic.diversity, generic.witness, generic.stats) \
                    == (fast.decision, fast.diversity, fast.witness, fast.stats)


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
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                            k, free, stateless=True)
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
        for _ in range(rng.randint(1, 3) if rows else 0):
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


def test_full_reducer_keeps_root_entries(monkeypatch):
    # The reducer leaves exactly the pairwise-consistent solutions, in order.
    # The driver run over the reduced sols and over the unreduced atom sols,
    # each node merging its children in the order the reduced run chose
    # (`merge_order` over its tables), agree on the root table (slots,
    # vectors, values, order, provenance) cut to the reduced root table's
    # sols; the reduced tables are no larger. The cut removes nothing unless
    # the root is a forget: its table is its child's, whose unreduced sols
    # still hold rows the root's atom would cut.
    orders = {}

    def recording(table, kids, tables):
        orders[tuple(kids)] = merge_order(table, kids, tables)
        return orders[tuple(kids)]

    def replaying(table, kids, tables):
        return orders[tuple(kids)]

    rng = random.Random(67)
    rows_dropped = shrunk = forget_roots = 0
    for trial, (query, plain_db) in enumerate(
        small_answer_instances(rng, 24, max_atoms=4, max_rows=6)
    ):
        db = _with_dangling(plain_db, rng)
        k = 2 if trial % 2 == 0 else 3
        free = query.free_vars
        atoms = query.conjuncts[0].positive_atoms
        for stateless in (False, True):
            monkeypatch.setattr(acq, "merge_order", recording)
            jt = gyo_join_tree(query)
            reduced = acq.TreeSolver(query, db, k, jt, 10 ** 7, stateless)
            reduced.run()
            full = acq.TreeSolver(query, db, k, jt, 10 ** 7, stateless)
            full.sols = {node: sorted(sols_atom(atoms[node], db)) for node in jt.bags}
            monkeypatch.setattr(acq, "merge_order", replaying)
            full.run()
            rows_dropped += sum(len(full.sols[n]) - len(reduced.sols[n]) for n in jt.bags)
            consistent = _pairwise_consistent(jt, atoms, full.sols)
            assert all(reduced.sols[node] == consistent[node] for node in jt.bags)
            kept = set(reduced.tables[jt.root].sols)
            expected = _root_entries(full.tables, jt, free, db)
            cut = [e for e in expected if kept.issuperset(e[0])]
            assert _root_entries(reduced.tables, jt, free, db) == cut
            kids = jt.children[jt.root]
            forget = len(kids) == 1 and jt.bags[jt.root] <= jt.bags[kids[0]]
            assert forget or cut == expected
            forget_roots += forget
            assert reduced.max_table <= full.max_table
            shrunk += reduced.max_table < full.max_table
    assert rows_dropped > 0 and shrunk > 0 and forget_roots > 0, \
        (rows_dropped, shrunk, forget_roots)


@pytest.mark.parametrize("mode", ["sum", "min", "sum-dup"])
def test_one_child_forget_takes_the_ear_table(mode):
    # R is the GYO ear below the root T, whose bag {x} lies in R's {x, y}:
    # the root is a forget and its table is R's, under the root's id. x = 4
    # has no T row, so the reducer cuts R's (4, 1) first. The solve matches
    # the brute force, and its witness re-verifies.
    db = Database.from_rows({"R": [(1, 1), (1, 2), (2, 1), (2, 3), (3, 3), (4, 1)],
                             "T": [(1,), (2,), (3,)]})
    query = parse_query("Q(x, y) :- R(x, y), T(x).")
    aggregator, dup = (MIN, False) if mode == "min" else (SUM, mode == "sum-dup")
    answers = enumerate_answers(query, db)
    for k in (2, 3):
        jt = gyo_join_tree(query)
        solver = acq.TreeSolver(query, db, k, jt, 10 ** 7, dup)
        assert jt.children[jt.root] == (0,) and jt.bags[jt.root] == {"x"}
        solver.run()
        ear, root = solver.tables[0], solver.tables[jt.root]
        assert (root.node, root.variables, root.sols) == (jt.root, ear.variables, ear.sols)
        assert root.entries is ear.entries and len(ear.sols) == 5
        expected, _ = bruteforce_diversity(answers, k, aggregator, allow_duplicates=dup)
        if mode == "sum-dup":
            out = solve_acq_sum_dup(query, db, k, None, witness=True)
        else:
            out = solve_acq(query, db, k, None, aggregator, witness=True)
        assert out.decision is True and out.diversity == expected
        assert out.stats["max_table"] == len(ear.entries)
        assert len(out.witness) == k and all(a in answers for a in out.witness)
        assert dup or len(set(out.witness)) == k
        assert diversity_of_set(aggregator, out.witness, query.free_vars) == expected


def test_dp_merge_matches_reference_merge():
    # Every merge equals the naive one (every parent entry, child entry and
    # slot map; first candidate with the highest sum) in keys, order, sums
    # and provenance links, in exact and stateless tables, dangling rows
    # included.
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
    # rising and then rotated: tuples holding it make no entry, whether the
    # other slots read their partners under the identity or not.
    for child_rows in ([(1, 10), (2, 20), (3, 30)], c0):
        cases.append((chain, Database.from_rows({"C1": c1 + [(50, 9)], "C0": child_rows}), 3))
    merges = 0
    cycles = set()
    partner_maps = set()
    added = set()  # (stateless, kind) of merges that added matrices
    for query, db, k in cases:
        free = query.free_vars
        jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        for stateless in (False, True):
            tables = {}
            for node in jt.postorder():
                table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                                k, free, stateless=stateless)
                for child in jt.children.get(node, ()):
                    expected = reference_merge(table, tables[child], free)
                    kind = _partner_map_kind(table, tables[child])
                    partner_maps.add((stateless, kind))
                    # A functional join of two matrix tables adds matrices;
                    # a projected or unjoined one stores rows.
                    fold = kind in ("identity", "increasing", "permuted") \
                        and table.answer_rows is not None \
                        and tables[child].answer_rows is not None
                    table = dp_merge(table, tables[child], free)
                    assert (table.answer_rows is not None) == fold
                    if fold:
                        added.add((stateless, kind))
                    assert spelled_links(table.entries, node) == \
                        spelled_links(expected, node)
                    merges += 1
                    cycles.update(
                        (stateless, sigma)
                        for _, refs in table.entries.values() for _, _, sigma in refs
                        if any(sigma[sigma[i]] != i for i in range(k)))
                tables[node] = table
    assert merges > 0
    assert {stateless for stateless, _ in cycles} == {False, True}
    for stateless in (False, True):
        for kind in ("identity", "increasing", "permuted", "projected", "unjoined"):
            assert (stateless, kind) in partner_maps
        for kind in ("identity", "increasing", "permuted"):
            assert (stateless, kind) in added


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
    # highest sum) in sols, keys, order, sums and provenance links, in exact
    # and stateless tables and k = 2, 3 and 4. The child tables are each node's
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
        for stateless in (False, True):
            tables = {}
            for node in jt.postorder():
                init = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                               k, free, stateless=stateless)
                table = init
                for child in jt.children.get(node, ()):
                    table = dp_merge(table, tables[child], free)
                tables[node] = table
                names = sorted(table.variables)
                for source in (init, table):
                    for size in range(len(names)):
                        for kept in itertools.combinations(names, size):
                            kept = frozenset(kept)
                            got = dp_project(source, kept)
                            expected = reference_project(source, kept)
                            assert (got.node, got.variables) == (node, kept)
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


def _slot_maps_by_search(ctuple, proj, target):
    """Every slot map onto `target` tried: the first (least) map for each
    rearranged child tuple, ordered by that tuple."""
    first = {}
    for sigma in itertools.permutations(range(len(ctuple))):
        if all(proj[ctuple[s]] == t for s, t in zip(sigma, target)):
            first.setdefault(tuple(ctuple[s] for s in sigma), sigma)
    return tuple(first[rearranged] for rearranged in sorted(first))


def test_stateless_projection_takes_the_stable_argsort_alone(monkeypatch):
    # A stateless entry lands on one key under every slot map, so the
    # projection reads only the first, the stable argsort of its slots'
    # projections: at k = 9, nine distinct sols projecting alike would
    # otherwise make 9! maps. Sols over (x, y) projected onto {y} (three
    # values, out of order) and onto nothing (one value).
    def no_maps(*args):
        raise AssertionError("a stateless projection built slot maps")

    monkeypatch.setattr(acq, "_slot_maps", no_maps)
    sols = [(x, y) for x in range(3) for y in range(3)]
    entries = {(tuple(range(9)), ()): (20, ()), ((0, 0, 1, 2, 4, 4, 5, 7, 8), ()): (13, ())}
    child = DPTable(node=4, variables=frozenset({"x", "y"}), sols=sols, k=9, stateless=True,
                    entries=entries)
    for kept in (frozenset({"y"}), frozenset()):
        got = dp_project(child, kept)
        expected = reference_project(child, kept)
        assert (got.node, got.variables, got.sols) == (4, kept, expected.sols)
        assert list(got.entries.items()) == list(expected.entries.items())


def test_slot_maps_match_a_search_over_all_maps():
    # Sorted child tuples over 4 sols, each sol projecting to one of 3 values,
    # onto the sorted rearrangement of their projections.
    maps = 0
    for k in range(1, 6):
        for ctuple in itertools.combinations_with_replacement(range(4), k):
            for proj in itertools.product("abc", repeat=4):
                target = tuple(sorted(proj[c] for c in ctuple))
                expected = _slot_maps_by_search(ctuple, proj, target)
                assert _slot_maps(ctuple, proj, target) == expected, (ctuple, proj)
                maps += len(expected)
    assert maps > 30_000, maps


def test_slot_maps_of_repeated_sols_take_no_factorial_walk():
    # Two sols repeated 7 times each, projecting alike: the maps are the
    # C(14, 7) ways to interleave them, reached without visiting the 14!
    # orders of the equal slots.
    ctuple = (0,) * 7 + (1,) * 7
    started = time.perf_counter()
    maps = _slot_maps(ctuple, ("a", "a"), ("a",) * 14)
    assert time.perf_counter() - started < 5.0
    assert len(maps) == math.comb(14, 7)
    rearranged = [tuple(ctuple[s] for s in sigma) for sigma in maps]
    assert rearranged == sorted(set(rearranged))


# --- the matrix root search against plain enumeration ----------------------------

SQUARES = custom_aggregator(lambda ds: sum(x * x for x in ds), monotone=True, name="squares")


def test_answer_rows_read_as_the_matrices_they_replace(monkeypatch):
    # Every matrix table either engine builds (an atom's or a bag's init,
    # and each merge that adds answer rows) reads as the distance matrix
    # that tables once stored: its sols' own distances, plus each added
    # child's matrix at the partners, less the shared distance
    # (`helpers.reference_matrix`). Keys, their order, states, sums and
    # fold links all agree, on random acyclic and bounded-width negation
    # instances with dangling rows, and on one-to-one chains, whose every
    # merge adds rows that hold free variables of their own; k = 2..4,
    # exact and stateless.
    built = []
    for name in ("dp_init", "dp_merge"):
        original = getattr(acq, name)

        def recording(*args, original=original, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(acq, name, recording)
    rng = random.Random(139)
    checked = folded = nested = stateless_checked = 0
    for trial in range(120):
        k = 2 + trial % 3
        stateless = trial % 2 == 1
        if trial % 6 < 2:
            query, plain_db = random_acyclic_query(rng, max_rows=6)
            solver = acq.TreeSolver(query, _with_dangling(plain_db, rng), k,
                                    gyo_join_tree(query), 10 ** 7, stateless)
        elif trial % 6 < 4:
            query, plain_db = _functional_chain(rng, rng.randint(2, 4))
            solver = acq.TreeSolver(query, _with_dangling(plain_db, rng), k,
                                    gyo_join_tree(query), 10 ** 7, stateless)
        else:
            query, plain_db = random_cqneg_query(rng, max_vars=5, dom_size=2)
            solver = BagSolver(query, _with_dangling(plain_db, rng), k,
                               tree_decompose(query), 10 ** 7, stateless)
        built.clear()
        solver.run()
        for table in built:
            if table.answer_rows is None:
                continue
            assert list(table.entries.items()) == \
                reference_matrix_entries(table, query.free_vars), (trial, table.node)
            checked += 1
            stateless_checked += table.stateless
            folds = table.entries.folds
            folded += bool(folds)
            nested += any(child.entries.folds for child, _ in folds)
    assert checked > 200 and folded > 30 and nested > 5 and stateless_checked > 50, \
        (checked, folded, nested, stateless_checked)


def enumerated_finalize(root, aggregator, threshold, allow_duplicates):
    """`dp_finalize` by plain enumeration: every entry in table order, one
    with a zero distance dropped unless duplicates are allowed, scored by
    the aggregate of its state (a stateless one by its sum), the first best
    kept."""
    best_key = best = None
    for key, (total, _) in root.entries.items():
        if not allow_duplicates and not all(key[1]):
            continue
        value = total if root.stateless else aggregator.aggregate(key[1])
        if best is None or value > best:
            best_key, best = key, value
    return best is not None and (threshold is None or best >= threshold), best_key, best


def random_matrix_root(rng, n, k, stateless):
    """A matrix root over n sols with random answer rows: one to four
    columns over two or three values, so rows often agree on every column
    (a zero distance between two sols) or on all but one."""
    columns = tuple(f"x{c}" for c in range(rng.randint(1, 4)))
    values = rng.choice((2, 3))
    rows = [tuple(rng.randrange(values) for _ in columns) for _ in range(n)]
    return DPTable(node=0, variables=frozenset({"s"}), sols=[(i,) for i in range(n)], k=k,
                   stateless=stateless, entries=_MatrixEntries(rows, columns, k, stateless))


def test_matrix_root_search_matches_enumeration(monkeypatch):
    # On a matrix root the search (`model.best_tuple`) gives the decision,
    # the key with its state in pair order, and the value that reading
    # every entry gives: sum, min and a custom monotone aggregator, with and
    # without duplicates, and the stateless table sum builds with them.
    searches = []
    search = acq.best_tuple

    def counting(*args, **kwargs):
        searches.append(args[2])
        return search(*args, **kwargs)

    monkeypatch.setattr(acq, "best_tuple", counting)
    rng = random.Random(131)
    cases = found = zero_rows = 0
    for _ in range(120):
        n = rng.randint(0, 7)
        for k in (0, 1, 2, 4):
            for aggregator, stateless, dup in ((SUM, False, False), (SUM, False, True),
                                               (MIN, False, False), (MIN, False, True),
                                               (SQUARES, False, False), (SQUARES, False, True),
                                               (SUM, True, True)):
                root = random_matrix_root(rng, n, k, stateless)
                rows = root.answer_rows
                zero_rows += any(a == b for a, b in itertools.combinations(rows, 2))
                for threshold in (None, 3):
                    got = dp_finalize(root, aggregator, threshold, dup)
                    assert got == enumerated_finalize(root, aggregator, threshold, dup), \
                        (rows, k, aggregator.label, stateless, dup, threshold)
                    cases += 1
                    found += got[1] is not None
    assert len(searches) == cases and found > cases // 2 and zero_rows > 100, \
        (len(searches), cases, found, zero_rows)


def test_non_monotone_aggregator_reads_the_matrix_root_whole(monkeypatch):
    # A bound from the largest distance says nothing under an aggregator
    # that may fall as a distance grows, so such a root is enumerated.
    def no_search(*args, **kwargs):
        raise AssertionError("a non-monotone aggregator reached the search")

    monkeypatch.setattr(acq, "best_tuple", no_search)
    closest = custom_aggregator(lambda ds: -sum(ds), monotone=False, name="closest")
    rng = random.Random(137)
    for _ in range(40):
        root = random_matrix_root(rng, rng.randint(1, 6), rng.choice((1, 2, 3)), False)
        for dup in (False, True):
            got = dp_finalize(root, closest, None, dup)
            assert got == enumerated_finalize(root, closest, None, dup)


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


def _functional_chain(rng: random.Random, atoms: int):
    """A path query C0(x0, x1), ..., whose relations are one-to-one, with
    some free variables dropped: every join along the path is functional in
    both directions, so the join tree folds each child, whose own children
    are folded first."""
    names = [f"x{i}" for i in range(atoms + 1)]
    free = [v for v in names if rng.random() < 0.7] or names[:1]
    body = ", ".join(f"C{i}(x{i}, x{i + 1})" for i in range(atoms))
    query = parse_query(f"Q({', '.join(free)}) :- {body}.")
    rows = rng.randint(2, 5)
    columns = [rng.sample(range(1, 9), rows) for _ in range(atoms + 1)]
    db = Database.from_rows({
        f"C{i}": list(zip(columns[i], columns[i + 1])) + [(90 + i, 80 + i)]
        for i in range(atoms)
    })
    return query, db


def test_folded_chains_and_stars_match_bruteforce():
    # Merges that add matrices, in chains of three or more atoms (folds of
    # folds) and in independent-set stars, agree with the brute force on
    # decision and diversity, under sum and min, with and without
    # duplicates, and every witness re-verifies.
    rng = random.Random(2024)
    cases = [_functional_chain(rng, rng.randint(3, 5)) for _ in range(16)]
    for n in (4, 5):
        star = Graph.from_edges(n, [(1, v) for v in range(2, n + 1)])
        fx = independent_set_to_diverse_query(star, 2)
        cases.append((fx.query, fx.db))
    nested = 0
    for query, db in cases:
        answers = enumerate_answers(query, db)
        free = query.free_vars
        for k in (2, 3):
            for dup in (False, True):
                solver = acq.TreeSolver(query, db, k, gyo_join_tree(query), 10 ** 7, dup)
                solver.run()
                root = solver.tables[solver.td.root].entries
                assert root.folds
                nested += any(child.entries.folds for child, _ in root.folds)
                for aggregator in (SUM, MIN):
                    expected, _ = bruteforce_diversity(answers, k, aggregator,
                                                       allow_duplicates=dup)
                    if dup and aggregator is SUM:
                        out = solve_acq_sum_dup(query, db, k, None, witness=True)
                    else:
                        out = solve_acq(query, db, k, None, aggregator, witness=True,
                                        allow_duplicates=dup)
                    assert out.decision is (expected is not None)
                    assert out.diversity == expected
                    if expected is None:
                        continue
                    assert len(out.witness) == k
                    assert all(a in answers for a in out.witness)
                    assert dup or len(set(out.witness)) == k
                    assert diversity_of_set(aggregator, out.witness, free) == expected
                    for d, decision in ((expected, True), (expected + 1, False)):
                        assert solve_acq(query, db, k, d, aggregator,
                                         allow_duplicates=dup).decision is decision
    assert nested > 0


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
