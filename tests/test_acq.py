import itertools
import math
import operator
import random
import time

import pytest

from diverseq import acq
from diverseq.cli import RunConfig, run
from diverseq.dbio import dump_database, dump_query
from diverseq.cqneg import BagSolver
from diverseq.acq import (
    DPTable,
    _MatrixEntries,
    _slot_maps,
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
from diverseq.errors import CorruptProvenance, NotAcyclic, TableGuardExceeded
from diverseq.model import (MIN, SUM, Database, _slot_tuples, custom_aggregator, diversity_of_set,
                            pair_order)
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
    counted_free_vars,
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
    counted = counted_free_vars(jt, q.free_vars)
    parent = dp_init(jt.root, root_atom.variables, sorted(sols_atom(root_atom, db)), 2,
                     counted[jt.root])
    child = dp_init(child_node, child_atom.variables, sorted(sols_atom(child_atom, db)), 2,
                    counted[child_node])
    merged = dp_merge(parent, child)
    # x = 1 for both S rows; the child R counts x and the root S counts y,
    # and the merge adds their distances
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
    merged = dp_merge(parent, child)
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


def merge_guard_instance():
    """A join tree whose merges store tables of up to 80 entries at k = 3:
    R0(v0, v1, v2) with R1, R2 and R3 below it, under the root R4."""
    query = parse_query("Q(v2, v3, v5, v4, v0, v1) :- R0(v0, v1, v2), R1(v2, v0), "
                        "R2(v2, v3), R3(v4, v1), R4(v2, v5).")
    square = list(itertools.product((1, 2), repeat=2))
    db = Database.from_rows({"R0": list(itertools.product((1, 2), repeat=3)),
                             "R1": [(1, 1), (1, 2)], "R2": square,
                             "R3": [(1, 2), (2, 2)], "R4": square})
    return query, db


@pytest.mark.parametrize("aggregator, diversity", [(SUM, 8), (MIN, 2)])
def test_merge_guard_refuses_the_first_table_past_the_cap(tmp_path, aggregator, diversity):
    # At k = 3 a merge into node 0 stores more than 8 entries and the merge
    # at the root, node 4, more than 79; a cap of 80 answers, its largest
    # table holding 80. The library and the CLI (exit 2) refuse alike. The
    # CLI runs pin the DP's mode: auto would answer on the answer route,
    # whose search meets the column ceiling within its budget here.
    query, db = merge_guard_instance()
    facts, rule = str(tmp_path / "guard.facts"), str(tmp_path / "guard.dq")
    dump_database(db, facts)
    dump_query(query, rule)
    name, mode = ("sum", "acq-sum") if aggregator is SUM else ("min", "acq")
    for cap, refused_at in ((8, 0), (79, 4), (80, None)):
        config = RunConfig(db_path=facts, query_path=rule, k=3, d=None, aggregator=name,
                           mode=mode, table_cap=cap, output="json")
        code, report = run(config)
        if refused_at is None:
            out = solve_acq(query, db, 3, None, aggregator, table_cap=cap)
            assert (out.decision, out.diversity, out.stats["max_table"]) == (True, diversity, 80)
            assert (code, report["diversity"], report["stats"]["max_table"]) == \
                (0, diversity, 80)
            continue
        message = f"table at node {refused_at} exceeded {cap} entries"
        with pytest.raises(TableGuardExceeded) as refusal:
            solve_acq(query, db, 3, None, aggregator, table_cap=cap)
        assert str(refusal.value) == message
        assert (code, report) == (2, {"error": {"code": "TableGuardExceeded",
                                                "message": message}})


@pytest.mark.parametrize("stateless", [False, True])
def test_dp_project_refuses_as_its_table_grows(monkeypatch, stateless):
    # A projection checks its table against the cap each time the child
    # slot tuple changes, so one past the cap is refused, under the child's
    # node id, before it has read every child entry.
    sols = [(x, y) for x in range(6) for y in range(6)]
    child = dp_init(7, frozenset({"x", "y"}), sols, 2, ["x", "y"], stateless=stateless)
    read = []
    items = _MatrixEntries.items

    def counting(entries):
        for item in items(entries):
            read.append(item)
            yield item

    monkeypatch.setattr(_MatrixEntries, "items", counting)
    with pytest.raises(TableGuardExceeded) as refusal:
        dp_project(child, frozenset({"x"}), table_cap=5)
    assert str(refusal.value) == "table at node 7 exceeded 5 entries"
    assert 5 < len(read) < len(child.entries) // 2, (len(read), len(child.entries))


def test_extract_witness_single_node_tree():
    db = Database.from_rows({"R": [(1, 2), (3, 4)]})
    q = parse_query("Q(x, y) :- R(x, y).")
    # one pair of answers differing on both columns: sum diversity 2
    out = solve_acq(q, db, 2, 2, SUM, witness=True)
    assert out.decision is True
    assert diversity_of_set(SUM, out.witness, q.free_vars) == 2


def _row_root_over_an_added_matrix():
    """(root, its best key under sum, the matrix parent, the database,
    the query) for Q(x, y, z, w) :- R(x, y), T(y, z), U(y, w), built by
    hand at k = 2: the init of T(y, z) adds the answer rows of R(x, y), a
    one-to-one join, which makes a matrix table with columns (z, x, y);
    U(y, w), two w per y, is then projected onto {y} and merged as rows
    into it, so the root keeps the matrix table's answer rows, where alone
    x lies, and each root entry links only to U's projection. Untouched,
    the walk reads x there and the witness is two answers that differ on
    all four variables."""
    db = Database.from_rows({"T": [(1, 5), (2, 6), (3, 7)], "R": [(11, 1), (12, 2), (13, 3)],
                             "U": [(1, 21), (1, 22), (2, 23), (2, 24), (3, 25), (3, 26)]})
    query = parse_query("Q(x, y, z, w) :- R(x, y), T(y, z), U(y, w).")
    atoms = {atom.relation: atom for atom in query.conjuncts[0].positive_atoms}

    def init(node, name, counted):
        atom = atoms[name]
        return dp_init(node, atom.variables, sorted(sols_atom(atom, db)), 2, counted)

    matrix = dp_merge(init(0, "T", ["z"]), init(1, "R", ["x", "y"]))
    assert matrix.answer_rows is not None and matrix.columns == ("z", "x", "y")
    root = dp_merge(matrix, init(2, "U", ["w"]))
    assert root.answer_rows is None and root.rows is matrix.rows
    _, best_key, _ = dp_finalize(root, SUM, None, False)
    witness = extract_witness(root, best_key, query, db)
    assert all(a in enumerate_answers(query, db) for a in witness)
    assert diversity_of_set(SUM, witness, query.free_vars) == 4
    return root, best_key, matrix, db, query


def test_altered_answer_row_fails_the_literal_check():
    # The walk trusts a table's answer rows, here the ones the root keeps
    # from its matrix parent, so each rebuilt answer is checked against the
    # query's literals: here the first slot's x is set to the second slot's.
    # x is in no sol the walk visits, so no binding conflicts, and R(x, y)
    # then holds no row for the first answer.
    root, key, matrix, db, query = _row_root_over_an_added_matrix()
    first, second = key[0]
    assert first != second
    x = matrix.columns.index("x")
    rows = matrix.answer_rows
    row = list(rows[first])
    row[x] = rows[second][x]
    rows[first] = tuple(row)
    with pytest.raises(CorruptProvenance, match=r"witness answer 1 fails R\(x, y\)"):
        extract_witness(root, key, query, db)


def test_answer_row_that_keeps_every_distance_fails_the_literal_check():
    # The first slot's x is set to the x of the sol no slot holds: the three
    # x values stay distinct, so the answers keep every pair distance and
    # the distance check alone would pass a witness, {x: 13, y: 1, z: 5,
    # w: 21} or the like, that is no answer of the query.
    root, key, matrix, db, query = _row_root_over_an_added_matrix()
    first, second = key[0]
    (third,) = set(range(len(matrix.sols))) - {first, second}
    x = matrix.columns.index("x")
    rows = matrix.answer_rows
    assert rows[third][x] not in (rows[first][x], rows[second][x])
    row = list(rows[first])
    row[x] = rows[third][x]
    rows[first] = tuple(row)
    with pytest.raises(CorruptProvenance, match=r"witness answer 1 fails R\(x, y\)"):
        extract_witness(root, key, query, db)


def test_answer_row_with_no_unbound_extension_fails_the_literal_check():
    # Q(x, y, z) :- T(y, z), R(x, y, u), P(u), built by hand at k = 2: P(u)
    # is added to R(x, y, u) as answer rows and R to T(y, z), so the root is
    # a matrix table whose rows hold z, x and y, and no sol the walk visits
    # binds u. Each rebuilt answer must then extend to a u that R and P
    # hold: with the first slot's x set to the x of the sol no slot holds,
    # the distances stay and T(y, z) holds, but no u does.
    db = Database.from_rows({"T": [(1, 5), (2, 6), (3, 7)],
                             "R": [(11, 1, 100), (12, 2, 101), (13, 3, 102)],
                             "P": [(100,), (101,), (102,)]})
    query = parse_query("Q(x, y, z) :- T(y, z), R(x, y, u), P(u).")
    atoms = {atom.relation: atom for atom in query.conjuncts[0].positive_atoms}

    def init(node, name, counted):
        atom = atoms[name]
        return dp_init(node, atom.variables, sorted(sols_atom(atom, db)), 2, counted)

    root = dp_merge(init(0, "T", ["z"]), dp_merge(init(1, "R", ["x", "y"]), init(2, "P", [])))
    assert root.answer_rows is not None and root.columns == ("z", "x", "y")
    _, key, _ = dp_finalize(root, SUM, None, False)
    witness = extract_witness(root, key, query, db)
    assert all(a in enumerate_answers(query, db) for a in witness)
    first, second = key[0]
    (third,) = set(range(len(root.sols))) - {first, second}
    x = root.columns.index("x")
    rows = root.answer_rows
    row = list(rows[first])
    row[x] = rows[third][x]
    rows[first] = tuple(row)
    with pytest.raises(CorruptProvenance, match="witness answer 1 has no values for the "
                                                "variables the walk left unbound"):
        extract_witness(root, key, query, db)


def test_kept_sum_the_answers_miss_fails_the_witness_distance_check():
    # The answers are right but the root entry claims one more than their
    # pair distances sum to: the final check compares the two.
    root, key, matrix, db, query = _row_root_over_an_added_matrix()
    value, links = root.entries[key]
    root.entries[key] = (value + 1, links)
    with pytest.raises(CorruptProvenance, match="witness distances disagree with the kept entry"):
        extract_witness(root, key, query, db)


def test_swapped_link_sigma_raises_conflicting_bindings():
    # The root entry's one link, to U's projection onto {y}, read under the
    # swapped slot map, binds each slot's y to the other slot's, which the
    # root's own sols have bound already.
    root, key, matrix, db, query = _row_root_over_an_added_matrix()
    assert key[0][0] != key[0][1]
    value, links = root.entries[key]
    ((table, child_key, sigma),) = links
    assert table.node == 2 and table.variables == {"y"} and sigma == (0, 1)
    root.entries[key] = (value, ((table, child_key, (1, 0)),))
    with pytest.raises(CorruptProvenance, match="conflicting bindings for y while extending"):
        extract_witness(root, key, query, db)


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
        counted = counted_free_vars(jt, free)

        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)), k,
                            counted[node])
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child])
            tables[node] = table

            # distances over the free variables the subtree's nodes count
            subtree_atoms, local_free = [], []
            stack = [node]
            while stack:
                current = stack.pop()
                subtree_atoms.append(atoms[current])
                local_free += counted[current]
                stack.extend(jt.children.get(current, ()))
            subsols = conjunction_solutions(subtree_atoms, db)
            expected = set()
            index_of = {sol: i for i, sol in enumerate(table.sols)}
            node_order = sorted(atoms[node].variables)
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
        counted = counted_free_vars(jt, query.free_vars)
        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                            k, counted[node])
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child])
            tables[node] = table
            stored = set(table.entries)
            assert all(list(key[0]) == sorted(key[0]) for key in stored)
            full = slot_closure(((key, None) for key in stored), k)
            assert is_permutation_closed(full, k)
            assert {key for key in full if list(key[0]) == sorted(key[0])} == stored


def test_dp_merge_shared_existential_adds_distances_exactly():
    # the shared variable x is existential, so no table counts it, and
    # subtree distances add up
    db = Database.from_rows({"R": [(1, 5), (2, 6)], "S": [(1, 7), (2, 8)]})
    q = parse_query("Q(y, z) :- R(x, y), S(x, z).")
    out = solve_acq(q, db, 2, None, SUM, witness=True)
    # answers: (5,7) and (6,8); they differ on both free variables
    assert out.diversity == 2
    assert diversity_of_set(SUM, out.witness, q.free_vars) == 2


def test_dp_merge_counts_a_shared_free_variable_once():
    # the shared variable x is free: only the first table in postorder that
    # holds it counts it, so the merge adds its distance once
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
        counted = counted_free_vars(jt, free)
        pairs = pair_order(k)

        tables = {}
        for node in jt.postorder():
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                            k, counted[node], stateless=True)
            for child in jt.children.get(node, ()):
                table = dp_merge(table, tables[child])
            tables[node] = table

            # distances over the free variables the subtree's nodes count
            subtree_atoms, local_free = [], []
            stack = [node]
            while stack:
                current = stack.pop()
                subtree_atoms.append(atoms[current])
                local_free += counted[current]
                stack.extend(jt.children.get(current, ()))
            subsols = conjunction_solutions(subtree_atoms, db)
            index_of = {sol: i for i, sol in enumerate(table.sols)}
            node_order = sorted(atoms[node].variables)
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


def _root_entries(tables, jt, query, db, kept=None):
    """The root's entries in order, each spelled as its slots' solutions,
    its state, its sum and the answers its provenance gives. Given `kept`,
    an entry with a slot's solution outside it is spelled with None for
    answers: an unreduced forget root holds entries that are no answers,
    which the witness walk refuses."""
    table = tables[jt.root]
    spelled = []
    for key, entry in table.entries.items():
        sols = tuple(table.sols[p] for p in key[0])
        answers = None
        if kept is None or kept.issuperset(sols):
            answers = extract_witness(table, key, query, db)
        spelled.append((sols, key[1], entry[0], answers))
    return spelled


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
            expected = _root_entries(full.tables, jt, query, db, kept)
            cut = [e for e in expected if kept.issuperset(e[0])]
            assert _root_entries(reduced.tables, jt, query, db) == cut
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
    # slot map; first candidate with the highest sum) in keys, order and
    # sums, in exact and stateless tables, dangling rows included, and
    # counts the parent's columns, then the child's. A merge stored as rows
    # has the naive one's provenance links, the parent entry's and one to
    # the child entry, and keeps the parent's answer rows. A merge that adds answer rows has no links, and
    # each slot's row is its parent row extended by the row of the child
    # slot that the naive link reads.
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
        counted = counted_free_vars(jt, free)
        for stateless in (False, True):
            tables = {}
            for node in jt.postorder():
                table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                                k, counted[node], stateless=stateless)
                for child in jt.children.get(node, ()):
                    expected = reference_merge(table, tables[child])
                    kind = _partner_map_kind(table, tables[child])
                    partner_maps.add((stateless, kind))
                    # A functional join of two matrix tables adds matrices;
                    # a projected or unjoined one stores rows.
                    adds_rows = kind in ("identity", "increasing", "permuted") \
                        and table.answer_rows is not None \
                        and tables[child].answer_rows is not None
                    parent = table
                    table = dp_merge(parent, tables[child])
                    assert (table.answer_rows is not None) == adds_rows
                    assert table.columns == expected.columns == \
                        parent.columns + tables[child].columns
                    if adds_rows:
                        added.add((stateless, kind))
                        _assert_rows_follow_links(table, parent, tables[child], expected.entries)
                    else:
                        assert spelled_links(table.entries) == spelled_links(expected.entries)
                        assert table.rows is expected.rows is parent.rows
                    merges += 1
                    cycles.update(
                        (stateless, sigma)
                        for _, refs in expected.entries.values() for _, _, sigma in refs
                        if any(sigma[sigma[i]] != i for i in range(k)))
                tables[node] = table
    assert merges > 0
    assert {stateless for stateless, _ in cycles} == {False, True}
    for stateless in (False, True):
        for kind in ("identity", "increasing", "permuted", "projected", "unjoined"):
            assert (stateless, kind) in partner_maps
        for kind in ("identity", "increasing", "permuted"):
            assert (stateless, kind) in added


def _assert_rows_follow_links(merged, parent, child, expected):
    """A merge that added the child's answer rows has the naive merge's
    keys, order and sums and no links, and each of its slots' rows is the
    parent's row extended by the row of the child slot the naive merge's
    link to the child reads through its slot map."""
    assert [(key, value, ()) for key, (value, _) in expected.items()] == \
        [(key, value, links) for key, (value, links) in merged.entries.items()]
    for (ptuple, _), (_, refs) in expected.items():
        linked, ckey, sigma = refs[-1]
        assert linked is child
        for p, s in zip(ptuple, sigma):
            assert merged.answer_rows[p] == \
                parent.answer_rows[p] + child.answer_rows[ckey[0][s]]


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
        counted = counted_free_vars(jt, free)
        k = (2, 3, 4)[trial % 3]
        for stateless in (False, True):
            tables = {}
            for node in jt.postorder():
                init = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                               k, counted[node], stateless=stateless)
                table = init
                for child in jt.children.get(node, ()):
                    table = dp_merge(table, tables[child])
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
                            got.check_bound()
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
    # that tables once stored: its sols' distances on the free variables its
    # node counts, plus each added child's matrix at the partners
    # (`helpers.reference_matrix`), the adds read off the recorded merges.
    # Keys, their order, states and sums agree, and no entry has links, on
    # random acyclic and bounded-width negation instances with dangling
    # rows, and on one-to-one chains, whose every merge adds rows that hold
    # free variables of their own; k = 2..4, exact and stateless.
    built = []
    adds = {}  # id of the entries a merge made by adding rows -> (parent, child)
    init, merge = acq.dp_init, acq.dp_merge

    def initial(*args, **kwargs):
        built.append(init(*args, **kwargs))
        return built[-1]

    def merging(parent, child, **kwargs):
        built.append(merge(parent, child, **kwargs))
        if built[-1].answer_rows is not None:
            adds[id(built[-1].entries)] = (parent, child)
        return built[-1]

    monkeypatch.setattr(acq, "dp_init", initial)
    monkeypatch.setattr(acq, "dp_merge", merging)
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
        adds.clear()
        solver.run()
        td = solver.td
        counted = counted_free_vars(td, query.free_vars)
        for node in td.postorder():  # a forget node takes its child's table
            kids = td.children.get(node, ())
            if len(kids) == 1 and td.bags[node] <= td.bags[kids[0]]:
                counted[node] = counted[kids[0]]
        for table in built:
            if table.answer_rows is None:
                continue
            assert list(table.entries.items()) == \
                reference_matrix_entries(table, counted, adds), (trial, table.node)
            checked += 1
            stateless_checked += table.stateless
            children = []  # the children added into this table, latest first
            made = adds.get(id(table.entries))
            while made is not None:
                children.append(made[1])
                made = adds.get(id(made[0].entries))
            folded += bool(children)
            nested += any(id(child.entries) in adds for child in children)
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
                   stateless=stateless, columns=columns,
                   entries=_MatrixEntries(rows, k, stateless))


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
    both directions, so each table adds its child's answer rows, after the
    child has added its own children's."""
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


def test_folded_chains_and_stars_match_bruteforce(monkeypatch):
    # Merges that add matrices, in chains of three or more atoms (a child
    # added that itself added one) and in independent-set stars, agree with
    # the brute force on decision and diversity, under sum and min, with
    # and without duplicates, and every witness, read off nested answer
    # rows, re-verifies. The adds are read off the recorded merges.
    adds = {}  # id of the entries a merge made by adding rows -> (parent, child)
    merge = acq.dp_merge

    def recording(parent, child, **kwargs):
        merged = merge(parent, child, **kwargs)
        if merged.answer_rows is not None:
            adds[id(merged.entries)] = (parent, child)
        return merged

    monkeypatch.setattr(acq, "dp_merge", recording)
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
                adds.clear()
                solver = acq.TreeSolver(query, db, k, gyo_join_tree(query), 10 ** 7, dup)
                solver.run()
                children = []  # the children added into the root, latest first
                made = adds.get(id(solver.tables[solver.td.root].entries))
                while made is not None:
                    children.append(made[1])
                    made = adds.get(id(made[0].entries))
                assert children
                nested += any(id(child.entries) in adds for child in children)
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


# --- k = 1 ----------------------------------------------------------------------


def test_k1_builds_no_distance_triangle(tmp_path, monkeypatch):
    # `Q(x, z) :- R(x, y), S(y, z), T(z).` with R = {(i, 1)} and S = {(1, j)}
    # for i, j < 3300, and T = {(0,)}, has one answer, {x: 0, z: 0}. At
    # k = 1 no entry has a pair, so no route builds a distance table: each
    # run answers well under a second, where an n x n matrix per table took
    # seconds, and the solver leaves every matrix table's triangle unbuilt.
    query = parse_query("Q(x, z) :- R(x, y), S(y, z), T(z).")
    db = Database.from_rows({"R": [(i, 1) for i in range(3300)],
                             "S": [(1, j) for j in range(3300)], "T": [(0,)]})
    facts, rule = str(tmp_path / "k1.facts"), str(tmp_path / "k1.dq")
    dump_database(db, facts)
    dump_query(query, rule)
    for options, diversity in (({}, 0), ({"aggregator": "min"}, None),
                               ({"allow_duplicates": True}, 0), ({"mode": "cqneg"}, 0)):
        config = RunConfig(db_path=facts, query_path=rule, k=1, d=None,
                           witness=True, output="json", **options)
        started = time.perf_counter()
        code, report = run(config)
        assert time.perf_counter() - started < 1.0, options
        assert code == 0, report
        assert (report["decision"], report["diversity"], report["witness"]) == \
            ("yes", diversity, [{"x": 0, "z": 0}]), options
    built = []  # every table an init or a merge builds
    for name in ("dp_init", "dp_merge"):
        original = getattr(acq, name)

        def recording(*args, original=original, **kwargs):
            built.append(original(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(acq, name, recording)
    for solver_class, td in ((acq.TreeSolver, gyo_join_tree(query)),
                             (BagSolver, tree_decompose(query))):
        for aggregator, stateless in ((SUM, False), (MIN, False), (SUM, True)):
            built.clear()
            solver = solver_class(query, db, 1, td, 10 ** 7, stateless)
            out = solver.solve(aggregator, None, stateless, True)
            assert out.decision and out.diversity == (0 if aggregator is SUM else math.inf)
            assert [a.as_payload_dict() for a in out.witness] == [{"x": 0, "z": 0}]
            matrices = [table.entries for table in built
                        if isinstance(table.entries, _MatrixEntries)]
            assert matrices and all(entries._matrix is None for entries in matrices)
