import itertools
import math
import random

import pytest

from diverseq.errors import (
    CombinatorialBudgetExceeded,
    DegreeTooHigh,
    NotBipartiteOrNot3Regular,
)
from diverseq.kernel import materialize_answers, solve_fo_diverse
from diverseq.model import MIN, SUM, Database
from diverseq.oracle import (
    Graph,
    bruteforce_diversity,
    enumerate_answers,
    has_admissible_coloring,
    has_independent_set,
    independent_set_to_diverse_query,
    independent_set_to_wide_relation,
    list_coloring_database,
    list_coloring_to_union_query,
)
from diverseq.queries import parse_query


def k33():
    return Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


def test_graph_helpers():
    g = Graph.from_edges(4, [(1, 2), (2, 3)])
    assert g.degree(2) == 2 and g.degree(4) == 0
    assert g.neighbors(2) == {1, 3}
    parts = g.bipartition()
    assert parts is not None
    triangle = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert triangle.bipartition() is None


def test_independent_set_bruteforce():
    triangle = Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)])
    assert has_independent_set(triangle, 1)
    assert not has_independent_set(triangle, 2)
    assert has_independent_set(k33(), 3)
    assert not has_independent_set(k33(), 4)


def test_list_coloring_bruteforce():
    lists = {v: frozenset({1, 2, 3}) for v in range(1, 7)}
    assert has_admissible_coloring(k33(), lists)
    narrow = {v: frozenset({1}) for v in range(1, 7)}
    assert not has_admissible_coloring(k33(), narrow)


def test_enumerate_answers_k3_fixture():
    fx = independent_set_to_diverse_query(
        Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), 2
    )
    answers = enumerate_answers(fx.query, fx.db)
    assert {
        tuple(a[v].payload for v in fx.query.free_vars) for a in answers
    } == {(1, 0, 0, 1), (2, 0, 2, 0), (3, 3, 0, 0)}


def test_enumerate_answers_empty_relation():
    db = Database()
    db.add_relation("R", 1, [])
    q = parse_query("Q(x) :- R(x).")
    assert enumerate_answers(q, db) == frozenset()


def test_enumerate_answers_cqneg_grid():
    db = Database.from_rows({"R": [(1, 1), (1, 2), (2, 1), (2, 2)], "S": [(1, 1)]})
    q = parse_query("Q(x, y) :- R(x, y), !S(x, y).")
    assert len(enumerate_answers(q, db)) == 3


def test_bruteforce_diversity_examples():
    db = Database.from_rows({"A": [(1, 1), (2, 2), (2, 1)]})
    q = parse_query("Q(x, y) :- A(x, y).")
    answers = enumerate_answers(q, db)
    # pairwise distances of the three answers: 2, 1, 1
    best_min, _ = bruteforce_diversity(answers, 2, MIN)
    assert best_min == 2
    best_sum, full = bruteforce_diversity(answers, 3, SUM)
    assert best_sum == 2 + 1 + 1
    assert len(full) == 3


def test_bruteforce_diversity_k1():
    db = Database.from_rows({"A": [(1,)]})
    q = parse_query("Q(x) :- A(x).")
    answers = enumerate_answers(q, db)
    value, chosen = bruteforce_diversity(answers, 1, SUM)
    assert value == 0 and len(chosen) == 1
    value, _ = bruteforce_diversity(answers, 1, MIN)
    assert value == math.inf


def test_bruteforce_diversity_budget():
    db = Database.from_rows({"A": [(i,) for i in range(40)]})
    q = parse_query("Q(x) :- A(x).")
    answers = enumerate_answers(q, db)
    with pytest.raises(CombinatorialBudgetExceeded):
        bruteforce_diversity(answers, 3, SUM, budget=100)


def test_bruteforce_argmax_is_lexicographically_least():
    db = Database.from_rows({"A": [(1, 9), (2, 8), (3, 7)]})
    q = parse_query("Q(x, y) :- A(x, y).")
    answers = enumerate_answers(q, db)
    _, chosen = bruteforce_diversity(answers, 2, SUM)
    # all pairs tie at distance 2; the first pair in canonical order wins
    assert sorted((a["x"].payload, a["y"].payload) for a in chosen) == [(1, 9), (2, 8)]


# --- per-edge relation generator ----------------------------------------------


def test_edge_fixture_single_edge():
    fx = independent_set_to_diverse_query(Graph.from_edges(2, [(1, 2)]), 2)
    assert fx.k == 2 and fx.d_sum == 2 and fx.d_min == 2
    assert fx.db.relations["R1"].arity == 2
    rows = fx.db.relations["R1"].payload_rows()
    assert rows == {(1, 0), (2, 0)}


def test_edge_fixture_edgeless_graph():
    fx = independent_set_to_diverse_query(Graph.from_edges(3, []), 3)
    answers = enumerate_answers(fx.query, fx.db)
    assert len(answers) == 3
    best, _ = bruteforce_diversity(answers, 3, MIN)
    assert best == 1 == fx.d_min  # single variable, all answers differ on it


def test_edge_fixture_matches_independent_set_small():
    rng = random.Random(113)
    for _ in range(15):
        n = rng.randint(2, 5)
        edges = [
            e for e in itertools.combinations(range(1, n + 1), 2)
            if rng.random() < 0.5
        ]
        g = Graph.from_edges(n, edges)
        for s in range(1, n + 1):
            fx = independent_set_to_diverse_query(g, s)
            answers = enumerate_answers(fx.query, fx.db)
            for aggregator, d in ((SUM, fx.d_sum), (MIN, fx.d_min)):
                best, _ = bruteforce_diversity(answers, s, aggregator)
                reached = best is not None and best >= d
                assert reached == has_independent_set(g, s)


# --- wide relation generator -----------------------------------------------------


def test_wide_fixture_path_rows():
    path = Graph.from_edges(3, [(1, 2), (2, 3)])
    fx = independent_set_to_wide_relation(path, 2)
    rows = fx.db.relations["R"].payload_rows()
    assert rows == {
        ("taken_1", "free_1", "free_1", "free_1", "free_1"),
        ("taken_1", "taken_2", "free_2", "free_2", "free_2"),
        ("free_3", "taken_2", "free_3", "free_3", "free_3"),
    }
    answers = enumerate_answers(fx.query, fx.db)
    best, chosen = bruteforce_diversity(answers, 2, MIN)
    assert best == 5  # vertices 1 and 3 are independent


def test_wide_fixture_edgeless_all_free():
    fx = independent_set_to_wide_relation(Graph.from_edges(2, []), 2)
    rows = fx.db.relations["R"].payload_rows()
    assert rows == {("free_1",) * 5, ("free_2",) * 5}


def test_wide_fixture_single_edge_blocks_full_distance():
    fx = independent_set_to_wide_relation(Graph.from_edges(2, [(1, 2)]), 2)
    answers = enumerate_answers(fx.query, fx.db)
    best, _ = bruteforce_diversity(answers, 2, MIN)
    assert best == 4  # both rows share taken_1 in slot 1


def test_wide_fixture_rejects_degree_four():
    star = Graph.from_edges(5, [(1, 2), (1, 3), (1, 4), (1, 5)])
    with pytest.raises(DegreeTooHigh):
        independent_set_to_wide_relation(star, 2)


# --- union query generator ---------------------------------------------------------


def test_union_fixture_database_constants():
    db = list_coloring_database()
    payload = lambda name: db.relations[name].payload_rows()
    assert payload("R_1") == {(1, 1, 1)}
    assert payload("R_2") == {(2, 2, 2)}
    assert payload("R_3") == {(3, 3, 3)}
    assert payload("R_12") == {(1, 1, 1), (2, 2, 2)}
    assert payload("R_13") == {(1, 1, 1), (3, 3, 3)}
    assert payload("R_23") == {(2, 2, 2), (3, 3, 3)}
    assert payload("R_123") == {(1, 1, 1), (2, 2, 2), (3, 3, 3)}
    assert payload("S") == {(0,)}
    assert payload("Sp") == {(1,)}
    assert payload("R_0") == set()


def test_union_fixture_shape():
    lists = {v: frozenset({1, 2, 3}) for v in range(1, 7)}
    fx = list_coloring_to_union_query(k33(), lists)
    assert fx.query.kind == "ucq"
    assert fx.k == 2 and fx.d_sum == 10
    assert len(fx.query.free_vars) == 10  # 3n edges + flag variable
    # every disjunct is acyclic: variables are atom-disjoint
    for conjunct in fx.query.conjuncts:
        seen = set()
        for atom in conjunct.positive_atoms:
            assert not (atom.variables & seen)
            seen |= atom.variables


def test_union_fixture_colorable_iff_diverse():
    rng = random.Random(127)
    g = k33()
    for _ in range(10):
        lists = {
            v: frozenset(rng.sample([1, 2, 3], k=rng.randint(1, 3)))
            for v in range(1, 7)
        }
        fx = list_coloring_to_union_query(g, lists)
        answers = materialize_answers(fx.query, fx.db)
        out = solve_fo_diverse(answers, 2, fx.d_sum, MIN)
        assert out.decision == has_admissible_coloring(g, lists)


def test_union_fixture_empty_list_unsatisfiable():
    lists = {v: frozenset({1, 2, 3}) for v in range(1, 7)}
    lists[2] = frozenset()
    fx = list_coloring_to_union_query(k33(), lists)
    answers = materialize_answers(fx.query, fx.db)
    out = solve_fo_diverse(answers, 2, fx.d_sum, MIN)
    assert out.decision is False
    assert not has_admissible_coloring(k33(), lists)


def test_union_fixture_rejects_bad_graphs():
    with pytest.raises(NotBipartiteOrNot3Regular):
        list_coloring_to_union_query(
            Graph.from_edges(3, [(1, 2), (2, 3), (1, 3)]), {}
        )
    with pytest.raises(NotBipartiteOrNot3Regular):
        list_coloring_to_union_query(Graph.from_edges(2, [(1, 2)]), {})
