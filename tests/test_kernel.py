import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq.errors import (
    CombinatorialBudgetExceeded,
    NotMonotone,
    PreconditionViolated,
)
from diverseq import kernel as kernel_module
from diverseq.dbio import load_database
from diverseq.kernel import (
    AnswerRelation,
    apply_capping_rule,
    kernelize,
    materialize_answers,
    read_answer_csv,
    solve_fo_diverse,
    write_answer_csv,
)
from diverseq.model import MIN, SUM, Database, custom_aggregator, diversity_of_set
from diverseq.oracle import (
    Graph,
    bruteforce_diversity,
    enumerate_answers,
    independent_set_to_diverse_query,
    list_coloring_to_union_query,
)
from diverseq.queries import parse_query
from helpers import (
    random_acyclic_query,
    random_cqneg_query,
    reference_capping_rule,
    reference_fo_search,
    reference_kernelize,
)


def relation(columns, rows):
    return AnswerRelation.from_payload_rows(columns, rows)


def test_materialize_union_deduplicates():
    db = Database.from_rows({"R": [(1,), (2,)], "S": [(2,), (3,)]})
    q = parse_query("Q(x) :- R(x).\nQ(x) :- S(x).")
    answers = materialize_answers(q, db)
    assert answers.payload_rows() == {(1,), (2,), (3,)}


def test_materialize_k3_fixture():
    fx = independent_set_to_diverse_query(
        Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), 2
    )
    answers = materialize_answers(fx.query, fx.db)
    assert answers.payload_rows() == {(1, 0, 0, 1), (2, 0, 2, 0), (3, 3, 0, 0)}


def test_materialize_unsatisfiable_body():
    db = Database.from_rows({"R": [(1,)], "S": [(2,)]})
    q = parse_query("Q(x) :- R(x), S(x).")
    assert materialize_answers(q, db).rows == frozenset()


def test_materialize_agrees_with_enumeration():
    rng = random.Random(101)
    for _ in range(30):
        query, db = random_acyclic_query(rng)
        got = materialize_answers(query, db).payload_rows()
        expected = {
            tuple(a[v].payload for v in query.free_vars)
            for a in enumerate_answers(query, db)
        }
        assert got == expected
    for _ in range(20):
        query, db = random_cqneg_query(rng)
        got = materialize_answers(query, db).payload_rows()
        expected = {
            tuple(a[v].payload for v in query.free_vars)
            for a in enumerate_answers(query, db)
        }
        assert got == expected


# --- index rows: one value table, index equality is value equality ----------


def test_union_keeps_int_and_string_payloads_apart():
    db = Database.from_rows({"A": [(1, "a")], "B": [("1", "a")]})
    q = parse_query("Q(x, y) :- A(x, y).\nQ(x, y) :- B(x, y).")
    answers = materialize_answers(q, db)
    assert answers.payload_rows() == {(1, "a"), ("1", "a")}
    out = solve_fo_diverse(answers, 2, None, SUM, witness=True)
    assert out.diversity == 1
    assert {tuple(a[v].payload for v in q.free_vars) for a in out.witness} == \
        {(1, "a"), ("1", "a")}


def test_negated_diagonal_drops_only_the_diagonal():
    db = Database.from_rows({"R": [(1, 1), (1, 2), (2, 2), (3, 1)], "S": [(1, 1), (2, 1)]})
    q = parse_query("Q(x, y) :- R(x, y), !S(x, x).")
    assert materialize_answers(q, db).payload_rows() == {(2, 2), (3, 1)}


def test_negated_constant_outside_the_domain_keeps_every_answer():
    db = Database.from_rows({"R": [(1, 2), (2, 3)], "S": [(1, 2)]})
    q = parse_query("Q(x, y) :- R(x, y), !S(x, 99).")
    assert materialize_answers(q, db).payload_rows() == {(1, 2), (2, 3)}
    q = parse_query("Q(x, y) :- R(x, y), !S(x, 2).")
    assert materialize_answers(q, db).payload_rows() == {(2, 3)}


def test_positive_constant_outside_the_domain_gives_no_answers():
    db = Database.from_rows({"R": [(1, 2), (2, 3)], "S": [(1, 2)]})
    q = parse_query('Q(x) :- R(x, y), S(x, "2").')
    assert materialize_answers(q, db).rows == frozenset()
    q = parse_query("Q(x) :- R(x, y), S(x, 2).")
    assert materialize_answers(q, db).payload_rows() == {(1,)}


def test_csv_directory_and_fact_file_materialize_alike(tmp_path):
    # The two loaders intern values in different orders; the answers agree.
    facts = tmp_path / "db.facts"
    facts.write_text('T("b", 7).\nT(3, "a").\nR(3, "a").\nR(1, "b").\nR(2, "c").\n')
    csv_dir = tmp_path / "db"
    csv_dir.mkdir()
    (csv_dir / "R.csv").write_text("1,b\n2,c\n3,a\n")
    (csv_dir / "T.csv").write_text("3,a\nb,7\n")
    q = parse_query("Q(x, y) :- R(x, y).\nQ(x, y) :- T(x, y).\nQ(x, y) :- R(x, z), T(z, y).")
    from_facts = materialize_answers(q, load_database(str(facts)))
    from_csv = materialize_answers(q, load_database(str(csv_dir)))
    assert from_facts.payload_rows() == from_csv.payload_rows() == \
        {(1, "b"), (2, "c"), (3, "a"), ("b", 7), (1, 7)}


def test_capping_rule_level_one_example():
    rows = [("a", 1), ("a", 2), ("a", 3), ("a", 4)]
    answers = relation(("x1", "x2"), rows)
    reduced = apply_capping_rule(answers, 1, 2)
    # group fixing x1=a holds 4 >= 2; keep 2 rows differing on x2 (first fit)
    assert reduced.payload_rows() == {("a", 1), ("a", 2)}


def test_capping_rule_small_groups_untouched():
    answers = relation(("x1", "x2"), [("a", 1), ("b", 2)])
    reduced = apply_capping_rule(answers, 1, 2)
    assert reduced.rows == answers.rows


def test_capping_rule_global_group_at_top_level():
    rows = [(i,) for i in range(1, 6)]
    answers = relation(("x1",), rows)
    reduced = apply_capping_rule(answers, 1, 2)
    # threshold 1!^2 * 2 = 2, the single empty-prefix group caps at 1*2 rows
    assert len(reduced.rows) == 2


def test_capping_rule_precondition_violation():
    rows = [("a", i) for i in range(1, 6)]
    answers = relation(("x1", "x2"), rows)
    with pytest.raises(PreconditionViolated):
        apply_capping_rule(answers, 2, 2)  # level 1 was never exhausted


def test_kernelize_single_column_example():
    answers = relation(("x",), [(1,), (2,), (3,), (4,), (5,)])
    kernel = kernelize(answers, 2)
    assert kernel.payload_rows() == {(1,), (2,)}
    before, _ = bruteforce_diversity_on(answers, 2, SUM)
    after, _ = bruteforce_diversity_on(kernel, 2, SUM)
    assert before == after == 1


def test_kernelize_small_input_unchanged():
    answers = relation(("x", "y"), [(1, 2), (3, 4)])
    assert kernelize(answers, 2).rows == answers.rows


def bruteforce_diversity_on(answers, k, aggregator, **kw):
    return bruteforce_diversity(answers.assignments(), k, aggregator, **kw)


def test_kernel_bound_and_safety_random():
    rng = random.Random(103)
    for _ in range(40):
        m = rng.randint(1, 3)
        n_rows = rng.randint(1, 40)
        dom = rng.randint(2, 5)
        rows = {
            tuple(rng.randint(1, dom) for _ in range(m)) for _ in range(n_rows)
        }
        answers = relation(tuple(f"x{i}" for i in range(m)), sorted(rows))
        k = rng.choice([2, 3])
        kernel = kernelize(answers, k)
        assert len(kernel.rows) <= math.factorial(m) ** 2 * k ** m
        assert kernel.rows <= answers.rows
        for aggregator in (SUM, MIN):
            before, _ = bruteforce_diversity_on(answers, k, aggregator)
            after, _ = bruteforce_diversity_on(kernel, k, aggregator)
            assert before == after


def test_kernelize_idempotent():
    rng = random.Random(107)
    for _ in range(30):
        m = rng.randint(1, 3)
        rows = {
            tuple(rng.randint(1, 4) for _ in range(m))
            for _ in range(rng.randint(1, 40))
        }
        answers = relation(tuple(f"x{i}" for i in range(m)), sorted(rows))
        k = rng.choice([2, 3])
        once = kernelize(answers, k)
        twice = kernelize(once, k)
        assert once.rows == twice.rows


def test_solve_fo_diverse_basics():
    answers = relation(("x", "y"), [(1, 1), (1, 2), (2, 1)])
    out = solve_fo_diverse(answers, 2, 0, SUM)
    assert out.decision is True  # any two distinct answers do
    out = solve_fo_diverse(answers, 4, 0, SUM)
    assert out.decision is False  # only three answers exist
    out = solve_fo_diverse(answers, 4, 0, SUM, allow_duplicates=True)
    assert out.decision is True


def test_solve_fo_diverse_witness_reaches_value():
    answers = relation(("x", "y"), [(1, 1), (2, 2), (3, 3)])
    out = solve_fo_diverse(answers, 2, None, SUM, witness=True)
    assert out.diversity == 2
    a, b = out.witness
    assert sum(1 for v in ("x", "y") if a[v] != b[v]) == 2


def test_solve_fo_diverse_rejects_non_monotone():
    spread = custom_aggregator(lambda ds: max(ds) - min(ds), monotone=False)
    answers = relation(("x",), [(1,), (2,)])
    with pytest.raises(NotMonotone):
        solve_fo_diverse(answers, 2, 0, spread)


def test_solve_fo_diverse_accepts_monotone_custom():
    top = custom_aggregator(lambda ds: max(ds) if ds else 0, monotone=True)
    answers = relation(("x", "y"), [(1, 1), (2, 2)])
    out = solve_fo_diverse(answers, 2, 2, top)
    assert out.decision is True and out.diversity == 2


def test_solve_fo_diverse_budget():
    # The budget counts search nodes. The rows survive kernelization (every
    # group stays below threshold), and no three of them reach the ceiling
    # (z never differs), so the branch and bound passes 10 nodes.
    answers = relation(("x", "y", "z"), [(i, i, 0) for i in range(30)])
    with pytest.raises(CombinatorialBudgetExceeded):
        solve_fo_diverse(answers, 3, 0, SUM, budget=10)
    out = solve_fo_diverse(answers, 3, 0, SUM)
    assert out.stats["kernel"] == 30 and out.stats["candidates"] == math.comb(30, 3)
    assert out.diversity == 6


def test_csv_round_trip(tmp_path):
    answers = relation(("x", "name"), [(1, "free_1"), (2, "taken_1")])
    path = tmp_path / "answers.csv"
    write_answer_csv(answers, str(path))
    again = read_answer_csv(str(path))
    assert again.columns == answers.columns
    assert again.payload_rows() == answers.payload_rows()


# --- the kernel against its plain-loop reference --------------------------------

MAX = custom_aggregator(lambda ds: max(ds) if ds else 0, monotone=True, name="max")
SUM_OF_SQUARES = custom_aggregator(lambda ds: sum(x * x for x in ds), monotone=True,
                                   name="sum-of-squares")
AGGREGATORS = (SUM, MIN, MAX, SUM_OF_SQUARES)


@st.composite
def capped_relations(draw):
    """A relation with m = 1..5 columns, k = 1..4, and up to 60 rows. Up to
    three columns are wide (20 values), the others narrow (1 to 3 values).
    With two wide columns, a group fixing the narrow ones holds 16 rows and
    more whose level-1 subgroups are small, so level-2 capping fires for
    k = 2 as well."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(1, 4))
    rng = draw(st.randoms(use_true_random=False))
    wide = min(m, rng.choice((0, 1, 2, 2, 2, 3)))
    domains = [20] * wide + [rng.randint(1, 3) for _ in range(m - wide)]
    rng.shuffle(domains)
    rows = {tuple(rng.randint(1, size) for size in domains)
            for _ in range(rng.randint(0, 60))}
    return relation(tuple(f"x{i}" for i in range(m)), sorted(rows)), k


def outcome_or_error(call):
    try:
        return call()
    except PreconditionViolated:
        return PreconditionViolated


@settings(max_examples=150, deadline=None)
@given(capped_relations(), st.integers(1, 5))
def test_capping_rule_matches_reference(case, t):
    answers, k = case
    t = min(t, len(answers.columns))
    got = outcome_or_error(lambda: apply_capping_rule(answers, t, k).rows)
    want = outcome_or_error(lambda: reference_capping_rule(answers, t, k).rows)
    assert got == want


@settings(max_examples=150, deadline=None)
@given(capped_relations())
def test_kernelize_and_search_match_reference(case):
    answers, k = case
    kernel = kernelize(answers, k)
    reference = reference_kernelize(answers, k)
    assert kernel.rows == reference.rows
    n = len(kernel.rows)
    for allow_duplicates in (False, True):
        if math.comb(n + k - 1 if allow_duplicates else n, k) > 3000:
            continue
        for aggregator in AGGREGATORS:
            best, combo, pool = reference_fo_search(
                reference, k, aggregator, allow_duplicates=allow_duplicates)
            for d in (None, 2):
                out = solve_fo_diverse(answers, k, d, aggregator,
                                       allow_duplicates=allow_duplicates, witness=True)
                decision = best is not None and (d is None or best >= d)
                assert (out.decision, out.diversity) == (decision, best)
                want = tuple(pool[i] for i in combo) if decision else None
                assert out.witness == want


def test_level_two_capping_matches_reference():
    # Distinct values in both wide columns: level 1 finds no group of two,
    # and the group fixing the narrow column (or nothing) holds 20 rows.
    diagonal = [(i, (7 * i) % 20) for i in range(20)]
    for columns, rows in ((("x", "y"), diagonal),
                          (("w", "x", "y"), [(1, x, y) for x, y in diagonal])):
        answers = relation(columns, rows)
        kernel = kernelize(answers, 2)
        assert len(kernel.rows) == 4
        assert kernel.rows == reference_kernelize(answers, 2).rows


def k33_lists_union():
    k33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    lists = {1: {1, 2}, 2: {2, 3}, 3: {1, 3}, 4: {1, 2}, 5: {2, 3}, 6: {1, 3}}
    fx = list_coloring_to_union_query(k33, {v: frozenset(c) for v, c in lists.items()})
    return materialize_answers(fx.query, fx.db), fx.k


def test_kernelize_enters_only_levels_that_can_fire(monkeypatch):
    answers, k = k33_lists_union()
    entered = []
    original = kernel_module.apply_capping_rule

    def counting(current, t, k):
        entered.append((t, len(current.rows)))
        return original(current, t, k)

    monkeypatch.setattr(kernel_module, "apply_capping_rule", counting)
    kernel = kernelize(answers, k)
    m = len(answers.columns)
    assert m == 10 and len(answers.rows) == 16
    for t, rows in entered:
        idle = (rows < math.factorial(t) ** 2 * k ** t
                and rows <= math.factorial(t - 1) ** 2 * k ** (t - 1))
        assert not idle, f"level {t} entered with {rows} rows"
    assert [t for t, _ in entered] == [1, 2]
    assert kernel.rows == reference_kernelize(answers, k).rows


# --- the search against brute force ---------------------------------------------


def assert_search_matches_bruteforce(answers, k, aggregator, *, allow_duplicates=False):
    out = solve_fo_diverse(answers, k, None, aggregator,
                           allow_duplicates=allow_duplicates, witness=True)
    pool = kernelize(answers, k).assignments()
    best, witness = bruteforce_diversity(pool, k, aggregator,
                                         allow_duplicates=allow_duplicates)
    assert out.diversity == best
    assert out.decision is (best is not None)
    assert out.witness == witness
    if witness is not None:
        assert len(witness) == k and set(witness) <= set(pool)
        if not allow_duplicates:
            assert len(set(witness)) == k
        assert diversity_of_set(aggregator, witness, answers.columns) == best


def test_search_matches_bruteforce_random():
    rng = random.Random(109)
    solves = 0
    for _ in range(60):
        m = rng.randint(1, 4)
        k = rng.randint(1, 4)
        rows = {tuple(rng.randint(1, rng.randint(2, 6)) for _ in range(m))
                for _ in range(rng.randint(0, 14))}
        answers = relation(tuple(f"x{i}" for i in range(m)), sorted(rows))
        for aggregator in AGGREGATORS:
            for allow_duplicates in (False, True):
                assert_search_matches_bruteforce(answers, k, aggregator,
                                                 allow_duplicates=allow_duplicates)
                solves += 1
    assert solves == 480


def test_search_fewer_answers_than_k():
    answers = relation(("x", "y"), [(1, 1), (2, 2)])
    for aggregator in AGGREGATORS:
        assert_search_matches_bruteforce(answers, 3, aggregator)
        out = solve_fo_diverse(answers, 3, None, aggregator)
        assert (out.decision, out.diversity, out.stats["candidates"]) == (False, None, 0)
        assert_search_matches_bruteforce(answers, 3, aggregator, allow_duplicates=True)


def test_search_fewer_answers_than_k_never_calls_custom_aggregator():
    def refuse(ds):
        raise AssertionError("no candidate set, so nothing to aggregate")

    answers = relation(("x",), [(1,), (2,)])
    out = solve_fo_diverse(answers, 3, 0, custom_aggregator(refuse, monotone=True))
    assert out.decision is False and out.diversity is None


def test_search_single_answer_sets():
    answers = relation(("x", "y"), [(3, 1), (1, 2), (2, 2)])
    for aggregator in AGGREGATORS:
        for allow_duplicates in (False, True):
            assert_search_matches_bruteforce(answers, 1, aggregator,
                                             allow_duplicates=allow_duplicates)
    assert solve_fo_diverse(answers, 1, None, MIN).diversity == math.inf


def test_search_min_optimum_late_in_lexicographic_order():
    # The near rows share x, and each shares a value with two of the far
    # rows, so the only triple whose rows pairwise differ in all three
    # columns is the far one, the last in lexicographic order. Every
    # earlier prefix with a close pair is cut once min 2 is found.
    near = [(1, 7, 8), (1, 8, 9), (1, 7, 9), (1, 9, 8)]
    far = [(2, 7, 7), (3, 8, 8), (4, 9, 9)]
    answers = relation(("x", "y", "z"), near + far)
    out = solve_fo_diverse(answers, 3, None, MIN, witness=True)
    assert out.diversity == 3
    assert [tuple(a[x].payload for x in ("x", "y", "z")) for a in out.witness] == far
    for aggregator in AGGREGATORS:
        assert_search_matches_bruteforce(answers, 3, aggregator)
