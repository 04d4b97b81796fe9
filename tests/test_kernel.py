import collections
import itertools
import math
import random
import types

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


def test_materialize_answers_alike_in_both_body_orders_within_the_budget():
    # A 4-cycle whose body lists R(x, y) and S(z, w), which share no
    # variable, first. Joined in body order it would build their product,
    # 3074 partial answers; the join takes T(y, z) second in both orders and
    # builds 598, so a budget of 1000 fits both and one of 597 refuses both.
    rng = random.Random(5)
    db = Database.from_rows({name: [(rng.randrange(20), rng.randrange(20)) for _ in range(60)]
                             for name in "RST"})
    bodies = ("R(x, y), S(z, w), T(y, z), R(w, x)", "R(x, y), T(y, z), S(z, w), R(w, x)")
    queries = [parse_query(f"Q(x, y, z, w) :- {body}.") for body in bodies]
    r, s = (len(set(db.relations[name].rows)) for name in "RS")
    assert r * s > 1000
    expected = {tuple(a[v].payload for v in "xyzw") for a in enumerate_answers(queries[0], db)}
    assert len(expected) == 56
    for query in queries:
        assert materialize_answers(query, db, budget=1000).payload_rows() == expected
        assert materialize_answers(query, db, budget=598).payload_rows() == expected
        with pytest.raises(CombinatorialBudgetExceeded,
                           match="^the answer join builds over 597 partial answers$"):
            materialize_answers(query, db, budget=597)


def test_answer_join_counts_what_it_builds_apart_from_negation():
    # R's 4 rows bind x and y (4 partial answers), S(y) only filters: 3 are
    # left, and !T(x) drops one after the join, which it does not count.
    db = Database.from_rows({"R": [(1, 5), (2, 5), (3, 5), (4, 6)], "S": [(5,)], "T": [(1,)]})
    for text in ("Q(x) :- R(x, y), S(y), !T(x).", "Q(x) :- S(y), !T(x), R(x, y)."):
        query = parse_query(text)
        assert materialize_answers(query, db, budget=4).payload_rows() == {(2,), (3,)}
    with pytest.raises(CombinatorialBudgetExceeded):
        materialize_answers(parse_query("Q(x) :- R(x, y), S(y), !T(x)."), db, budget=3)
    # The other order binds y from S first (1), then x from R (3): 4 in all.
    with pytest.raises(CombinatorialBudgetExceeded):
        materialize_answers(parse_query("Q(x) :- S(y), !T(x), R(x, y)."), db, budget=3)
    # A union's disjuncts are joined, and counted, one at a time.
    union = parse_query("Q(x) :- R(x, y).\nQ(x) :- T(x).")
    assert materialize_answers(union, db, budget=4).payload_rows() == {(1,), (2,), (3,), (4,)}


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


def test_ground_query_materializes_the_empty_answer_or_none():
    # A body without variables joins to the empty assignment, or to none:
    # with no positive atom at all the join has no inputs and yields () once.
    db = Database.from_rows({"T": [(1,)], "R": [(2,)]})
    for text, answers in (("Q() :- !T(1).", set()), ("Q() :- !T(2).", {()}),
                          ("Q() :- R(2), !T(2).", {()}), ("Q() :- R(3).", set())):
        assert materialize_answers(parse_query(text), db, budget=0).payload_rows() == answers


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


def test_k_zero_is_answered_without_kernelizing(monkeypatch):
    # At k = 0 the empty set is the only candidate, so the answer is the
    # aggregate of no distances, as brute force finds, on one column and on
    # two, with no answer at all too; the kernel is never built.
    def unused(answers, k):
        raise AssertionError("kernelize called at k = 0")

    monkeypatch.setattr(kernel_module, "kernelize", unused)
    for columns, rows in ((("x",), [(1,), (2,)]), (("x", "y"), [(1, 2), (2, 3), (1, 3)]),
                          (("x",), [])):
        answers = relation(columns, rows)
        for aggregator in (SUM, MIN):
            for dup in (False, True):
                expected, chosen = bruteforce_diversity_on(answers, 0, aggregator,
                                                           allow_duplicates=dup)
                out = solve_fo_diverse(answers, 0, None, aggregator, allow_duplicates=dup,
                                       witness=True)
                assert (out.decision, out.diversity, out.witness) == (True, expected, chosen)
        out = solve_fo_diverse(answers, 0, 1, SUM, witness=True)
        assert (out.decision, out.diversity, out.witness) == (False, 0, None)


def test_kernelize_refuses_k_below_one():
    answers = relation(("x", "y"), [(1, 2), (2, 3)])
    for k in (0, -1):
        with pytest.raises(ValueError, match=rf"kernelize needs k >= 1, got {k}"):
            kernelize(answers, k)


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
    # The budget counts pair distances, C(k, 2) per search node: 3 at k = 3,
    # so a budget of 10 is spent on the fourth node. The rows survive
    # kernelization (every group stays below threshold), and no three of
    # them reach the ceiling, so the search gets there: x differs
    # everywhere, and y and z each hold three values, which would allow 9,
    # but no three rows differ in both y and z.
    yz = [(0, 0), (0, 1), (1, 2), (2, 2)] * 2
    answers = relation(("x", "y", "z"), [(i, y, z) for i, (y, z) in enumerate(yz)])
    with pytest.raises(CombinatorialBudgetExceeded):
        solve_fo_diverse(answers, 3, 0, SUM, budget=10)
    out = solve_fo_diverse(answers, 3, 0, SUM)
    assert out.stats["kernel"] == 8 and out.stats["candidates"] == math.comb(8, 3)
    assert out.diversity == 8


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
def capped_relations(draw, min_k: int = 0):
    """A relation with m = 1..5 columns, k = min_k..4, and up to 60 rows. Up
    to three columns are wide (20 values), the others narrow (1 to 3
    values). With two wide columns, a group fixing the narrow ones holds 16
    rows and more whose level-1 subgroups are small, so level-2 capping
    fires for k = 2 as well. At k = 0 level 1 keeps every row, which a
    plain first-k pass would drop."""
    m = draw(st.integers(1, 5))
    k = draw(st.integers(min_k, 4))
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
@given(capped_relations(min_k=1))  # kernelize refuses k < 1
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


def grouped_column_sets(monkeypatch, t, k, answers):
    """Level t's output on `answers` and the fixed column sets it grouped
    rows by, in order."""
    m = len(answers.columns)
    grouped = []
    key_of = kernel_module._key_of

    def recording(fixed):
        if len(fixed) == m - t:  # not the precondition scan's m - t + 1
            grouped.append(tuple(fixed))
        return key_of(fixed)

    with monkeypatch.context() as patch:
        patch.setattr(kernel_module, "_key_of", recording)
        return apply_capping_rule(answers, t, k), grouped


def test_level_two_skips_column_sets_no_capped_group_fills(monkeypatch):
    # At k = 2 level 2 caps groups of 16 rows. u and v hold value 0 in 20
    # rows, a diagonal over x and y, and value 1 in 4 more; x and y hold no
    # value more than twice. A capped group fixes two of the four columns,
    # each at a value 16 rows hold, so of the six column sets only the
    # last, {u, v}, is grouped, and its group of 20 is capped to 4 rows.
    rows = [(i, (7 * i) % 20, 0, 0) for i in range(20)] + \
        [(i, (3 * i + 1) % 20, 1, 1) for i in range(4)]
    answers = relation(("x", "y", "u", "v"), rows)
    capped, grouped = grouped_column_sets(monkeypatch, 2, 2, answers)
    assert grouped == [(2, 3)]
    assert capped.rows == reference_capping_rule(answers, 2, 2).rows
    assert len(capped.rows) == 8



def test_level_three_counts_only_the_columns_level_two_found_filled(monkeypatch):
    # At k = 2, 432 rows (i, a, b, c): i differs in every row, and each
    # (a, b, c) over 6 values holds two rows. Level 1 keeps them all. Level
    # 2 (groups of 16) finds no value of i in 16 rows and every value of a,
    # b and c in 72, and caps no group: those fixing two of a, b and c hold
    # 12 rows. Level 3 (groups of 288) counts a, b and c again, 6 values
    # each, but not i's 432, which can only have fallen further short.
    rows = [(i, a, b, c) for i, (a, b, c, _) in
            enumerate(itertools.product(range(6), range(6), range(6), range(2)))]
    answers = relation(("i", "a", "b", "c"), rows)
    level_two = apply_capping_rule(apply_capping_rule(answers, 1, 2), 2, 2)
    assert len(level_two.rows) == 432
    counted = []

    class Recording(collections.Counter):
        def __init__(self, values):
            super().__init__(values)
            counted.append(len(self))

    with monkeypatch.context() as patch:
        patch.setattr(kernel_module, "collections", types.SimpleNamespace(Counter=Recording))
        level_three = apply_capping_rule(level_two, 3, 2)
    assert counted == [6, 6, 6]
    assert level_three.rows == reference_capping_rule(relation(answers.columns, rows), 3, 2).rows
    assert len(level_three.rows) == 432

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
        assert rows >= math.factorial(t) ** 2 * k ** t, f"level {t} entered with {rows} rows"
    assert [t for t, _ in entered] == [1, 2]
    assert kernel.rows == reference_kernelize(answers, k).rows


def test_level_two_groups_no_column_set_of_the_k33_union(monkeypatch):
    # After level 1 the k33 union keeps its 16 rows over 10 columns, as
    # many as a capped group at k = 2 holds, but no column holds one value
    # in all of them, so level 2 groups no column set and keeps every row.
    answers, k = k33_lists_union()
    level_one = apply_capping_rule(answers, 1, k)
    assert len(level_one.rows) == 16 == math.factorial(2) ** 2 * k ** 2
    capped, grouped = grouped_column_sets(monkeypatch, 2, k, level_one)
    assert grouped == []
    assert capped.rows == reference_capping_rule(level_one, 2, k).rows == level_one.rows


@pytest.mark.parametrize("instance", [k33_lists_union, lambda: dense_union_answers(3),
                                      lambda: dense_union_answers(4)],
                         ids=["k33-lists", "dense-union-3", "dense-union-4"])
def test_kernelize_skips_levels_as_if_it_ran_them(monkeypatch, instance):
    # Entering every level whose capping or precondition scan could fire,
    # in order, keeps the same rows and records the same last level. On a
    # k = 2 three-column union, level 3 caps groups of 3!^2 * 2^3 = 288
    # rows, which the rows left never reach, so kernelize does not enter
    # it, though they are more than the 16 its scan allows a group.
    answers, k = instance()

    def threshold(t):
        return math.factorial(t) ** 2 * k ** t

    current = AnswerRelation(answers.columns, answers.rows, answers.values)
    for t in range(1, len(answers.columns) + 1):
        n = len(current.rows)
        if n >= threshold(t) or n > threshold(t - 1):
            current = apply_capping_rule(current, t, k)
    entered = []
    capping = kernel_module.apply_capping_rule

    def counting(relation, t, k):
        entered.append(t)
        return capping(relation, t, k)

    monkeypatch.setattr(kernel_module, "apply_capping_rule", counting)
    kernel = kernelize(answers, k)
    assert kernel.rows == current.rows
    assert kernel._capped_at == current._capped_at
    if len(answers.columns) == 3:
        assert threshold(2) < len(kernel.rows) < threshold(3) and entered == [1, 2]
        assert kernel._capped_at == (3, k)


def dense_union_answers(seed, values=8, pairs=32, triples=70):
    """The answers of a union of a two-atom join and a ternary relation, all
    dense and random, with k = 2."""
    rng = random.Random(seed)
    grid = [(u, v) for u in range(values) for v in range(values)]
    cube = [(u, v, w) for u in range(values) for v in range(values) for w in range(values)]
    db = Database.from_rows({"A": rng.sample(grid, pairs), "B": rng.sample(grid, pairs),
                             "C": rng.sample(cube, triples)})
    query = parse_query("Q(x, y, z) :- A(x, y), B(y, z).\nQ(x, y, z) :- C(x, y, z).")
    return materialize_answers(query, db), 2


@pytest.mark.parametrize("instance", [k33_lists_union, lambda: dense_union_answers(3),
                                      lambda: dense_union_answers(4)],
                         ids=["k33-lists", "dense-union-3", "dense-union-4"])
def test_kernelize_makes_no_precondition_scan(monkeypatch, instance):
    # Each level kernelize enters gets the level below's output, whose
    # precondition holds by construction, or the level below was skipped,
    # which leaves too few rows for a group to break it. On these inputs
    # the scan's own row count test would have let it run.
    answers, k = instance()
    scans, entered = [], []
    check, capping = kernel_module._check_level_below, kernel_module.apply_capping_rule

    def counting_check(rows, m, t, k):
        scans.append(t)
        return check(rows, m, t, k)

    def counting_capping(current, t, k):
        entered.append((t, len(current.rows)))
        return capping(current, t, k)

    monkeypatch.setattr(kernel_module, "_check_level_below", counting_check)
    monkeypatch.setattr(kernel_module, "apply_capping_rule", counting_capping)
    kernel = kernelize(answers, k)
    assert scans == []
    assert any(t > 1 and rows > math.factorial(t - 1) ** 2 * k ** (t - 1)
               for t, rows in entered), entered
    assert kernel.rows == reference_kernelize(answers, k).rows
    # A standalone call on a relation as large is scanned.
    t, _ = entered[-1]
    fresh = AnswerRelation(answers.columns, answers.rows, answers.values)
    outcome_or_error(lambda: apply_capping_rule(fresh, t, k))
    assert scans == [t]


def test_capping_rule_scans_all_but_the_level_below_output(tmp_path):
    # Only the relation that level t - 1 returned for the same k skips
    # level t's precondition scan: one built directly, one read from CSV,
    # one from a lower level or from another k is scanned, and refused
    # when a lower level was not exhausted.
    k = 2
    stacked = [("a", "b", z) for z in range(5)]  # a group fixing x, y holds 5 > k rows
    with pytest.raises(PreconditionViolated):
        apply_capping_rule(relation(("x", "y", "z"), stacked), 2, k)
    path = tmp_path / "answers.csv"
    write_answer_csv(relation(("x", "y", "z"), stacked), str(path))
    with pytest.raises(PreconditionViolated):
        apply_capping_rule(read_answer_csv(str(path)), 2, k)
    wide_k = apply_capping_rule(relation(("x", "y", "z"), stacked), 1, 5)
    assert len(wide_k.rows) == 5
    with pytest.raises(PreconditionViolated):
        apply_capping_rule(wide_k, 2, k)
    # y and z pair as a ring: a group fixing two columns holds at most two
    # rows, so level 1 keeps all 40, but the group fixing x holds 40 rows,
    # more than level 2 allows (2!^2 * k^2 = 16).
    ring = [(0, y, z) for y in range(20) for z in (y, (y + 1) % 20)]
    level_1 = apply_capping_rule(relation(("x", "y", "z"), ring), 1, k)
    assert len(level_1.rows) == 40
    with pytest.raises(PreconditionViolated):
        apply_capping_rule(level_1, 3, k)
    level_2 = apply_capping_rule(level_1, 2, k)
    assert level_2.rows == reference_capping_rule(level_1, 2, k).rows
    assert apply_capping_rule(level_2, 3, k).rows == level_2.rows
    with pytest.raises(PreconditionViolated):
        apply_capping_rule(relation(("x", "y", "z"), ring), 3, k)


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
