import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq.errors import UnboundVariable
from diverseq.model import (
    MIN,
    SUM,
    Assignment,
    Database,
    best_tuple,
    custom_aggregator,
    distance_rows,
    diversity_of_set,
    hamming_distance,
)

VARS = ["a", "b", "c", "d", "e"]

_POOL = Database.from_rows({"Pool": [(i,) for i in range(10)]})


def asg(**bindings):
    return Assignment({k: _POOL.value(v) for k, v in bindings.items()})


def test_value_interning_is_canonical():
    db = Database.from_rows({"R": [(1, "x"), (1, "x")]})
    [row] = db.relations["R"].sorted_rows()
    assert row[0] == db.value(1)
    assert hash(row[1]) == hash(db.value("x"))
    assert len(db.domain) == 2


def test_value_order_is_load_order():
    db = Database.from_rows({"R": [(5,), (3,), (9,)]})
    assert [v.payload for v in sorted(db.domain)] == [5, 3, 9]


def test_int_and_string_payloads_stay_distinct():
    db = Database.from_rows({"R": [(1, "1")]})
    assert db.value(1) != db.value("1")
    assert len(db.domain) == 2


def test_relation_rejects_ragged_rows():
    db = Database()
    with pytest.raises(ValueError):
        db.add_relation("R", 2, [(1, 2), (3,)])


def test_relations_share_one_value_table():
    # Each relation holds its database's value table itself, not a copy of
    # the domain as it stood when the relation was added: 2000 relations of
    # 50 new values each then hold one table of 100,000 values, where
    # copies would hold about 100 million references (800 MB).
    tracemalloc.start()
    try:
        db = Database()
        for r in range(2000):
            db.add_relation(f"R{r}", 1, [(50 * r + i,) for i in range(50)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2 ** 20
    assert len(db.values) == 100_000
    assert all(relation.values is db.values for relation in db.relations.values())
    assert db.domain == tuple(db.values)
    assert len({*db.relations.values()}) == 2000  # relations stay hashable
    first, last = db.relations["R0"], db.relations["R1999"]
    assert [v.payload for (v,) in first.sorted_rows()] == list(range(50))
    assert [v.payload for (v,) in last.sorted_rows()] == list(range(99_950, 100_000))


def test_values_are_interned_row_by_row_across_types():
    # A relation's values are interned together, once per distinct value
    # when they are ints and strs only, else one by one; in the same order
    # either way, with 1, "1" and True apart.
    db = Database()
    db.add_relation("R", 2, [(3, 1), (1, 2), (2, 3)])
    db.add_relation("S", 2, [("1", 1), (5, "1"), (1, "x")])
    db.add_relation("T", 3, [("1", 1, True), (True, "y", 6)])
    assert [(type(v.payload), v.payload) for v in db.values] == [
        (int, 3), (int, 1), (int, 2), (str, "1"), (int, 5), (str, "x"), (bool, True),
        (str, "y"), (int, 6)]
    assert [v.index for v in db.values] == list(range(9))
    assert db.relations["S"].rows == {(3, 1), (4, 3), (1, 5)}
    assert db.relations["T"].rows == {(3, 1, 6), (6, 7, 8)}


def test_active_domain_is_union_of_rows():
    db = Database.from_rows({"R": [(1, 2)], "S": [(2, 3)]})
    assert sorted(v.payload for v in db.domain) == [1, 2, 3]


def test_hamming_distance_single_difference():
    a = asg(v=1, x1=0)
    b = asg(v=2, x1=0)
    assert hamming_distance(a, b, ["v", "x1"]) == 1


def test_hamming_distance_identity():
    a = asg(x=1, y=2)
    assert hamming_distance(a, a, ["x", "y"]) == 0


def test_hamming_distance_restriction_ignores_other_vars():
    a = asg(x=1, y=2)
    b = asg(x=3, y=4)
    assert hamming_distance(a, b, ["x"]) == 1


def test_hamming_distance_unbound_raises():
    a = asg(x=1)
    b = asg(y=2)
    with pytest.raises(UnboundVariable):
        hamming_distance(a, b, ["x"])


def test_aggregate_examples():
    assert SUM.aggregate([2, 3, 1]) == 6
    assert MIN.aggregate([2, 3, 1]) == 1
    # with a single pair, sum and min coincide
    for d in range(5):
        assert SUM.aggregate([d]) == MIN.aggregate([d])


def test_aggregate_empty_multiset():
    assert SUM.aggregate([]) == 0
    assert MIN.aggregate([]) == math.inf
    assert MIN.aggregate([]) >= 10 ** 9


def test_custom_aggregator_sees_sorted_distances():
    seen = []
    agg = custom_aggregator(lambda ds: seen.append(ds) or sum(ds), monotone=True)
    agg.aggregate([3, 1, 2])
    assert seen == [(1, 2, 3)]


def test_diversity_of_set_examples():
    answers = [asg(u=1, w=0), asg(u=2, w=0)]
    assert diversity_of_set(SUM, answers, ["u", "w"]) == 1
    same = [asg(u=1, w=0)] * 3
    assert diversity_of_set(SUM, same, ["u", "w"]) == 0


def test_diversity_min_three_answers_pairwise_distinct_everywhere():
    xs = ["p", "q", "r", "s", "t"]
    rows = [asg(p=0, q=0, r=0, s=0, t=0),
            asg(p=1, q=1, r=1, s=1, t=1),
            asg(p=2, q=2, r=2, s=2, t=2)]
    assert diversity_of_set(MIN, rows, xs) == 5


# --- properties ------------------------------------------------------------

assignments = st.builds(
    lambda items: items,
    st.dictionaries(st.sampled_from(VARS), st.integers(min_value=0, max_value=3)),
)


def _as_assignment(db, mapping):
    return Assignment({k: db.value(v) for k, v in mapping.items()})


@st.composite
def assignment_pairs(draw, over=VARS):
    domain = draw(st.sets(st.sampled_from(over), min_size=1))
    a = {v: draw(st.integers(0, 3)) for v in domain}
    b = {v: draw(st.integers(0, 3)) for v in domain}
    return a, b


@settings(max_examples=100, deadline=None)
@given(assignment_pairs())
def test_distance_symmetry(pair):
    db = Database.from_rows({"Pool": [(i,) for i in range(4)]})
    a = _as_assignment(db, pair[0])
    b = _as_assignment(db, pair[1])
    xs = sorted(pair[0])
    assert hamming_distance(a, b, xs) == hamming_distance(b, a, xs)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3),
       st.lists(st.integers(0, 3), min_size=3, max_size=3))
def test_distance_triangle_inequality(xs, ys, zs):
    db = Database.from_rows({"Pool": [(i,) for i in range(4)]})
    names = ["a", "b", "c"]
    a = _as_assignment(db, dict(zip(names, xs)))
    b = _as_assignment(db, dict(zip(names, ys)))
    c = _as_assignment(db, dict(zip(names, zs)))
    assert hamming_distance(a, c, names) <= (
        hamming_distance(a, b, names) + hamming_distance(b, c, names)
    )


@settings(max_examples=100, deadline=None)
@given(assignment_pairs(over=VARS))
def test_distance_additivity_over_partition(pair):
    db = Database.from_rows({"Pool": [(i,) for i in range(4)]})
    a = _as_assignment(db, pair[0])
    b = _as_assignment(db, pair[1])
    xs = sorted(pair[0])
    half = len(xs) // 2
    left, right = xs[:half], xs[half:]
    assert hamming_distance(a, b, xs) == (
        hamming_distance(a, b, left) + hamming_distance(a, b, right)
    )


def test_merge_distance_identity_randomized():
    # For compatible pairs sharing domains, the distance of merged mappings is
    # the sum of the parts minus the distance on the shared restriction.
    rng = random.Random(7)
    db = Database.from_rows({"Pool": [(i,) for i in range(3)]})
    domain = list(db.domain)
    for _ in range(300):
        vars_a = set(rng.sample(VARS, k=rng.randint(1, 4)))
        vars_b = set(rng.sample(VARS, k=rng.randint(1, 4)))
        shared = vars_a & vars_b
        xs = [v for v in VARS if rng.random() < 0.8]

        def pick(variables):
            return {v: rng.choice(domain) for v in variables}

        base_g = pick(vars_a)
        base_m = pick(vars_a)
        gp = {**pick(vars_b), **{v: base_g[v] for v in shared}}
        mp = {**pick(vars_b), **{v: base_m[v] for v in shared}}
        g, gprime = Assignment(base_g), Assignment(gp)
        m, mprime = Assignment(base_m), Assignment(mp)

        lhs = hamming_distance(Assignment({**g, **gprime}), Assignment({**m, **mprime}),
                               [v for v in xs if v in vars_a | vars_b])
        rhs = (
            hamming_distance(g, m, [v for v in xs if v in vars_a])
            + hamming_distance(gprime, mprime, [v for v in xs if v in vars_b])
            - hamming_distance(g.restrict(shared), m.restrict(shared),
                               [v for v in xs if v in shared])
        )
        assert lhs == rhs


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 6), min_size=1, max_size=6), st.data())
def test_sum_strictly_monotone_min_monotone(ds, data):
    i = data.draw(st.integers(0, len(ds) - 1))
    bumped = list(ds)
    bumped[i] += 1
    assert SUM.aggregate(bumped) > SUM.aggregate(ds)
    assert MIN.aggregate(bumped) >= MIN.aggregate(ds)


SQUARES = custom_aggregator(lambda ds: sum(x * x for x in ds), monotone=True, name="squares")


def enumerated_best(matrix, k, aggregator, distinct):
    """`best_tuple` by plain enumeration: every sorted k-tuple of rows in
    `itertools` order, strictly increasing with no zero distance when
    `distinct`, the first with the highest aggregate kept."""
    n = len(matrix)
    tuples = itertools.combinations(range(n), k) if distinct else \
        itertools.combinations_with_replacement(range(n), k)
    best = None
    for picked in tuples:
        distances = [matrix[i][j] for i, j in itertools.combinations(picked, 2)]
        if distinct and 0 in distances:
            continue
        value = aggregator.aggregate(distances)
        if best is None or value > best[0]:
            best = (value, picked)
    return best


def test_best_tuple_matches_enumeration_on_any_symmetric_matrix():
    # The search must not lean on what distances between answer rows obey,
    # such as the triangle inequality. Over random symmetric matrices with
    # a zero diagonal and zeros off it, each row handed over only up to the
    # diagonal when the search first asks for it, `best_tuple` finds the
    # first best tuple that enumeration finds, with and without distinct
    # rows, under sum, min and a custom monotone aggregator, given the
    # largest entry as its bound or a looser one.
    rng = random.Random(131)
    found = zero_rows = 0
    for _ in range(150):
        n = rng.randint(0, 7)
        matrix = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                matrix[i][j] = matrix[j][i] = rng.choice((0, 1, 1, 2, 3))
        zero_rows += any(0 in row[:i] + row[i + 1:] for i, row in enumerate(matrix))
        top = max(map(max, matrix), default=0)
        for k in (0, 1, 2, 4):
            for aggregator in (SUM, MIN, SQUARES):
                for distinct in (False, True):
                    expected = enumerated_best(matrix, k, aggregator, distinct)
                    found += expected is not None
                    for bound in (top, top + 2):
                        lower = (row[:i + 1] for i, row in enumerate(matrix))
                        assert best_tuple(lower, n, k, aggregator, bound,
                                          distinct=distinct) == expected, \
                            (matrix, k, aggregator.label, distinct, bound)
    assert zero_rows > 50 and found > 1000, (zero_rows, found)


def test_distance_rows_are_the_lower_triangle():
    rng = random.Random(7)
    for _ in range(50):
        width = rng.randint(0, 4)
        rows = [tuple(rng.randrange(3) for _ in range(width)) for _ in range(rng.randint(0, 6))]
        assert list(distance_rows(rows)) == [
            [sum(x != y for x, y in zip(a, b)) for b in rows[:i + 1]]
            for i, a in enumerate(rows)]
