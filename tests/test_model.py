import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq import model
from diverseq.errors import UnboundVariable
from diverseq.model import (
    MIN,
    SUM,
    Assignment,
    Database,
    _slot_tuples,
    best_tuple,
    column_ceiling,
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


@settings(max_examples=100, deadline=None)
@given(st.lists(st.lists(st.one_of(st.integers(-3, 3), st.sampled_from(["0", "1", "a", ""])),
                         max_size=12), min_size=1, max_size=3))
def test_interning_a_mixed_list_at_once_is_interning_it_a_value_at_a_time(lists):
    # Lists of ints and strs, some holding both, interned in turn into one
    # table: the indices and the value table are those of `intern_all`
    # called once per value.
    together, one_by_one = model._Interner(), model._Interner()
    for payloads in lists:
        assert together.intern_all(payloads) == [one_by_one.intern_all([p])[0] for p in payloads]
    assert [(type(v.payload), v.payload, v.index) for v in together.values] == [
        (type(v.payload), v.payload, v.index) for v in one_by_one.values]


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


def enumerated_best(rows, k, aggregator, distinct):
    """`best_tuple` by plain enumeration: every sorted k-tuple of row
    positions in `itertools` order, strictly increasing with no zero
    distance when `distinct`, the first with the highest aggregate kept."""
    n = len(rows)
    matrix = [[sum(x != y for x, y in zip(a, b)) for b in rows] for a in rows]
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


def test_best_tuple_matches_enumeration_on_random_row_sets():
    # Over random rows of up to 5 columns, each over one to four values, so
    # that rows often repeat or agree on most columns, and up to 40 rows
    # (fewer at k = 3 and 4, where enumeration grows), `best_tuple` finds
    # the first best tuple that enumeration finds, as sets and as
    # multisets, under sum, min and a custom monotone aggregator. The
    # column ceiling is never below the optimum, and it often meets it
    # where every pair at the rows' width does not, so the search stops
    # there.
    rng = random.Random(131)
    found = repeats = tight = 0
    for _ in range(100):
        domains = [rng.randint(1, 4) for _ in range(rng.randint(0, 5))]
        for k, most in ((0, 6), (1, 40), (2, 40), (3, 24), (4, 14)):
            rows = [tuple(rng.randrange(v) for v in domains) for _ in range(rng.randint(0, most))]
            repeats += len(set(rows)) < len(rows)
            for aggregator in (SUM, MIN, SQUARES):
                for distinct in (False, True):
                    expected = enumerated_best(rows, k, aggregator, distinct)
                    assert best_tuple(rows, k, aggregator, distinct=distinct) == expected, \
                        (rows, k, aggregator.label, distinct)
                    if expected is None:
                        continue
                    found += 1
                    ceiling = column_ceiling(rows, k, aggregator)
                    assert ceiling >= expected[0], (rows, k, aggregator.label, distinct)
                    tight += ceiling == expected[0] < \
                        aggregator.aggregate([len(domains)] * math.comb(k, 2))
    assert found > 2000 and repeats > 300 and tight > 500, (found, repeats, tight)


def test_best_tuple_reads_the_columns_only_below_the_top_ceiling(monkeypatch):
    # The column ceiling takes a pass over every row, so the search
    # computes it only once a complete tuple has scored below every pair at
    # the rows' width: never where the first tuple differs everywhere, and
    # once where no tuple does.
    calls = []
    ceiling = model.column_ceiling

    def counting(*args):
        calls.append(args[1])
        return ceiling(*args)

    monkeypatch.setattr(model, "column_ceiling", counting)
    spread = [(i, i, i) for i in range(50)]
    assert best_tuple(spread, 3, SUM, distinct=True) == (9, (0, 1, 2)) and calls == []
    halves = [(i % 2, i, i) for i in range(50)]
    assert best_tuple(halves, 3, SUM, distinct=True) == (8, (0, 1, 2)) and calls == [3]


def test_distance_rows_are_the_lower_triangle():
    rng = random.Random(7)
    for _ in range(50):
        width = rng.randint(0, 4)
        rows = [tuple(rng.randrange(3) for _ in range(width)) for _ in range(rng.randint(0, 6))]
        assert list(distance_rows(rows)) == [
            [sum(x != y for x, y in zip(a, b)) for b in rows[:i + 1]]
            for i, a in enumerate(rows)]



def test_capped_sorted_tuple_count_is_the_capped_binomial():
    # The count auto's answer-route attempt budgets by: the sorted k-tuples
    # of n rows, C(n + k - 1, k), capped at cap + 1, where a count that
    # `_slot_tuples` finds far past the cap (None) is cap + 1 as well.
    def capped(n, k, cap):
        size = _slot_tuples(n, k, True, cap)
        return cap + 1 if size is None else min(size, cap + 1)

    for cap in (0, 1, 2, 7, 100, 10 ** 4, 10 ** 7, 10 ** 12):
        for n in range(61):
            for k in range(1, 9):
                assert capped(n, k, cap) == min(math.comb(n + k - 1, k), cap + 1), (n, k, cap)
        # Far past the cap, where the count is not computed.
        assert _slot_tuples(10 ** 6, 8, True, cap) is None
        assert capped(10 ** 6, 8, cap) == cap + 1 == min(math.comb(10 ** 6 + 7, 8), cap + 1)

def record_cases():
    """For each class built on `model._Record`: an instance, an equal one
    built apart, one that differs in a field, its repr as `dataclasses`
    wrote it, the fields its hash reads (None when unhashable) and one of
    its fields."""
    from diverseq.cli import RunConfig
    from diverseq.kernel import AnswerRelation
    from diverseq.model import Aggregator, Outcome, Relation, Value
    from diverseq.oracle import Graph
    from diverseq.queries import Atom, Conjunct, Constant, Literal, Query, Variable
    from diverseq.structure import TreeDecomposition

    def atom(last):
        return Atom("R", (Variable("x"), Constant(last)))

    def query(head):
        return Query(head, ("x",), (Conjunct((Literal(Atom("R", (Variable("x"),))),)),))

    def table():
        return [Value(1, 0), Value("a", 1)]

    def tree(root):
        return TreeDecomposition(root, {0: (1,), 1: ()}, {0: frozenset({"x"}), 1: frozenset()})

    atom_repr = "Atom(relation='R', terms=(Variable(name='x'), Constant(payload=5)))"
    query_repr = ("Query(head='Q', free_vars=('x',), conjuncts=(Conjunct(literals=("
                  "Literal(atom=Atom(relation='R', terms=(Variable(name='x'),)), "
                  "positive=True),)),))")
    return [
        (Variable("x"), Variable("x"), Variable("y"), "Variable(name='x')", ("x",), "name"),
        (Constant(5), Constant(5), Constant("5"), "Constant(payload=5)", (5,), "payload"),
        (atom(5), atom(5), atom(6), atom_repr, ("R", atom(5).terms), "terms"),
        (Literal(atom(5), False), Literal(atom(5), positive=False), Literal(atom(5)),
         f"Literal(atom={atom_repr}, positive=False)", (atom(5), False), "positive"),
        (Conjunct((Literal(atom(5)),)), Conjunct((Literal(atom(5)),)),
         Conjunct((Literal(atom(6)),)), f"Conjunct(literals=(Literal(atom={atom_repr}, "
         "positive=True),))", ((Literal(atom(5)),),), "literals"),
        (query("Q"), query("Q"), query("P"), query_repr,
         ("Q", ("x",), query("Q").conjuncts), "head"),
        (Relation("R", 2, frozenset({(0, 1)}), table()),
         Relation("R", 2, frozenset({(0, 1)}), table()),
         Relation("R", 2, frozenset({(0, 1)}), table()[::-1]),
         "Relation(name='R', arity=2, rows=frozenset({(0, 1)}))",
         ("R", 2, frozenset({(0, 1)})), "rows"),
        (SUM, Aggregator("sum", name="sum"), Aggregator("sum"),
         "Aggregator(kind='sum', fn=None, monotone=True, name='sum')",
         ("sum", None, True, "sum"), "kind"),
        (Outcome(True, 3), Outcome(True, 3, None, {}), Outcome(True, 3, stats={"k": 2}),
         "Outcome(decision=True, diversity=3, witness=None, stats={})", None, "stats"),
        (RunConfig("db.facts", "q.dq", 2, None),
         RunConfig(db_path="db.facts", query_path="q.dq", k=2, d=None, budget=10 ** 7),
         RunConfig("db.facts", "q.dq", 2, None, "min"),
         "RunConfig(db_path='db.facts', query_path='q.dq', k=2, d=None, aggregator='sum', "
         "mode='auto', allow_duplicates=False, witness=False, decomposition_path=None, "
         "table_cap=10000000, budget=10000000, output='text')", None, "aggregator"),
        (AnswerRelation(("x", "y"), frozenset({(0, 1)}), table()),
         AnswerRelation(("x", "y"), frozenset({(0, 1)}), table()),
         AnswerRelation(("x", "y"), frozenset({(0, 1)}), table()[::-1]),
         "AnswerRelation(columns=('x', 'y'), rows=((0, 1),))",
         (("x", "y"), ((0, 1),)), "columns"),
        (tree(0), tree(0), tree(1), "TreeDecomposition(root=0, children={0: (1,), 1: ()}, "
         "bags={0: frozenset({'x'}), 1: frozenset()})", None, "root"),
        (Graph(3, frozenset({(1, 2)})), Graph.from_edges(3, [(2, 1)]),
         Graph(3, frozenset({(2, 3)})), "Graph(n=3, edges=frozenset({(1, 2)}))",
         (3, frozenset({(1, 2)})), "edges"),
    ]


def test_records_keep_the_value_semantics_dataclasses_gave_them():
    cases = record_cases()
    assert len({type(case[0]) for case in cases}) == 13
    for record, twin, other, text, hashed, field in cases:
        name = type(record).__name__
        assert record == twin and not record != twin and record != other, name
        assert record != tuple(vars(record).values()) and record != object(), name
        assert repr(record) == text, name
        if hashed is None:
            with pytest.raises(TypeError):
                hash(record)
            setattr(record, field, getattr(other, field))
            assert record == other, name
        else:
            assert hash(record) == hash(twin) == hash(hashed), name
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(other, field))
            with pytest.raises(AttributeError):
                delattr(record, field)
            assert record == twin, name
    # Equality needs one class, whatever the fields hold.
    from diverseq.queries import Constant, Variable
    assert Variable("x") != Constant("x") and Constant("x") != Variable("x")
    assert len({Variable("x"), Constant("x"), Variable("x")}) == 2
    # A generated instance compares its database by value, so it is
    # unhashable, and it refuses assignment.
    from diverseq.model import Database
    from diverseq.oracle import DiverseInstance
    from diverseq.queries import parse_query

    def instance(d_min):
        db = Database.from_rows({"R": [(1,)]})
        return DiverseInstance(db, parse_query("Q(x) :- R(x)."), 2, 1, d_min)

    assert instance(1) == instance(1) and instance(1) != instance(0)
    assert repr(instance(1)) == (
        "DiverseInstance(db=Database(R/1:1), query=Query(head='Q', free_vars=('x',), "
        "conjuncts=(Conjunct(literals=(Literal(atom=Atom(relation='R', terms=("
        "Variable(name='x'),)), positive=True),)),)), k=2, d_sum=1, d_min=1)")
    with pytest.raises(TypeError):
        hash(instance(1))
    with pytest.raises(AttributeError):
        instance(1).k = 3


def test_records_keep_their_defaults_and_checks():
    from diverseq.cli import RunConfig
    from diverseq.kernel import AnswerRelation
    from diverseq.model import Aggregator, Outcome
    from diverseq.oracle import Graph
    from diverseq.queries import Query
    from diverseq.errors import DEFAULT_BUDGET, DEFAULT_TABLE_CAP

    first, second = Outcome(True, 1), Outcome(True, 1)
    first.stats["k"] = 2
    assert second.stats == {} and first.witness is None
    assert Aggregator("custom").monotone is True and Aggregator("min").name == ""
    config = RunConfig("db", "q", 1, 0)
    assert (config.aggregator, config.mode, config.allow_duplicates, config.witness,
            config.decomposition_path, config.table_cap, config.budget, config.output) == (
        "sum", "auto", False, False, None, DEFAULT_TABLE_CAP, DEFAULT_BUDGET, "text")
    assert RunConfig("db", "q", 2, None, "min", "acq", True, True, "t.td", 5, 6, "json") == \
        RunConfig(db_path="db", query_path="q", k=2, d=None, aggregator="min", mode="acq",
                  allow_duplicates=True, witness=True, decomposition_path="t.td",
                  table_cap=5, budget=6, output="json")
    for bad in ({"k": 0}, {"d": -1}, {"mode": "dp"}, {"aggregator": "max"},
                {"table_cap": -1}, {"budget": -1}):
        with pytest.raises(ValueError):
            RunConfig(**{"db_path": "db", "query_path": "q", "k": 1, "d": 0, **bad})
    with pytest.raises(ValueError):
        AnswerRelation(("x", "y"), frozenset({(0,)}), [])
    for edge in ((0, 1), (2, 2), (2, 1), (1, 4)):
        with pytest.raises(ValueError, match="bad edge"):
            Graph(3, frozenset({edge}))
    assert Graph.from_edges(3, [(2, 1), (1, 2), (3, 3)]) == Graph(3, frozenset({(1, 2)}))
    with pytest.raises(ValueError):
        Query("Q", ("x",), ())
