"""Cross-validation of the less-traveled solver paths.

Every check here pits a solver configuration against the backtracking oracle:
multiset semantics in the generic engine, custom monotone aggregators,
constants and repeated variables inside atoms, and agreement of all engines
on shared fragments.
"""

import random

import pytest

from diverseq.acq import solve_acq, solve_acq_sum_dup
from diverseq.cqneg import solve_cqneg
from diverseq.errors import DiverseQError
from diverseq.kernel import materialize_answers, solve_fo_diverse
from diverseq.model import MIN, SUM, Database, custom_aggregator, diversity_of_set
from diverseq.oracle import bruteforce_diversity, enumerate_answers
from diverseq.queries import Atom, Conjunct, Constant, Literal, Query, Variable, parse_query
from diverseq.structure import gyo_join_tree
from helpers import random_cqneg_query, random_general_query, small_answer_instances


def oracle_max(query, db, k, aggregator, **kw):
    answers = enumerate_answers(query, db)
    best, _ = bruteforce_diversity(answers, k, aggregator, **kw)
    return best


def test_generic_engine_multiset_mode_matches_bruteforce():
    rng = random.Random(1009)
    for query, db in small_answer_instances(rng, 40):
        k = rng.choice([2, 3])
        for aggregator in (SUM, MIN):
            expected = oracle_max(query, db, k, aggregator, allow_duplicates=True)
            got = solve_acq(query, db, k, None, aggregator, allow_duplicates=True)
            achieved = got.diversity if got.decision else None
            assert achieved == expected


def test_generic_and_dedicated_multiset_paths_agree():
    rng = random.Random(1013)
    for query, db in small_answer_instances(rng, 30):
        k = rng.choice([2, 3])
        generic = solve_acq(query, db, k, None, SUM, allow_duplicates=True)
        dedicated = solve_acq_sum_dup(query, db, k, None)
        assert (generic.decision, generic.diversity) == (
            dedicated.decision, dedicated.diversity
        )


def test_bag_engine_multiset_mode_matches_bruteforce():
    rng = random.Random(1019)
    for _ in range(20):
        query, db = random_cqneg_query(rng)
        k = rng.choice([2, 3])
        expected = oracle_max(query, db, k, SUM, allow_duplicates=True)
        got = solve_cqneg(query, db, k, None, SUM, allow_duplicates=True)
        achieved = got.diversity if got.decision else None
        assert achieved == expected


def weighted_sorted_sum(weights):
    # Nonnegative weights over the sorted distance vector: symmetric by
    # construction and monotone because sorting preserves pointwise dominance.
    def fn(ds):
        return sum(w * d for w, d in zip(weights, ds))

    return custom_aggregator(fn, monotone=True, name="wsum")


def test_custom_monotone_aggregator_through_generic_engine():
    rng = random.Random(1021)
    for query, db in small_answer_instances(rng, 25):
        k = rng.choice([2, 3])
        n_pairs = k * (k - 1) // 2
        agg = weighted_sorted_sum([rng.randint(0, 3) for _ in range(n_pairs)])
        expected = oracle_max(query, db, k, agg)
        got = solve_acq(query, db, k, None, agg)
        achieved = got.diversity if got.decision else None
        assert achieved == expected


def test_custom_monotone_aggregator_through_kernel():
    rng = random.Random(1031)
    for query, db in small_answer_instances(rng, 15):
        k = rng.choice([2, 3])
        n_pairs = k * (k - 1) // 2
        agg = weighted_sorted_sum([rng.randint(0, 3) for _ in range(n_pairs)])
        expected = oracle_max(query, db, k, agg)
        answers = materialize_answers(query, db)
        got = solve_fo_diverse(answers, k, None, agg)
        achieved = got.diversity if got.decision else None
        assert achieved == expected


def test_kernel_multiset_mode_matches_bruteforce():
    rng = random.Random(1033)
    for query, db in small_answer_instances(rng, 20):
        k = rng.choice([2, 3])
        expected = oracle_max(query, db, k, SUM, allow_duplicates=True)
        answers = materialize_answers(query, db)
        got = solve_fo_diverse(answers, k, None, SUM, allow_duplicates=True,
                               witness=True)
        achieved = got.diversity if got.decision else None
        assert achieved == expected
        if got.decision and got.witness:
            value = diversity_of_set(SUM, got.witness, query.free_vars)
            assert value == achieved


CONSTANT_DB = {
    "Edge": [(1, 2), (2, 3), (3, 1), (1, 1), (-1, 2)],
    "Tag": [(1, "hot"), (2, "cold"), (3, "hot")],
}


def test_constants_and_repeated_variables_across_engines():
    db = Database.from_rows(CONSTANT_DB)
    cases = [
        # repeated variable: self loops only
        ("Q(x) :- Edge(x, x).", {(1,)}),
        # integer constant selection, including a negative literal constant
        ('Q(x) :- Edge(x, 2), !Tag(x, "cold").', {(1,), (-1,)}),
        # string constant
        ('Q(x, y) :- Edge(x, y), Tag(x, "hot").', {(1, 2), (3, 1), (1, 1)}),
    ]
    for text, expected in cases:
        query = parse_query(text)
        got = {
            tuple(a[v].payload for v in query.free_vars)
            for a in enumerate_answers(query, db)
        }
        assert got == expected, text
        assert materialize_answers(query, db).payload_rows() == expected
        k = 2
        oracle_best = oracle_max(query, db, k, SUM)
        routed = (
            solve_cqneg(query, db, k, None, SUM)
            if query.kind == "cqneg"
            else solve_acq(query, db, k, None, SUM)
        )
        achieved = routed.diversity if routed.decision else None
        assert achieved == oracle_best, text


def _vary(rng, literals):
    """The literals with some terms turned into constants (9 and "a" lie
    outside every generated domain) or into a repeat of a variable of the
    same atom."""
    out = []
    for lit in literals:
        names = sorted(lit.variables)
        terms = []
        for term in lit.atom.terms:
            roll = rng.random()
            if roll < 0.2:
                term = Constant(rng.choice([1, 2, 3, 9, "a"]))
            elif roll < 0.4:
                term = Variable(rng.choice(names))
            terms.append(term)
        out.append(Literal(Atom(lit.atom.relation, tuple(terms)), lit.positive))
    return tuple(out)


def test_materialize_matches_enumerate_randomized():
    # Unions, cyclic queries and negation, with constants, repeated variables
    # and an empty relation: the materialized answers are the oracle's.
    rng = random.Random(1063)
    checked, kinds, cyclic = 0, set(), 0
    for i in range(240):
        if i % 2:
            query, db = random_general_query(rng)
            while i % 4 == 1 and gyo_join_tree(query) is not None:
                query, db = random_general_query(rng)  # every other one cyclic
        else:
            query, db = random_cqneg_query(rng, max_vars=4)
        db.add_relation("Empty", 1, [])
        literals = query.conjuncts[0].literals
        disjuncts = [literals if i % 4 == 1 else _vary(rng, literals)]
        if query.kind == "cq" and rng.random() < 0.5:
            disjuncts.append(_vary(rng, literals))
        if rng.random() < 0.25:
            v = rng.choice(sorted(query.conjuncts[0].variables))
            empty = Literal(Atom("Empty", (Variable(v),)), rng.random() < 0.5)
            disjuncts[-1] += (empty,)
        try:
            varied = Query("Q", query.free_vars, tuple(Conjunct(c) for c in disjuncts))
        except DiverseQError:
            continue  # a constant took a variable's only positive occurrence
        expected = {
            tuple(a[v].payload for v in varied.free_vars)
            for a in enumerate_answers(varied, db)
        }
        assert materialize_answers(varied, db).payload_rows() == expected, varied
        checked += 1
        kinds.add(varied.kind)
        cyclic += varied.kind != "cqneg" and any(
            gyo_join_tree(Query("Q", varied.free_vars, (c,))) is None
            for c in varied.conjuncts
        )
    assert checked >= 150 and kinds == {"cq", "ucq", "cqneg"} and cyclic >= 40


def test_all_engines_agree_on_acyclic_corpus():
    rng = random.Random(1039)
    for query, db in small_answer_instances(rng, 20, max_atoms=3, max_dom=3,
                                            max_rows=6):
        k = rng.choice([2, 3])
        answers = materialize_answers(query, db)
        results = {
            "acq": solve_acq(query, db, k, None, SUM),
            "cqneg": solve_cqneg(query, db, k, None, SUM),
            "fo-kernel": solve_fo_diverse(answers, k, None, SUM),
        }
        values = {
            name: (out.decision, out.diversity) for name, out in results.items()
        }
        assert len(set(values.values())) == 1, values


def test_witnesses_are_reproducible():
    rng = random.Random(1049)
    for query, db in small_answer_instances(rng, 10):
        first = solve_acq(query, db, 2, None, SUM, witness=True)
        second = solve_acq(query, db, 2, None, SUM, witness=True)
        assert first.witness == second.witness
        assert first.diversity == second.diversity


def test_bag_engine_is_decomposition_independent():
    # a single all-variables bag is always a valid decomposition; the result
    # must not depend on which one the solver gets
    from diverseq.structure import TreeDecomposition

    rng = random.Random(1051)
    for _ in range(15):
        query, db = random_cqneg_query(rng, max_vars=4, dom_size=3)
        fat = TreeDecomposition(
            root=0, children={0: ()},
            bags={0: frozenset(query.conjuncts[0].variables)},
        )
        k = rng.choice([2, 3])
        for aggregator in (SUM, MIN):
            expected = oracle_max(query, db, k, aggregator)
            got = solve_cqneg(query, db, k, None, aggregator, decomposition=fat)
            achieved = got.diversity if got.decision else None
            assert achieved == expected


def test_k_beyond_acceptance_range():
    rng = random.Random(1061)
    checked = 0
    while checked < 6:
        query, db = small_answer_instances(rng, 1, max_answers=10,
                                           max_atoms=3, max_dom=3,
                                           max_rows=6)[0]
        for aggregator in (SUM, MIN):
            expected = oracle_max(query, db, 4, aggregator)
            got = solve_acq(query, db, 4, None, aggregator)
            achieved = got.diversity if got.decision else None
            assert achieved == expected
        checked += 1
