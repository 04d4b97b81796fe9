"""Cross-validation of the less-traveled solver paths.

Every check here pits a solver configuration against the backtracking oracle:
multiset semantics in the generic engine, custom monotone aggregators,
constants and repeated variables inside atoms, and agreement of all engines
on shared fragments.
"""

import collections
import csv
import itertools
import os
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq.acq import solve_acq, solve_acq_sum_dup
from diverseq.cli import RunConfig, canonical_json, run
from diverseq.cqneg import solve_cqneg
from diverseq.dbio import dump_database, dump_query
from diverseq.errors import DiverseQError
from diverseq.kernel import materialize_answers, solve_fo_diverse
from diverseq.model import MIN, SUM, Database, custom_aggregator, diversity_of_set
from diverseq.oracle import bruteforce_diversity, enumerate_answers
from diverseq.queries import Atom, Conjunct, Constant, Literal, Query, Variable, parse_query
from diverseq.structure import format_decomposition, gyo_join_tree, make_nice, tree_decompose
from helpers import (random_acyclic_query, random_cqneg_query, random_general_query,
                     small_answer_instances)


def oracle_max(query, db, k, aggregator, **kw):
    answers = enumerate_answers(query, db)
    best, _ = bruteforce_diversity(answers, k, aggregator, **kw)
    return best


def assert_witness_reverifies(out, query, db, k, aggregator, allow_duplicates=False):
    """A report asked for its witness at k: when the answer is yes, k
    answers of the query, pairwise distinct unless duplicates are allowed,
    whose diversity is the report's."""
    assert (out.witness is None) == (not out.decision)
    if out.decision:
        answers = enumerate_answers(query, db)
        assert len(out.witness) == k and all(a in answers for a in out.witness)
        assert allow_duplicates or len(set(out.witness)) == k
        assert diversity_of_set(aggregator, out.witness, query.free_vars) == out.diversity


def assert_k1_is_the_oracles(out, query, db, aggregator, allow_duplicates=False):
    """A k = 1 report with its witness: the oracle's decision and
    diversity, and when the answer is yes one answer of the query that
    re-verifies."""
    expected, _ = bruteforce_diversity(enumerate_answers(query, db), 1, aggregator,
                                       allow_duplicates=allow_duplicates)
    assert (out.decision, out.diversity if out.decision else None) == \
        (expected is not None, expected)
    assert_witness_reverifies(out, query, db, 1, aggregator, allow_duplicates)


def test_generic_engine_multiset_mode_matches_bruteforce():
    rng = random.Random(1009)
    for query, db in small_answer_instances(rng, 40):
        k = rng.choice([2, 3])
        for aggregator in (SUM, MIN):
            expected = oracle_max(query, db, k, aggregator, allow_duplicates=True)
            got = solve_acq(query, db, k, None, aggregator, allow_duplicates=True,
                            witness=True)
            achieved = got.diversity if got.decision else None
            assert achieved == expected
            assert_witness_reverifies(got, query, db, k, aggregator, allow_duplicates=True)
            got = solve_acq(query, db, 1, None, aggregator, allow_duplicates=True,
                            witness=True)
            assert_k1_is_the_oracles(got, query, db, aggregator, allow_duplicates=True)


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
        got = solve_cqneg(query, db, k, None, SUM, allow_duplicates=True, witness=True)
        achieved = got.diversity if got.decision else None
        assert achieved == expected
        assert_witness_reverifies(got, query, db, k, SUM, allow_duplicates=True)


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
        got = solve_acq(query, db, k, None, agg, witness=True)
        achieved = got.diversity if got.decision else None
        assert achieved == expected
        assert_witness_reverifies(got, query, db, k, agg)


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
        for out in (solve_acq(query, db, 1, None, SUM, witness=True),
                    solve_cqneg(query, db, 1, None, SUM, witness=True),
                    solve_fo_diverse(answers, 1, None, SUM, witness=True)):
            assert_k1_is_the_oracles(out, query, db, SUM)


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
            got = solve_cqneg(query, db, k, None, aggregator, decomposition=fat,
                              witness=True)
            achieved = got.diversity if got.decision else None
            assert achieved == expected
            assert_witness_reverifies(got, query, db, k, aggregator)
            got = solve_cqneg(query, db, 1, None, aggregator, decomposition=fat,
                              witness=True)
            assert_k1_is_the_oracles(got, query, db, aggregator)


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


def test_auto_agrees_with_every_mode_on_both_of_its_branches(tmp_path):
    # Auto first tries the answer route under budgets read off the input
    # and goes on to the tree DP when one runs out. Either way, on random
    # acyclic and negation queries, its decision and diversity are
    # bruteforce's and every explicit mode's, its witness is k answers of
    # the query that re-verify, and both branches are taken.
    rng = random.Random(1129)
    corpora = [(small_answer_instances(rng, 40), ("acq", "acq-sum", "cqneg", "fo-kernel")),
               ([random_cqneg_query(rng) for _ in range(40)], ("cqneg", "fo-kernel"))]
    branches = collections.Counter()
    for c, (instances, modes) in enumerate(corpora):
        for n, (query, db) in enumerate(instances):
            db_path, query_path = str(tmp_path / f"{c}-{n}.facts"), str(tmp_path / f"{c}-{n}.dq")
            dump_database(db, db_path)
            dump_query(query, query_path)
            k = rng.choice([1, 2, 3])
            duplicates = rng.random() < 0.25
            answers = [a.as_payload_dict() for a in enumerate_answers(query, db)]
            for aggregator in ("sum", "min"):
                def outcome(mode, witness=False):
                    code, report = run(RunConfig(db_path, query_path, k, None, aggregator,
                                                 mode=mode, allow_duplicates=duplicates,
                                                 witness=witness))
                    if "error" in report:
                        return (code, report["error"]["code"]), report
                    return (code, report["decision"], report["diversity"]), report

                got, report = outcome("auto", witness=True)
                expected, _ = outcome("bruteforce")
                assert got == expected, (query, aggregator, report)
                for mode in modes:
                    if mode != "acq-sum" or aggregator == "sum":
                        assert outcome(mode)[0] == expected, (query, mode, aggregator)
                if "error" in report:
                    continue
                branches[report["routing"] == "fo-kernel"] += 1
                witness = report["witness"]
                assert (witness is None) == (report["decision"] == "no")
                if witness is not None:
                    assert len(witness) == k and all(a in answers for a in witness)
                    assert duplicates or len({tuple(a.items()) for a in witness}) == k
    assert branches[True] >= 20 and branches[False] >= 20, branches


# Values that mix ints and strings, among them a string holding the comment
# sign, a digit `int` would read, and the text of an int.
_MIXED_VALUES = [0, 1, 7, "7", "a#b", "٣"]
# Each query shape, with the modes besides auto and bruteforce that take it.
_SHAPES = {
    "Q(x, z) :- R(x, y), S(y, z).\n": ("acq", "acq-sum", "cqneg", "fo-kernel"),
    "Q(x, z, w) :- R(x, y), S(y, z), U(w).\n": ("acq", "acq-sum", "cqneg", "fo-kernel"),
    "Q(x, y, z) :- R(x, y), S(y, z), R(z, x).\n": ("cqneg", "fo-kernel"),
    "Q(x, y) :- R(x, y), !S(y, x).\n": ("cqneg", "fo-kernel"),
    "Q(x, y) :- R(x, y).\nQ(x, y) :- S(y, x), U(x).\n": ("fo-kernel",),
}


@st.composite
def _mixed_databases(draw):
    values = draw(st.lists(st.sampled_from(_MIXED_VALUES), min_size=1, max_size=3, unique=True))
    value = st.sampled_from(values)
    relations = {name: draw(st.lists(st.tuples(*[value] * arity), max_size=6, unique=True))
                 for name, arity in (("R", 2), ("S", 2), ("U", 1))}
    # A relation without rows has no fact, and a query naming it is refused.
    return Database.from_rows({name: rows for name, rows in relations.items() if rows})


@settings(max_examples=60, deadline=None)
@given(_mixed_databases())
def test_every_mode_agrees_with_bruteforce_through_the_cli(db):
    # Written to files and run through `cli.run` with its witness at d =
    # max, every mode that takes a shape exits with bruteforce's code and
    # prints its diversity, or refuses with the same typed error.
    with tempfile.TemporaryDirectory() as tmp:
        db_path, query_path = os.path.join(tmp, "db.facts"), os.path.join(tmp, "q.dq")
        dump_database(db, db_path)
        for text, modes in _SHAPES.items():
            dump_query(parse_query(text), query_path)
            for k, aggregator, duplicates in itertools.product((1, 2, 3), ("sum", "min"),
                                                               (False, True)):
                def outcome(mode):
                    code, report = run(RunConfig(db_path, query_path, k, None, aggregator,
                                                 mode=mode, allow_duplicates=duplicates,
                                                 witness=True))
                    if code == 2:
                        assert report["error"]["code"] != "InternalError", report
                        return code, report["error"]["code"]
                    return code, report["diversity"]

                expected = outcome("bruteforce")
                for mode in ("auto",) + modes:
                    if mode != "acq-sum" or aggregator == "sum":
                        assert outcome(mode) == expected, (text, mode, k, aggregator, duplicates)


@settings(max_examples=60, deadline=None)
@given(_mixed_databases())
def test_every_database_format_gives_auto_the_same_report(db):
    # One database written as a fact file, as a fact file with CRLF breaks
    # and a byte-order mark, and as a CSV directory gives auto the same
    # canonical report, witness included, or the same typed refusal (a
    # relation without rows is in no format), for every shape at k = 1 to
    # 3; every witness holds k distinct answers of the query. CSV reads the
    # canonical integer text "7" back as the int 7, so a database holding
    # the string "7" has no CSV leg.
    with tempfile.TemporaryDirectory() as tmp:
        plain, marked = os.path.join(tmp, "db.facts"), os.path.join(tmp, "crlf.facts")
        csv_dir, query_path = os.path.join(tmp, "csv"), os.path.join(tmp, "q.dq")
        dump_database(db, plain)
        with open(plain, encoding="utf-8") as handle:
            text = handle.read()
        with open(marked, "w", encoding="utf-8-sig", newline="\r\n") as handle:
            handle.write(text)
        paths = [plain, marked]
        if db.value("7") is None:
            os.mkdir(csv_dir)
            for name, relation in db.relations.items():
                with open(os.path.join(csv_dir, name + ".csv"), "w", newline="",
                          encoding="utf-8") as handle:
                    csv.writer(handle).writerows(
                        [v.payload for v in row] for row in relation.sorted_rows())
            paths.append(csv_dir)
        for text in _SHAPES:
            query = parse_query(text)
            dump_query(query, query_path)
            for k in (1, 2, 3):
                reports = []
                for path in paths:
                    code, report = run(RunConfig(path, query_path, k, None, witness=True))
                    assert report.get("error", {}).get("code") != "InternalError", report
                    reports.append(canonical_json(report, drop_volatile=True))
                assert reports == [reports[0]] * len(paths), (text, k)
                witness = report.get("witness")
                if witness is not None:
                    answers = [a.as_payload_dict() for a in enumerate_answers(query, db)]
                    assert len(witness) == k and all(a in answers for a in witness)
                    assert len({tuple(a.items()) for a in witness}) == k


# A comment that holds what would be items, a node id and a digit no id
# may hold, were it not a comment.
_NOTE = "# note; root 9 \u0663"


def _hand_written(text, rng, breaks):
    """`format_decomposition`'s text as a person might write it: a comment
    line, its items joined by `;` into lines of one to three, some with a
    comment after them, `breaks` for line breaks and a byte-order mark."""
    items, lines = text.splitlines(), [_NOTE]
    while items:
        take = rng.randint(1, 3)
        lines.append(rng.choice([";", " ; ", "\t;"]).join(items[:take])
                     + rng.choice(["", " " + _NOTE]))
        del items[:take]
    return "\ufeff" + breaks.join(lines) + breaks


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2**32), st.booleans(), st.integers(1, 3), st.sampled_from(["\r\n", "\r"]))
def test_decomposition_files_read_through_the_cli_as_written(seed, negation, k, breaks):
    # Each decomposition the package builds for a query (min-fill, its nice
    # form and, for a positive query, GYO's join tree), written by
    # `format_decomposition` and rewritten by hand, gives `--mode cqneg`
    # the exit code, decision and diversity it gives without a file, and
    # its witness holds answers of the query. Broken by an id `\u0663`, an
    # edge to an unknown node, an edge that closes a cycle or a second
    # root, it is refused with a QuerySyntaxError at the broken line.
    rng = random.Random(seed)
    query, db = (random_cqneg_query if negation else random_acyclic_query)(rng)
    trees = [tree_decompose(query), make_nice(tree_decompose(query))]
    trees += [] if negation else [gyo_join_tree(query)]
    with tempfile.TemporaryDirectory() as tmp:
        db_path, query_path, td_path = (os.path.join(tmp, name)
                                        for name in ("db.facts", "q.dq", "dec.txt"))
        dump_database(db, db_path)
        dump_query(query, query_path)

        def outcome(text=None):
            if text is not None:
                with open(td_path, "w", encoding="utf-8", newline="") as handle:
                    handle.write(text)
            code, report = run(RunConfig(db_path, query_path, k, None, mode="cqneg", witness=True,
                                         decomposition_path=text and td_path))
            assert report.get("error", {}).get("code") != "InternalError", report
            return code, report

        code, plain = outcome()
        expected = (code, plain.get("decision"), plain.get("diversity"), plain.get("error"))
        answers = [a.as_payload_dict() for a in enumerate_answers(query, db)]
        texts = [_hand_written(format_decomposition(td), rng, breaks) for td in trees]
        for text in texts:
            code, report = outcome(text)
            got = (code, report.get("decision"), report.get("diversity"), report.get("error"))
            assert got == expected, (query, text)
            assert all(a in answers for a in report.get("witness") or ())
        root, nodes = trees[0].root, sorted(trees[0].bags)
        adjacent = {(p, c) for p, kids in trees[0].children.items() for c in kids}
        apart = [(a, b) for a, b in itertools.combinations(nodes, 2)
                 if (a, b) not in adjacent and (b, a) not in adjacent]
        broken = ["node \u0663 bag", f"edge {root} {nodes[-1] + 1}", f"root {root}"]
        broken += [f"edge {a} {b}" for a, b in apart[:1]]
        for item in broken:
            lines = texts[0].split(breaks)[:-1] + [item]
            code, report = outcome(breaks.join(lines) + breaks)
            assert (code, report["error"]["code"]) == (2, "QuerySyntaxError"), (item, report)
            assert report["error"]["message"].startswith(f"line {len(lines)},"), (item, report)
