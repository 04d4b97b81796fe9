"""Acceptance suite: one test per criterion, each ending in a printed
pass line (run with `pytest tests/test_acceptance.py -v -s` to see them).

The solvers are checked against independent brute force across randomized
corpora, the structural bounds are asserted inside every table build, and the
golden CLI corpus must agree across every applicable mode.
"""

import math
import os
import random
import time

import pytest

from diverseq.acq import (
    dp_finalize,
    dp_init,
    dp_merge,
    extract_witness,
    solve_acq,
    solve_acq_sum,
    solve_acq_sum_dup,
)
from diverseq.cli import RunConfig, run
from diverseq.cqneg import solve_cqneg
from diverseq.kernel import kernelize, materialize_answers, solve_fo_diverse
from diverseq.model import MIN, SUM, Assignment, diversity_of_set
from diverseq.oracle import (
    Graph,
    bruteforce_diversity,
    enumerate_answers,
    exhaustive_join_tree,
    has_admissible_coloring,
    has_independent_set,
    independent_set_to_diverse_query,
    independent_set_to_wide_relation,
    list_coloring_to_union_query,
)
from diverseq.queries import sols_atom
from diverseq.structure import gyo_join_tree, make_nice, tree_decompose, validate_decomposition
from golden_fixtures import golden_cases
from helpers import all_graphs, random_cqneg_query, small_answer_instances

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")


def sweep_range(query, k):
    return range(0, len(query.free_vars) * (k * (k - 1) // 2) + 1)


def decided(achieved, d):
    return achieved is not None and achieved >= d


class AcqRecord:
    def __init__(self, query, db, k):
        self.query = query
        self.db = db
        self.k = k
        self.jt = gyo_join_tree(query)
        atoms = query.conjuncts[0].positive_atoms
        self.tables = {}
        for node in self.jt.postorder():
            table = dp_init(node, atoms[node].variables, sorted(sols_atom(atoms[node], db)),
                            k, query.free_vars)
            for child in self.jt.children.get(node, ()):
                table = dp_merge(table, self.tables[child], query.free_vars)
            self.tables[node] = table
        root = self.tables[self.jt.root]
        self.best = {}
        for name, aggregator in (("sum", SUM), ("min", MIN)):
            _, best_key, achieved = dp_finalize(root, aggregator, None, False)
            self.best[name] = (best_key, achieved)
        self.answers = enumerate_answers(query, db)
        self.oracle = {
            name: bruteforce_diversity(self.answers, k, aggregator)[0]
            for name, aggregator in (("sum", SUM), ("min", MIN))
        }


@pytest.fixture(scope="module")
def acq_corpus():
    rng = random.Random(20240817)
    started = time.perf_counter()
    instances = small_answer_instances(rng, 200)
    records = [
        AcqRecord(query, db, 2 if i % 5 < 3 else 3)
        for i, (query, db) in enumerate(instances)
    ]
    elapsed = time.perf_counter() - started
    return records, elapsed


def test_criterion_1_join_tree_solver_matches_oracle(acq_corpus):
    records, build_seconds = acq_corpus
    started = time.perf_counter()
    checks = 0
    assert len(records) >= 200
    ks = {r.k for r in records}
    assert ks == {2, 3}
    for record in records:
        for name in ("sum", "min"):
            achieved = record.best[name][1]
            expected = record.oracle[name]
            for d in sweep_range(record.query, record.k):
                assert decided(achieved, d) == decided(expected, d), (
                    f"disagreement at d={d} ({name})"
                )
                checks += 1
    elapsed = build_seconds + (time.perf_counter() - started)
    assert elapsed < 300, f"sweep took {elapsed:.1f}s"
    print(f"\n[PASS] criterion 1: {len(records)} instances, {checks} threshold "
          f"decisions match brute force exactly ({elapsed:.1f}s)")


def test_criterion_2_witnesses_valid(acq_corpus):
    records, _ = acq_corpus
    produced = 0
    for record in records:
        for name, aggregator in (("sum", SUM), ("min", MIN)):
            best_key, achieved = record.best[name]
            if achieved is None:
                continue
            witness = extract_witness(
                record.tables[record.jt.root], best_key, record.query.free_vars,
                record.db.domain
            )
            assert len(witness) == record.k
            assert len(set(witness)) == record.k
            for answer in witness:
                assert answer in record.answers
            value = diversity_of_set(aggregator, witness, record.query.free_vars)
            assert value == achieved == record.oracle[name]
            produced += 1
    print(f"\n[PASS] criterion 2: {produced} witnesses verified "
          f"(pairwise distinct, in Q(I), diversity matches)")


def test_criterion_3_table_size_bound(acq_corpus):
    # dp_init/dp_merge assert the bound at every build; re-check final tables.
    records, _ = acq_corpus
    tables = 0
    for record in records:
        npairs = record.k * (record.k - 1) // 2
        bound = (
            max((len(r.rows) for r in record.db.relations.values()), default=0) ** record.k
            * (len(record.query.free_vars) + 1) ** npairs
        )
        for table in record.tables.values():
            assert len(table.entries) <= bound
            tables += 1
    print(f"\n[PASS] criterion 3: size bound held at every of {tables} nodes "
          f"(also asserted inside every build)")


def test_criterion_4_sum_fast_paths(acq_corpus):
    records, _ = acq_corpus
    for record in records:
        fast = solve_acq_sum(record.query, record.db, record.k, None)
        achieved = record.best["sum"][1]
        if achieved is None:
            assert fast.decision is False
        else:
            assert fast.decision is True and fast.diversity == achieved

    dup_checked = 0
    for record in records[:100]:
        fast = solve_acq_sum_dup(record.query, record.db, record.k, None)
        expected, _ = bruteforce_diversity(
            record.answers, record.k, SUM, allow_duplicates=True
        )
        if expected is None:
            assert fast.decision is False
        else:
            assert fast.diversity == expected
        dup_checked += 1
    print(f"\n[PASS] criterion 4: sum path matches on {len(records)} "
          f"instances; duplicates path matches multiset brute force on "
          f"{dup_checked} (entry bound asserted per node)")


def test_criterion_5_kernel_safety():
    rng = random.Random(555)
    from diverseq.kernel import AnswerRelation

    checked = 0
    for _ in range(100):
        m = rng.randint(1, 3)
        rows = {
            tuple(rng.randint(1, 5) for _ in range(m))
            for _ in range(rng.randint(1, 40))
        }
        answers = AnswerRelation.from_payload_rows(
            tuple(f"x{i}" for i in range(m)), sorted(rows)
        )
        k = rng.choice([2, 3])
        kernel = kernelize(answers, k)
        assert len(kernel.rows) <= math.factorial(m) ** 2 * k ** m
        assert kernelize(kernel, k).rows == kernel.rows
        for aggregator in (SUM, MIN):
            before, _ = bruteforce_diversity(answers.assignments(), k, aggregator)
            after, _ = bruteforce_diversity(kernel.assignments(), k, aggregator)
            assert before == after
        checked += 1
    print(f"\n[PASS] criterion 5: kernel preserved exact optima on {checked} "
          f"relations; size bound and idempotence hold")


def test_criterion_6_bag_solver_matches_oracle():
    rng = random.Random(666)
    corpora = (
        [(2, dict(max_vars=5, dom_size=3)) for _ in range(70)]
        + [(3, dict(max_vars=5, dom_size=2)) for _ in range(70)]
        + [(3, dict(max_vars=4, dom_size=3)) for _ in range(10)]
    )
    count = 0
    for k, params in corpora:
        query, db = random_cqneg_query(rng, **params)
        answers = enumerate_answers(query, db)
        for aggregator in (SUM, MIN):
            expected, _ = bruteforce_diversity(answers, k, aggregator)
            got = solve_cqneg(query, db, k, None, aggregator)
            achieved = got.diversity if got.decision else None
            for d in sweep_range(query, k):
                assert decided(achieved, d) == decided(expected, d)
        count += 1
    assert count >= 150

    rng2 = random.Random(667)
    agree = 0
    for query, db in small_answer_instances(rng2, 100, max_atoms=3, max_rows=6,
                                            max_dom=3):
        k = 2 if agree % 2 == 0 else 3
        for aggregator in (SUM, MIN):
            a = solve_acq(query, db, k, None, aggregator)
            b = solve_cqneg(query, db, k, None, aggregator)
            assert (a.decision, a.diversity) == (b.decision, b.diversity)
        agree += 1
    print(f"\n[PASS] criterion 6: bag solver matches brute force on {count} "
          f"negation instances and the join-tree solver on {agree} "
          f"negation-free instances (entry bound asserted per node)")


def test_criterion_7_reductions_round_trip():
    # per-edge relations, all graphs on <= 5 vertices, every set size
    graphs = list(all_graphs(5))
    edge_cases = 0
    for g in graphs:
        for s in range(1, g.n + 1):
            fx = independent_set_to_diverse_query(g, s)
            expected = has_independent_set(g, s)
            record = AcqRecord(fx.query, fx.db, s)
            assert decided(record.best["sum"][1], fx.d_sum) == expected
            assert decided(record.best["min"][1], fx.d_min) == expected
            assert decided(record.oracle["sum"], fx.d_sum) == expected
            assert decided(record.oracle["min"], fx.d_min) == expected
            edge_cases += 1

    wide_cases = 0
    for g in graphs:
        if any(g.degree(v) > 3 for v in range(1, g.n + 1)):
            continue
        for s in range(1, g.n + 1):
            fx = independent_set_to_wide_relation(g, s)
            expected = has_independent_set(g, s)
            assert fx.d_min == 5 and fx.d_sum == 5 * s * (s - 1) // 2
            record = AcqRecord(fx.query, fx.db, s)
            assert decided(record.best["sum"][1], fx.d_sum) == expected
            assert decided(record.best["min"][1], fx.d_min) == expected
            assert decided(record.oracle["min"], fx.d_min) == expected
            wide_cases += 1

    rng = random.Random(777)
    k33 = Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])
    union_cases = 0
    for _ in range(20):
        lists = {
            v: frozenset(rng.sample([1, 2, 3], k=rng.randint(0, 3)))
            for v in range(1, 7)
        }
        fx = list_coloring_to_union_query(k33, lists)
        answers = materialize_answers(fx.query, fx.db)
        out = solve_fo_diverse(answers, 2, fx.d_sum, MIN)
        assert out.decision == has_admissible_coloring(k33, lists)
        union_cases += 1
    print(f"\n[PASS] criterion 7: round trips held on {edge_cases} per-edge "
          f"cases, {wide_cases} wide-relation cases, {union_cases} "
          f"list-coloring cases")


def test_criterion_8_structural_validators():
    from helpers import not_nice, random_general_query

    rng = random.Random(888)
    gyo_checked = 0
    for _ in range(120):
        query, _ = random_general_query(rng, max_atoms=5)
        ours = gyo_join_tree(query)
        exhaustive = exhaustive_join_tree(query)
        assert (ours is None) == (exhaustive is None)
        if ours is not None:
            assert validate_decomposition(ours, query) == []
        gyo_checked += 1

    nice_checked = 0
    for _ in range(60):
        query, _ = random_general_query(rng)
        nice = make_nice(tree_decompose(query))
        assert validate_decomposition(nice, query) == []
        assert not_nice(nice) == []
        nice_checked += 1
    print(f"\n[PASS] criterion 8: GYO verdict matched exhaustive tree search "
          f"on {gyo_checked} queries; {nice_checked} nice decompositions "
          f"validated")


def test_criterion_9_cli_mode_invariance():
    runs = 0
    for case in golden_cases():
        case_dir = os.path.join(GOLDEN_DIR, case.name)
        db_path = os.path.join(case_dir, "db.facts")
        query_path = os.path.join(case_dir, "query.dq")
        results = {}
        for mode in case.modes:
            code, report = run(RunConfig(
                db_path=db_path, query_path=query_path, k=case.k, d=case.d,
                aggregator=case.aggregator, witness=True, mode=mode,
            ))
            assert "error" not in report, (case.name, mode, report)
            results[mode] = report
            if report["witness"] is not None:
                from diverseq.dbio import load_database

                db = load_database(db_path)
                aggregator = SUM if case.aggregator == "sum" else MIN
                answers = [
                    Assignment({k2: db.value(v) for k2, v in item.items()})
                    for item in report["witness"]
                ]
                value = diversity_of_set(
                    aggregator, answers, tuple(report["witness"][0])
                )
                assert value == report["diversity"]
            runs += 1
        decisions = {r["decision"] for r in results.values()}
        diversities = {r["diversity"] for r in results.values()}
        assert len(decisions) == 1, (case.name, results)
        assert len(diversities) == 1, (case.name, results)
    print(f"\n[PASS] criterion 9: {runs} mode runs agreed on decision and "
          f"achieved diversity; JSON witnesses re-verified")
