"""Seeded instance mixes for the benchmark workloads, with expected
outcomes computed by the `oracle` module.

A workload is a fixed list of operation classes. A class fixes the input
family, its sizes, k, the CLI flags and how many instances of each variant
it contributes; the seed only draws the concrete graphs, colour lists and
rows. Two seeds therefore give instances of the same size and the same
amount of engine work, which keeps the figures of different seeds
comparable. Each workload has at least 100 answered instances, so that the
90th percentile of their latencies has ten instances beyond it.

Expected outcomes come from a route independent of the engines:
`has_independent_set` / `has_admissible_coloring` for the reductions,
`bruteforce_diversity` over `enumerate_answers` where the candidate count is
small, and otherwise a planted answer set that reaches the upper bound
m * C(k, 2) (sum) or m (min) on m free variables.
"""

from __future__ import annotations

import itertools
import math
import os
import random
from dataclasses import asdict, dataclass, field
from typing import Callable

from diverseq import dbio, oracle
from diverseq.model import MIN, SUM, Database
from diverseq.oracle import Graph
from diverseq.queries import Query, parse_query

# Error codes of the resource guards; the benchmark counts them as refusals.
GUARD_CODES = ("TableGuardExceeded", "CombinatorialBudgetExceeded",
               "ExactSearchBudgetExceeded")


@dataclass
class Source:
    """A generated input and what is known about it without an engine."""

    db: Database
    query: Query
    thresholds: dict  # aggregator -> the d the instance was built for
    feasible: bool | None = None  # decision at those thresholds, independent route
    planted: bool = False  # a planted set reaches the upper bound


@dataclass(frozen=True)
class Variant:
    aggregator: str = "sum"
    d: str = "threshold"  # "threshold" (the instance's own d) or "max"
    allow_duplicates: bool = False
    witness: bool = False

    def describe(self) -> str:
        parts = [self.aggregator, "d=max" if self.d == "max" else "d=thr"]
        if self.allow_duplicates:
            parts.append("dup")
        if self.witness:
            parts.append("witness")
        return "/".join(parts)


@dataclass(frozen=True)
class OpClass:
    """Ops of one size: `count` ops per listed variant, each on its own
    instance."""

    label: str
    k: int
    make: Callable[[random.Random, int], Source]
    variants: tuple[Variant, ...]
    sizes: str
    count: int = 1
    guard_probe: bool = False  # sized so that today's default guards refuse it


@dataclass
class Op:
    """One `cli.run` call and the outcome it must produce."""

    label: str
    db: str
    query: str
    k: int
    d: int | None
    aggregator: str
    allow_duplicates: bool
    witness: bool
    guard_probe: bool
    decision: bool
    diversity: int | None
    free_vars: list = field(default_factory=list)
    answers: list | None = None  # payload rows over free_vars, for witness checks


# --- input families -------------------------------------------------------------


def random_graph(rng: random.Random, n: int, m: int, max_degree: int | None = None) -> Graph:
    """m distinct edges on 1..n, uniformly drawn, optionally degree-bounded."""
    while True:
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        rng.shuffle(pairs)
        degree = dict.fromkeys(range(1, n + 1), 0)
        edges = []
        for u, v in pairs:
            if max_degree is not None and max(degree[u], degree[v]) >= max_degree:
                continue
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
            if len(edges) == m:
                return Graph.from_edges(n, edges)


def _database(relations: dict[str, list[tuple]]) -> Database:
    db = Database()
    for name, rows in relations.items():
        db.add_relation(name, len(rows[0]), rows)
    return db


def per_edge_reduction(n: int, m: int) -> Callable[[random.Random, int], Source]:
    """Independent set via one binary relation per edge (k = s)."""
    def make(rng: random.Random, k: int) -> Source:
        g = random_graph(rng, n, m)
        inst = oracle.independent_set_to_diverse_query(g, k)
        return Source(inst.db, inst.query, {"sum": inst.d_sum, "min": inst.d_min},
                      feasible=oracle.has_independent_set(g, k))
    return make


def wide_reduction(n: int, m: int) -> Callable[[random.Random, int], Source]:
    """Independent set via one five-column relation (degree at most three)."""
    def make(rng: random.Random, k: int) -> Source:
        g = random_graph(rng, n, m, max_degree=3)
        inst = oracle.independent_set_to_wide_relation(g, k)
        return Source(inst.db, inst.query, {"sum": inst.d_sum, "min": inst.d_min},
                      feasible=oracle.has_independent_set(g, k))
    return make


def list_coloring_union() -> Callable[[random.Random, int], Source]:
    """K3,3 with a random two-colour list per vertex, as the two-disjunct
    union (k = 2). Equal list sizes give every instance the same number of
    answers; K3,3 is not 2-choosable, so both decisions occur."""
    g = Graph.from_edges(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)])

    def make(rng: random.Random, k: int) -> Source:
        lists = {v: frozenset(rng.sample((1, 2, 3), 2)) for v in range(1, 7)}
        inst = oracle.list_coloring_to_union_query(g, lists)
        return Source(inst.db, inst.query, {"sum": inst.d_sum, "min": inst.d_min},
                      feasible=oracle.has_admissible_coloring(g, lists))
    return make


def _upper_bounds(columns: int, k: int) -> dict:
    return {"sum": columns * math.comb(k, 2), "min": columns}


def padded_negation(width: int, live: int, pad: int) -> Callable[[random.Random, int], Source]:
    """Negation query with bags of width+1 variables, over a database padded
    with `pad` values that occur only in a relation the query never names.

    R pairs each live value with one other, T gives each live value two
    distinct successors and S removes two answers, all through random
    permutations: every seed gets the same numbers of rows, bag tuples and
    answers, only differently arranged.
    """
    def make(rng: random.Random, k: int) -> Source:
        values = list(range(1, live + 1))
        pi, sigma = rng.sample(values, live), rng.sample(values, live)
        shift = rng.randrange(1, live)
        r_rows = list(zip(values, pi))
        t_rows = [(y, sigma[i]) for i, y in enumerate(values)] + \
                 [(y, sigma[(i + shift) % live]) for i, y in enumerate(values)]
        if width == 1:
            # Its nice decomposition has leaf, introduce, forget and join nodes.
            query, columns = "Q(x, y, z, w) :- R(x, y), T(y, z), T(y, w), !S(x, y).", 4
            s_rows = rng.sample(r_rows, 2)
        else:
            query, columns = "Q(x, y, z) :- R(x, y), T(y, z), !S(x, z).", 3
            successors = {y: z for y, z in t_rows}  # one of the two per value
            s_rows = [(x, successors[y]) for x, y in rng.sample(r_rows, 2)]
        relations = {"R": sorted(r_rows), "S": sorted(s_rows), "T": sorted(t_rows),
                     "U": [(1000 + i,) for i in range(pad)]}
        return Source(_database(relations), parse_query(query), _upper_bounds(columns, k))
    return make


def dangling_chain(length: int, live: int, dangling: int) -> Callable[[random.Random, int], Source]:
    """Acyclic chain C0(x0, x1), C1(x1, x2), ... whose relations each hold
    `live` rows that join, a random permutation of the live values, and
    `dangling` rows that join nothing. Every seed gets the same join shape."""
    def make(rng: random.Random, k: int) -> Source:
        relations = {}
        for r in range(length):
            rows = list(enumerate(rng.sample(range(live), live)))
            rows += [(100 * (r + 1) + i, 100 * (r + 2) + 50 + i) for i in range(dangling)]
            relations[f"C{r}"] = rows
        body = ", ".join(f"C{r}(x{r}, x{r + 1})" for r in range(length))
        head = ", ".join(f"x{r}" for r in range(length + 1))
        return Source(_database(relations), parse_query(f"Q({head}) :- {body}."),
                      _upper_bounds(length + 1, k))
    return make


def dense_triangles(vertices: int, edges: int) -> Callable[[random.Random, int], Source]:
    """Cyclic triangle query over a random directed edge relation, with k
    planted triangles on pairwise distinct vertices."""
    def make(rng: random.Random, k: int) -> Source:
        corners = rng.sample(range(vertices), 3 * k)
        planted = set()
        for i in range(k):
            a, b, c = corners[3 * i:3 * i + 3]
            planted |= {(a, b), (b, c), (c, a)}
        rest = [(u, v) for u in range(vertices) for v in range(vertices)
                if u != v and (u, v) not in planted]
        chosen = sorted(planted | set(rng.sample(rest, edges - len(planted))))
        query = parse_query("Q(x, y, z) :- E(x, y), E(y, z), E(z, x).")
        return Source(_database({"E": chosen}), query,
                      _upper_bounds(3, k), feasible=True, planted=True)
    return make


def dense_union(values: int, pairs: int, triples: int) -> Callable[[random.Random, int], Source]:
    """Union of a two-atom join and a ternary relation, all dense and random;
    C holds k planted rows that pairwise differ in every column."""
    def make(rng: random.Random, k: int) -> Source:
        grid = [(u, v) for u in range(values) for v in range(values)]
        cube = [(u, v, w) for u in range(values) for v in range(values) for w in range(values)]
        columns = [rng.sample(range(values), k) for _ in range(3)]
        c_rows = set(rng.sample(cube, triples)) | set(zip(*columns))
        relations = {"A": sorted(rng.sample(grid, pairs)), "B": sorted(rng.sample(grid, pairs)),
                     "C": sorted(c_rows)}
        query = parse_query("Q(x, y, z) :- A(x, y), B(y, z).\nQ(x, y, z) :- C(x, y, z).")
        return Source(_database(relations), query, _upper_bounds(3, k),
                      feasible=True, planted=True)
    return make


def sparse_union(rows: int, values: int) -> Callable[[random.Random, int], Source]:
    """Union of two ternary relations holding `rows` answers, no two of which
    agree on two columns, so no capping rule below the whole relation
    applies: the kernel keeps every answer and the search tries C(rows, k)
    sets. The first k rows pairwise differ in every column."""
    def make(rng: random.Random, k: int) -> Source:
        columns = [rng.sample(range(values), k) for _ in range(3)]
        out = list(zip(*columns))
        seen = {(i, row[i], j, row[j]) for row in out
                for i, j in itertools.combinations(range(3), 2)}
        while len(out) < rows:
            row = tuple(rng.randrange(values) for _ in range(3))
            keys = {(i, row[i], j, row[j]) for i, j in itertools.combinations(range(3), 2)}
            if not keys & seen:
                seen |= keys
                out.append(row)
        rng.shuffle(out)
        half = rows // 2
        query = parse_query("Q(x, y, z) :- A(x, y, z).\nQ(x, y, z) :- B(x, y, z).")
        return Source(_database({"A": sorted(out[:half]), "B": sorted(out[half:])}), query,
                      _upper_bounds(3, k), feasible=True, planted=True)
    return make


# --- the workloads ---------------------------------------------------------------

SUM_T, MIN_T = Variant("sum"), Variant("min")
SUM_MAX, MIN_MAX = Variant("sum", "max"), Variant("min", "max")
SUM_DUP = Variant("sum", allow_duplicates=True)
SUM_WIT, MIN_WIT = Variant("sum", witness=True), Variant("min", witness=True)
SUM_MAX_WIT = Variant("sum", "max", witness=True)

# The first op of a workload is the worker's untimed warm-up op, so each
# workload lists a cheap class of even cost first: setup_s then measures
# start-up, not whichever instance the seed drew. `pass_s` is about what one
# untraced pass over the mix takes on the reference machine (2 vCPU, its
# slower phases); a run makes --seconds / pass_s passes, whatever speed the
# commit has.
WORKLOADS: dict[str, dict] = {
    "dp-engines": {
        "why": ("join-tree DP (acq, acq-sum, acq-sum-dup) on reductions where every tuple "
                "joins, plus cqneg and acq on inputs padded with values and rows no answer "
                "uses"),
        "pass_s": 5.7,
        "classes": (
            # n^k tables on hardness reductions: GYO and the DP dominate.
            OpClass("is-n6-k3", 3, per_edge_reduction(6, 8), (SUM_T, MIN_T, SUM_DUP, SUM_WIT),
                    "6 vertices, 8 edges", count=4),
            OpClass("wide-n9-k3", 3, wide_reduction(9, 9), (SUM_T, MIN_WIT, SUM_DUP),
                    "9 vertices, 9 edges, degree <= 3", count=5),
            OpClass("wide-n9-k4", 4, wide_reduction(9, 9), (SUM_T, MIN_MAX),
                    "9 vertices, 9 edges, degree <= 3", count=4),
            OpClass("is-n6-k4", 4, per_edge_reduction(6, 8),
                    (SUM_T, SUM_T, MIN_T, MIN_T, SUM_MAX, MIN_MAX, SUM_MAX_WIT, MIN_WIT, SUM_DUP),
                    "6 vertices, 8 edges", count=2),
            OpClass("is-n5-k5", 5, per_edge_reduction(5, 6), (SUM_T, SUM_MAX, MIN_T, MIN_MAX),
                    "5 vertices, 6 edges"),
            OpClass("wide-n12-k7-guard", 7, wide_reduction(12, 12), (SUM_T, MIN_T),
                    "12 vertices, 12 edges: 12^7 initial entries exceed the table cap",
                    count=2, guard_probe=True),
            # Engine input far larger than the answer: negation queries over
            # domains padded with unused values, chains with dangling rows.
            OpClass("chain4-live4-dangling8-k3", 3, dangling_chain(4, 4, 8), (SUM_MAX, MIN_MAX),
                    "4 atoms, 4 live + 8 dangling rows each", count=4),
            OpClass("neg-w1-pad30-k2", 2, padded_negation(1, 6, 30), (SUM_MAX, SUM_MAX_WIT),
                    "bag width 1, 30 unused values", count=5),
            OpClass("neg-w1-pad30-k3", 3, padded_negation(1, 6, 30), (SUM_MAX, MIN_MAX),
                    "bag width 1, 30 unused values", count=5),
            OpClass("neg-w2-pad12-k2", 2, padded_negation(2, 5, 12),
                    (SUM_MAX, MIN_MAX, SUM_MAX_WIT), "bag width 2, 12 unused values", count=3),
            OpClass("neg-w2-pad12-k3", 3, padded_negation(2, 5, 12),
                    (SUM_MAX, MIN_MAX, SUM_MAX), "bag width 2, 12 unused values", count=3),
            OpClass("chain3-live5-dangling10-k3", 3, dangling_chain(3, 5, 10),
                    (SUM_MAX, SUM_MAX_WIT, MIN_MAX), "3 atoms, 5 live + 10 dangling rows each",
                    count=3),
            OpClass("neg-w1-pad3200-guard", 2, padded_negation(1, 6, 3200), (SUM_MAX,),
                    "bag width 1, 3200 unused values: 3206^2 bag tuples exceed the cap",
                    guard_probe=True),
            OpClass("neg-w2-pad220-guard", 2, padded_negation(2, 5, 220), (SUM_MAX,),
                    "bag width 2, 220 unused values: 225^3 bag tuples exceed the cap",
                    guard_probe=True),
        ),
    },
    "fo-kernel-unions": {
        "why": ("unions and cyclic queries: materialize + kernelize (k = 2) and exhaustive "
                "search (k = 3); bypasses both DP engines"),
        "pass_s": 2.95,
        "classes": (
            OpClass("dense-union-v8-k2", 2, dense_union(8, 32, 70), (SUM_MAX, MIN_MAX),
                    "8 values, |A| = |B| = 32, |C| = 72", count=14),
            OpClass("k33-lists", 2, list_coloring_union(), (SUM_T, SUM_WIT),
                    "K3,3, a random 2-colour list per vertex", count=6),
            OpClass("sparse-union-24-k3", 3, sparse_union(24, 200),
                    (SUM_MAX, SUM_MAX, MIN_MAX, SUM_MAX_WIT), "24 answers", count=7),
            OpClass("triangles-v12-k2", 2, dense_triangles(12, 60), (SUM_MAX, MIN_T, SUM_T),
                    "12 vertices, 60 directed edges", count=12),
            OpClass("sparse-union-50-k6-guard", 6, sparse_union(50, 200), (SUM_MAX, MIN_MAX),
                    "50 answers: C(50, 6) candidate sets exceed the budget",
                    count=3, guard_probe=True),
        ),
    },
}


def build(workload: str, seed: int, directory: str, *, tiny: bool = False) -> list[Op]:
    """Write the workload's instance files and return its ops, expectations
    included. The same (workload, seed) always gives the same files.

    `tiny` keeps one op per variant of each class, for the self-test.
    """
    rng = random.Random(f"{workload}/{seed}")
    os.makedirs(directory, exist_ok=True)
    ops: list[Op] = []
    for cls in WORKLOADS[workload]["classes"]:
        variants = cls.variants if tiny else cls.variants * cls.count
        for variant in variants:
            source = cls.make(rng, cls.k)
            stem = os.path.join(directory, f"op{len(ops):02d}")
            dbio.dump_database(source.db, stem + ".facts")
            dbio.dump_query(source.query, stem + ".dq")
            ops.append(_expect(cls, variant, source, stem + ".facts", stem + ".dq"))
    return ops


def _expect(cls: OpClass, variant: Variant, source: Source, db_path: str,
            query_path: str) -> Op:
    """Expected decision and diversity, from the files exactly as written."""
    db, query = dbio.load_database(db_path), dbio.load_query(query_path)
    aggregator = SUM if variant.aggregator == "sum" else MIN
    d = None if variant.d == "max" else source.thresholds[variant.aggregator]
    xs = list(query.free_vars)
    # Dense planted instances have too many answers to enumerate by
    # backtracking; their witness-free ops rest on the planted bound alone.
    answers = oracle.enumerate_answers(query, db) \
        if variant.witness or not source.planted else None
    if source.planted:
        best = source.thresholds[variant.aggregator]
    else:
        best, _ = oracle.bruteforce_diversity(
            answers, cls.k, aggregator, allow_duplicates=variant.allow_duplicates)
    decision = best is not None and (d is None or best >= d)
    if d is not None and source.feasible is not None and decision != source.feasible:
        raise RuntimeError(f"{cls.label}: brute force and the reduction disagree")
    rows = None
    if variant.witness:
        rows = [[a[x].payload for x in xs] for a in answers]
    return Op(
        label=cls.label, db=db_path, query=query_path, k=cls.k, d=d,
        aggregator=variant.aggregator, allow_duplicates=variant.allow_duplicates,
        witness=variant.witness, guard_probe=cls.guard_probe, decision=decision,
        diversity=None if best is None or best == math.inf else int(best),
        free_vars=xs, answers=rows,
    )


def describe(workload: str) -> dict:
    """The workload's instance mix and the reason it was chosen."""
    spec = WORKLOADS[workload]
    return {
        "why": spec["why"],
        "mix": [
            {"class": c.label, "k": c.k, "sizes": c.sizes, "guard_probe": c.guard_probe,
             "instances_per_variant": c.count, "variants": [v.describe() for v in c.variants]}
            for c in spec["classes"]
        ],
    }


def op_json(op: Op) -> dict:
    return asdict(op)
