"""Golden-corpus definitions shared by the generator script and the tests.

Every fixture is a generated instance written out in the CLI's own file
formats, plus the CLI configuration to run against it. Applicable modes are
listed per fixture for the mode-invariance checks.
"""

from __future__ import annotations

from dataclasses import dataclass

from diverseq.model import Database
from diverseq.oracle import (
    Graph,
    independent_set_to_diverse_query,
    independent_set_to_wide_relation,
    list_coloring_to_union_query,
)
from diverseq.queries import Query, parse_query


@dataclass(frozen=True)
class GoldenCase:
    name: str
    db: Database
    query: Query
    k: int
    d: int | None
    aggregator: str
    witness: bool
    modes: tuple[str, ...]  # every mode that must agree on this input


def _k33() -> Graph:
    return Graph.from_edges(6, [(u, v) for u in (1, 2, 3) for v in (4, 5, 6)])


def _cqneg_grid():
    db = Database.from_rows({"R": [(1, 1), (1, 2), (2, 1), (2, 2)], "S": [(1, 1)]})
    return db, parse_query("Q(x, y) :- R(x, y), !S(x, y).")


def _cqneg_branching():
    # The bench's width-1 negation query: min-fill puts two children under
    # the bag {y, z}, so the nice form has leaf, introduce, forget and join
    # nodes.
    values = [1, 2, 3, 4, 5]
    r_rows = [(v, v % 5 + 1) for v in values]
    t_rows = [(v, v % 5 + 1) for v in values] + [(v, (v + 1) % 5 + 1) for v in values]
    db = Database.from_rows({"R": r_rows, "T": t_rows, "S": [(1, 2), (3, 4)]})
    return db, parse_query("Q(x, y, z, w) :- R(x, y), T(y, z), T(y, w), !S(x, y).")


def _triangle():
    db = Database.from_rows(
        {"R": [(1, 2), (2, 1)], "S": [(2, 1), (1, 2)], "T": [(1, 1), (2, 2)]}
    )
    return db, parse_query("Q(x, y, z) :- R(x, y), S(y, z), T(z, x).")


ACQ_MODES = ("acq", "acq-sum", "cqneg", "fo-kernel", "bruteforce")
ACQ_MIN_MODES = ("acq", "cqneg", "fo-kernel", "bruteforce")
CQNEG_MODES = ("cqneg", "fo-kernel", "bruteforce")
UCQ_MODES = ("fo-kernel", "bruteforce")


def golden_cases() -> list[GoldenCase]:
    k2 = independent_set_to_diverse_query(Graph.from_edges(2, [(1, 2)]), 2)
    k3 = independent_set_to_diverse_query(
        Graph.from_edges(3, [(1, 2), (1, 3), (2, 3)]), 2
    )
    path4 = independent_set_to_diverse_query(
        Graph.from_edges(4, [(1, 2), (2, 3), (3, 4)]), 2
    )
    wide_path = independent_set_to_wide_relation(
        Graph.from_edges(3, [(1, 2), (2, 3)]), 2
    )
    wide_k2 = independent_set_to_wide_relation(Graph.from_edges(2, [(1, 2)]), 2)
    all_lists = {v: frozenset({1, 2, 3}) for v in range(1, 7)}
    one_color = {v: frozenset({1}) for v in range(1, 7)}
    uacq_yes = list_coloring_to_union_query(_k33(), all_lists)
    uacq_no = list_coloring_to_union_query(_k33(), one_color)
    grid_db, grid_q = _cqneg_grid()
    branch_db, branch_q = _cqneg_branching()
    tri_db, tri_q = _triangle()

    return [
        GoldenCase("is_k2_no", k2.db, k2.query, k2.k, k2.d_sum, "sum", False, ACQ_MODES),
        GoldenCase("is_k2_yes", k2.db, k2.query, k2.k, 1, "sum", True, ACQ_MODES),
        GoldenCase("is_k3_no", k3.db, k3.query, k3.k, k3.d_sum, "sum", False, ACQ_MODES),
        GoldenCase("is_path4_yes", path4.db, path4.query, path4.k, path4.d_min,
                   "min", True, ACQ_MIN_MODES),
        GoldenCase("is_path4_max", path4.db, path4.query, path4.k, None,
                   "sum", False, ACQ_MODES),
        GoldenCase("wide_path_yes", wide_path.db, wide_path.query, wide_path.k,
                   wide_path.d_min, "min", True, ACQ_MIN_MODES),
        GoldenCase("wide_k2_no", wide_k2.db, wide_k2.query, wide_k2.k,
                   wide_k2.d_min, "min", False, ACQ_MIN_MODES),
        GoldenCase("uacq_k33_yes", uacq_yes.db, uacq_yes.query, uacq_yes.k,
                   uacq_yes.d_min, "min", False, UCQ_MODES),
        GoldenCase("uacq_k33_no", uacq_no.db, uacq_no.query, uacq_no.k,
                   uacq_no.d_min, "min", False, UCQ_MODES),
        GoldenCase("cqneg_grid_yes", grid_db, grid_q, 2, 2, "min", True, CQNEG_MODES),
        GoldenCase("cqneg_grid_k3", grid_db, grid_q, 3, 5, "sum", False, CQNEG_MODES),
        GoldenCase("cqneg_branching_max", branch_db, branch_q, 3, None, "sum", True,
                   CQNEG_MODES),
        GoldenCase("triangle_cyclic", tri_db, tri_q, 2, 3, "sum", True, UCQ_MODES),
    ]
