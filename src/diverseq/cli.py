"""Command-line frontend: parse the query, load data, route to a solver.

The query is parsed first, and only the relations it names are loaded (the
loader still checks every fact). Routing in auto mode mirrors the solvers'
applicability: an acyclic positive single-disjunct query goes to the
join-tree engine (the sum fast path when the aggregator is sum), on the
GYO join tree built to route it, negation goes to the bag engine, and
unions or cyclic queries go through materialize + kernelize + exhaustive
search. Each of these jobs is done once per run; nothing is kept from one
run to the next.

Exit codes: 0 = yes, 1 = no, 2 = error.

A run imports only the engine module its route needs, when it gets there:
one call spends far longer starting the interpreter and loading code than
solving at small sizes.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .dbio import load_database, load_query
from .errors import DEFAULT_BUDGET, DEFAULT_TABLE_CAP, DiverseQError
from .model import MIN, SUM, Outcome, diversity_of_set
from .structure import TreeDecomposition, gyo_join_tree, parse_decomposition

if TYPE_CHECKING:
    import argparse

TABLE_CAP_ENV = "DIVERSEQ_TABLE_CAP"
MODES = ("auto", "acq", "acq-sum", "cqneg", "fo-kernel", "bruteforce")


@dataclass
class RunConfig:
    db_path: str
    query_path: str
    k: int
    d: int | None  # None means "max" mode
    aggregator: str = "sum"
    mode: str = "auto"
    allow_duplicates: bool = False
    witness: bool = False
    decomposition_path: str | None = None
    table_cap: int = DEFAULT_TABLE_CAP
    budget: int = DEFAULT_BUDGET
    output: str = "text"

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("k must be at least 1")
        if self.d is not None and self.d < 0:
            raise ValueError("d must be non-negative")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.aggregator not in ("sum", "min"):
            raise ValueError(f"unknown aggregator {self.aggregator!r}")
        if self.table_cap < 0:
            raise ValueError(f"the table cap must be non-negative, got {self.table_cap}")
        if self.budget < 0:
            raise ValueError(f"the budget must be non-negative, got {self.budget}")


def _pick_mode(cfg: RunConfig, query) -> tuple[str, TreeDecomposition | None]:
    """The route, and the join tree built to choose it, if one was."""
    if cfg.mode != "auto":
        return cfg.mode, None
    if query.kind == "cqneg":
        return "cqneg", None
    if query.kind == "ucq":
        return "fo-kernel", None
    join_tree = gyo_join_tree(query)
    if join_tree is None:
        return "fo-kernel", None
    return ("acq-sum" if cfg.aggregator == "sum" else "acq"), join_tree


def _solve(cfg: RunConfig, mode: str, query, db,
           join_tree: TreeDecomposition | None) -> Outcome:
    aggregator = SUM if cfg.aggregator == "sum" else MIN
    decomposition = None
    if cfg.decomposition_path:
        with open(cfg.decomposition_path, encoding="utf-8") as handle:
            decomposition = parse_decomposition(handle.read())
        if mode != "cqneg":
            raise ValueError(f"--decomposition is read only by the cqneg route, "
                             f"and this run routes to {mode}")
    # Each engine is called through its module, so a name patched there
    # (as the traced benchmark run does) is the one called.
    if mode == "acq":
        from . import acq
        return acq.solve_acq(
            query, db, cfg.k, cfg.d, aggregator,
            witness=cfg.witness, allow_duplicates=cfg.allow_duplicates,
            table_cap=cfg.table_cap, join_tree=join_tree,
        )
    if mode == "acq-sum":
        if cfg.aggregator != "sum":
            raise ValueError("mode acq-sum needs the sum aggregator")
        from . import acq
        solver = acq.solve_acq_sum_dup if cfg.allow_duplicates else acq.solve_acq_sum
        return solver(query, db, cfg.k, cfg.d, witness=cfg.witness,
                      table_cap=cfg.table_cap, join_tree=join_tree)
    if mode == "cqneg":
        from . import cqneg
        return cqneg.solve_cqneg(
            query, db, cfg.k, cfg.d, aggregator,
            witness=cfg.witness, allow_duplicates=cfg.allow_duplicates,
            decomposition=decomposition, table_cap=cfg.table_cap,
        )
    if mode == "fo-kernel":
        from . import kernel
        answers = kernel.materialize_answers(query, db, budget=cfg.budget)
        return kernel.solve_fo_diverse(
            answers, cfg.k, cfg.d, aggregator,
            allow_duplicates=cfg.allow_duplicates, witness=cfg.witness,
            budget=cfg.budget,
        )
    # bruteforce
    from .oracle import bruteforce_diversity, enumerate_answers
    answers = enumerate_answers(query, db, budget=cfg.budget)
    best, combo = bruteforce_diversity(
        answers, cfg.k, aggregator,
        allow_duplicates=cfg.allow_duplicates, budget=cfg.budget,
    )
    if best is None:
        return Outcome(False, None, None, stats={"answers": len(answers), "k": cfg.k})
    decision = cfg.d is None or best >= cfg.d
    witness = combo if (decision and cfg.witness) else None
    return Outcome(decision, best, witness, stats={"answers": len(answers), "k": cfg.k})


def _diversity_json(value: float | None):
    # +infinity (single-answer minimum) has no JSON integer form.
    if value is None or value == math.inf:
        return None
    return int(value)


def report_dict(outcome: Outcome, mode: str, wall_ms: float | None) -> dict:
    witness = None
    if outcome.witness is not None:
        witness = [a.as_payload_dict() for a in outcome.witness]
    stats = dict(outcome.stats)
    if wall_ms is not None:
        stats["wall_ms"] = round(wall_ms, 3)
    return {
        "decision": "yes" if outcome.decision else "no",
        "diversity": _diversity_json(outcome.diversity),
        "witness": witness,
        "routing": mode,
        "stats": stats,
    }


def canonical_json(report: dict, *, drop_volatile: bool = False) -> str:
    """Byte-stable serialization; drop_volatile removes timing for goldens."""
    if drop_volatile:
        report = dict(report)
        stats = dict(report.get("stats", {}))
        stats.pop("wall_ms", None)
        report["stats"] = stats
    return json.dumps(report, sort_keys=True, separators=(",", ":")) + "\n"


def run(cfg: RunConfig) -> tuple[int, dict]:
    """Execute one configured solve; returns (exit code, report)."""
    try:
        query = load_query(cfg.query_path)
        db = load_database(cfg.db_path, query.relations)
        mode, join_tree = _pick_mode(cfg, query)
        started = time.perf_counter()
        outcome = _solve(cfg, mode, query, db, join_tree)
        wall_ms = (time.perf_counter() - started) * 1000.0
        if outcome.witness is not None:
            aggregator = SUM if cfg.aggregator == "sum" else MIN
            achieved = diversity_of_set(aggregator, outcome.witness, query.free_vars)
            if achieved != outcome.diversity:
                raise DiverseQError("witness failed re-verification")
        report = report_dict(outcome, mode, wall_ms)
        return (0 if outcome.decision else 1), report
    except DiverseQError as err:
        return 2, {"error": {"code": err.code, "message": str(err)}}
    except (OSError, ValueError) as err:
        return 2, {"error": {"code": type(err).__name__, "message": str(err)}}
    except Exception as err:  # a defect, not an answer: never exit 1 ("no")
        import traceback
        return 2, {"error": {
            "code": "InternalError",
            "message": f"{type(err).__name__}: {err}",
            "traceback": traceback.format_exc(),
        }}


def _emit(report: dict, output: str) -> None:
    if output == "json":
        sys.stdout.write(canonical_json(report))
        return
    if "error" in report:
        print(f"error [{report['error']['code']}]: {report['error']['message']}")
        return
    print(f"decision:  {report['decision']}")
    diversity = report["diversity"]
    if diversity is None:
        diversity = "inf" if report["decision"] == "yes" else "none"
    print(f"diversity: {diversity}")
    print(f"routing:   {report['routing']}")
    if report["witness"] is not None:
        for i, answer in enumerate(report["witness"], start=1):
            rendered = ", ".join(f"{k}={v}" for k, v in answer.items())
            print(f"answer {i}:  {rendered}")
    stats = ", ".join(f"{k}={v}" for k, v in sorted(report["stats"].items()))
    print(f"stats:     {stats}")


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="diverseq",
        description="Decide whether k pairwise-distinct query answers reach diversity d.",
    )
    parser.add_argument("--db", required=True, help="fact file or CSV directory")
    parser.add_argument("--query", required=True, help="rule file")
    parser.add_argument("--k", required=True, type=int, help="size of the answer set")
    parser.add_argument("--d", required=True,
                        help="diversity threshold, or 'max' to maximize")
    parser.add_argument("--aggregator", choices=("sum", "min"), default="sum")
    parser.add_argument("--mode", choices=MODES, default="auto")
    parser.add_argument("--allow-duplicates", action="store_true",
                        help="search multisets instead of sets of answers")
    parser.add_argument("--witness", action="store_true",
                        help="also output k answers realizing the decision")
    parser.add_argument("--decomposition",
                        help="tree decomposition file for the cqneg engine")
    parser.add_argument("--table-cap", type=int, default=None,
                        help=f"DP table guard (default {DEFAULT_TABLE_CAP}, "
                             f"env {TABLE_CAP_ENV})")
    parser.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                        help="search guard in pair distances: each node the fo-kernel "
                             "search visits and each candidate set bruteforce tries costs "
                             "C(k, 2), and at least 1; apart, the most partial answers the "
                             "fo-kernel answer join may build, and the most rows bruteforce "
                             "may try per disjunct as it enumerates answers")
    parser.add_argument("--output", choices=("text", "json"), default="text")
    return parser


def _integer(text: str, expects: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{expects}, got {text!r}") from None


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        d = None if args.d == "max" else _integer(args.d, "--d expects an integer or 'max'")
        table_cap = args.table_cap if args.table_cap is not None else _integer(
            os.environ.get(TABLE_CAP_ENV, str(DEFAULT_TABLE_CAP)),
            f"{TABLE_CAP_ENV} expects an integer")
        cfg = RunConfig(
            db_path=args.db,
            query_path=args.query,
            k=args.k,
            d=d,
            aggregator=args.aggregator,
            mode=args.mode,
            allow_duplicates=args.allow_duplicates,
            witness=args.witness,
            decomposition_path=args.decomposition,
            table_cap=table_cap,
            budget=args.budget,
            output=args.output,
        )
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    code, report = run(cfg)
    _emit(report, cfg.output)
    return code


if __name__ == "__main__":
    sys.exit(main())
