"""diverseq: decide and compute diverse answer sets for conjunctive queries.

Given a database, a query, a set size k, and a threshold d, the engines here
decide whether k pairwise-distinct answers with aggregated pairwise Hamming
diversity at least d exist, and produce such a set on demand.
"""

from importlib import import_module

from .errors import DiverseQError
from .model import (
    MIN,
    SUM,
    Aggregator,
    Assignment,
    Database,
    Outcome,
    Relation,
    Value,
    custom_aggregator,
    diversity_of_set,
    hamming_distance,
)
from .queries import Atom, Constant, Literal, Query, Variable, parse_query, render_query, sols_atom
from .structure import (
    NiceTreeDecomposition,
    TreeDecomposition,
    gyo_join_tree,
    make_nice,
    tree_decompose,
    validate_decomposition,
)

# The engines and the oracle load on first use of one of their names, so
# that `from diverseq import cli` and a run that routes to one engine import
# no other (PEP 562).
_LAZY = {
    "acq": ("solve_acq", "solve_acq_sum", "solve_acq_sum_dup"),
    "cqneg": ("solve_cqneg",),
    "kernel": ("AnswerRelation", "kernelize", "materialize_answers", "read_answer_csv",
               "solve_fo_diverse", "write_answer_csv"),
    "oracle": ("DiverseInstance", "Graph", "bruteforce_diversity", "enumerate_answers",
               "independent_set_to_diverse_query", "independent_set_to_wide_relation",
               "list_coloring_to_union_query"),
}
_LAZY_MODULE = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    module = _LAZY_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{module}", __name__), name)


__version__ = "0.1.0"

__all__ = [
    "Aggregator",
    "AnswerRelation",
    "Assignment",
    "Atom",
    "Constant",
    "Database",
    "DiverseInstance",
    "DiverseQError",
    "Graph",
    "Literal",
    "MIN",
    "NiceTreeDecomposition",
    "Outcome",
    "Query",
    "Relation",
    "SUM",
    "TreeDecomposition",
    "Value",
    "Variable",
    "bruteforce_diversity",
    "custom_aggregator",
    "diversity_of_set",
    "enumerate_answers",
    "gyo_join_tree",
    "hamming_distance",
    "independent_set_to_diverse_query",
    "independent_set_to_wide_relation",
    "kernelize",
    "list_coloring_to_union_query",
    "make_nice",
    "materialize_answers",
    "parse_query",
    "read_answer_csv",
    "render_query",
    "sols_atom",
    "solve_acq",
    "solve_acq_sum",
    "solve_acq_sum_dup",
    "solve_cqneg",
    "solve_fo_diverse",
    "tree_decompose",
    "validate_decomposition",
    "write_answer_csv",
]
