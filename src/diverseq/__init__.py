"""diverseq: decide and compute diverse answer sets for conjunctive queries.

Given a database, a query, a set size k, and a threshold d, the engines here
decide whether k pairwise-distinct answers with aggregated pairwise Hamming
diversity at least d exist, and produce such a set on demand.
"""

from .acq import solve_acq, solve_acq_sum, solve_acq_sum_dup
from .cqneg import solve_cqneg
from .errors import DiverseQError
from .kernel import (
    AnswerRelation,
    kernelize,
    materialize_answers,
    read_answer_csv,
    solve_fo_diverse,
    write_answer_csv,
)
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
from .oracle import (
    DiverseInstance,
    Graph,
    bruteforce_diversity,
    enumerate_answers,
    independent_set_to_diverse_query,
    independent_set_to_wide_relation,
    list_coloring_to_union_query,
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
