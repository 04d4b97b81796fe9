"""Exception types shared across the engine, and the guards' defaults.

Every error carries a stable machine-readable code (the class name) so the
CLI can surface failures in JSON output.
"""

# The most entries a DP table may hold (TableGuardExceeded), and the budget of
# CombinatorialBudgetExceeded: C(k, 2) pair distances (at least 1) per
# fo-kernel search node or bruteforce candidate set, and one per partial answer
# the fo-kernel join builds or row the bruteforce enumeration tries.
DEFAULT_TABLE_CAP = 10_000_000
DEFAULT_BUDGET = 10_000_000


class DiverseQError(Exception):
    """Base class for all errors raised by this package."""

    @property
    def code(self) -> str:
        return type(self).__name__


class UnboundVariable(DiverseQError):
    """A distance or diversity computation touched an unbound variable."""


class QuerySyntaxError(DiverseQError):
    """Malformed query or fact text; carries the offending position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


class UnsafeQuery(DiverseQError):
    """Some variable has no positive occurrence in its disjunct."""


class MismatchedHeads(DiverseQError):
    """Rules of a union disagree on the head symbol or variable sequence."""


class NegationInUnion(DiverseQError):
    """Negated literals are only supported in single-disjunct queries."""


class UnknownRelation(DiverseQError):
    """An atom references a relation the database does not define."""


class ArityMismatch(DiverseQError):
    """An atom's term count differs from the relation's arity."""


class NotAcyclic(DiverseQError):
    """The query admits no join tree."""


class TableGuardExceeded(DiverseQError):
    """A dynamic-programming table would exceed the configured cap."""


class CombinatorialBudgetExceeded(DiverseQError):
    """A subset enumeration would exceed the configured budget."""


class NotMonotone(DiverseQError):
    """The kernel pipeline only supports monotone aggregators."""


class PreconditionViolated(DiverseQError):
    """A capping-rule group bound that must hold by construction failed."""


class CorruptProvenance(DiverseQError):
    """Internal consistency failure while rebuilding a witness."""


class DegreeTooHigh(DiverseQError):
    """The wide-relation generator needs maximum degree three."""


class NotBipartiteOrNot3Regular(DiverseQError):
    """The union-query generator needs a bipartite 3-regular graph."""
