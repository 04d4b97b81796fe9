"""Query ASTs (conjunctive, unions, negation), a rule-text parser, and
single-atom evaluation.

Rule syntax, one rule per line, `#` starts a comment:

    Q(x, y) :- R(x, y), !S(x, 5), T("a", y).

Lowercase-initial identifiers are variables; integers and quoted strings are
constants. Several rules with the same head form a union. The head's variable
order is semantic: it fixes the column order of every answer.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from typing import Mapping, Union

from .errors import (
    ArityMismatch,
    MismatchedHeads,
    NegationInUnion,
    QuerySyntaxError,
    UnknownRelation,
    UnsafeQuery,
)
from .model import Database, Payload, Relation


@dataclass(frozen=True)
class Variable:
    name: str


@dataclass(frozen=True)
class Constant:
    payload: Payload


Term = Union[Variable, Constant]


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple[Term, ...]

    @property
    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, Variable))


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    @property
    def variables(self) -> frozenset[str]:
        return self.atom.variables


@dataclass(frozen=True)
class Conjunct:
    """One disjunct: a sequence of literals sharing the query's free variables."""

    literals: tuple[Literal, ...]

    @property
    def variables(self) -> frozenset[str]:
        out: set[str] = set()
        for lit in self.literals:
            out |= lit.variables
        return frozenset(out)

    @property
    def positive_variables(self) -> frozenset[str]:
        out: set[str] = set()
        for lit in self.literals:
            if lit.positive:
                out |= lit.variables
        return frozenset(out)

    @property
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.literals if lit.positive)

    @property
    def negative_literals(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.literals if not lit.positive)

    def has_negation(self) -> bool:
        return any(not lit.positive for lit in self.literals)


@dataclass(frozen=True)
class Query:
    head: str
    free_vars: tuple[str, ...]
    conjuncts: tuple[Conjunct, ...]

    def __post_init__(self) -> None:
        if not self.conjuncts:
            raise ValueError("a query needs at least one disjunct")
        if len(set(self.free_vars)) != len(self.free_vars):
            raise ValueError(f"repeated variable in head of {self.head}")
        negated = any(c.has_negation() for c in self.conjuncts)
        if negated and len(self.conjuncts) > 1:
            raise NegationInUnion(f"query {self.head} mixes union and negation")
        for conjunct in self.conjuncts:
            covered = conjunct.positive_variables
            for v in sorted(set(self.free_vars) | conjunct.variables):
                if v not in covered:
                    raise UnsafeQuery(
                        f"variable {v} has no positive occurrence in a disjunct of {self.head}"
                    )

    @property
    def kind(self) -> str:
        """One of "cq", "ucq", "cqneg", derived from the shape."""
        if any(c.has_negation() for c in self.conjuncts):
            return "cqneg"
        return "cq" if len(self.conjuncts) == 1 else "ucq"


# --- parsing ---------------------------------------------------------------

# The constant literals of query text and of fact files (dbio): an integer
# is ASCII digits after an optional minus sign, a string is double-quoted
# with backslash escapes.
INT_LITERAL = r"-?[0-9]+"
STRING_LITERAL = r'"(?:[^"\\]|\\.)*"'


def parse_int_literal(text: str, line: int, column: int) -> int:
    """The value of an integer literal at (line, column). A literal with more
    digits than `int` converts from text (`sys.get_int_max_str_digits()`) is
    a syntax error there; the limit is not raised."""
    try:
        return int(text)
    except ValueError:
        raise QuerySyntaxError(
            f"integer literal of {len(text.lstrip('-'))} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}", line, column) from None


_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>\#.*)
  | (?P<implies>:-)
  | (?P<string>{STRING_LITERAL})
  | (?P<int>{INT_LITERAL})
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<sym>[(),.!])
    """,
    re.VERBOSE,
)


def _tokenize_line(line: str, lineno: int) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(line):
        m = _TOKEN_RE.match(line, pos)
        if m is None:
            raise QuerySyntaxError(f"unexpected character {line[pos]!r}", lineno, pos + 1)
        kind = m.lastgroup
        if kind == "comment":
            break
        if kind != "ws":
            tokens.append((kind, m.group(), m.start() + 1))
        pos = m.end()
    return tokens


class _RuleParser:
    def __init__(self, tokens: list[tuple[str, str, int]], lineno: int):
        self.tokens = tokens
        self.lineno = lineno
        self.i = 0

    def error(self, message: str) -> QuerySyntaxError:
        col = self.tokens[self.i][2] if self.i < len(self.tokens) else (
            self.tokens[-1][2] + len(self.tokens[-1][1]) if self.tokens else 1
        )
        return QuerySyntaxError(message, self.lineno, col)

    def peek(self) -> tuple[str, str, int] | None:
        return self.tokens[self.i] if self.i < len(self.tokens) else None

    def expect(self, kind: str, text: str | None = None) -> str:
        tok = self.peek()
        if tok is None or tok[0] != kind or (text is not None and tok[1] != text):
            want = text or kind
            raise self.error(f"expected {want!r}")
        self.i += 1
        return tok[1]

    def parse_rule(self) -> tuple[str, tuple[str, ...], Conjunct]:
        head = self.expect("ident")
        self.expect("sym", "(")
        head_vars: list[str] = []
        if self.peek() and self.peek()[1] != ")":
            while True:
                name = self.expect("ident")
                if not name[0].islower():
                    raise self.error(f"head term {name!r} must be a variable")
                head_vars.append(name)
                if self.peek() and self.peek()[1] == ",":
                    self.i += 1
                    continue
                break
        self.expect("sym", ")")
        self.expect("implies")
        literals = [self.parse_literal()]
        while self.peek() and self.peek()[1] == ",":
            self.i += 1
            literals.append(self.parse_literal())
        self.expect("sym", ".")
        if self.peek() is not None:
            raise self.error("trailing input after rule")
        return head, tuple(head_vars), Conjunct(tuple(literals))

    def parse_literal(self) -> Literal:
        positive = True
        if self.peek() and self.peek()[1] == "!":
            positive = False
            self.i += 1
        name = self.expect("ident")
        self.expect("sym", "(")
        terms: list[Term] = []
        if self.peek() and self.peek()[1] != ")":
            while True:
                terms.append(self.parse_term())
                if self.peek() and self.peek()[1] == ",":
                    self.i += 1
                    continue
                break
        self.expect("sym", ")")
        return Literal(Atom(name, tuple(terms)), positive)

    def parse_term(self) -> Term:
        tok = self.peek()
        if tok is None:
            raise self.error("expected a term")
        kind, text, column = tok
        if kind == "int":
            self.i += 1
            return Constant(parse_int_literal(text, self.lineno, column))
        if kind == "string":
            self.i += 1
            return Constant(unescape(text[1:-1]))
        if kind == "ident":
            if not text[0].islower():
                raise self.error(
                    f"term {text!r} is neither a variable (lowercase-initial) nor a constant"
                )
            self.i += 1
            return Variable(text)
        raise self.error(f"unexpected token {text!r} in term position")


# In a quoted literal a backslash escapes the next character: `\n` and `\r`
# stand for line breaks, `\\` and `\"` for themselves, and an escape of any
# other character keeps its backslash.
_ESCAPE_RE = re.compile(r"\\(.)", re.DOTALL)
_UNESCAPED = {"n": "\n", "r": "\r", "\\": "\\", '"': '"'}
_ESCAPED = str.maketrans({"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r"})


def unescape(body: str) -> str:
    """The string a quoted literal's body (the text between the quotes)
    stands for, decoded in one pass."""
    if "\\" not in body:
        return body
    return _ESCAPE_RE.sub(lambda m: _UNESCAPED.get(m.group(1), m.group(0)), body)


def quote(payload: str) -> str:
    """A string payload as a quoted literal that fits on one line."""
    return '"' + payload.translate(_ESCAPED) + '"'


# Rules end only at \r\n, \r or \n. str.splitlines would also break at
# characters such as \x0b, \x85 or \u2028, which a string constant may hold.
_LINE_BREAK_RE = re.compile(r"\r\n|\r|\n")


def parse_query(text: str) -> Query:
    """Parse rule text into a query AST.

    Multiple rules with an identical head form a union; the derived kind
    (cq / ucq / cqneg) follows from the parsed shape.
    """
    rules: list[tuple[str, tuple[str, ...], Conjunct]] = []
    for lineno, line in enumerate(_LINE_BREAK_RE.split(text), start=1):
        tokens = _tokenize_line(line, lineno)
        if not tokens:
            continue
        parser = _RuleParser(tokens, lineno)
        rules.append(parser.parse_rule())
    if not rules:
        raise QuerySyntaxError("no rule found", 1, 1)
    head, free_vars, _ = rules[0]
    for other_head, other_vars, _ in rules[1:]:
        if other_head != head or other_vars != free_vars:
            raise MismatchedHeads(
                f"rule head {other_head}({', '.join(other_vars)}) does not match "
                f"{head}({', '.join(free_vars)})"
            )
    return Query(head, free_vars, tuple(c for _, _, c in rules))


def render_term(term: Term) -> str:
    if isinstance(term, Variable):
        return term.name
    if isinstance(term.payload, int):
        return str(term.payload)
    return quote(term.payload)


def render_query(query: Query) -> str:
    """Text form of a query; parse_query(render_query(q)) is structurally q."""
    lines = []
    head = f"{query.head}({', '.join(query.free_vars)})"
    for conjunct in query.conjuncts:
        body = ", ".join(
            ("" if lit.positive else "!")
            + f"{lit.atom.relation}({', '.join(render_term(t) for t in lit.atom.terms)})"
            for lit in conjunct.literals
        )
        lines.append(f"{head} :- {body}.")
    return "\n".join(lines) + "\n"


# --- single-atom evaluation --------------------------------------------------


def relation_of(atom: Atom, db: Database) -> Relation:
    """The relation an atom names; it must exist with the atom's arity."""
    relation = db.relations.get(atom.relation)
    if relation is None:
        raise UnknownRelation(f"relation {atom.relation} not in database")
    if relation.arity != len(atom.terms):
        raise ArityMismatch(
            f"atom {atom.relation}/{len(atom.terms)} vs relation arity {relation.arity}"
        )
    return relation


def sols_atom(atom: Atom, db: Database) -> list[tuple[int, ...]]:
    """The distinct assignments of the atom's variables that send it into the
    database, as value-index tuples over the sorted variables.

    Repeated variables impose equality between positions; constants act as
    selections, and a constant outside the domain selects nothing. Distinct
    rows that pass these checks bind distinct tuples.
    """
    relation = relation_of(atom, db)
    first: dict[str, int] = {}  # variable -> its first position
    fixed: list[tuple[int, int]] = []  # (position, the constant's index)
    repeats: list[tuple[int, int]] = []  # (position, its variable's first position)
    for pos, term in enumerate(atom.terms):
        if isinstance(term, Constant):
            value = db.value(term.payload)
            if value is None:
                return []
            fixed.append((pos, value.index))
        elif term.name in first:
            repeats.append((pos, first[term.name]))
        else:
            first[term.name] = pos
    rows = relation.rows
    if fixed or repeats:
        rows = [row for row in rows if all(row[p] == i for p, i in fixed)
                and all(row[p] == row[q] for p, q in repeats)]
    take = [first[v] for v in sorted(first)]
    if take == list(range(len(atom.terms))):
        return list(rows)
    return [tuple([row[p] for p in take]) for row in rows]


def satisfies_literal(literal: Literal, bindings: Mapping[str, int],
                      db: Database) -> bool:
    """Check one fully-bound literal against the database.

    `bindings` maps each of the literal's variables to a value index of this
    database; with the constants' indices they form the row looked up. A
    constant outside the active domain makes a positive literal false and a
    negative literal true.
    """
    relation = relation_of(literal.atom, db)
    row = []
    for term in literal.atom.terms:
        if isinstance(term, Constant):
            value = db.value(term.payload)
            if value is None:
                return not literal.positive
            row.append(value.index)
        else:
            row.append(bindings[term.name])
    present = tuple(row) in relation.rows
    return present if literal.positive else not present
