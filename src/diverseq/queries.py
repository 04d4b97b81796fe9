"""Query ASTs (conjunctive, unions, negation), a rule-text parser,
single-atom evaluation, and the one hash join of atoms' solutions.

The join (`join`) is depth first over blocks: it extends up to `_BLOCK`
partial assignments of one step together, each by its bucket, and spreads
the interpreter's cost per step over the block (vectorized execution, as in
Boncz, Zukowski and Nes, "MonetDB/X100", CIDR 2005). Its outputs, their
order and its refusal past a limit are those of the tuple-at-a-time search
it stands for. A block counts its members' buckets ahead of that search, so
when its count passes the limit the join walks again, a partial assignment
at a time at each step that counts, and skips the outputs it has handed
out: a refused join costs at most twice its work up to the refusal. A
caller that stops early has paid for at most one block per step.

Rule syntax, one rule per line, `#` starts a comment:

    Q(x, y) :- R(x, y), !S(x, 5), T("a", y).

Lowercase-initial identifiers are variables; integers and quoted strings are
constants. Several rules with the same head form a union. The head's variable
order is semantic: it fixes the column order of every answer.
"""

from __future__ import annotations

import collections
import itertools
import operator
import re
import sys
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

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


class _once:
    """A property computed on first access and stored in the instance's
    dictionary, which then answers every later access. A frozen dataclass
    leaves that dictionary writable, and its equality, hash and repr read
    only the fields. Unlike `functools.cached_property` on Python 3.11, it
    takes no lock."""

    def __init__(self, compute):
        self.compute = compute
        self.__doc__ = compute.__doc__

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.compute(instance)
        return value


@dataclass(frozen=True)
class Atom:
    relation: str
    terms: tuple[Term, ...]

    @_once
    def variables(self) -> frozenset[str]:
        return frozenset(t.name for t in self.terms if isinstance(t, Variable))


@dataclass(frozen=True)
class Literal:
    atom: Atom
    positive: bool = True

    @_once
    def variables(self) -> frozenset[str]:
        return self.atom.variables


@dataclass(frozen=True)
class Conjunct:
    """One disjunct: a sequence of literals sharing the query's free variables."""

    literals: tuple[Literal, ...]

    @_once
    def variables(self) -> frozenset[str]:
        return frozenset().union(*(lit.variables for lit in self.literals))

    @_once
    def positive_variables(self) -> frozenset[str]:
        return frozenset().union(*(lit.variables for lit in self.literals if lit.positive))

    @_once
    def positive_atoms(self) -> tuple[Atom, ...]:
        return tuple(lit.atom for lit in self.literals if lit.positive)

    @_once
    def negative_literals(self) -> tuple[Literal, ...]:
        return tuple(lit for lit in self.literals if not lit.positive)

    def has_negation(self) -> bool:
        return bool(self.negative_literals)


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

    @_once
    def relations(self) -> frozenset[str]:
        """The names of the relations the query's literals mention."""
        return frozenset(lit.atom.relation for c in self.conjuncts for lit in c.literals)

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
        raise QuerySyntaxError(_int_limit_message(text), line, column) from None


def _int_limit_message(text: str) -> str:
    """Why `int` refuses an integer literal of the grammar."""
    return (f"integer literal of {len(text.lstrip('-'))} digits exceeds the limit of "
            f"{sys.get_int_max_str_digits()}")


# One token and the whitespace before it; `findall` reads a line's tokens in
# one pass. The end of the line is an empty token, or a comment followed by
# one. Punctuation, `-` and `:` on their own, a `"` that opens no string and
# any other character no token starts with fall to the one-character
# alternative, and the parser tells them apart.
_TOKEN_RE = re.compile(
    rf"\s*(:-|{STRING_LITERAL}|{INT_LITERAL}|[A-Za-z_][A-Za-z0-9_]*|[^\s#]|\#.*|$)")
_IDENT_START = frozenset("ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz_")
_INT_START = frozenset("-0123456789")
# The one-character tokens the grammar has; any other is a stray character.
_SINGLES = _IDENT_START | frozenset("0123456789(),.!")


def _tokens(line: str) -> list[str]:
    """The line's tokens, then one or two empty tokens that mark its end;
    a comment is blanked to one of them."""
    tokens = _TOKEN_RE.findall(line)
    if tokens[-2:-1] and tokens[-2][:1] == "#":
        tokens[-2] = ""
    return tokens


def _syntax_error(message: str, line: str, lineno: int, at: int) -> QuerySyntaxError:
    """The error for `message` at token `at` of the line, or past its last
    token at the end of that token. A stray character anywhere in the line
    is reported instead, at its own column, as no rule on the line can
    parse."""
    starts, end = [], 1
    for m in _TOKEN_RE.finditer(line):
        token = m.group(1)
        if not token or token[0] == "#":
            break
        if len(token) == 1 and token not in _SINGLES:
            return QuerySyntaxError(f"unexpected character {token!r}", lineno, m.start(1) + 1)
        starts.append(m.start(1) + 1)
        end = m.end(1) + 1
    return QuerySyntaxError(message, lineno, starts[at] if at < len(starts) else end)


def _parse_rule(tokens: list[str], line: str,
                lineno: int) -> tuple[str, tuple[str, ...], Conjunct]:
    """One rule from the line's tokens (see `_tokens`)."""

    def fail(message: str, at: int) -> QuerySyntaxError:
        return _syntax_error(message, line, lineno, at)

    head = tokens[0]
    if head[0] not in _IDENT_START:
        raise fail("expected 'ident'", 0)
    if tokens[1] != "(":
        raise fail("expected '('", 1)
    i = 2
    head_vars: list[str] = []
    if tokens[i] and tokens[i] != ")":
        while True:
            name = tokens[i]
            if name[:1] not in _IDENT_START:
                raise fail("expected 'ident'", i)
            if not name[0].islower() or name in head_vars:
                problem = "is repeated" if name in head_vars else "must be a variable"
                raise fail(f"head term {name!r} {problem}", i)
            head_vars.append(name)
            i += 1
            if tokens[i] != ",":
                break
            i += 1
    if tokens[i] != ")":
        raise fail("expected ')'", i)
    if tokens[i + 1] != ":-":
        raise fail("expected 'implies'", i + 1)
    i += 2
    literals: list[Literal] = []
    while True:
        positive = tokens[i] != "!"
        if not positive:
            i += 1
        name = tokens[i]
        if name[:1] not in _IDENT_START:
            raise fail("expected 'ident'", i)
        if tokens[i + 1] != "(":
            raise fail("expected '('", i + 1)
        i += 2
        terms: list[Term] = []
        if tokens[i] and tokens[i] != ")":
            while True:
                token = tokens[i]
                first = token[:1]
                if not token:
                    raise fail("expected a term", i)
                if first in _INT_START and token != "-":
                    try:
                        terms.append(Constant(int(token)))
                    except ValueError:  # more digits than `int` converts
                        raise fail(_int_limit_message(token), i) from None
                elif first == '"' and len(token) > 1:
                    terms.append(Constant(unescape(token[1:-1])))
                elif first in _IDENT_START:
                    if not first.islower():
                        raise fail(f"term {token!r} is neither a variable "
                                   f"(lowercase-initial) nor a constant", i)
                    terms.append(Variable(token))
                else:
                    raise fail(f"unexpected token {token!r} in term position", i)
                i += 1
                if tokens[i] != ",":
                    break
                i += 1
        if tokens[i] != ")":
            raise fail("expected ')'", i)
        literals.append(Literal(Atom(name, tuple(terms)), positive))
        i += 1
        if tokens[i] != ",":
            break
        i += 1
    if tokens[i] != ".":
        raise fail("expected '.'", i)
    if tokens[i + 1]:
        raise fail("trailing input after rule", i + 1)
    return head, tuple(head_vars), Conjunct(tuple(literals))


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
        tokens = _tokens(line)
        if tokens[0]:
            rules.append(_parse_rule(tokens, line, lineno))
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


# --- single-atom evaluation and the join -------------------------------------


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


# The most partial assignments the join extends at one step together.
_BLOCK = 64


class _PastLimit(Exception):
    """A block walk counted past the join's limit, ahead of the depth-first
    search it stands for."""


def join(inputs: Sequence[tuple[Sequence[str], Sequence[tuple[int, ...]]]], order: Sequence[str],
         limit: int, refusal: Exception) -> Iterator[tuple[int, ...]]:
    """Lazily hash-join relations given as (variables, index rows), each
    over distinct variables, into index tuples over `order`, some of their
    variables: one per joint assignment, so a tuple repeats when `order`
    leaves a variable out or an input repeats a row. The inputs are taken
    in connected order: each next one is the first that shares a bound
    variable, or else the first left. Its rows are bucketed on the shared
    variables: an input that shares none is one bucket, and one whose
    variables are all bound only filters, so its buckets hold a count of
    empty extensions. An empty input ends the join at once.

    The outputs, and `refusal` once more than `limit` partial assignments
    are built, come as from a depth-first search that extends one partial
    assignment at a time by its bucket, counting the bucket when the step
    binds a variable. The walk extends a block of up to `_BLOCK` partial
    assignments of one step at a time instead, in that search's order, and
    so counts a block's siblings ahead of it. Its outputs so far are the
    search's first outputs, which the search reaches at a count no higher.
    So when a block passes the limit, the join walks again, one partial
    assignment at a time at each binding step (a filter step counts
    nothing, and keeps its blocks), skips the outputs it has handed out,
    and raises `refusal` where the search does: a refused join costs at
    most twice the work up to its refusal. A caller that stops early has
    paid for at most one block per step beyond its last output."""
    slot: dict[str, int] = {}
    steps = []
    pending = list(inputs)
    while pending:
        n = next((n for n, (vs, _) in enumerate(pending) if not slot.keys().isdisjoint(vs)), 0)
        variables, rows = pending.pop(n)
        shared = [j for j, v in enumerate(variables) if v in slot]
        new = [j for j, v in enumerate(variables) if v not in slot]
        extension = _tuple_of(new)
        if not shared:
            bucket = list(map(extension, rows))
            buckets = {(): bucket} if bucket else {}
        elif not new:
            buckets = {key: [()] * count
                       for key, count in collections.Counter(map(_key_of(shared), rows)).items()}
        else:
            key = _key_of(shared)
            buckets = {}
            for row in rows:
                buckets.setdefault(key(row), []).append(extension(row))
        if not buckets:
            return
        steps.append((_key_of([slot[variables[j]] for j in shared]), buckets, bool(new)))
        for j in new:
            slot[variables[j]] = len(slot)
    positions = [slot[v] for v in order]
    # None when `order` is every variable in the order bound: a partial
    # assignment of the last step is its own output.
    get = None if positions == list(range(len(slot))) else _tuple_of(positions)
    if not steps:
        yield ()
        return
    handed = 0
    try:
        for outputs in _walk(steps, get, limit, [_BLOCK] * len(steps), _PastLimit()):
            handed += len(outputs)
            yield from outputs
    except _PastLimit:
        sizes = [1 if binds else _BLOCK for _, _, binds in steps]
        outputs = itertools.chain.from_iterable(_walk(steps, get, limit, sizes, refusal))
        yield from itertools.islice(outputs, handed, None)


def _walk(steps, get, limit: int, sizes: list[int],
          refusal: Exception) -> Iterator[list[tuple[int, ...]]]:
    """The join's outputs over its planned `steps`, as lists: a depth-first
    walk over blocks of up to `sizes[i]` partial assignments at step i. A
    block probes each assignment's bucket, counts the buckets on a binding
    step (raising `refusal` past `limit`), and extends each assignment by
    its bucket in order. The extensions go on the stack as one list, whose
    blocks are taken in order, each walked to the end before the next. At
    the last step a block's outputs are handed out in order."""
    last = len(steps) - 1
    built = 0
    # (a step's partial assignments, where its next block starts, the step)
    stack = [([()], 0, 0)]
    while stack:
        parts, start, step = stack[-1]
        end = start + sizes[step]
        if end < len(parts):
            stack[-1] = (parts, end, step)
        else:
            stack.pop()
        block = parts[start:end]
        probe, buckets, binds = steps[step]
        found = list(map(buckets.get, map(probe, block), itertools.repeat(())))
        if binds:
            built += sum(map(len, found))
            if built > limit:
                raise refusal
        extended = [part + b for part, bucket in zip(block, found) for b in bucket]
        if step < last:
            if extended:
                stack.append((extended, 0, step + 1))
        elif extended:
            yield extended if get is None else list(map(get, extended))


def _key_of(positions: Sequence[int]):
    """A row's entries at `positions` as a key: for one position, the entry."""
    if not positions:
        return lambda row: ()
    return operator.itemgetter(*positions)


def _tuple_of(positions: Sequence[int]):
    """A row's entries at `positions` as a tuple."""
    if len(positions) == 1:
        return lambda row, i=positions[0]: (row[i],)
    return _key_of(positions)
