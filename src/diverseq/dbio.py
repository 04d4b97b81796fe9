"""Loading and writing databases and queries.

Two database formats produce identical instances:

  * a fact file, one fact per line: `R(1, 2).` with integers or quoted
    strings as values, `#` starting a comment;
  * a directory of per-relation CSV files (`R.csv`, no header, arity
    inferred from the first record).

A fact file is read whole. When it holds only integer facts and blank
lines, with spaces and tabs as its only whitespace inside a line, it is
read relation by relation: one regular-expression pass checks the whole
text, string operations split it into each relation's value lists, and
each relation's values are converted in one call and interned together.
Any other file (comments, quoted strings, other whitespace, or an error
anywhere) is parsed line by line, and that parser gives every error its
message, line and column. Both paths give each relation as its arity and
its values end to end, and intern relations and values in the same order:
relations by first fact, values row by row within a relation, in file
order. In both formats an integer too long for `int` is a
QuerySyntaxError at its line.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import os
import re
from typing import Iterable, Iterator

from .errors import QuerySyntaxError
from .model import Database, Payload
from .queries import (INT_LITERAL, STRING_LITERAL, Constant, Query, parse_int_literal,
                      parse_query, render_query, render_term, unescape)

_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
_FACT_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*\.\s*$")
_VALUE_RE = re.compile(rf"\s*(?:({INT_LITERAL})|({STRING_LITERAL}))\s*(?:,|$)")
# Longest prefix made of whole quoted strings and characters other than `"`
# and `#`: what precedes a comment.
_BEFORE_COMMENT_RE = re.compile(rf'(?:[^"#]|{STRING_LITERAL})*')
# One line of a file of integer facts: a fact or nothing, then the line
# break or the end of the text. Only spaces and tabs count as whitespace
# here: `\s` also matches characters such as `\x1c`, which `int` refuses.
# Deleting its matches leaves nothing of a file of such lines, and `sub`
# with a plain replacement builds no match object per line. It runs to the
# end of the text, so a file with a quoted string or a comment is left to
# the line parser before it.
_INT_LINE_RE = re.compile(
    rf"[ \t]*(?:[A-Za-z_][A-Za-z0-9_]*[ \t]*\("
    rf"[ \t]*{INT_LITERAL}[ \t]*(?:,[ \t]*{INT_LITERAL}[ \t]*)*"
    rf"\)[ \t]*\.[ \t]*)?(?:\n|\Z)")
_BLANKS = str.maketrans("", "", " \t\n")
_NAME, _BODY = operator.itemgetter(0), operator.itemgetter(1)


def _strip_quoted_comment(line: str) -> str:
    """A line holding a quoted string and a `#` without its comment; a `#`
    inside a string stays."""
    end = _BEFORE_COMMENT_RE.match(line).end()
    if line.startswith('"', end):
        return line  # unterminated string: the fact parser reports it whole
    return line[:end]


def _parse_fact_values(body: str, lineno: int, line: str) -> list[Payload]:
    values: list[Payload] = []
    trimmed = body.rstrip()
    if not trimmed:
        return values
    if trimmed.endswith(","):  # as in query text, a value follows every comma
        raise QuerySyntaxError(f"value list {body!r} ends in a comma", lineno,
                               line.index("(") + len(trimmed) + 1)
    pos = 0
    while pos < len(body):
        m = _VALUE_RE.match(body, pos)
        if m is None:
            raise QuerySyntaxError(f"bad value list {body!r}", lineno, line.index("(") + pos + 2)
        if m.group(1) is not None:
            column = line.index("(") + m.start(1) + 2
            values.append(parse_int_literal(m.group(1), lineno, column))
        else:
            values.append(unescape(m.group(2)[1:-1]))
        pos = m.end()
    return values


def load_database(path: str) -> Database:
    """Load a database from a fact file or a directory of CSV files."""
    if os.path.isdir(path):
        return _load_csv_dir(path)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    facts = _integer_facts(text)
    if facts is None:
        facts = _facts_by_line(text.split("\n"))
    del text  # released before the relations are built
    db = Database()
    for name, (arity, values) in facts.items():
        if arity:
            db.add_flat(name, arity, values)
        else:
            db.add_relation(name, 0, [()])
    return db


def _integer_facts(text: str) -> dict[str, tuple[int, list[int]]] | None:
    """Each relation of a file of integer facts as (arity, its values end to
    end), read relation by relation; None when the text is anything else
    (see the module docstring), or when a relation has rows of two arities
    or a literal `int` refuses, so that the line parser reports it."""
    if '"' in text or "#" in text or _INT_LINE_RE.sub("", text):
        return None
    # Without blanks, which no literal holds, the text is facts `R(1,2).`
    # end to end: it splits at `(` and `).` into names and value lists.
    parts = text.translate(_BLANKS).replace(").", "(").split("(")
    bodies_of: dict[str, list[str]] = {}
    for name, run in itertools.groupby(zip(parts[:-1:2], parts[1::2]), _NAME):
        bodies_of.setdefault(name, []).extend(map(_BODY, run))
    del parts
    facts: dict[str, tuple[int, list[int]]] = {}
    for name in list(bodies_of):
        bodies = bodies_of.pop(name)  # freed once converted
        commas = set(map(str.count, bodies, itertools.repeat(",")))
        if len(commas) > 1:
            return None
        try:
            facts[name] = (commas.pop() + 1, _integers(bodies))
        except ValueError:  # more digits than `int` converts
            return None
    return facts


def _integers(bodies: list[str]) -> list[int]:
    """The integers of lists of comma-separated literals, in order: one JSON
    array read, unless a literal has a leading zero, which JSON refuses.
    ValueError when a literal has more digits than `int` converts."""
    try:
        return json.loads(f"[{','.join(bodies)}]")
    except ValueError:
        return [int(literal) for body in bodies for literal in body.split(",")]


def _facts_by_line(lines: Iterable[str]) -> dict[str, tuple[int, list[Payload]]]:
    """Each relation as (arity, its values end to end), parsed line by line
    (line 1 first); every error is a QuerySyntaxError at its line and
    column."""
    facts: dict[str, tuple[int, list[Payload]]] = {}
    for lineno, line in enumerate(lines, start=1):
        if '"' in line and "#" in line:
            stripped = _strip_quoted_comment(line).strip()
        else:
            stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        m = _FACT_RE.match(stripped)
        if m is None:
            raise QuerySyntaxError(f"bad fact {stripped!r}", lineno, 1)
        name = m.group(1)
        values = _parse_fact_values(m.group(2), lineno, line)
        arity, known = facts.setdefault(name, (len(values), []))
        if arity != len(values):
            raise QuerySyntaxError(
                f"relation {name} used with arities {arity} and {len(values)}",
                lineno,
                1,
            )
        known += values
    return facts


def _load_csv_dir(path: str) -> Database:
    db = Database()
    for filename in sorted(os.listdir(path)):
        if not filename.endswith(".csv"):
            continue
        name = filename[: -len(".csv")]
        with open(os.path.join(path, filename), newline="", encoding="utf-8") as handle:
            rows = list(csv_rows(csv.reader(handle)))
        if not rows:
            continue
        db.add_relation(name, len(rows[0]), rows)
    return db


def csv_rows(reader) -> Iterator[tuple[Payload, ...]]:
    """The payload rows of a `csv.reader`'s non-empty records. A field of
    canonical integer text (`str(int(t)) == t`, so `7` and `-7` but not
    `007`, `+7` or ` 7`) is an int, any other field the string as written; a
    string that is canonical integer text therefore reads back as an int.
    One with more digits than `int` converts from text is a
    QuerySyntaxError at the reader's line and the field's number, as the
    same literal is in a fact file."""
    for record in reader:
        if record:
            yield tuple([parse_int_literal(field, reader.line_num, n)
                         if _CANONICAL_INT_RE.fullmatch(field) else field
                         for n, field in enumerate(record, start=1)])


def dump_database(db: Database, path: str) -> None:
    """Write a database as a fact file, sorted for stable output."""
    lines = []
    for name in sorted(db.relations):
        for row in db.relations[name].sorted_rows():
            values = ", ".join(render_term(Constant(v.payload)) for v in row)
            lines.append(f"{name}({values}).")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


def load_query(path: str) -> Query:
    with open(path, encoding="utf-8") as handle:
        return parse_query(handle.read())


def dump_query(query: Query, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_query(query))
