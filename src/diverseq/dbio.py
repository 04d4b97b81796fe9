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
anywhere) is parsed line by line: a well-formed line by one pattern match
and one `findall` over its values, and any other line token by token, which
gives every error its message, line and column. Both paths give each
relation as its arity and its values end to end, and intern relations and
values in the same order: relations by first fact, values row by row
within a relation, in file order. In both formats an integer too long for
`int` is a QuerySyntaxError at its line.

`load_database` may be told which relations to keep, as the CLI keeps
those its query names. Every fact and CSV row is still checked (syntax,
arity, integer length), but only the kept relations are converted,
interned and stored.
"""

from __future__ import annotations

import csv
import itertools
import json
import operator
import os
import re
import sys
from typing import Collection, Iterable, Iterator

from .errors import QuerySyntaxError
from .model import Database, Payload, check_arity
from .queries import (INT_LITERAL, STRING_LITERAL, Constant, Query, parse_int_literal,
                      parse_query, render_query, render_term, unescape)

_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
_FACT_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*\.\s*$")
_VALUE_RE = re.compile(rf"\s*(?:({INT_LITERAL})|({STRING_LITERAL}))\s*(?:,|$)")
# A whole well-formed fact line, its comment included: the relation name and
# the values' text. Its values are then read by one `findall`. A line it
# refuses (blank, comment-only or malformed) goes to `_parse_fact_line`.
_VALUE = rf"(?:{INT_LITERAL}|{STRING_LITERAL})"
_FACT_LINE_RE = re.compile(
    rf"\s*([A-Za-z_][A-Za-z0-9_]*)\s*\(\s*({_VALUE}(?:\s*,\s*{_VALUE})*)?\s*\)\s*\.\s*(?:#.*)?")
_VALUES_RE = re.compile(_VALUE)
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


def load_database(path: str, names: Collection[str] | None = None) -> Database:
    """Load a database from a fact file or a directory of CSV files.

    Every fact is checked, and a malformed one is an error at its line;
    given `names`, only the relations named there are converted, interned
    and stored, in the order they would be without it."""
    if os.path.isdir(path):
        return _load_csv_dir(path, names)
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    facts = _integer_facts(text, names)
    if facts is None:
        facts = _facts_by_line(text.split("\n"), names)
    del text  # released before the relations are built
    db = Database()
    for name, (arity, values) in facts.items():
        if arity:
            db.add_flat(name, arity, values)
        else:
            db.add_relation(name, 0, [()])
    return db


def _integer_facts(text: str, names: Collection[str] | None = None
                   ) -> dict[str, tuple[int, list[int]]] | None:
    """Each relation of a file of integer facts as (arity, its values end to
    end), read relation by relation, and only those in `names` when given;
    None when the text is anything else (see the module docstring), or when
    a relation has rows of two arities or a literal `int` refuses, so that
    the line parser reports it."""
    if '"' in text or "#" in text or _INT_LINE_RE.sub("", text):
        return None
    # Without blanks, which no literal holds, the text is facts `R(1,2).`
    # end to end: it splits at `(` and `).` into names and value lists.
    parts = text.translate(_BLANKS).replace(").", "(").split("(")
    bodies_of: dict[str, list[str]] = {}
    for name, run in itertools.groupby(zip(parts[:-1:2], parts[1::2]), _NAME):
        bodies_of.setdefault(name, []).extend(map(_BODY, run))
    del parts
    limit = sys.get_int_max_str_digits()
    facts: dict[str, tuple[int, list[int]]] = {}
    for name in list(bodies_of):
        bodies = bodies_of.pop(name)  # freed once converted
        commas = set(map(str.count, bodies, itertools.repeat(",")))
        if len(commas) > 1:
            return None
        wanted = names is None or name in names
        # A relation not wanted is converted only when a literal in it may
        # be too long for `int`, to find out.
        if not wanted and not (limit and max(map(len, bodies)) > limit):
            continue
        try:
            values = _integers(bodies)
        except ValueError:  # more digits than `int` converts
            return None
        if wanted:
            facts[name] = (commas.pop() + 1, values)
    return facts


def _integers(bodies: list[str]) -> list[int]:
    """The integers of lists of comma-separated literals, in order: one JSON
    array read, unless a literal has a leading zero, which JSON refuses.
    ValueError when a literal has more digits than `int` converts."""
    try:
        return json.loads(f"[{','.join(bodies)}]")
    except ValueError:
        return [int(literal) for body in bodies for literal in body.split(",")]


def _facts_by_line(lines: Iterable[str], names: Collection[str] | None = None
                   ) -> dict[str, tuple[int, list[Payload]]]:
    """Each relation as (arity, its values end to end), parsed line by line
    (line 1 first), and only those in `names` when given; every line is
    checked, and every error is a QuerySyntaxError at its line and column."""
    facts: dict[str, tuple[int, list[Payload]]] = {}
    arities: dict[str, int] = {}
    limit = sys.get_int_max_str_digits()
    for lineno, line in enumerate(lines, start=1):
        m = _FACT_LINE_RE.fullmatch(line)
        if m is None:
            parsed = _parse_fact_line(line, lineno)
            if parsed is None:
                continue
            name, values = parsed
        else:
            name, body = m.groups()
            values = _VALUES_RE.findall(body) if body else []
            if names is None or name in names or (
                    limit and max(map(len, values), default=0) > limit):
                try:
                    values = [unescape(v[1:-1]) if v[0] == '"' else int(v) for v in values]
                except ValueError:  # more digits than `int` converts
                    _parse_fact_line(line, lineno)  # raises at the literal
        arity = arities.setdefault(name, len(values))
        if arity != len(values):
            raise QuerySyntaxError(
                f"relation {name} used with arities {arity} and {len(values)}",
                lineno,
                1,
            )
        if names is None or name in names:
            facts.setdefault(name, (arity, []))[1].extend(values)
    return facts


def _parse_fact_line(line: str, lineno: int) -> tuple[str, list[Payload]] | None:
    """A line's fact as (relation name, values) read token by token, None
    for a blank or comment-only line; an error is a QuerySyntaxError at its
    column. `_facts_by_line` calls it for the lines its one-pass pattern
    refuses."""
    if '"' in line and "#" in line:
        stripped = _strip_quoted_comment(line).strip()
    else:
        stripped = line.split("#", 1)[0].strip()
    if not stripped:
        return None
    m = _FACT_RE.match(stripped)
    if m is None:
        raise QuerySyntaxError(f"bad fact {stripped!r}", lineno, 1)
    return m.group(1), _parse_fact_values(m.group(2), lineno, line)


def _load_csv_dir(path: str, names: Collection[str] | None) -> Database:
    db = Database()
    for filename in sorted(os.listdir(path)):
        if not filename.endswith(".csv"):
            continue
        name = filename[: -len(".csv")]
        with open(os.path.join(path, filename), newline="", encoding="utf-8") as handle:
            rows = list(csv_rows(csv.reader(handle)))
        if not rows:
            continue
        if names is None or name in names:
            db.add_relation(name, len(rows[0]), rows)
        else:
            check_arity(name, len(rows[0]), rows)
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
