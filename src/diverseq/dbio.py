"""Loading and writing databases and queries.

Two database formats produce identical instances:

  * a fact file, one fact per line: `R(1, 2).` with integers or quoted
    strings as values, `#` starting a comment;
  * a directory of per-relation CSV files (`R.csv`, no header, arity
    inferred from the first record).
"""

from __future__ import annotations

import csv
import os
import re

from .errors import QuerySyntaxError
from .model import Database, Payload
from .queries import (INT_LITERAL, STRING_LITERAL, Constant, Query, parse_query,
                      render_query, render_term, unescape)

_FACT_RE = re.compile(r"^\s*([A-Za-z_][A-Za-z0-9_]*)\s*\((.*)\)\s*\.\s*$")
_VALUE_RE = re.compile(rf"\s*(?:({INT_LITERAL})|({STRING_LITERAL}))\s*(?:,|$)")
# Longest prefix made of whole quoted strings and characters other than `"`
# and `#`: what precedes a comment.
_BEFORE_COMMENT_RE = re.compile(rf'(?:[^"#]|{STRING_LITERAL})*')


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
            values.append(int(m.group(1)))
        else:
            values.append(unescape(m.group(2)[1:-1]))
        pos = m.end()
    return values


def load_database(path: str) -> Database:
    """Load a database from a fact file or a directory of CSV files."""
    if os.path.isdir(path):
        return _load_csv_dir(path)
    db = Database()
    pending: dict[str, list[tuple[Payload, ...]]] = {}
    arity: dict[str, int] = {}
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
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
            values = tuple(_parse_fact_values(m.group(2), lineno, line))
            if name in arity and arity[name] != len(values):
                raise QuerySyntaxError(
                    f"relation {name} used with arities {arity[name]} and {len(values)}",
                    lineno,
                    1,
                )
            arity[name] = len(values)
            pending.setdefault(name, []).append(values)
    for name, rows in pending.items():
        db.add_relation(name, arity[name], rows)
    return db


def _load_csv_dir(path: str) -> Database:
    db = Database()
    for filename in sorted(os.listdir(path)):
        if not filename.endswith(".csv"):
            continue
        name = filename[: -len(".csv")]
        rows: list[tuple[Payload, ...]] = []
        with open(os.path.join(path, filename), newline="", encoding="utf-8") as handle:
            for record in csv.reader(handle):
                if not record:
                    continue
                rows.append(tuple(parse_csv_value(field) for field in record))
        if not rows:
            continue
        db.add_relation(name, len(rows[0]), rows)
    return db


def parse_csv_value(field: str) -> Payload:
    """A CSV field's payload: canonical integer text (`str(int(t)) == t`,
    so `7` and `-7` but not `007`, `+7` or ` 7`) is an int, any other field
    the string as written. A string that is canonical integer text therefore
    reads back as an int."""
    try:
        number = int(field)
    except ValueError:
        return field
    return number if str(number) == field else field


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
