"""Loading and writing databases and queries.

Two database formats produce identical instances:

  * a fact file, one fact per line: `R(1, 2).` with integers or quoted
    strings as values, `#` starting a comment;
  * a directory of per-relation CSV files (`R.csv`, no header, arity
    inferred from the first record).

Every input file (a fact file, a query file, a decomposition file, each
CSV file) is decoded by `decode`: its bytes read at once, decoded from
UTF-8 once, a byte-order mark at its start dropped; a decoding error names
the file and the byte's offset in it. `read_text` then reads `\\r\\n` and
`\\r` as `\\n`, as text mode reads them, for every file but a CSV file,
whose text goes to `csv.reader` as it is, so that a line break inside a
quoted field stays as written.

A file of only integer facts and blank lines, with spaces and tabs as its
only whitespace inside a line, is read in bulk: one regular-expression
`fullmatch` checks the whole text, string operations split it into each
relation's value lists, the kept relations' values are converted by one
JSON array read, and `Database.add_relations` interns them all in one pass.
Any other file (comments, quoted strings, other whitespace, or an error
anywhere) is parsed line by line: a well-formed line by one pattern match
and one `findall` over its values, and any other line by
`queries.parse_fact`, the atom rule of query text, which gives every error
the message, line and column that query text gives the same atom. Both
paths give the relations as (name, arity, number of rows) and their values
end to end, and intern relations and values in the same order: relations by
first fact, values row by row within a relation, in file order. A CSV
directory gives its relations the same way, in file name order, and
`load_database` builds every database from them with one
`Database.add_relations` call. In both formats an integer too long for
`int` is a QuerySyntaxError at its line.

`load_database` may be told which relations to keep, as the CLI keeps
those its query names. Every fact and CSV row is still checked (syntax,
arity, integer length), but only the kept relations are converted,
interned and stored.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import re
import sys
from typing import Collection, Iterable, Iterator

from .errors import QuerySyntaxError
from .model import Database, Payload, check_arity
from .queries import (IDENT, INT_LITERAL, STRING_LITERAL, Constant, Query, _possessive,
                      parse_fact, parse_int_literal, parse_query, render_query, render_term,
                      unescape)

_CANONICAL_INT_RE = re.compile(r"0|-?[1-9][0-9]*")
# A whole well-formed fact line, its comment included: the relation name and
# the values' text. Its values are then read by one `findall`. A line it
# refuses (blank, comment-only or malformed) goes to `queries.parse_fact`.
_VALUE = rf"(?:{INT_LITERAL}|{STRING_LITERAL})"
_FACT_LINE_RE = re.compile(
    rf"\s*({IDENT})\s*\(\s*({_VALUE}(?:\s*,\s*{_VALUE})*)?\s*\)\s*\.\s*(?:#.*)?")
_VALUES_RE = re.compile(_VALUE)
# A whole file of integer facts: lines of a fact (`_INT_FACT`) or nothing,
# each ended by a line break but the last; `~` stands for blanks. Only
# spaces and tabs count as blanks here: `\s` also matches characters such
# as `\x1c`, which `int` refuses. No character can both end one token and
# start the next, so every quantifier keeps what it takes (see
# `queries.STRING_LITERAL`), and a match over a long file holds no state per
# line.
_INT_FACT = rf"(?:{IDENT}+~\(~-?+[0-9]++~(?:,~-?+[0-9]++~)*+\)~\.~)?+"
_INT_FILE_RE = re.compile(_possessive(
    ("(?:~" + _INT_FACT + r"\n)*+~" + _INT_FACT).replace("~", r"[ \t]*+")))
_BLANKS = str.maketrans("", "", " \t\n")
_NAME, _BODY = operator.itemgetter(0), operator.itemgetter(1)
# Relations as (name, arity, number of rows), the rows with their repeats
# (one for arity 0), and all their values end to end, relation after
# relation: what `Database.add_relations` takes.
_Facts = tuple[list[tuple[str, int, int]], list[Payload]]


def decode(path: str) -> str:
    """A file's text: its bytes read at once and decoded from UTF-8 once, a
    byte-order mark at the start dropped. A decoding error names the file
    and gives the byte's offset in it."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        err.reason += f", in file {path}"
        raise
    return text[1:] if text[:1] == "\ufeff" else text


def read_text(path: str) -> str:
    """A file's text (see `decode`), with `\\r\\n` and `\\r` read as `\\n`,
    as in text mode."""
    text = decode(path)
    return text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text


def load_database(path: str, names: Collection[str] | None = None) -> Database:
    """Load a database from a fact file or a directory of CSV files.

    Every fact is checked, and a malformed one is an error at its line;
    given `names`, only the relations named there are converted, interned
    and stored, in the order they would be without it."""
    facts = _csv_facts(path, names) if os.path.isdir(path) else _fact_file(path, names)
    db = Database()
    db.add_relations(*facts)
    return db


def _fact_file(path: str, names: Collection[str] | None = None) -> _Facts:
    """The relations of a fact file (see `_Facts`), read in bulk or line by
    line (see the module docstring); its text is released on return, before
    the relations are built."""
    text = read_text(path)
    return _integer_facts(text, names) or _facts_by_line(text.split("\n"), names)


def _integer_facts(text: str, names: Collection[str] | None = None) -> _Facts | None:
    """The relations of a file of integer facts (see `_Facts`), read in bulk,
    and only those in `names` when given; None when the text is anything
    else (see the module docstring), or when a relation has rows of two
    arities or a fact body longer than the digits `int` converts, so that
    the line parser checks every line and reports the error at its column.
    No literal is longer than the body that holds it, nor a body than the
    text, so every other literal converts."""
    if _INT_FILE_RE.fullmatch(text) is None:
        return None
    # Without blanks, which no literal holds, the text is facts `R(1,2).`
    # end to end: it splits at `(` and `).` into names and value lists.
    parts = text.translate(_BLANKS).replace(").", "(").split("(")
    bodies_of: dict[str, list[str]] = {}
    for name, run in itertools.groupby(zip(parts[:-1:2], parts[1::2]), _NAME):
        bodies_of.setdefault(name, []).extend(map(_BODY, run))
    del parts
    limit = sys.get_int_max_str_digits()
    long = limit and len(text) > limit
    shapes, kept = [], []
    for name, bodies in bodies_of.items():
        commas = set(map(str.count, bodies, itertools.repeat(",")))
        if len(commas) > 1 or (long and max(map(len, bodies)) > limit):
            return None
        if names is None or name in names:
            shapes.append((name, commas.pop() + 1, len(bodies)))
            kept.append(bodies)
    return shapes, _integers(list(itertools.chain.from_iterable(kept)))


def _integers(bodies: list[str]) -> list[int]:
    """The integers of lists of comma-separated literals, in order: one JSON
    array read, unless a literal has a leading zero, which JSON refuses.
    Each literal has no more digits than `int` converts."""
    try:
        return json.loads(f"[{','.join(bodies)}]")
    except ValueError:
        return [int(literal) for body in bodies for literal in body.split(",")]


def _facts_by_line(lines: Iterable[str], names: Collection[str] | None = None) -> _Facts:
    """The relations of the lines (see `_Facts`), parsed line by line (line
    1 first), and only those in `names` when given; every line is checked,
    and every error is a QuerySyntaxError at its line and column."""
    facts: dict[str, tuple[int, list[Payload]]] = {}
    arities: dict[str, int] = {}
    limit = sys.get_int_max_str_digits()
    for lineno, line in enumerate(lines, start=1):
        m = _FACT_LINE_RE.fullmatch(line)
        if m is None:
            parsed = parse_fact(line, lineno)
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
                    parse_fact(line, lineno)  # raises at the literal
        arity = arities.setdefault(name, len(values))
        if arity != len(values):
            raise QuerySyntaxError(
                f"relation {name} used with arities {arity} and {len(values)}",
                lineno,
                1,
            )
        if names is None or name in names:
            facts.setdefault(name, (arity, []))[1].extend(values)
    # A relation of arity 0 holds one row, however many facts state it.
    shapes = [(name, arity, len(values) // arity if arity else 1)
              for name, (arity, values) in facts.items()]
    return shapes, list(itertools.chain.from_iterable(values for _, values in facts.values()))


def _csv_facts(path: str, names: Collection[str] | None = None) -> _Facts:
    """The relations of a directory's CSV files (see `_Facts`), one per
    file `R.csv` with rows, in file name order, and only those in `names`
    when given; every file is read and checked."""
    import csv
    import io

    shapes, kept = [], []
    for filename in sorted(os.listdir(path)):
        if not filename.endswith(".csv"):
            continue
        name = filename[: -len(".csv")]
        text = decode(os.path.join(path, filename))
        rows = list(csv_rows(csv.reader(io.StringIO(text, newline=""))))
        if rows:
            check_arity(name, len(rows[0]), rows)
            if names is None or name in names:
                shapes.append((name, len(rows[0]), len(rows)))
                kept.extend(rows)
    return shapes, list(itertools.chain.from_iterable(kept))


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
    """Write a database as a fact file, sorted for stable output.

    A relation without rows gets no line, and no fact file can declare
    one: after a load it is gone, and a query that names it is refused
    with UnknownRelation."""
    lines = []
    for name in sorted(db.relations):
        for row in db.relations[name].sorted_rows():
            values = ", ".join(render_term(Constant(v.payload)) for v in row)
            lines.append(f"{name}({values}).")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + ("\n" if lines else ""))


def load_query(path: str) -> Query:
    return parse_query(read_text(path))


def dump_query(query: Query, path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(render_query(query))
