import csv
import os
import re
import sys
import tempfile
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq import dbio, queries
from diverseq.cli import RunConfig, canonical_json, run
from diverseq.dbio import dump_database, dump_query, load_database, load_query
from diverseq.errors import QuerySyntaxError
from diverseq.model import Database
from diverseq.queries import (INT_LITERAL, STRING_LITERAL, Constant, parse_fact, parse_query,
                              render_query)
from diverseq.structure import format_decomposition, tree_decompose


def test_fact_file_round_trip(tmp_path):
    db = Database.from_rows({
        "Num": [(-3,), (0,), (12,)],
        "Mix": [(1, "free_1"), (-2, 'say "hi"'), (3, "back\\slash")],
    })
    path = tmp_path / "db.facts"
    dump_database(db, str(path))
    assert load_database(str(path)) == db


def test_fact_file_comments_and_blanks(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text("# header\n\nR(1, 2).  # trailing comment\nR(3, 4).\n")
    db = load_database(str(path))
    rows = db.relations["R"].payload_rows()
    assert rows == {(1, 2), (3, 4)}


def test_fact_file_hash_inside_strings(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text('R("a#b", 1).  # comment with "quotes"\nR("#", 2). # x\n')
    rows = load_database(str(path)).relations["R"].payload_rows()
    assert rows == {("a#b", 1), ("#", 2)}


def test_fact_file_unterminated_string_rejected(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text('R("a#b, 1).\n')
    with pytest.raises(QuerySyntaxError) as err:
        load_database(str(path))
    assert str(err.value) == "line 1, column 3: unexpected character '\"'"


# Adversarial payloads: comment and quote characters, backslashes, line
# breaks (written as escapes, since a fact file holds one fact per line),
# and strings that look like integers.
_PAYLOADS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(alphabet=st.sampled_from('#"\\ ,().07a-\r\nrn'), max_size=8),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
    st.integers(min_value=0, max_value=999).map(lambda i: f"{i:03d}"),
)


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(
    st.sampled_from(["R", "S_1", "t"]),
    st.integers(1, 3).flatmap(lambda arity: st.lists(
        st.tuples(*[_PAYLOADS] * arity), min_size=1, max_size=4)),
    min_size=1,
))
def test_fact_file_round_trip_adversarial_strings(rows):
    db = Database.from_rows(rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.facts")
        dump_database(db, path)
        assert load_database(path) == db


def test_fact_file_line_breaks_in_strings(tmp_path):
    db = Database.from_rows({"R": [("a\nb",), ("c\r\nd",), ("e\\nf",), ("\\",)]})
    path = tmp_path / "db.facts"
    dump_database(db, str(path))
    assert len(path.read_text().splitlines()) == 4
    assert load_database(str(path)) == db


def test_fact_file_rejects_garbage(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text("R(1, 2)\n")  # missing dot
    with pytest.raises(QuerySyntaxError):
        load_database(str(path))


def test_fact_file_rejects_mixed_arity(tmp_path):
    path = tmp_path / "db.facts"
    path.write_text("R(1).\nR(1, 2).\n")
    with pytest.raises(QuerySyntaxError):
        load_database(str(path))


def test_csv_values_parse_types(tmp_path):
    d = tmp_path / "db"
    d.mkdir()
    (d / "R.csv").write_text("-1,free_1\n2,taken_9\n")
    db = load_database(str(d))
    rows = db.relations["R"].payload_rows()
    assert rows == {(-1, "free_1"), (2, "taken_9")}


def test_csv_values_keep_non_canonical_integer_text(tmp_path):
    # only canonical integer text is an int: 007 and 7 are two rows
    d = tmp_path / "db"
    d.mkdir()
    (d / "R.csv").write_text("007\n7\n-0\n+7\n 8\n-12\n")
    db = load_database(str(d))
    rows = {p for (p,) in db.relations["R"].payload_rows()}
    assert rows == {"007", 7, "-0", "+7", " 8", -12}


def _is_canonical_int(text: str) -> bool:
    try:
        return str(int(text)) == text
    except ValueError:
        return False


_CSV_PAYLOADS = st.one_of(
    st.integers(min_value=-10**9, max_value=10**9),
    st.text(alphabet=st.sampled_from('0123456789-+ ,"\'\r\na#'), max_size=6)
    .filter(lambda t: not _is_canonical_int(t)),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6)
    .filter(lambda t: not _is_canonical_int(t)),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda width: st.lists(st.tuples(*[_CSV_PAYLOADS] * width), min_size=1, max_size=5)))
def test_csv_directory_round_trip(rows):
    # Rows written by `csv.writer` load back as written: canonical integer
    # text as ints, and any other field, however it is quoted, as the
    # string it was.
    with tempfile.TemporaryDirectory() as tmp:
        with open(os.path.join(tmp, "R.csv"), "w", newline="", encoding="utf-8") as handle:
            csv.writer(handle).writerows(rows)
        db = load_database(tmp)
    assert db.relations["R"].payload_rows() == set(rows)


def test_negative_integer_constants_in_queries():
    q = parse_query("Q(x) :- R(x, -1).")
    assert q.conjuncts[0].literals[0].atom.terms[1] == Constant(-1)
    assert parse_query(render_query(q)) == q


def test_query_file_round_trip(tmp_path):
    q = parse_query('Q(x) :- R(x, -5), !S(x, "a b").')
    path = tmp_path / "q.dq"
    dump_query(q, str(path))
    assert load_query(str(path)) == q


def test_fact_file_non_ascii_digit_is_not_an_integer(tmp_path):
    # Unquoted U+0663 would read as 3 and merge the two facts into one row.
    path = tmp_path / "db.facts"
    path.write_text("R(\u0663).\nR(3).\n", encoding="utf-8")
    with pytest.raises(QuerySyntaxError):
        load_database(str(path))
    path.write_text('R("\u0663").\nR(3).\n', encoding="utf-8")
    rows = {r[0] for r in load_database(str(path)).relations["R"].payload_rows()}
    assert rows == {"\u0663", 3}


@pytest.mark.parametrize("text", [
    "7", "\u0663", "007", "-0", "+7", "-", '"a#b"', '"\\\\"', '"\\n"', '"a\\"b"',
    '"\\q"', '"abc', '"ab\\"', "1,", "1, 2,", '"a",',
])
def test_fact_and_query_constants_share_one_grammar(tmp_path, text):
    # A constant reads the same in a fact file and in query text: both
    # give the same payload, or both reject it with the same message, at
    # columns 7 apart, the length of the query's `Q() :- `.
    path = tmp_path / "db.facts"
    path.write_text(f"R({text}).\n", encoding="utf-8")
    try:
        [[from_facts]] = load_database(str(path)).relations["R"].payload_rows()
    except QuerySyntaxError as err:
        from_facts = (str(err).partition(": ")[2], err.line, err.column + 7)
    try:
        [term] = parse_query(f"Q() :- R({text}).").conjuncts[0].literals[0].atom.terms
        from_query = term.payload
    except QuerySyntaxError as err:
        from_query = (str(err).partition(": ")[2], err.line, err.column)
    assert from_facts == from_query
    assert type(from_facts) is type(from_query)


def test_fact_trailing_comma_is_a_syntax_error_at_the_closing_paren(tmp_path):
    # Query text rejects `R(x,)` at its `)`; a fact file must not read
    # `R(1,)` as R(1), and reports it where query text does.
    path = tmp_path / "db.facts"
    for text, column in (("R(1,).", 5), ("  S(1, 2,).", 10), ('T("a,",).', 8)):
        path.write_text(text + "\n", encoding="utf-8")
        with pytest.raises(QuerySyntaxError) as err:
            load_database(str(path))
        assert (err.value.line, err.value.column) == (1, column)
    query = tmp_path / "q.dq"
    query.write_text("Q(x) :- R(x).\n", encoding="utf-8")
    path.write_text("R(1).\nR(2,).\n", encoding="utf-8")
    code, report = run(RunConfig(db_path=str(path), query_path=str(query), k=1, d=0,
                                 aggregator="sum"))
    assert code == 2 and report["error"]["code"] == "QuerySyntaxError"


# Files of integer facts, spelled every way the fact grammar allows: signs,
# leading zeros, `-0`, whitespace around every token, blank lines, LF, CRLF
# and CR line ends, with or without a final line end.
_PLAIN_SPACE = st.sampled_from(["", " ", "\t", " \t "])
# Whitespace to `\s` and `str.strip`, so the line parser skips it. The
# whole-text scan takes only spaces and tabs (`int` refuses `\x1c` to `\x1f`
# next to a digit), so a file holding one of these is read line by line.
_ODD_SPACE = st.sampled_from(["\x0b", "\x0c", "\x1c", "\x1f", "\x85", "\xa0",
                              "\u2028", "\u3000"])


@st.composite
def _int_literals(draw):
    n = draw(st.integers(-60, 60))
    zeros = "0" * draw(st.integers(0, 2))
    if n == 0 and draw(st.booleans()):
        return "-" + zeros + "0"
    return ("-" if n < 0 else "") + zeros + str(abs(n))


@st.composite
def integer_fact_files(draw, odd_space: bool):
    space = st.one_of(_PLAIN_SPACE, _ODD_SPACE) if odd_space else _PLAIN_SPACE
    arity = draw(st.dictionaries(st.sampled_from(["R", "S_1", "t"]), st.integers(1, 3),
                                 min_size=1))
    lines = []
    for _ in range(draw(st.integers(1, 12))):
        if draw(st.integers(0, 4)) == 0:
            lines.append(draw(space) + draw(space))
            continue
        name = draw(st.sampled_from(sorted(arity)))
        values = ",".join(draw(space) + draw(_int_literals()) + draw(space)
                          for _ in range(arity[name]))
        lines.append(f"{draw(space)}{name}{draw(space)}({values}){draw(space)}."
                     f"{draw(space)}")
    text = "".join(line + draw(st.sampled_from(["\n", "\r\n", "\r"])) for line in lines)
    return text.rstrip("\r\n") if draw(st.booleans()) else text


def _relations_of(facts):
    """What a reader's (shapes, values) stand for, built without `Database`:
    each relation's payload rows, in relation order, and the payloads in
    the order they are first met, one index per type and payload."""
    shapes, values = facts
    relations, start = {}, 0
    for name, arity, count in shapes:
        run = values[start:start + arity * count]
        start += arity * count
        relations[name] = {tuple(run[i:i + arity]) for i in range(0, len(run), arity)} \
            if arity else {()}
    assert start == len(values)
    return relations, [p for _, p in dict.fromkeys(zip(map(type, values), values))]


def _assert_loads_as(db, facts):
    relations, payloads = _relations_of(facts)
    assert [(name, r.payload_rows()) for name, r in db.relations.items()] == \
        list(relations.items())
    assert [(type(v.payload), v.payload) for v in db.values] == \
        [(type(p), p) for p in payloads]


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda odd: st.tuples(st.just(odd), integer_fact_files(odd))),
       st.sets(st.sampled_from(["R", "S_1", "t", "U"])))
def test_fact_file_reader_paths_agree(case, names):
    # The whole-text scan takes every plain file of integer facts and no file
    # with other whitespace, and gives what the line parser gives: the same
    # relations, rows and values, in the same order, with every relation or
    # only the drawn names kept.
    odd_space, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.facts")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with open(path, encoding="utf-8") as handle:
            read = handle.read()
        db = load_database(path)
        named = load_database(path, names)
    whole = dbio._integer_facts(read)
    if not odd_space:
        assert whole is not None
    elif any(c not in " \t\n" and c.isspace() for c in read):
        assert whole is None
    for kept, loaded in ((None, db), (names, named)):
        by_line = dbio._facts_by_line(read.split("\n"), kept)
        if whole is not None:
            assert dbio._integer_facts(read, kept) == by_line
        _assert_loads_as(loaded, by_line)


@pytest.mark.parametrize("text, scanned", [
    ("R(1, 2).\r\nR(3, 4).\r\n", False),  # as read without newline translation
    ("R(1, 2).\nR(3, 4).", True),  # no final newline
    ("\tR\t(\t1 ,\t2\t)\t.\t\n \t\nR(3,4).\n", True),
    ("R(007, -0).\nS(2).\nR(-05, 1).\nS(7).\n", True),  # leading zeros, relations interleaved
    ("R().\n", False),
    ("R(- 1).\n", False),
    ("R(1-2).\n", False),
    ("R(+1).\n", False),
    ("R(\u0663).\n", False),  # ARABIC-INDIC DIGIT THREE, which `int` accepts
    ("R(1).\nR(" + "9" * 5000 + ").\n", False),  # more digits than `int` converts
    ("R(1, 2).\nR(3).\n", False),  # mixed arity
    ("S(1).\nR(1, 2, 3).\nS(2).\nR(4, 5, 6).\nR(7, 8, 9, 10).\n", False),
    ("R(1, 2).  # a comment\n", False),
    ('R(1, 2).\nR("3", 4).\n', False),
    ("R(1, 2).\x1c\n", False),  # whitespace to `str.strip`, not to the scan
], ids=["crlf", "no-final-newline", "tabs", "leading-zeros", "empty-row", "spaced-minus",
        "inner-minus", "plus", "non-ascii-digit", "long-integer", "mixed-arity",
        "mixed-arity-later", "comment", "quoted-string", "other-whitespace"])
def test_fact_file_reader_edge_cases(tmp_path, text, scanned):
    # The whole-text scan takes the file, and gives what the line parser
    # gives with the same value order, or leaves it to the line parser; a
    # load through a file (newlines translated) agrees with the line
    # parser on the text as read, in its relations, values and errors.
    whole = dbio._integer_facts(text)
    assert (whole is not None) == scanned
    try:
        by_line = dbio._facts_by_line(text.split("\n"))
    except QuerySyntaxError as err:
        by_line = err
    if whole is not None:
        assert whole == by_line
    path = tmp_path / "db.facts"
    path.write_bytes(text.encode("utf-8"))
    read = path.read_text(encoding="utf-8")
    try:
        reference = dbio._facts_by_line(read.split("\n"))
    except QuerySyntaxError as err:
        with pytest.raises(QuerySyntaxError) as got:
            load_database(str(path))
        assert (str(got.value), got.value.line, got.value.column) == \
            (str(err), err.line, err.column)
        return
    _assert_loads_as(load_database(str(path)), reference)


_GOOD_FACTS = "".join(f"G({i}, {-i}).\n" for i in range(1000))


@pytest.mark.parametrize("prefix", ["", _GOOD_FACTS, "# comment\n"],
                         ids=["first", "after-1000-facts", "after-a-comment"])
@pytest.mark.parametrize("bad, line, column, message", [
    ("R(1, 2).\nR(3).\n", 2, 1, "relation R used with arities 2 and 1"),
    ("R(1,).\n", 1, 5, "unexpected token ')' in term position"),
    ("R(1). S(2).\n", 1, 7, "trailing input after fact"),
    ("R(1, 2)\n", 1, 8, "expected '.'"),
    ("R(1 2).", 1, 5, "expected ')'"),
])
def test_fact_file_errors_keep_their_position(tmp_path, prefix, bad, line, column, message):
    # The same message, line and column whether the file is read by the
    # whole-text scan up to the error or by the line parser from the start.
    path = tmp_path / "db.facts"
    path.write_text(prefix + bad, encoding="utf-8")
    with pytest.raises(QuerySyntaxError) as err:
        load_database(str(path))
    line += prefix.count("\n")
    assert str(err.value) == f"line {line}, column {column}: {message}"
    assert (err.value.line, err.value.column) == (line, column)


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int converts any length")
def test_integer_literal_past_the_int_limit_is_a_syntax_error(tmp_path):
    # `int` refuses text of more digits than the interpreter's limit; the
    # literal is refused at its position, and the limit stays.
    limit = sys.get_int_max_str_digits()
    huge = "-" + "7" * (limit + 1)
    message = f"integer literal of {limit + 1} digits exceeds the limit of {limit}"
    path = tmp_path / "db.facts"
    for prefix in ("", _GOOD_FACTS, "# comment\n"):
        path.write_text(f"{prefix}R(1, {huge}).\n", encoding="utf-8")
        with pytest.raises(QuerySyntaxError) as err:
            load_database(str(path))
        line = prefix.count("\n") + 1
        assert str(err.value) == f"line {line}, column 6: {message}"
    with pytest.raises(QuerySyntaxError) as err:
        parse_query(f"Q(x) :- R(x, {huge}).")
    assert str(err.value) == f"line 1, column 14: {message}"
    query = tmp_path / "q.dq"
    query.write_text("Q(x) :- R(x, y).\n", encoding="utf-8")
    code, report = run(RunConfig(db_path=str(path), query_path=str(query), k=1, d=0))
    assert (code, report["error"]["code"]) == (2, "QuerySyntaxError")
    assert sys.get_int_max_str_digits() == limit


@pytest.mark.skipif(sys.get_int_max_str_digits() == 0, reason="int converts any length")
def test_csv_integer_past_the_int_limit_is_a_syntax_error(tmp_path):
    # Both CSV readers refuse canonical integer text longer than `int`
    # converts, at its line and field number, as a fact file refuses the
    # same literal. Text at the limit is an int, and text that is not
    # canonical stays a string, however long.
    limit = sys.get_int_max_str_digits()
    huge = "-" + "7" * (limit + 1)
    message = f"integer literal of {limit + 1} digits exceeds the limit of {limit}"
    d = tmp_path / "db"
    d.mkdir()
    (d / "R.csv").write_text(f"1,2\n\n3,{huge}\n", encoding="utf-8")
    with pytest.raises(QuerySyntaxError) as err:
        load_database(str(d))
    assert str(err.value) == f"line 3, column 2: {message}"
    query = tmp_path / "q.dq"
    query.write_text("Q(x) :- R(x, y).\n", encoding="utf-8")
    code, report = run(RunConfig(db_path=str(d), query_path=str(query), k=1, d=0))
    assert (code, report["error"]["code"]) == (2, "QuerySyntaxError")
    at_limit, padded = "7" * limit, "0" + "7" * (limit + 1)
    (d / "R.csv").write_text(f"{at_limit},{padded}\n", encoding="utf-8")
    assert load_database(str(d)).relations["R"].payload_rows() == {(int(at_limit), padded)}
    assert sys.get_int_max_str_digits() == limit


_LONG = "7" * (sys.get_int_max_str_digits() + 1)


@pytest.mark.parametrize("path", ["integer", "line"])
@pytest.mark.parametrize("bad, line, column, message", [
    ("U(1 2).\n", 3, 5, "expected ')'"),
    ("U(1,).\n", 3, 5, "unexpected token ')' in term position"),
    ("U(1).\nU(1, 2).\n", 4, 1, "relation U used with arities 1 and 2"),
    ("U(1, 2).\nR(3).\n", 4, 1, "relation R used with arities 2 and 1"),
    pytest.param(f"U(1, {_LONG}).\n", 3, 6,
                 f"integer literal of {len(_LONG)} digits exceeds the limit of "
                 f"{sys.get_int_max_str_digits()}",
                 marks=pytest.mark.skipif(sys.get_int_max_str_digits() == 0,
                                          reason="int converts any length")),
], ids=["bad-values", "trailing-comma", "mixed-arity", "mixed-arity-named", "long-integer"])
def test_relations_the_query_never_names_are_still_checked(tmp_path, path, bad, line, column,
                                                           message):
    # Loading only R still checks every fact: a malformed fact, a mixed
    # arity or an over-long integer in a relation never named is a
    # QuerySyntaxError at its line, read by the whole-text scan or by the
    # line parser, and the CLI exits 2 on it.
    head = "R(1, 2).\nR(2, 3).\n" if path == "integer" else 'R(1, 2).\nR(2, "3").\n'
    db_path = tmp_path / "db.facts"
    db_path.write_text(head + bad, encoding="utf-8")
    assert (dbio._integer_facts(head) is not None) == (path == "integer")
    for names in (None, {"R"}):
        with pytest.raises(QuerySyntaxError) as err:
            load_database(str(db_path), names)
        assert str(err.value) == f"line {line}, column {column}: {message}"
    query = tmp_path / "q.dq"
    query.write_text("Q(x) :- R(x, y).\n", encoding="utf-8")
    code, report = run(RunConfig(db_path=str(db_path), query_path=str(query), k=1, d=0))
    assert (code, report["error"]["code"]) == (2, "QuerySyntaxError")


@pytest.mark.parametrize("text", [
    "U(9, 8).\nR(1, 2).\nU(2, 7).\nS(3).\nR(2, 3).\n",
    'U(9, "8").\nR(1, 2).\nV().\nU(2, 7).\nS(3).\nR(2, 3).\nU(4, 4). # c\n',
], ids=["integer", "line"])
def test_load_database_keeps_only_the_named_relations(tmp_path, text):
    # Only R and S are interned and stored, in the order a full load gives
    # them, and their values in the order a full load meets them within R
    # and S; U's values are not in the domain.
    assert (dbio._integer_facts(text) is not None) == ("#" not in text)
    path = tmp_path / "db.facts"
    path.write_text(text, encoding="utf-8")
    full = load_database(str(path))
    db = load_database(str(path), {"R", "S", "T"})
    assert list(db.relations) == ["R", "S"]
    for name in db.relations:
        assert db.relations[name].payload_rows() == full.relations[name].payload_rows()
    assert [v.payload for v in db.domain] == [1, 2, 3]
    assert db.value(9) is None and db.value(7) is None
    assert list(load_database(str(path), ()).relations) == []


def test_csv_relations_never_named_are_still_checked(tmp_path):
    # A CSV file the query never names is read and checked, and not
    # stored: an over-long integer or a row of another arity in it fails
    # as it does when every relation is loaded.
    d = tmp_path / "db"
    d.mkdir()
    (d / "R.csv").write_text("1,2\n2,3\n", encoding="utf-8")
    (d / "U.csv").write_text("5,6\n7,8\n", encoding="utf-8")
    db = load_database(str(d), {"R"})
    assert list(db.relations) == ["R"]
    assert [v.payload for v in db.domain] == [1, 2, 3]
    (d / "U.csv").write_text("5,6\n7\n", encoding="utf-8")
    with pytest.raises(ValueError, match=r"relation U: row \(7,\) does not match arity 2"):
        load_database(str(d), {"R"})
    if sys.get_int_max_str_digits():
        (d / "U.csv").write_text(f"5,6\n7,{_LONG}\n", encoding="utf-8")
        for names in (None, {"R"}):
            with pytest.raises(QuerySyntaxError) as err:
                load_database(str(d), names)
            assert (err.value.line, err.value.column) == (2, 2)


_FACT_PIECES = st.sampled_from([
    "R", "S_1", "(", ")", ".", ",", " ", "\t", "\r", "\x0b", "\xa0", "#", '"', "\\",
    '"a#b"', '"x).\\""', '""', "1", "-", "-0", "007", "42", "٣", "a", "R(1, 2).",
    'R("s", -3).', "# c",
])


@settings(max_examples=500, deadline=None)
@given(st.lists(_FACT_PIECES, max_size=12).map("".join))
def test_one_pass_fact_lines_read_as_the_token_parser_does(line):
    # The one-pass reading of a fact line gives the relation, values and
    # error that reading it token by token, by the atom rule, gives.
    try:
        expected = parse_fact(line, 1)
    except QuerySyntaxError as err:
        with pytest.raises(QuerySyntaxError) as got:
            dbio._facts_by_line([line])
        assert (str(got.value), got.value.column) == (str(err), err.column)
        return
    facts = dbio._facts_by_line([line])
    if expected is None:
        assert facts == ([], [])
    else:
        name, values = expected
        assert facts == ([(name, len(values), 1)], values)
        assert [type(v) for v in facts[1]] == [type(v) for v in values]
        assert dbio._facts_by_line([line], ()) == ([], [])


# The four inputs of a run: a fact file, a query file, a decomposition file
# and a CSV directory's files, with line breaks as in a file saved on Unix.
_INPUTS = {
    "db.facts": "# R and S\n\nR(1, 2).\nR(3, 4).\nR(2, 3).\nS(3, 4).\n",
    "q.dq": "# pairs of R not in S\n\nQ(x, y) :- R(x, y), !S(x, y).\n",
    "dec.txt": format_decomposition(tree_decompose(parse_query("Q(x, y) :- R(x, y), !S(x, y)."))),
    "csv/R.csv": "1,2\n3,4\n2,3\n",
    "csv/S.csv": "3,4\n",
}


def _report(tmp_path, db, encodings=None, breaks="\n"):
    """The canonical report, without wall_ms, of a cqneg run with its
    witness on `_INPUTS` written under `tmp_path` with `breaks` for line
    breaks, each file in its codec from `encodings` (default UTF-8)."""
    (tmp_path / "csv").mkdir(parents=True, exist_ok=True)
    for name, text in _INPUTS.items():
        encoding = (encodings or {}).get(name, "utf-8")
        (tmp_path / name).write_bytes(text.replace("\n", breaks).encode(encoding))
    code, report = run(RunConfig(str(tmp_path / db), str(tmp_path / "q.dq"), 2, None,
                                 mode="cqneg", witness=True,
                                 decomposition_path=str(tmp_path / "dec.txt")))
    assert code == 0, report
    return canonical_json(report, drop_volatile=True)


@pytest.mark.parametrize("marked", ["db.facts", "q.dq", "dec.txt", "csv/R.csv"])
def test_inputs_with_a_byte_order_mark_read_as_without(tmp_path, marked):
    # A file saved with a UTF-8 byte-order mark gives the report it gives
    # without one: the mark is not a character of the fact, rule,
    # decomposition item or CSV field it stands before. A CSV directory
    # gives the fact file's report, its first field the int 1.
    db = "csv" if marked.startswith("csv/") else "db.facts"
    plain = _report(tmp_path / "plain", "db.facts")
    assert _report(tmp_path / "marked", db, {marked: "utf-8-sig"}) == plain
    assert '{"x":1,"y":2}' in plain


def test_a_byte_order_mark_after_the_start_is_refused(tmp_path):
    path = tmp_path / "db.facts"
    path.write_bytes("R(1, 2).\n\ufeffR(3, 4).\n".encode("utf-8-sig"))
    with pytest.raises(QuerySyntaxError) as err:
        load_database(str(path))
    assert str(err.value) == "line 2, column 1: unexpected character '\\ufeff'"


@pytest.mark.parametrize("breaks", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_query_and_decomposition_line_breaks_read_as_lf(tmp_path, breaks):
    # Text mode read `\r\n` and `\r` as `\n`, and the byte reader does the
    # same: every input written with these breaks, comment and blank lines
    # included, gives the report the LF files give.
    plain = _report(tmp_path / "lf", "db.facts")
    assert _report(tmp_path / "other", "db.facts", breaks=breaks) == plain
    assert _report(tmp_path / "other", "csv", breaks=breaks) == plain
    assert dbio.read_text(str(tmp_path / "other" / "dec.txt")) == _INPUTS["dec.txt"]
    assert load_query(str(tmp_path / "other" / "q.dq")) == load_query(str(tmp_path / "lf" / "q.dq"))


@pytest.mark.parametrize("name", ["db.facts", "q.dq"])
def test_invalid_utf8_is_a_typed_error(tmp_path, name):
    # A fact or query file that is not UTF-8 exits 2 with UnicodeDecodeError,
    # not as a defect, and the message gives the byte's offset in the file
    # and names the file.
    query = tmp_path / "q.dq"
    query.write_text("Q(x) :- R(x).\n", encoding="utf-8")
    facts = tmp_path / "db.facts"
    facts.write_text("R(1).\n", encoding="utf-8")
    bad = "\ufeffR(1).\n".encode("utf-8") + b"\xff\n"
    (tmp_path / name).write_bytes(bad)
    code, report = run(RunConfig(str(facts), str(query), 1, 0))
    with pytest.raises(UnicodeDecodeError) as err:
        bad.decode("utf-8")
    assert (code, report["error"]) == (2, {"code": "UnicodeDecodeError",
                                           "message": f"{err.value}, in file {tmp_path / name}"})
    assert "position 9" in str(err.value)


def test_csv_decoding_error_gives_the_offset_in_the_file(tmp_path):
    # A bad byte after 27780 bytes of CSV rows: the message gives its offset
    # from the start of the file, not from a chunk a text-mode reader
    # decoded, and names the file.
    d = tmp_path / "db"
    d.mkdir()
    rows = "".join(f"{i},{i}\n" for i in range(3000)).encode("utf-8")
    assert len(rows) == 27780
    (d / "R.csv").write_bytes(rows + b"\xff\n")
    query = tmp_path / "q.dq"
    query.write_text("Q(x) :- R(x, y).\n", encoding="utf-8")
    code, report = run(RunConfig(str(d), str(query), 1, 0))
    assert (code, report["error"]["code"]) == (2, "UnicodeDecodeError")
    assert "position 27780" in report["error"]["message"]
    assert report["error"]["message"].endswith(f", in file {d / 'R.csv'}")


@pytest.mark.parametrize("name", ["dec.txt", "csv/S.csv"])
def test_invalid_utf8_in_a_decomposition_or_csv_file_names_the_file(tmp_path, name):
    # Every input is decoded one way: a bad byte in a decomposition file or
    # in a file of a CSV directory, after a byte-order mark, exits 2 with
    # UnicodeDecodeError, the byte's offset in the file and the file.
    _report(tmp_path, "csv")
    (tmp_path / name).write_bytes(b"\xef\xbb\xbf" + _INPUTS[name].encode("utf-8") + b"\xc3(")
    code, report = run(RunConfig(str(tmp_path / "csv"), str(tmp_path / "q.dq"), 1, 0,
                                 mode="cqneg", decomposition_path=str(tmp_path / "dec.txt")))
    offset = 3 + len(_INPUTS[name].encode("utf-8"))
    assert (code, report["error"]["code"]) == (2, "UnicodeDecodeError")
    assert f"position {offset}:" in report["error"]["message"]
    assert report["error"]["message"].endswith(f", in file {tmp_path / name}")


_OLD_STRING_LITERAL = r'"(?:[^"\\]|\\.)*"'


@settings(max_examples=500, deadline=None)
@given(st.text(st.sampled_from(['"', "\\", "a", ",", "#", " ", "\r", "\n"]), max_size=16))
def test_unrolled_string_literal_matches_what_the_alternation_matched(text):
    # The runs-and-escapes form of a quoted literal accepts exactly the
    # strings the one-character alternation accepted, whole or as the
    # values a fact line's `findall` reads.
    old, new = re.compile(_OLD_STRING_LITERAL), re.compile(STRING_LITERAL)
    old_values = re.compile(rf"(?:{INT_LITERAL}|{_OLD_STRING_LITERAL})")
    for candidate in (text, f'"{text}"'):
        assert (old.fullmatch(candidate) is None) == (new.fullmatch(candidate) is None)
        assert dbio._VALUES_RE.findall(candidate) == old_values.findall(candidate)


def _greedy(pattern):
    """A possessive pattern as `queries._possessive` writes it for Python
    3.10, whose `re` has no possessive quantifiers."""
    with mock.patch.object(sys, "version_info", (3, 10)):
        return re.compile(queries._possessive(pattern))


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(["R", "S_1", "(", ")", ",", ".", " ", "\t", "\n", "1", "-",
                                 "07", '"', "\\", "a", "R(1, -2).\n", 'R("a\\"b").']),
                max_size=16).map("".join))
def test_possessive_patterns_match_what_their_greedy_forms_match(text):
    # Every quantifier of the whole-file scan and of a quoted literal keeps
    # what it takes without changing what the pattern matches, so Python
    # 3.10 reads every file as a later Python does.
    assert (dbio._INT_FILE_RE.fullmatch(text) is None) == \
        (_greedy(dbio._INT_FILE_RE.pattern).fullmatch(text) is None)
    assert dbio._VALUES_RE.findall(text) == _greedy(dbio._VALUES_RE.pattern).findall(text)
    assert _greedy(STRING_LITERAL).pattern == r'"[^"\\]*(?:\\.[^"\\]*)*"'
