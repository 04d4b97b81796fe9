import os
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq import dbio
from diverseq.cli import RunConfig, run
from diverseq.dbio import dump_database, dump_query, load_database, load_query
from diverseq.errors import QuerySyntaxError
from diverseq.kernel import AnswerRelation, read_answer_csv, write_answer_csv
from diverseq.model import Database
from diverseq.queries import Constant, parse_query, render_query


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
    with pytest.raises(QuerySyntaxError, match="a#b"):
        load_database(str(path))


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
    lambda width: st.lists(st.tuples(*[_CSV_PAYLOADS] * width), max_size=5)))
def test_answer_csv_round_trip(rows):
    width = len(rows[0]) if rows else 2
    answers = AnswerRelation.from_payload_rows([f"c{i}" for i in range(width)], rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "answers.csv")
        write_answer_csv(answers, path)
        again = read_answer_csv(path)
    assert again.columns == answers.columns
    assert again.payload_rows() == answers.payload_rows()


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
    # reject it, or both give the same payload.
    path = tmp_path / "db.facts"
    path.write_text(f"R({text}).\n", encoding="utf-8")
    try:
        [[from_facts]] = load_database(str(path)).relations["R"].payload_rows()
    except QuerySyntaxError:
        from_facts = QuerySyntaxError
    try:
        [term] = parse_query(f"Q() :- R({text}).").conjuncts[0].literals[0].atom.terms
        from_query = term.payload
    except QuerySyntaxError:
        from_query = QuerySyntaxError
    assert from_facts == from_query
    assert type(from_facts) is type(from_query)


def test_fact_trailing_comma_is_a_syntax_error_at_the_comma(tmp_path):
    # Query text rejects `R(x,)`; a fact file must not read `R(1,)` as R(1).
    path = tmp_path / "db.facts"
    for text, column in (("R(1,).", 4), ("  S(1, 2,).", 9), ('T("a,",).', 7)):
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


def _database_of(facts):
    db = Database()
    for name, (arity, values) in facts.items():
        rows = [tuple(values[i:i + arity]) for i in range(0, len(values), arity)] \
            if arity else [()]
        db.add_relation(name, arity, rows)
    return db


@settings(max_examples=200, deadline=None)
@given(st.booleans().flatmap(lambda odd: st.tuples(st.just(odd), integer_fact_files(odd))))
def test_fact_file_reader_paths_agree(case):
    # The whole-text scan takes every plain file of integer facts and no file
    # with other whitespace, and gives what the line parser gives: the same
    # relations, rows and values, in the same order.
    odd_space, text = case
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "db.facts")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write(text)
        with open(path, encoding="utf-8") as handle:
            read = handle.read()
        db = load_database(path)
    by_line = dbio._facts_by_line(read.split("\n"))
    whole = dbio._integer_facts(read)
    if not odd_space:
        assert whole is not None
    elif any(c not in " \t\n" and c.isspace() for c in read):
        assert whole is None
    if whole is not None:
        assert list(whole.items()) == list(by_line.items())
    reference = _database_of(by_line)
    assert db == reference
    assert [v.payload for v in db.domain] == [v.payload for v in reference.domain]


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
        assert list(whole.items()) == list(by_line.items())
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
    db = load_database(str(path))
    expected = _database_of(reference)
    assert db == expected
    assert list(db.relations) == list(expected.relations)
    assert [v.payload for v in db.domain] == [v.payload for v in expected.domain]


_GOOD_FACTS = "".join(f"G({i}, {-i}).\n" for i in range(1000))


@pytest.mark.parametrize("prefix", ["", _GOOD_FACTS, "# comment\n"],
                         ids=["first", "after-1000-facts", "after-a-comment"])
@pytest.mark.parametrize("bad, line, column, message", [
    ("R(1, 2).\nR(3).\n", 2, 1, "relation R used with arities 2 and 1"),
    ("R(1,).\n", 1, 4, "value list '1,' ends in a comma"),
    ("R(1). S(2).\n", 1, 3, "bad value list '1). S(2'"),
    ("R(1, 2)\n", 1, 1, "bad fact 'R(1, 2)'"),
    ("R(1 2).", 1, 3, "bad value list '1 2'"),
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
    answers = tmp_path / "answers.csv"
    answers.write_text(f"x,y\n1,2\n{huge},3\n", encoding="utf-8")
    with pytest.raises(QuerySyntaxError) as err:
        read_answer_csv(str(answers))
    assert str(err.value) == f"line 3, column 1: {message}"
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
    ("U(1 2).\n", 3, 3, "bad value list '1 2'"),
    ("U(1,).\n", 3, 4, "value list '1,' ends in a comma"),
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
    # error that reading it token by token gives.
    try:
        expected = dbio._parse_fact_line(line, 1)
    except QuerySyntaxError as err:
        with pytest.raises(QuerySyntaxError) as got:
            dbio._facts_by_line([line])
        assert (str(got.value), got.value.column) == (str(err), err.column)
        return
    facts = dbio._facts_by_line([line])
    if expected is None:
        assert facts == {}
    else:
        name, values = expected
        assert facts == {name: (len(values), values)}
        assert [type(v) for v in facts[name][1]] == [type(v) for v in values]
        assert dbio._facts_by_line([line], ()) == {}
