import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
