import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq.errors import (
    ArityMismatch,
    MismatchedHeads,
    NegationInUnion,
    QuerySyntaxError,
    UnknownRelation,
    UnsafeQuery,
)
from diverseq.model import Database
from diverseq.queries import (
    Atom,
    Conjunct,
    Constant,
    Literal,
    Query,
    Variable,
    parse_query,
    render_query,
    sols_atom,
)
from helpers import random_acyclic_query


def payloads(assignments, order):
    return sorted(tuple(a[v].payload for v in order) for a in assignments)


def test_parse_plain_cq():
    q = parse_query("Q(v, x1) :- R(v), R1(v, x1).")
    assert q.kind == "cq"
    assert q.free_vars == ("v", "x1")
    assert q.existential_vars(q.conjuncts[0]) == frozenset()


def test_parse_cq_with_negation_and_existential():
    q = parse_query("Q(x) :- R(x, y), !S(x).")
    assert q.kind == "cqneg"
    assert q.free_vars == ("x",)
    assert q.existential_vars(q.conjuncts[0]) == {"y"}
    assert q.conjuncts[0].literals[1].positive is False


def test_parse_union():
    q = parse_query("Q(x) :- R(x).\nQ(x) :- S(x).")
    assert q.kind == "ucq"
    assert len(q.conjuncts) == 2


def test_unsafe_query_rejected():
    with pytest.raises(UnsafeQuery):
        parse_query("Q(x) :- !S(x).")


def test_free_variable_must_occur_positively():
    with pytest.raises(UnsafeQuery):
        parse_query("Q(x, y) :- R(x).")


def test_mismatched_heads_rejected():
    with pytest.raises(MismatchedHeads):
        parse_query("Q(x) :- R(x).\nQ(y) :- S(y).")
    with pytest.raises(MismatchedHeads):
        parse_query("Q(x) :- R(x).\nP(x) :- S(x).")


def test_negation_in_union_rejected():
    with pytest.raises(NegationInUnion):
        parse_query("Q(x) :- R(x), !S(x).\nQ(x) :- T(x).")


def test_syntax_errors_carry_position():
    with pytest.raises(QuerySyntaxError) as info:
        parse_query("Q(x) :- R(x)")  # missing final dot
    assert info.value.line == 1
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(x,).")
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(X) :- R(X).")  # uppercase head term is not a variable


def test_constants_parse_and_render():
    q = parse_query('Q(x) :- R(x, 5), S(x, "free_1").')
    terms = q.conjuncts[0].literals[0].atom.terms
    assert terms[1] == Constant(5)
    terms = q.conjuncts[0].literals[1].atom.terms
    assert terms[1] == Constant("free_1")
    assert parse_query(render_query(q)) == q


def test_comments_and_blank_lines():
    q = parse_query("# header\n\nQ(x) :- R(x). # trailing\n")
    assert q.kind == "cq"


def test_round_trip_random_queries():
    rng = random.Random(11)
    for _ in range(25):
        query, _ = random_acyclic_query(rng)
        assert parse_query(render_query(query)) == query


# Characters str.splitlines breaks at besides \n and \r.
_OTHER_BREAKS = "\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
_CONSTANTS = st.one_of(
    st.integers(min_value=-10**6, max_value=10**6),
    st.text(alphabet=st.sampled_from(_OTHER_BREAKS + '#"\\\r\n ,().07-an'), max_size=8),
    st.integers(min_value=0, max_value=999).map(lambda i: f"{i:03d}"),
    st.integers(min_value=-999, max_value=999).map(str),
    st.text(st.characters(exclude_categories=("Cs",)), max_size=6),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(_CONSTANTS, max_size=3), min_size=1, max_size=3))
def test_round_trip_adversarial_constants(rules):
    # One rule per list of constants, each a union member Q(x) :- R(x, ...).
    conjuncts = tuple(
        Conjunct((Literal(Atom("R", (Variable("x"),) + tuple(Constant(c) for c in cs))),))
        for cs in rules
    )
    query = Query("Q", ("x",), conjuncts)
    assert parse_query(render_query(query)) == query


def test_sols_atom_basic():
    db = Database.from_rows({"R": [(1, 2)]})
    sols = sols_atom(Atom("R", (Variable("x"), Variable("y"))), db)
    assert payloads(sols, ["x", "y"]) == [(1, 2)]


def test_sols_atom_repeated_variable_selects_diagonal():
    db = Database.from_rows({"R": [(1, 2), (3, 3)]})
    sols = sols_atom(Atom("R", (Variable("x"), Variable("x"))), db)
    assert payloads(sols, ["x"]) == [(3,)]


def test_sols_atom_constant_filters():
    db = Database.from_rows({"R": [(1, 5), (2, 6)]})
    sols = sols_atom(Atom("R", (Variable("x"), Constant(5))), db)
    assert payloads(sols, ["x"]) == [(1,)]


def test_sols_atom_constant_outside_domain():
    db = Database.from_rows({"R": [(1, 5)]})
    sols = sols_atom(Atom("R", (Variable("x"), Constant(99))), db)
    assert sols == set()


def test_sols_atom_errors():
    db = Database.from_rows({"R": [(1,)]})
    with pytest.raises(UnknownRelation):
        sols_atom(Atom("Nope", (Variable("x"),)), db)
    with pytest.raises(ArityMismatch):
        sols_atom(Atom("R", (Variable("x"), Variable("y"))), db)


def test_sols_atom_bounded_by_relation_size():
    rng = random.Random(3)
    for _ in range(20):
        query, db = random_acyclic_query(rng)
        for atom in query.conjuncts[0].positive_atoms:
            assert len(sols_atom(atom, db)) <= len(db.relations[atom.relation].rows)
