import itertools
import math
import random
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diverseq import queries
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
    join,
    parse_query,
    render_query,
    sols_atom,
)
from helpers import random_acyclic_query


def payloads(db, sols):
    """sols_atom's index tuples as payload tuples, sorted."""
    return sorted(tuple(db.domain[i].payload for i in row) for row in sols)


def test_parse_plain_cq():
    q = parse_query("Q(v, x1) :- R(v), R1(v, x1).")
    assert q.kind == "cq"
    assert q.free_vars == ("v", "x1")
    c = q.conjuncts[0]
    assert c.variables - set(q.free_vars) == frozenset()


def test_parse_cq_with_negation_and_existential():
    q = parse_query("Q(x) :- R(x, y), !S(x).")
    assert q.kind == "cqneg"
    assert q.free_vars == ("x",)
    c = q.conjuncts[0]
    assert c.variables - set(q.free_vars) == {"y"}
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


_LIMIT = sys.get_int_max_str_digits()
_LONG = "1" * (_LIMIT + 1)
_LONG_MESSAGE = f"integer literal of {_LIMIT + 1} digits exceeds the limit of {_LIMIT}"
_NO_LIMIT = pytest.mark.skipif(_LIMIT == 0, reason="int converts any length")


def _error(case_id, text, line, column, message, *marks):
    return pytest.param(text, line, column, message, id=case_id, marks=marks)


@pytest.mark.parametrize("text, line, column, message", [
    # a stray character: one that starts no token
    _error("stray", "Q(x) :- R(x) & S(x).", 1, 14, "unexpected character '&'"),
    _error("unterminated-string", 'Q(x) :- R(x, "abc).', 1, 14, "unexpected character '\"'"),
    _error("lone-colon", "Q(x) :- R(x): S(x).", 1, 13, "unexpected character ':'"),
    _error("lone-minus", "Q(x) :- R(x, -).", 1, 14, "unexpected character '-'"),
    _error("non-ascii-digit", "Q(x) :- R(x, \u0663).", 1, 14,
           "unexpected character '\u0663'"),
    _error("stray-after-parse-error", "Q x & :- R(x).", 1, 5, "unexpected character '&'"),
    # each `expected ...`
    _error("head-name", "(x) :- R(x).", 1, 1, "expected 'ident'"),
    _error("head-open", "Q x :- R(x).", 1, 3, "expected '('"),
    _error("head-close", "Q(x y) :- R(x).", 1, 5, "expected ')'"),
    _error("implies", "Q(x) R(x).", 1, 6, "expected 'implies'"),
    _error("dot", "Q(x) :- R(x)", 1, 13, "expected '.'"),
    _error("dot-then-spaces", "Q(x) :- R(x)  ", 1, 13, "expected '.'"),
    _error("dot-then-comment", "Q(x) :- R(x) # no dot", 1, 13, "expected '.'"),
    _error("atom-name", "Q(x) :- !5.", 1, 10, "expected 'ident'"),
    _error("atom-open", "Q(x) :- R x.", 1, 11, "expected '('"),
    _error("atom-close", "Q(x) :- R(x y).", 1, 13, "expected ')'"),
    _error("atom-close-after-int", "Q(x) :- R(x, 1.", 1, 15, "expected ')'"),
    _error("empty-head", "Q(", 1, 3, "expected ')'"),
    _error("truncated-head", "Q(x,", 1, 5, "expected 'ident'"),
    _error("head-then-comment", "Q( # comment", 1, 3, "expected ')'"),
    # term errors
    _error("comma-then-close", "Q(x) :- R(x,).", 1, 13,
           "unexpected token ')' in term position"),
    _error("uppercase-term", "Q(x) :- R(x, Y).", 1, 14,
           "term 'Y' is neither a variable (lowercase-initial) nor a constant"),
    _error("underscore-term", "Q(x) :- R(x, _y).", 1, 14,
           "term '_y' is neither a variable (lowercase-initial) nor a constant"),
    _error("truncated-body", "Q(x) :- R(x,", 1, 13, "expected a term"),
    # trailing input
    _error("trailing-name", "Q(x) :- R(x). S", 1, 15, "trailing input after rule"),
    _error("trailing-dot", "Q(x) :- R(x).. # c", 1, 14, "trailing input after rule"),
    # no rule
    _error("empty-text", "", 1, 1, "no rule found"),
    _error("comments-only", "# a comment\n\n  # another\n", 1, 1, "no rule found"),
    # head-term errors
    _error("integer-head-term", "Q(1) :- R(x).", 1, 3, "expected 'ident'"),
    _error("repeated-head-variable", "Q(x, y,  x) :- S(x, y).", 1, 10,
           "head term 'x' is repeated"),
    _error("uppercase-head-term", "Q(x, Y) :- R(x, Y).", 1, 6,
           "head term 'Y' must be a variable"),
    _error("underscore-head-term", "Q(_x) :- R(_x).", 1, 3,
           "head term '_x' must be a variable"),
    # an over-long integer, and a stray character after one
    _error("long-integer", f"Q(x) :- R(x, {_LONG}).", 1, 14, _LONG_MESSAGE, _NO_LIMIT),
    _error("stray-after-long-integer", f"Q(x) :- R(x, {_LONG}) &", 1, _LIMIT + 17,
           "unexpected character '&'", _NO_LIMIT),
    # line breaks, `#` inside a quoted string, comment-only lines
    _error("crlf", "Q(x) :- R(x).\r\nQ(x) :- S(x) &.\r\n", 2, 14,
           "unexpected character '&'"),
    _error("cr", "Q(x) :- R(x).\rQ(x) :- S(x)\r", 2, 13, "expected '.'"),
    _error("hash-in-string", 'Q(x) :- R(x, "#") x.', 1, 19, "expected '.'"),
    _error("comment-after-comma", 'Q(x) :- R(x, "a#b"), # S(x).', 1, 21,
           "expected 'ident'"),
    _error("after-comment-lines", "# c\n  # d\nQ(x) :- R(x)", 3, 13, "expected '.'"),
    _error("after-a-rule", "Q(x) :- R(x). # fine\nQ(x) :- R(x) S(x).", 2, 14,
           "expected '.'"),
])
def test_syntax_errors_carry_position(text, line, column, message):
    with pytest.raises(QuerySyntaxError) as info:
        parse_query(text)
    assert str(info.value) == f"line {line}, column {column}: {message}"
    assert (info.value.line, info.value.column) == (line, column)


def test_head_term_errors_point_at_the_term():
    # A repeated head variable is a syntax error at its second occurrence,
    # and an uppercase head term one at the term, not at the token after it.
    with pytest.raises(QuerySyntaxError, match="'x' is repeated") as info:
        parse_query("Q(a) :- R(a).\nQ(x, y,  x) :- S(x, y).")
    assert (info.value.line, info.value.column) == (2, 10)
    with pytest.raises(QuerySyntaxError, match="'Y' must be a variable") as info:
        parse_query("Q(x, Y) :- R(x, Y).")
    assert (info.value.line, info.value.column) == (1, 6)


def test_truncated_head_is_a_syntax_error():
    # A head that ends after a comma has no term to point at; the parser
    # still refuses it with its own error, not a lookup on a missing token.
    for text in ("Q(x,", "Q(x, ", "Q(x,\n"):
        with pytest.raises(QuerySyntaxError, match="expected 'ident'"):
            parse_query(text)


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
    assert sols == [(db.value(1).index, db.value(2).index)]
    assert payloads(db, sols) == [(1, 2)]


def test_sols_atom_repeated_variable_selects_diagonal():
    db = Database.from_rows({"R": [(1, 2), (3, 3)]})
    sols = sols_atom(Atom("R", (Variable("x"), Variable("x"))), db)
    assert payloads(db, sols) == [(3,)]


def test_sols_atom_constant_filters():
    db = Database.from_rows({"R": [(1, 5), (2, 6)]})
    sols = sols_atom(Atom("R", (Variable("x"), Constant(5))), db)
    assert payloads(db, sols) == [(1,)]


def test_sols_atom_constant_outside_domain():
    db = Database.from_rows({"R": [(1, 5)]})
    sols = sols_atom(Atom("R", (Variable("x"), Constant(99))), db)
    assert sols == []


def test_sols_atom_tuples_follow_the_sorted_variables():
    db = Database.from_rows({"R": [(1, 2, 1), (3, 4, 5)]})
    sols = sols_atom(Atom("R", (Variable("y"), Variable("x"), Variable("y"))), db)
    assert payloads(db, sols) == [(2, 1)]
    sols = sols_atom(Atom("R", (Variable("z"), Constant(4), Variable("a"))), db)
    assert payloads(db, sols) == [(5, 3)]


def test_sols_atom_keeps_int_and_string_constants_apart():
    db = Database.from_rows({"R": [(1, "a"), ("1", "b")]})
    assert payloads(db, sols_atom(Atom("R", (Constant(1), Variable("x"))), db)) == [("a",)]
    assert payloads(db, sols_atom(Atom("R", (Constant("1"), Variable("x"))), db)) == [("b",)]
    assert sols_atom(Atom("R", (Constant(1), Constant("a"))), db) == [()]
    assert sols_atom(Atom("R", (Constant(1), Constant("b"))), db) == []


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


def test_non_ascii_digits_are_not_integers():
    # U+0663 is a decimal digit to `\d`, but not an integer literal.
    with pytest.raises(QuerySyntaxError):
        parse_query("Q(x) :- R(x, \u0663).")
    q = parse_query('Q(x) :- R(x, "\u0663").')
    assert q.conjuncts[0].literals[0].atom.terms[1] == Constant("\u0663")


# --- the hash join -----------------------------------------------------------


def reference_join(inputs, order):
    """The tuples over `order` of every joint assignment of the inputs,
    found by nested loops over them in the join's connected order (each
    next input the first sharing a variable with those bound, or else the
    first left), and how many partial assignments the steps that bind a
    variable build. An empty input builds nothing."""
    if any(not rows for _, rows in inputs):
        return [], 0
    pending, bound, partial, built = list(inputs), set(), [{}], 0
    while pending:
        n = next((n for n, (vs, _) in enumerate(pending) if bound & set(vs)), 0)
        variables, rows = pending.pop(n)
        partial = [{**a, **dict(zip(variables, row))} for a in partial for row in rows
                   if all(a.get(v, x) == x for v, x in zip(variables, row))]
        if not bound.issuperset(variables):
            built += len(partial)
        bound.update(variables)
    return [tuple(a[v] for v in order) for a in partial], built


def random_join_inputs(rng):
    """Up to four inputs over a, b, c, d, e, ground ones among them, each
    with up to seven rows over values 0-3, duplicates and empty inputs
    included; and an order over some of their variables."""
    inputs = []
    for _ in range(rng.randrange(5)):
        variables = tuple(rng.sample("abcde", rng.randrange(4)))
        rows = [tuple(rng.randrange(4) for _ in variables)
                for _ in range(rng.choice((0, 1, 2, 4, 7)))]
        if rows and rng.random() < 0.3:
            rows.append(rng.choice(rows))
        inputs.append((variables, rows))
    bound = sorted({v for variables, _ in inputs for v in variables})
    order = tuple(rng.sample(bound, rng.randrange(len(bound) + 1)))
    return inputs, order


def test_join_matches_nested_loops_and_refuses_past_its_limit():
    refusal = ValueError("over the limit")
    rng = random.Random(28)
    refused = 0
    for _ in range(3000):
        inputs, order = random_join_inputs(rng)
        expected, built = reference_join(inputs, order)
        got = list(join(inputs, order, built, refusal))
        assert Counter(got) == Counter(expected), (inputs, order)
        assert all(len(row) == len(order) for row in got)
        if built:
            refused += 1
            with pytest.raises(ValueError, match="^over the limit$"):
                list(join(inputs, order, built - 1, refusal))
    assert refused > 1000


def dfs_join(inputs, order, limit, refusal):
    """The join as a plain recursive depth-first search over the inputs in
    its connected order, each step's matching rows in input order: a
    partial assignment first counts the extensions it gets from a step that
    binds a variable, raising `refusal` once more than `limit` are counted,
    and then yields its extensions' outputs one by one."""
    if any(not rows for _, rows in inputs):
        return
    pending, bound, steps = list(inputs), set(), []
    while pending:
        n = next((n for n, (vs, _) in enumerate(pending) if bound & set(vs)), 0)
        variables, rows = pending.pop(n)
        steps.append((variables, rows, not bound.issuperset(variables)))
        bound.update(variables)
    built = 0

    def visit(assignment, step):
        nonlocal built
        if step == len(steps):
            yield tuple(assignment[v] for v in order)
            return
        variables, rows, binds = steps[step]
        found = [row for row in rows
                 if all(assignment.get(v, x) == x for v, x in zip(variables, row))]
        if binds:
            built += len(found)
            if built > limit:
                raise refusal
        for row in found:
            yield from visit({**assignment, **dict(zip(variables, row))}, step + 1)

    yield from visit({}, 0)


def drain(outputs):
    """The outputs yielded, and whether a ValueError then ended them."""
    got = []
    try:
        for row in outputs:
            got.append(row)
    except ValueError:
        return got, True
    return got, False


def test_join_yields_lazily_in_depth_first_order():
    # The join yields what a depth-first search yields, in the same order,
    # and does no work ahead: every prefix of its outputs comes without a
    # refusal that the search would only meet later, and a refusal comes
    # after exactly as many outputs.
    refusal = ValueError("over the limit")
    rng = random.Random(31)
    cut_short = 0
    for _ in range(600):
        inputs, order = random_join_inputs(rng)
        _, built = reference_join(inputs, order)
        for limit in sorted({built, rng.randrange(built + 1), rng.randrange(built + 1)}):
            want, refused = drain(dfs_join(inputs, order, limit, refusal))
            assert drain(join(inputs, order, limit, refusal)) == (want, refused)
            for n in range(len(want) + 1):
                assert list(itertools.islice(join(inputs, order, limit, refusal), n)) \
                    == want[:n]
            cut_short += refused and bool(want)
    assert cut_short > 50


def test_join_edge_cases():
    refusal = ValueError("over the limit")
    # No inputs: the one empty assignment, which builds nothing.
    assert list(join([], (), 0, refusal)) == [()]
    # A ground input only filters: it holds () or it is empty.
    assert list(join([((), [()])], (), 0, refusal)) == [()]
    assert list(join([((), [()]), (("x",), [(1,), (2,)])], ("x",), 2, refusal)) == [(1,), (2,)]
    assert list(join([((), []), (("x",), [(1,), (2,)])], ("x",), 0, refusal)) == []
    # One output variable gives 1-tuples; a duplicate row repeats its tuple,
    # and so does an assignment that differs only outside `order`.
    rows = [(1, 5), (1, 6), (2, 5), (2, 5)]
    assert Counter(join([(("x", "y"), rows)], ("x",), 4, refusal)) == \
        Counter({(1,): 2, (2,): 2})
    # A filter step builds nothing: the second input's variables are bound.
    inputs = [(("x", "y"), rows), (("y",), [(5,)])]
    assert Counter(join(inputs, ("y", "x"), 4, refusal)) == Counter({(5, 1): 1, (5, 2): 2})
    with pytest.raises(ValueError):
        list(join(inputs, ("y", "x"), 3, refusal))


def test_join_takes_inputs_in_connected_order():
    # x-y and z-w share nothing, so the body order builds their product;
    # the join takes y-z second and builds 3 + 3 + 3 assignments.
    pairs = [(i, i) for i in range(3)]
    inputs = [(("x", "y"), pairs), (("w", "z"), pairs), (("y", "z"), pairs)]
    assert sorted(join(inputs, ("x", "w"), 9, ValueError())) == [(0, 0), (1, 1), (2, 2)]
    with pytest.raises(ValueError):
        list(join(inputs, ("x", "w"), 8, ValueError()))


@pytest.mark.parametrize("block", [1, 2, 3, 7])
def test_join_in_blocks_of_any_size_is_the_depth_first_search(monkeypatch, block):
    # The properties of test_join_yields_lazily_in_depth_first_order, with
    # blocks of `block` partial assignments: the search's outputs in order,
    # the refusal after exactly as many, and every prefix without a refusal
    # the search would only meet later.
    monkeypatch.setattr(queries, "_BLOCK", block)
    refusal = ValueError("over the limit")
    rng = random.Random(41 + block)
    cut_short = 0
    for _ in range(300):
        inputs, order = random_join_inputs(rng)
        _, built = reference_join(inputs, order)
        for limit in sorted({built, rng.randrange(built + 1), rng.randrange(built + 1)}):
            want, refused = drain(dfs_join(inputs, order, limit, refusal))
            assert drain(join(inputs, order, limit, refusal)) == (want, refused)
            for n in range(len(want) + 1):
                assert list(itertools.islice(join(inputs, order, limit, refusal), n)) \
                    == want[:n]
            cut_short += refused and bool(want)
    assert cut_short > 25


def test_join_walks_again_one_at_a_time_when_a_block_passes_the_limit(monkeypatch):
    # 4b values of x for a block of b, three y per x. The depth-first
    # search counts the 4b x, then three y per x, so under this limit it
    # refuses at x = 3b/2 after the 9b/2 outputs of the x before it. The
    # block walk hands out the 3b outputs of its first block of x, then
    # counts its second block past the limit: the join walks again one
    # partial assignment at a time, skips those 3b and yields the rest.
    block = queries._BLOCK
    sizes = []
    walk = queries._walk

    def recording(steps, get, limit, step_sizes, refusal):
        sizes.append(step_sizes)
        return walk(steps, get, limit, step_sizes, refusal)

    monkeypatch.setattr(queries, "_walk", recording)
    xs, half = 4 * block, block + block // 2
    inputs = [(("x",), [(x,) for x in range(xs)]),
              (("x", "y"), [(x, y) for x in range(xs) for y in range(3)])]
    refusal = ValueError("over the limit")
    limit = xs + 3 * half + 1
    got = drain(join(inputs, ("x", "y"), limit, refusal))
    assert got == ([(x, y) for x in range(half) for y in range(3)], True)
    assert got == drain(dfs_join(inputs, ("x", "y"), limit, refusal))
    assert sizes == [[block, block], [1, 1]]
    # Under a limit no block passes, one walk hands out every output.
    sizes.clear()
    assert list(join(inputs, ("x", "y"), 4 * xs, refusal)) == \
        [(x, y) for x in range(xs) for y in range(3)]
    assert sizes == [[block, block]]


def test_join_works_at_most_one_block_per_step_ahead(monkeypatch):
    # 100^3 outputs from three inputs that share no variable, so every key
    # function the join makes probes partial assignments. The first output
    # comes at once, after one probe at the first step and at most one
    # block of them at each later step.
    probes = 0
    key_of = queries._key_of

    def counting(positions):
        key = key_of(positions)

        def probe(row):
            nonlocal probes
            probes += 1
            return key(row)
        return probe

    monkeypatch.setattr(queries, "_key_of", counting)
    rows = [(v,) for v in range(100)]
    inputs = [(("x",), rows), (("y",), rows), (("z",), rows)]
    started = time.perf_counter()
    first = next(join(inputs, ("x", "y", "z"), math.inf, ValueError()))
    elapsed = time.perf_counter() - started
    assert first == (0, 0, 0)
    assert 1 < probes <= 1 + 2 * queries._BLOCK
    assert elapsed < 0.25
