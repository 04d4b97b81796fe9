import itertools
import random

import pytest

from diverseq.errors import QuerySyntaxError
from diverseq.oracle import exhaustive_join_tree
from diverseq.queries import parse_query
from diverseq.structure import (
    _min_fill_order,
    TreeDecomposition,
    format_decomposition,
    gyo_join_tree,
    make_nice,
    parse_decomposition,
    tree_decompose,
    validate_decomposition,
)
from helpers import random_general_query


def test_star_query_is_acyclic():
    q = parse_query("Q(v, x1, x2) :- R(v), R1(v, x1), R2(v, x2).")
    jt = gyo_join_tree(q)
    assert jt is not None
    assert validate_decomposition(jt, q) == []


def test_triangle_is_cyclic():
    q = parse_query("Q(x, y, z) :- R(x, y), S(y, z), T(z, x).")
    assert gyo_join_tree(q) is None
    assert exhaustive_join_tree(q) is None


def test_single_atom_tree():
    q = parse_query("Q(x) :- R(x, y).")
    jt = gyo_join_tree(q)
    assert jt is not None
    assert len(jt.bags) == 1 and jt.root in jt.bags


def test_gyo_deterministic():
    q = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(c).")
    first = gyo_join_tree(q)
    second = gyo_join_tree(q)
    assert first.children == second.children and first.root == second.root


def test_gyo_handles_disconnected_queries():
    q = parse_query("Q(x, y) :- R(x), S(y).")
    jt = gyo_join_tree(q)
    assert jt is not None
    assert validate_decomposition(jt, q) == []


def test_gyo_matches_exhaustive_search():
    # Few random queries are cyclic, so every third one is redrawn until the
    # exhaustive search finds no join tree.
    rng = random.Random(23)
    cyclic = 0
    for n in range(150):
        query, _ = random_general_query(rng, max_atoms=4)
        exhaustive = exhaustive_join_tree(query)
        while n % 3 == 0 and exhaustive is not None:
            query, _ = random_general_query(rng, max_atoms=4)
            exhaustive = exhaustive_join_tree(query)
        ours = gyo_join_tree(query)
        assert (ours is None) == (exhaustive is None)
        cyclic += exhaustive is None
        if ours is not None:
            assert validate_decomposition(ours, query) == []
    assert cyclic >= 40, cyclic


def test_tree_decompose_single_edge():
    q = parse_query("Q(x, y) :- R(x, y), !S(x, y).")
    td = tree_decompose(q)
    assert td.width == 1
    assert validate_decomposition(td, q) == []


def test_tree_decompose_star_width_one():
    q = parse_query("Q(v, x1, x2, x3) :- R(v), R1(v, x1), R2(v, x2), R3(v, x3).")
    assert tree_decompose(q).width == 1


def test_tree_decompose_clique_forced():
    # four variables in one atom force a single size-4 bag
    q = parse_query("Q(a, b, c, d) :- R(a, b, c, d).")
    assert tree_decompose(q).width == 3


def test_tree_decompose_paths_and_cliques():
    path = parse_query("Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d).")
    assert tree_decompose(path).width == 1
    clique = parse_query("Q(a, b, c) :- R(a, b), S(b, c), T(a, c).")
    assert tree_decompose(clique).width == 2


def test_make_nice_preserves_width_and_validates():
    for seed in (5, 9):
        rng = random.Random(seed)
        for _ in range(40):
            query, _ = random_general_query(rng)
            td = tree_decompose(query)
            assert validate_decomposition(td, query) == []
            nice = make_nice(td)
            assert nice.width == td.width
            assert validate_decomposition(nice, query) == []
            for node, kind in nice.kinds.items():
                kids = nice.children.get(node, ())
                if kind == "leaf":
                    assert kids == ()
                elif kind == "join":
                    assert len(kids) == 2


def test_make_nice_single_bag():
    q = parse_query("Q(x, y) :- R(x, y).")
    nice = make_nice(tree_decompose(q))
    assert nice.width == 1
    assert validate_decomposition(nice, q) == []


def test_make_nice_two_bag_path():
    q = parse_query("Q(x, y, z) :- R(x, y), S(y, z).")
    nice = make_nice(tree_decompose(q))
    assert nice.width == 1
    assert validate_decomposition(nice, q) == []


def test_validator_catches_uncovered_literal():
    q = parse_query("Q(x, y) :- R(x, y), S(y).")
    bad = TreeDecomposition(root=0, children={0: ()}, bags={0: frozenset({"y"})})
    report = validate_decomposition(bad, q)
    assert report and "covered by no bag" in report[0]


def test_validator_catches_disconnected_variable():
    q = parse_query("Q(x, y, z) :- R(x, y), S(y, z), T(x).")
    # Put the two x-atoms at opposite ends of a path with S in between,
    # so the shared variable's occurrences are split.
    bad = TreeDecomposition(
        root=1,
        children={1: (0,), 0: (2,), 2: ()},
        bags={0: frozenset({"y", "z"}), 1: frozenset({"x", "y"}),
              2: frozenset({"x"})},  # R - S - T with S as root child chain
    )
    report = validate_decomposition(bad, q)
    assert any("disconnected" in line for line in report)


def test_decomposition_round_trip():
    rng = random.Random(2)
    for _ in range(10):
        query, _ = random_general_query(rng)
        td = tree_decompose(query)
        again = parse_decomposition(format_decomposition(td))
        assert again.bags == td.bags
        assert again.root == td.root
        assert validate_decomposition(again, query) == []


def test_decomposition_semicolon_format():
    td = parse_decomposition("node 0 bag x,y ; node 1 bag y,z ; edge 0 1 ; root 0")
    assert td.bags[0] == {"x", "y"}
    assert td.children[0] == (1,)


@pytest.mark.parametrize("text, line, message", [
    # an item after a blank line: the file's line, not the item's count
    ("node 0 x,y; node 1 y\n\nroot 0\nedge 0 1\nbogus item", 5, "bad decomposition item"),
    ("node 0 x; node 1 y; node 2 z; root 0; edge 0 1\nedge 2 3 4", 2, "bad decomposition item"),
    ("node 0 x\nnode 1 y\nroot 0\nedge 0 1\nedge 1 7", 5, "unknown node"),
    ("node 0 x\nnode 1 y\nnode 2 z\nroot 0\nedge 0 1", 3, "not connected to root 0"),
    ("node 0 x\nnode 1 y\nroot 1\n", 1, "not connected to root 1"),
    ("node 0 x\nnode 1 y\n\n", 3, "lacks a root line"),
    ("node 0 x\nroot 4", 2, "not a declared node"),
])
def test_decomposition_errors_name_the_file_line(text, line, message):
    with pytest.raises(QuerySyntaxError, match=message) as caught:
        parse_decomposition(text)
    assert caught.value.line == line


@pytest.mark.parametrize("text, line, message", [
    ("node 0 x\nnode 1 y\nnode 2 z\nroot 0\nedge 0 1\nedge 1 2\nedge 2 0", 7, "closes a cycle"),
    ("node 0 x\nnode 1 y\nroot 0\nedge 0 1\nedge 1 1", 5, "self-loop"),
    ("node 0 x,y\nnode 1 y\nnode 0 z\nroot 0\nedge 0 1", 3, "declared twice"),
])
def test_decomposition_refuses_what_is_no_tree(text, line, message):
    with pytest.raises(QuerySyntaxError, match=message) as caught:
        parse_decomposition(text)
    assert caught.value.line == line


def test_decomposition_repeated_edge_is_harmless():
    td = parse_decomposition("node 0 x\nnode 1 y\nnode 2 z\nroot 1\n"
                             "edge 0 1\nedge 1 0\nedge 0 1\nedge 2 1")
    assert td.children == {1: (0, 2), 0: (), 2: ()}


def _min_fill_by_rescan(adj):
    """Reference min-fill order: recount every vertex before each step."""
    work = {v: set(ns) for v, ns in adj.items()}
    order = []
    while work:
        best = min(
            work,
            key=lambda v: (sum(1 for a, b in itertools.combinations(work[v], 2)
                               if b not in work[a]), v),
        )
        order.append(best)
        neighbors = work.pop(best)
        for a, b in itertools.combinations(neighbors, 2):
            work[a].add(b)
            work[b].add(a)
        for n in neighbors:
            work[n].discard(best)
    return order


def test_min_fill_order_matches_full_rescan():
    rng = random.Random(97)
    for _ in range(300):
        names = [f"v{i}" for i in range(rng.randint(1, 9))]
        adj = {v: set() for v in names}
        for a, b in itertools.combinations(names, 2):
            if rng.random() < rng.choice([0.2, 0.4, 0.7]):
                adj[a].add(b)
                adj[b].add(a)
        assert _min_fill_order(adj) == _min_fill_by_rescan(adj)


def test_deep_decomposition_needs_no_recursion():
    n = 2000
    body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    q = parse_query(f"Q(x0) :- {body}.")
    td = tree_decompose(q)
    assert td.width == 1
    nice = make_nice(td)
    assert nice.width == 1
    assert validate_decomposition(nice, q) == []
