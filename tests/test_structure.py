import itertools
import random
import sys

import pytest

from diverseq.errors import QuerySyntaxError
from diverseq.queries import parse_query, render_query
from diverseq.structure import (
    TreeDecomposition,
    format_decomposition,
    gyo_join_tree,
    make_nice,
    parse_decomposition,
    primal_graph,
    tree_decompose,
    validate_decomposition,
)
from helpers import (
    exhaustive_join_tree,
    fresh_python,
    not_nice,
    random_cqneg_query,
    random_general_query,
    tree_shapes,
)


def test_star_query_is_acyclic():
    q = parse_query("Q(v, x1, x2) :- R(v), R1(v, x1), R2(v, x2).")
    jt = gyo_join_tree(q)
    assert jt is not None
    assert validate_decomposition(jt, q) == []


@pytest.mark.parametrize("text", ["Q(x) :- R(x).\nQ(x) :- T(x).", "Q(x) :- R(x), !T(x)."])
def test_join_trees_are_for_positive_single_disjunct_queries(text):
    with pytest.raises(ValueError) as refusal:
        gyo_join_tree(parse_query(text))
    assert str(refusal.value) == "join trees are defined for positive single-disjunct queries"


def test_tree_decompositions_are_built_per_disjunct():
    with pytest.raises(ValueError) as refusal:
        tree_decompose(parse_query("Q(x) :- R(x).\nQ(x) :- T(x)."))
    assert str(refusal.value) == "tree decompositions are built per disjunct"


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
            assert not_nice(nice) == []


def test_make_nice_single_bag():
    q = parse_query("Q(x, y) :- R(x, y).")
    nice = make_nice(tree_decompose(q))
    assert nice.width == 1
    assert validate_decomposition(nice, q) == []
    assert not_nice(nice) == []


def test_make_nice_two_bag_path():
    q = parse_query("Q(x, y, z) :- R(x, y), S(y, z).")
    nice = make_nice(tree_decompose(q))
    assert nice.width == 1
    assert validate_decomposition(nice, q) == []
    assert not_nice(nice) == []


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


def _disconnected_by_search(td, variables) -> list[str]:
    """The variables whose bags do not induce a connected subtree, found by
    a search over the undirected edges from one bag holding each."""
    adj = {n: set() for n in td.bags}
    for node, kids in td.children.items():
        for kid in kids:
            adj[node].add(kid)
            adj[kid].add(node)
    out = []
    for v in sorted(variables):
        holding = {n for n, bag in td.bags.items() if v in bag}
        seen = set(list(holding)[:1])
        stack = list(seen)
        while stack:
            for other in adj[stack.pop()] & holding - seen:
                seen.add(other)
                stack.append(other)
        if seen != holding:
            out.append(v)
    return out


def test_connectivity_check_matches_a_search():
    # Random rooted trees with random bags, valid and not: the validator's
    # count of each variable's topmost bags flags exactly the variables a
    # search over the tree finds split.
    rng = random.Random(29)
    split = whole = 0
    for _ in range(1500):
        query, _ = random_general_query(rng)
        variables = sorted(query.conjuncts[0].variables)
        n = rng.randint(1, 7)
        order = rng.sample(range(n), n)
        kids = {i: [] for i in range(n)}
        for j in range(1, n):
            kids[order[rng.randrange(j)]].append(order[j])
        td = TreeDecomposition(
            root=order[0], children={i: tuple(c) for i, c in kids.items()},
            bags={i: frozenset(rng.sample(variables, rng.randint(0, len(variables))))
                  for i in range(n)})
        expected = _disconnected_by_search(td, variables)
        flagged = [line.split()[3] for line in validate_decomposition(td, query)
                   if line.endswith("are disconnected")]
        assert flagged == expected, (td, flagged, expected)
        split += bool(expected)
        whole += not expected
    assert split > 300 and whole > 300, (split, whole)


def test_decomposition_round_trip():
    # Both builders' trees, and the empty bag of a ground atom's join-tree
    # node and of a query without variables, read back as written.
    queries = [parse_query("Q(x) :- R(x, 2), T(5)."), parse_query("Q() :- R(1, 2), !S(3).")]
    rng = random.Random(2)
    queries += [random_general_query(rng, max_atoms=8, max_vars=8)[0] for _ in range(150)]
    queries += [random_cqneg_query(rng)[0] for _ in range(150)]
    trees = 0
    for query in queries:
        built = [tree_decompose(query)]
        if query.kind == "cq":
            built.append(gyo_join_tree(query))
        for td in filter(None, built):
            again = parse_decomposition(format_decomposition(td))
            assert (again.root, again.children, again.bags) == (td.root, td.children, td.bags)
            assert validate_decomposition(again, query) == []
            trees += 1
    assert trees > 400, trees


def test_empty_bag_line_is_an_empty_bag():
    assert parse_decomposition("node 0 bag\nroot 0").bags == {0: frozenset()}
    assert parse_decomposition("node 0 bag bag\nroot 0").bags == {0: frozenset({"bag"})}


def test_trees_do_not_depend_on_string_hashing():
    rng = random.Random(31)
    texts = [render_query(random_general_query(rng, max_atoms=8, max_vars=8)[0])
             for _ in range(60)]
    texts += [render_query(random_cqneg_query(rng)[0]) for _ in range(60)]
    code = f"from helpers import tree_shapes\nprint(*tree_shapes({texts!r}), sep='\\n')\n"
    expected = tree_shapes(texts)
    for seed in ("1", "2"):
        assert fresh_python(code, PYTHONHASHSEED=seed) == expected, seed


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


@pytest.mark.parametrize("text, line, message", [
    # a second root is refused at its line, as a second node is
    ("node 0 bag x\nnode 1 bag y\nedge 0 1\nroot 0\nroot 1", 5,
     r"root is declared twice \(first on line 4\)"),
    ("node 0 x; root 0; node 1 y; edge 0 1\n\nroot 0", 3, "root is declared twice"),
    # ids are integer literals of rule text: ASCII digits, an optional minus
    ("node \u0663 bag x\nroot 3", 1, "bad decomposition item 'node \u0663 bag x'"),
    ("node 1_0 bag x\nroot 10", 1, "bad decomposition item"),
    ("node 10 bag x\nroot +10", 2, "bad decomposition item 'root \\+10'"),
    ("node 0 x\nroot 0\nedge 0 \u0663", 3, "bad decomposition item"),
    # variables are identifiers of rule text, one between each two commas
    ("node 0 x,,y\nroot 0", 1, "bad decomposition item"),
    ("node 0 x,\nroot 0", 1, "bad decomposition item"),
    ("node 0 x-1\nroot 0", 1, "bad decomposition item"),
    ("node 0\nroot 0", 1, "bad decomposition item"),
    # lines end only at \r\n, \r and \n, as rules do
    ("node 0 x\x85root 0", 1, "bad decomposition item"),
    ("node 0 x\u2028root 0", 1, "bad decomposition item"),
    ("node 0 x\rnode 1 y\r\nroot 0\nnode 2 z", 2, "node 1 is not connected"),
])
def test_decomposition_items_follow_the_rule_grammar(text, line, message):
    with pytest.raises(QuerySyntaxError, match=message) as caught:
        parse_decomposition(text)
    assert caught.value.line == line


def test_decomposition_comments_run_to_the_end_of_the_line():
    # `#` starts a comment wherever it stands: a `;` inside one starts no
    # item, and an item before one is read.
    td = parse_decomposition("node 0 bag x\nnode 1 bag y\nedge 0 1\nroot 0\n"
                             "# tried: root 1; root 1\n")
    assert td.root == 0
    td = parse_decomposition("node 0 bag x # the root; node 2 z\nroot 0 # the root\n")
    assert (td.root, td.bags) == (0, {0: frozenset({"x"})})


def test_decomposition_items_read_blanks_around_commas():
    td = parse_decomposition("node 0 bag x, y ,z\t;\tnode 1 y , w;edge 0 1;root 0")
    assert td.bags == {0: frozenset({"x", "y", "z"}), 1: frozenset({"y", "w"})}


def test_decomposition_id_past_the_int_limit_is_refused_at_its_line():
    limit = sys.get_int_max_str_digits()
    if not limit:
        pytest.skip("int converts any length")
    with pytest.raises(QuerySyntaxError, match="exceeds the limit") as caught:
        parse_decomposition(f"node 0 x; edge 0 {'7' * (limit + 1)}\nroot 0")
    assert caught.value.line == 1


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


def _elimination_order(td):
    """The vertex each bag eliminates, in node order: bag i minus its
    parent's bag, which must be exactly that one vertex."""
    parent = {child: node for node, kids in td.children.items() for child in kids}
    order = []
    for node in range(len(td.bags)):
        own = td.bags[node] - td.bags[parent[node]] if node in parent else td.bags[node]
        assert len(own) == 1, (node, own)
        order.extend(own)
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
        # a query whose primal graph is adj: an atom per edge and per
        # isolated vertex
        atoms = [f"E({a}, {b})" for a in names for b in sorted(adj[a]) if a < b]
        atoms += [f"V({v})" for v in names if not adj[v]]
        query = parse_query(f"Q() :- {', '.join(atoms)}.")
        assert primal_graph(query.conjuncts[0]) == adj
        assert _elimination_order(tree_decompose(query)) == _min_fill_by_rescan(adj)


def test_deep_decomposition_needs_no_recursion():
    n = 2000
    body = ", ".join(f"R(x{i}, x{i + 1})" for i in range(n))
    q = parse_query(f"Q(x0) :- {body}.")
    td = tree_decompose(q)
    assert td.width == 1
    nice = make_nice(td)
    assert nice.width == 1
    assert validate_decomposition(nice, q) == []
    assert not_nice(nice) == []
