"""Join trees (via GYO ear removal), tree decompositions (min-fill
elimination), the nice normal form (which no engine uses), and a validator:
one tree type, `TreeDecomposition`, serves them all.

Each tree is built in one pass: GYO counts, for each variable, the remaining
atoms that hold it, and min-fill records each bag as it eliminates its vertex.
GYO, min-fill and the text parser all make their trees from parent links
through one constructor, `_tree`.

All constructions are deterministic: ears are removed in ascending atom-index
order, elimination orders break ties by variable name, and node ids are
assigned in creation order, so identical inputs give identical structures.
"""

from __future__ import annotations

import heapq
import itertools
import re
from collections import Counter
from typing import Iterable

from .errors import QuerySyntaxError
from .model import _Record
from .queries import IDENT, INT_LITERAL, _LINE_BREAK_RE, Conjunct, Query, parse_int_literal


def _postorder(root: int, children: dict[int, tuple[int, ...]]) -> list[int]:
    """Children before parents, siblings in order; no recursion, so a tree
    of any depth works."""
    order: list[int] = []
    stack = [root]
    while stack:
        node = stack.pop()
        order.append(node)
        stack.extend(children.get(node, ()))
    order.reverse()
    return order


class TreeDecomposition(_Record):
    """A rooted tree of variable bags covering every literal."""

    _fields = ("root", "children", "bags")

    def __init__(self, root: int, children: dict[int, tuple[int, ...]],
                 bags: dict[int, frozenset[str]]) -> None:
        self.root = root
        self.children = children
        self.bags = bags

    @property
    def width(self) -> int:
        return max(len(bag) for bag in self.bags.values()) - 1

    def postorder(self) -> list[int]:
        return _postorder(self.root, self.children)


def _tree(root: int, parent: dict[int, int], bags: dict[int, frozenset[str]]
          ) -> TreeDecomposition:
    """The tree on the nodes of `bags` in which each node of `parent` hangs
    below its parent; siblings in id order."""
    children: dict[int, list[int]] = {n: [] for n in bags}
    for child in sorted(parent):
        children[parent[child]].append(child)
    return TreeDecomposition(root, {n: tuple(cs) for n, cs in children.items()}, bags)


def _orient(root: int, adj: dict[int, set[int]]) -> dict[int, int]:
    """Parent links that orient the undirected forest `adj` away from `root`,
    for each node the root reaches."""
    parent: dict[int, int] = {}
    queue = [root]
    for node in queue:
        for other in adj[node]:
            if other != root and other not in parent:
                parent[other] = node
                queue.append(other)
    return parent


# --- GYO join-tree construction ----------------------------------------------


def gyo_join_tree(query: Query) -> TreeDecomposition | None:
    """Join tree of a positive single-disjunct query, or None if cyclic.

    Node i stands for atom i and has its variables as bag, so the join tree
    is a tree decomposition. Ear removal: repeatedly drop the lowest-index
    atom whose shared variables are covered by a single other atom (the
    lowest-index such witness becomes its parent). The last remaining atom
    is the root. A variable is shared while more than one remaining atom
    holds it, so each ear reads its shared variables off those counts.
    """
    if query.kind != "cq":
        raise ValueError("join trees are defined for positive single-disjunct queries")
    atom_vars = [a.variables for a in query.conjuncts[0].positive_atoms]
    holders: Counter[str] = Counter()
    for variables in atom_vars:
        holders.update(variables)
    remaining = list(range(len(atom_vars)))
    parent: dict[int, int] = {}
    while len(remaining) > 1:
        for ear in remaining:
            shared = {v for v in atom_vars[ear] if holders[v] > 1}
            witness = next((j for j in remaining if j != ear and shared <= atom_vars[j]), None)
            if witness is not None:
                break
        else:
            return None
        parent[ear] = witness
        remaining.remove(ear)
        for v in atom_vars[ear]:
            holders[v] -= 1
    return _tree(remaining[0], parent, dict(enumerate(atom_vars)))


# --- tree decompositions -----------------------------------------------------


def primal_graph(conjunct: Conjunct) -> dict[str, set[str]]:
    """Variables as vertices, an edge for each co-literal variable pair."""
    adj: dict[str, set[str]] = {v: set() for v in sorted(conjunct.variables)}
    for literal in conjunct.literals:
        var_list = sorted(literal.variables)
        for a, b in itertools.combinations(var_list, 2):
            adj[a].add(b)
            adj[b].add(a)
    return adj


def tree_decompose(query: Query) -> TreeDecomposition:
    """Tree decomposition of a single-disjunct query's primal graph, from a
    min-fill elimination order. Its width is an upper bound on the treewidth,
    which is all the bag engine needs.

    Each step eliminates the vertex whose neighbours lack the fewest edges,
    the least name first among ties, and joins its neighbours into a clique
    (fill-in). Bag i is the i-th eliminated vertex with its neighbours at that
    moment; its parent is the bag of the first of those neighbours to go.
    """
    if len(query.conjuncts) != 1:
        raise ValueError("tree decompositions are built per disjunct")
    work = primal_graph(query.conjuncts[0])
    if not work:
        return _tree(0, {}, {0: frozenset()})

    def fill(v: str) -> int:
        return sum(1 for a, b in itertools.combinations(work[v], 2) if b not in work[a])

    # Fill counts live in a heap and are recounted only around the
    # eliminated vertex, where they can change.
    current = {v: fill(v) for v in work}
    heap = [(f, v) for v, f in current.items()]
    heapq.heapify(heap)
    position: dict[str, int] = {}
    bags: dict[int, frozenset[str]] = {}
    while work:
        f, best = heapq.heappop(heap)
        if best not in work or current[best] != f:
            continue  # a stale count
        neighbors = work.pop(best)
        position[best] = len(bags)
        bags[len(bags)] = frozenset(neighbors | {best})
        for a, b in itertools.combinations(neighbors, 2):
            work[a].add(b)
            work[b].add(a)
        for n in neighbors:
            work[n].discard(best)
        # A count changes only where a neighbourhood or an edge inside one
        # changed: at the neighbours and at their neighbours.
        touched = set(neighbors).union(*(work[n] for n in neighbors))
        for v in touched:
            f = fill(v)
            if f != current[v]:
                current[v] = f
                heapq.heappush(heap, (f, v))
    root = len(bags) - 1
    # A bag with no later neighbour roots a component of its own; it hangs
    # off the global root, as its variables appear nowhere else.
    parent = {i: min((position[u] for u in bag if position[u] > i), default=root)
              for i, bag in bags.items() if i != root}
    return _tree(root, parent, bags)


# --- nice normal form ----------------------------------------------------------


def make_nice(td: TreeDecomposition) -> TreeDecomposition:
    """An equivalent nice tree decomposition of the same width, returned as a
    plain `TreeDecomposition`: each node has no child; or one child whose bag
    differs from its own by one variable (introduce or forget); or two
    children with its bag (join). Leaf bags stay as built; they are not
    forced down to singletons."""
    bags: dict[int, frozenset[str]] = {}
    children: dict[int, tuple[int, ...]] = {}
    counter = itertools.count()

    def new_node(bag: frozenset[str], *kids: int) -> int:
        node = next(counter)
        bags[node] = bag
        children[node] = kids
        return node

    def chain_to(top_bag: frozenset[str], node: int) -> int:
        """Forget/introduce chain morphing the bag of `node` into top_bag."""
        for z in sorted(bags[node] - top_bag):
            node = new_node(bags[node] - {z}, node)
        for z in sorted(top_bag - bags[node]):
            node = new_node(bags[node] | {z}, node)
        return node

    # Old nodes children first, so node ids come out as a recursive build
    # would number them.
    built: dict[int, int] = {}  # old node -> top of its nice subtree
    for old in _postorder(td.root, td.children):
        kids = [built.pop(c) for c in td.children.get(old, ())]
        bag = td.bags[old]
        if not kids:
            built[old] = new_node(bag)
            continue
        tops = [chain_to(bag, kid) for kid in kids]
        node = tops[0]
        for other in tops[1:]:
            node = new_node(bag, node, other)
        built[old] = node
    return TreeDecomposition(built[td.root], children, bags)


# --- validation -----------------------------------------------------------------


def _tree_shape_violation(root: int, children: dict[int, tuple[int, ...]],
                          nodes: Iterable[int]) -> str | None:
    nodes = set(nodes)
    if root not in nodes:
        return f"root {root} is not a node"
    seen: set[int] = set()
    stack = [root]
    while stack:
        node = stack.pop()
        if node in seen:
            return f"node {node} reached twice (not a tree)"
        seen.add(node)
        for child in children.get(node, ()):
            if child not in nodes:
                return f"edge to unknown node {child}"
            stack.append(child)
    if seen != nodes:
        missing = sorted(nodes - seen)
        return f"nodes {missing} unreachable from the root"
    return None


def validate_decomposition(structure: TreeDecomposition, query: Query) -> list[str]:
    """All violated structural conditions, first one first; empty means valid.

    A join tree is checked as the tree decomposition it is. Once the shape
    is a tree, a variable's bags are connected exactly when one of them, its
    topmost, has no parent bag holding it (Kloks, LNCS 842, 1994), so one
    pass over the edges counts those tops for every variable.
    """
    conjunct = query.conjuncts[0]
    violations: list[str] = []
    shape = _tree_shape_violation(structure.root, structure.children, structure.bags)
    if shape:
        return [shape]
    nodes_with: dict[str, set[int]] = {}  # per variable, the nodes whose bag holds it
    for node, bag in structure.bags.items():
        for v in bag:
            nodes_with.setdefault(v, set()).add(node)
    violations += [
        f"bag variable {v} is not a variable of the query"
        for v in sorted(nodes_with.keys() - conjunct.variables)
    ]
    for i, literal in enumerate(conjunct.literals):
        variables = literal.variables
        # the bags holding some variable of the literal, or all of them
        near = nodes_with.get(min(variables), ()) if variables else structure.bags
        if not any(variables <= structure.bags[n] for n in near):
            violations.append(f"literal #{i} ({literal.atom.relation}) covered by no bag")
    tops = Counter(structure.bags[structure.root])
    for node, bag in structure.bags.items():
        for child in structure.children.get(node, ()):
            tops.update(structure.bags[child] - bag)
    violations += [
        f"occurrences of variable {v} are disconnected"
        for v in sorted(conjunct.variables) if tops[v] > 1
    ]
    return violations


# --- import/export ----------------------------------------------------------------


def format_decomposition(td: TreeDecomposition) -> str:
    """Line format: `node <id> bag v1,v2,...`, `edge <p> <c>`, `root <id>`."""
    lines = []
    for node in sorted(td.bags):
        lines.append(f"node {node} bag {','.join(sorted(td.bags[node]))}")
    for parent in sorted(td.children):
        for child in td.children[parent]:
            lines.append(f"edge {parent} {child}")
    lines.append(f"root {td.root}")
    return "\n".join(lines) + "\n"


# One decomposition item and the blanks around it, or only blanks:
# `node N bag x,y` (`node N bag` is an empty bag), `node N x,y`, `edge A B`
# or `root N`, with the identifiers and integers of rule text. Groups 1, 5
# and 8 hold the keyword, 2, 6, 7 and 9 the ids, and 3 or 4 the variables.
_ID, _VARIABLES = rf"\s+({INT_LITERAL})", rf"({IDENT}(?:\s*,\s*{IDENT})*)"
_ITEM_RE = re.compile(rf"\s*(?:(node){_ID}(?:\s+bag(?:\s+{_VARIABLES})?|\s+{_VARIABLES})"
                      rf"|(edge){_ID}{_ID}|(root){_ID})?\s*")


def parse_decomposition(text: str) -> TreeDecomposition:
    """Parse the line format accepted by the CLI's --decomposition flag.

    Items may be separated by line breaks (`\\r\\n`, `\\r` or `\\n`, as in
    rule text) or semicolons, and `#` starts a comment that runs to the end
    of its line. `node N bag` with no variable list is an empty bag, as
    format_decomposition writes one. Edges are undirected and oriented away
    from the declared root; a repeated edge is harmless.
    A malformed item, a node declared twice, a second root, an edge to an
    undeclared node, a self-loop, an edge that closes a cycle, and a node
    the root cannot reach are each a QuerySyntaxError at the line that
    holds them.
    """
    bags: dict[int, frozenset[str]] = {}
    node_line: dict[int, int] = {}
    edges: list[tuple[int, int, int]] = []  # (one end, other end, line)
    root: int | None = None
    root_line = lineno = 0
    for lineno, line in enumerate(_LINE_BREAK_RE.split(text), start=1):
        for item in line.partition("#")[0].split(";"):
            m = _ITEM_RE.fullmatch(item)
            if m is None:
                raise QuerySyntaxError(f"bad decomposition item {item.strip()!r}", lineno, 1)
            ids = [parse_int_literal(m[n], lineno, 1) for n in (2, 6, 7, 9) if m[n]]
            if m[1]:
                node = ids[0]
                if node in bags:
                    raise QuerySyntaxError(f"node {node} is declared twice "
                                           f"(first on line {node_line[node]})", lineno, 1)
                bags[node] = frozenset(re.findall(IDENT, m[3] or m[4] or ""))
                node_line[node] = lineno
            elif m[5]:
                edges.append((ids[0], ids[1], lineno))
            elif m[8]:
                if root is not None:
                    raise QuerySyntaxError(
                        f"root is declared twice (first on line {root_line})", lineno, 1)
                root, root_line = ids[0], lineno
    if root is None:  # at the last line, which a final line break does not start
        raise QuerySyntaxError("decomposition lacks a root line", max(lineno - (not line), 1), 1)
    if root not in bags:
        raise QuerySyntaxError(f"root {root} is not a declared node", root_line, 1)
    adj: dict[int, set[int]] = {n: set() for n in bags}
    component = {n: n for n in bags}  # union-find over the edges read so far

    def find(n: int) -> int:
        while component[n] != n:
            component[n] = component[component[n]]
            n = component[n]
        return n

    for a, b, line in edges:
        if a not in bags or b not in bags:
            raise QuerySyntaxError(f"edge {a} {b} references an unknown node", line, 1)
        if a == b:
            raise QuerySyntaxError(f"edge {a} {b} is a self-loop", line, 1)
        if b in adj[a]:
            continue
        if find(a) == find(b):
            raise QuerySyntaxError(f"edge {a} {b} closes a cycle", line, 1)
        component[find(a)] = find(b)
        adj[a].add(b)
        adj[b].add(a)
    parent = _orient(root, adj)
    if len(parent) + 1 < len(bags):
        stray = min(set(bags) - set(parent) - {root}, key=node_line.__getitem__)
        raise QuerySyntaxError(f"node {stray} is not connected to root {root}",
                               node_line[stray], 1)
    return _tree(root, parent, bags)
