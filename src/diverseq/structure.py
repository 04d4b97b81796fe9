"""Join trees (via GYO ear removal), tree decompositions (min-fill heuristic
or exact branch-and-bound), the nice normal form, and validators.

All constructions are deterministic: ears are removed in ascending atom-index
order, elimination orders break ties by variable name, and node ids are
assigned in creation order, so identical inputs give identical structures.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Iterable

from .errors import ExactSearchBudgetExceeded, QuerySyntaxError
from .queries import Conjunct, Query


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


@dataclass
class TreeDecomposition:
    """A rooted tree of variable bags covering every literal."""

    root: int
    children: dict[int, tuple[int, ...]]
    bags: dict[int, frozenset[str]]

    @property
    def width(self) -> int:
        return max(len(bag) for bag in self.bags.values()) - 1

    def postorder(self) -> list[int]:
        return _postorder(self.root, self.children)


@dataclass
class NiceTreeDecomposition(TreeDecomposition):
    """Tree decomposition restricted to leaf / introduce / forget / join nodes.

    kinds maps a node id to "leaf", "join", ("introduce", z) or ("forget", z).
    Leaf bags stay as built; they are not forced down to singletons.
    """

    kinds: dict[int, object] = field(default_factory=dict)


# --- GYO join-tree construction ----------------------------------------------


def gyo_join_tree(query: Query) -> TreeDecomposition | None:
    """Join tree of a positive single-disjunct query, or None if cyclic.

    Node i stands for atom i and has its variables as bag, so the join tree
    is a tree decomposition. Ear removal: repeatedly drop the lowest-index
    atom whose shared variables are covered by a single other atom (the
    lowest-index such witness becomes its parent). The last remaining atom
    is the root.
    """
    if query.kind != "cq":
        raise ValueError("join trees are defined for positive single-disjunct queries")
    atoms = query.conjuncts[0].positive_atoms
    atom_vars = [a.variables for a in atoms]
    remaining = list(range(len(atoms)))
    parent: dict[int, int] = {}
    while len(remaining) > 1:
        ear = None
        for i in remaining:
            others = [j for j in remaining if j != i]
            shared = atom_vars[i] & frozenset().union(*(atom_vars[j] for j in others))
            witness = next((j for j in others if shared <= atom_vars[j]), None)
            if witness is not None:
                ear = (i, witness)
                break
        if ear is None:
            return None
        i, witness = ear
        parent[i] = witness
        remaining.remove(i)
    root = remaining[0]
    children: dict[int, list[int]] = {i: [] for i in range(len(atoms))}
    for child, par in sorted(parent.items()):
        children[par].append(child)
    return TreeDecomposition(
        root=root,
        children={n: tuple(cs) for n, cs in children.items()},
        bags=dict(enumerate(atom_vars)),
    )


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


def _decomposition_from_order(adj: dict[str, set[str]], order: list[str]) -> TreeDecomposition:
    """Standard bag tree from an elimination order (with fill-in)."""
    if not adj:
        return TreeDecomposition(root=0, children={0: ()}, bags={0: frozenset()})
    work = {v: set(ns) for v, ns in adj.items()}
    position = {v: i for i, v in enumerate(order)}
    bags: dict[int, frozenset[str]] = {}
    parent_of: dict[int, int] = {}
    bag_of_vertex: dict[str, int] = {}
    for i, v in enumerate(order):
        neighbors = work[v]
        bags[i] = frozenset({v} | neighbors)
        bag_of_vertex[v] = i
        for a, b in itertools.combinations(neighbors, 2):
            work[a].add(b)
            work[b].add(a)
        for n in neighbors:
            work[n].discard(v)
        del work[v]
    for i, v in enumerate(order):
        rest = bags[i] - {v}
        if rest:
            first = min(rest, key=lambda u: position[u])
            parent_of[i] = bag_of_vertex[first]
    root = len(order) - 1
    # Orphan component roots hang off the global root; their variables appear
    # nowhere else, so connectedness is unaffected.
    for i in range(len(order)):
        if i != root and i not in parent_of:
            parent_of[i] = root
    children: dict[int, list[int]] = {i: [] for i in bags}
    for child, par in sorted(parent_of.items()):
        children[par].append(child)
    return TreeDecomposition(
        root=root,
        children={n: tuple(cs) for n, cs in children.items()},
        bags=bags,
    )


def _min_fill_order(adj: dict[str, set[str]]) -> list[str]:
    """Eliminate, each time, the vertex whose neighbours lack the fewest
    edges, the least name first among ties. Fill counts live in a heap and
    are recounted only around the eliminated vertex, where they can change."""
    work = {v: set(ns) for v, ns in adj.items()}

    def fill(v: str) -> int:
        return sum(1 for a, b in itertools.combinations(work[v], 2) if b not in work[a])

    current = {v: fill(v) for v in work}
    heap = [(f, v) for v, f in current.items()]
    heapq.heapify(heap)
    order: list[str] = []
    while work:
        f, best = heapq.heappop(heap)
        if best not in work or current[best] != f:
            continue  # a stale count
        order.append(best)
        neighbors = work.pop(best)
        for a, b in itertools.combinations(sorted(neighbors), 2):
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
    return order


def _exact_order(adj: dict[str, set[str]], budget: int) -> list[str]:
    """Minimum-width elimination order by branch and bound.

    The fill graph after eliminating a set S is order-independent: u and w are
    adjacent iff they are adjacent in G or connected via a path through S.
    That makes the remaining-vertex set a sound memoization key.
    """
    vertices = sorted(adj)
    n = len(vertices)
    index = {v: i for i, v in enumerate(vertices)}
    base = [0] * n
    for v, ns in adj.items():
        for u in ns:
            base[index[v]] |= 1 << index[u]

    state_count = 0
    best_width: dict[int, int] = {}

    def neighbors_in(remaining: int) -> list[int]:
        # Adjacency of the fill graph restricted to `remaining`.
        eliminated = ~remaining
        masks = []
        for i in range(n):
            if not (remaining >> i) & 1:
                masks.append(0)
                continue
            # BFS through eliminated vertices.
            seen = 1 << i
            frontier = base[i]
            reach = base[i] & remaining
            frontier &= eliminated & ~seen
            while frontier:
                seen |= frontier
                nxt = 0
                f = frontier
                while f:
                    j = (f & -f).bit_length() - 1
                    f &= f - 1
                    nxt |= base[j]
                reach |= nxt & remaining
                frontier = nxt & eliminated & ~seen
            masks.append(reach & ~(1 << i))
        return masks

    def solve(remaining: int) -> int:
        nonlocal state_count
        if remaining == 0:
            return -1
        cached = best_width.get(remaining)
        if cached is not None:
            return cached
        state_count += 1
        if state_count > budget:
            raise ExactSearchBudgetExceeded(
                f"exact treewidth search exceeded {budget} states"
            )
        masks = neighbors_in(remaining)
        result = n
        for i in range(n):
            if not (remaining >> i) & 1:
                continue
            degree = bin(masks[i]).count("1")
            if degree >= result:
                continue
            rest = solve(remaining & ~(1 << i))
            result = min(result, max(degree, rest))
        best_width[remaining] = result
        return result

    if n == 0:
        return []
    solve((1 << n) - 1)

    # Rebuild one optimal order from the memo table.
    order: list[str] = []
    remaining = (1 << n) - 1
    while remaining:
        masks = neighbors_in(remaining)
        target = best_width[remaining]
        for i in range(n):
            if not (remaining >> i) & 1:
                continue
            degree = bin(masks[i]).count("1")
            rest = remaining & ~(1 << i)
            rest_width = best_width.get(rest)
            if rest_width is None:
                rest_width = solve(rest)
            if max(degree, rest_width) == target:
                order.append(vertices[i])
                remaining = rest
                break
        else:  # pragma: no cover - the memo always admits a continuation
            raise AssertionError("failed to rebuild elimination order")
    return order


def tree_decompose(query: Query, method: str = "minfill", *,
                   exact_budget: int = 200_000) -> TreeDecomposition:
    """Tree decomposition of a single-disjunct query's primal graph.

    method "minfill" is the default heuristic; "exact" finds minimum width by
    branch and bound and raises ExactSearchBudgetExceeded past its budget.
    """
    if len(query.conjuncts) != 1:
        raise ValueError("tree decompositions are built per disjunct")
    adj = primal_graph(query.conjuncts[0])
    if method == "minfill":
        order = _min_fill_order(adj)
    elif method == "exact":
        order = _exact_order(adj, exact_budget)
    else:
        raise ValueError(f"unknown method {method!r}")
    return _decomposition_from_order(adj, order)


# --- nice normal form ----------------------------------------------------------


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Equivalent nice tree decomposition of the same width."""
    bags: dict[int, frozenset[str]] = {}
    kinds: dict[int, object] = {}
    children: dict[int, list[int]] = {}
    counter = itertools.count()

    def new_node(bag: frozenset[str], kind: object, kids: list[int]) -> int:
        node = next(counter)
        bags[node] = bag
        kinds[node] = kind
        children[node] = kids
        return node

    def chain_to(top_bag: frozenset[str], node: int) -> int:
        """Forget/introduce chain morphing the bag of `node` into top_bag."""
        current = bags[node]
        for z in sorted(current - top_bag):
            bag = bags[node] - {z}
            node = new_node(bag, ("forget", z), [node])
        for z in sorted(top_bag - bags[node]):
            bag = bags[node] | {z}
            node = new_node(bag, ("introduce", z), [node])
        return node

    # Old nodes children first, so node ids come out as a recursive build
    # would number them.
    built: dict[int, int] = {}  # old node -> top of its nice subtree
    for old in _postorder(td.root, td.children):
        kids = [built.pop(c) for c in td.children.get(old, ())]
        bag = td.bags[old]
        if not kids:
            built[old] = new_node(bag, "leaf", [])
            continue
        tops = [chain_to(bag, kid) for kid in kids]
        node = tops[0]
        for other in tops[1:]:
            node = new_node(bag, "join", [node, other])
        built[old] = node

    return NiceTreeDecomposition(
        root=built[td.root],
        children={n: tuple(cs) for n, cs in children.items()},
        bags=bags,
        kinds=kinds,
    )


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


def _connected(nodes_with: set[int], adj: dict[int, set[int]]) -> bool:
    """Do the given nodes induce a connected subtree?"""
    if not nodes_with:
        return True
    start = next(iter(nodes_with))
    seen = {start}
    stack = [start]
    while stack:
        node = stack.pop()
        for other in adj.get(node, ()):
            if other in nodes_with and other not in seen:
                seen.add(other)
                stack.append(other)
    return seen == nodes_with


def validate_decomposition(structure: TreeDecomposition, query: Query) -> list[str]:
    """All violated structural conditions, first one first; empty means valid.

    A join tree is checked as the tree decomposition it is.
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
    adj: dict[int, set[int]] = {}
    for parent, kids in structure.children.items():
        for kid in kids:
            adj.setdefault(parent, set()).add(kid)
            adj.setdefault(kid, set()).add(parent)
    violations += [
        f"occurrences of variable {v} are disconnected"
        for v in sorted(conjunct.variables)
        if not _connected(nodes_with.get(v, set()), adj)
    ]
    if isinstance(structure, NiceTreeDecomposition):
        for node in structure.bags:
            kind = structure.kinds.get(node)
            kids = structure.children.get(node, ())
            bag = structure.bags[node]
            if kind == "leaf":
                if kids:
                    violations.append(f"leaf node {node} has children")
            elif kind == "join":
                if len(kids) != 2 or any(structure.bags[c] != bag for c in kids):
                    violations.append(f"join node {node} lacks two equal-bag children")
            elif isinstance(kind, tuple) and kind[0] == "introduce":
                if len(kids) != 1 or structure.bags[kids[0]] | {kind[1]} != bag \
                        or kind[1] in structure.bags[kids[0]]:
                    violations.append(f"introduce node {node} malformed")
            elif isinstance(kind, tuple) and kind[0] == "forget":
                if len(kids) != 1 or bag | {kind[1]} != structure.bags[kids[0]] \
                        or kind[1] in bag:
                    violations.append(f"forget node {node} malformed")
            else:
                violations.append(f"node {node} has unknown kind {kind!r}")
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


def parse_decomposition(text: str) -> TreeDecomposition:
    """Parse the line format accepted by the CLI's --decomposition flag.

    Items may be separated by newlines or semicolons; edges are oriented away
    from the declared root.
    """
    bags: dict[int, frozenset[str]] = {}
    edges: list[tuple[int, int]] = []
    root: int | None = None
    items = [piece.strip() for chunk in text.splitlines() for piece in chunk.split(";")]
    for lineno, item in enumerate(items, start=1):
        if not item or item.startswith("#"):
            continue
        parts = item.split()
        try:
            if parts[0] == "node":
                if len(parts) == 3:
                    node, bag_text = int(parts[1]), parts[2]
                elif len(parts) == 4 and parts[2] == "bag":
                    node, bag_text = int(parts[1]), parts[3]
                else:
                    raise ValueError(item)
                bags[node] = frozenset(v for v in bag_text.split(",") if v)
            elif parts[0] == "edge" and len(parts) == 3:
                edges.append((int(parts[1]), int(parts[2])))
            elif parts[0] == "root" and len(parts) == 2:
                root, root_line = int(parts[1]), lineno
            else:
                raise ValueError(item)
        except ValueError:
            raise QuerySyntaxError(f"bad decomposition item {item!r}", lineno, 1) from None
    if root is None:
        raise QuerySyntaxError("decomposition lacks a root line", len(items), 1)
    if root not in bags:
        raise QuerySyntaxError(f"root {root} is not a declared node", root_line, 1)
    adj: dict[int, set[int]] = {n: set() for n in bags}
    for a, b in edges:
        if a not in bags or b not in bags:
            raise QuerySyntaxError(f"edge {a} {b} references an unknown node", 1, 1)
        adj[a].add(b)
        adj[b].add(a)
    children: dict[int, tuple[int, ...]] = {}
    seen = {root}
    queue = [root]
    while queue:
        node = queue.pop(0)
        kids = tuple(sorted(n for n in adj[node] if n not in seen))
        children[node] = kids
        for kid in kids:
            seen.add(kid)
            queue.append(kid)
    if seen != set(bags):
        raise QuerySyntaxError("decomposition edges do not form a tree", 1, 1)
    return TreeDecomposition(root=root, children=children, bags=bags)
