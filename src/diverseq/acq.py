"""Diversity solver for acyclic conjunctive queries, and the tree DP it
shares with `cqneg`.

The solver runs one dynamic program over a join tree. A table entry pairs a
k-tuple of partial solutions (an atom's answers, as value-index tuples) with
a state: what the entry remembers of the pairwise Hamming distances of the
extensions to the whole subtree it stands for, over the free variables that
subtree counts. Each free variable is counted by one node, the first in
postorder whose bag holds it (`TreeSolver.counted`), so the tables merged
into one count disjoint variables and extensions merge bottom-up by a plain
sum

    combined = d_parent + d_child

and the root, whose subtree counts every free variable, holds the whole
distance. Every table carries those variables as its `columns`. Each entry
keeps the best sum of those distances and provenance, which lets a concrete
witness be rebuilt afterwards. A table is one of two kinds:

    exact      the state is the pair-distance vector, merged by the sum
               above; the root aggregates it, so any aggregator works
    stateless  the state is empty, so one entry per tuple keeps the best
               sum; the root scores an entry by that sum. A solve builds
               these exactly when it sums distances and allows duplicate
               answers (`solve_acq_sum_dup`)

A merge keeps, per new key, the first candidate with the highest sum; in an
exact table every candidate for a key has the same sum. Pair-distance
vectors follow `model.pair_order`.

`TreeSolver` is the one driver of both DP engines: a join tree is a tree
decomposition whose bags are atoms (Gottlob, Leone and Scarcello, JCSS
2002). Its k = 1 pass gives each bag its sols. In postorder, a bag whose
variables are a positive atom's semi-joins that atom's sols with its
children's and the other atoms it covers; any other bag is a lazy hash
join. The root's sols are refused once their sorted k-tuples outnumber the
cap. A down sweep (Yannakakis, VLDB 1981) then leaves each bag its share of
the answers; the sols it drops are on no root entry's provenance chain, so
only the tables below the root shrink. The driver then builds each node's
table by one of four rules:

    leaf       `dp_init` of a childless node
    forget     when the node has one child and that child's bag holds its
               own: the child's table under the node's id
    introduce  otherwise, the node's `dp_init` merged with the table of its
               first child in merge order (`dp_merge`)
    join       the table so far merged with each further child's table, in
               `merge_order`

A forget needs no projection: the reduced child's sols project onto
exactly the node's, and whatever the node shares with its parent lies in
its bag, so the parent's merge projects the child's table if it must. A
node with more children starts from its own sols, since its siblings,
merged into the child's table, would multiply entries that differ only
where no one else reads them. The root is decided by `dp_finalize` and the
witness rebuilt by `extract_witness`, which checks each answer against the
query's literals.

Every table is closed under permuting the k slots, so each one stores only
its entries at sorted (non-decreasing) slot tuples: the full table is the
stored one with every slot permutation applied. A merge lines a sorted child
tuple up with a sorted parent tuple through a slot map sigma (parent slot i
reads child slot sigma[i]), reads the child's per-pair values through it, and
records sigma in the provenance link.

Every table keeps its sols' answer rows (`DPTable.rows`): a sol's values on
its table's leading columns, which the sol's extension to the subtree
fixes, and on none of them in a projection. A table is stored as rows or as
a matrix table. A table whose entries all come from one distance matrix
over its sols (an atom's initial table, and what merging such tables makes)
has rows over all its columns and stores nothing else: one entry per sorted
slot tuple, whose state is the Hamming distances of its slots' rows. A
matrix entry's answers are its rows, so it keeps no links. A reader of every entry (a row merge, a
projection, or a root read entry by entry) reads the lower triangle of the
rows' distances (`model.distance_rows`), built once and only when an entry
has a pair, so k = 1 builds none. Every other table stores its entries as
rows, a dict. Both read alike: a read-only mapping in
`combinations_with_replacement` order. A link crosses one tree edge, to a
child's table or, in a projection, to the table it projects, so the witness
walk has one rule: bind each slot's sol and answer row, then follow the
entry's links.

A merge first makes its join functional: the shared variables of a parent
sol pick at most one child sol, its partner. The merge alone decides whether
a child is projected: one whose sols share a projection onto the shared
variables is projected onto them (`dp_project`), and any other is merged as
it is. A projection lands each entry at its slots' projections, re-sorted,
once per arrangement of the slots that project alike, and keeps per key the
first entry with the highest sum; no other rule of either engine projects.
A parent tuple holding a sol with no partner joins nothing. If every sol has
a partner and both tables are matrix tables, the merge adds answer rows:
each parent sol's row is extended by its partner's, whose columns are
variables the parent does not count, so P[a][b] + C[single[a]][single[b]]
is the Hamming distance of the extended rows. Otherwise each sorted parent
tuple reads its partners sorted, under the inverse of their stable argsort,
which is the identity when they are already sorted. The merged table keeps
the parent's rows, and each new entry keeps the parent entry's links and
adds one to the child entry it joined. A node merges its children in
`merge_order`, those it adds as answer rows first, so a matrix table stays
one as long as it can. Each projection of a table's sols onto a
variable set is made once (`DPTable.projection`), and the merge order and
the merges share it.

A matrix root asks what the fo-kernel search asks: which k of its rows
aggregate highest. `dp_finalize` answers it with the same branch and bound
(`model.best_tuple`) over its answer rows, each pair's distance counted
when the search reaches it, under a monotone aggregator, and reads any
other root entry by entry.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Callable, Collection, Iterator, Mapping
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import DEFAULT_TABLE_CAP, CorruptProvenance, NotAcyclic, TableGuardExceeded
from .model import (
    SUM,
    Aggregator,
    Assignment,
    Database,
    Outcome,
    best_tuple,
    distance_rows,
    pair_order,
    pairwise_distances,
)
from .queries import (Atom, Literal, Query, Variable, _tuple_of, join, relation_of,
                      render_term, satisfies_literal, sols_atom)
from .structure import TreeDecomposition, gyo_join_tree


@functools.lru_cache(maxsize=4096)
def _pair_map(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Position in a child's pair vector of each parent pair under sigma."""
    pairs = pair_order(len(sigma))
    pos = {p: n for n, p in enumerate(pairs)}
    return tuple(pos[(a, b) if a < b else (b, a)]
                 for a, b in ((sigma[i], sigma[j]) for i, j in pairs))


@functools.lru_cache(maxsize=4096)
def _arrangements(projs: tuple, repeats: tuple, target: tuple) -> tuple[tuple[int, ...], ...]:
    """Slot maps sigma giving parent slot i a child slot sigma[i] whose
    projection is target[i], for a sorted child tuple whose slots project to
    `projs` and where repeats[s] says slot s + 1 holds slot s's value.

    One sigma per distinct rearranged child tuple, in ascending order of that
    tuple. Maps that rearrange the tuple alike differ by a permutation of
    equal slots, under which the stored child entries are already closed.
    Projections come relabeled by first appearance in the target, so the
    arguments range over a few patterns per k and the cache stays small.

    Each parent slot, in order, takes the next free slot of a child group (a
    run of equal child slots) projecting to its target, groups ascending. So
    each map is reached once, never by way of the orders of equal slots.
    """
    starts = [s for s in range(len(projs)) if not s or not repeats[s - 1]]
    groups = [range(a, b) for a, b in zip(starts, starts[1:] + [len(projs)])]
    used, sigma = [0] * len(groups), [0] * len(target)
    found: list[tuple[int, ...]] = []

    def place(i: int) -> None:
        if i == len(target):
            found.append(tuple(sigma))
            return
        for g, slots in enumerate(groups):
            if used[g] < len(slots) and projs[slots[0]] == target[i]:
                sigma[i] = slots[used[g]]
                used[g] += 1
                place(i + 1)
                used[g] -= 1

    place(0)
    return tuple(found)


def _slot_maps(ctuple: tuple[int, ...], proj: Sequence, target: tuple) -> tuple[tuple[int, ...], ...]:
    """`_arrangements` of a sorted child tuple whose slot s projects to
    proj[ctuple[s]] onto `target`, a sorted rearrangement of those
    projections."""
    labels: dict = {}
    relabeled = tuple([labels.setdefault(t, len(labels)) for t in target])
    projs = tuple([labels[proj[c]] for c in ctuple])
    repeats = tuple([a == b for a, b in zip(ctuple, ctuple[1:])])
    return _arrangements(projs, repeats, relabeled)


@functools.lru_cache(maxsize=4096)
def _cut(variables: frozenset[str], names: Collection[str]) -> Callable | None:
    """What cuts an index tuple over the sorted `variables` to those among
    `names`, or None when that keeps every column."""
    cols = [n for n, v in enumerate(sorted(variables)) if v in names]
    return None if len(cols) == len(variables) else _tuple_of(cols)


def _project(sols: Sequence[tuple], variables: frozenset[str],
             names: Collection[str]) -> Sequence[tuple]:
    """Each sol, an index tuple over the sorted `variables`, cut to `names`
    (hashable): `sols` itself when that keeps every column."""
    cut = _cut(variables, names)
    return sols if cut is None else list(map(cut, sols))


def _sorted_tuples(n: int, k: int) -> int:
    """How many sorted k-tuples n sols make: C(n + k - 1, k), and 1, the
    empty tuple, when k = 0, even over no sols."""
    return math.comb(n + k - 1, k) if k else 1


def _sorting_map(partners: tuple[int, ...]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The partners sorted, and the slot map sigma under which parent slot i
    reads the slot that sorting moved partners[i] to: the inverse of their
    stable argsort, the identity when they are already sorted."""
    ctuple = tuple(sorted(partners))
    slots = range(len(partners))
    if ctuple == partners:
        return ctuple, tuple(slots)
    order = sorted(slots, key=partners.__getitem__)
    return ctuple, tuple(sorted(slots, key=order.__getitem__))


class _MatrixEntries(Mapping):
    """A table's entries read off one answer row per sol.

    A sol's row holds its values on the table's `columns`, the free
    variables its subtree counts, on which the sol's extension to the
    subtree is fixed. There is one entry per sorted slot tuple: its state is
    the Hamming distances of its slots' rows in pair order (() when
    stateless) and its sum is theirs. Its answers are its rows, so it has
    no provenance links. Nothing per entry is stored.

    A single entry's distances are read off its rows. A reader of every
    entry (`items`) reads the lower triangle of the rows' distances
    (`model.distance_rows`), built once and only when an entry has a pair,
    so k = 1 builds none.
    """

    def __init__(self, rows: list[tuple[int, ...]], k: int, stateless: bool) -> None:
        self.rows = rows
        self.k = k
        self.stateless = stateless
        self._pairs = pair_order(k)
        self._matrix: list[list[int]] | None = None

    def __len__(self) -> int:
        return _sorted_tuples(len(self.rows), self.k)

    def __iter__(self) -> Iterator[tuple]:
        return (key for key, _ in self.items())

    def __getitem__(self, key: tuple) -> tuple[int, tuple]:
        total = self._sum(key)
        if total is None:
            raise KeyError(key)
        return total, ()

    def state(self, ptuple: tuple[int, ...]) -> tuple[int, ...]:
        """The state of the entry at a sorted slot tuple."""
        return () if self.stateless else self._distances(ptuple)

    def items(self) -> Iterator[tuple[tuple, tuple[int, tuple]]]:
        """(key, (sum, ())) per entry, in order. The triangle is built only
        when an entry has a pair to read."""
        pairs, stateless = self._pairs, self.stateless
        slots = itertools.combinations_with_replacement(range(len(self.rows)), self.k)
        if not pairs:
            yield from (((ptuple, ()), (0, ())) for ptuple in slots)
            return
        m = self._matrix
        if m is None:
            m = self._matrix = list(distance_rows(self.rows))
        for ptuple in slots:
            vec = tuple([m[ptuple[j]][ptuple[i]] for i, j in pairs])
            yield (ptuple, () if stateless else vec), (sum(vec), ())

    def _sum(self, key: object) -> int | None:
        """The sum of the entry at key, or None when the table holds none."""
        if not (isinstance(key, tuple) and len(key) == 2 and isinstance(key[0], tuple)):
            return None
        ptuple, state = key
        n = len(self.rows)
        if len(ptuple) != self.k or not all(isinstance(a, int) and 0 <= a < n for a in ptuple) \
                or not all(map(operator.le, ptuple, ptuple[1:])):
            return None
        vec = self._distances(ptuple)
        if state != (() if self.stateless else vec):
            return None
        return sum(vec)

    def _distances(self, ptuple: tuple[int, ...]) -> tuple[int, ...]:
        rows, ne = self.rows, operator.ne
        return tuple([sum(map(ne, rows[ptuple[i]], rows[ptuple[j]])) for i, j in self._pairs])


@dataclass(eq=False, repr=False)
class DPTable:
    """DP table at one tree node: a join-tree atom or a decomposition bag.

    sols are the node's partial solutions over `variables`: value-index
    tuples over the sorted variables, sorted. `columns` are the free
    variables the table counts, those the nodes of its subtree count.
    `rows` holds each sol's answer row: its values on the leading columns,
    all of them in a matrix table, the parent's in a row merge, none in a
    projection. entries maps (sorted tuple of sol positions, state) to
    (best sum, provenance): one (child table, child entry key, sigma) link
    per child merged in as rows, or for a projection (`dp_project`) one
    link to the entry it projects, and none in a matrix table, whose
    answers are its rows. So a link crosses one tree edge. The state is
    the entry's pair-distance vector, or () when the table is stateless. A
    link holds the table itself, so it can reach a projection that is no
    tree node's table; so tables compare by identity, lest `==` or repr
    walk every table below.

    entries are stored as rows, a dict, or as a matrix table read off the
    rows (`_MatrixEntries`): `dp_init` makes a matrix table, and `dp_merge`
    makes one when it adds the answer rows of a functional join. Both are
    read-only mappings with the same keys, order and values.

    A projection of the sols onto a variable set is made once per table
    (`projection`). A table that `replace` makes from this one shares the
    projections, so it must keep the variables and sols; `dp_project`,
    which changes them, builds its table afresh.
    """

    node: int
    variables: frozenset[str]
    sols: list[tuple[int, ...]]
    k: int
    stateless: bool = False
    columns: tuple[str, ...] = ()
    rows: list[tuple[int, ...]] = field(default_factory=list)
    entries: Mapping[tuple, tuple] = field(default_factory=dict)
    _projections: dict[frozenset[str], list[tuple]] = field(default_factory=dict, repr=False)

    @property
    def answer_rows(self) -> list[tuple[int, ...]] | None:
        """The answer rows a matrix table's entries are read off, or None
        when they are stored as rows."""
        entries = self.entries
        return entries.rows if isinstance(entries, _MatrixEntries) else None

    def projection(self, names) -> list[tuple]:
        """Each sol cut to the variables among `names` (`_project`)."""
        cols = self.variables.intersection(names)
        found = self._projections.get(cols)
        if found is None:
            found = self._projections[cols] = _project(self.sols, self.variables, cols)
        return found

    def guard(self, table_cap: int) -> None:
        if len(self.entries) > table_cap:
            raise TableGuardExceeded(f"table at node {self.node} exceeded {table_cap} entries")

    def check_bound(self) -> None:
        """Assert the entries fit the table: its sorted slot tuples when
        stateless, else its n^k slot tuples times the pair-distance vectors,
        each distance 0 to len(columns)."""
        k, n = self.k, len(self.sols)
        if self.stateless:
            bound = _sorted_tuples(n, k)
            assert all(tuple(sorted(key[0])) == key[0] for key in self.entries), \
                "unsorted entry key"
        else:
            bound = n ** k * (len(self.columns) + 1) ** len(pair_order(k))
        assert len(self.entries) <= bound, \
            f"table at node {self.node} holds {len(self.entries)} entries, bound is {bound}"


def _slot_tuples(n: int, k: int, stateless: bool, table_cap: int) -> int | None:
    """The slot tuples a table over n sols counts: all n^k of them, or for a
    stateless table the sorted ones it stores. None when the count has 64
    bits more than table_cap, so surely exceeds it: a count far past the cap
    could take minutes to compute and be too long to print."""
    if n > 1:
        bits = (math.lgamma(n + k) - math.lgamma(k + 1) - math.lgamma(n)) / math.log(2) \
            if stateless else k * math.log2(n)
        if bits > max(table_cap, 1).bit_length() + 64:
            return None
    return _sorted_tuples(n, k) if stateless else n ** k


def dp_init(node: int, variables: frozenset[str], sols: list[tuple[int, ...]],
            k: int, free_vars: Sequence[str], *, stateless: bool = False,
            table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """Initial table: every sorted k-tuple of the node's sols, index tuples
    over its sorted variables, with its pair-distance vector (or () in a
    stateless table) and the sum of its distances. It is a matrix table:
    only each sol's answer row, its projection onto its columns, the free
    variables the node counts (`free_vars`), is stored.

    The guard counts the n^k slot tuples an exact table stands for, and
    the C(n + k - 1, k) sorted ones a stateless table stores. It also
    refuses a non-empty table when the C(k, 2) slot pairs that each entry
    lists outnumber the cap.
    """
    n = len(sols)
    size = _slot_tuples(n, k, stateless, table_cap)
    if size is None or size > table_cap:
        if size is None:
            size = f"C({n + k - 1}, {k})" if stateless else f"{n}^{k}"
        raise TableGuardExceeded(
            f"initial table at node {node}: {n} partial solutions, {size} slot tuples")
    if size and math.comb(k, 2) > table_cap:
        raise TableGuardExceeded(
            f"initial table at node {node}: each entry's {k} slots make "
            f"{math.comb(k, 2)} pairs")
    columns = tuple(sorted(variables.intersection(free_vars)))
    rows = _project(sols, variables, columns)
    return DPTable(node=node, variables=variables, sols=sols, k=k, stateless=stateless,
                   columns=columns, rows=rows, entries=_MatrixEntries(rows, k, stateless))


def dp_project(child: DPTable, variables: frozenset[str], *,
               table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """The child's table seen from fewer variables, a subset of its own.

    The sols are the child's distinct projections onto `variables`, sorted.
    Each child entry lands at its slots' projections, re-sorted, once per
    arrangement of the slots that project alike (`_slot_maps`), its state
    read through the slot map, which the provenance link records; a tuple
    whose projections stay strictly increasing lands as it is. Per key the
    first entry with the highest sum is kept. A stateless entry lands on
    one key under every arrangement, so it takes only the first, the stable
    argsort of its projections, and builds no other map. Only `dp_merge`
    projects a table, a child whose sols share a projection onto the shared
    variables, and the projection keeps the child's node id and columns.
    Its answer rows are empty: its links reach the child's.
    The guard runs each time the child slot tuple changes, and once at the
    end.
    """
    proj_sols = child.projection(variables)
    sols = sorted(set(proj_sols))
    index = {p: n for n, p in enumerate(sols)}
    proj = [index[p] for p in proj_sols]  # child sol -> projected sol
    stateless = child.stateless
    table = DPTable(node=child.node, variables=variables, sols=sols, k=child.k,
                    stateless=stateless, columns=child.columns, rows=[()] * len(sols))
    out = table.entries
    identity = tuple(range(child.k))
    # Where a slot tuple's entries land, keyed by its slots' projections
    # and which slots repeat their left neighbour, on which alone the slot
    # maps depend; a stateless entry's first slot map depends on its
    # projections alone, so they key its moves.
    cache: dict[tuple, list] = {}
    last = None
    for ckey, (value, _) in child.entries.items():
        ctuple, cstate = ckey
        if ctuple != last:
            table.guard(table_cap)
            last = ctuple
            projs = tuple([proj[c] for c in ctuple])
            at = projs if stateless else (projs, tuple(map(operator.eq, ctuple, ctuple[1:])))
            moves = cache.get(at)
        if moves is None:
            if all(map(operator.lt, projs, projs[1:])):  # still sorted, distinct
                moves = [(projs, identity, None)]
            elif stateless:  # the first slot map: the stable argsort
                sigma = tuple(sorted(identity, key=projs.__getitem__))
                moves = [(tuple([projs[s] for s in sigma]), sigma, None)]
            else:
                target = tuple(sorted(projs))
                moves = [(target, s, _pair_map(s)) for s in _slot_maps(ctuple, proj, target)]
            cache[at] = moves
        for target, sigma, pmap in moves:
            key = (target, cstate if pmap is None else tuple([cstate[m] for m in pmap]))
            prior = out.get(key)
            if prior is None or value > prior[0]:
                out[key] = (value, ((child, ckey, sigma),))
    table.guard(table_cap)
    return table


def _aligned(child_keys: dict[tuple, list[tuple[tuple, int]]], partners: tuple,
             stateless: bool) -> Sequence[tuple[tuple, tuple, tuple, int]]:
    """(child key, sigma, child state read through sigma, child sum) for the
    child entries joining a parent tuple whose slot i has the partner
    partners[i], given the child's (key, sum) pairs per sorted tuple; none
    when a slot has no partner.

    Parent slot i joins only the child sol partners[i], so the child tuple
    is the partners sorted, and slot i reads the child slot that sorting
    moved partners[i] to (`_sorting_map`).
    """
    if None in partners:
        return ()
    ctuple, sigma = _sorting_map(partners)
    keys = child_keys.get(ctuple, ())
    if stateless or ctuple == partners:  # no state to read, or sigma is the identity
        return [(ckey, sigma, ckey[1], value) for ckey, value in keys]
    pmap = _pair_map(sigma)
    return [(ckey, sigma, tuple([ckey[1][m] for m in pmap]), value) for ckey, value in keys]


def dp_merge(parent: DPTable, child: DPTable, *,
             table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """Merge a completed child table into its parent's table.

    Compatible entry pairs add their states and their sums: the two tables
    count disjoint free variables (`TreeSolver.counted`), and the merged
    table counts both, the parent's columns then the child's. Per new key,
    the first candidate with the highest sum donates provenance.

    This is the one place that decides whether a child is projected: a
    child whose sols share a projection onto the shared variables is merged
    as its projection onto them (`dp_project`), which the links then reach,
    and any other child is merged as it is. When both tables are matrix
    tables and every parent sol has a partner, each parent tuple meets one
    child entry, so the merge adds answer rows: each sol's row is extended
    by its partner's. Otherwise the guard runs once per parent slot tuple
    that joins, and once at the end. The merged table then keeps the
    parent's answer rows, and each new entry the parent entry's links (none
    from a matrix parent) and one more, to the child entry it joined: every
    table keeps its sols' answer rows, so a link crosses one tree edge.
    """
    shared = parent.variables & child.variables
    proj_c = child.projection(shared)
    if len(set(proj_c)) < len(proj_c):
        child = dp_project(child, shared, table_cap=table_cap)
        child.check_bound()
        proj_c = child.sols
    partner = {proj: c for c, proj in enumerate(proj_c)}
    single = [partner.get(proj) for proj in parent.projection(shared)]
    columns = parent.columns + child.columns
    if parent.answer_rows is not None and child.answer_rows is not None and None not in single:
        rows = [prow + child.rows[s] for prow, s in zip(parent.rows, single)]
        merged = replace(parent, columns=columns, rows=rows,
                         entries=_MatrixEntries(rows, parent.k, parent.stateless))
        merged.guard(table_cap)
        return merged
    # sorted child tuple -> (key, sum) of its entries
    child_keys: dict[tuple, list[tuple[tuple, int]]] = {}
    for ckey, (value, _) in child.entries.items():
        child_keys.setdefault(ckey[0], []).append((ckey, value))
    cache: dict[tuple, Sequence] = {}  # partners -> `_aligned` of them
    merged = replace(parent, columns=columns, entries={})
    out = merged.entries
    add = operator.add
    last = None  # entries of one slot tuple are adjacent
    for (ptuple, state), (value, refs) in parent.entries.items():
        if ptuple != last:
            last = ptuple
            partners = tuple([single[p] for p in ptuple])
            aligned = cache.get(partners)
            if aligned is None:
                aligned = cache[partners] = _aligned(child_keys, partners, child.stateless)
            if aligned:
                merged.guard(table_cap)
        for ckey, sigma, cstate, cvalue in aligned:
            new_key = (ptuple, tuple(map(add, state, cstate)) if state else ())
            total = value + cvalue
            prior = out.get(new_key)
            if prior is None or total > prior[0]:
                out[new_key] = (total, refs + ((child, ckey, sigma),))
    merged.guard(table_cap)
    merged.check_bound()
    return merged


def merge_order(table: DPTable, kids: Sequence[int], tables: Mapping[int, DPTable]) -> list[int]:
    """The order in which `table` merges its children's tables: first the
    children `dp_merge` adds as answer rows (a matrix table whose sols
    project onto the shared variables one to one, a partner for every sol
    of the parent), then those it projects or merges as rows, each group in
    tree order. A matrix add keeps the parent's sols, and the parent a
    matrix table, so into a matrix table every child of the first group is
    added; into a table stored as rows every child merges as rows. The
    projections made here are the ones the merges read."""
    def adds_matrix(child: int) -> bool:
        other = tables[child]
        if other.answer_rows is None:
            return False
        shared = table.variables & other.variables
        keys = other.projection(shared)
        partners = set(keys)
        return len(partners) == len(keys) and partners.issuperset(table.projection(shared))

    return sorted(kids, key=lambda child: not adds_matrix(child))


def dp_finalize(root: DPTable, aggregator: Aggregator, threshold: float | None,
                allow_duplicates: bool) -> tuple[bool, tuple | None, float | None]:
    """Decision at the root: (decision, best entry key, best diversity).

    Entries with a zero pairwise distance are dropped unless duplicates are
    allowed; the best entry maximizes the aggregate of its state, or in a
    stateless table its sum (first such entry wins). A threshold of None
    asks only for the maximum, which is found either way.

    A matrix root under a monotone aggregator (a stateless one scores by
    sum) is searched, not read whole: `model.best_tuple`, the branch and
    bound the fo-kernel search runs too, walks its sorted slot tuples in
    table order over the answer rows, each pair's distance counted when the
    search reaches it, so it finds the same first best entry. Its prefix
    bound is the rows' width, the count of free variables the root counts,
    which no distance exceeds, and it stops at the rows' column ceiling.
    Any other root is read entry by entry.
    """
    stateless = root.stateless
    entries = root.entries
    if isinstance(entries, _MatrixEntries) and (stateless or aggregator.monotone):
        rows = entries.rows
        found = best_tuple(rows, root.k, SUM if stateless else aggregator,
                           distinct=not (allow_duplicates or stateless))
        if found is None:
            return False, None, None
        best_val, ptuple = found
        return threshold is None or best_val >= threshold, \
            (ptuple, entries.state(ptuple)), best_val
    best_key = None
    best_val = None
    for key, (total, _) in entries.items():
        state = key[1]
        if not allow_duplicates and not all(state):
            continue
        value = total if stateless else aggregator.aggregate(state)
        if best_val is None or value > best_val:
            best_key, best_val = key, value
    decision = best_val is not None and (threshold is None or best_val >= threshold)
    return decision, best_key, best_val


def extract_witness(root: DPTable, root_key: tuple, query: Query,
                    db: Database) -> tuple[Assignment, ...]:
    """Rebuild k full answers realizing a kept root entry, via provenance.

    The walk is iterative and has one rule for every table. Each visit
    carries `slots`: slots[i] is the position of the table's tuple that
    feeds witness slot i, and binds the sol there over the table's
    variables and its answer row over the table's leading columns. Every
    table keeps its sols' answer rows, so the walk then follows the
    entry's links, each across one tree edge, a link's sigma mapping
    `slots` into the linked table's tuple; a matrix entry has none. The
    walk collects value indices, which the database's value table turns
    into the answers' values.

    Each answer is then checked against the query's literals: one whose
    variables the walk bound must hold, a positive literal's row in the
    database and a negative one's not, and the answer must extend to the
    variables the walk left unbound so that the others hold too
    (`_extends`). The answers' pair distances must give back the entry's
    state and sum.
    """
    k = root.k
    collected: list[dict[str, int]] = [{} for _ in range(k)]
    stack = [(root, root_key, tuple(range(k)))]
    while stack:
        table, key, slots = stack.pop()
        names = sorted(table.variables) + list(table.columns)
        for bound, s in zip(collected, slots):
            p = key[0][s]
            for v, index in zip(names, table.sols[p] + table.rows[p]):
                if bound.setdefault(v, index) != index:
                    raise CorruptProvenance(f"conflicting bindings for {v} while extending entry")
        for child, child_key, sigma in table.entries[key][1]:
            stack.append((child, child_key, tuple([sigma[s] for s in slots])))
    literals = query.conjuncts[0].literals
    for i, bound in enumerate(collected, 1):
        unbound = []
        for lit in literals:
            if not lit.variables <= bound.keys():
                unbound.append(lit)
            elif not satisfies_literal(lit, bound, db):
                terms = ", ".join(map(render_term, lit.atom.terms))
                raise CorruptProvenance(f"witness answer {i} fails "
                                        f"{'' if lit.positive else '!'}{lit.atom.relation}({terms})")
        if not _extends(bound, unbound, db):
            raise CorruptProvenance(f"witness answer {i} has no values for the variables "
                                    f"the walk left unbound that satisfy their literals")
    xs = list(query.free_vars)
    domain = db.values
    witness = tuple(Assignment([(x, domain[b[x]]) for x in xs if x in b]) for b in collected)
    vec = pairwise_distances(witness, xs)
    state = () if root.stateless else tuple(vec)
    if state != root_key[1] or sum(vec) != root.entries[root_key][0]:
        raise CorruptProvenance("witness distances disagree with the kept entry")
    return witness


def _extends(bound: dict[str, int], literals: Sequence[Literal], db: Database) -> bool:
    """Whether `bound` extends to the variables of `literals` it leaves
    unbound so that every one of them holds. Such a variable is no free
    variable and lies only in a subtree whose answer rows a merge added:
    the merged table keeps the rows and not the subtree's sols, so the
    witness walk binds it nowhere. The query is safe, so the positive
    literals among `literals` bind each of them; their rows that agree
    with `bound` are joined, and the first extension the negative ones
    let through answers."""
    if not literals:
        return True
    inputs = []
    for lit in literals:
        if lit.positive:
            names = sorted(lit.variables)
            inputs.append((names, [row for row in sols_atom(lit.atom, db)
                                   if all(bound.get(v, x) == x for v, x in zip(names, row))]))
    order = sorted(set().union(*(lit.variables for lit in literals)).difference(bound))
    negative = [lit for lit in literals if not lit.positive]
    for part in join(inputs, order, math.inf, CorruptProvenance("never raised: no limit")):
        extended = {**bound, **dict(zip(order, part))}
        if all(satisfies_literal(lit, extended, db) for lit in negative):
            return True
    return False


# The traced benchmark run (bench/tracing.py) wraps these names, which the
# three table families this module once had defined; they stay until the
# tracer wraps only dp_init, dp_merge and extract_witness.
sum_init = dup_init = dp_init
sum_merge = dup_merge = dp_merge
_extract_sum_witness = _extract_dup_witness = extract_witness


class TreeSolver:
    """The driver of both DP engines over `td`, a join tree or a tree
    decomposition of `query`. Building it runs the k = 1 pass, so `sols`
    holds each node's reduced sols, index tuples over its sorted bag; `run`
    builds each node's table into `tables` by the node rules, and `solve`
    runs it, decides at the root and rebuilds a witness. It calls this
    module's `sols_atom`, `join`, `dp_init`, `dp_merge`, `merge_order`,
    `dp_finalize` and `extract_witness` as they are at call time."""

    def __init__(self, query: Query, db: Database, k: int, td: TreeDecomposition,
                 table_cap: int, stateless: bool = False):
        self.query = query
        self.db = db
        self.td = td
        self.k = k
        self.free_vars = query.free_vars
        self.table_cap = table_cap
        self.stateless = stateless
        self.sols: dict[int, list[tuple[int, ...]]] = {}
        self.tables: dict[int, DPTable] = {}
        # Literals by least variable (None if ground): a bag finds its own
        # fast. Each names a relation of its arity, even one no binding
        # reaches.
        self.literals: dict[str | None, list[Literal]] = {}
        for lit in query.conjuncts[0].literals:
            relation_of(lit.atom, db)
            self.literals.setdefault(min(lit.variables, default=None), []).append(lit)
        self._atom_keys: dict[Atom, set[tuple[int, ...]]] = {}
        # child -> its bottom-up sols cut to what it shares with its parent,
        # made by the parent's bag and read again by the down sweep
        self._shared_keys: dict[int, list[tuple]] = {}
        self._reduce()

    # -- the k = 1 pass ----------------------------------------------------------

    @functools.cached_property
    def candidates(self) -> dict[str, list[int]]:
        """Per variable, the sorted domain indices found in its column of
        every positive atom that mentions it. Only a bag that no atom
        covers reads them."""
        found: dict[str, set[int]] = {}
        for lit in self.query.conjuncts[0].literals:
            if not lit.positive:
                continue
            rows = relation_of(lit.atom, self.db).rows
            for pos, term in enumerate(lit.atom.terms):
                if isinstance(term, Variable):
                    column = {row[pos] for row in rows}
                    prior = found.get(term.name)
                    found[term.name] = column if prior is None else prior & column
        return {v: sorted(found[v]) for v in found}

    def satisfying_tuples(self, node: int,
                          below: dict[int, list[tuple[int, ...]]]) -> list[tuple[int, ...]]:
        """The node's bottom-up sols, given its children's in `below`: the
        assignments of its bag that satisfy the literals it covers and meet
        each child's sols on the variables they share, sorted.

        A bag whose variables are a positive atom's starts from the sols of
        the first such atom and keeps those that meet each child's sols and
        every other positive atom it covers (a semi-join). Any other bag is
        `queries.join`, which extends a block of partial assignments per
        step and hands them out lazily, of the children's sols, the
        positive atoms it covers and its variables' candidate values,
        refused once it builds more partial assignments than the cap. Both
        then check the negative literals the bag covers, and the root's are
        refused as they arrive (`_bounded`)."""
        bags = self.td.bags
        bag, order = bags[node], tuple(sorted(bags[node]))
        covered = [lit for v in (None, *order) for lit in self.literals.get(v, ())
                   if lit.variables <= bag]
        kids = []
        for child in self.td.children.get(node, ()):
            shared = bag & bags[child]
            keys = self._shared_keys[child] = _project(below[child], bags[child], shared)
            kids.append((shared, keys))
        start = next((lit for lit in covered if lit.positive and lit.variables == bag), None)
        if start is not None:
            # the key sets to meet, by the variables they are over
            filters: dict[frozenset[str], list[set]] = {}
            for shared, keys in kids:
                filters.setdefault(shared, []).append(set(keys))
            for lit in covered:
                if lit.positive and lit is not start:
                    seen = self._atom_keys.get(lit.atom)
                    if seen is None:
                        seen = self._atom_keys[lit.atom] = set(sols_atom(lit.atom, self.db))
                    filters.setdefault(lit.variables, []).append(seen)
            parts = sols_atom(start.atom, self.db)
            for names, sets in filters.items():
                seen = sets[0].intersection(*sets[1:]) if len(sets) > 1 else sets[0]
                parts = [s for s, key in zip(parts, _project(parts, bag, names)) if key in seen]
        else:
            inputs = [(tuple(sorted(shared)), list(dict.fromkeys(keys))) for shared, keys in kids]
            inputs += [(tuple(sorted(lit.variables)), sols_atom(lit.atom, self.db))
                       for lit in covered if lit.positive]
            inputs += [((v,), [(i,) for i in self.candidates[v]]) for v in order]
            parts = join(inputs, order, self.table_cap, TableGuardExceeded(
                f"join at node {node} builds over {self.table_cap} partial bag assignments"))
        negative = [lit for lit in covered if not lit.positive]
        if negative:
            parts = (part for part in parts if self.satisfies(order, part, negative))
        return sorted(self._bounded(node, parts) if node == self.td.root else parts)

    def satisfies(self, order: tuple[str, ...], part: tuple[int, ...],
                  lits: list[Literal]) -> bool:
        """Whether the bag assignment with index tuple `part` satisfies lits."""
        bindings = dict(zip(order, part))
        return all(satisfies_literal(lit, bindings, self.db) for lit in lits)

    def _bounded(self, node: int, parts) -> list[tuple[int, ...]]:
        """The bag assignments `parts` yields, refused at the first n whose
        C(n + k - 1, k) sorted k-tuples pass the cap, before the rest are
        built. The count is carried from part to part; a list, built
        already, is counted at once unless it is refused."""
        k, cap = self.k, self.table_cap
        if isinstance(parts, list):
            size = _slot_tuples(len(parts), k, True, cap)
            if size is not None and size <= cap:
                return parts
        found, count = [], 1
        for n, part in enumerate(parts, 1):
            if n > 1:
                count = count * (n + k - 1) // (n - 1)  # C(n + k - 1, k) from n - 1's
            if count > cap:
                raise TableGuardExceeded(
                    f"node {node} has over {n - 1} bag assignments, whose sorted "
                    f"{k}-tuples exceed {cap} entries")
            found.append(part)
        return found

    def _reduce(self) -> None:
        """The k = 1 pass: bottom-up sols in postorder, then the down sweep,
        in which each child keeps the sols that meet its parent's, read off
        the keys the parent cut from them on the way up. Tables over the
        bottom-up sols would refuse whatever `_bounded` refuses."""
        td, sols = self.td, self.sols
        postorder = td.postorder()
        for node in postorder:
            sols[node] = self.satisfying_tuples(node, sols)
        for node in reversed(postorder):
            bag = td.bags[node]
            for child in td.children.get(node, ()):
                seen = set(_project(sols[node], bag, bag & td.bags[child]))
                keys = self._shared_keys.pop(child)
                sols[child] = [s for s, key in zip(sols[child], keys) if key in seen]

    # -- node rules ----------------------------------------------------------

    @functools.cached_property
    def counted(self) -> dict[int, list[str]]:
        """Per node, the free variables its table counts: those of its bag
        that no bag earlier in postorder holds. Each free variable is
        counted by one node, so merged states just add. A forget node's bag
        lies in its child's, which comes first, so it counts none."""
        seen: set[str] = set()
        counted = {}
        for node in self.td.postorder():
            bag = self.td.bags[node]
            counted[node] = [v for v in self.free_vars if v in bag and v not in seen]
            seen |= bag
        return counted

    def leaf(self, node: int) -> DPTable:
        return dp_init(node, self.td.bags[node], self.sols[node], self.k, self.counted[node],
                       stateless=self.stateless, table_cap=self.table_cap)

    def forget(self, node: int, child: int) -> DPTable:
        # the parent's merge projects it onto what they share, if it must
        return replace(self.tables[child], node=node)

    def join(self, table: DPTable, child: int) -> DPTable:
        return dp_merge(table, self.tables[child], table_cap=self.table_cap)

    # The first merge into a node's own table; a rule apart only so that
    # the traced benchmark run times it apart.
    introduce = join

    # -- driver ----------------------------------------------------------------

    def run(self) -> None:
        bags, tables = self.td.bags, self.tables
        for node in self.td.postorder():
            kids = self.td.children.get(node, ())
            if not kids:
                table = self.leaf(node)
            elif len(kids) == 1 and bags[node] <= bags[kids[0]]:
                table = self.forget(node, kids[0])
            else:
                table = self.leaf(node)
                first, *rest = merge_order(table, kids, tables)
                table = self.introduce(table, first)
                for child in rest:
                    table = self.join(table, child)
            tables[node] = table

    @property
    def max_table(self) -> int:
        """The entries the largest node table holds, rows or matrix."""
        return max(len(table.entries) for table in self.tables.values())

    def witness(self, root_key: tuple) -> tuple[Assignment, ...]:
        return extract_witness(self.tables[self.td.root], root_key, self.query, self.db)

    def solve(self, aggregator: Aggregator, d: float | None, allow_duplicates: bool,
              witness: bool, **stats) -> Outcome:
        """Build the tables, decide at the root, and rebuild a witness when
        one is asked for and the answer is yes. `stats` adds to the
        report's node count, largest table and k."""
        self.run()
        decision, best_key, best = dp_finalize(self.tables[self.td.root], aggregator, d,
                                               allow_duplicates)
        solution = self.witness(best_key) if decision and witness else None
        return Outcome(decision, best, solution, stats={
            "nodes": len(self.td.bags), **stats, "max_table": self.max_table, "k": self.k})


def _solve(query: Query, db: Database, k: int, d: float | None, aggregator: Aggregator,
           witness: bool, allow_duplicates: bool, table_cap: int,
           join_tree: TreeDecomposition | None) -> Outcome:
    """Solve over `join_tree`, or when it is None the query's GYO join
    tree. Summing distances over multisets of answers needs only each
    tuple's best sum, so exactly then the tables are stateless."""
    if join_tree is None:
        join_tree = gyo_join_tree(query)
    if join_tree is None:
        raise NotAcyclic(f"query {query.head} admits no join tree")
    solver = TreeSolver(query, db, k, join_tree, table_cap,
                        stateless=allow_duplicates and aggregator is SUM)
    return solver.solve(aggregator, d, allow_duplicates, witness)


def solve_acq(query: Query, db: Database, k: int, d: float | None,
              aggregator: Aggregator, *, witness: bool = False,
              allow_duplicates: bool = False,
              table_cap: int = DEFAULT_TABLE_CAP,
              join_tree: TreeDecomposition | None = None) -> Outcome:
    """Decide whether k pairwise-distinct answers reach diversity d.

    Needs an acyclic positive query; d = None reports the maximum achievable
    diversity instead of deciding against a threshold. `join_tree` is the
    query's `gyo_join_tree`, when the caller has built it already; without
    it the solver builds it.
    """
    return _solve(query, db, k, d, aggregator, witness, allow_duplicates, table_cap,
                  join_tree)


def solve_acq_sum(query: Query, db: Database, k: int, d: float | None, *,
                  witness: bool = False,
                  table_cap: int = DEFAULT_TABLE_CAP,
                  join_tree: TreeDecomposition | None = None) -> Outcome:
    """Sum-diversity decision over k pairwise-distinct answers: solve_acq
    with the sum aggregator."""
    return _solve(query, db, k, d, SUM, witness, False, table_cap, join_tree)


def solve_acq_sum_dup(query: Query, db: Database, k: int, d: float | None, *,
                      witness: bool = False,
                      table_cap: int = DEFAULT_TABLE_CAP,
                      join_tree: TreeDecomposition | None = None) -> Outcome:
    """Sum-diversity over multisets of answers (duplicates permitted)."""
    return _solve(query, db, k, d, SUM, witness, True, table_cap, join_tree)
