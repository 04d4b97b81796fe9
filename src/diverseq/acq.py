"""Diversity solver for acyclic conjunctive queries.

The solver runs a dynamic program over a join tree. A table entry pairs a
k-tuple of partial solutions (answers to one atom) with the vector of pairwise
Hamming distances over the free variables that some extension to the whole
subtree realizes. Extensions merge bottom-up with the inclusion-exclusion rule

    combined = d_parent + d_child - distance(shared parts)

and provenance links let a concrete witness be rebuilt afterwards. Before
the tables are built, a full reducer (Yannakakis, VLDB 1981) drops every
atom solution that lies in no full join result: no such solution is on the
provenance chain of a root entry, so the root entries, their order and the
witnesses stay as they were, and only the intermediate tables shrink.

Every table is closed under permuting the k slots, so each one stores only
its entries at sorted (non-decreasing) slot tuples: the full table is the
stored one with every slot permutation applied. A merge lines a sorted child
tuple up with a sorted parent tuple through a slot map sigma (parent slot i
reads child slot sigma[i]), reads the child's per-pair values through it, and
records sigma in the provenance link.

Two specialized sum-aggregator paths exist: one keeps, per partial-solution
tuple and per vector of "this pair differs somewhere" flags, only the maximum
achievable sum; the other additionally allows duplicate answers, which drops
the flags and keeps one entry per sorted tuple.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Sequence

from .errors import CorruptProvenance, NotAcyclic, TableGuardExceeded
from .model import Aggregator, Assignment, Database, Outcome, hamming_distance
from .queries import Atom, Query, sols_atom
from .structure import JoinTree, gyo_join_tree

DEFAULT_TABLE_CAP = 10_000_000


def _pairs(k: int) -> list[tuple[int, int]]:
    # Ordered so extending a tuple by one slot appends distances at the end.
    return [(i, j) for j in range(k) for i in range(j)]


@functools.lru_cache(maxsize=4096)
def _pair_map(sigma: tuple[int, ...]) -> tuple[int, ...]:
    """Position in a child's pair vector of each parent pair under sigma."""
    pairs = _pairs(len(sigma))
    pos = {p: n for n, p in enumerate(pairs)}
    return tuple(
        pos[(a, b) if a < b else (b, a)]
        for a, b in ((sigma[i], sigma[j]) for i, j in pairs)
    )


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
    """
    k = len(projs)
    slots: dict[int, list[int]] = {}  # first slot of a value -> its slots
    proj_of: dict[int, int] = {}
    group = 0
    for s in range(k):
        if s and not repeats[s - 1]:
            group = s
        slots.setdefault(group, []).append(s)
        proj_of[group] = projs[s]
    used = dict.fromkeys(slots, 0)
    sigma = [0] * k
    found: list[tuple[int, ...]] = []

    def place(i: int) -> None:
        if i == k:
            found.append(tuple(sigma))
            return
        for group, free in slots.items():
            if used[group] < len(free) and proj_of[group] == target[i]:
                sigma[i] = free[used[group]]
                used[group] += 1
                place(i + 1)
                used[group] -= 1

    place(0)
    return tuple(found)


def _sorted_sols(atom: Atom, db: Database) -> list[Assignment]:
    var_order = sorted(atom.variables)
    return sorted(
        sols_atom(atom, db),
        key=lambda a: tuple(a[v].index for v in var_order),
    )


def _distance_matrix(sols: Sequence[Assignment], variables: frozenset[str]) -> list[list[int]]:
    xs = sorted(variables)
    n = len(sols)
    matrix = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            d = hamming_distance(sols[i], sols[j], xs)
            matrix[i][j] = matrix[j][i] = d
    return matrix


def _check_init(node: int, n: int, k: int, table_cap: int) -> None:
    if n ** k > table_cap:
        raise TableGuardExceeded(
            f"initial table at node {node}: atom has {n} rows, {n ** k} slot tuples"
        )


@dataclass
class DPTable:
    """DP table at one join-tree node.

    entries maps (sorted partial-index tuple, distance vector) to provenance:
    one (child node, child entry key, sigma) link per already-merged child.
    """

    node: int
    atom: Atom
    sols: list[Assignment]
    k: int
    entries: dict[tuple, tuple] = field(default_factory=dict)

    def partials(self, key: tuple) -> tuple[int, ...]:
        return key[0]

    def links(self, key: tuple) -> tuple:
        return self.entries[key]

    def check_bound(self, db: Database, free_count: int) -> None:
        k, npairs = self.k, len(_pairs(self.k))
        bound = db.max_relation_size() ** k * (free_count + 1) ** npairs
        assert len(self.entries) <= bound, (
            f"table at node {self.node} holds {len(self.entries)} entries, "
            f"bound is {bound}"
        )


def dp_init(node: int, atom: Atom, db: Database, k: int,
            free_vars: Sequence[str], *, sols: list[Assignment] | None = None,
            table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """Initial table: every sorted k-tuple of the atom's solutions with its
    distances. `sols` defaults to all of them, in `_sorted_sols` order."""
    if sols is None:
        sols = _sorted_sols(atom, db)
    n = len(sols)
    _check_init(node, n, k, table_cap)
    dist = _distance_matrix(sols, frozenset(free_vars) & atom.variables)
    pairs = _pairs(k)
    table = DPTable(node=node, atom=atom, sols=sols, k=k)
    table.entries = {
        (ptuple, tuple([dist[ptuple[i]][ptuple[j]] for i, j in pairs])): ()
        for ptuple in itertools.combinations_with_replacement(range(n), k)
    }
    table.check_bound(db, len(free_vars))
    return table


def _shared_projection(table, shared: Sequence[str]) -> list[tuple]:
    return [tuple(a[v].index for v in shared) for a in table.sols]


class _Join:
    """Lines up the sorted tuples of a child table with those of its parent.

    Child tuples are bucketed by their sorted projection onto the shared
    variables; a parent tuple meets every child tuple of its bucket under
    each slot map from `_arrangements`. Lookups are cached per projection
    sequence, which many parent tuples share.
    """

    def __init__(self, parent, child, free_vars: Sequence[str]) -> None:
        shared = sorted(parent.atom.variables & child.atom.variables)
        self.proj_p = _shared_projection(parent, shared)
        proj_c = self.proj_c = _shared_projection(child, shared)
        self.corr = _distance_matrix(parent.sols, frozenset(free_vars) & frozenset(shared))
        self.pairs = _pairs(parent.k)
        # Child entry keys per sorted child tuple; a duplicates-mode key is
        # its tuple.
        self.child_keys: dict[tuple, list[tuple]] = {}
        if isinstance(child, DupSumTable):
            ctuples = child.entries
        else:
            for key in child.entries:
                self.child_keys.setdefault(key[0], []).append(key)
            ctuples = self.child_keys
        self.buckets: dict[tuple, list[tuple]] = {}
        for ctuple in ctuples:
            bucket_key = tuple(sorted([proj_c[c] for c in ctuple]))
            self.buckets.setdefault(bucket_key, []).append(ctuple)
        self._aligned: dict[tuple, list] = {}

    def slot_maps(self, ctuple: tuple[int, ...], target: tuple) -> tuple[tuple[int, ...], ...]:
        """The slot maps of a child tuple of `target`'s bucket onto it."""
        labels: dict[tuple, int] = {}
        relabeled = tuple([labels.setdefault(t, len(labels)) for t in target])
        projs = tuple([labels[self.proj_c[c]] for c in ctuple])
        repeats = tuple([a == b for a, b in zip(ctuple, ctuple[1:])])
        return _arrangements(projs, repeats, relabeled)

    def aligned(self, ptuple: tuple[int, ...]) -> list[tuple[tuple, tuple, tuple]]:
        """(child key, sigma, child pair vector read through sigma) for every
        child entry joining ptuple; the vector is key[1] of the child key.
        Not for duplicates-mode children, whose keys hold no vector."""
        target = tuple([self.proj_p[p] for p in ptuple])
        found = self._aligned.get(target)
        if found is None:
            found = []
            for ctuple in self.buckets.get(tuple(sorted(target)), ()):
                keys = self.child_keys[ctuple]
                for sigma in self.slot_maps(ctuple, target):
                    pmap = _pair_map(sigma)
                    found.extend(
                        (ckey, sigma, tuple([ckey[1][m] for m in pmap])) for ckey in keys
                    )
            self._aligned[target] = found
        return found

    def corr_vector(self, ptuple: tuple[int, ...]) -> list[int]:
        """Per pair, the distance on the shared free variables, which the
        parent and the child both count."""
        corr = self.corr
        return [corr[ptuple[i]][ptuple[j]] for i, j in self.pairs]


def dp_merge(parent: DPTable, child: DPTable, db: Database,
             free_vars: Sequence[str], *, table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """Merge a completed child table into its parent's table.

    Compatible entry pairs combine their distance vectors, subtracting the
    distance already counted on the shared variables. When several pairs
    produce the same entry, the first in iteration order donates provenance.
    """
    join = _Join(parent, child, free_vars)
    merged = DPTable(node=parent.node, atom=parent.atom, sols=parent.sols, k=parent.k)
    out = merged.entries
    add = operator.add
    last = None  # entries of one slot tuple are adjacent
    for (ptuple, dvec), refs in parent.entries.items():
        if ptuple != last:
            last, aligned, corrvec = ptuple, join.aligned(ptuple), join.corr_vector(ptuple)
        if not aligned:
            continue
        base = [a - c for a, c in zip(dvec, corrvec)]
        for ckey, sigma, cvec in aligned:
            new_key = (ptuple, tuple(map(add, base, cvec)))
            if new_key not in out:
                out[new_key] = refs + ((child.node, ckey, sigma),)
                if len(out) > table_cap:
                    raise TableGuardExceeded(
                        f"merge at node {parent.node} exceeded {table_cap} entries"
                    )
    merged.check_bound(db, len(free_vars))
    return merged


def dp_finalize(root: DPTable, aggregator: Aggregator, threshold: float | None,
                allow_duplicates: bool) -> tuple[bool, tuple | None, float | None]:
    """Decision at the root: (decision, best entry key, best diversity).

    Entries with a zero pairwise distance are dropped unless duplicates are
    allowed; the best entry maximizes the aggregate (first such entry wins).
    A threshold of None asks only for the maximum.
    """
    best_key = None
    best_val = None
    for key in root.entries:
        dvec = key[1]
        if not allow_duplicates and any(d == 0 for d in dvec):
            continue
        value = aggregator.aggregate(dvec)
        if best_val is None or value > best_val:
            best_key, best_val = key, value
    if best_val is None:
        return False, None, None
    if threshold is None:
        return True, best_key, best_val
    return best_val >= threshold, best_key, best_val


def _walk_provenance(tables: dict, root: int, root_key: tuple, k: int,
                     free_vars: Sequence[str]) -> tuple[Assignment, ...]:
    """The k answers that a root entry's provenance links spell out.

    Each visit carries `slots`: slots[i] is the position of the node's tuple
    that feeds witness slot i; a link's sigma maps it into the child's tuple.
    """
    collected: list[dict] = [dict() for _ in range(k)]
    stack = [(root, root_key, tuple(range(k)))]
    while stack:
        node, key, slots = stack.pop()
        table = tables[node]
        ptuple = table.partials(key)
        for i in range(k):
            for v, value in table.sols[ptuple[slots[i]]].items():
                prior = collected[i].get(v)
                if prior is not None and prior != value:
                    raise CorruptProvenance(
                        f"conflicting bindings for {v} while extending entry"
                    )
                collected[i][v] = value
        for child_node, child_key, sigma in table.links(key):
            stack.append((child_node, child_key, tuple([sigma[s] for s in slots])))
    xs = list(free_vars)
    return tuple(Assignment(b).restrict(xs) for b in collected)


def extract_witness(tables: dict[int, DPTable], root_key: tuple, jt: JoinTree,
                    free_vars: Sequence[str]) -> tuple[Assignment, ...]:
    """Rebuild k full answers realizing a kept root entry, via provenance."""
    k = tables[jt.root].k
    witness = _walk_provenance(tables, jt.root, root_key, k, free_vars)
    dvec = root_key[1]
    xs = list(free_vars)
    for n, (i, j) in enumerate(_pairs(k)):
        if hamming_distance(witness[i], witness[j], xs) != dvec[n]:
            raise CorruptProvenance("witness distances disagree with the kept entry")
    return witness


def _full_reduce(jt: JoinTree, atoms: Sequence[Atom],
                 sols: dict[int, list[Assignment]]) -> None:
    """Keep in sols[node] only the solutions that lie in some full join
    result: semi-joins up the join tree, then down it. Order is kept."""

    def semijoin(target: int, source: int) -> None:
        shared = sorted(atoms[jt.label[target]].variables & atoms[jt.label[source]].variables)
        seen = {tuple([a[v] for v in shared]) for a in sols[source]}
        sols[target] = [a for a in sols[target] if tuple([a[v] for v in shared]) in seen]

    edges = [(node, child) for node in jt.postorder() for child in jt.children.get(node, ())]
    for parent, child in edges:
        semijoin(parent, child)
    for parent, child in reversed(edges):
        semijoin(child, parent)


def _traverse(query: Query, db: Database, k: int, free_vars: Sequence[str],
              init, merge, table_cap: int):
    """Build every node's table over its fully reduced solutions, children
    first; init is called as init(node, atom, sols)."""
    jt = gyo_join_tree(query)
    if jt is None:
        raise NotAcyclic(f"query {query.head} admits no join tree")
    atoms = query.conjuncts[0].positive_atoms
    order = jt.postorder()
    sols = {node: _sorted_sols(atoms[jt.label[node]], db) for node in order}
    _full_reduce(jt, atoms, sols)
    tables: dict[int, object] = {}
    max_table = 0
    for node in order:
        table = init(node, atoms[jt.label[node]], sols[node])
        for child in jt.children.get(node, ()):
            table = merge(table, tables[child])
        tables[node] = table
        max_table = max(max_table, len(table.entries))
    stats = {"nodes": len(atoms), "max_table": max_table, "k": k}
    return jt, tables, stats


def solve_acq(query: Query, db: Database, k: int, d: float | None,
              aggregator: Aggregator, *, witness: bool = False,
              allow_duplicates: bool = False,
              table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Decide whether k pairwise-distinct answers reach diversity d.

    Needs an acyclic positive query; d = None reports the maximum achievable
    diversity instead of deciding against a threshold.
    """
    free_vars = query.free_vars
    jt, tables, stats = _traverse(
        query, db, k, free_vars,
        init=lambda node, atom, sols: dp_init(node, atom, db, k, free_vars, sols=sols,
                                              table_cap=table_cap),
        merge=lambda parent, child: dp_merge(parent, child, db, free_vars, table_cap=table_cap),
        table_cap=table_cap,
    )
    decision, best_key, best = dp_finalize(tables[jt.root], aggregator, d, allow_duplicates)
    solution = None
    if decision and witness and best_key is not None:
        solution = extract_witness(tables, best_key, jt, free_vars)
    return Outcome(decision, best, solution, routing="acq", stats=stats)


# --- sum aggregator fast path (pairwise distinct answers) ---------------------


@dataclass
class SumTable:
    """Sum-aggregator table: (partials, distinctness flags) -> best sum.

    entries maps (sorted partial-index tuple, flag vector) to (value,
    provenance). A flag of 1 for pair (i, j) means the recorded extensions
    differ on at least one free variable.
    """

    node: int
    atom: Atom
    sols: list[Assignment]
    k: int
    entries: dict[tuple, tuple] = field(default_factory=dict)

    def partials(self, key: tuple) -> tuple[int, ...]:
        return key[0]

    def links(self, key: tuple) -> tuple:
        return self.entries[key][1]


def sum_init(node: int, atom: Atom, db: Database, k: int,
             free_vars: Sequence[str], *, sols: list[Assignment] | None = None,
             table_cap: int = DEFAULT_TABLE_CAP) -> SumTable:
    if sols is None:
        sols = _sorted_sols(atom, db)
    n = len(sols)
    _check_init(node, n, k, table_cap)
    dist = _distance_matrix(sols, frozenset(free_vars) & atom.variables)
    pairs = _pairs(k)
    table = SumTable(node=node, atom=atom, sols=sols, k=k)
    for ptuple in itertools.combinations_with_replacement(range(n), k):
        ds = [dist[ptuple[i]][ptuple[j]] for i, j in pairs]
        flags = tuple([1 if x > 0 else 0 for x in ds])
        table.entries[(ptuple, flags)] = (sum(ds), ())
    return table


def sum_merge(parent: SumTable, child: SumTable, db: Database,
              free_vars: Sequence[str], *, table_cap: int = DEFAULT_TABLE_CAP) -> SumTable:
    join = _Join(parent, child, free_vars)
    merged = SumTable(node=parent.node, atom=parent.atom, sols=parent.sols, k=parent.k)
    out = merged.entries
    child_entries = child.entries
    or_ = operator.or_
    last = None  # entries of one slot tuple are adjacent
    for (ptuple, flags), (value, refs) in parent.entries.items():
        if ptuple != last:
            last, aligned, corr_sum = ptuple, join.aligned(ptuple), sum(join.corr_vector(ptuple))
        if not aligned:
            continue
        base = value - corr_sum
        for ckey, sigma, cflags in aligned:
            combined_value = base + child_entries[ckey][0]
            new_key = (ptuple, tuple(map(or_, flags, cflags)))
            prior = out.get(new_key)
            if prior is None or combined_value > prior[0]:
                out[new_key] = (combined_value, refs + ((child.node, ckey, sigma),))
                if len(out) > table_cap:
                    raise TableGuardExceeded(
                        f"merge at node {parent.node} exceeded {table_cap} entries"
                    )
    return merged


def solve_acq_sum(query: Query, db: Database, k: int, d: float | None, *,
                  witness: bool = False,
                  table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Sum-diversity decision via the flagged max-sum tables.

    Matches solve_acq with the sum aggregator on decisions and values.
    """
    free_vars = query.free_vars
    jt, tables, stats = _traverse(
        query, db, k, free_vars,
        init=lambda node, atom, sols: sum_init(node, atom, db, k, free_vars, sols=sols,
                                               table_cap=table_cap),
        merge=lambda parent, child: sum_merge(parent, child, db, free_vars, table_cap=table_cap),
        table_cap=table_cap,
    )
    best_key, best = None, None
    for key, (value, _) in tables[jt.root].entries.items():
        if any(flag == 0 for flag in key[1]):
            continue
        if best is None or value > best:
            best_key, best = key, value
    decision = best is not None and (d is None or best >= d)
    solution = None
    if decision and witness and best_key is not None:
        solution = _extract_sum_witness(tables, best_key, jt, free_vars, best)
    return Outcome(decision, best, solution, routing="acq-sum", stats=stats)


def _check_sum(witness: tuple[Assignment, ...], free_vars: Sequence[str],
               expect: int) -> tuple[Assignment, ...]:
    xs = list(free_vars)
    total = sum(
        hamming_distance(witness[i], witness[j], xs) for i, j in _pairs(len(witness))
    )
    if total != expect:
        raise CorruptProvenance("witness sum-diversity disagrees with the table value")
    return witness


def _extract_sum_witness(tables: dict[int, SumTable], root_key: tuple, jt: JoinTree,
                         free_vars: Sequence[str], expect: int) -> tuple[Assignment, ...]:
    k = tables[jt.root].k
    return _check_sum(_walk_provenance(tables, jt.root, root_key, k, free_vars),
                      free_vars, expect)


# --- sum aggregator with duplicates allowed ------------------------------------


@dataclass
class DupSumTable:
    """Duplicates-allowed sum tables: sorted partial tuples -> best sum.

    Partial-solution tuples are kept sorted under the node's solution order;
    provenance records, per merged child, the entry and the slot map sigma
    aligning parent slots with the child's sorted tuple.
    """

    node: int
    atom: Atom
    sols: list[Assignment]
    k: int
    entries: dict[tuple, tuple] = field(default_factory=dict)

    def partials(self, key: tuple) -> tuple[int, ...]:
        return key

    def links(self, key: tuple) -> tuple:
        return self.entries[key][1]

    def check_bound(self) -> None:
        bound = math.comb(len(self.sols) + self.k - 1, self.k)
        assert len(self.entries) <= bound, (
            f"duplicate-mode table at node {self.node} holds {len(self.entries)} "
            f"entries, bound is {bound}"
        )
        assert all(tuple(sorted(p)) == p for p in self.entries), "unsorted entry key"


def dup_init(node: int, atom: Atom, db: Database, k: int,
             free_vars: Sequence[str], *, sols: list[Assignment] | None = None,
             table_cap: int = DEFAULT_TABLE_CAP) -> DupSumTable:
    if sols is None:
        sols = _sorted_sols(atom, db)
    n = len(sols)
    dist = _distance_matrix(sols, frozenset(free_vars) & atom.variables)
    pairs = _pairs(k)
    table = DupSumTable(node=node, atom=atom, sols=sols, k=k)
    for ptuple in itertools.combinations_with_replacement(range(n), k):
        value = sum(dist[ptuple[i]][ptuple[j]] for i, j in pairs)
        table.entries[ptuple] = (value, ())
        if len(table.entries) > table_cap:
            raise TableGuardExceeded(f"initial table exceeded {table_cap} entries")
    table.check_bound()
    return table


def dup_merge(parent: DupSumTable, child: DupSumTable, db: Database,
              free_vars: Sequence[str], *, table_cap: int = DEFAULT_TABLE_CAP) -> DupSumTable:
    join = _Join(parent, child, free_vars)
    child_entries = child.entries
    merged = DupSumTable(node=parent.node, atom=parent.atom, sols=parent.sols, k=parent.k)
    out = merged.entries
    proj_p, proj_c, buckets = join.proj_p, join.proj_c, join.buckets
    corr, pairs = join.corr, join.pairs
    identity = tuple(range(parent.k))

    def child_value(ckey: tuple) -> int:
        return child_entries[ckey][0]

    for ptuple, (value, refs) in parent.entries.items():
        target = tuple([proj_p[p] for p in ptuple])
        matches = buckets.get(tuple(sorted(target)))
        if not matches:
            continue
        best_key = max(matches, key=child_value)
        # The child value is invariant under slot maps, so the least map
        # will do: the identity when the projections already line up.
        if tuple([proj_c[c] for c in best_key]) == target:
            sigma = identity
        else:
            sigma = join.slot_maps(best_key, target)[0]
        corr_sum = sum([corr[ptuple[i]][ptuple[j]] for i, j in pairs])
        combined = value + child_entries[best_key][0] - corr_sum
        out[ptuple] = (combined, refs + ((child.node, best_key, sigma),))
    merged.check_bound()
    return merged


def solve_acq_sum_dup(query: Query, db: Database, k: int, d: float | None, *,
                      witness: bool = False,
                      table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Sum-diversity over multisets of answers (duplicates permitted)."""
    free_vars = query.free_vars
    jt, tables, stats = _traverse(
        query, db, k, free_vars,
        init=lambda node, atom, sols: dup_init(node, atom, db, k, free_vars, sols=sols,
                                               table_cap=table_cap),
        merge=lambda parent, child: dup_merge(parent, child, db, free_vars, table_cap=table_cap),
        table_cap=table_cap,
    )
    best_key, best = None, None
    for key, (value, _) in tables[jt.root].entries.items():
        if best is None or value > best:
            best_key, best = key, value
    decision = best is not None and (d is None or best >= d)
    solution = None
    if decision and witness and best_key is not None:
        solution = _extract_dup_witness(tables, best_key, jt, free_vars, best)
    return Outcome(decision, best, solution, routing="acq-sum-dup", stats=stats)


def _extract_dup_witness(tables: dict[int, DupSumTable], root_key: tuple, jt: JoinTree,
                         free_vars: Sequence[str], expect: int) -> tuple[Assignment, ...]:
    k = tables[jt.root].k
    return _check_sum(_walk_provenance(tables, jt.root, root_key, k, free_vars),
                      free_vars, expect)
