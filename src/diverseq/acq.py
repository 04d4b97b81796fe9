"""Diversity solver for acyclic conjunctive queries.

The solver runs one dynamic program over a join tree. A table entry pairs a
k-tuple of partial solutions (an atom's answers, as value-index tuples) with
a state: what the entry remembers of the pairwise Hamming distances, over
the free variables, of the extensions to the whole subtree it stands for.
Each entry keeps the best sum of those distances and provenance links.
Extensions merge bottom-up with the inclusion-exclusion rule

    combined = d_parent + d_child - distance(shared parts)

and provenance links let a concrete witness be rebuilt afterwards. A state
rule says what the state is:

    exact  the pair-distance vector, merged by the rule above; the root
           aggregates it, so any aggregator works (`solve_acq`)
    flags  per pair, whether the extensions differ somewhere, merged by OR;
           the root scores an entry by its sum (`solve_acq_sum`)
    none   nothing: duplicate answers are allowed, so one entry per tuple
           keeps the best sum (`solve_acq_sum_dup`)

A merge keeps, per new key, the first candidate with the highest sum; under
exact states every candidate for a key has the same sum. Pair-distance
vectors follow `model.pair_order`.

Before the tables are built, a full reducer (Yannakakis, VLDB 1981) drops
every atom solution that lies in no full join result: no such solution is on
the provenance chain of a root entry, so the root entries, their order and
the witnesses stay as they were, and only the intermediate tables shrink.

Every table is closed under permuting the k slots, so each one stores only
its entries at sorted (non-decreasing) slot tuples: the full table is the
stored one with every slot permutation applied. A merge lines a sorted child
tuple up with a sorted parent tuple through a slot map sigma (parent slot i
reads child slot sigma[i]), reads the child's per-pair values through it, and
records sigma in the provenance link.

Joins are mostly functional: the shared variables of a parent sol pick
exactly one child sol, its partner; a parent tuple holding a sol with none
joins nothing. A merge decides once how it aligns: if no sol has several
partners and the partners rise strictly with the sols, each sorted parent
tuple reads its partners' (sorted) tuple under the identity. Otherwise a
parent tuple whose slots all have one partner reads the partners sorted,
under the inverse of their stable argsort, and any other searches the child
tuples bucketed by their sorted projection onto the shared variables, under
every slot map `_arrangements` gives.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

from .errors import CorruptProvenance, NotAcyclic, TableGuardExceeded
from .model import (
    SUM,
    Aggregator,
    Assignment,
    Database,
    Outcome,
    Value,
    pair_order,
    pairwise_distances,
)
from .queries import Atom, Query, sols_atom
from .structure import TreeDecomposition, gyo_join_tree

DEFAULT_TABLE_CAP = 10_000_000
NO_PARTNER = -1


@dataclass(frozen=True)
class StateRule:
    """What a table entry remembers of its extensions' pair distances.

    `state` makes it from a pair-distance vector and `combine` merges a
    parent's and a child's, pair by pair. Exact states are the vectors
    themselves: a merge subtracts the shared overlap from them and the root
    aggregates them. Other states leave scoring to the entry's sum.
    """

    name: str
    state: Callable[[tuple[int, ...]], tuple]
    combine: Callable[[int, int], int]
    exact: bool = False


EXACT = StateRule("exact", tuple, operator.add, exact=True)
FLAGS = StateRule("flags", lambda vec: tuple([1 if d > 0 else 0 for d in vec]), operator.or_)
NONE = StateRule("none", lambda vec: (), operator.add)


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


def _slot_maps(ctuple: tuple[int, ...], proj: Sequence, target: tuple) -> tuple[tuple[int, ...], ...]:
    """`_arrangements` of a sorted child tuple whose slot s projects to
    proj[ctuple[s]] onto `target`, a sorted rearrangement of those
    projections."""
    labels: dict = {}
    relabeled = tuple([labels.setdefault(t, len(labels)) for t in target])
    projs = tuple([labels[proj[c]] for c in ctuple])
    repeats = tuple([a == b for a, b in zip(ctuple, ctuple[1:])])
    return _arrangements(projs, repeats, relabeled)


def _sorted_sols(atom: Atom, db: Database) -> list[tuple[int, ...]]:
    """The atom's sols: value-index tuples over its sorted variables, sorted."""
    return sorted(sols_atom(atom, db))


def _project(sols: Sequence[tuple], variables: frozenset[str], names) -> list[tuple]:
    """Each sol, an index tuple over the sorted `variables`, cut to `names`."""
    cols = [n for n, v in enumerate(sorted(variables)) if v in names]
    return [tuple([s[c] for c in cols]) for s in sols]


def _distance_matrix(sols: Sequence[tuple], variables: frozenset[str], names) -> list[list[int]]:
    """Pairwise distances of the sols on the variables among `names`."""
    keys = _project(sols, variables, names)
    matrix = [[0] * len(keys) for _ in keys]
    for i, a in enumerate(keys):
        for j in range(i + 1, len(keys)):
            if a != keys[j]:
                matrix[i][j] = matrix[j][i] = sum(map(operator.ne, a, keys[j]))
    return matrix


@dataclass
class DPTable:
    """DP table at one tree node: a join-tree atom or a decomposition bag.

    sols are the node's partial solutions over `variables`: value-index
    tuples over the sorted variables, sorted. entries maps (sorted tuple of
    sol positions, state) to (best sum, provenance): one (child node, child
    entry key, sigma) link per child merged in.
    """

    node: int
    variables: frozenset[str]
    sols: list[tuple[int, ...]]
    k: int
    rule: StateRule = EXACT
    entries: dict[tuple, tuple] = field(default_factory=dict)

    def guard(self, table_cap: int) -> None:
        if len(self.entries) > table_cap:
            raise TableGuardExceeded(f"table at node {self.node} exceeded {table_cap} entries")

    def check_bound(self, free_count: int) -> None:
        k, n = self.k, len(self.sols)
        if self.rule is NONE:
            bound = math.comb(n + k - 1, k)
            assert all(tuple(sorted(key[0])) == key[0] for key in self.entries), \
                "unsorted entry key"
        else:
            bound = n ** k * (free_count + 1) ** len(pair_order(k))
        assert len(self.entries) <= bound, \
            f"table at node {self.node} holds {len(self.entries)} entries, bound is {bound}"


def dp_init(node: int, variables: frozenset[str], sols: list[tuple[int, ...]],
            k: int, free_vars: Sequence[str], *, rule: StateRule = EXACT,
            table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """Initial table: every sorted k-tuple of the node's sols, index tuples
    over its sorted variables, with the state and the sum of its distances.

    The guard counts the n^k slot tuples a stateful table stands for, and
    the C(n + k - 1, k) sorted ones a stateless table stores.
    """
    n = len(sols)
    size = math.comb(n + k - 1, k) if rule is NONE else n ** k
    if size > table_cap:
        raise TableGuardExceeded(
            f"initial table at node {node}: {n} partial solutions, {size} slot tuples")
    dist = _distance_matrix(sols, variables, free_vars)
    pairs = pair_order(k)
    state = rule.state
    table = DPTable(node=node, variables=variables, sols=sols, k=k, rule=rule)
    entries = table.entries
    for ptuple in itertools.combinations_with_replacement(range(n), k):
        vec = tuple([dist[ptuple[i]][ptuple[j]] for i, j in pairs])
        entries[(ptuple, state(vec))] = (sum(vec), ())
    table.check_bound(len(free_vars))
    return table


class _Join:
    """Lines up the sorted tuples of a child table with those of its parent.

    single[p] is parent sol p's partner, the one child sol sharing its
    projection onto the shared variables; NO_PARTNER when none does, so a
    tuple holding p joins nothing, and None when several do. If no sol has
    several and the partners rise strictly, `direct` maps each child tuple
    to its entries under the identity; otherwise `aligned` searches per
    parent tuple, cached per partner or projection sequence.
    """

    def __init__(self, parent: DPTable, child: DPTable, free_vars: Sequence[str]) -> None:
        shared = parent.variables & child.variables
        self.proj_p = _project(parent.sols, parent.variables, shared)
        self.proj_c = _project(child.sols, child.variables, shared)
        partner: dict[tuple, int | None] = {}
        for c, proj in enumerate(self.proj_c):
            partner[proj] = None if proj in partner else c
        self.single = single = [partner.get(proj, NO_PARTNER) for proj in self.proj_p]
        # Distances on the shared free variables, which both sides count.
        self.corr = _distance_matrix(parent.sols, parent.variables, shared & set(free_vars))
        self.child = child
        self.identity = identity = tuple(range(parent.k))
        self.direct: dict[tuple, list] | None = None
        joined = [c for c in single if c != NO_PARTNER]
        if None not in joined and all(map(operator.lt, joined, joined[1:])):
            self.direct = {}
            for ckey, (value, _) in child.entries.items():
                self.direct.setdefault(ckey[0], []).append((ckey, identity, ckey[1], value))
            return
        self.sums: dict[tuple, int] | None = None
        self.child_keys: dict[tuple, list[tuple]] = {}  # sorted child tuple -> its keys
        if child.rule is NONE:
            # A stateless child holds one entry per tuple: its sum by tuple.
            self.sums = {key[0]: entry[0] for key, entry in child.entries.items()}
        else:
            for key in child.entries:
                self.child_keys.setdefault(key[0], []).append(key)
        self.buckets: dict[tuple, list[tuple]] | None = None
        self._direct: dict[tuple, list] = {}
        self._aligned: dict[tuple, list] = {}

    def aligned(self, ptuple: tuple[int, ...]) -> list[tuple[tuple, tuple, tuple, int]]:
        """(child key, sigma, child state read through sigma, child sum) for
        the child entries joining ptuple.

        All candidates of a stateless child land on one key, where a merge
        keeps the first with the highest sum; so such a child lists only
        that entry, under the least slot map (the identity when the
        projections already line up).
        """
        single = self.single
        partners = tuple([single[p] for p in ptuple])
        if NO_PARTNER in partners:
            return []
        if None not in partners:
            found = self._direct.get(partners)
            if found is None:
                found = self._direct[partners] = self._one_partner(partners)
            return found
        target = tuple([self.proj_p[p] for p in ptuple])
        found = self._aligned.get(target)
        if found is None:
            found = []
            if self.buckets is None:
                self.buckets = {}
                for ctuple in self.sums or self.child_keys:
                    bucket_key = tuple(sorted([self.proj_c[c] for c in ctuple]))
                    self.buckets.setdefault(bucket_key, []).append(ctuple)
            ctuples = self.buckets.get(tuple(sorted(target)), ())
            sums = self.sums
            if sums is not None:
                if ctuples:
                    ctuple = max(ctuples, key=sums.__getitem__)
                    if tuple([self.proj_c[c] for c in ctuple]) == target:
                        sigma = self.identity
                    else:
                        sigma = _slot_maps(ctuple, self.proj_c, target)[0]
                    found.append(((ctuple, ()), sigma, (), sums[ctuple]))
            else:
                entries = self.child.entries
                for ctuple in ctuples:
                    keys = self.child_keys[ctuple]
                    for sigma in _slot_maps(ctuple, self.proj_c, target):
                        pmap = _pair_map(sigma)
                        found.extend(
                            (ckey, sigma, tuple([ckey[1][m] for m in pmap]), entries[ckey][0])
                            for ckey in keys
                        )
            self._aligned[target] = found
        return found

    def _one_partner(self, partners: tuple[int, ...]) -> list[tuple[tuple, tuple, tuple, int]]:
        """`aligned` for a parent tuple whose slot i joins only the child sol
        partners[i]: the child tuple is the partners sorted, and parent slot
        i reads the child slot that sorting moved partners[i] to."""
        ctuple = tuple(sorted(partners))
        if ctuple == partners:
            sigma = self.identity
        else:
            order = sorted(self.identity, key=partners.__getitem__)
            sigma = tuple(sorted(self.identity, key=order.__getitem__))  # its inverse
        if self.sums is not None:
            total = self.sums.get(ctuple)
            return [] if total is None else [((ctuple, ()), sigma, (), total)]
        entries = self.child.entries
        keys = self.child_keys.get(ctuple, ())
        if sigma is self.identity:
            return [(ckey, sigma, ckey[1], entries[ckey][0]) for ckey in keys]
        pmap = _pair_map(sigma)
        return [(ckey, sigma, tuple([ckey[1][m] for m in pmap]), entries[ckey][0])
                for ckey in keys]


def dp_merge(parent: DPTable, child: DPTable, free_vars: Sequence[str], *,
             table_cap: int = DEFAULT_TABLE_CAP) -> DPTable:
    """Merge a completed child table into its parent's table.

    Compatible entry pairs combine their states and add their sums, less
    the distance already counted on the shared variables (which exact
    states subtract too). Per new key, the first candidate with the highest
    sum donates provenance. The guard runs once per parent slot tuple that
    joins, and once at the end.
    """
    join = _Join(parent, child, free_vars)
    merged = replace(parent, entries={})
    out = merged.entries
    combine, exact = parent.rule.combine, parent.rule.exact
    corr, pairs = join.corr, pair_order(parent.k)
    single, direct = join.single, join.direct
    last = None  # entries of one slot tuple are adjacent
    for (ptuple, state), (value, refs) in parent.entries.items():
        if ptuple != last:
            last = ptuple
            aligned = join.aligned(ptuple) if direct is None \
                else direct.get(tuple([single[p] for p in ptuple]), ())
            if aligned:
                merged.guard(table_cap)
                corrvec = [corr[ptuple[i]][ptuple[j]] for i, j in pairs]
                corr_sum = sum(corrvec)
        if not aligned:
            continue
        base = value - corr_sum
        if exact and corr_sum:
            state = [a - c for a, c in zip(state, corrvec)]
        for ckey, sigma, cstate, cvalue in aligned:
            new_key = (ptuple, tuple(map(combine, state, cstate)) if state else ())
            total = base + cvalue
            prior = out.get(new_key)
            if prior is None or total > prior[0]:
                out[new_key] = (total, refs + ((child.node, ckey, sigma),))
    merged.guard(table_cap)
    merged.check_bound(len(free_vars))
    return merged


def dp_finalize(root: DPTable, aggregator: Aggregator, threshold: float | None,
                allow_duplicates: bool) -> tuple[bool, tuple | None, float | None]:
    """Decision at the root: (decision, best entry key, best diversity).

    Entries with a zero pairwise distance are dropped unless duplicates are
    allowed; the best entry maximizes the aggregate of an exact state, and
    otherwise the sum (first such entry wins). A threshold of None asks only
    for the maximum.
    """
    exact = root.rule.exact
    best_key = None
    best_val = None
    for key, (total, _) in root.entries.items():
        state = key[1]
        if not allow_duplicates and not all(state):
            continue
        value = aggregator.aggregate(state) if exact else total
        if best_val is None or value > best_val:
            best_key, best_val = key, value
    decision = best_val is not None and (threshold is None or best_val >= threshold)
    return decision, best_key, best_val


def extract_witness(tables: dict[int, DPTable], root_key: tuple, jt: TreeDecomposition,
                    free_vars: Sequence[str], domain: Sequence[Value]) -> tuple[Assignment, ...]:
    """Rebuild k full answers realizing a kept root entry, via provenance.

    The walk is iterative. Each visit carries `slots`: slots[i] is the
    position of the node's tuple that feeds witness slot i; a link's sigma
    maps it into the child's tuple. The walk collects value indices, which
    `domain`, the database's value table, turns into the answers' values.
    The answers' pair distances must give back the entry's state and sum.
    """
    root = tables[jt.root]
    k = root.k
    collected: list[dict[str, int]] = [{} for _ in range(k)]
    stack = [(jt.root, root_key, tuple(range(k)))]
    while stack:
        node, key, slots = stack.pop()
        table = tables[node]
        for bound, s in zip(collected, slots):
            for v, index in zip(sorted(table.variables), table.sols[key[0][s]]):
                if bound.setdefault(v, index) != index:
                    raise CorruptProvenance(f"conflicting bindings for {v} while extending entry")
        for child_node, child_key, sigma in table.entries[key][1]:
            stack.append((child_node, child_key, tuple([sigma[s] for s in slots])))
    xs = list(free_vars)
    witness = tuple(Assignment([(x, domain[b[x]]) for x in xs if x in b]) for b in collected)
    vec = pairwise_distances(witness, xs)
    if root.rule.state(vec) != root_key[1] or sum(vec) != root.entries[root_key][0]:
        raise CorruptProvenance("witness distances disagree with the kept entry")
    return witness


# The traced benchmark run (bench/tracing.py) wraps these names, which the
# three table families this module once had defined; they stay until the
# tracer wraps only dp_init, dp_merge and extract_witness.
sum_init = dup_init = dp_init
sum_merge = dup_merge = dp_merge
_extract_sum_witness = _extract_dup_witness = extract_witness


def _full_reduce(jt: TreeDecomposition, sols: dict[int, list[tuple[int, ...]]]) -> None:
    """Keep in sols[node] only the solutions that lie in some full join
    result: semi-joins up the join tree, then down it. Order is kept."""

    def semijoin(target: int, source: int) -> None:
        shared = jt.bags[target] & jt.bags[source]
        seen = set(_project(sols[source], jt.bags[source], shared))
        keys = _project(sols[target], jt.bags[target], shared)
        sols[target] = [s for s, key in zip(sols[target], keys) if key in seen]

    edges = [(node, child) for node in jt.postorder() for child in jt.children.get(node, ())]
    for parent, child in edges:
        semijoin(parent, child)
    for parent, child in reversed(edges):
        semijoin(child, parent)


def _traverse(query: Query, db: Database, k: int, free_vars: Sequence[str],
              rule: StateRule, table_cap: int):
    """Build every node's table over its fully reduced solutions, children
    first. Tables are built through the module's `dp_init` and `dp_merge`
    as they are at call time."""
    jt = gyo_join_tree(query)
    if jt is None:
        raise NotAcyclic(f"query {query.head} admits no join tree")
    atoms = query.conjuncts[0].positive_atoms
    order = jt.postorder()
    sols = {node: _sorted_sols(atoms[node], db) for node in order}
    _full_reduce(jt, sols)
    tables: dict[int, DPTable] = {}
    max_table = 0
    for node in order:
        table = dp_init(node, atoms[node].variables, sols[node], k, free_vars,
                        rule=rule, table_cap=table_cap)
        for child in jt.children.get(node, ()):
            table = dp_merge(table, tables[child], free_vars, table_cap=table_cap)
        tables[node] = table
        max_table = max(max_table, len(table.entries))
    stats = {"nodes": len(atoms), "max_table": max_table, "k": k}
    return jt, tables, stats


def _solve(query: Query, db: Database, k: int, d: float | None, aggregator: Aggregator,
           rule: StateRule, witness: bool, allow_duplicates: bool,
           table_cap: int) -> Outcome:
    free_vars = query.free_vars
    jt, tables, stats = _traverse(query, db, k, free_vars, rule, table_cap)
    decision, best_key, best = dp_finalize(tables[jt.root], aggregator, d, allow_duplicates)
    solution = extract_witness(tables, best_key, jt, free_vars, db.domain) \
        if decision and witness else None
    return Outcome(decision, best, solution, stats=stats)


def solve_acq(query: Query, db: Database, k: int, d: float | None,
              aggregator: Aggregator, *, witness: bool = False,
              allow_duplicates: bool = False,
              table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Decide whether k pairwise-distinct answers reach diversity d.

    Needs an acyclic positive query; d = None reports the maximum achievable
    diversity instead of deciding against a threshold.
    """
    return _solve(query, db, k, d, aggregator, EXACT, witness, allow_duplicates,
                  table_cap)


def solve_acq_sum(query: Query, db: Database, k: int, d: float | None, *,
                  witness: bool = False,
                  table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Sum-diversity decision via the flagged max-sum tables.

    Matches solve_acq with the sum aggregator on decisions and values.
    """
    return _solve(query, db, k, d, SUM, FLAGS, witness, False, table_cap)


def solve_acq_sum_dup(query: Query, db: Database, k: int, d: float | None, *,
                      witness: bool = False,
                      table_cap: int = DEFAULT_TABLE_CAP) -> Outcome:
    """Sum-diversity over multisets of answers (duplicates permitted)."""
    return _solve(query, db, k, d, SUM, NONE, witness, True, table_cap)
