"""Shared test utilities: random instance generators and tiny independent
oracles (assignment enumeration over the full domain) used to cross-check the
dynamic-programming tables.
"""

from __future__ import annotations

import itertools
import random
from typing import Sequence

from diverseq.model import Assignment, Database, hamming_distance, pair_order
from diverseq.queries import Atom, Conjunct, Literal, Query, Variable
from diverseq.structure import tree_decompose


def random_acyclic_query(rng: random.Random, *, max_atoms: int = 4,
                         max_arity: int = 3, max_dom: int = 4,
                         max_rows: int = 12) -> tuple[Query, Database]:
    """A random acyclic query with a random database.

    Atoms are generated along a random tree so a join tree exists by
    construction: each child shares a subset of its parent's variables and may
    add fresh ones.
    """
    n_atoms = rng.randint(1, max_atoms)
    parent = [None] + [rng.randrange(i) for i in range(1, n_atoms)]
    fresh = itertools.count()
    atom_vars: list[list[str]] = []
    for i in range(n_atoms):
        arity = rng.randint(1, max_arity)
        if parent[i] is None:
            variables = [f"v{next(fresh)}" for _ in range(arity)]
        else:
            inherited = rng.sample(
                atom_vars[parent[i]],
                k=rng.randint(0, min(arity, len(atom_vars[parent[i]]))),
            )
            variables = inherited + [
                f"v{next(fresh)}" for _ in range(arity - len(inherited))
            ]
            rng.shuffle(variables)
        atom_vars.append(variables)

    dom_size = rng.randint(2, max_dom)
    db = Database()
    literals = []
    for i, variables in enumerate(atom_vars):
        arity = len(variables)
        n_rows = rng.randint(1, max_rows)
        rows = {
            tuple(rng.randint(1, dom_size) for _ in range(arity))
            for _ in range(n_rows)
        }
        db.add_relation(f"R{i}", arity, sorted(rows))
        literals.append(Literal(Atom(f"R{i}", tuple(Variable(v) for v in variables))))

    all_vars = sorted({v for vs in atom_vars for v in vs})
    n_free = rng.randint(1, len(all_vars))
    free = rng.sample(all_vars, k=n_free)
    query = Query("Q", tuple(free), (Conjunct(tuple(literals)),))
    return query, db


def random_cqneg_query(rng: random.Random, *, max_vars: int = 5,
                       dom_size: int = 3, max_positive: int = 3,
                       max_width: int = 2) -> tuple[Query, Database]:
    """A random single-disjunct query with negation, treewidth-bounded.

    Regenerates until the primal graph's exact width fits under max_width.
    """
    while True:
        n_vars = rng.randint(1, max_vars)
        variables = [f"v{i}" for i in range(n_vars)]
        n_pos = rng.randint(1, max_positive)
        groups: list[list[str]] = []
        covered: set[str] = set()
        for i in range(n_pos):
            size = rng.randint(1, min(3, n_vars))
            group = rng.sample(variables, k=size)
            groups.append(group)
            covered |= set(group)
        uncovered = [v for v in variables if v not in covered]
        while uncovered:
            slot = rng.randrange(len(groups))
            if len(groups[slot]) < 3:
                groups[slot].append(uncovered.pop())
            else:
                groups.append([uncovered.pop()])

        literals = []
        db = Database()
        for i, group in enumerate(groups):
            arity = len(group)
            n_rows = rng.randint(1, dom_size ** arity)
            rows = {
                tuple(rng.randint(1, dom_size) for _ in range(arity))
                for _ in range(n_rows)
            }
            db.add_relation(f"P{i}", arity, sorted(rows))
            literals.append(Literal(Atom(f"P{i}", tuple(Variable(v) for v in group))))

        n_neg = rng.randint(0, max(0, len(groups) // 2))
        for i in range(n_neg):
            size = rng.randint(1, min(2, n_vars))
            group = rng.sample(variables, k=size)
            rows = {
                tuple(rng.randint(1, dom_size) for _ in range(size))
                for _ in range(rng.randint(0, dom_size ** size))
            }
            db.add_relation(f"N{i}", size, sorted(rows))
            literals.append(
                Literal(Atom(f"N{i}", tuple(Variable(v) for v in group)), positive=False)
            )

        free = rng.sample(variables, k=rng.randint(1, n_vars))
        query = Query("Q", tuple(free), (Conjunct(tuple(literals)),))
        if tree_decompose(query, "exact").width <= max_width:
            return query, db


def random_general_query(rng: random.Random, *, max_atoms: int = 5,
                         max_vars: int = 5, max_arity: int = 3,
                         max_dom: int = 3, max_rows: int = 6
                         ) -> tuple[Query, Database]:
    """A random positive query with no acyclicity guarantee."""
    n_vars = rng.randint(1, max_vars)
    variables = [f"v{i}" for i in range(n_vars)]
    n_atoms = rng.randint(1, max_atoms)
    db = Database()
    literals = []
    covered: set[str] = set()
    for i in range(n_atoms):
        arity = rng.randint(1, min(max_arity, n_vars))
        group = rng.sample(variables, k=arity)
        covered |= set(group)
        rows = {
            tuple(rng.randint(1, max_dom) for _ in range(arity))
            for _ in range(rng.randint(1, max_rows))
        }
        db.add_relation(f"R{i}", arity, sorted(rows))
        literals.append(Literal(Atom(f"R{i}", tuple(Variable(v) for v in group))))
    usable = sorted(covered)
    free = rng.sample(usable, k=rng.randint(1, len(usable)))
    query = Query("Q", tuple(free), (Conjunct(tuple(literals)),))
    return query, db


def random_assignment(rng: random.Random, db: Database,
                      variables: Sequence[str]) -> Assignment:
    domain = list(db.domain)
    return Assignment({v: rng.choice(domain) for v in variables})


def conjunction_solutions(atoms: Sequence[Atom], db: Database) -> list[Assignment]:
    """All assignments of the atoms' variables satisfying every atom.

    Deliberately naive (full domain enumeration) so it stays independent of
    the join machinery it is used to check.
    """
    variables = sorted({v for a in atoms for v in a.variables})
    domain = list(db.domain)
    out = []
    for combo in itertools.product(domain, repeat=len(variables)):
        assignment = Assignment(dict(zip(variables, combo)))
        ok = True
        for atom in atoms:
            row = tuple(assignment[t.name].index for t in atom.terms)
            if row not in db.relations[atom.relation].rows:
                ok = False
                break
        if ok:
            out.append(assignment)
    return out


def literal_solutions(literals: Sequence[Literal], variables: Sequence[str],
                      db: Database) -> list[Assignment]:
    """All assignments over the given variables satisfying every literal."""
    from diverseq.queries import satisfies_literal

    domain = list(db.domain)
    out = []
    for combo in itertools.product(domain, repeat=len(variables)):
        indices = {v: x.index for v, x in zip(variables, combo)}
        if all(satisfies_literal(lit, indices, db) for lit in literals):
            out.append(Assignment(dict(zip(variables, combo))))
    return out


def column_candidates(query: Query, db: Database) -> dict[str, set]:
    """Per variable, the values in its column of every positive atom of the
    (single-disjunct) query that mentions it."""
    found: dict[str, set] = {}
    for lit in query.conjuncts[0].literals:
        if not lit.positive:
            continue
        for pos, term in enumerate(lit.atom.terms):
            if isinstance(term, Variable):
                column = {row[pos] for row in db.relations[lit.atom.relation].sorted_rows()}
                found[term.name] = found.get(term.name, column) & column
    return found


def all_graphs(max_n: int):
    """Every labeled simple graph on 1..max_n vertices."""
    from diverseq.oracle import Graph

    for n in range(1, max_n + 1):
        possible = list(itertools.combinations(range(1, n + 1), 2))
        for bits in range(1 << len(possible)):
            edges = [e for i, e in enumerate(possible) if (bits >> i) & 1]
            yield Graph.from_edges(n, edges)


def small_answer_instances(rng: random.Random, count: int, *, max_answers: int = 24,
                           **kwargs) -> list[tuple[Query, Database]]:
    """Random acyclic instances filtered to a manageable answer count."""
    from diverseq.oracle import enumerate_answers

    out = []
    while len(out) < count:
        query, db = random_acyclic_query(rng, **kwargs)
        if len(enumerate_answers(query, db)) <= max_answers:
            out.append((query, db))
    return out


def _permute_key(ptuple: tuple, vec: tuple, perm: Sequence[int]) -> tuple[tuple, tuple]:
    """Slot tuple and pair vector (in `model.pair_order`) with slot i taking
    what slot perm[i] held."""
    k = len(ptuple)
    pairs = pair_order(k)
    pos = {p: n for n, p in enumerate(pairs)}
    permuted = tuple(ptuple[perm[i]] for i in range(k))
    pvec = []
    for i, j in pairs:
        a, b = perm[i], perm[j]
        pvec.append(vec[pos[(a, b) if a < b else (b, a)]])
    return permuted, tuple(pvec)


def slot_closure(items, k: int) -> dict:
    """Expand {(slot tuple, pair vector): value} under every slot permutation.

    A join-tree table stores only sorted slot tuples; this rebuilds the full
    table they stand for. Two stored entries that expand to the same full key
    must agree on its value.
    """
    full: dict = {}
    for (ptuple, vec), value in items:
        for perm in itertools.permutations(range(k)):
            key = _permute_key(ptuple, vec, perm)
            assert full.setdefault(key, value) == value, f"conflicting values at {key}"
    return full


def is_permutation_closed(keys, k: int) -> bool:
    """Whether a set of (slot tuple, pair vector) keys is closed under
    permuting the k slots."""
    keys = set(keys)
    return all(
        _permute_key(ptuple, vec, perm) in keys
        for ptuple, vec in keys
        for perm in itertools.permutations(range(k))
    )


def sol_bindings(table, position: int, domain: Sequence | None = None) -> dict:
    """A DP table's sol at `position`, an index tuple over the sorted
    variables, as a dict from variable to value index; to value when the
    database's value table `domain` is given."""
    row = table.sols[position]
    if domain is not None:
        row = [domain[i] for i in row]
    return dict(zip(sorted(table.variables), row))


def reference_merge(parent, child, free_vars: Sequence[str]) -> dict:
    """The entries `acq.dp_merge(parent, child, ...)` must produce, built
    naively: every (parent entry, child entry, slot map) triple is tried,
    and per new key the first candidate with the highest sum is kept.

    Candidates come per parent entry, then per child slot tuple in order of
    first appearance, then per slot map, then per child entry of that
    tuple. A slot map sigma (parent slot i reads child slot sigma[i]) must
    agree with the parent on the shared variables; of the maps that
    rearrange the child tuple alike only the lexicographically first is
    tried, in ascending order of the rearranged tuple.
    """
    k, rule = parent.k, parent.rule.name
    pairs = pair_order(k)
    pos = {p: n for n, p in enumerate(pairs)}
    shared = sorted(parent.variables & child.variables)
    shared_free = [v for v in shared if v in free_vars]
    by_tuple: dict[tuple, list[tuple]] = {}
    for ckey in child.entries:
        by_tuple.setdefault(ckey[0], []).append(ckey)
    out: dict = {}
    for (ptuple, state), (value, refs) in parent.entries.items():
        psols = [sol_bindings(parent, p) for p in ptuple]
        overlap = [hamming_distance(psols[i], psols[j], shared_free) for i, j in pairs]
        for ctuple, ckeys in by_tuple.items():
            csols = [sol_bindings(child, c) for c in ctuple]
            maps: dict[tuple, tuple] = {}
            for sigma in itertools.permutations(range(k)):
                if all(csols[sigma[i]][v] == psols[i][v] for i in range(k) for v in shared):
                    maps.setdefault(tuple(ctuple[s] for s in sigma), sigma)
            for _, sigma in sorted(maps.items()):
                for ckey in ckeys:
                    if rule == "none":
                        new_state = ()
                    else:
                        read = [ckey[1][pos[tuple(sorted((sigma[i], sigma[j])))]]
                                for i, j in pairs]
                        if rule == "exact":
                            new_state = tuple(p - o + c for p, o, c in zip(state, overlap, read))
                        else:
                            new_state = tuple(p | c for p, c in zip(state, read))
                    total = value - sum(overlap) + child.entries[ckey][0]
                    prior = out.get((ptuple, new_state))
                    if prior is None or total > prior[0]:
                        out[(ptuple, new_state)] = (total, refs + ((child.node, ckey, sigma),))
    return out


# --- reference kernel: the capping rules and the search as plain loops ----------


def reference_capping_rule(answers, t: int, k: int):
    """One capping level as first written: re-sort every row per fixed
    column set, cap groups in sorted order, and filter the rows after every
    capped group. `kernel.apply_capping_rule` must return the same rows and
    raise PreconditionViolated in the same cases."""
    import math

    from diverseq.errors import PreconditionViolated
    from diverseq.kernel import AnswerRelation

    def threshold_of(level: int) -> int:
        return math.factorial(level) ** 2 * k ** level

    m = len(answers.columns)
    if not 1 <= t <= m:
        raise ValueError(f"level {t} out of range for {m} columns")
    rows = sorted(answers.rows)
    prior_threshold = threshold_of(t - 1)
    for fixed in itertools.combinations(range(m), m - (t - 1)):
        counts: dict[tuple, int] = {}
        for row in rows:
            key = tuple(row[i] for i in fixed)
            counts[key] = counts.get(key, 0) + 1
        oversized = max(counts.values(), default=0)
        if oversized > prior_threshold:
            raise PreconditionViolated(f"{oversized} > {prior_threshold}")
    threshold = threshold_of(t)
    for fixed in itertools.combinations(range(m), m - t):
        free = [i for i in range(m) if i not in fixed]
        ordered = sorted(
            rows,
            key=lambda r: tuple(r[i] for i in fixed) + tuple(r[i] for i in free),
        )
        for _, group_iter in itertools.groupby(
            ordered, key=lambda r: tuple(r[i] for i in fixed)
        ):
            group = list(group_iter)
            if len(group) < threshold:
                continue
            chosen: list = []
            for row in group:
                if all(all(row[i] != prior[i] for i in free) for prior in chosen):
                    chosen.append(row)
                    if len(chosen) == t * k:
                        break
            if len(chosen) < t * k:
                raise PreconditionViolated(f"greedy found {len(chosen)} of {t * k}")
            dropped = set(group) - set(chosen)
            rows = [r for r in rows if r not in dropped]
    return AnswerRelation(answers.columns, frozenset(rows), answers.values)


def reference_kernelize(answers, k: int):
    """Every capping level in order, each run to a fixpoint, none skipped."""
    current = answers
    for t in range(1, len(answers.columns) + 1):
        while True:
            reduced = reference_capping_rule(current, t, k)
            if reduced.rows == current.rows:
                break
            current = reduced
    return current


def reference_fo_search(kernel, k: int, aggregator, *, allow_duplicates: bool = False):
    """Plain enumeration of every k-subset (or k-multiset) of the kernel's
    rows in `itertools` order. Returns (best value, best index combination,
    the rows in sorted order); the first combination reaching the best value
    wins, as in `kernel.solve_fo_diverse`."""
    pool = kernel.assignments()
    n = len(pool)
    xs = list(kernel.columns)
    combos = (
        itertools.combinations_with_replacement(range(n), k)
        if allow_duplicates
        else itertools.combinations(range(n), k)
    )
    best = None
    best_combo = None
    for combo in combos:
        value = aggregator.aggregate(
            sum(1 for x in xs if pool[i][x] != pool[j][x])
            for i, j in itertools.combinations(combo, 2)
        )
        if best is None or value > best:
            best, best_combo = value, combo
    return best, best_combo, pool
