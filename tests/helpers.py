"""Shared test utilities: random instance generators, tiny independent
oracles (assignment enumeration over the full domain) used to cross-check the
dynamic-programming tables, and a runner for code in a new interpreter.
"""

from __future__ import annotations

import heapq
import itertools
import os
import random
import subprocess
import sys
from typing import Mapping, Sequence

from diverseq.model import Assignment, Database, pair_order
from diverseq.queries import Atom, Conjunct, Literal, Query, Variable, parse_query
from diverseq.structure import _orient, _tree, gyo_join_tree, tree_decompose, validate_decomposition

TESTS_DIR = os.path.dirname(os.path.abspath(__file__))


def fresh_python(code: str, **env: str) -> list[str]:
    """Run `code` in a new interpreter that imports the package from src/
    and these helpers, with `env` added to its environment; returns its
    stdout lines."""
    path = os.pathsep.join(filter(None, (os.path.join(TESTS_DIR, os.pardir, "src"), TESTS_DIR,
                                         os.environ.get("PYTHONPATH"))))
    done = subprocess.run([sys.executable, "-c", code],
                          env=dict(os.environ, PYTHONPATH=path, **env),
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def tree_shapes(texts: Sequence[str]) -> list[str]:
    """For each query text, its GYO join tree (None when it is cyclic or
    has negation) and its min-fill decomposition, as comparable text."""
    def shape(td):
        return None if td is None else (
            td.root, sorted(td.children.items()), sorted((n, sorted(b)) for n, b in td.bags.items()))

    lines = []
    for text in texts:
        query = parse_query(text)
        gyo = gyo_join_tree(query) if query.kind == "cq" else None
        lines.append(repr((shape(gyo), shape(tree_decompose(query)))))
    return lines


def not_nice(td) -> list[int]:
    """The nodes of `td` that break nice shape, read from the bags alone. A
    nice node has no child; or one child whose bag differs from its own by
    exactly one variable; or two children whose bags equal its own."""
    bad = []
    for node, bag in td.bags.items():
        kids = td.children.get(node, ())
        if len(kids) == 1:
            ok = len(bag ^ td.bags[kids[0]]) == 1
        else:
            ok = len(kids) in (0, 2) and all(td.bags[kid] == bag for kid in kids)
        if not ok:
            bad.append(node)
    return bad


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
    """A random single-disjunct query with negation, of bounded width.

    Regenerates until the min-fill decomposition's width fits under
    max_width. On at most six variables min-fill width is the treewidth.
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
        if tree_decompose(query).width <= max_width:
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


def exhaustive_join_tree(query: Query):
    """A valid join tree found by trying every labeled tree, or None: the
    oracle for the GYO construction.

    Trees are generated from Prüfer sequences; validity does not depend on
    the choice of root. Intended for small queries only.
    """
    atoms = query.conjuncts[0].positive_atoms
    n = len(atoms)
    bags = {i: atom.variables for i, atom in enumerate(atoms)}
    if n == 1:
        return _tree(0, {}, bags)
    for seq in itertools.product(range(n), repeat=max(0, n - 2)):
        adjacency: dict[int, set[int]] = {i: set() for i in range(n)}
        for a, b in _pruefer_to_edges(list(seq), n):
            adjacency[a].add(b)
            adjacency[b].add(a)
        candidate = _tree(0, _orient(0, adjacency), bags)
        if not validate_decomposition(candidate, query):
            return candidate
    return None


def _pruefer_to_edges(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for node in seq:
        degree[node] += 1
    heap = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(heap)
    edges = []
    for node in seq:
        leaf = heapq.heappop(heap)
        edges.append((min(leaf, node), max(leaf, node)))
        degree[node] -= 1
        if degree[node] == 1:
            heapq.heappush(heap, node)
    u = heapq.heappop(heap)
    v = heapq.heappop(heap)
    edges.append((min(u, v), max(u, v)))
    return edges


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


def _projections(table, names: Sequence[str]) -> list[tuple]:
    """Each of a DP table's sols, as its values on `names`."""
    return [tuple(sol_bindings(table, n)[v] for v in names) for n in range(len(table.sols))]


def _read_state(state: tuple, sigma: Sequence[int]) -> tuple:
    """A stored state read through slot map sigma: parent pair (i, j) takes
    the child's pair (sigma[i], sigma[j]). A stateless () stays ()."""
    if not state:
        return state
    pairs = pair_order(len(sigma))
    pos = {p: n for n, p in enumerate(pairs)}
    return tuple(state[pos[tuple(sorted((sigma[i], sigma[j])))]] for i, j in pairs)


def reference_project(child, variables):
    """The table `acq.dp_project(child, variables, ...)` must produce,
    under the child's node id, built naively: the child's distinct
    projections onto `variables`, sorted, as sols; every child entry tried
    under every slot map sigma whose rearranged tuple projects to a sorted
    tuple; per new key the first candidate with the highest sum kept.

    Candidates come per child entry, then per slot map: of the maps that
    rearrange the child tuple alike only the lexicographically first is
    tried, in ascending order of the rearranged tuple.
    """
    names = sorted(variables)
    proj = _projections(child, names)
    sols = sorted(set(proj))
    index = [sols.index(p) for p in proj]
    out: dict = {}
    for ckey, (value, _) in child.entries.items():
        ctuple, state = ckey
        maps: dict[tuple, tuple] = {}
        for sigma in itertools.permutations(range(child.k)):
            projected = [index[ctuple[s]] for s in sigma]
            if projected == sorted(projected):
                maps.setdefault(tuple(ctuple[s] for s in sigma), sigma)
        for rearranged, sigma in sorted(maps.items()):
            key = (tuple(index[c] for c in rearranged), _read_state(state, sigma))
            prior = out.get(key)
            if prior is None or value > prior[0]:
                out[key] = (value, ((child, ckey, sigma),))
    return child.copy(variables=frozenset(variables), sols=sols, rows=[()] * len(sols),
                      entries=out)


def reference_merge(parent, child):
    """The table `acq.dp_merge(parent, child, ...)` must produce when it
    merges as rows, built naively: a child whose sols share a projection
    onto the shared variables is first projected onto them
    (`reference_project`); then every (parent entry, child entry, slot map)
    triple is tried, its states and sums added, since the two tables count
    disjoint free variables, and per new key the first candidate with the
    highest sum is kept. Each keeps the parent entry's links (none in a
    matrix table) and then one to the child entry. The table keeps the
    parent's answer rows and counts the parent's columns, then the child's.

    Candidates come per parent entry, then per child slot tuple in order of
    first appearance, then per slot map, then per child entry of that
    tuple. A slot map sigma (parent slot i reads child slot sigma[i]) must
    agree with the parent on the shared variables; of the maps that
    rearrange the child tuple alike only the lexicographically first is
    tried, in ascending order of the rearranged tuple.
    """
    k = parent.k
    shared = sorted(parent.variables & child.variables)
    proj = _projections(child, shared)
    if len(set(proj)) < len(proj):
        child = reference_project(child, shared)
    by_tuple: dict[tuple, list[tuple]] = {}
    for ckey in child.entries:
        by_tuple.setdefault(ckey[0], []).append(ckey)
    out: dict = {}
    for (ptuple, state), (value, refs) in parent.entries.items():
        psols = [sol_bindings(parent, p) for p in ptuple]
        for ctuple, ckeys in by_tuple.items():
            csols = [sol_bindings(child, c) for c in ctuple]
            maps: dict[tuple, tuple] = {}
            for sigma in itertools.permutations(range(k)):
                if all(csols[sigma[i]][v] == psols[i][v] for i in range(k) for v in shared):
                    maps.setdefault(tuple(ctuple[s] for s in sigma), sigma)
            for _, sigma in sorted(maps.items()):
                for ckey in ckeys:
                    read = _read_state(ckey[1], sigma)
                    new_state = () if parent.stateless else \
                        tuple(p + c for p, c in zip(state, read))
                    total = value + child.entries[ckey][0]
                    prior = out.get((ptuple, new_state))
                    if prior is None or total > prior[0]:
                        out[(ptuple, new_state)] = (total, refs + ((child, ckey, sigma),))
    return parent.copy(columns=parent.columns + child.columns, entries=out)


def counted_free_vars(td, free_vars: Sequence[str]) -> dict[int, list[str]]:
    """Per node of a join tree or tree decomposition, the free variables its
    own DP table counts: each free variable is counted at the first node in
    postorder whose bag holds it, so at exactly one."""
    first: dict[str, int] = {}
    for node in td.postorder():
        for v in td.bags[node]:
            first.setdefault(v, node)
    return {node: [v for v in free_vars if first.get(v) == node] for node in td.postorder()}


def reference_matrix(table, counted: Mapping[int, Sequence[str]],
                     adds: Mapping[int, tuple]) -> list[list[int]]:
    """The n x n distance matrix a matrix table stands for, by how it was
    made. `adds` maps the entries of each table that a merge made by adding
    a child's answer rows, by id, to that merge's (parent, child). Any other
    matrix table is an init: its sols' distances on `counted[table.node]`,
    the free variables its own sols count. A table a merge made reads the
    parent's matrix plus the child's at the partners: each sol's partner is
    the one child sol that agrees with it on the shared variables."""
    n = len(table.sols)
    sols = [sol_bindings(table, p) for p in range(n)]
    made = adds.get(id(table.entries))
    if made is None:
        own = counted[table.node]
        return [[hamming_index(sols[a], sols[b], own) for b in range(n)] for a in range(n)]
    parent, child = made
    shared = sorted(parent.variables & child.variables)
    keys = _projections(child, shared)
    partners = [keys.index(tuple(sol[v] for v in shared)) for sol in sols]
    assert all(keys.count(keys[c]) == 1 for c in partners), "the add's join is not functional"
    matrix = reference_matrix(parent, counted, adds)
    child_matrix = reference_matrix(child, counted, adds)
    return [[matrix[a][b] + child_matrix[partners[a]][partners[b]] for b in range(n)]
            for a in range(n)]


def hamming_index(a: dict, b: dict, names: Sequence[str]) -> int:
    """How many of `names` two sols' bindings (`sol_bindings`) differ on."""
    return sum(a[v] != b[v] for v in names)


def reference_matrix_entries(table, counted: Mapping[int, Sequence[str]],
                             adds: Mapping[int, tuple]) -> list:
    """The entries, in order, of a matrix table read off `reference_matrix`:
    one per sorted slot tuple, its state the tuple's pair distances (() when
    stateless), its sum theirs, and no links, since its answers are its
    rows."""
    matrix = reference_matrix(table, counted, adds)
    entries = []
    for ptuple in itertools.combinations_with_replacement(range(len(table.sols)), table.k):
        vec = tuple(matrix[ptuple[i]][ptuple[j]] for i, j in pair_order(table.k))
        entries.append(((ptuple, () if table.stateless else vec), (sum(vec), ())))
    return entries


def spelled_links(entries: dict) -> list:
    """A DP table's entries in order, each link's table spelled by its node,
    variables, sols and entries. Tables compare by identity, so this lets a
    projection built by a merge equal one built by `reference_merge`; the
    spelled entries' own links keep their tables, which both sides share."""
    spelled: dict[int, tuple] = {}

    def spell(table):
        if id(table) not in spelled:
            spelled[id(table)] = (table.node, table.variables, tuple(table.sols),
                                  tuple(table.entries.items()))
        return spelled[id(table)]

    return [(key, value, tuple((spell(table), ckey, sigma) for table, ckey, sigma in refs))
            for key, (value, refs) in entries.items()]


def provenance_bindings(table, key, names: Sequence[str]) -> tuple:
    """Per slot of a DP table entry, the sorted (variable, value index)
    pairs on `names` that its provenance gives, as the witness walk reads
    it: each entry visited, which its table must hold, binds the slot's sol
    over the table's variables and its answer row over the table's leading
    columns, all of them in a matrix table, then passes each slot on
    through every link's slot map. Asserts that no variable is bound to two
    values."""
    bound: list[dict] = [{} for _ in range(table.k)]
    stack = [(table, key, tuple(range(table.k)))]
    while stack:
        table, key, slots = stack.pop()
        assert key in table.entries
        assert len(table.rows) == len(table.sols)
        for b, s in zip(bound, slots):
            p = key[0][s]
            row = table.rows[p]
            assert len(row) == len(table.columns) if table.answer_rows is not None \
                else len(row) <= len(table.columns)
            pairs = [*zip(sorted(table.variables), table.sols[p]), *zip(table.columns, row)]
            for v, index in pairs:
                assert b.setdefault(v, index) == index, f"{v} bound twice"
        stack.extend((child, ckey, tuple(sigma[s] for s in slots))
                     for child, ckey, sigma in table.entries[key][1])
    return tuple(tuple(sorted((v, i) for v, i in b.items() if v in names)) for b in bound)


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
