#!/usr/bin/env python3
"""The join-tree engine for acyclic queries, step by step.

A join tree is built by ear removal; the solver then sweeps it bottom-up,
tracking k-tuples of per-atom solutions together with the pairwise distances
their extensions realize. Finalization filters by the threshold and prunes
tuples with a zero distance (those would repeat an answer).
"""

from diverseq import (
    MIN,
    SUM,
    Graph,
    gyo_join_tree,
    independent_set_to_diverse_query,
    parse_query,
    solve_acq,
    solve_acq_sum,
    solve_acq_sum_dup,
)

# A graph whose independent sets we will recover through diversity: the
# per-edge reduction makes "s answers pairwise differing everywhere" mean
# "an independent set of size s".
square = Graph.from_edges(4, [(1, 2), (2, 3), (3, 4), (1, 4)])
fx = independent_set_to_diverse_query(square, 2)
print("query:", fx.query.head, "with", len(fx.query.free_vars), "free variables")

jt = gyo_join_tree(fx.query)
print("join tree root:", jt.root, "| children:", dict(jt.children))

# The square has independent sets of size 2 (opposite corners), so the
# thresholds are reachable.
out = solve_acq(fx.query, fx.db, fx.k, fx.d_sum, SUM, witness=True)
print("sum threshold", fx.d_sum, "->", "yes" if out.decision else "no",
      "| achieved:", out.diversity)
for i, answer in enumerate(out.witness, 1):
    print(f"  witness {i}:", {v: answer[v].payload for v in fx.query.free_vars})

# Maximize instead of deciding: pass None as the threshold.
best = solve_acq(fx.query, fx.db, fx.k, None, MIN)
print("maximum min-diversity for k=2:", best.diversity)

# solve_acq_sum is solve_acq with the sum aggregator, kept as its own entry
# point; decisions always agree.
fast = solve_acq_sum(fx.query, fx.db, fx.k, fx.d_sum)
print("solve_acq_sum agrees:", fast.decision == out.decision,
      "| value:", fast.diversity)

# Allowing duplicate answers switches to multiset semantics.
db2 = fx.db
single = parse_query("Q(v, x1, x2, x3, x4) :- R(v), R1(v, x1), R2(v, x2), R3(v, x3), R4(v, x4).")
dup = solve_acq_sum_dup(single, db2, 3, None, witness=True)
print("best multiset of 3 answers reaches:", dup.diversity)
print("multiset witness distinct answers:", len(set(dup.witness)))
