#!/usr/bin/env python3
"""The bag engine: negation and tree decompositions.

Negated literals break the join-tree approach, so the solver walks a tree
decomposition instead, as it is: each bag's assignments come from a join of
the atoms it covers and its children's assignments, filtered by the negated
literals it covers, and the join-tree engine's tables run over them. A
child's table is projected onto the variables it shares with its parent and
merged in. Each free variable is counted by one bag's table, so a merge
adds distances.
"""

from diverseq import (
    MIN,
    SUM,
    Database,
    parse_query,
    solve_cqneg,
    tree_decompose,
    validate_decomposition,
)
from diverseq.structure import format_decomposition

db = Database.from_rows({
    "Likes": [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)],
    "Blocked": [(1, 1), (3, 1)],
})
q = parse_query("Match(a, b) :- Likes(a, b), !Blocked(a, b).")

# A min-fill decomposition: its width bounds the treewidth from above, and
# the bag engine's cost grows with the width it is given. This is the tree
# the engine walks, children before parents.
td = tree_decompose(q)
print("width:", td.width, "| root:", td.root)
for node in td.postorder():
    print(f"  bag {node}: {sorted(td.bags[node])} | children: {list(td.children[node])}")
print("validation:", validate_decomposition(td, q) or "ok")

# Two answers as far apart as possible.
out = solve_cqneg(q, db, 2, None, MIN, witness=True)
print("max min-diversity:", out.diversity, "| nodes walked:", out.stats["nodes"])
for answer in out.witness:
    print("  answer:", {v: answer[v].payload for v in q.free_vars})

# Three answers under the sum aggregator, with an explicit threshold.
out3 = solve_cqneg(q, db, 3, 4, SUM)
print("k=3, sum >= 4:", "yes" if out3.decision else "no",
      "| achieved:", out3.diversity)

# Decompositions round-trip through a small text format, which is also what
# the CLI's --decomposition flag accepts.
print("--- decomposition file ---")
print(format_decomposition(td), end="")
