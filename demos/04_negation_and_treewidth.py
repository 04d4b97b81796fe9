#!/usr/bin/env python3
"""The bag engine: negation, tree decompositions, and the nice normal form.

Negated literals break the join-tree approach, so the solver walks a nice
tree decomposition instead: leaves enumerate bag assignments, introduce nodes
extend them one variable at a time, forget nodes project, and join nodes
combine branches while subtracting the distance counted twice.
"""

from diverseq import (
    MIN,
    SUM,
    Database,
    make_nice,
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
# the bag engine's cost grows with the width it is given.
td = tree_decompose(q)
print("width:", td.width, "| bags:", {n: sorted(b) for n, b in td.bags.items()})
nice = make_nice(td)
print("nice nodes:", len(nice.bags), "| kinds:",
      sorted(str(k) for k in set(map(str, nice.kinds.values()))))
print("validation:", validate_decomposition(nice, q) or "ok")

# Two answers as far apart as possible.
out = solve_cqneg(q, db, 2, None, MIN, witness=True)
print("max min-diversity:", out.diversity)
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
