#!/usr/bin/env python3
"""Parsing rule text and evaluating queries.

One rule per line; several rules with the same head form a union; a `!`
negates a literal (single-disjunct queries only). Lowercase-initial
identifiers are variables, integers and quoted strings are constants.
"""

from diverseq import Database, enumerate_answers, materialize_answers, parse_query, sols_atom

db = Database.from_rows({
    "Route": [(1, 2), (2, 3), (3, 1), (1, 3)],
    "Hub": [(1,), (3,)],
    "Closed": [(2,)],
})

# A plain conjunctive query: destinations reachable from a hub in one hop.
cq = parse_query("Reach(src, dst) :- Hub(src), Route(src, dst).")
print("kind:", cq.kind)
for a in sorted(enumerate_answers(cq, db), key=str):
    print("  answer:", a)

# Single-atom evaluation. Repeated variables select the diagonal and
# constants act as filters. Each solution is a tuple of value indices over
# the atom's sorted variables; the domain maps them back to payloads.
def payloads(query):
    sols = sols_atom(query.conjuncts[0].positive_atoms[0], db)
    return sorted(tuple(db.domain[i].payload for i in row) for row in sols)


print("self loops:", payloads(parse_query("Loop(x) :- Route(x, x).")))
print("edges into 3:", payloads(parse_query("T(x) :- Route(x, 3).")))
print("hops as (dst, src):", payloads(parse_query("H(src, dst) :- Route(src, dst).")))

# Negation: hops that do not end at a closed station.
cqneg = parse_query("Open(src, dst) :- Route(src, dst), !Closed(dst).")
print("kind:", cqneg.kind)
print("open hops:", len(enumerate_answers(cqneg, db)))

# A union: hubs plus closed stations, materialized into one answer relation.
ucq = parse_query("Station(x) :- Hub(x).\nStation(x) :- Closed(x).")
answers = materialize_answers(ucq, db)
print("kind:", ucq.kind, "| union rows:", sorted(answers.payload_rows()))
