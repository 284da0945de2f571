"""
Where the spin locus meets the fibers
=====================================

Fix a stable curve of genus g >= 3 and a twist t >= 10.  Pushing spin curves
into the degree-(2t+1)(g-1) Picard fiber lands on finitely many irreducible
components, one per multidegree.  Which ones?  A multidegree is reached
exactly when some table (s, sigma) certifies it: s says how many nodes of
each pair of components get blown up, sigma says how the blown nodes' unit
degrees are regrouped onto the two sides.  This script finds witnesses for
single multidegrees, enumerates the full reachable set, and checks the
closed-form answer for split curves against the generic solver.
"""

from spinpicard import (
    DualGraph,
    Multidegree,
    arithmetic_genus,
    decide_spin_component,
    enumerate_multidegrees,
    enumerate_spin_multidegrees,
    split_curve_graph,
    split_curve_table,
)

T = 10

# Start with the split curve of genus 3 and ask for a witness for the most
# lopsided multidegree (19, 23).
split = split_curve_graph(3)
witness = decide_spin_component(split, T, Multidegree.of({"C1": 19, "C2": 23}))
print("witness for (19, 23):")
for u, v, count in witness.s_items():
    print(f"  blow up {count} of the {split.k(u, v)} nodes between {u} and {v}")
for u, v, count in witness.sigma_items():
    print(f"  regroup {count} unit(s) onto {u} from the {u}-{v} nodes")
print()

# The balanced multidegree needs no blowing up at all, and the search returns
# the lexicographically smallest witness, so its table is empty.
balanced = decide_spin_component(split, T, Multidegree.of({"C1": 21, "C2": 21}))
print(f"witness for (21, 21): s = {balanced.s_items()} (nothing to blow up)")
print()

# Enumerate the reachable set on a triangle of elliptic curves and compare it
# with the a-priori admissible set cut out by the basic inequality.
triangle = DualGraph(
    [("a", 1), ("b", 1), ("c", 1)],
    {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1},
)
d = (2 * T + 1) * (arithmetic_genus(triangle) - 1)
admissible = {md.values(triangle.ids) for md in enumerate_multidegrees(triangle, d)}
reached = {md.values(triangle.ids) for md in enumerate_spin_multidegrees(triangle, T)}
print(f"triangle: {len(admissible)} admissible multidegrees, {len(reached)} reached")
print(f"reached = admissible: {reached == admissible}")
for values in sorted(reached):
    print("  " + str(values))
print()

# The two sets coincide on every stable graph: at the spin total the basic
# inequality is Hakimi's orientation condition, so both are the spin base
# plus the in-degree vectors of the node orientations, listed by one route.

# For split curves there is a closed form: with k = g+1 nodes, the reachable
# bidegrees are exactly those produced by s = g+1 mod 2, 0 <= sigma <= s.
print("split curves, closed form vs solver:")
for g in (3, 4, 5):
    graph = split_curve_graph(g)
    table = {(row.d1, row.d2) for row in split_curve_table(g, T)}
    solved = {md.values(graph.ids) for md in enumerate_spin_multidegrees(graph, T)}
    assert table == solved
    print(f"  g = {g}: {len(table)} bidegrees, min d1 = {min(b[0] for b in table)}")
