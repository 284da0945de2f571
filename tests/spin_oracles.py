"""Exhaustive reference routes for the orientation kernel, kept as test oracles.

The library answers every split-existence question, the basic inequality at
any total included, with one orientation kernel.  These are the independent
exhaustive routes it is compared against: the lexicographic sweep over s
tables with a backtracking sigma split, the (s, sigma) sweep that lists every
reachable degree vector, the 2^n subset criterion for splitting pair counts
to meet per-vertex quotas, and multidegree enumeration as every candidate of
the singleton boxes filtered through the basic-inequality scan.  All of them
take exponential time; keep inputs at desk scale.  ``spanning_trees`` is
Kirchhoff's count, which the enumeration must reach at coprime totals and
``stratum_trees`` takes on a graph with a blow-up's nodes removed,
``forest_count`` is Stanley's, which it must reach where the singleton
bounds are integers, ``tuple_sumset`` lists the spin locus as the pair sumset
over tuples, and ``named_violation`` reads back the subcurve a
decide rejection names, for comparison with the scan.  ``neighbor_sum_grouped`` and
``neighbor_sum_odd_vertex`` are the per-vertex neighbor sums the library
replaced by one pass over a witness's pairs, and ``product_blowup_configs``
is blow-up iteration as every candidate of the count ranges, built by the
validating constructor and filtered through ``spin_parity``.
``greedy_witness`` builds the lexicographically smallest witness pair by
pair from `orientation_feasible` answers alone, in polynomial time, so it
reaches graphs past the exhaustive routes without the settle walks decide
runs.
``subcurve_table`` and ``node_columns`` are the per-mask list tables the
blow-up scans read before their packed-lane kernel: genus, contact and
internal nodes of every mask, and a model's core contact, core-internal,
inner nodes and slots, each doubled over the vertices as lists.
``dense_subset_lanes`` is the packed recurrence as the library ran it on the
dense n x n node matrix (``node_matrix``, looked up by id) before it took
sparse node rows: it doubles a cross sum for every later vertex at every step.
"""

from __future__ import annotations

import itertools
import math
import re
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from spinpicard import (
    BasicInequalityError,
    BlowupConfig,
    DomainError,
    DualGraph,
    GraphError,
    Multidegree,
    SpinWitness,
    WitnessError,
    basic_inequality,
    orientation_feasible,
    spin_parity,
    subcurve_profile,
)
from spinpicard.quasistable import check_t

_NAMED = re.compile(r"degree (-?\d+) on Y=\{(.*)\} falls outside \[(\S+), (\S+)\]$")


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _base(graph: DualGraph, t: int) -> dict[str, int]:
    return {
        vid: (2 * t + 1) * (graph.pa(vid) - 1) + t * graph.contact(vid)
        for vid in graph.ids
    }


def _lexmin_split(
    pairs: Sequence[tuple[str, str, int]], need: dict[str, int]
) -> Optional[list[int]]:
    """Smallest (lexicographic over the given pair order) split of each pair's
    count between its endpoints meeting every vertex's quota, or None.

    ``need`` holds per-vertex quotas and is consumed; callers pass a copy.
    """
    capacity = dict.fromkeys(need, 0)
    for u, v, count in pairs:
        capacity[u] += count
        capacity[v] += count
    for vid, quota in need.items():
        if quota < 0 or quota > capacity[vid]:
            return None
    if sum(need.values()) != sum(c for _, _, c in pairs):
        return None

    chosen: list[int] = []

    def descend(idx: int) -> bool:
        if idx == len(pairs):
            return True  # quotas are all zero here: sums match and none is negative
        u, v, count = pairs[idx]
        capacity[u] -= count
        capacity[v] -= count
        for a in range(count + 1):
            b = count - a
            if need[u] - a < 0 or need[v] - b < 0:
                continue
            if need[u] - a > capacity[u] or need[v] - b > capacity[v]:
                continue
            need[u] -= a
            need[v] -= b
            chosen.append(a)
            if descend(idx + 1):
                return True
            chosen.pop()
            need[u] += a
            need[v] += b
        capacity[u] += count
        capacity[v] += count
        return False

    return chosen if descend(0) else None


def subset_feasible(
    pairs: Mapping[tuple, int] | Iterable[tuple], quotas: Mapping[str, int]
) -> bool:
    """Subset criterion for splitting pair counts to meet per-vertex quotas.

    A split exists iff quotas are non-negative, they total the sum of counts,
    and every vertex subset A can absorb the counts of pairs lying inside A:
    sum(quotas over A) >= sum(counts inside A).  Runs over all 2^n subsets.
    """
    table: dict[tuple[str, str], int] = {}
    items = pairs.items() if isinstance(pairs, Mapping) else ((p, c) for *p, c in pairs)
    for key, count in items:
        u, v = key
        table[_pair(u, v)] = table.get(_pair(u, v), 0) + count
    vertices = sorted({x for p in table for x in p} | set(quotas))
    if any(quotas.get(v, 0) < 0 for v in vertices):
        return False
    if sum(quotas.get(v, 0) for v in vertices) != sum(table.values()):
        return False
    index = {v: i for i, v in enumerate(vertices)}
    for mask in range(1, 1 << len(vertices)):
        inside = sum(
            count
            for (u, v), count in table.items()
            if mask >> index[u] & 1 and mask >> index[v] & 1
        )
        quota = sum(
            quotas.get(v, 0) for v in vertices if mask >> index[v] & 1
        )
        if inside > quota:
            return False
    return True


def _parity_feasible_s_tables(graph: DualGraph):
    """Yield (pairs, s values, blown per vertex) lexicographically over every
    s table passing the parity condition; pairs in sorted order."""
    pairs = list(graph.pairs())
    for choice in itertools.product(*(range(k + 1) for _, _, k in pairs)):
        blown = dict.fromkeys(graph.ids, 0)
        for (u, v, _), s_uv in zip(pairs, choice):
            blown[u] += s_uv
            blown[v] += s_uv
        if all((graph.contact(v) - blown[v]) % 2 == 0 for v in graph.ids):
            yield pairs, choice, blown


def lexmin_witness(graph: DualGraph, t: int, multidegree: Multidegree) -> Optional[SpinWitness]:
    """The lexicographically smallest witness (s, then sigma) by sweeping
    every s table and splitting sigma by backtracking, or None."""
    base = _base(graph, t)
    for pairs, choice, blown in _parity_feasible_s_tables(graph):
        need = {}
        for vid in graph.ids:
            quota = multidegree[vid] - base[vid] - (graph.contact(vid) - blown[vid]) // 2
            if quota < 0 or quota > blown[vid]:
                break
            need[vid] = quota
        else:
            blown_pairs = [(u, v, s_uv) for (u, v, _), s_uv in zip(pairs, choice) if s_uv]
            split = _lexmin_split(blown_pairs, need)
            if split is not None:
                return SpinWitness(
                    {(u, v): s_uv for u, v, s_uv in blown_pairs},
                    {(u, v): a for (u, v, _), a in zip(blown_pairs, split)},
                )
    return None


def greedy_witness(graph: DualGraph, t: int, multidegree: Multidegree) -> Optional[SpinWitness]:
    """The lexicographically smallest witness (s, then sigma), or None,
    fixed greedily: in doubled units pair (u, v, k) sends a to u and 2k - a
    to v, with s = |a - k|, and each pair in sorted order takes the a
    nearest k for which `orientation_feasible` still splits the pairs after
    it to the quotas left.  Of a - k = -d and +d the smaller sigma(u, v),
    k - d, comes first, as decide orders them.  No vertex cap."""
    base = _base(graph, t)
    quotas = {vid: 2 * (multidegree[vid] - base[vid]) for vid in graph.ids}
    pairs = list(graph.pairs())
    s, sigma = {}, {}
    for p, (u, v, k) in enumerate(pairs):
        rest = [(x, y, 2 * m) for x, y, m in pairs[p + 1:]]
        for a in sorted(range(2 * k + 1), key=lambda a: (abs(a - k), a)):
            left = {**quotas, u: quotas[u] - a, v: quotas[v] - (2 * k - a)}
            if orientation_feasible(rest, left):
                break
        else:
            return None
        quotas = left
        if a != k:
            s[(u, v)] = abs(a - k)
            sigma[(u, v)], sigma[(v, u)] = max(a - k, 0), max(k - a, 0)
    return SpinWitness(s, sigma)


def swept_locus(graph: DualGraph, t: int) -> list[tuple[int, ...]]:
    """Sorted degree vectors of every (s, sigma) witness, by full sweep."""
    ids = graph.ids
    base = _base(graph, t)
    seen: set[tuple[int, ...]] = set()
    for pairs, choice, blown in _parity_feasible_s_tables(graph):
        start = [base[vid] + (graph.contact(vid) - blown[vid]) // 2 for vid in ids]
        blown_pairs = [(ids.index(u), ids.index(v), s_uv)
                       for (u, v, _), s_uv in zip(pairs, choice) if s_uv]
        for sigma in itertools.product(*(range(s_uv + 1) for _, _, s_uv in blown_pairs)):
            vec = list(start)
            for (i, j, s_uv), a in zip(blown_pairs, sigma):
                vec[i] += a
                vec[j] += s_uv - a
            seen.add(tuple(vec))
    return sorted(seen)


def tuple_sumset(graph: DualGraph, t: int) -> list[tuple[int, ...]]:
    """Sorted spin base plus in-degree vectors of every orientation of the
    node multigraph, grown one pair at a time as a set of tuples."""
    ids = graph.ids
    base = _base(graph, t)
    reached = {tuple(base[vid] for vid in ids)}
    for u, v, k in graph.pairs():
        i, j = ids.index(u), ids.index(v)
        grown = set()
        for vec in reached:
            for a in range(k + 1):
                new = list(vec)
                new[i] += a
                new[j] += k - a
                grown.add(tuple(new))
        reached = grown
    return sorted(reached)


def named_violation(exc: BasicInequalityError) -> tuple[frozenset, int, Fraction, Fraction]:
    """(subcurve, degree, lower, upper) named by a rejection message."""
    match = _NAMED.search(str(exc))
    if match is None:
        raise AssertionError(f"no subcurve named in {str(exc)!r}")
    degree, names, lower, upper = match.groups()
    return frozenset(names.split(", ")), int(degree), Fraction(lower), Fraction(upper)


def box_enumeration(
    graph: DualGraph, d_total: int, fixed: Optional[Mapping[str, int]] = None
) -> list[Multidegree]:
    """Every vector of the singleton boxes [ceil m(v), floor m(v) + k(v)]
    with the right total that passes the subset scan, in lexicographic order:
    the route enumeration took before the orientation kernel decided leaves.
    A vertex in ``fixed`` takes the degree it names instead of its box."""
    boxes = []
    for vid in graph.ids:
        if fixed and vid in fixed:
            boxes.append((fixed[vid],))
            continue
        prof = subcurve_profile(graph, {vid}, d_total)
        boxes.append(range(math.ceil(prof.lower), math.floor(prof.upper) + 1))
    found = []
    for values in itertools.product(*boxes):
        if sum(values) == d_total:
            md = Multidegree.from_values(graph, values)
            if basic_inequality(graph, md, max_vertices=graph.n).satisfied:
                found.append(md)
    return found


def spanning_trees(graph: DualGraph) -> int:
    """Kirchhoff's count of spanning trees, node multiplicities counted: the
    determinant of the Laplacian with its first row and column removed, by
    fraction-free (Bareiss) elimination over the integers."""
    ids = graph.ids
    rows = [
        [graph.contact(u) if u == v else -graph.k(u, v) for v in ids[1:]] for u in ids[1:]
    ]
    size, sign, prev = len(rows), 1, 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if rows[r][col]), None)
        if pivot is None:
            return 0
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            sign = -sign
        for r in range(col + 1, size):
            for c in range(col + 1, size):
                rows[r][c] = (rows[r][c] * rows[col][col] - rows[r][col] * rows[col][c]) // prev
        prev = rows[col][col]
    return sign * prev if size else 1


def stratum_trees(graph: DualGraph, config: BlowupConfig) -> int:
    """``spanning_trees`` of the graph with the config's blown pair nodes
    removed (a blown self-node is a loop, which no tree uses), 0 when that
    graph is disconnected."""
    try:
        rest = DualGraph(
            [(v.id, v.pa) for v in graph.vertices],
            [(u, v, k - config.s(u, v)) for u, v, k in graph.pairs()],
        )
    except GraphError:  # the one fault possible here: a disconnected graph
        return 0
    return spanning_trees(rest)


def forest_count(graph: DualGraph) -> int:
    """Stanley's count of the lattice points of the graphical zonotope, the
    sum of k(u, v) segments [e_u, e_v]: the sum over forests F of the
    underlying simple graph of the product of k(e) over e in F, by brute
    force over every subset of the joined pairs."""
    pairs = list(graph.pairs())
    total = 0
    for chosen in itertools.product((False, True), repeat=len(pairs)):
        root = {vid: vid for vid in graph.ids}

        def find(x: str) -> str:
            while root[x] != x:
                x = root[x]
            return x

        weight = 1
        for (u, v, k), keep in zip(pairs, chosen):
            if keep:
                ru, rv = find(u), find(v)
                if ru == rv:
                    break  # the subset holds a cycle
                root[ru] = rv
                weight *= k
        else:
            total += weight
    return total


def neighbor_sum_odd_vertex(graph: DualGraph, blown) -> Optional[tuple[str, int]]:
    """The first vertex in id order left with an odd number of unblown nodes
    with other components, and that number, summing ``blown.s`` over each
    vertex's neighbors; None when every count is even."""
    for vid in graph.ids:
        left = graph.contact(vid) - sum(blown.s(vid, u) for u in graph.neighbors(vid))
        if left % 2:
            return vid, left
    return None


def neighbor_sum_grouped(
    graph: DualGraph, witness: SpinWitness, t: int, *, unsafe_t: bool = False
) -> Multidegree:
    """`grouped_multidegree` by per-vertex sums over the neighbors, after the
    same checks in the same order, raising the same errors."""
    check_t(t, unsafe_t=unsafe_t)
    if graph.genus < 3:
        raise DomainError(f"spin-locus operations need genus >= 3, got {graph.genus}")
    if not all(2 * v.pa - 2 + graph.contact(v.id) > 0 for v in graph.vertices):
        raise DomainError("spin-locus operations expect a stable graph")
    for u, v, count in witness.s_items():
        if count > graph.k(u, v):
            raise WitnessError(
                f"s[{u}, {v}] = {count} exceeds the {graph.k(u, v)} nodes "
                f"joining {u} and {v}"
            )
    odd = neighbor_sum_odd_vertex(graph, witness)
    if odd:
        raise WitnessError(
            f"parity fails at {odd[0]!r}: {odd[1]} unblown nodes with other "
            f"components (odd)"
        )
    degrees = {}
    for vid, base in _base(graph, t).items():
        blown = sum(witness.s(vid, u) for u in graph.neighbors(vid))
        credited = sum(witness.sigma(vid, u) for u in graph.neighbors(vid))
        degrees[vid] = base + (graph.contact(vid) - blown) // 2 + credited
    return Multidegree.of(degrees)


def product_blowup_configs(graph: DualGraph, *, spin_only: bool = False) -> Iterator[BlowupConfig]:
    """`iter_blowup_configs` as the product of every pair's and every
    self-node host's count range, pairs outermost, each candidate built by
    the validating constructor and, with ``spin_only``, kept when
    ``spin_parity`` holds."""
    pair_keys = [(u, v) for u, v, _ in graph.pairs()]
    pair_ranges = [range(graph.k(u, v) + 1) for u, v in pair_keys]
    self_keys = [v for v in graph.ids if graph.self_nodes(v)]
    self_ranges = [range(graph.self_nodes(v) + 1) for v in self_keys]
    for s_choice in itertools.product(*pair_ranges):
        for r_choice in itertools.product(*self_ranges):
            config = BlowupConfig(dict(zip(pair_keys, s_choice)), dict(zip(self_keys, r_choice)))
            if spin_only and not spin_parity(graph, config):
                continue
            yield config


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Sum of ``values[i]`` over the bits i of every mask, indexed by mask."""
    sums = [0]
    for value in values:
        sums += [x + value for x in sums]
    return sums


def subcurve_table(graph: DualGraph) -> tuple[list[int], list[int], list[int]]:
    """Genus, contact and internal-node count of every subcurve, as three
    lists indexed by bitmask over the id-sorted vertices (entry 0 the empty
    subcurve: genus 1, no nodes).  Masks in [2^h, 2^(h+1)) are the masks
    below 2^h plus vertex h, extended by the nodes joining h to each."""
    ids = graph.ids
    genus, contact, internal = [1], [0], [0]
    for h, vid in enumerate(ids):
        cross = _subset_sums([graph.k(vid, u) for u in ids[:h]])
        pa_step, c_h = graph.pa(vid) - 1, graph.contact(vid)
        genus += [g_y + pa_step + x for g_y, x in zip(genus, cross)]
        contact += [k_y + c_h - 2 * x for k_y, x in zip(contact, cross)]
        internal += [e_y + x for e_y, x in zip(internal, cross)]
    return genus, contact, internal


def node_columns(q) -> tuple[list[int], list[int], list[int], list[int], list[int]]:
    """Core contact, core-internal nodes, inner nodes, outer nodes and
    exceptional slots of every mask of a blow-up model, as lists indexed by
    bitmask, doubled over the id-sorted vertices; outer is the inner column
    of the complement."""
    ids = q.ids
    core_contact, core_internal, inner, slots = [0], [0], [0], [0]
    for h, vid in enumerate(ids):
        row = [q.k(vid, u) for u in ids]
        to_core = [0 if u in q.exceptional else m for u, m in zip(ids, row)]
        c_h = sum(to_core)
        cross = _subset_sums(to_core[:h])
        if vid in q.exceptional:
            inner += [i + c_h - x for i, x in zip(inner, cross)]
            slots += [s + 2 for s in slots]
            core_contact += core_contact
            core_internal += core_internal
        else:
            core_contact += [c + c_h - 2 * x for c, x in zip(core_contact, cross)]
            core_internal += [e + x for e, x in zip(core_internal, cross)]
            cross = _subset_sums([m - c for m, c in zip(row[:h], to_core)])
            inner += [i - x for i, x in zip(inner, cross)]
            slots += slots
    return core_contact, core_internal, inner, inner[::-1], slots


def node_matrix(graph: DualGraph, keep: Optional[Iterable[str]] = None) -> list[list[int]]:
    """k(u, v) for every pair of ids in id order, by lookup; with ``keep``,
    the rows and columns of every other vertex zeroed."""
    ids = graph.ids
    kept = set(ids if keep is None else keep)
    return [[graph.k(u, v) if u in kept and v in kept else 0 for v in ids] for u in ids]


def dense_subset_lanes(matrix: Sequence, contacts: Sequence, values: Sequence, width: int) -> tuple:
    """k(Y) and the sum of ``values`` over Y for every mask Y of the node
    ``matrix`` with row sums ``contacts``, one ``width``-bit lane per mask: the
    doubling recurrence k(Y + h) = k(Y) + c_h - 2 (nodes from h to Y), the
    cross terms of every later vertex doubled alongside as row subset sums."""
    contact, total, across, ones, shift = 0, 0, [0] * len(contacts), 1, width
    for h, (row, c, x) in enumerate(zip(matrix, contacts, values)):
        contact += (contact + c * ones - 2 * across[0]) << shift
        total += (total + x * ones) << shift
        across = [a + ((a + m * ones) << shift) for a, m in zip(across[1:], row[h + 1:])]
        ones |= ones << shift
        shift <<= 1
    return contact, total
