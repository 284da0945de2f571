"""The orientation kernel against the exhaustive routes it replaced.

`decide_spin_component`, `orientation_feasible` and the leaves of
`enumerate_multidegrees` at fractional shifts all run on one augmenting-path
kernel, which `_Orientation.on_graph` builds for a graph (quotas scaled by
2(g-1) in enumeration, by 2 in decide); at integral shifts, and in
`enumerate_spin_multidegrees`, enumeration lists orientations instead.  The
oracles in `spin_oracles` are the exhaustive searches they replaced: the
lexicographic s-table sweep with a backtracking sigma split, the full
(s, sigma) sweep, the 2^n subset criterion, and the singleton boxes filtered
through the basic-inequality scan.  Answers must be equal, witness for witness
and output for output.  The basic-inequality scan is also the oracle for every
rejection, which the stuck walk certifies by naming a violated subcurve.
Kirchhoff's count checks enumeration sizes at coprime totals, Stanley's
forest count at integral shifts, and a sumset over tuples the spin locus.
Quotas off the unit total are refused whether or not a vertex starts over
its quota.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from unittest import mock

import pytest

from spin_oracles import (
    box_enumeration,
    forest_count,
    lexmin_witness,
    named_violation,
    spanning_trees,
    stratum_trees,
    subset_feasible,
    swept_locus,
    tuple_sumset,
)
from spinpicard import (
    BasicInequalityError,
    DualGraph,
    Multidegree,
    basic_inequality,
    decide_spin_component,
    enumerate_multidegrees,
    enumerate_spin_multidegrees,
    expand,
    grouped_multidegree,
    iter_blowup_configs,
    orientation_feasible,
    split_curve_graph,
    subcurve_profile,
)
from spinpicard.graphs import _Orientation, _scaled_lower


def _complete(n: int, m: int) -> DualGraph:
    ids = [f"v{i}" for i in range(n)]
    return DualGraph(
        [(v, 0) for v in ids],
        {(ids[i], ids[j]): m for i in range(n) for j in range(i + 1, n)},
    )


def _cycle(n: int, m: int, pa: int = 0) -> DualGraph:
    ids = [f"c{i:02d}" for i in range(n)]
    return DualGraph([(v, pa) for v in ids], {(ids[i], ids[(i + 1) % n]): m for i in range(n)})


def _random_stable(rng: random.Random) -> DualGraph:
    """A stable graph of genus >= 3 on 4-6 vertices: a random tree with up to
    three nodes per edge plus a few extra pairs."""
    while True:
        n = rng.randint(4, 6)
        ids = [f"w{i}" for i in range(n)]
        edges = {(ids[i], ids[rng.randrange(i)]): rng.randint(1, 3) for i in range(1, n)}
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(ids, 2)
            if (u, v) not in edges and (v, u) not in edges:
                edges[(u, v)] = rng.randint(1, 2)
        contact = dict.fromkeys(ids, 0)
        for (u, v), m in edges.items():
            contact[u] += m
            contact[v] += m
        graph = DualGraph([(v, rng.randint(1 if contact[v] < 3 else 0, 1)) for v in ids], edges)
        if graph.genus >= 3:
            return graph


def _oriented_component(graph: DualGraph, t: int, rng: random.Random) -> Multidegree:
    """The spin base plus the in-degrees of a random orientation of the nodes:
    a fiber component at the spin total (Hakimi)."""
    degrees = {
        v: (2 * t + 1) * (graph.pa(v) - 1) + t * graph.contact(v) for v in graph.ids
    }
    for u, v, k in graph.pairs():
        toward_u = sum(rng.random() < 0.5 for _ in range(k))
        degrees[u] += toward_u
        degrees[v] += k - toward_u
    return Multidegree.of(degrees)


def test_decide_equals_oracle_on_every_corpus_component(spin_corpus):
    checked = blown = 0
    for t in (10, 11):
        for graph in spin_corpus:
            for md in enumerate_multidegrees(graph, (2 * t + 1) * (graph.genus - 1)):
                witness = decide_spin_component(graph, t, md)
                assert witness == lexmin_witness(graph, t, md), (graph, t, md)
                checked += 1
                blown += bool(witness.s_items())
    assert checked > 8000 and blown > checked // 2


def test_decide_equals_oracle_on_complete_and_random_graphs():
    """Larger graphs than the corpus, where a witness may need several
    augmenting paths per pair before it is the smallest."""
    rng = random.Random(20261018)
    cases = [(_complete(4, 2), rng.choice([10, 11, 23])) for _ in range(40)]
    cases += [(_complete(5, 2), rng.choice([10, 11, 23])) for _ in range(12)]
    cases += [(_random_stable(rng), rng.choice([10, 11, 23])) for _ in range(300)]
    for graph, t in cases:
        md = _oriented_component(graph, t, rng)
        assert decide_spin_component(graph, t, md) == lexmin_witness(graph, t, md), (graph, md)


@pytest.mark.parametrize(
    "graph, max_vertices",
    [
        (DualGraph([("a", 3)]), None),
        (split_curve_graph(11), None),
        (DualGraph([("h", 0), ("x", 1), ("y", 1), ("z", 0)],
                   {("h", "x"): 5, ("h", "y"): 4, ("h", "z"): 3, ("y", "z"): 1}), None),
        (_complete(6, 2), None),
        (_cycle(13, 1, pa=1), 13),
    ],
    ids=["one-vertex", "split11", "hub-contact-12", "K6m2", "C13"],
)
def test_enumerate_equals_the_tuple_sumset(graph, max_vertices):
    """The integer-coded sumset lists what the tuple sumset lists, in the
    same order: on one vertex with no pairs, with contacts of 12 (digits of
    radix 13), on K6 with m = 2 (62,683 outputs), and past the subset cap
    with the cap raised."""
    found = enumerate_spin_multidegrees(graph, 10, max_vertices=max_vertices)
    assert [md.values(graph.ids) for md in found] == tuple_sumset(graph, 10)
    assert all(tuple(vid for vid, _ in md.items) == graph.ids for md in found)


def test_enumerate_equals_oracle_sweep(spin_corpus):
    for graph in spin_corpus:
        found = [md.values(graph.ids) for md in enumerate_spin_multidegrees(graph, 10)]
        assert found == swept_locus(graph, 10), graph


def test_orientation_feasible_equals_subset_scan():
    rng = random.Random(20261019)
    names = "abcdef"
    verdicts = set()
    for _ in range(2000):
        n = rng.randint(1, 6)
        pairs = [
            (rng.choice(names[:n]), rng.choice(names[:n]), rng.randint(0, 3))
            for _ in range(rng.randint(0, 8))
        ]
        quotas = {v: 0 for v in names[:n] if rng.random() < 0.9}
        for _ in range(sum(c for *_, c in pairs) + rng.choice([0, 0, 0, -1, 1])):
            if quotas:
                quotas[rng.choice(sorted(quotas))] += 1
        if quotas and rng.random() < 0.05:
            quotas[rng.choice(sorted(quotas))] -= 2
        if rng.random() < 0.5:
            table = {}
            for u, v, c in pairs:
                table[(u, v)] = table.get((u, v), 0) + c
            pairs = table
        verdict = orientation_feasible(pairs, quotas)
        assert verdict == subset_feasible(pairs, quotas), (pairs, quotas)
        verdicts.add(verdict)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "quotas",
    [
        {"a": 1, "b": 2, "c": 2},  # one unit too many, no vertex over its quota
        {"a": 0, "b": 3, "c": 2},  # one unit too many, a over its quota
        {"a": 1, "b": 2, "c": 0},  # one unit short, no vertex under its quota
        {"a": 0, "b": 3, "c": 0},  # one unit short, b under its quota
    ],
    ids=["over-total-none-over", "over-total-one-over", "short-none-under", "short-one-under"],
)
def test_quotas_off_the_unit_total_are_refused(quotas):
    """Quotas that total more or fewer units than the pairs hold have no
    split.  From the starting split (a: 1, b: 2, c: 1) the first case leaves
    no vertex over its quota, so a walk that searched only while some vertex
    was over would accept it."""
    pairs = {("a", "b"): 2, ("b", "c"): 2}
    assert not subset_feasible(pairs, quotas)
    assert not orientation_feasible(pairs, quotas)
    kernel = _Orientation(3, [(0, 1, 2), (1, 2, 2)])
    assert isinstance(kernel.meet([quotas[x] for x in "abc"]), set)


def test_orientation_feasible_refuses_negative_counts():
    """A negative count has no split, even where the subset inequalities,
    read literally, would all hold."""
    pairs = {("a", "b"): -1, ("b", "a"): 1}
    assert subset_feasible(pairs, {"a": 0, "b": 0})
    assert not orientation_feasible(pairs, {"a": 0, "b": 0})


#: Breadth-first searches of every kernel built while deciding each of the 201
#: components of K_4 (m = 2) at t = 10, as measured: 144 in `meet` and 434 in
#: `settle`.  A kernel that searched before moving units along single pairs,
#: and ran a search for every settle off its target, ran 1,496.
K4_DECIDE_SEARCHES = 578


def test_deciding_every_k4_component_runs_few_searches():
    """Work count, independent of the machine: `meet` moves units along
    single pairs before it searches, and a settle that no path can change
    runs no search, so deciding every component of K_4 (m = 2) stays within
    the measured number of searches."""
    graph = _complete(4, 2)
    kernels = []
    on_graph = _Orientation.on_graph

    def counted(cls, graph, units):
        kernels.append(on_graph(graph, units))
        return kernels[-1]

    components = enumerate_spin_multidegrees(graph, 10)
    with mock.patch.object(_Orientation, "on_graph", classmethod(counted)):
        for md in components:
            decide_spin_component(graph, 10, md)
    assert len(components) == len(kernels) == 201
    assert sum(kernel.searches for kernel in kernels) <= K4_DECIDE_SEARCHES


def test_a_settle_no_path_can_change_runs_no_search():
    """Once the other pairs at an end of pair p are settled, no path reaches
    that end, so settling p keeps its units and runs no search, whatever
    the target."""
    kernel = _Orientation.on_graph(_complete(4, 2), 2)
    assert kernel.meet([6, 6, 6, 6]) is None
    for p in (0, 1):  # (v0, v1) and (v0, v2): settled where they stand
        assert kernel.settle(p, kernel.a[p]) == kernel.a[p]
    searches, units = kernel.searches, kernel.a[2]
    assert kernel.ends[2] == (0, 3)
    assert kernel.settle(2, 0 if units else kernel.total[2]) == units
    assert kernel.searches == searches
    # (v2, v3) once (v1, v3) is settled: only its second end is left alone.
    assert kernel.settle(4, kernel.a[4]) == kernel.a[4]
    units = kernel.a[5]
    assert kernel.ends[5] == (2, 3) and kernel.incident[2]
    assert kernel.settle(5, 0 if units else kernel.total[5]) == units
    assert kernel.searches == searches


def test_a_settled_pair_keeps_its_units_in_later_meets():
    """Neither the single-pair moves nor the searches of a later `meet`
    touch a settled pair: its units stay, and quotas that only it could
    meet are refused."""
    kernel = _Orientation(2, [(0, 1, 4)])
    assert kernel.meet([2, 2]) is None
    assert kernel.settle(0, 2) == 2
    assert kernel.meet([3, 1]) == {1}
    assert kernel.a == [2]


def _perturbed(md: Multidegree, rng: random.Random) -> Multidegree:
    """The multidegree with a few units moved between two vertices."""
    degrees = md.as_dict()
    u, v = rng.sample(sorted(degrees), 2)
    moved = rng.randint(1, 6)
    degrees[u] -= moved
    degrees[v] += moved
    return Multidegree.of(degrees)


def _check_certificate(graph: DualGraph, t: int, md: Multidegree, max_vertices=None) -> bool:
    """decide raises exactly when the exhaustive scan finds a violation, and
    then names one of the scan's violations, on its lower side."""
    report = basic_inequality(graph, md, max_vertices=max_vertices)
    try:
        witness = decide_spin_component(graph, t, md)
    except BasicInequalityError as exc:
        named = named_violation(exc)
        found = {(v.subcurve, v.degree, v.lower, v.upper) for v in report.violations}
        assert named in found, (graph, t, md, named)
        assert named[1] < named[2]
        return False
    assert report.satisfied, (graph, t, md)
    assert grouped_multidegree(graph, witness, t) == md
    return True


def test_decide_rejects_exactly_what_the_scan_rejects(spin_corpus):
    rng = random.Random(20261020)
    verdicts = []
    for t in (10, 11):
        for graph in spin_corpus:
            if graph.n < 2:
                continue
            component = _oriented_component(graph, t, rng)
            for _ in range(5):
                verdicts.append(_check_certificate(graph, t, _perturbed(component, rng)))
    assert len(verdicts) >= 4000
    assert verdicts.count(False) > len(verdicts) // 2 and verdicts.count(True) > 100


def _elliptic_chain(n: int) -> DualGraph:
    ids = [f"e{i:02d}" for i in range(n)]
    return DualGraph([(v, 1) for v in ids], {(ids[i], ids[i + 1]): 1 for i in range(n - 1)})


@pytest.mark.parametrize("graph", [_cycle(16, 2), _elliptic_chain(13)], ids=["C16m2", "chain13"])
def test_decide_past_the_subset_cap(graph):
    """Graphs over the 12-vertex cap of the exhaustive scans: decide answers
    without it, and the scan, given a raised cap, agrees."""
    rng = random.Random(20261021)
    for t in (10, 11):
        md = _oriented_component(graph, t, rng)
        witness = decide_spin_component(graph, t, md)
        witness.validate(graph)
        assert grouped_multidegree(graph, witness, t) == md
        violations = 0
        for _ in range(3):
            violations += not _check_certificate(
                graph, t, _perturbed(md, rng), max_vertices=graph.n
            )
        assert violations


# -- the basic inequality at every total -------------------------------------


def _totals(graph: DualGraph) -> list[int]:
    g = graph.genus
    return [*range(-g, 3 * g + 1), 21 * (g - 1), 21 * (g - 1) + 1]


def _integral_shift(graph: DualGraph, d: int) -> bool:
    """Whether every singleton lower bound m(v) is an integer: the side of
    the enumeration's dispatch that lists orientations."""
    return all(subcurve_profile(graph, {v}, d).lower.denominator == 1 for v in graph.ids)


def test_enumeration_equals_the_box_scan_route(quasistable_corpus):
    """Both routes of the enumeration, orientations at integral shifts (spin
    totals and others) and the kernel over the boxes at fractional ones,
    give the box scan's list in its order."""
    outputs = 0
    routes = Counter()
    for graph in quasistable_corpus[::5]:
        half = graph.genus - 1
        for d in _totals(graph):
            found = enumerate_multidegrees(graph, d)
            assert found == box_enumeration(graph, d), (graph, d)
            outputs += len(found)
            if not _integral_shift(graph, d):
                routes["fractional"] += 1
            elif d % (2 * half) == half:
                routes["spin"] += 1
            else:
                routes["integral, not spin"] += 1
    assert outputs > 10000
    assert min(routes["spin"], routes["integral, not spin"], routes["fractional"]) > 50, routes


def test_enumeration_counts_forests_at_integral_shifts(spin_corpus):
    """Stanley: where every m(v) is an integer the admissible set is a
    translate of the graphical zonotope's lattice points, as many as the
    forests weighted by their node counts; so at the spin total, and at
    d = 2m(g - 1) when every contact is even."""
    even = 0
    for graph in spin_corpus:
        forests = forest_count(graph)
        g = graph.genus
        assert len(enumerate_multidegrees(graph, 21 * (g - 1))) == forests, graph
        assert len(enumerate_spin_multidegrees(graph, 10)) == forests, graph
        if all(graph.contact(v) % 2 == 0 for v in graph.ids):
            assert _integral_shift(graph, 6 * (g - 1))
            assert len(enumerate_multidegrees(graph, 6 * (g - 1))) == forests, graph
            even += 1
    assert even > 50


def test_enumeration_counts_spanning_trees_at_coprime_totals(quasistable_corpus):
    """Caporaso: when gcd(d - g + 1, 2g - 2) = 1 the admissible multidegrees
    are as many as the spanning trees."""
    checked = 0
    for graph in quasistable_corpus[::5]:
        g = graph.genus
        trees = spanning_trees(graph)
        for d in _totals(graph):
            if math.gcd(d - g + 1, 2 * g - 2) == 1:
                assert len(enumerate_multidegrees(graph, d)) == trees, (graph, d)
                checked += 1
    assert checked > 1000


def test_blowup_strata_count_spanning_trees_at_coprime_totals(quasistable_corpus):
    """At the total d = g, where gcd(d - g + 1, 2g - 2) = 1, the multidegrees
    of a blow-up model that give every exceptional vertex degree 1 and pass
    the basic inequality are as many as the spanning trees of the graph with
    the blown nodes removed, and none where that graph is disconnected: the
    stratum of the blow-up in Caporaso's fiber.  The equality is the one
    measured on every model of at most 9 vertices of the corpus; the scan on
    models off their spin multidegree is what it checks."""
    cases = disconnected = 0
    for graph in quasistable_corpus[::5]:
        for config in iter_blowup_configs(graph):
            if graph.n + config.total > 9:
                continue
            q = expand(graph, config)
            found = box_enumeration(q, graph.genus, dict.fromkeys(q.exceptional, 1))
            trees = stratum_trees(graph, config)
            assert len(found) == trees, (graph.to_dict(), config)
            cases += 1
            disconnected += not trees
    assert cases > 1500 and 500 < disconnected < cases - 500, (cases, disconnected)


def _random_small_stable(rng: random.Random) -> DualGraph:
    """A stable graph of genus >= 2 on 2-9 vertices: a random tree with up
    to three nodes per edge plus a few extra pairs."""
    while True:
        n = rng.randint(2, 9)
        ids = [f"u{i}" for i in range(n)]
        edges = {(ids[i], ids[rng.randrange(i)]): rng.randint(1, 3) for i in range(1, n)}
        for _ in range(rng.randint(0, 3)):
            u, v = rng.sample(ids, 2)
            if (u, v) not in edges and (v, u) not in edges:
                edges[(u, v)] = rng.randint(1, 2)
        contact = dict.fromkeys(ids, 0)
        for (u, v), m in edges.items():
            contact[u] += m
            contact[v] += m
        pas = [rng.randint(1 if contact[v] < 3 else 0, 2) for v in ids]
        graph = DualGraph(list(zip(ids, pas)), edges)
        if graph.genus >= 2:
            return graph


def _near_center(graph: DualGraph, d: int, rng: random.Random) -> list[int]:
    """A vector of total d near d * w_i / (2g - 2), the middle of the
    singleton windows, with a few units moved between random vertices."""
    w = [2 * graph.pa(v) - 2 + graph.contact(v) for v in graph.ids]
    values = [d * x // (2 * graph.genus - 2) for x in w]
    values[0] += d - sum(values)
    for _ in range(rng.randint(0, 3)):
        i, j = rng.sample(range(graph.n), 2)
        moved = rng.randint(1, 3)
        values[i] += moved
        values[j] -= moved
    return values


def test_kernel_verdict_equals_the_scan_on_random_graphs():
    """One kernel per (graph, total) decides a run of candidates in turn, as
    enumeration does; a stuck walk's reached set lies below its window."""
    rng = random.Random(20261022)
    verdicts = []
    for _ in range(400):
        graph = _random_small_stable(rng)
        g = graph.genus
        d = rng.randint(-g, 6 * g)
        scale = 2 * (g - 1)
        kernel = _Orientation.on_graph(graph, scale)
        lower = [_scaled_lower(d, g, graph.pa(v), graph.contact(v)) for v in graph.ids]
        for _ in range(5):
            values = _near_center(graph, d, rng)
            md = Multidegree.from_values(graph, values)
            stuck = kernel.meet([scale * x - low for x, low in zip(values, lower)])
            assert (stuck is None) == basic_inequality(graph, md).satisfied, (graph, md)
            if stuck is not None:
                reached = [graph.ids[i] for i in stuck]
                profile = subcurve_profile(graph, reached, d, md)
                assert profile.degree < profile.lower, (graph, md, reached)
            verdicts.append(stuck is None)
    assert verdicts.count(True) > 300 and verdicts.count(False) > 300
