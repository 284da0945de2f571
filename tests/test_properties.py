"""Property tests for the spin locus and the admissible sets on random
stable graphs of 2-40 vertices.

Components come from random orientations of the nodes, so each one is a fiber
component the spin locus meets.  The graphs are larger than the exhaustive
corpora, and from 13 vertices on past the cap of the subcurve scans; the
checks need no oracle: a witness must reproduce its multidegree, witnesses
must move with the twist, an overloaded vertex must be rejected with a
violated subcurve, the locus must not depend on vertex names, a graph's
pairs must be every joined id pair however its ids are ordered, and the
admissible set must move with the total and, on cycles past the cap, reach
Stanley's forest count.  On random spin blow-up models the rows decoded from
the packed-lane kernel must match the per-mask direct row on every mask, the
kernel's node lanes and exceptional_profile the list node columns.  On random
graphs and blow-up models of 2-16 vertices (spin or not), past the cap, the
subset recurrence on sparse node rows must give the dense-matrix
recurrence's packed integers bit for bit, its lanes the per-mask counts.  On
random witnesses and blow-up configurations, valid or not, the pair-space
grouping and parity
check must match the per-vertex neighbor sums they replaced, errors included,
and blow-up iteration the product of every count range filtered by
spin_parity, on graphs with self-nodes.
A kernel reused across stuck and feasible quotas and settles must answer
as a fresh kernel does.  On random blow-ups at coprime totals, the model
multidegrees with exceptional degree 1 that pass the basic inequality must
be as many as the spanning trees of the graph less the blown nodes.  On
JSON-shaped values the graph, multidegree, blow-up, witness and model
constructors must build a value or raise a library error, `cli.main` on
such files must exit 0, 1 or 2 without a traceback, and on blow-up configs
`BlowupConfig.from_dict` must equal its validating route, config or error.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import tempfile
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinpicard.cli as cli
import spinpicard.quasistable as quasistable
from spin_oracles import (
    box_enumeration,
    dense_subset_lanes,
    greedy_witness,
    named_violation,
    neighbor_sum_grouped,
    neighbor_sum_odd_vertex,
    node_columns,
    node_matrix,
    product_blowup_configs,
    stratum_trees,
    subcurve_table,
)
from spinpicard import (
    BasicInequalityError,
    BlowupConfig,
    DualGraph,
    Multidegree,
    QuasistableGraph,
    SpinPicardError,
    SpinWitness,
    Vertex,
    decide_spin_component,
    enumerate_multidegrees,
    enumerate_spin_multidegrees,
    exceptional_profile,
    expand,
    grouped_multidegree,
    iter_blowup_configs,
    iter_subcurves,
    spin_multidegree,
    spin_parity,
    subcurve_profile,
    validate_graph,
)
from spinpicard.graphs import _lane_format, _lanes, _mask_numbers, _Orientation, _spin_base
from test_quasistable import config_outcome

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def stable_graphs(draw, max_mult: int = 2, sizes: tuple[int, int] = (5, 12)) -> DualGraph:
    """A connected stable graph of genus >= 3 with a vertex count in ``sizes``:
    a random tree with up to ``max_mult`` nodes per edge, a few extra single
    nodes, and rational components raised to genus one where they would be
    unstable."""
    n = draw(st.integers(*sizes))
    edges = {}
    for i in range(1, n):
        edges[(i, draw(st.integers(0, i - 1)))] = draw(st.integers(1, max_mult))
    extra = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    for u, v in draw(st.lists(extra, max_size=4)):
        if u != v and (u, v) not in edges and (v, u) not in edges:
            edges[(u, v)] = 1
    contact = [0] * n
    for (u, v), m in edges.items():
        contact[u] += m
        contact[v] += m
    pa = [max(p, 1) if contact[i] < 3 else p
          for i, p in enumerate(draw(st.lists(st.integers(0, 2), min_size=n, max_size=n)))]
    genus = sum(pa) + sum(edges.values()) - n + 1
    pa[0] += max(0, 3 - genus)
    names = draw(st.permutations([f"x{i:02d}" for i in range(n)]))
    return DualGraph(
        [(names[i], pa[i]) for i in range(n)],
        {(names[u], names[v]): m for (u, v), m in edges.items()},
    )


@st.composite
def components(draw, sizes: tuple[int, int] = (5, 12)) -> tuple[DualGraph, int, Multidegree]:
    graph = draw(stable_graphs(sizes=sizes))
    t = draw(st.integers(10, 40))
    degrees = {
        v: (2 * t + 1) * (graph.pa(v) - 1) + t * graph.contact(v) for v in graph.ids
    }
    for u, v, k in graph.pairs():
        toward_u = draw(st.integers(0, k))
        degrees[u] += toward_u
        degrees[v] += k - toward_u
    return graph, t, Multidegree.of(degrees)


def _check_witness(case) -> None:
    graph, t, md = case
    witness = decide_spin_component(graph, t, md)
    assert witness is not None
    witness.validate(graph)
    assert grouped_multidegree(graph, witness, t) == md


@PROPERTY_SETTINGS
@given(components())
def test_decide_returns_a_witness_reproducing_the_component(case):
    _check_witness(case)


@PROPERTY_SETTINGS
@given(components(sizes=(13, 40)))
def test_decide_returns_a_witness_past_the_subset_cap(case):
    _check_witness(case)


@PROPERTY_SETTINGS
@given(components(sizes=(5, 40)), st.randoms(use_true_random=False))
def test_an_overloaded_vertex_is_rejected_with_a_violated_subcurve(case, rng):
    """contact(i) + 1 more units on vertex i put it over the top of its
    window; decide must name a subcurve whose window excludes its degree."""
    graph, t, md = case
    i, j = rng.sample(list(graph.ids), 2)
    moved = graph.contact(i) + 1
    overloaded = Multidegree.of({**md.as_dict(), i: md[i] + moved, j: md[j] - moved})
    with pytest.raises(BasicInequalityError) as caught:
        decide_spin_component(graph, t, overloaded)
    subcurve, degree, lower, upper = named_violation(caught.value)
    profile = subcurve_profile(graph, subcurve, overloaded.total, overloaded)
    assert (profile.degree, profile.lower, profile.upper) == (degree, lower, upper)
    assert not profile.lower <= profile.degree <= profile.upper


@PROPERTY_SETTINGS
@given(components(sizes=(13, 40)), st.booleans(), st.randoms(use_true_random=False))
def test_decide_equals_the_greedy_witness_past_the_subset_cap(case, moved, rng):
    """Past the exhaustive oracles' reach, decide equals the witness fixed
    pair by pair from `orientation_feasible` answers.  Where units moved
    between two vertices leave no split, the greedy oracle finds none, and
    decide raises BasicInequalityError naming a subcurve whose profile
    confirms the violation."""
    graph, t, md = case
    if moved:
        i, j = rng.sample(list(graph.ids), 2)
        units = rng.randint(1, graph.contact(i) + 1)
        md = Multidegree.of({**md.as_dict(), i: md[i] + units, j: md[j] - units})
    expected = greedy_witness(graph, t, md)
    if expected is not None:
        assert decide_spin_component(graph, t, md) == expected
        return
    with pytest.raises(BasicInequalityError) as caught:
        decide_spin_component(graph, t, md)
    subcurve, degree, lower, upper = named_violation(caught.value)
    profile = subcurve_profile(graph, subcurve, md.total, md)
    assert (profile.degree, profile.lower, profile.upper) == (degree, lower, upper)
    assert not profile.lower <= profile.degree <= profile.upper


def _rejection(graph: DualGraph, t: int, md: Multidegree) -> str:
    with pytest.raises(BasicInequalityError) as caught:
        decide_spin_component(graph, t, md)
    return str(caught.value)


@PROPERTY_SETTINGS
@given(components(sizes=(3, 12)), st.randoms(use_true_random=False))
def test_a_stuck_walk_reaches_the_same_set_from_every_start(case, rng):
    """When no split meets the quotas, the vertices `meet` reaches are the
    smallest subcurve of largest deficiency, which does not depend on the
    split it starts from; so from random starting splits a[p] in [0, total]
    it reaches the same set, and decide names the same subcurve in the same
    message."""
    graph, t, md = case
    i, j = rng.sample(list(graph.ids), 2)
    moved = rng.randint(1, graph.contact(i) + 1)
    md = Multidegree.of({**md.as_dict(), i: md[i] + moved, j: md[j] - moved})
    quota = [2 * (md[v] - base) for v, base in zip(graph.ids, _spin_base(graph, t))]
    reached = _Orientation.on_graph(graph, 2).meet(quota)
    assume(reached is not None)
    message = _rejection(graph, t, md)
    on_graph = _Orientation.on_graph

    def random_start(cls, graph, units):
        kernel = on_graph(graph, units)
        kernel.a = [rng.randint(0, total) for total in kernel.total]
        return kernel

    with mock.patch.object(_Orientation, "on_graph", classmethod(random_start)):
        for _ in range(5):
            assert _Orientation.on_graph(graph, 2).meet(quota) == reached
            assert _rejection(graph, t, md) == message


def _stuck_quota(kernel: _Orientation, quota: list[int], v: int) -> list[int]:
    """The quota with units moved onto v until v asks for one more unit
    than its pairs hold; where every unit already lies on v's pairs, the
    last unit is added instead, so the total exceeds the units."""
    stuck = list(quota)
    need = 1 + sum(t for ends, t in zip(kernel.ends, kernel.total) if v in ends) - stuck[v]
    for x in range(len(stuck)):
        moved = 0 if x == v else min(stuck[x], need)
        stuck[x] -= moved
        stuck[v] += moved
        need -= moved
    stuck[v] += need
    return stuck


@PROPERTY_SETTINGS
@given(stable_graphs(sizes=(2, 9)), st.randoms(use_true_random=False))
def test_a_reused_kernel_answers_as_a_fresh_one(graph, rng):
    """A kernel keeps one parent list and visit stamp across searches: one
    kernel meeting a stuck quota, then a feasible one, again both, then
    settling every pair, must reach the sets and settle at the values a
    fresh kernel does for each call."""
    def fresh() -> _Orientation:
        return _Orientation.on_graph(graph, 2)

    kernel = fresh()
    feasible = [0] * graph.n
    for (i, j), total in zip(kernel.ends, kernel.total):
        a = rng.randint(0, total)
        feasible[i] += a
        feasible[j] += total - a
    stuck = _stuck_quota(kernel, feasible, rng.randrange(graph.n))
    reached = fresh().meet(stuck)
    assert reached is not None
    for _ in range(2):
        assert kernel.meet(stuck) == reached
        assert kernel.meet(feasible) is None
    settled = fresh()
    assert settled.meet(feasible) is None
    for p, total in enumerate(kernel.total):
        target = rng.randint(0, total)
        assert kernel.settle(p, target) == settled.settle(p, target)
    assert kernel.meet(stuck) == settled.meet(stuck)


@PROPERTY_SETTINGS
@given(components())
def test_witness_moves_with_the_twist(case):
    """At t + 1 every vertex's base degree grows by 2pa - 2 + contact, and
    the multidegree shifted by that much has the same witness."""
    graph, t, md = case
    shifted = Multidegree.of(
        {v: md[v] + 2 * graph.pa(v) - 2 + graph.contact(v) for v in graph.ids}
    )
    assert decide_spin_component(graph, t + 1, shifted) == decide_spin_component(graph, t, md)


@PROPERTY_SETTINGS
@given(stable_graphs(max_mult=1), st.integers(10, 40), st.randoms(use_true_random=False))
def test_locus_is_invariant_under_relabeling(graph, t, rng):
    """The locus holds one vector per in-degree sequence, up to 2^(n+3) of
    them, so its graphs carry single nodes only."""
    names = list(graph.ids)
    rng.shuffle(names)
    mapping = dict(zip(graph.ids, names))
    relabeled = {
        tuple(sorted(md.as_dict().items()))
        for md in enumerate_spin_multidegrees(graph.relabeled(mapping), t)
    }
    mapped = {
        tuple(sorted((mapping[v], d) for v, d in md.as_dict().items()))
        for md in enumerate_spin_multidegrees(graph, t)
    }
    assert relabeled == mapped


@PROPERTY_SETTINGS
@given(stable_graphs(sizes=(2, 40)), st.randoms(use_true_random=False))
def test_pairs_are_every_joined_id_pair_in_order(graph, rng):
    """The builder reads the pairs off the neighbor rows once; they must be
    what a scan of every id pair finds, on the graph and on a relabeling
    that reorders its ids."""
    names = [f"y{i}" for i in range(graph.n)]
    rng.shuffle(names)
    for g in (graph, graph.relabeled(dict(zip(graph.ids, names)))):
        ids = g.ids
        scan = [(u, v, g.k(u, v)) for i, u in enumerate(ids) for v in ids[i + 1:]]
        assert list(g.pairs()) == [(u, v, k) for u, v, k in scan if k]


@PROPERTY_SETTINGS
@given(stable_graphs(sizes=(2, 8)), st.integers(-20, 80))
def test_admissible_set_moves_with_the_total(graph, d):
    """m(Y) grows by w(Y) when the total grows by 2g - 2, where w_i =
    2pa_i - 2 + c_i is additive over the components of Y, so the admissible
    set at d + 2g - 2 is the set at d shifted by w."""
    w = [2 * graph.pa(v) - 2 + graph.contact(v) for v in graph.ids]
    shifted = [
        tuple(x + step for x, step in zip(md.values(graph.ids), w))
        for md in enumerate_multidegrees(graph, d)
    ]
    moved = enumerate_multidegrees(graph, d + 2 * graph.genus - 2)
    assert [md.values(graph.ids) for md in moved] == shifted


@st.composite
def doubled_cycles(draw) -> tuple[DualGraph, list[int]]:
    """A cycle of 13-14 elliptic components, at most two of its pairs joined
    twice, and the node count of each pair."""
    n = draw(st.integers(13, 14))
    doubled = draw(st.sets(st.integers(0, n - 1), max_size=2))
    ids = [f"c{i:02d}" for i in range(n)]
    mult = [2 if i in doubled else 1 for i in range(n)]
    edges = {(ids[i], ids[(i + 1) % n]): mult[i] for i in range(n)}
    return DualGraph([(v, 1) for v in ids], edges), mult


@settings(PROPERTY_SETTINGS, max_examples=6)
@given(doubled_cycles(), st.integers(10, 12), st.randoms(use_true_random=False))
def test_cycle_enumeration_reaches_the_forest_count_past_the_cap(case, t, rng):
    """Every proper subset of a cycle's pairs is a forest, so at the spin
    total the admissible set has prod(1 + k) - prod(k) members (Stanley);
    decide must meet any of them."""
    graph, mult = case
    found = enumerate_multidegrees(
        graph, (2 * t + 1) * (graph.genus - 1), max_vertices=graph.n
    )
    assert len(found) == math.prod(1 + k for k in mult) - math.prod(mult)
    for md in rng.sample(found, 3):
        assert grouped_multidegree(graph, decide_spin_component(graph, t, md), t) == md


@st.composite
def spin_models(draw):
    """A spin blow-up model of at most 12 vertices of a random stable graph
    with 2-5 vertices (self-nodes on some positive-genus components), and a
    twist: 10..30, or 0..9 in unsafe mode."""
    base = draw(stable_graphs(sizes=(2, 5)))
    graph = DualGraph(
        [Vertex(v.id, v.pa, draw(st.integers(0, min(v.pa, 1)))) for v in base.vertices],
        [(u, v, k) for u, v, k in base.pairs()],
    )
    # Leaving an even number of a pair's nodes unblown keeps spin parity.
    even = draw(st.booleans())
    s = {}
    for u, v, k in graph.pairs():
        s[(u, v)] = k - 2 * draw(st.integers(0, k // 2)) if even else draw(st.integers(0, k))
    r = {v.id: draw(st.integers(0, v.self_nodes)) for v in graph.vertices}
    config = BlowupConfig(s, r)
    assume(graph.n + config.total <= 12 and spin_parity(graph, config))
    unsafe = draw(st.booleans())
    t = draw(st.integers(0, 9) if unsafe else st.integers(10, 30))
    return expand(graph, config), t, unsafe


@PROPERTY_SETTINGS
@given(spin_models())
def test_column_rows_match_the_direct_row_on_every_mask(case):
    q, t, unsafe = case
    md = spin_multidegree(q, t, unsafe_t=unsafe)
    # Valid models never fall back to the per-mask rows.
    with mock.patch.object(quasistable, "_mask_counts", side_effect=AssertionError("per-mask rerun")):
        kernel = quasistable._model_lanes(q)
        lane_contact, _, lane_core_contact, twice_inner, twice_outer, _, _ = (
            quasistable._lanes(column, kernel.signs, kernel.width) for column in kernel.columns
        )
        rows = quasistable._table_rows(q, t)
    assert len(rows) == 1 << q.n
    core_contact, core_internal, inner, outer, _ = node_columns(q)
    _, contact, internal = subcurve_table(q)
    # The kernel's k, cc, 2 inner and 2 outer lanes, decoded, are the list
    # tables lane by lane.
    assert (lane_contact, lane_core_contact) == (contact, core_contact), q
    assert (twice_inner, twice_outer) == ([2 * x for x in inner], [2 * x for x in outer]), q
    for mask in range(1, 1 << q.n):
        assert rows[mask] == quasistable._direct_row(q, t, md, mask), (q, t, mask)
        profile = exceptional_profile(q, [v for i, v in enumerate(q.ids) if mask >> i & 1])
        assert (profile.core_contact, profile.core_internal_nodes, profile.internal_nodes) == (
            core_contact[mask], core_internal[mask], internal[mask]
        ), (q, mask)


@st.composite
def recurrence_graphs(draw):
    """A random stable graph of 2-16 vertices, or a blow-up model of at most
    16 vertices of one with 2-8 (self-nodes blown on some positive-genus
    components, spin or not), and one integer per vertex in [-60, 60]."""
    model = draw(st.booleans())
    base = draw(stable_graphs(max_mult=3 if model else 2, sizes=(2, 6) if model else (2, 16)))
    if model:
        base = DualGraph(
            [Vertex(v.id, v.pa, draw(st.integers(0, min(v.pa, 1)))) for v in base.vertices],
            [(u, v, k) for u, v, k in base.pairs()],
        )
        room, s, r = 16 - base.n, {}, {}
        for u, v, k in base.pairs():
            s[(u, v)] = count = min(room, draw(st.integers(0, k)))
            room -= count
        for v in base.vertices:
            r[v.id] = count = min(room, draw(st.integers(0, v.self_nodes)))
            room -= count
        base = expand(base, BlowupConfig(s, r))
    values = draw(st.lists(st.integers(-60, 60), min_size=base.n, max_size=base.n))
    return base, values


@settings(PROPERTY_SETTINGS, max_examples=60)
@given(recurrence_graphs())
def test_sparse_node_rows_match_the_dense_recurrence_on_every_mask(case):
    """`_subset_lanes` on the node rows gives the packed integers the dense
    recurrence gives on the node matrix, bit for bit, and so does a model's
    call on its core rows against the matrix with exceptionals zeroed.  Past
    the cap, raised explicitly, every decoded k(Y) and value-sum lane is the
    per-mask `_mask_numbers` and the plain sum, and on a model `_node_counts`
    is the lane row: cc(Y), (sum of cc_v over Y - cc(Y)) / 2, and the halved
    2 inner and 2 outer lanes of the model kernel."""
    graph, values = case
    contacts = graph._contacts
    width, signs = _lane_format(sum(map(abs, values)) + 2 * sum(contacts), graph.n)
    packed = quasistable._subset_lanes(graph._later, contacts, values, width)
    assert packed == dense_subset_lanes(node_matrix(graph), contacts, values, width), graph
    contact, total = (_lanes(lane, signs, width) for lane in packed)
    subsets = [0]
    for x in values:
        subsets += [y + x for y in subsets]
    lane_rows = None
    if isinstance(graph, QuasistableGraph):
        core_rows, core_contacts, deltas = graph._core_nodes
        core = [vid for vid in graph.ids if vid not in graph.exceptional]
        for weights in (deltas, core_contacts):
            assert quasistable._subset_lanes(core_rows, core_contacts, weights, width) == (
                dense_subset_lanes(node_matrix(graph, core), core_contacts, weights, width)
            ), graph
        core_contact, core_sums = (
            _lanes(lane, signs, width)
            for lane in quasistable._subset_lanes(core_rows, core_contacts, core_contacts, width)
        )
        kernel = quasistable._model_lanes(graph)
        inner, outer = (_lanes(column, kernel.signs, kernel.width) for column in kernel.columns[3:5])
        lane_rows = list(zip(core_contact, core_sums, inner, outer))
    for mask, subcurve in enumerate(iter_subcurves(graph, max_vertices=16), 1):
        assert subcurve == {vid for i, vid in enumerate(graph.ids) if mask >> i & 1}
        assert (contact[mask], total[mask]) == (_mask_numbers(graph, mask)[1], subsets[mask])
        if lane_rows is not None:
            cc, sums, twice_inner, twice_outer = lane_rows[mask]
            assert quasistable._node_counts(graph, mask) == (
                cc, (sums - cc) // 2, twice_inner // 2, twice_outer // 2
            ), (graph, mask)


@st.composite
def blown_tables(draw):
    """A stable graph on 2-6 vertices with self-nodes on some components,
    per-pair blown counts s and shares sigma, self-node counts r, and a
    twist.  The counts keep spin parity, break it at random, or exceed k by
    one; some tables name an unknown vertex, some r exceed the self-nodes,
    and some twists fall below the supported range."""
    base = draw(stable_graphs(sizes=(2, 6)))
    graph = DualGraph(
        [Vertex(v.id, v.pa, draw(st.integers(0, min(v.pa, 1)))) for v in base.vertices],
        [(u, v, k) for u, v, k in base.pairs()],
    )
    mode = draw(st.sampled_from(["even", "any", "over"]))
    s, sigma = {}, {}
    for u, v, k in graph.pairs():
        if mode == "even":
            count = k - 2 * draw(st.integers(0, k // 2))
        else:
            count = draw(st.integers(0, k + (mode == "over")))
        if count:
            s[(u, v)] = count
            sigma[(u, v)] = draw(st.integers(0, count))
    if draw(st.sampled_from(["known"] * 5 + ["unknown"])) == "unknown":
        vid = draw(st.sampled_from(graph.ids))
        s[(vid, "zz")] = sigma[(vid, "zz")] = 1
    r = {v.id: draw(st.sampled_from([*range(v.self_nodes + 1)] * 3 + [v.self_nodes + 1]))
         for v in graph.vertices}
    return graph, s, sigma, r, draw(st.sampled_from([*range(10, 31), 9]))


def _outcome(call):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", call()
    except SpinPicardError as exc:
        return type(exc), str(exc)


def _oracle_parity(graph, config):
    config.validate(graph)
    return neighbor_sum_odd_vertex(graph, config) is None


@PROPERTY_SETTINGS
@given(blown_tables())
def test_pair_space_grouping_matches_the_neighbor_sums(case):
    graph, s, sigma, r, t = case
    witness, config = SpinWitness(s, sigma), BlowupConfig(s, r)
    assert _outcome(lambda: grouped_multidegree(graph, witness, t)) == _outcome(
        lambda: neighbor_sum_grouped(graph, witness, t)
    )
    assert _outcome(lambda: spin_parity(graph, config)) == _outcome(
        lambda: _oracle_parity(graph, config)
    )
    for blown in (witness, config):
        if _outcome(lambda: BlowupConfig(blown._s).validate(graph))[0] == "ok":
            assert quasistable._odd_vertex(graph, blown._s) == neighbor_sum_odd_vertex(graph, blown)


@PROPERTY_SETTINGS
@given(stable_graphs(sizes=(2, 4)), st.data())
def test_blowup_iteration_matches_the_product_then_parity_oracle(base, data):
    graph = DualGraph(
        [Vertex(v.id, v.pa, data.draw(st.integers(0, v.pa))) for v in base.vertices],
        [(u, v, k) for u, v, k in base.pairs()],
    )
    for spin_only in (False, True):
        got = list(iter_blowup_configs(graph, spin_only=spin_only))
        want = list(product_blowup_configs(graph, spin_only=spin_only))
        assert got == want and list(map(repr, got)) == list(map(repr, want)), graph


@PROPERTY_SETTINGS
@given(stable_graphs(sizes=(2, 5)), st.data())
def test_blowup_strata_count_spanning_trees_on_random_graphs(base, data):
    """On a random stable graph, self-nodes on some positive-genus
    components, a random blow-up whose model has at most 9 vertices and a
    random total d with gcd(d - g + 1, 2g - 2) = 1, the model multidegrees
    with every exceptional degree 1 that pass the basic inequality are as
    many as the spanning trees of the graph with the blown nodes removed."""
    graph = DualGraph(
        [Vertex(v.id, v.pa, data.draw(st.integers(0, min(v.pa, 1)))) for v in base.vertices],
        [(u, v, k) for u, v, k in base.pairs()],
    )
    s = {(u, v): data.draw(st.integers(0, k)) for u, v, k in graph.pairs()}
    r = {v.id: data.draw(st.integers(0, v.self_nodes)) for v in graph.vertices}
    config = BlowupConfig(s, r)
    assume(graph.n + config.total <= 9)
    g = graph.genus
    shift = data.draw(st.sampled_from([x for x in range(-60, 61) if math.gcd(x, 2 * g - 2) == 1]))
    q = expand(graph, config)
    found = box_enumeration(q, g - 1 + shift, dict.fromkeys(q.exceptional, 1))
    assert len(found) == stratum_trees(graph, config), (graph.to_dict(), config, shift)


#: Field names of the blow-up, witness and graph JSON forms.
FIELDS = ["s", "r", "u", "v", "vertex", "count", "vertices", "edges", "id", "pa", "multiplicity"]

#: JSON-shaped values: nested None, bool, int, str, list and dict, with the
#: strings drawn from ids and field names so that some values get deep.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 3) | st.sampled_from(["", "a", "b", "ab", *FIELDS]),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["a", "self_nodes", *FIELDS]), inner, max_size=4),
    max_leaves=12,
)


def _as_tuples(value):
    """``value`` with every list a tuple, the way Python callers pass pairs."""
    if isinstance(value, list):
        return tuple(map(_as_tuples, value))
    if isinstance(value, dict):
        return {key: _as_tuples(item) for key, item in value.items()}
    return value


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(json_values, json_values, st.booleans())
def test_blowup_and_witness_inputs_succeed_or_raise_library_errors(first, second, tuples):
    """Whatever JSON-shaped tables they get, the blow-up and witness
    constructors build a value or raise a SpinPicardError, never a bare
    TypeError or ValueError from unpacking, hashing or comparing."""
    if tuples:
        first, second = _as_tuples(first), _as_tuples(second)
    for call in (
        lambda: BlowupConfig.from_dict(first),
        lambda: BlowupConfig(first, second),
        lambda: SpinWitness(first, second),
    ):
        try:
            call()
        except SpinPicardError:
            pass


_config_ids = st.sampled_from(["a", "b", "ab"]) | st.sampled_from(["", None, 1, True, ["a"]])
_config_counts = st.integers(0, 3) | st.sampled_from([-1, True, False, 1.5, "1", None])
_config_arrays = [
    st.lists(entries, max_size=3) | st.lists(entries | json_values, max_size=3)
    | st.none() | st.sampled_from([0, "", {}])
    for entries in (
        st.fixed_dictionaries(
            {"u": _config_ids, "v": _config_ids, "count": _config_counts}, optional={"x": st.none()}
        ),
        st.fixed_dictionaries({"vertex": _config_ids, "count": _config_counts}, optional={"u": _config_ids}),
    )
]
#: Blow-up configs in JSON form, most of them plain or one fault away from it.
config_values = st.fixed_dictionaries(
    {}, optional={"s": _config_arrays[0], "r": _config_arrays[1]}
) | json_values


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(config_values)
def test_the_config_pass_equals_the_validating_route_on_json_shaped_values(raw):
    """`BlowupConfig.from_dict` reads plain JSON in one pass; on any JSON
    value it builds the config the validating route builds, or raises the
    same error with the same message."""
    assert config_outcome(raw) == config_outcome(raw, validating=True)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(json_values, json_values, json_values, json_values, st.booleans())
def test_graph_and_degree_inputs_succeed_or_raise_library_errors(first, second, third, fourth, tuples):
    """Whatever JSON-shaped values they get, the graph parser, the
    multidegree constructors and the blow-up model constructor build a value
    or raise a SpinPicardError."""
    if tuples:
        first, second, third, fourth = map(_as_tuples, (first, second, third, fourth))
    source = DualGraph([("a", 1), ("b", 1)], {("a", "b"): 2})
    for call in (
        lambda: validate_graph(first),
        lambda: Multidegree.of(first),
        lambda: Multidegree(first),
        lambda: QuasistableGraph(
            first, second, exceptional=third, origin=fourth,
            source=source, config=BlowupConfig({("a", "b"): 1}),
        ),
    ):
        try:
            call()
        except SpinPicardError:
            pass


#: Valid graph files with ids "a" and "b", which the JSON-shaped values
#: also draw, so that blow-up files and degree lists reach past the parser.
CLI_GRAPHS = [
    {"vertices": [{"id": "a", "pa": 0}, {"id": "b", "pa": 0}],
     "edges": [{"u": "a", "v": "b", "multiplicity": 4}]},
    {"vertices": [{"id": "a", "pa": 1}, {"id": "b", "pa": 2, "self_nodes": 1}],
     "edges": [{"u": "a", "v": "b", "multiplicity": 2}]},
]

#: Subcommands run on a graph file G, a blow-up file B and a degree list D.
CLI_COMMANDS = [
    ["info", "G"],
    ["bi", "G", "--total", "4", "--multidegree", "D"],
    ["bi", "G", "--total", "4", "--enumerate", "--json"],
    ["spin", "G", "-t", "10", "--blowups", "B", "--json"],
    ["spin", "G", "-t", "10", "--decide", "D"],
    ["spin", "G", "-t", "10", "--locus"],
]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(json_values | st.sampled_from(CLI_GRAPHS), json_values, st.lists(st.integers(-2, 30), max_size=3))
def test_cli_on_json_shaped_files_exits_cleanly(graph, blowups, degrees):
    """Every subcommand that reads files, run in process on JSON-shaped
    graph and blow-up files, exits 0, 1 or 2 and prints no traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        files = {"G": Path(tmp, "g.json"), "B": Path(tmp, "b.json")}
        files["G"].write_text(json.dumps(graph))
        files["B"].write_text(json.dumps(blowups))
        files["D"] = ",".join(map(str, degrees))
        for command in CLI_COMMANDS:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([str(files.get(arg, arg)) for arg in command])
                except SystemExit as exc:
                    code = exc.code
            assert code in (0, 1, 2), (command, code)
            assert "Traceback" not in err.getvalue(), command
