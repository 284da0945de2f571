"""Witness search and enumeration for spin-reachable fiber components."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from spinpicard import (
    BasicInequalityError,
    BlowupConfig,
    BlowupError,
    DomainError,
    DualGraph,
    Multidegree,
    SpinWitness,
    SplitCurveRow,
    WitnessError,
    arithmetic_genus,
    basic_inequality,
    decide_spin_component,
    enumerate_spin_multidegrees,
    expand,
    grouped_multidegree,
    iter_blowup_configs,
    orientation_feasible,
    spin_multidegree,
    split_curve_graph,
    split_curve_table,
)
from spin_oracles import _lexmin_split, box_enumeration

SPLIT3 = split_curve_graph(3)
TWO_ELLIPTIC = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 3})
TRIANGLE = DualGraph(
    [("A", 1), ("B", 1), ("C", 1)], {("A", "B"): 1, ("B", "C"): 1, ("A", "C"): 1}
)


# -- witnesses ---------------------------------------------------------------


def test_witness_normalization():
    w = SpinWitness({("C2", "C1"): 4}, {("C1", "C2"): 1})
    assert w.s("C1", "C2") == 4
    assert w.sigma("C1", "C2") == 1
    assert w.sigma("C2", "C1") == 3  # derived from the pair total
    assert w == SpinWitness({("C1", "C2"): 4}, {("C2", "C1"): 3})


def test_witness_rejects():
    with pytest.raises(WitnessError, match="must equal s"):
        SpinWitness({("a", "b"): 2}, {("a", "b"): 1, ("b", "a"): 2})
    with pytest.raises(WitnessError, match="missing"):
        SpinWitness({("a", "b"): 2})
    with pytest.raises(WitnessError, match="s\\[a, b\\] = 0"):
        SpinWitness(None, {("a", "b"): 1})
    with pytest.raises(WitnessError, match="distinct"):
        SpinWitness({("a", "a"): 2})
    with pytest.raises(WitnessError, match="non-negative"):
        SpinWitness({("a", "b"): -1})
    for ids in ((1, "b"), ("a", ""), (("a",), "b")):
        with pytest.raises(WitnessError, match="non-empty strings"):
            SpinWitness({ids: 1}, {ids: 1})


def test_witness_pair_keys_are_checked_in_s_and_sigma():
    """sigma keys pass the same check as s keys: a list id is a WitnessError,
    not a TypeError from hashing it, and a two-character string is refused
    in either table instead of unpacking as a pair."""
    with pytest.raises(WitnessError, match=r"^sigma\[\['a'\], 'b'\]: vertex ids must"):
        SpinWitness({("a", "b"): 1}, [((["a"], "b"), 1)])
    with pytest.raises(WitnessError, match=r"^s\['ab'\]: vertex ids must"):
        SpinWitness({"ab": 1}, {("a", "b"): 1})
    with pytest.raises(WitnessError, match=r"^sigma\['ab'\]: vertex ids must"):
        SpinWitness({("a", "b"): 1}, {"ab": 1})


def test_a_witness_item_that_is_no_pair_names_the_item():
    """sigma items are unpacked as (key, count) pairs like those of s; a
    triple is a WitnessError naming it, not a ValueError."""
    with pytest.raises(WitnessError, match=r"^sigma: \('a', 'b', 1\) is not a \(key, count\) pair"):
        SpinWitness({("a", "b"): 1}, [("a", "b", 1)])
    with pytest.raises(WitnessError, match=r"^sigma: 7 is not a \(key, count\) pair"):
        SpinWitness({("a", "b"): 1}, 7)


def test_witness_validate_against_graph():
    SpinWitness({("C1", "C2"): 2}, {("C1", "C2"): 0}).validate(SPLIT3)
    with pytest.raises(WitnessError, match="exceeds"):
        SpinWitness({("C1", "C2"): 5}, {("C1", "C2"): 0}).validate(SPLIT3)
    with pytest.raises(WitnessError, match="parity"):
        SpinWitness({("C1", "C2"): 1}, {("C1", "C2"): 0}).validate(SPLIT3)


def test_pair_bounds_name_the_first_offending_pair_in_sorted_order():
    """The counts are scanned unsorted, but the error names the first pair
    over its bound in sorted order, however the pairs were given."""
    graph = DualGraph(
        [("a", 1), ("b", 1), ("c", 1), ("d", 1)],
        {("a", "b"): 1, ("b", "c"): 2, ("c", "d"): 1},
    )
    witness = SpinWitness({("c", "d"): 3, ("b", "c"): 2, ("a", "b"): 3},
                          {("c", "d"): 0, ("b", "c"): 0, ("a", "b"): 0})
    assert list(witness._s) == [("c", "d"), ("b", "c"), ("a", "b")]
    with pytest.raises(WitnessError) as caught:
        witness.validate(graph)
    assert str(caught.value) == "s[a, b] = 3 exceeds the 1 nodes joining a and b"
    with pytest.raises(BlowupError, match=r"^s\[a, b\] = 2 exceeds the 1 nodes joining a and b$"):
        expand(graph, BlowupConfig({("d", "c"): 2, ("b", "a"): 2}))


# -- grouped multidegrees ----------------------------------------------------


def test_grouped_multidegree_split_curve():
    lopsided = SpinWitness({("C1", "C2"): 4}, {("C1", "C2"): 0})
    assert grouped_multidegree(SPLIT3, lopsided, 10).as_dict() == {"C1": 19, "C2": 23}
    balanced = SpinWitness()
    assert grouped_multidegree(SPLIT3, balanced, 10).as_dict() == {"C1": 21, "C2": 21}


def test_grouped_multidegree_star_center_takes_all():
    """Blowing every node and crediting every exceptional component to the
    center turns its degree into (2t+1)(pa-1) + (t+1) * contact."""
    star = DualGraph(
        [("hub", 1), ("p", 1), ("q", 1), ("r", 1)],
        {("hub", "p"): 2, ("hub", "q"): 2, ("hub", "r"): 2},
    )
    w = SpinWitness(
        {("hub", "p"): 2, ("hub", "q"): 2, ("hub", "r"): 2},
        {("hub", "p"): 2, ("hub", "q"): 2, ("hub", "r"): 2},
    )
    md = grouped_multidegree(star, w, 10)
    assert md["hub"] == 21 * 0 + 11 * 6
    assert md["p"] == md["q"] == md["r"] == 21 * 0 + 10 * 2
    assert md.total == 21 * (arithmetic_genus(star) - 1)


def test_grouped_equals_blowup_route():
    """Grouping the expanded model's degrees must reproduce the witness form."""
    w = SpinWitness({("C1", "C2"): 2}, {("C1", "C2"): 1})
    q = expand(SPLIT3, BlowupConfig({("C1", "C2"): 2}))
    spin = spin_multidegree(q, 10)
    e1, e2 = sorted(q.exceptional)
    grouped = {
        "C1": spin["C1"] + spin[e1],  # one exceptional credited to each side
        "C2": spin["C2"] + spin[e2],
    }
    assert grouped == grouped_multidegree(SPLIT3, w, 10).as_dict()


# -- decision procedure ------------------------------------------------------


def test_decide_finds_documented_witnesses():
    w = decide_spin_component(SPLIT3, 10, Multidegree.of({"C1": 19, "C2": 23}))
    assert w.s_items() == (("C1", "C2", 4),)
    assert w.sigma("C1", "C2") == 0 and w.sigma("C2", "C1") == 4

    w2 = decide_spin_component(TWO_ELLIPTIC, 10, Multidegree.of({"A": 30, "B": 33}))
    assert w2.s_items() == (("A", "B", 3),)
    assert w2.sigma("A", "B") == 0


def test_decide_prefers_lexicographically_smallest():
    w = decide_spin_component(SPLIT3, 10, Multidegree.of({"C1": 21, "C2": 21}))
    assert w.s_items() == ()  # s = 0 beats s = 2 and s = 4, which also work


def test_decide_rejects_non_components():
    with pytest.raises(BasicInequalityError, match="does not equal"):
        decide_spin_component(SPLIT3, 10, Multidegree.of({"C1": 20, "C2": 20}))
    with pytest.raises(BasicInequalityError, match="not a fiber component"):
        decide_spin_component(SPLIT3, 10, Multidegree.of({"C1": 18, "C2": 24}))
    with pytest.raises(DomainError, match="genus"):
        low = DualGraph([("a", 0), ("b", 0)], {("a", "b"): 3})  # genus 2
        decide_spin_component(low, 10, Multidegree.of({"a": 10, "b": 11}))
    with pytest.raises(DomainError, match="stable"):
        unstable = DualGraph([("a", 0), ("b", 2)], {("a", "b"): 2})
        decide_spin_component(unstable, 10, Multidegree.of({"a": 19, "b": 44}))


def test_decide_agrees_with_enumeration(spin_corpus):
    """At the spin total the enumerated set is every fiber component the
    box scan finds, and decide() gives each a witness that reproduces it."""
    for graph in spin_corpus[::19]:
        t = 10
        d = 21 * (arithmetic_genus(graph) - 1)
        reachable = {
            md.values(graph.ids) for md in enumerate_spin_multidegrees(graph, t)
        }
        components = box_enumeration(graph, d)
        assert {md.values(graph.ids) for md in components} == reachable, graph
        for md in components:
            witness = decide_spin_component(graph, t, md)
            assert grouped_multidegree(graph, witness, t) == md


# -- enumeration -------------------------------------------------------------


def test_enumerate_split_curve():
    found = enumerate_spin_multidegrees(SPLIT3, 10)
    assert [md.values(SPLIT3.ids) for md in found] == [
        (19, 23), (20, 22), (21, 21), (22, 20), (23, 19)
    ]


def test_enumerate_two_elliptic():
    found = enumerate_spin_multidegrees(TWO_ELLIPTIC, 10)
    assert [md.values(TWO_ELLIPTIC.ids) for md in found] == [
        (30, 33), (31, 32), (32, 31), (33, 30)
    ]


def test_enumerate_triangle():
    found = {md.values(TRIANGLE.ids) for md in enumerate_spin_multidegrees(TRIANGLE, 10)}
    assert found == {(21, 21, 21)} | {
        perm
        for perm in {
            (20, 21, 22), (20, 22, 21), (21, 20, 22),
            (21, 22, 20), (22, 20, 21), (22, 21, 20),
        }
    }
    assert len(found) == 7


def test_enumerate_subset_of_fiber_components(spin_corpus):
    for graph in spin_corpus[::31]:
        d = 21 * (arithmetic_genus(graph) - 1)
        admissible = {md.values(graph.ids) for md in box_enumeration(graph, d)}
        for md in enumerate_spin_multidegrees(graph, 10):
            assert md.total == d
            assert md.values(graph.ids) in admissible
            assert basic_inequality(graph, md).satisfied


def test_enumerate_respects_relabeling():
    mapping = {"A": "z", "B": "m", "C": "k"}
    relabeled = TRIANGLE.relabeled(mapping)
    direct = {
        tuple(sorted(md.as_dict().items()))
        for md in enumerate_spin_multidegrees(relabeled, 10)
    }
    mapped = {
        tuple(sorted((mapping[v], deg) for v, deg in md.as_dict().items()))
        for md in enumerate_spin_multidegrees(TRIANGLE, 10)
    }
    assert direct == mapped


def test_blowup_partition_route_matches_witness_route():
    """Independently expand, assign each exceptional component to a side, and
    group degrees; the resulting set must equal the witness enumeration."""
    for graph in (SPLIT3, TWO_ELLIPTIC, TRIANGLE):
        t = 10
        via_partitions = set()
        for config in iter_blowup_configs(graph, spin_only=True):
            q = expand(graph, config)
            md = spin_multidegree(q, t)
            pair_exc = [e for e in sorted(q.exceptional) if q.origin[e][0] == "pair"]
            for bits in range(1 << len(pair_exc)):
                groups = {v: md[v] for v in graph.ids}
                for e in q.exceptional:
                    if q.origin[e][0] == "self":
                        groups[q.origin[e][1]] += md[e]
                for idx, e in enumerate(pair_exc):
                    _, u, v = q.origin[e]
                    groups[u if bits >> idx & 1 else v] += md[e]
                via_partitions.add(tuple(groups[v] for v in graph.ids))
        via_witnesses = {
            md.values(graph.ids) for md in enumerate_spin_multidegrees(graph, t)
        }
        assert via_partitions == via_witnesses


# -- the split-off orientation solver ----------------------------------------


def test_lexmin_split_and_oracle_agree_on_random_instances():
    rng = random.Random(20260814)
    names = ["a", "b", "c", "d"]
    for _ in range(400):
        n = rng.randint(2, 4)
        pairs = []
        for i in range(n):
            for j in range(i + 1, n):
                count = rng.randint(0, 3)
                if count:
                    pairs.append((names[i], names[j], count))
        total = sum(c for _, _, c in pairs)
        quotas = {v: 0 for v in names[:n]}
        for _ in range(total):
            quotas[names[rng.randrange(n)]] += 1
        split = _lexmin_split(pairs, dict(quotas))
        feasible = orientation_feasible(
            {(u, v): c for u, v, c in pairs}, quotas
        )
        assert (split is not None) == feasible
        if split is not None:
            landed = {v: 0 for v in quotas}
            for (u, v, count), a in zip(pairs, split):
                landed[u] += a
                landed[v] += count - a
            assert landed == quotas


def test_orientation_feasibility_known_cases():
    triangle = {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1}
    assert orientation_feasible(triangle, {"a": 1, "b": 1, "c": 1})
    assert orientation_feasible(triangle, {"a": 2, "b": 1, "c": 0})
    # a cannot absorb 3 with only 2 incident nodes
    assert not orientation_feasible(triangle, {"a": 3, "b": 0, "c": 0})
    # wrong total
    assert not orientation_feasible(triangle, {"a": 1, "b": 1, "c": 0})
    assert not orientation_feasible(triangle, {"a": -1, "b": 2, "c": 2})


# -- split curves ------------------------------------------------------------


def test_split_curve_graph_shape():
    g = split_curve_graph(5)
    assert g.ids == ("C1", "C2")
    assert g.pa("C1") == g.pa("C2") == 0
    assert g.k("C1", "C2") == 6
    assert arithmetic_genus(g) == 5
    with pytest.raises(DomainError):
        split_curve_graph(2)


def test_split_curve_table_genus3():
    rows = split_curve_table(3, 10)
    assert sorted({r.s for r in rows}) == [0, 2, 4]
    assert {(r.d1, r.d2) for r in rows} == {
        (19, 23), (20, 22), (21, 21), (22, 20), (23, 19)
    }
    for r in rows:
        assert r.d1 + r.d2 == 42
        assert 0 <= r.sigma <= r.s


def test_split_curve_table_matches_enumerator():
    for genus in (3, 4, 5):
        for t in (10, 11):
            table = {(r.d1, r.d2) for r in split_curve_table(genus, t)}
            graph = split_curve_graph(genus)
            enumerated = {
                md.values(graph.ids)
                for md in enumerate_spin_multidegrees(graph, t)
            }
            assert table == enumerated


def test_split_curve_parity_drives_s_range():
    rows = split_curve_table(4, 10)
    assert sorted({r.s for r in rows}) == [1, 3, 5]  # g + 1 odd: s odd


def test_split_curve_rows_equal_the_rational_closed_form():
    """Rows, in order, against d1 = (t + 1/2)(g+1) - (2t+1) - s/2 + sigma
    evaluated in exact rationals over every s in 0..g+1 of the right parity."""
    for genus in range(3, 41):
        for t in (10, 11, 29):
            expected = []
            for s in range(genus + 2):
                if (genus + 1 - s) % 2:
                    continue
                for sigma in range(s + 1):
                    d1 = Fraction(2 * t + 1, 2) * (genus + 1) - (2 * t + 1) - Fraction(s, 2) + sigma
                    assert d1.denominator == 1
                    d2 = (2 * t + 1) * (genus - 1) - d1
                    expected.append((genus, t, s, sigma, int(d1), int(d2)))
            got = [(r.genus, r.t, r.s, r.sigma, r.d1, r.d2) for r in split_curve_table(genus, t)]
            assert got == expected, (genus, t)


def test_split_curve_row_checks_hand_built_rows():
    SplitCurveRow(genus=3, t=10, s=4, sigma=0, d1=19, d2=23)
    with pytest.raises(WitnessError, match="out of range"):
        SplitCurveRow(genus=3, t=10, s=4, sigma=5, d1=24, d2=18)
    with pytest.raises(WitnessError, match="parity"):
        SplitCurveRow(genus=3, t=10, s=3, sigma=0, d1=19, d2=23)
    with pytest.raises(WitnessError, match="total"):
        SplitCurveRow(genus=3, t=10, s=4, sigma=0, d1=19, d2=24)
