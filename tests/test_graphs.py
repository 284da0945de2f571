"""Dual graphs, subcurve bounds, and multidegree enumeration."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

import spinpicard.graphs as graphs
from spinpicard import (
    BlowupConfig,
    BlowupError,
    DomainError,
    DualGraph,
    GraphError,
    GraphTooLargeError,
    Multidegree,
    SpinWitness,
    SplitCurveRow,
    Vertex,
    WitnessError,
    arithmetic_genus,
    basic_inequality,
    boundary_case,
    contract,
    decide_spin_component,
    enumerate_multidegrees,
    enumerate_spin_multidegrees,
    exceptional_profile,
    expand,
    git_stable,
    git_stable_exhaustive,
    grouped_multidegree,
    is_stable,
    iter_blowup_configs,
    iter_subcurves,
    orbit_closed_check,
    orientation_feasible,
    spin_multidegree,
    spin_parity,
    subcurve_profile,
    validate_graph,
)

SPLIT3 = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
TWO_ELLIPTIC = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 3})


# -- construction and validation --------------------------------------------


def test_vertex_validation():
    with pytest.raises(GraphError):
        Vertex("", 0)
    with pytest.raises(GraphError):
        Vertex("a", -1)
    with pytest.raises(GraphError):
        Vertex("a", 1, 2)  # geometric genus would be negative
    with pytest.raises(GraphError):
        Vertex("a", True)
    assert Vertex("a", 2, 2).self_nodes == 2


def test_graph_rejects_bad_structure():
    with pytest.raises(GraphError, match="at least one vertex"):
        DualGraph([])
    with pytest.raises(GraphError, match="duplicate vertex ids"):
        DualGraph([("a", 0), ("a", 1)])
    with pytest.raises(GraphError, match="unknown vertex"):
        DualGraph([("a", 0)], {("a", "b"): 1})
    with pytest.raises(GraphError, match="self_nodes"):
        DualGraph([("a", 1)], {("a", "a"): 1})
    with pytest.raises(GraphError, match="disconnected"):
        DualGraph([("a", 2), ("b", 2)])
    with pytest.raises(GraphError, match="asymmetric"):
        DualGraph([("a", 0), ("b", 0)], [("a", "b", 1), ("b", "a", 2)])
    with pytest.raises(GraphError, match="duplicate edge"):
        DualGraph([("a", 0), ("b", 0)], [("a", "b", 1), ("b", "a", 1)])
    with pytest.raises(GraphError, match="multiplicity"):
        DualGraph([("a", 0), ("b", 0)], [("a", "b", -1)])


def test_validate_graph_json_form():
    g = validate_graph(
        {
            "vertices": [{"id": "b", "pa": 1}, {"id": "a", "pa": 2, "self_nodes": 1}],
            "edges": [{"u": "a", "v": "b", "multiplicity": 2}],
        }
    )
    assert g.ids == ("a", "b")
    assert g.self_nodes("b") == 0  # omitted field defaults to zero
    assert g.k("a", "b") == g.k("b", "a") == 2
    assert arithmetic_genus(g) == 4


@pytest.mark.parametrize(
    "raw, message",
    [
        ([], "JSON object"),
        ({"vertices": []}, "non-empty"),
        ({"vertices": [{"id": "a"}]}, "required"),
        ({"vertices": [{"id": "a", "pa": 0, "x": 1}]}, "unknown fields"),
        (
            {
                "vertices": [{"id": "a", "pa": 0}, {"id": "b", "pa": 0}],
                "edges": [{"u": "a", "v": "b", "multiplicity": 0}],
            },
            "positive integer",
        ),
        (
            {
                "vertices": [{"id": "a", "pa": 0}, {"id": "b", "pa": 0}],
                "edges": [
                    {"u": "a", "v": "b", "multiplicity": 3},
                    {"u": "b", "v": "a", "multiplicity": 3},
                ],
            },
            "duplicate edge",
        ),
        ({"vertices": [{"id": "a", "pa": 1}], "extra": 1}, "unknown top-level"),
    ],
)
def test_validate_graph_rejects(raw, message):
    with pytest.raises(GraphError, match=message):
        validate_graph(raw)


def test_relabeled():
    g = SPLIT3.relabeled({"C1": "x", "C2": "y"})
    assert g.ids == ("x", "y")
    assert arithmetic_genus(g) == 3 and is_stable(g)
    with pytest.raises(GraphError):
        SPLIT3.relabeled({"C1": "x"})
    with pytest.raises(GraphError):
        SPLIT3.relabeled({"C1": "x", "C2": "x"})


# -- genus and stability -----------------------------------------------------


@pytest.mark.parametrize(
    "graph, genus",
    [
        (SPLIT3, 3),
        (TWO_ELLIPTIC, 4),
        (DualGraph([("a", 2, 1)]), 2),
        (
            DualGraph(
                [("a", 1), ("b", 1), ("c", 1)],
                {("a", "b"): 1, ("b", "c"): 1, ("a", "c"): 1},
            ),
            4,
        ),
    ],
)
def test_arithmetic_genus(graph, genus):
    assert arithmetic_genus(graph) == genus


def test_is_stable():
    assert is_stable(SPLIT3)
    assert not is_stable(DualGraph([("a", 1)]))  # smooth elliptic: 2g - 2 = 0
    assert not is_stable(DualGraph([("a", 1, 1)]))  # nodal rational, no contact
    assert is_stable(DualGraph([("a", 2)]))
    # rational vertex with only two contact points breaks stability
    chain = DualGraph([("a", 2), ("b", 0), ("c", 2)], {("a", "b"): 1, ("b", "c"): 1})
    assert not is_stable(chain)
    bridge = DualGraph([("a", 2), ("b", 0), ("c", 2)], {("a", "b"): 2, ("b", "c"): 1})
    assert is_stable(bridge)


# -- subcurve profiles -------------------------------------------------------


def test_subcurve_profile_split_curve():
    prof = subcurve_profile(SPLIT3, {"C1"}, 42)
    assert prof.genus == 0
    assert prof.contact == 4
    assert prof.lower == 19 and isinstance(prof.lower, Fraction)
    assert prof.upper == 23
    assert prof.degree is None


def test_subcurve_profile_whole_curve_is_tight():
    md = Multidegree.of({"C1": 20, "C2": 22})
    prof = subcurve_profile(SPLIT3, {"C1", "C2"}, 42, md)
    assert prof.contact == 0
    assert prof.lower == prof.upper == 42
    assert prof.degree == 42


def test_subcurve_profile_two_elliptic():
    prof = subcurve_profile(TWO_ELLIPTIC, {"A"}, 63)
    assert prof.genus == 1
    assert prof.contact == 3
    assert prof.lower == 30
    # same graph, shifted total: the bound turns properly fractional
    prof2 = subcurve_profile(TWO_ELLIPTIC, {"A"}, 64)
    assert prof2.lower == Fraction(61, 2)


def test_subcurve_profile_disconnected_subcurve():
    chain = DualGraph(
        [("a", 1), ("b", 1), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2}
    )
    prof = subcurve_profile(chain, {"a", "c"}, 42)
    assert prof.genus == 1  # 1 + 1 + 0 internal - 2 + 1
    assert prof.contact == 4


def test_subcurve_profile_errors():
    with pytest.raises(GraphError):
        subcurve_profile(SPLIT3, set(), 42)
    with pytest.raises(GraphError):
        subcurve_profile(SPLIT3, {"nope"}, 42)
    low = DualGraph([("a", 0), ("b", 0)], {("a", "b"): 2})  # genus 1
    with pytest.raises(DomainError):
        subcurve_profile(low, {"a"}, 10)
    md = Multidegree.of({"C1": 1, "C2": 2})
    with pytest.raises(GraphError, match="does not match d_total"):
        subcurve_profile(SPLIT3, {"C1"}, 42, md)


def test_profile_complementation(quasistable_corpus):
    """k(Y) = k(Y^c) and m(Y) + m(Y^c) + k(Y) = d on every subcurve."""
    for graph in quasistable_corpus[::7]:
        d = 21 * (arithmetic_genus(graph) - 1)
        everything = set(graph.ids)
        for Y in iter_subcurves(graph, proper=True):
            comp = everything - Y
            p = subcurve_profile(graph, Y, d)
            pc = subcurve_profile(graph, comp, d)
            assert p.contact == pc.contact
            assert p.lower + pc.lower + p.contact == d


# -- multidegrees ------------------------------------------------------------


def test_multidegree_basics():
    md = Multidegree.of({"b": 2, "a": 1})
    assert md.items == (("a", 1), ("b", 2))
    assert md.total == 3
    assert md["b"] == 2
    assert md.degree_on({"a"}) == 1
    assert md.values(("b", "a")) == (2, 1)
    with pytest.raises(KeyError):
        md["c"]
    # the O(1) lookup table behind md[...] stays out of eq, hash and repr
    same = Multidegree((("a", 1), ("b", 2)))
    assert md == same and hash(md) == hash(same)
    assert repr(md) == "Multidegree(items=(('a', 1), ('b', 2)))"
    with pytest.raises(GraphError):
        Multidegree((("a", 1), ("a", 2)))
    with pytest.raises(GraphError):
        Multidegree.of({"a": 1.5})
    with pytest.raises(GraphError, match="3 entries but the graph has 2"):
        Multidegree.from_values(SPLIT3, [1, 2, 3])


def test_accessors_reject_unknown_ids():
    q = expand(SPLIT3, BlowupConfig({("C1", "C2"): 2}))
    for call in (lambda: SPLIT3.contact("zz"), lambda: q.contact("zz"), lambda: q.core_contact("zz")):
        with pytest.raises(GraphError, match="unknown vertex id 'zz'"):
            call()
    assert (q.contact("C1"), q.core_contact("C1")) == (4, 2)


@pytest.mark.parametrize("call, argument", [
    (lambda: Multidegree.of(None), "degrees"),
    (lambda: Multidegree(None), "items"),
    (lambda: Multidegree.from_values(SPLIT3, None), "values"),
    (lambda: SPLIT3.relabeled(None), "mapping"),
    (lambda: subcurve_profile(SPLIT3, None, 4), "subcurve"),
    (lambda: exceptional_profile(expand(SPLIT3, BlowupConfig()), None), "subcurve"),
    (lambda: boundary_case(expand(SPLIT3, BlowupConfig({("C1", "C2"): 2})), 10, None), "subcurve"),
], ids=["of", "Multidegree", "from_values", "relabeled", "subcurve_profile",
        "exceptional_profile", "boundary_case"])
def test_none_for_a_table_or_a_subcurve_is_a_graph_error(call, argument):
    """None where a table, a sequence or a subcurve belongs raises GraphError
    naming the argument, not the AttributeError or TypeError of using it."""
    with pytest.raises(GraphError, match=f"^{argument} must .*, got None$"):
        call()


_GENUS5 = DualGraph([("a", 1), ("b", 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1})
_SPIN5 = Multidegree.from_values(_GENUS5, [38, 39, 42])  # total 21 * (5 - 1)


@pytest.mark.parametrize("call, error, message", [
    (lambda: basic_inequality(_GENUS5, _SPIN5, max_vertices="12"), DomainError, "max_vertices"),
    (lambda: enumerate_spin_multidegrees(_GENUS5, 10, max_vertices="x"), DomainError,
     "max_vertices"),
    (lambda: basic_inequality(_GENUS5, _SPIN5, max_vertices=True), DomainError, "max_vertices"),
    (lambda: basic_inequality(_GENUS5, _SPIN5, max_vertices=2.5), DomainError, "max_vertices"),
    (lambda: subcurve_profile(_GENUS5, {"a"}, 2.5), DomainError, "d_total"),
    (lambda: subcurve_profile(_GENUS5, {"a"}, "7"), DomainError, "d_total"),
    (lambda: subcurve_profile(_GENUS5, {"a"}, None), DomainError, "d_total"),
    (lambda: subcurve_profile(_GENUS5, {"a"}, True), DomainError, "d_total"),
    (lambda: enumerate_multidegrees(_GENUS5, True), DomainError, "d_total"),
    (lambda: basic_inequality(_GENUS5, _SPIN5.as_dict()), GraphError, "multidegree"),
    (lambda: subcurve_profile(_GENUS5, {"a"}, 84, _SPIN5.as_dict()), GraphError,
     "multidegree"),
    (lambda: decide_spin_component(_GENUS5, 10, list(_SPIN5.items)), GraphError,
     "multidegree"),
], ids=[
    "bi-cap-str", "locus-cap-str", "bi-cap-bool", "bi-cap-float", "profile-total-float",
    "profile-total-str", "profile-total-none", "profile-total-bool", "enumerate-total-bool",
    "bi-dict", "profile-dict", "decide-list",
])
def test_public_arguments_of_the_wrong_type_raise_library_errors(call, error, message):
    """A cap, a total or a multidegree of the wrong type raises the library's
    error naming the argument, never the TypeError or AttributeError of
    using it, and a bool is no integer here."""
    with pytest.raises(error, match=f"^{message} must be"):
        call()


@pytest.mark.parametrize("call, error, argument", [
    (lambda: spin_multidegree(_GENUS5, 10), GraphError, "q"),
    (lambda: git_stable(_GENUS5, 10), GraphError, "q"),
    (lambda: git_stable_exhaustive(_GENUS5, 10), GraphError, "q"),
    (lambda: orbit_closed_check(_GENUS5, 10), GraphError, "q"),
    (lambda: boundary_case(_GENUS5, 10, {"a"}), GraphError, "q"),
    (lambda: contract(_GENUS5), GraphError, "q"),
    (lambda: exceptional_profile(_GENUS5, {"a"}), GraphError, "q"),
    (lambda: expand(_GENUS5, {}), BlowupError, "config"),
    (lambda: spin_parity(_GENUS5, None), BlowupError, "config"),
    (lambda: grouped_multidegree(_GENUS5, {}, 10), WitnessError, "witness"),
    (lambda: basic_inequality(_GENUS5.to_dict(), _SPIN5), GraphError, "graph"),
    (lambda: decide_spin_component(_GENUS5.to_dict(), 10, _SPIN5), GraphError, "graph"),
    (lambda: next(iter_blowup_configs(_GENUS5.to_dict())), GraphError, "graph"),
    (lambda: enumerate_multidegrees(None, 10), GraphError, "graph"),
    (lambda: enumerate_spin_multidegrees(None, 10), GraphError, "graph"),
    (lambda: subcurve_profile(None, ["a"], 10), GraphError, "graph"),
    (lambda: is_stable(None), GraphError, "graph"),
    (lambda: orientation_feasible(None, {}), GraphError, "pairs"),
    (lambda: orientation_feasible({("a", "b"): "1"}, {"a": 1}), GraphError, "pairs"),
    (lambda: orientation_feasible({("a", "b"): 1}, None), GraphError, "quotas"),
    (lambda: BlowupConfig().validate(None), GraphError, "graph"),
    (lambda: SpinWitness().validate(None), GraphError, "graph"),
    (lambda: SpinWitness().sort_key(None), GraphError, "graph"),
    (lambda: SplitCurveRow("x", 10, 0, 0, 1, 2), WitnessError, "genus"),
    (lambda: _SPIN5.degree_on(["z"]), GraphError, "subcurve"),
], ids=[
    "spin-degree-plain", "git-plain", "git-scan-plain", "orbit-scan-plain", "boundary-plain",
    "contract-plain", "exceptional-plain", "expand-dict", "parity-none", "grouped-dict",
    "bi-graph-dict", "decide-graph-dict", "configs-graph-dict", "enumerate-none",
    "locus-none", "profile-none", "stable-none", "orientation-pairs-none",
    "orientation-count-str", "orientation-quotas-none", "config-validate-none",
    "witness-validate-none", "witness-sort-key-none", "split-row-str", "degree-on-unknown",
])
def test_objects_of_the_wrong_kind_raise_library_errors(call, error, argument):
    """A plain graph where a blow-up model belongs, or an object of the wrong
    kind for a graph, config, witness, pair table or quota table, raises the
    library's error naming the argument, never the AttributeError or
    TypeError of using it."""
    with pytest.raises(error, match=f"^{argument} must "):
        call()


@pytest.mark.parametrize("call, error, message", [
    (lambda: iter_subcurves(None), GraphError, "graph must be a DualGraph"),
    (lambda: iter_subcurves(_GENUS5, max_vertices="x"), DomainError, "max_vertices must be"),
    (lambda: iter_blowup_configs({}), GraphError, "graph must be a DualGraph"),
], ids=["subcurves-none", "subcurves-cap-str", "configs-dict"])
def test_generator_arguments_are_checked_on_the_call(call, error, message):
    """`iter_subcurves` and `iter_blowup_configs` return generators, but
    they check their arguments when called, not on the first ``next()``."""
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_from_values_names_the_first_degree_that_is_no_integer():
    """`Multidegree.from_values` checks only the degrees, the ids being the
    graph's, and names a fault as the validating constructor does."""
    for values, shown in (([21, "x"], "'C2'.*'x'"), ([True, 41], "'C1'.*True"), ([1.5, 2], "'C1'.*1.5")):
        with pytest.raises(GraphError, match=f"^degree of {shown}$"):
            Multidegree.from_values(SPLIT3, values)
    assert Multidegree.from_values(SPLIT3, [21, 21]) == Multidegree((("C2", 21), ("C1", 21)))


def test_multidegree_checks_every_entry_before_sorting():
    """Sorting compares entries, so each one is checked first: a key that is
    not a string, a degree that is not an integer, or an entry that is not
    an (id, degree) pair raises GraphError, not the TypeError or ValueError
    sorting and unpacking would."""
    with pytest.raises(GraphError, match="key must be a non-empty string, got 1"):
        Multidegree(((1, 2), ("a", 3)))
    with pytest.raises(GraphError, match="degree of 'a' must be an integer, got 'x'"):
        Multidegree((("a", 1), ("a", "x")))
    for entry in (("a", 1, 2), ("a",), ["a", 1], "a1"):
        with pytest.raises(GraphError, match=r"must be an \(id, degree\) pair"):
            Multidegree((("b", 1), entry))


def test_trusted_multidegree_equals_validated():
    """Enumeration outputs skip validation; they must be the objects the
    validating constructor builds, in every respect callers can see."""
    graph = DualGraph(
        [("a", 1), ("b", 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1}
    )
    outputs = enumerate_multidegrees(graph, 21 * (graph.genus - 1))
    outputs += enumerate_spin_multidegrees(graph, 10)
    assert outputs
    for md in outputs:
        checked = Multidegree(zip(graph.ids, md.values(graph.ids)))
        assert md == checked and hash(md) == hash(checked)
        assert repr(md) == repr(checked)
        assert [md[v] for v in graph.ids] == [checked[v] for v in graph.ids]
        assert all(type(d) is int for _, d in md.items)
    with pytest.raises(KeyError):
        outputs[0]["z"]


def test_basic_inequality_report():
    ok = basic_inequality(SPLIT3, Multidegree.of({"C1": 21, "C2": 21}))
    assert ok.satisfied and ok.violations == ()
    bad = basic_inequality(SPLIT3, Multidegree.of({"C1": 18, "C2": 24}))
    assert not bad.satisfied
    assert [sorted(v.subcurve) for v in bad.violations] == [["C1"], ["C2"]]
    v = bad.violations[0]
    assert (v.degree, v.lower, v.upper) == (18, 19, 23)
    with pytest.raises(GraphError, match="does not match the graph"):
        basic_inequality(SPLIT3, Multidegree.of({"C1": 42}))


def test_basic_inequality_is_exact():
    # bounds 61/2 <= d <= 67/2 on each vertex: 30 must fail, 31 must pass
    assert not basic_inequality(TWO_ELLIPTIC, Multidegree.of({"A": 30, "B": 34})).satisfied
    assert basic_inequality(TWO_ELLIPTIC, Multidegree.of({"A": 31, "B": 33})).satisfied


def test_enumerate_multidegrees_split_curve():
    found = enumerate_multidegrees(SPLIT3, 42)
    assert [md.values(SPLIT3.ids) for md in found] == [
        (19, 23), (20, 22), (21, 21), (22, 20), (23, 19)
    ]


def test_enumerate_multidegrees_two_elliptic():
    found = enumerate_multidegrees(TWO_ELLIPTIC, 63)
    assert [md.values(TWO_ELLIPTIC.ids) for md in found] == [
        (30, 33), (31, 32), (32, 31), (33, 30)
    ]


def test_enumerate_multidegrees_single_vertex():
    g = DualGraph([("a", 3)])
    found = enumerate_multidegrees(g, 42)
    assert [md.as_dict() for md in found] == [{"a": 42}]


def test_enumerate_multidegrees_rejects():
    unstable = DualGraph([("a", 1)])
    with pytest.raises(DomainError):
        enumerate_multidegrees(unstable, 10)
    with pytest.raises(DomainError):
        enumerate_multidegrees(SPLIT3, "42")


def test_enumeration_builds_no_fraction(monkeypatch):
    """Fraction only at the API edge: both enumeration routes run on integers
    scaled by 2(g - 1).  Triangle with every pair doubled: every contact is
    4, genus 6, 12 spanning trees and 1 + 6 + 12 = 19 weighted forests."""
    def refuse(*args, **kwargs):
        raise AssertionError(f"Fraction{args} built during enumeration")

    graph = DualGraph(
        [("a", 1), ("b", 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 2}
    )
    monkeypatch.setattr(graphs, "Fraction", refuse)
    assert len(enumerate_multidegrees(graph, 21 * 5)) == 19  # spin total
    assert len(enumerate_multidegrees(graph, 8 * 5)) == 19  # 2m(g - 1), contacts even
    assert len(enumerate_multidegrees(graph, 6)) == 12  # gcd(6 - 5, 10) = 1
    assert len(enumerate_spin_multidegrees(graph, 10)) == 19


def test_enumerate_matches_window_bruteforce():
    """Independent oracle: scan a degree window around the boxes and compare."""
    graph = DualGraph(
        [("a", 1), ("b", 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1}
    )
    d = 21 * (arithmetic_genus(graph) - 1)
    expected = set()
    center = d // graph.n
    window = range(center - 12, center + 13)
    for combo in itertools.product(window, repeat=graph.n):
        if sum(combo) != d:
            continue
        md = Multidegree.from_values(graph, combo)
        if basic_inequality(graph, md).satisfied:
            expected.add(combo)
    got = {md.values(graph.ids) for md in enumerate_multidegrees(graph, d)}
    assert got == expected and got


def test_enumerate_output_satisfies_bi(quasistable_corpus):
    for graph in quasistable_corpus[::17]:
        d = 21 * (arithmetic_genus(graph) - 1)
        found = enumerate_multidegrees(graph, d)
        assert found, f"no admissible multidegree on {graph!r}"
        for md in found:
            assert md.total == d
            assert basic_inequality(graph, md).satisfied
        vectors = [md.values(graph.ids) for md in found]
        assert vectors == sorted(vectors)  # lexicographic, no duplicates
        assert len(set(vectors)) == len(vectors)


# -- subcurve iteration and caps ---------------------------------------------


def test_iter_subcurves_counts():
    subs = list(iter_subcurves(SPLIT3))
    assert len(subs) == 3
    assert frozenset({"C1", "C2"}) in subs
    proper = list(iter_subcurves(SPLIT3, proper=True))
    assert len(proper) == 2


def test_subset_cap():
    big = DualGraph(
        [(f"v{i:02d}", 1) for i in range(13)],
        {(f"v{i:02d}", f"v{i+1:02d}"): 1 for i in range(12)},
    )
    with pytest.raises(GraphTooLargeError):
        list(iter_subcurves(big))
    md = Multidegree.of({vid: 2 for vid in big.ids})
    with pytest.raises(GraphTooLargeError):
        basic_inequality(big, md)
    # explicit override lifts the cap
    assert len(list(iter_subcurves(big, max_vertices=13))) == 2**13 - 1


@pytest.mark.parametrize("proper", [False, True])
def test_iter_subcurves_follows_the_bitmask_order(proper):
    """Subcurves come from a table of id tuples over the low bits and the
    high members once per block of it; they must be the bitmask formula's
    sets, in ascending mask order, at every size and across blocks."""
    for n in range(1, 14):
        graph = DualGraph(
            [(f"v{i:02d}", 1) for i in range(n)],
            {(f"v{i:02d}", f"v{i + 1:02d}"): 1 for i in range(n - 1)},
        )
        ids = graph.ids
        top = (1 << n) - 1
        expected = [
            frozenset(ids[i] for i in range(n) if mask >> i & 1)
            for mask in range(1, top + 1)
            if not (proper and mask == top)
        ]
        assert list(iter_subcurves(graph, proper=proper, max_vertices=13)) == expected
    # Lazy past any cap: the first subcurve of a 60-vertex chain costs no 2^n work.
    chain = DualGraph([(f"v{i:02d}", 1) for i in range(60)],
                      {(f"v{i:02d}", f"v{i + 1:02d}"): 1 for i in range(59)})
    assert next(iter_subcurves(chain, proper=proper, max_vertices=60)) == {"v00"}


# -- derived columns ---------------------------------------------------------


def _pair_columns(graph: DualGraph) -> tuple[int, tuple[int, ...]]:
    """Genus and per-vertex contacts summed over ``pairs()``."""
    pairs = list(graph.pairs())
    contacts = tuple(sum(m for u, v, m in pairs if vid in (u, v)) for vid in graph.ids)
    genus = sum(v.pa for v in graph.vertices) + sum(m for _, _, m in pairs) - graph.n + 1
    return genus, contacts


def test_columns_set_on_construction_match_the_pair_formulas(quasistable_corpus):
    checked = 0
    for graph in quasistable_corpus[::5]:
        configs = list(iter_blowup_configs(graph))
        models = [expand(graph, configs[0]), expand(graph, configs[-1])]
        for g in [graph, *models]:
            reversed_ids = dict(zip(g.ids, reversed(g.ids)))
            for copy in (g, g.relabeled(reversed_ids)):
                assert (copy.genus, copy._contacts) == _pair_columns(copy)
                assert copy._contacts == tuple(copy.contact(v) for v in copy.ids)
                checked += 1
    assert checked > 300


def test_decide_builds_neither_the_node_matrix_nor_the_subcurve_table():
    """A 40-cycle of elliptic components, two nodes per link: the witness
    search reads the contact column and the pairs, never the O(n^2) matrix
    (the 2^n subcurve table is gone from the library altogether)."""
    ids = [f"c{i:02d}" for i in range(40)]
    links = {(u, v): 2 for u, v in zip(ids, ids[1:] + ids[:1])}
    graph = DualGraph([(vid, 1) for vid in ids], links)
    t = 10
    # Base degree t * contact on genus-one components, plus one node of each
    # of the vertex's two links.
    md = Multidegree.of({vid: t * 4 + 2 for vid in ids})
    witness = decide_spin_component(graph, t, md)
    assert grouped_multidegree(graph, witness, t) == md
    assert "_matrix" not in vars(graph)
