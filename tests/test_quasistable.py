"""Blow-up models: expansion, parity, spin degrees, boundary predicates."""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from types import MappingProxyType
from unittest import mock

import pytest

import spinpicard.quasistable as quasistable
from spin_oracles import neighbor_sum_odd_vertex, product_blowup_configs
from spinpicard import (
    BlowupConfig,
    BlowupError,
    BoundaryCase,
    DomainError,
    DualGraph,
    GraphError,
    Multidegree,
    ParityError,
    QuasistableGraph,
    SpinPicardError,
    arithmetic_genus,
    boundary_case,
    contract,
    exceptional_profile,
    expand,
    git_stable,
    git_stable_exhaustive,
    is_stable,
    iter_blowup_configs,
    iter_subcurves,
    orbit_closed_check,
    spin_multidegree,
    spin_parity,
    subcurve_profile,
)

SPLIT3 = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
TWO_ELLIPTIC = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 3})


def blown_split(s: int) -> QuasistableGraph:
    return expand(SPLIT3, BlowupConfig({("C1", "C2"): s}))


# -- expansion ---------------------------------------------------------------


def test_expand_split_curve_fully():
    q = blown_split(4)
    assert q.n == 6
    assert len(q.exceptional) == 4
    assert q.k("C1", "C2") == 0  # no direct nodes remain
    assert arithmetic_genus(q) == 3
    for eid in q.exceptional:
        assert q.pa(eid) == 0 and q.contact(eid) == 2
        assert set(q.neighbors(eid)) == {"C1", "C2"}
    assert q.core_ids == ("C1", "C2")
    assert q.source == SPLIT3


def test_expand_zero_config_is_identity():
    q = expand(SPLIT3, BlowupConfig())
    assert q.exceptional == frozenset()
    assert q == SPLIT3
    assert contract(q) == SPLIT3


def test_expand_self_node():
    g = DualGraph([("X", 2, 1)])
    q = expand(g, BlowupConfig(r={"X": 1}))
    assert q.n == 2
    assert q.pa("X") == 1 and q.self_nodes("X") == 0
    (eid,) = q.exceptional
    assert q.k(eid, "X") == 2
    assert arithmetic_genus(q) == 2
    assert contract(q) == g


def test_expand_preserves_genus_everywhere(quasistable_corpus):
    for graph in quasistable_corpus[::13]:
        for config in iter_blowup_configs(graph):
            q = expand(graph, config)
            assert arithmetic_genus(q) == arithmetic_genus(graph)
            assert len(q.exceptional) == config.total
            assert contract(q) == graph


def test_blowup_config_validation():
    with pytest.raises(BlowupError, match="exceeds"):
        expand(SPLIT3, BlowupConfig({("C1", "C2"): 5}))
    with pytest.raises(BlowupError, match="exceeds"):
        expand(SPLIT3, BlowupConfig(r={"C1": 1}))
    with pytest.raises(BlowupError, match="non-negative"):
        BlowupConfig({("C1", "C2"): -1})
    with pytest.raises(BlowupError, match="duplicate"):
        BlowupConfig([(("a", "b"), 1), (("b", "a"), 2)])
    with pytest.raises(BlowupError, match="self-nodes"):
        BlowupConfig({("a", "a"): 1})
    with pytest.raises(SpinPicardError):
        expand(SPLIT3, BlowupConfig({("C1", "zzz"): 1}))


def test_a_pair_key_is_a_two_tuple_of_ids():
    """A two-character string is no pair key: it used to unpack as one, so
    ``{"ab": 1}`` was taken for ``{("a", "b"): 1}``; nor is a list, nor a
    tuple of any other length."""
    for key in ("ab", ["a", "b"], ("a", "b", "c"), ("a",)):
        with pytest.raises(BlowupError, match="two per pair key"):
            BlowupConfig([(key, 1)])
    with pytest.raises(BlowupError, match=r"^s\['ab'\]: vertex ids must be non-empty strings"):
        BlowupConfig({"ab": 1})


def test_a_blowup_item_that_is_no_pair_names_the_item():
    """Items of s and r are unpacked as (key, count) pairs; a triple, a
    bare string or a number is a BlowupError naming it, not a ValueError
    from the unpacking."""
    with pytest.raises(BlowupError, match=r"^s: \('a', 'b', 1\) is not a \(key, count\) pair"):
        BlowupConfig([("a", "b", 1)])
    with pytest.raises(BlowupError, match=r"^r: \('a', 1, 2\) is not a \(key, count\) pair"):
        BlowupConfig(r=[("a", 1, 2)])
    for table in (5, "ab", True):
        with pytest.raises(BlowupError, match=rf"^s: {table!r} is not a \(key, count\) pair"):
            BlowupConfig(table)


def test_blowup_config_json_form():
    config = BlowupConfig.from_dict(
        {"s": [{"u": "C1", "v": "C2", "count": 2}], "r": []}
    )
    assert config.s("C2", "C1") == 2
    assert config == BlowupConfig({("C2", "C1"): 2})
    assert BlowupConfig.from_dict({}) == BlowupConfig()
    with pytest.raises(BlowupError):
        BlowupConfig.from_dict({"s": [{"u": "a", "count": 1}]})
    with pytest.raises(BlowupError):
        BlowupConfig.from_dict({"oops": []})
    round_tripped = BlowupConfig.from_dict(config.to_dict())
    assert round_tripped == config
    assert BlowupConfig.from_dict({"s": None, "r": None}) == BlowupConfig()


def config_outcome(raw, *, validating: bool = False):
    """What `BlowupConfig.from_dict` makes of ``raw``: the config with its
    repr, hash, JSON form and table orders, or the error's class and
    message.  ``validating`` hands it a mapping that is no dict, which its
    one pass over plain JSON leaves to the checks that name each fault."""
    if validating and type(raw) is dict:
        raw = MappingProxyType(raw)
    try:
        config = BlowupConfig.from_dict(raw)
    except Exception as error:  # compared, class and message, across both routes
        return type(error), str(error)
    return (config, type(config), repr(config), hash(config), config.to_dict(),
            list(config._s.items()), list(config._r.items()))


def _pairs(*entries):
    return {"s": [dict(zip(("u", "v", "count"), entry)) for entry in entries]}


def _hosts(*entries):
    return {"r": [dict(zip(("vertex", "count"), entry)) for entry in entries]}


PLAIN_CONFIGS = [
    {}, {"s": None}, {"r": None}, {"s": None, "r": None}, {"s": [], "r": []},
    _pairs(("C1", "C2", 2)), _pairs(("C2", "C1", 2)), _pairs(("b", "a", 1), ("a", "c", 3)),
    _pairs(("a", "b", 0)), _pairs(("a", "b", 0), ("c", "d", 1)), _pairs(("a", "b", 10**20)),
    {**_pairs(("a", "b", 1)), **_hosts(("x", 1), ("w", 0), ("v", 2))},
]


@pytest.mark.parametrize("raw", PLAIN_CONFIGS)
def test_plain_configs_skip_the_validating_constructor(raw):
    """Plain JSON takes the one pass: no call of the validating constructor."""
    with mock.patch.object(BlowupConfig, "__init__", side_effect=AssertionError("validated")):
        config = BlowupConfig.from_dict(raw)
    assert config_outcome(raw) == config_outcome(raw, validating=True)
    assert config == config_outcome(raw, validating=True)[0]


@pytest.mark.parametrize("raw", [
    *PLAIN_CONFIGS,
    {"s": 0}, {"s": ""}, {"r": 0}, {"r": ""}, {"s": False}, {"s": {}}, {"s": (), "r": []},
    _pairs(("a", "b", True)), _pairs(("a", "b", False)), _pairs(("a", "b", -1)),
    _pairs(("a", "b", 1.5)), _pairs(("a", "b", 1.0)), _pairs(("a", "b", "1")), _pairs(("a", "b", None)),
    _hosts(("a", True)), _hosts(("a", -2)), _hosts(("a", 2.0)), _hosts(("a", None)),
    _pairs(("a", "b", 1), ("a", "b", 1)), _pairs(("a", "b", 1), ("b", "a", 2)),
    _pairs(("a", "b", 0), ("a", "b", 1)), _pairs(("a", "b", 1), ("a", "b", 0)),
    _pairs(("a", "b", 0), ("b", "a", 0)), _hosts(("a", 1), ("a", 1)), _hosts(("a", 0), ("a", 2)),
    _hosts(("a", 2), ("a", 0)), _pairs(("a", "a", 1)), _pairs(("a", "a", 0)),
    {"s": [{"u": "a", "v": "b", "count": 1, "x": 0}]}, {"s": [{"u": "a", "count": 1}]},
    {"s": [{"u": "a", "v": "b"}]}, {"s": [{"u": "a", "v": "b", "x": 1}]},
    {"r": [{"vertex": "a", "count": 1, "u": "b"}]}, {"r": [{"vertex": "a"}]}, {"r": [{"count": 1}]},
    {"r": [{"vertex": "a", "x": 1}]}, {"s": [["a", "b", 1]]}, {"s": [None]}, {"s": [5]}, {"r": ["a"]},
    {"s": [OrderedDict(u="a", v="b", count=1)]}, {"s": [MappingProxyType({"u": "a", "v": "b", "count": 1})]},
    _pairs((1, "b", 1)), _pairs(("a", None, 1)), _pairs(("", "b", 1)), _pairs((["a"], "b", 1)),
    _pairs((True, "b", 1)), _hosts((1, 1)), _hosts(("", 1)), _hosts((None, 0)), _hosts((["a"], 1)),
    {"s": [], "x": 1}, {"x": None}, [], "s", None, 5, OrderedDict(s=[{"u": "a", "v": "b", "count": 1}]),
    {"s": [{"u": "a", "v": "b", "count": 1}], "r": 0}, {"s": [{"u": "a", "count": 1}], "r": 0},
    {"s": [{"u": "a", "v": "a", "count": 1}], "r": [{"vertex": "", "count": 1}]},
])
def test_the_config_pass_equals_the_validating_route(raw):
    """Plain JSON configs parse in one pass to the config the validating
    route builds, equal in repr, hash, JSON form and table order; anything
    off plain raises the same error with the same message on both routes.
    Only a null or absent array counts as empty."""
    assert config_outcome(raw) == config_outcome(raw, validating=True)
    assert config_outcome({"s": 0})[1] == "'s' must be an array"


def test_the_config_must_match_the_origin_table():
    """Two nodes of the split curve blown up, recorded by the origin table,
    with a config blowing up none, and a self-node blown up the same way:
    `expand(q.source, q.config)` would rebuild another model."""
    twice = expand(SPLIT3, BlowupConfig({("C1", "C2"): 2}))
    once_self = expand(DualGraph([("X", 2, 1)]), BlowupConfig(r={"X": 1}))
    for q in (twice, once_self):
        data = [(v.id, v.pa, v.self_nodes) for v in q.vertices], list(q.pairs())
        fields = {"exceptional": q.exceptional, "origin": q.origin, "source": q.source}
        assert QuasistableGraph(*data, **fields, config=q.config) == q
        with pytest.raises(GraphError, match="config does not match the origin table"):
            QuasistableGraph(*data, **fields, config=BlowupConfig())
        with pytest.raises(RuntimeError, match="config does not match the origin table"):
            QuasistableGraph._trusted(q.vertices, q._adjacency, **fields, config=BlowupConfig())


def test_quasistable_invariants_rejected():
    # an "exceptional" vertex with three contact points is not exceptional
    with pytest.raises(GraphError, match="exactly 2"):
        QuasistableGraph(
            [("a", 0), ("b", 0), ("e", 0)],
            {("a", "b"): 3, ("e", "a"): 2, ("e", "b"): 1},
            exceptional=["e"],
            origin={"e": ("pair", "a", "b")},
            source=DualGraph([("a", 0), ("b", 0)], {("a", "b"): 4}),
            config=BlowupConfig({("a", "b"): 1}),
        )
    # contraction check: wrong source graph
    with pytest.raises(GraphError, match="recover the source"):
        QuasistableGraph(
            [("a", 0), ("b", 0), ("e", 0)],
            {("a", "b"): 3, ("e", "a"): 1, ("e", "b"): 1},
            exceptional=["e"],
            origin={"e": ("pair", "a", "b")},
            source=DualGraph([("a", 0), ("b", 0)], {("a", "b"): 5}),
            config=BlowupConfig({("a", "b"): 1}),
        )


@pytest.mark.parametrize(
    "origin", [("pair", "a"), ("bogus",), ("self",), None, (), ("pair", "a", ["b"])]
)
def test_a_malformed_origin_is_a_graph_error(origin):
    """An origin that is no ("pair", u, v) or ("self", v) of id strings is
    refused as the model's own fault, naming the exceptional vertex, instead
    of escaping as a ValueError or TypeError from the contraction check."""
    with pytest.raises(GraphError, match=r"^origin of 'e' must be \('pair', u, v\)"):
        QuasistableGraph(
            [("a", 0), ("b", 0), ("e", 0)],
            {("a", "b"): 3, ("e", "a"): 1, ("e", "b"): 1},
            exceptional=["e"],
            origin={"e": origin},
            source=DualGraph([("a", 0), ("b", 0)], {("a", "b"): 4}),
            config=BlowupConfig({("a", "b"): 1}),
        )


# -- parity ------------------------------------------------------------------


def test_spin_parity_examples():
    assert spin_parity(SPLIT3, BlowupConfig({("C1", "C2"): 4}))
    assert spin_parity(SPLIT3, BlowupConfig({("C1", "C2"): 2}))
    assert not spin_parity(SPLIT3, BlowupConfig({("C1", "C2"): 1}))
    assert spin_parity(TWO_ELLIPTIC, BlowupConfig({("A", "B"): 3}))
    assert not spin_parity(TWO_ELLIPTIC, BlowupConfig())


def test_spin_parity_blowing_everything_always_works(quasistable_corpus):
    for graph in quasistable_corpus[::11]:
        config = BlowupConfig(
            {(u, v): m for u, v, m in graph.pairs()},
            {v.id: v.self_nodes for v in graph.vertices if v.self_nodes},
        )
        assert spin_parity(graph, config)


def test_iteration_matches_the_product_then_parity_oracle(quasistable_corpus):
    """Configs come in the oracle's order, equal to its configs, although
    iteration builds each in range and filters on its pair counts alone: it
    runs neither the validating constructor nor the checks."""
    cases = [(graph, spin_only) for graph in quasistable_corpus for spin_only in (False, True)]
    want = [list(product_blowup_configs(graph, spin_only=so)) for graph, so in cases]
    refuse = mock.Mock(side_effect=AssertionError("config checked again"))
    with mock.patch.object(BlowupConfig, "__init__", refuse), \
            mock.patch.object(BlowupConfig, "validate", refuse), \
            mock.patch.object(quasistable, "spin_parity", refuse):
        got = [list(iter_blowup_configs(graph, spin_only=so)) for graph, so in cases]
    refuse.assert_not_called()
    for case, configs, expected in zip(cases, got, want):
        assert configs == expected and list(map(repr, configs)) == list(map(repr, expected)), case
    assert sum(map(len, got)) > 10_000


def test_spin_parity_ignores_self_blowups():
    g = DualGraph([("a", 2, 2), ("b", 1)], {("a", "b"): 2})
    for r_a in range(3):
        assert spin_parity(g, BlowupConfig(r={"a": r_a}))
        assert not spin_parity(g, BlowupConfig({("a", "b"): 1}, {"a": r_a}))


# -- spin multidegrees -------------------------------------------------------


def test_spin_multidegree_split_curve():
    md = spin_multidegree(blown_split(4), 10)
    assert md["C1"] == md["C2"] == 19
    assert md.total == 42
    assert all(md[eid] == 1 for eid in blown_split(4).exceptional)


def test_spin_multidegree_smooth_curve():
    q = expand(DualGraph([("a", 3)]), BlowupConfig())
    assert spin_multidegree(q, 10).as_dict() == {"a": 42}


def test_spin_multidegree_partial_blowup():
    q = expand(TWO_ELLIPTIC, BlowupConfig({("A", "B"): 1}))
    md = spin_multidegree(q, 10)
    assert md["A"] == md["B"] == 31
    assert md.total == 63


def test_spin_multidegree_parity_error():
    q = expand(SPLIT3, BlowupConfig({("C1", "C2"): 1}))
    with pytest.raises(ParityError):
        spin_multidegree(q, 10)


def test_parity_error_names_the_neighbor_sum_oracles_vertex(quasistable_corpus):
    odd = 0
    for graph in quasistable_corpus[::3]:
        for config in iter_blowup_configs(graph):
            found = neighbor_sum_odd_vertex(graph, config)
            if found is None:
                continue
            with pytest.raises(ParityError) as err:
                spin_multidegree(expand(graph, config), 10)
            assert str(err.value) == (
                f"no spin structure: vertex {found[0]!r} keeps {found[1]} nodes with "
                f"non-exceptional neighbors (odd)"
            )
            odd += 1
    assert odd > 100


def test_spin_multidegree_twist_bound():
    q = blown_split(4)
    with pytest.raises(DomainError, match="at least 10"):
        spin_multidegree(q, 9)
    md = spin_multidegree(q, 0, unsafe_t=True)
    assert md.total == 2  # (2*0+1)(3-1)
    with pytest.raises(DomainError):
        spin_multidegree(q, -1, unsafe_t=True)


def test_spin_multidegree_total_law(quasistable_corpus):
    for graph in quasistable_corpus[::9]:
        expected = 21 * (arithmetic_genus(graph) - 1)
        for config in iter_blowup_configs(graph, spin_only=True):
            assert spin_multidegree(expand(graph, config), 10).total == expected


# -- subcurve bookkeeping ----------------------------------------------------


def test_exceptional_profile_core_only():
    q = blown_split(2)
    prof = exceptional_profile(q, {"C1"})
    assert prof.components == prof.core_components == 1
    assert prof.internal_nodes == prof.core_internal_nodes == 0
    assert prof.core_contact == 2  # the two unblown nodes


def test_exceptional_profile_with_exceptionals():
    q = blown_split(4)
    Y = frozenset({"C1"}) | q.exceptional
    prof = exceptional_profile(q, Y)
    assert prof.components == 5
    assert prof.core_components == 1
    assert prof.internal_nodes == 4
    assert prof.core_internal_nodes == 0
    assert prof.core_contact == 0


def test_degree_offset_matches_exceptional_counts(quasistable_corpus):
    """d(Y) - m(Y) = 2(components - core) - (internal - core_internal) + core_contact/2.

    The degree identity ties the spin multidegree to the exceptional
    bookkeeping on every subcurve; checked in exact arithmetic.
    """
    for graph in quasistable_corpus[::23]:
        d_total = 21 * (arithmetic_genus(graph) - 1)
        for config in iter_blowup_configs(graph, spin_only=True):
            q = expand(graph, config)
            md = spin_multidegree(q, 10)
            for Y in iter_subcurves(q):
                prof = subcurve_profile(q, Y, d_total, md)
                ep = exceptional_profile(q, Y)
                drop = 2 * (ep.components - ep.core_components) - (
                    ep.internal_nodes - ep.core_internal_nodes
                )
                assert prof.degree - prof.lower == drop + Fraction(ep.core_contact, 2)


# -- boundary cases ----------------------------------------------------------


def test_boundary_case_split_curve():
    q = blown_split(4)
    top = boundary_case(q, 10, frozenset({"C1"}) | q.exceptional)
    assert top.at_max and not top.at_min
    assert top.degree == 23 and top.lower == 19
    assert top.outer_exceptionals_avoid_subcurve  # vacuous: none outside
    bottom = boundary_case(q, 10, {"C1"})
    assert bottom.at_min and not bottom.at_max
    assert bottom.degree == 19
    assert bottom.core_contact == 0
    whole = boundary_case(q, 10, set(q.ids))
    assert whole.at_min and whole.at_max


def test_boundary_case_single_exceptional():
    q = blown_split(4)
    eid = sorted(q.exceptional)[0]
    case = boundary_case(q, 10, {eid})
    assert case.at_max and not case.at_min
    assert case.degree == 1 and case.lower == -1 and case.contact == 2


def test_boundary_case_strict_interior():
    q = expand(TWO_ELLIPTIC, BlowupConfig({("A", "B"): 1}))
    case = boundary_case(q, 10, {"A"})
    assert not case.at_min and not case.at_max
    assert case.core_contact == 2


# -- GIT stability and orbit closure ----------------------------------------


def test_trusted_boundary_cases_equal_constructor_built_ones():
    """boundary_case builds its reports from table rows without the checking
    constructor; they must be the objects the constructor builds from the
    same row, in every respect callers can see, and stay frozen."""
    q = expand(TWO_ELLIPTIC, BlowupConfig({("A", "B"): 1}))
    cases = []
    for t in (10, 13):
        spin_multidegree(q, t)
        rows = quasistable._table_rows(q, t)
        for mask, Y in enumerate(iter_subcurves(q), start=1):
            degree, core_contact, inner_ok, outer_ok, at_min, at_max = rows[mask][2]
            profile = subcurve_profile(q, Y, (2 * t + 1) * (q.genus - 1))
            built = BoundaryCase(
                subcurve=Y, degree=degree, lower=profile.lower, contact=profile.contact,
                core_contact=core_contact, at_min=at_min, at_max=at_max,
                inner_exceptionals_avoid_complement=inner_ok,
                outer_exceptionals_avoid_subcurve=outer_ok,
            )
            case = boundary_case(q, t, Y)
            assert case == built and hash(case) == hash(built)
            assert repr(case) == repr(built)
            assert case.upper == built.upper == profile.upper
            assert vars(case) == vars(built)
            assert tuple(vars(case)) == tuple(vars(built)) == BoundaryCase.__match_args__
            with pytest.raises(AttributeError):
                case.at_min = not case.at_min
            with pytest.raises(AttributeError):
                del case.degree
            cases.append(case)
    assert len(cases) == 14
    assert any(c.at_min for c in cases) and any(c.at_max for c in cases)


def test_git_stable_examples():
    assert git_stable(expand(SPLIT3, BlowupConfig()), 10)
    assert git_stable(blown_split(2), 10)
    assert not git_stable(blown_split(4), 10)
    # One-vertex graphs of genus 2 or more, unblown (one vertex, no proper
    # subcurve) and with a self-node blown (two vertices), are stable with a
    # closed orbit at every twist.  Models of genus 1 lie outside the domain
    # of all three checks, whatever their number of vertices.
    checks = (git_stable, git_stable_exhaustive, orbit_closed_check)
    for one in (DualGraph([("a", 3, 2)]), DualGraph([("a", 2)]), DualGraph([("a", 5, 1)])):
        for config in [BlowupConfig()] + [BlowupConfig(r={"a": 1})] * (one.self_nodes("a") > 0):
            q = expand(one, config)
            for t in (0, 10, 11):
                assert all(check(q, t, unsafe_t=True) for check in checks), (q, t)
    pair = DualGraph([("a", 0), ("b", 0)], {("a", "b"): 2})
    for q in (
        expand(DualGraph([("a", 1)]), BlowupConfig()),
        expand(DualGraph([("a", 1, 1)]), BlowupConfig(r={"a": 1})),
        expand(pair, BlowupConfig()),
        expand(pair, BlowupConfig({("a", "b"): 2})),
    ):
        assert q.genus == 1
        for check in checks:
            with pytest.raises(DomainError, match="genus >= 2"):
                check(q, 10)


def test_git_stable_matches_oracle_on_samples(quasistable_corpus):
    for graph in quasistable_corpus[::29]:
        for config in iter_blowup_configs(graph, spin_only=True):
            q = expand(graph, config)
            assert git_stable(q, 10) == git_stable_exhaustive(q, 10)


def test_orbit_closed_examples():
    assert orbit_closed_check(expand(SPLIT3, BlowupConfig()), 10)
    assert orbit_closed_check(blown_split(2), 10)
    assert orbit_closed_check(blown_split(4), 10)


def test_git_twist_validation():
    q = blown_split(2)
    with pytest.raises(DomainError):
        git_stable(q, 9)
    assert git_stable(q, 9, unsafe_t=True)


# -- grouping: r cancels out of group degrees --------------------------------


def test_self_blowups_cancel_in_group_degrees():
    g = DualGraph([("a", 2, 2), ("b", 1)], {("a", "b"): 2})
    reference = None
    for r_a in range(3):
        q = expand(g, BlowupConfig({("a", "b"): 2}, {"a": r_a}))
        md = spin_multidegree(q, 10)
        groups = {"a": 0, "b": 0}
        for vid in q.ids:
            if vid in q.exceptional:
                groups[q.origin[vid][1]] += md[vid]  # credit to the first origin vertex
            else:
                groups[vid] += md[vid]
        if reference is None:
            reference = groups
        assert groups == reference
