"""Objects the library builds without re-validation, against the objects its
validating constructors build from the same data.

Every class of `spinpicard` whose instances the library builds through
`graphs._unchecked`, and each graph class that defines a ``_trusted``
builder, has an entry in ``TRUSTED`` (`tests/test_source_rules.py` holds the
library to that).  Each entry yields batches (trusted, validated, view,
layout): two lists of objects built from the same data, a function reading
every accessor callers use, and the positions at which to check the layout.
The objects must agree on ``==``, ``hash``, ``repr``, ``vars`` and the view.  At
the ``layout`` positions of the frozen records the fields, ``__match_args__``,
must lead the instance dict in their order, and assigning or deleting one
must raise ``AttributeError``: every object but split-curve rows, whose
212,040 rows get them on the first row of each table.  Graphs, witnesses
and blow-up configs are no records and have no layout positions.  A
multidegree builds its lookup dict on first use, so one more test looks
trusted ones up before reading them.
"""

from __future__ import annotations

import pytest

import spinpicard.quasistable as quasistable
from conftest import quasistable_graphs, spin_graphs
from spinpicard import (
    BIReport,
    BIViolation,
    BlowupConfig,
    BoundaryCase,
    DualGraph,
    ExceptionalProfile,
    Multidegree,
    QuasistableGraph,
    SpinWitness,
    SplitCurveRow,
    SubcurveProfile,
    Vertex,
    basic_inequality,
    boundary_case,
    contract,
    decide_spin_component,
    enumerate_multidegrees,
    enumerate_spin_multidegrees,
    exceptional_profile,
    expand,
    grouped_multidegree,
    iter_blowup_configs,
    iter_subcurves,
    spin_multidegree,
    split_curve_table,
    subcurve_profile,
    validate_graph,
)


def _multidegrees():
    """Enumeration outputs, at small totals and at 21(g-1), replayed
    witnesses, `Multidegree.from_values` on each, and the spin multidegrees
    of blow-up models at t = 10 and 13, exceptional vertices included;
    every degree an ``int``, an absent id a ``KeyError``.  The validated
    ones come from the constructor, which checks ids as well."""
    graph = DualGraph(
        [("a", 1), ("b", 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1}
    )

    def viewer(ids):
        def view(md):
            types = [type(d) for _, d in md.items]
            missing = pytest.raises(KeyError, md.__getitem__, "z").value.args
            return (
                md.items, md.as_dict(), md.total, md.values(ids), [md[v] for v in ids],
                types, missing,
            )
        return view

    ids = graph.ids
    totals = [*range(-4, 40), 21 * (graph.genus - 1)]
    outputs = [md for d in totals for md in enumerate_multidegrees(graph, d)]
    for md in enumerate_spin_multidegrees(graph, 10):
        outputs += [md, grouped_multidegree(graph, decide_spin_component(graph, 10, md), 10)]
    outputs += [Multidegree.from_values(graph, md.values(ids)) for md in outputs]
    validated = [Multidegree(zip(ids, md.values(ids))) for md in outputs]
    yield outputs, validated, viewer(ids), range(len(outputs))

    models = [expand(graph, config) for config in iter_blowup_configs(graph, spin_only=True)]
    for source in quasistable_graphs()[::50]:
        models += [expand(source, config) for config in iter_blowup_configs(source, spin_only=True)]
    assert any(origin[0] == "self" for q in models for origin in q.origin.values())
    assert any(origin[0] == "pair" for q in models for origin in q.origin.values())
    for q in models:
        outputs = [spin_multidegree(q, t) for t in (10, 13)]
        validated = [Multidegree(zip(q.ids, md.values(q.ids))) for md in outputs]
        yield outputs, validated, viewer(q.ids), range(len(outputs))


def _boundary_cases():
    """Every subcurve of two elliptic curves meeting in three nodes, one of
    them blown up, and of the most blown-up spin model of every hundredth
    small corpus graph, at t = 10 and 13; ``upper`` is the profile's, and
    the cases reach both ends of their windows."""
    two_elliptic = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 3})
    models = [expand(two_elliptic, BlowupConfig({("A", "B"): 1}))]
    for graph in quasistable_graphs()[::100]:
        models.append(expand(graph, [*iter_blowup_configs(graph, spin_only=True)][-1]))
    cases = []
    for q in models:
        for t in (10, 13):
            spin_multidegree(q, t)
            rows = quasistable._table_rows(q, t)
            trusted, validated = [], []
            for mask, Y in enumerate(iter_subcurves(q), start=1):
                degree, core_contact, inner_ok, outer_ok, at_min, at_max = rows[mask][2]
                profile = subcurve_profile(q, Y, (2 * t + 1) * (q.genus - 1))
                trusted.append(boundary_case(q, t, Y))
                validated.append(BoundaryCase(
                    subcurve=Y, degree=degree, lower=profile.lower, contact=profile.contact,
                    core_contact=core_contact, at_min=at_min, at_max=at_max,
                    inner_exceptionals_avoid_complement=inner_ok,
                    outer_exceptionals_avoid_subcurve=outer_ok,
                ))
                assert trusted[-1].upper == profile.upper
            cases += trusted
            yield trusted, validated, lambda case: case.upper, range(len(trusted))
    assert any(c.at_min for c in cases) and any(c.at_max for c in cases)


def _violations():
    """The violations of lopsided multidegrees on every tenth spin corpus
    graph: all of the total, 4(g - 1) or -(g - 1), on one vertex, or each
    vertex's contact with alternating signs.  The validated ones come from
    the subcurve profile of every subcurve, in mask order, whose degree
    leaves its window."""
    for graph in spin_graphs()[::10]:
        g, ids = graph.genus, graph.ids
        tables = [[0] * (graph.n - 1) + [4 * (g - 1)], [-(g - 1)] + [0] * (graph.n - 1)]
        tables.append([graph.contact(v) * (-1) ** i for i, v in enumerate(ids)])
        for values in tables:
            md = Multidegree.from_values(graph, values)
            trusted = list(basic_inequality(graph, md).violations)
            profiles = [subcurve_profile(graph, Y, md.total, md) for Y in iter_subcurves(graph)]
            validated = [
                BIViolation(subcurve=p.subcurve, degree=p.degree, lower=p.lower, upper=p.upper)
                for p in profiles if not p.lower <= p.degree <= p.upper
            ]
            yield trusted, validated, lambda v: v.upper - v.lower, range(len(trusted))


def _reports():
    """Basic-inequality reports on every tenth spin corpus graph: the spin
    multidegrees at t = 10 (satisfied, a blow-up model's from its lanes)
    and lopsided ones (violated)."""
    for graph in spin_graphs()[::10]:
        g = graph.genus
        mds = enumerate_spin_multidegrees(graph, 10)[:3]
        mds.append(Multidegree.from_values(graph, [0] * (graph.n - 1) + [4 * (g - 1)]))
        models = [expand(graph, config) for config in iter_blowup_configs(graph, spin_only=True)]
        trusted = [basic_inequality(graph, md) for md in mds]
        trusted += [basic_inequality(q, spin_multidegree(q, 10)) for q in models[-3:]]
        validated = [BIReport(r.satisfied, r.violations) for r in trusted]
        assert any(r.satisfied for r in trusted) and not all(r.satisfied for r in trusted)
        yield trusted, validated, lambda r: (r.satisfied, r.violations), range(len(trusted))


def _profiles():
    """The profile of every subcurve of every tenth spin corpus graph, with
    and without a multidegree, against the constructor on the same data
    (the genus and contact from the subcurve's members)."""
    for graph in spin_graphs()[::10]:
        d_total = 21 * (graph.genus - 1)
        md = enumerate_spin_multidegrees(graph, 10)[0]
        trusted, validated = [], []
        for Y in iter_subcurves(graph):
            internal = sum(m for u, v, m in graph.pairs() if u in Y and v in Y)
            genus = sum(graph.pa(v) - 1 for v in Y) + internal + 1
            contact = sum(graph.contact(v) for v in Y) - 2 * internal
            for multidegree in (None, md):
                trusted.append(subcurve_profile(graph, Y, d_total, multidegree))
                lower = trusted[-1].lower
                degree = None if multidegree is None else md.degree_on(Y)
                validated.append(SubcurveProfile(Y, genus, contact, lower, degree))
        yield trusted, validated, lambda p: p.upper, range(len(trusted))


def _exceptional_profiles():
    """The exceptional profile of every subcurve of the most blown-up spin
    model of every hundredth small corpus graph, against the constructor
    with the component counts taken from the subcurve's members."""
    for graph in quasistable_graphs()[::100]:
        q = expand(graph, [*iter_blowup_configs(graph, spin_only=True)][-1])
        trusted = [exceptional_profile(q, Y) for Y in iter_subcurves(q)]
        validated = [
            ExceptionalProfile(
                p.subcurve, len(p.subcurve), len(p.subcurve - q.exceptional),
                p.internal_nodes, p.core_internal_nodes, p.core_contact,
            )
            for p in trusted
        ]
        yield trusted, validated, lambda p: (), range(len(trusted))


def _witnesses():
    """Every witness decide returns on the spin corpus at t = 10, rebuilt
    from its public tables by the validating constructor."""
    for graph in spin_graphs():
        pairs = [(u, v) for u, v, _ in graph.pairs()]

        def view(w, graph=graph, pairs=pairs):
            return (
                w.to_dict(), w.s_items(), w.sigma_items(), w.sort_key(graph),
                [(w.s(u, v), w.sigma(u, v), w.sigma(v, u)) for u, v in pairs],
            )

        trusted = [decide_spin_component(graph, 10, md)
                   for md in enumerate_spin_multidegrees(graph, 10)]
        validated = [
            SpinWitness(
                {(u, v): c for u, v, c in w.s_items()},
                {(u, v): c for u, v, c in w.sigma_items()},
            )
            for w in trusted
        ]
        yield trusted, validated, view, ()


def _configs():
    """Every blow-up configuration of every tenth small corpus graph,
    self-node counts included, and its JSON form read back by the one pass
    of `BlowupConfig.from_dict`, each rebuilt from its public tables by the
    validating constructor."""
    configs = []
    for graph in quasistable_graphs()[::10]:
        trusted = list(iter_blowup_configs(graph))
        validated = [
            BlowupConfig({(u, v): c for u, v, c in config.s_items()}, dict(config.r_items()))
            for config in trusted
        ]

        def view(c, graph=graph):
            return (
                c.to_dict(), c.s_items(), c.r_items(), c.total,
                [c.s(u, v) for u, v, _ in graph.pairs()], [c.r(v) for v in graph.ids],
            )

        configs += trusted
        yield trusted, validated, view, ()
        yield [BlowupConfig.from_dict(c.to_dict()) for c in trusted], validated, view, ()
    assert any(c.r_items() for c in configs) and any(c.s_items() for c in configs)


def _split_rows():
    """Every split-curve row for genus 3..40 and t in 0..30, each of which
    must pass the validating constructor."""
    for genus in range(3, 41):
        for t in range(31):
            rows = split_curve_table(genus, t, unsafe_t=True)
            validated = [SplitCurveRow(**vars(row)) for row in rows]
            yield rows, validated, lambda row: (), [0]


def _graph_view(graph):
    return graph.ids, graph.vertices, list(graph.pairs()), graph._contacts, graph.genus


def _reversed_names(graph):
    """A relabeling that reverses the id order, so the builder must sort."""
    return {vid: f"v{graph.n - i:02d}" for i, vid in enumerate(graph.ids)}


def _graphs():
    """Every fiftieth small corpus graph read from its JSON form, the
    contractions of all its blow-up models, and relabelings of it and of its
    most blown-up model, each against the validating constructor on the
    source's data (renamed for the relabelings)."""
    for source in quasistable_graphs()[::50]:
        models = [expand(source, config) for config in iter_blowup_configs(source)]
        data = [(v.id, v.pa, v.self_nodes) for v in source.vertices], list(source.pairs())
        trusted = [validate_graph(source.to_dict())] + [contract(q) for q in models]
        validated = [DualGraph(*data) for _ in trusted]
        for graph in (source, models[-1]):
            mapping = _reversed_names(graph)
            trusted.append(graph.relabeled(mapping))
            validated.append(DualGraph(
                [(mapping[v.id], v.pa, v.self_nodes) for v in graph.vertices],
                [(mapping[u], mapping[v], m) for u, v, m in graph.pairs()],
            ))
        yield trusted, validated, _graph_view, ()


def _models():
    """The model of every blow-up configuration of every fiftieth small
    corpus graph, self-node blow-ups included."""
    models = []
    for source in quasistable_graphs()[::50]:
        trusted = [expand(source, config) for config in iter_blowup_configs(source)]
        validated = [
            QuasistableGraph(
                [(v.id, v.pa, v.self_nodes) for v in q.vertices], list(q.pairs()),
                exceptional=sorted(q.exceptional), origin=q.origin, source=source,
                config=q.config,
            )
            for q in trusted
        ]

        def view(q):
            return *_graph_view(q), q.exceptional, q.origin, q.core_ids

        models += trusted
        yield trusted, validated, view, ()
    assert any(origin[0] == "self" for q in models for origin in q.origin.values())
    assert any(origin[0] == "pair" for q in models for origin in q.origin.values())


def _vertices():
    """The vertices of graphs read from JSON, of blow-up models (exceptional
    and with self-nodes blown) and of their contractions."""
    for source in quasistable_graphs()[::50]:
        models = [expand(source, config) for config in iter_blowup_configs(source)]
        graphs = [validate_graph(source.to_dict()), *models, *map(contract, models)]
        trusted = [v for graph in graphs for v in graph.vertices]
        validated = [Vertex(v.id, v.pa, v.self_nodes) for v in trusted]
        yield trusted, validated, lambda v: (v.id, v.pa, v.self_nodes), range(len(trusted))


TRUSTED = {
    "BIReport": _reports,
    "BIViolation": _violations,
    "BlowupConfig": _configs,
    "BoundaryCase": _boundary_cases,
    "DualGraph": _graphs,
    "ExceptionalProfile": _exceptional_profiles,
    "Multidegree": _multidegrees,
    "QuasistableGraph": _models,
    "SpinWitness": _witnesses,
    "SplitCurveRow": _split_rows,
    "SubcurveProfile": _profiles,
    "Vertex": _vertices,
}


@pytest.mark.parametrize("name", sorted(TRUSTED))
def test_trusted_instances_equal_validated_ones(name):
    count = 0
    for trusted, validated, view, layout in TRUSTED[name]():
        assert {type(x).__name__ for x in trusted + validated} == {name}
        assert trusted == validated
        assert [hash(x) for x in trusted] == [hash(x) for x in validated]
        assert [repr(x) for x in trusted] == [repr(x) for x in validated]
        assert [vars(x) for x in trusted] == [vars(x) for x in validated]
        assert [view(x) for x in trusted] == [view(x) for x in validated]
        for i in layout:
            fields = type(trusted[i]).__match_args__
            for x in (trusted[i], validated[i]):
                assert tuple(vars(x))[:len(fields)] == fields
            for field in fields:
                with pytest.raises(AttributeError):
                    setattr(trusted[i], field, None)
                with pytest.raises(AttributeError):
                    delattr(trusted[i], field)
        count += len(trusted)
    assert count >= 100


def test_a_lazily_looked_up_multidegree_matches_the_validated_one():
    """A multidegree builds its id-to-degree dict on the first lookup: the
    trusted outputs of an enumeration, looked up in another order first and
    only then read, answer as the validating constructor's objects do."""
    graph = DualGraph(
        [("a", 1), ("b", 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2, ("a", "c"): 1}
    )
    ids = graph.ids
    trusted = enumerate_spin_multidegrees(graph, 10)
    validated = [Multidegree.of(dict(md.items)) for md in trusted]
    assert [vars(md) for md in trusted] == [vars(md) for md in validated]
    assert {tuple(vars(md)) for md in trusted} == {("items",)}
    for lazy, checked in zip(trusted, validated):
        assert lazy.values(ids[::-1]) == checked.values(ids[::-1])
        assert [lazy[v] for v in ids] == [checked[v] for v in ids]
        assert lazy.values(ids) == checked.values(ids)
        assert lazy.degree_on(ids[1:]) == checked.degree_on(ids[1:])
        assert lazy == checked and hash(lazy) == hash(checked)
        assert repr(lazy) == repr(checked)
        assert set(vars(lazy)) == set(vars(checked)) == {"items", "_lookup"}
    assert len(trusted) > 10
