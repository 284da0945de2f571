"""The bitmask subcurve scans against independent member-loop oracles.

`basic_inequality` and the GIT and orbit scans of a blow-up model pack their
columns one lane per mask into integers, and `boundary_case` decodes a
model's rows from those lanes once per twist.  The oracles below recompute
each subcurve from scratch with explicit member loops and `Fraction`
arithmetic, the way the scans did before any table existed, and the list
tables the scans read before the lanes (`spin_oracles.subcurve_table`), so
a wrong recurrence, a wrong scaled comparison or a lane too narrow shows up
as a mismatch on some mask.
"""

from __future__ import annotations

import itertools
import json
import random
import sys
import threading
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinpicard.graphs as graphs
import spinpicard.quasistable as quasistable
import spinpicard.spin_locus as spin_locus
from spin_oracles import subcurve_table
from spinpicard import (
    BIReport,
    BIViolation,
    BlowupConfig,
    DomainError,
    DualGraph,
    GraphTooLargeError,
    Multidegree,
    Vertex,
    basic_inequality,
    boundary_case,
    decide_spin_component,
    exceptional_profile,
    expand,
    git_stable_exhaustive,
    iter_blowup_configs,
    iter_subcurves,
    orbit_closed_check,
    spin_multidegree,
    spin_parity,
    subcurve_profile,
    validate_graph,
)

# -- oracles -----------------------------------------------------------------


class Oracle:
    """Per-subcurve invariants of one graph by member loops over ids."""

    def __init__(self, graph: DualGraph) -> None:
        self.graph = graph
        self.k = {u: {v: graph.k(u, v) for v in graph.ids} for u in graph.ids}
        self.pa = {v: graph.pa(v) for v in graph.ids}
        self.contact = {v: graph.contact(v) for v in graph.ids}
        self.core = frozenset(graph.ids) - getattr(graph, "exceptional", frozenset())

    def numbers(self, Y) -> tuple[int, int, int]:
        """(genus, contact, internal nodes) of Y."""
        members = sorted(Y)
        internal = sum(self.k[u][v] for u, v in itertools.combinations(members, 2))
        genus = sum(self.pa[v] for v in members) + internal - len(members) + 1
        contact = sum(self.contact[v] for v in members) - 2 * internal
        return genus, contact, internal

    def lower(self, Y, d_total: int) -> Fraction:
        """m(Y) = d / (2g - 2) * (2 g(Y) - 2 + k(Y)) - k(Y) / 2."""
        genus, contact, _ = self.numbers(Y)
        return Fraction(d_total * (2 * genus - 2 + contact), 2 * self.graph.genus - 2) - Fraction(
            contact, 2
        )

    def basic_inequality(self, md: Multidegree) -> BIReport:
        """The basic-inequality scan, one subcurve at a time in Fractions."""
        violations = []
        for Y in iter_subcurves(self.graph, max_vertices=self.graph.n):
            lower = self.lower(Y, md.total)
            upper = lower + self.numbers(Y)[1]
            degree = sum(md[v] for v in Y)
            if not lower <= degree <= upper:
                violations.append(BIViolation(Y, degree, lower, upper))
        return BIReport(satisfied=not violations, violations=tuple(violations))

    def row(self, t: int, Y, *, unsafe_t: bool = False) -> tuple:
        """(degree, core_contact, inner_ok, outer_ok, at_min, at_max) of Y."""
        q = self.graph
        md = spin_multidegree(q, t, unsafe_t=unsafe_t)
        lower = self.lower(Y, md.total)
        upper = lower + self.numbers(Y)[1]
        degree = sum(md[v] for v in Y)
        core = self.core
        core_contact = sum(self.k[u][v] for u in Y & core for v in core - Y)
        inner_ok = all(self.k[e][v] == 0 for e in Y & q.exceptional for v in q.ids if v not in Y)
        outer_ok = all(self.k[e][v] == 0 for e in q.exceptional - Y for v in Y)
        return (degree, core_contact, inner_ok, outer_ok, degree == lower, degree == upper)


def case_row(case) -> tuple:
    return (
        case.degree,
        case.core_contact,
        case.inner_exceptionals_avoid_complement,
        case.outer_exceptionals_avoid_subcurve,
        case.at_min,
        case.at_max,
    )


def mask_of(graph: DualGraph, Y) -> int:
    return sum(1 << graph.ids.index(v) for v in Y)


def models(corpus, step: int = 1):
    for graph in corpus[::step]:
        for config in iter_blowup_configs(graph, spin_only=True):
            yield expand(graph, config)


def replay_payload(err: pytest.ExceptionInfo) -> dict:
    message = str(err.value)
    assert message.startswith("internal error: ")
    return json.loads(message.split("; replay: ", 1)[1])


# -- the tables ----------------------------------------------------------------


def test_tables_match_member_loop_on_every_mask(quasistable_corpus):
    t = 10
    checked = 0
    for q in models(quasistable_corpus):
        oracle = Oracle(q)
        genus, contact, internal = subcurve_table(q)
        spin_multidegree(q, t)
        rows = quasistable._table_rows(q, t)
        assert len(genus) == len(rows) == 1 << q.n
        for Y in iter_subcurves(q):
            mask = mask_of(q, Y)
            numbers = (genus[mask], contact[mask], internal[mask])
            assert numbers == oracle.numbers(Y), (q, Y)
            _, k_y, row = rows[mask]
            assert k_y == contact[mask], (q, Y)
            assert row == oracle.row(t, Y), (q, Y)
            checked += 1
    assert checked == 280847


def test_single_subcurve_calls_build_no_table():
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 13})
    q = expand(split, BlowupConfig({("C1", "C2"): 13}))
    assert q.n == 15
    Y = frozenset({"C1"}) | frozenset(sorted(q.exceptional)[:5])
    d_total = 21 * (q.genus - 1)
    oracle = Oracle(q)
    prof = subcurve_profile(q, Y, d_total)
    assert (prof.genus, prof.contact) == oracle.numbers(Y)[:2]
    assert prof.lower == oracle.lower(Y, d_total)
    ep = exceptional_profile(q, Y)
    assert ep.internal_nodes == oracle.numbers(Y)[2] == 5
    for subcurve in (Y, {"C1"}, set(q.exceptional), set(q.ids)):
        case = boundary_case(q, 10, subcurve)
        assert case_row(case) == oracle.row(10, frozenset(subcurve))
        assert case.lower == oracle.lower(frozenset(subcurve), d_total)
    assert q._kernel is None


# -- basic inequality ------------------------------------------------------------


def _cycle(n: int) -> DualGraph:
    return DualGraph(
        [(f"c{i:02d}", 1) for i in range(n)],
        {(f"c{i:02d}", f"c{(i + 1) % n:02d}"): 1 for i in range(n)} if n > 2
        else {("c00", "c01"): 2},
    )


def _random_stable(rng: random.Random, n: int) -> DualGraph:
    while True:
        ids = [f"r{i:02d}" for i in range(n)]
        edges = {(ids[i], ids[rng.randrange(i)]): rng.randint(1, 2) for i in range(1, n)}
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(ids, 2)
            if (u, v) not in edges and (v, u) not in edges:
                edges[(u, v)] = 1
        graph = DualGraph([(v, rng.randint(0, 2)) for v in ids], edges)
        if graph.genus >= 2 and all(
            2 * graph.pa(v) - 2 + graph.contact(v) > 0 for v in ids
        ):
            return graph


def _doubled_canonical(graph: DualGraph) -> Multidegree:
    """Twice the canonical degree 2pa - 2 + contact on each vertex: admissible
    at total 4g - 4, since the window on Y is 2 deg(omega|Y) -+ k(Y)/2."""
    return Multidegree.of({v: 2 * (2 * graph.pa(v) - 2 + graph.contact(v)) for v in graph.ids})


def _perturbed(md: Multidegree, rng: random.Random, size: int) -> Multidegree:
    values = md.as_dict()
    ids = sorted(values)
    for _ in range(rng.randint(1, 3)):
        u, v = rng.sample(ids, 2)
        shift = rng.randint(1, size)
        values[u] += shift
        values[v] -= shift
    return Multidegree.of(values)


def test_basic_inequality_matches_member_loop_scan():
    rng = random.Random(20021)
    graphs = [_cycle(n) for n in (2, 3, 5, 8, 12)]
    graphs += [_random_stable(rng, n) for n in (2, 3, 4, 5, 6, 7, 8, 9, 10, 12)]
    violating = 0
    for graph in graphs:
        base = _doubled_canonical(graph)
        assert basic_inequality(graph, base, max_vertices=graph.n).satisfied
        for md in [base] + [_perturbed(base, rng, 2 + graph.n) for _ in range(3)]:
            got = basic_inequality(graph, md, max_vertices=graph.n)
            assert got == Oracle(graph).basic_inequality(md), (graph, md)
            violating += not got.satisfied
    assert violating >= 20


def test_basic_inequality_matches_member_loop_on_models(quasistable_corpus):
    rng = random.Random(7)
    for q in models(quasistable_corpus, step=31):
        md = spin_multidegree(q, 11)
        candidates = [md, _perturbed(md, rng, 2)] if q.n > 1 else [md]
        for candidate in candidates:
            assert basic_inequality(q, candidate) == Oracle(q).basic_inequality(candidate)


# -- one model kernel per model ---------------------------------------------------


def _plain(q) -> DualGraph:
    """The model as a plain dual graph, which keeps no model lanes."""
    return DualGraph(q.vertices, list(q.pairs()))


def test_basic_inequality_on_models_equals_a_plain_copy(quasistable_corpus):
    """The verdict on a spin multidegree comes from the model's lanes, for
    the cached object and for an equal one; a perturbed multidegree (on every
    fifth case) takes the packed scan and keeps its violations.  Both equal
    the plain graph's."""
    rng = random.Random(1989)
    checked = violations = 0
    for q in models(quasistable_corpus):
        plain = _plain(q)
        for t in (10, 11):
            md = spin_multidegree(q, t)
            got = basic_inequality(q, md)
            assert q._kernel is not None and q._twist.spin is md and q._twist.rows is None
            assert got == basic_inequality(q, Multidegree(md.items)) == basic_inequality(plain, md)
            assert got == BIReport(True, ())
            if q.n > 1 and checked % 5 == 0:
                moved = _perturbed(md, rng, 3)
                report = basic_inequality(q, moved)
                assert report == basic_inequality(plain, moved)
                violations += len(report.violations)
            checked += 1
    assert checked == 2 * 2543 and violations > 1000


def test_scans_after_basic_inequality_build_no_lanes_again(quasistable_corpus, monkeypatch):
    """One lane build per model, two `_subset_lanes` calls (the node rows
    and the core-only ones), and none again for the scans and the boundary
    table after `basic_inequality`."""
    calls = []
    lanes = quasistable._subset_lanes
    monkeypatch.setattr(quasistable, "_subset_lanes", lambda *args: calls.append(1) or lanes(*args))
    for count, q in enumerate(models(quasistable_corpus, step=17), 1):
        assert basic_inequality(q, spin_multidegree(q, 10)).satisfied
        assert len(calls) == 2 * count
        git_stable_exhaustive(q, 10)
        orbit_closed_check(q, 10)
        boundary_case(q, 10, q.ids[:1])
        assert len(calls) == 2 * count
    assert count > 100


def test_a_lane_identity_failing_inside_basic_inequality_is_replayable(monkeypatch):
    """The kernel is first built inside `basic_inequality` on the spin
    multidegree; a lane fault there raises naming the first failing subcurve
    and the model, with no twist: the source and blow-ups alone replay it."""
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 6})
    q = expand(split, BlowupConfig({("C1", "C2"): 4}))
    md = spin_multidegree(q, 10)
    third = sorted(q.exceptional)[2]
    _inflate_internal(monkeypatch, q, {mask_of(q, {third}): 1})
    with pytest.raises(RuntimeError, match="slots unaccounted for") as err:
        basic_inequality(q, md)
    monkeypatch.undo()
    payload = replay_payload(err)
    assert payload["subcurve"] == [third] and "t" not in payload
    replayed = expand(validate_graph(payload["source"]), BlowupConfig.from_dict(payload["blowups"]))
    assert replayed == q and basic_inequality(replayed, spin_multidegree(replayed, 10)).satisfied


def test_a_table_built_under_unsafe_t_still_checks_the_twist():
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
    q = expand(split, BlowupConfig({("C1", "C2"): 2}))
    case = boundary_case(q, 5, {"C1"}, unsafe_t=True)
    assert q._twist.t == 5 and q._twist.rows is not None
    with pytest.raises(DomainError, match="at least 10"):
        boundary_case(q, 5, {"C1"})
    assert boundary_case(q, 5, {"C1"}, unsafe_t=True) == case


@pytest.mark.parametrize("width", [8, 16, 32, 64, 128])
def test_cached_sign_lane_equals_its_byte_construction(width):
    for n in range(13):
        expected = int.from_bytes((bytes(width // 8 - 1) + b"\x80") * (1 << n), "little")
        assert graphs._lane_format((1 << (width - 2)) - 1, n) == (width, expected)
        assert graphs._lane_format(1 << (width // 2 - 1), n) == (width, expected)


def test_node_rows_equal_the_lookup_construction(quasistable_corpus):
    """Row i of `_later` holds (j, k(i, j)) for every joined j > i, each
    once: the nonzero upper triangle of the node counts looked up by id."""
    for graph in [*quasistable_corpus, *models(quasistable_corpus)]:
        ids = graph.ids
        assert len(graph._later) == graph.n
        for i, row in enumerate(graph._later):
            assert len({j for j, _ in row}) == len(row)
            assert dict(row) == {
                j: graph.k(ids[i], v) for j, v in enumerate(ids) if j > i and graph.k(ids[i], v)
            }


# The packed scan keeps (g-1) k(Y) -+ X(Y), X(Y) = 2(g-1) d(Y) - d w(Y), in
# lanes of 8, 16, 32 or 64 bits, wider only past 63, sized from sum |x_i| +
# (g-1) sum c_i plus a sign bit.  The cases below reach both sides of byte
# boundaries and of each lane width, with totals up to 10^12 and negative
# and lopsided degrees.


def _lane_bits(graph: DualGraph, md: Multidegree) -> int:
    """The bits the packed scan sizes its lanes from: the bound and a sign bit."""
    half = graph.genus - 1
    offsets = [
        2 * half * md[v] - md.total * (2 * graph.pa(v) - 2 + graph.contact(v)) for v in graph.ids
    ]
    bound = sum(map(abs, offsets)) + half * sum(graph.contact(v) for v in graph.ids)
    return bound.bit_length() + 1


@st.composite
def lane_cases(draw) -> tuple[DualGraph, Multidegree]:
    """A connected graph of genus >= 2 on 1-8 vertices (stable or not) and a
    multidegree of small, large or lopsided entries: each degree within
    2^scale for a drawn scale up to 40, one of them shifted by up to 10^12."""
    n = draw(st.integers(1, 8))
    edges = {(f"v{i}", f"v{draw(st.integers(0, i - 1))}"): draw(st.integers(1, 3))
             for i in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4)):
        if i != j and (f"v{i}", f"v{j}") not in edges and (f"v{j}", f"v{i}") not in edges:
            edges[(f"v{i}", f"v{j}")] = draw(st.integers(1, 2))
    pa = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pa[0] += max(0, 2 - (sum(pa) + sum(edges.values()) - n + 1))
    graph = DualGraph([(f"v{i}", pa[i]) for i in range(n)], edges)
    scale = draw(st.integers(0, 40))
    degrees = draw(st.lists(st.integers(-(2**scale), 2**scale), min_size=n, max_size=n))
    degrees[draw(st.integers(0, n - 1))] += draw(st.integers(-(10**12), 10**12))
    return graph, Multidegree.from_values(graph, degrees)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(lane_cases())
def test_packed_scan_matches_member_loop_at_lane_edges(case):
    graph, md = case
    assert basic_inequality(graph, md) == Oracle(graph).basic_inequality(md)


@pytest.mark.parametrize("bits", [9, 17, 25, 33, 41, 49, 57, 65])
def test_packed_scan_on_both_sides_of_a_byte_boundary(bits):
    """Degrees moved between two vertices in steps of one: the largest move
    whose lanes need ``bits - 1`` bits (a whole number of bytes) and the
    next, which needs one more byte, on a cycle and on K_4 (m = 2) where the
    unmoved degrees fit the smaller width.  At 9, 17, 33 and 65 bits the
    lanes double, the last time onto the ``int.from_bytes`` decode."""
    checked = 0
    for graph in (_cycle(5), DualGraph(
        [(f"k{i}", 0) for i in range(4)],
        {(f"k{i}", f"k{j}"): 2 for i in range(4) for j in range(i + 1, 4)},
    )):
        base = _doubled_canonical(graph).values(graph.ids)

        def moved(shift: int) -> Multidegree:
            return Multidegree.from_values(graph, [base[0] + shift, base[1] - shift, *base[2:]])

        if _lane_bits(graph, moved(0)) >= bits:
            continue
        low, high = 0, 1
        while _lane_bits(graph, moved(high)) < bits:
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if _lane_bits(graph, moved(mid)) < bits else (low, mid)
        assert [_lane_bits(graph, moved(x)) for x in (low, high)] == [bits - 1, bits]
        for shift in (low, high):
            md = moved(shift)
            got = basic_inequality(graph, md)
            assert not got.satisfied
            assert got == Oracle(graph).basic_inequality(md)
        checked += 1
    assert checked


def test_packed_scan_past_the_cap_on_c14():
    graph = _cycle(14)
    md = _perturbed(_doubled_canonical(graph), random.Random(14), 16)
    with pytest.raises(GraphTooLargeError):
        basic_inequality(graph, md)
    got = basic_inequality(graph, md, max_vertices=14)
    assert got == Oracle(graph).basic_inequality(md)
    assert len(got.violations) > 100


def test_basic_inequality_builds_no_subcurve_table():
    graph = _cycle(10)
    md = _perturbed(_doubled_canonical(graph), random.Random(10), 12)
    cached = set(vars(graph))
    assert not basic_inequality(graph, md).satisfied
    assert basic_inequality(graph, _doubled_canonical(graph)).satisfied
    # Only the O(n + E) node rows stay on the graph, no table of 2^n entries.
    assert set(vars(graph)) - cached <= {"_later"}


# -- GIT and orbit-closure scans ----------------------------------------------------


def test_scans_match_boundary_case_loop(quasistable_corpus):
    unstable = 0
    for q in models(quasistable_corpus, step=3):
        for t in (10, 11):
            cases = [boundary_case(q, t, Y) for Y in iter_subcurves(q)]
            stable = not any(
                c.at_max for c in cases if c.subcurve != frozenset(q.ids)
                and not c.subcurve <= q.exceptional
            )
            closed = not any(c.at_min and c.core_contact for c in cases)
            assert git_stable_exhaustive(q, t) == stable
            assert orbit_closed_check(q, t) == closed
            unstable += not stable
    assert unstable > 0


def test_twist_sweep_keeps_one_row_table(monkeypatch):
    """A t sweep on one model builds its kernel once, two `_subset_lanes`
    calls in all, decodes the rows per twist and keeps only the latest
    twist's, with every answer equal to a fresh model's."""
    source = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 10})
    config = BlowupConfig({("C1", "C2"): 10})
    q = expand(source, config)
    assert q.n == 12
    calls = []
    lanes = quasistable._subset_lanes
    monkeypatch.setattr(quasistable, "_subset_lanes", lambda *args: calls.append(args[0]) or lanes(*args))
    subcurves = [{"C1"}, {"C1", *sorted(q.exceptional)[:4]}, set(q.exceptional)]
    for t in range(10, 20):
        fresh = expand(source, config)
        assert git_stable_exhaustive(q, t) == git_stable_exhaustive(fresh, t)
        assert orbit_closed_check(q, t) == orbit_closed_check(fresh, t)
        for Y in subcurves:
            assert boundary_case(q, t, Y) == boundary_case(fresh, t, Y)
        assert q._twist.t == t and len(q._twist.rows) == 1 << q.n
    assert [rows for rows in calls if rows is q._later or rows is q._core_nodes[0]] == [
        q._later, q._core_nodes[0]
    ]
    assert len(calls) == 2 * 11


def test_scans_leave_no_rows_until_boundary_case_asks():
    """Both scans read the packed lanes alone: the twist record holds no
    per-mask rows until boundary_case decodes them, once per twist, a new
    twist replaces the record, and the kernel holds no rows at all."""
    source = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 6})
    q = expand(source, BlowupConfig({("C1", "C2"): 4}))
    assert git_stable_exhaustive(q, 10) and orbit_closed_check(q, 10)
    kernel = q._kernel
    for t in (10, 11):
        assert git_stable_exhaustive(q, t) and orbit_closed_check(q, t)
        record = q._twist
        assert q._kernel is kernel and record.t == t and record.rows is None
        case = boundary_case(q, t, {"C1"})
        rows = record.rows
        assert q._twist is record and len(rows) == 1 << q.n
        assert orbit_closed_check(q, t) and boundary_case(q, t, {"C2"}).degree == case.degree
        assert record.rows is rows and q._kernel is kernel
    assert not vars(kernel).keys() & {"twist", "rows"}


def test_a_twist_sweep_leaves_one_record_and_plain_verdicts():
    """After `spin_multidegree` at 2,000 twists the model holds one twist
    record and no per-twist table; `basic_inequality` on a non-spin
    multidegree, and on the spin multidegree of an earlier twist, each
    equals the verdict on a plain copy."""
    source = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 3})
    q = expand(source, BlowupConfig({("A", "B"): 3}))
    assert q.n == 5
    earlier = spin_multidegree(q, 10)
    for t in range(10, 2010):
        latest = spin_multidegree(q, t)
    assert q._twist.t == 2009 and q._twist.spin is latest
    assert all(len(value) < 100 for value in vars(q).values() if hasattr(value, "__len__"))
    plain = _plain(q)
    moved = _perturbed(latest, random.Random(2009), 3)
    assert basic_inequality(q, moved) == basic_inequality(plain, moved)
    assert not basic_inequality(q, moved).satisfied
    assert basic_inequality(q, earlier) == basic_inequality(plain, earlier) == BIReport(True, ())
    assert basic_inequality(q, latest) == basic_inequality(plain, latest) == BIReport(True, ())


@pytest.mark.parametrize("route", ["table", "direct"])
def test_a_call_at_another_twist_midway_answers_for_its_own(route, monkeypatch):
    """A `boundary_case` at t that meets `spin_multidegree` at t + 1 midway,
    inside the row decode within the cap or inside the per-mask counts past
    it, still answers for t and raises nothing: each call works on the twist
    record it read, and leaves nothing of t in the record at t + 1."""
    source = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 6})
    config = BlowupConfig({("C1", "C2"): 4})
    fresh, q, t = expand(source, config), expand(source, config), 10
    expected = {Y: boundary_case(fresh, t, Y) for Y in iter_subcurves(fresh)}
    name = "_table_rows" if route == "table" else "_node_counts"
    if route == "direct":
        monkeypatch.setattr(quasistable, "MAX_SUBSET_VERTICES", 0)
    exact, midway = getattr(quasistable, name), []

    def interleaved(*args):
        midway.append(spin_multidegree(q, t + 1))
        return exact(*args)

    monkeypatch.setattr(quasistable, name, interleaved)
    got = {Y: boundary_case(q, t, Y) for Y in expected}
    assert midway and all(md.total == (2 * t + 3) * (q.genus - 1) for md in midway)
    assert got == expected
    monkeypatch.undo()
    assert all(boundary_case(q, t + 1, Y) == boundary_case(fresh, t + 1, Y) for Y in expected)


@pytest.mark.parametrize("route", ["table", "direct"])
def test_threads_at_different_twists_share_one_model(route, monkeypatch):
    """Four threads ask `boundary_case` on one model, each at its own twist,
    with the interpreter switching threads as often as it can: every answer
    is a fresh model's at that thread's twist, and none raises."""
    source = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 6})
    config = BlowupConfig({("C1", "C2"): 4})
    q, twists = expand(source, config), (10, 11, 12, 13)
    subcurves = list(iter_subcurves(q))
    expected = {t: [boundary_case(expand(source, config), t, Y) for Y in subcurves] for t in twists}
    if route == "direct":
        monkeypatch.setattr(quasistable, "MAX_SUBSET_VERTICES", 0)
    wrong, errors = [], []

    def ask(t: int) -> None:
        try:
            for _ in range(5):
                wrong.extend(
                    (t, Y) for Y, case in zip(subcurves, expected[t]) if boundary_case(q, t, Y) != case
                )
        except Exception as exc:  # reported below, with the thread's twist
            errors.append((t, exc))

    threads = [threading.Thread(target=ask, args=(t,)) for t in twists]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not errors and not wrong, (errors, wrong[:5])


# The model kernel keeps its columns in lanes of 8, 16, 32 or 64 bits, wider
# only past 63, sized from sum |w_i| + 2 sum c_i plus a sign bit, where w_i =
# 2pa_i - 2 + c_i: the genus sets the width, the twist does not.  The
# property reaches twists up to 10^12, and the cases below both sides of
# each width, up to a component of genus ~ 2^61.


def _model_lane_bits(q) -> int:
    """The bits the model kernel sizes its lanes from: the bound and a sign bit."""
    contacts = [q.contact(v) for v in q.ids]
    weights = [2 * q.pa(v) - 2 + c for v, c in zip(q.ids, contacts)]
    return (sum(map(abs, weights)) + 2 * sum(contacts)).bit_length() + 1


def _assert_model_matches_oracle(q, t: int) -> None:
    """Every boundary_case of q at t against `Oracle.row` and the exact
    window, and both scans, on a fresh model, against the verdicts of the
    boundary_case loop."""
    oracle = Oracle(q)
    d_total = (2 * t + 1) * (q.genus - 1)
    rows = {}
    for Y in iter_subcurves(q):
        case = boundary_case(q, t, Y, unsafe_t=True)
        rows[Y] = oracle.row(t, Y, unsafe_t=True)
        assert case_row(case) == rows[Y], (q, t, Y)
        assert (case.lower, case.contact) == (oracle.lower(Y, d_total), oracle.numbers(Y)[1])
    full = frozenset(q.ids)
    stable = not any(row[5] for Y, row in rows.items() if Y != full and not Y <= q.exceptional)
    closed = not any(row[4] and row[1] for row in rows.values())
    fresh = expand(q.source, q.config)
    assert git_stable_exhaustive(fresh, t, unsafe_t=True) == stable, (q, t)
    assert orbit_closed_check(fresh, t, unsafe_t=True) == closed, (q, t)


@st.composite
def wide_spin_models(draw):
    """A spin blow-up model of at most 10 vertices of a stable graph on 1-4
    components with up to 6 nodes per pair (self-nodes on some), and a
    twist up to 10^12, taken through unsafe_t."""
    n = draw(st.sampled_from((1, 2, 3, 3, 4, 4, 4)))
    ids = [f"v{i}" for i in range(n)]
    edges = {(i, draw(st.integers(0, i - 1))): draw(st.integers(1, 6)) for i in range(1, n)}
    for i, j in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=3)):
        if i > j and (i, j) not in edges:
            edges[(i, j)] = draw(st.integers(1, 6))
    contact = [sum(m for pair, m in edges.items() if i in pair) for i in range(n)]
    pa = [max(draw(st.integers(0, 2)), 1 if c < 3 else 0, 2 if c == 0 else 0) for c in contact]
    pa[0] += max(0, 2 - (sum(pa) + sum(edges.values()) - n + 1))
    graph = DualGraph(
        [Vertex(ids[i], pa[i], draw(st.integers(0, min(pa[i], 2)))) for i in range(n)],
        [(ids[i], ids[j], m) for (i, j), m in edges.items()],
    )
    even = draw(st.booleans())
    s = {
        (u, v): k - 2 * draw(st.integers(0, k // 2)) if even else draw(st.integers(0, k))
        for u, v, k in graph.pairs()
    }
    config = BlowupConfig(s, {v.id: draw(st.integers(0, v.self_nodes)) for v in graph.vertices})
    assume(graph.n + config.total <= 10 and spin_parity(graph, config))
    t = draw(st.integers(0, 40) | st.integers(10**6, 10**12) | st.integers(0, 10**12))
    return expand(graph, config), t


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(wide_spin_models())
def test_model_kernel_matches_the_boundary_case_loop_on_wide_lanes(case):
    _assert_model_matches_oracle(*case)


def _lane_models():
    """(source, config) of: two elliptic curves meeting once, the node blown
    up, and in three nodes, one blown up; a rational split curve with four of
    six nodes blown up; and a curve of genus 3 with one of its two self-nodes
    blown up.  All have lanes of 8 bits."""
    once = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 1})
    thrice = DualGraph([("A", 1), ("B", 1)], {("A", "B"): 3})
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 6})
    return [
        (once, BlowupConfig({("A", "B"): 1})),
        (thrice, BlowupConfig({("A", "B"): 1})),
        (split, BlowupConfig({("C1", "C2"): 4})),
        (DualGraph([("a", 3, 2)]), BlowupConfig(r={"a": 1})),
    ]


def _raised(source: DualGraph, config: BlowupConfig, pa: int):
    """The blow-up model of ``source`` with its first component of genus ``pa``."""
    first, *rest = source.vertices
    raised = DualGraph([Vertex(first.id, pa, first.self_nodes), *rest], list(source.pairs()))
    return expand(raised, config)


@pytest.mark.parametrize("width", [8, 16, 32, 64])
def test_model_kernel_on_both_sides_of_a_lane_width(width):
    """The largest genus of the first component whose lanes fit ``width``
    bits and the next, whose lanes are twice as wide, on every model that
    starts below the width, at a supported twist and one past 2^40."""
    checked = 0
    for source, config in _lane_models():
        low = source.vertices[0].pa
        if _model_lane_bits(_raised(source, config, low)) >= width:
            continue
        high = low + 1
        while _model_lane_bits(_raised(source, config, high)) <= width:
            low, high = high, 2 * high
        while high - low > 1:
            mid = (low + high) // 2
            low, high = (mid, high) if _model_lane_bits(_raised(source, config, mid)) <= width else (low, mid)
        models = [_raised(source, config, pa) for pa in (low, high)]
        assert [_model_lane_bits(q) for q in models] == [width, width + 1]
        for q, lanes in zip(models, (width, 2 * width)):
            for t in (10, 3 << 40):
                _assert_model_matches_oracle(q, t)
            assert q._kernel.width == lanes
        checked += 1
    assert checked == 4


# -- boundary_case: table path and direct path --------------------------------------


def test_boundary_case_direct_path_matches_table(quasistable_corpus, monkeypatch):
    pairs = 0
    for q in models(quasistable_corpus, step=7):
        table_cases = [boundary_case(q, 11, Y) for Y in iter_subcurves(q)]
        fresh = expand(q.source, q.config)
        with monkeypatch.context() as patch:
            patch.setattr(quasistable, "MAX_SUBSET_VERTICES", 0)
            direct_cases = [boundary_case(fresh, 11, Y) for Y in iter_subcurves(fresh)]
        assert fresh._kernel is None
        assert direct_cases == table_cases
        pairs += len(direct_cases)
    assert pairs > 1000


# -- replayable internal errors -----------------------------------------------------


def test_row_disagreement_raises_a_replayable_payload(monkeypatch):
    graph = DualGraph([("a", 1), ("b", 0, 0), ("c", 1)], {("a", "b"): 2, ("b", "c"): 2})
    config = BlowupConfig({("a", "b"): 2})
    q = expand(graph, config)
    exact = quasistable._scaled_lower
    monkeypatch.setattr(quasistable, "_scaled_lower", lambda *args: exact(*args) + 1)
    with pytest.raises(RuntimeError, match="boundary predicates disagree") as err:
        orbit_closed_check(q, 10)
    payload = replay_payload(err)
    assert validate_graph(payload["graph"]) == q
    assert payload["t"] == 10
    monkeypatch.undo()
    replayed = expand(validate_graph(payload["source"]), BlowupConfig.from_dict(payload["blowups"]))
    assert replayed == q and replayed.exceptional == q.exceptional
    case = boundary_case(replayed, payload["t"], payload["subcurve"])
    assert case.at_min or case.at_max


def _inflate_internal(monkeypatch, q, bumps: dict[int, int]) -> None:
    """Add ``bumps[mask]`` internal nodes to that mask of q in the kernel's
    lanes: k(Y) = sum c - 2 internal(Y) loses two per node in the lanes of
    the call on q's node rows."""
    exact = quasistable._subset_lanes

    def inflated(later, contacts, values, width):
        contact, total = exact(later, contacts, values, width)
        if later is q._later:
            contact -= sum(2 * count << mask * width for mask, count in bumps.items())
        return contact, total

    monkeypatch.setattr(quasistable, "_subset_lanes", inflated)


def test_slot_bound_failure_raises_a_replayable_payload(monkeypatch):
    """Inflate the internal-node count of every subcurve holding an
    exceptional vertex, in the kernel's lanes, where the inner and outer
    counts turn negative, and in the per-mask helpers, where the slot bound
    fails."""
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
    q = expand(split, BlowupConfig({("C1", "C2"): 2}))
    exc = q._exceptional_mask
    _inflate_internal(monkeypatch, q, {m: 5 for m in range(1 << q.n) if m & exc})
    with pytest.raises(RuntimeError, match="slots unaccounted for") as err:
        git_stable_exhaustive(q, 12)
    payload = replay_payload(err)
    assert "t" not in payload and payload["subcurve"] == ["E(C1|C2)#1"]

    exact = quasistable._mask_numbers

    def inflated(graph, mask):
        g_y, k_y, e_y = exact(graph, mask)
        return g_y, k_y, e_y + 5 if mask & exc else e_y

    monkeypatch.setattr(quasistable, "_mask_numbers", inflated)
    # The lanes hold no internal column; the replay of the failing mask
    # tells an over-full slot from a short one, with no twist on either route.
    with pytest.raises(RuntimeError, match="exceeds its bound") as err:
        quasistable._direct_row(q, 12, spin_multidegree(q, 12), mask_of(q, {"E(C1|C2)#1"}))
    assert "t" not in replay_payload(err)
    with pytest.raises(RuntimeError, match="exceeds its bound") as err:
        exceptional_profile(q, {"C1", "E(C1|C2)#2"})
    payload = replay_payload(err)
    assert payload["subcurve"] == ["C1", "E(C1|C2)#2"] and "t" not in payload


@pytest.mark.parametrize("scan", [git_stable_exhaustive, orbit_closed_check])
@pytest.mark.parametrize("masks", ["every", "empty"])
def test_inflated_internal_column_raises_a_replayable_payload(scan, masks, monkeypatch):
    """One more internal node on every mask, or on the empty mask alone,
    breaks the lane check; the scan must raise, not hand back a verdict, name
    the first failing subcurve, and name the model only when the empty mask
    alone fails."""
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
    q = expand(split, BlowupConfig({("C1", "C2"): 2}))
    bumped = range(1 << q.n) if masks == "every" else [0]
    _inflate_internal(monkeypatch, q, dict.fromkeys(bumped, 1))
    with pytest.raises(RuntimeError) as err:
        scan(q, 12)
    monkeypatch.undo()
    payload = replay_payload(err)
    replayed = expand(validate_graph(payload["source"]), BlowupConfig.from_dict(payload["blowups"]))
    assert replayed == q and replayed.exceptional == q.exceptional
    assert "t" not in payload and ("subcurve" in payload) == (masks == "every")


def test_an_odd_core_contact_lane_names_its_mask(monkeypatch):
    """One more node in the core-contact call's lane of {C1, E1}, where inner
    and outer are 1 each, leaves 2 inner and 2 outer odd but not negative:
    the parity half of the lane check alone must name that subcurve."""
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
    q = expand(split, BlowupConfig({("C1", "C2"): 2}))
    mask = mask_of(q, {"C1", "E(C1|C2)#1"})
    exact = quasistable._subset_lanes

    def bumped(later, contacts, values, width):
        contact, total = exact(later, contacts, values, width)
        if later is not q._later:
            contact += 1 << mask * width
        return contact, total

    monkeypatch.setattr(quasistable, "_subset_lanes", bumped)
    with pytest.raises(RuntimeError, match="slots unaccounted for") as err:
        git_stable_exhaustive(q, 10)
    assert replay_payload(err)["subcurve"] == ["C1", "E(C1|C2)#1"]


def _first_failing_mask(q, t: int, degree: list, bumps: dict[int, int]) -> tuple[int, int]:
    """The smallest mask whose per-mask row raises with degrees ``degree``
    and ``bumps[mask]`` extra internal nodes, and how many masks do: the
    per-mask route, reading its numbers from the list tables."""
    genus, contact, internal = subcurve_table(q)
    internal = [e + bumps.get(mask, 0) for mask, e in enumerate(internal)]
    spin = Multidegree.from_values(q, degree)
    failing = []

    def numbers(graph, mask):
        return genus[mask], contact[mask], internal[mask]

    with mock.patch.object(quasistable, "_mask_numbers", numbers):
        for mask in range(1, 1 << q.n):
            try:
                quasistable._direct_row(q, t, spin, mask)
            except RuntimeError:
                failing.append(mask)
    return failing[0], len(failing)


@pytest.mark.parametrize("fault", ["degree", "internal"])
def test_column_failure_names_the_first_failing_mask(fault, monkeypatch):
    """The whole-integer checks find a fault without knowing where; the rerun
    must name the smallest failing mask, not a later one.  A degree fault
    raises from `spin_multidegree`, with its twist; a lane fault from the
    model kernel, without one."""
    split = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 6})
    config = BlowupConfig({("C1", "C2"): 4})
    q = expand(split, config)
    degree = list(spin_multidegree(expand(split, config), 10).values(q.ids))
    third, fourth = sorted(q.exceptional)[2:]
    bumps = {}
    if fault == "degree":
        # C2 one up and C1 one down keep the total: every subcurve holding
        # one but not the other moves, and only the per-vertex check sees it.
        moves = {q.index("C1"): -1, q.index("C2"): 1}
        exact = quasistable._spin_base
        monkeypatch.setattr(
            quasistable, "_spin_base",
            lambda graph, t: [b + moves.get(i, 0) for i, b in enumerate(exact(graph, t))],
        )
        degree = [d + moves.get(i, 0) for i, d in enumerate(degree)]
    else:
        # Five extra internal nodes on two masks break the lane check and,
        # mask by mask, the slot bound on both.
        bumps = {mask_of(q, {third, fourth}): 5, mask_of(q, {"C2", fourth}): 5}
        _inflate_internal(monkeypatch, q, bumps)
    first, count = _first_failing_mask(q, 10, degree, bumps)
    assert count > 1
    with pytest.raises(RuntimeError) as err:
        orbit_closed_check(q, 10)
    payload = replay_payload(err)
    assert payload["subcurve"] == [v for i, v in enumerate(q.ids) if first >> i & 1]
    assert payload.get("t") == (10 if fault == "degree" else None)
    assert q._kernel is None and (q._twist is not None) == (fault == "internal")


def test_witness_check_raises_a_replayable_payload(monkeypatch):
    graph = DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): 4})
    md = Multidegree.of({"C1": 20, "C2": 22})
    monkeypatch.setattr(spin_locus, "_replay", lambda *args, **kw: [])
    with pytest.raises(RuntimeError, match="witness does not reproduce") as err:
        decide_spin_component(graph, 10, md)
    payload = replay_payload(err)
    monkeypatch.undo()
    assert validate_graph(payload["graph"]) == graph
    assert Multidegree.of(payload["multidegree"]) == md
    witness = decide_spin_component(graph, payload["t"], md)
    assert witness.to_dict() == payload["witness"]
