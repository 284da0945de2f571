"""Blow-up models of stable curves and their spin-degree combinatorics.

Blowing up a node inserts an exceptional component, a smooth rational curve
meeting the rest of the curve in two points: a node between components u
and v becomes an exceptional vertex joined once to each, and a self-node of
v one joined to v twice, v's arithmetic genus dropping by one.  Exceptional
vertices are pairwise disjoint: no two of them are ever joined.

On such a model with twist parameter t, the canonical spin multidegree is

    d(v) = (2t+1) * (pa(v) - 1) + t * contact(v) + core_contact(v) / 2

on non-exceptional (core) vertices and 1 on exceptional ones, core_contact
counting the nodes shared with core neighbors.  The halving needs spin
parity (every core_contact even, as Cornalba requires of spin curves), which
`spin_multidegree` reads off the exceptional rows with the core contacts.

`expand` builds the model through the trusted graph builder and still
checks its invariants (its contraction against the source, its origin table
against the config); a failure raises RuntimeError with the source and
blow-ups to replay.

The boundary predicates decide whether a subcurve sits at an end of its
admissible degree range, whether the model is GIT-stable, and whether its
orbit is closed.  Within the subset cap they and `basic_inequality` on the
spin multidegree read one kernel pass per model and twist (`_model_lanes`,
one lane per subcurve): two calls of the doubling recurrence that
`basic_inequality` runs, every other column linear in theirs.  Past the cap,
`_checked_row` checks single subcurves.  The lane format, the recurrence,
the count helpers and ``check_t`` come from :mod:`spinpicard.graphs`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property
from operator import mul, not_
from types import SimpleNamespace
from typing import TYPE_CHECKING, Iterable, Iterator, Optional

from .errors import BlowupError, GraphError, ParityError, _Record
from .graphs import (
    MAX_SUBSET_VERTICES,
    DualGraph,
    Multidegree,
    Vertex,
    _as_subcurve,
    _check_cap,
    _check_kind,
    _check_pair_bounds,
    _converted,
    _count_items,
    _fraction,
    _internal_error,
    _lane_format,
    _lanes,
    _mask_numbers,
    _odd_vertex,
    _pair,
    _pair_counts,
    _record,
    _require_genus,
    _scaled_lower,
    _spin_base,
    _subset_lanes,
    _unchecked,
    check_t,
)

if TYPE_CHECKING:
    from fractions import Fraction

__all__ = [
    "BlowupConfig",
    "QuasistableGraph",
    "ExceptionalProfile",
    "BoundaryCase",
    "expand",
    "contract",
    "spin_parity",
    "spin_multidegree",
    "exceptional_profile",
    "boundary_case",
    "git_stable",
    "git_stable_exhaustive",
    "orbit_closed_check",
    "iter_blowup_configs",
    "check_t",
]


class BlowupConfig:
    """Which nodes of a stable graph get blown up.

    ``s`` maps an unordered pair of vertex ids to the number of their shared
    nodes to blow up; ``r`` maps a vertex id to the number of its self-nodes to
    blow up.  Entries with count zero are dropped.  Immutable by convention.
    """

    def __init__(self, s=None, r=None) -> None:
        self._s = _pair_counts(s, BlowupError, "use r for self-nodes")
        self._r: dict[str, int] = {}
        for vid, count in _count_items(r, "r", BlowupError):
            if not (isinstance(vid, str) and vid):
                raise BlowupError(f"r[{vid!r}]: vertex id must be a non-empty string")
            _record(self._r, vid, count, f"r[{vid}]", BlowupError)

    def s(self, u: str, v: str) -> int:
        return self._s.get(_pair(u, v), 0)

    def r(self, vid: str) -> int:
        return self._r.get(vid, 0)

    def s_items(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((u, v, c) for (u, v), c in sorted(self._s.items()))

    def r_items(self) -> tuple[tuple[str, int], ...]:
        return tuple(sorted(self._r.items()))

    @property
    def total(self) -> int:
        """Number of exceptional components the expansion will create."""
        return sum(self._s.values()) + sum(self._r.values())

    def validate(self, graph: DualGraph) -> None:
        _check_kind(graph, DualGraph, "graph")
        _check_pair_bounds(graph, self._s, BlowupError)
        for vid, count in self.r_items():
            if count > graph.self_nodes(vid):
                raise BlowupError(
                    f"r[{vid}] = {count} exceeds the {graph.self_nodes(vid)} "
                    f"self-nodes of {vid}"
                )

    @classmethod
    def from_dict(cls, raw) -> "BlowupConfig":
        """Parse the documented JSON object form.

        Shape: ``{"s": [{"u": ..., "v": ..., "count": ...}],
        "r": [{"vertex": ..., "count": ...}]}``; each array absent, null or given.
        """
        if not isinstance(raw, Mapping):
            raise BlowupError("blow-up description must be a JSON object")
        unknown = set(raw) - {"s", "r"}
        if unknown:
            raise BlowupError(f"unknown top-level fields: {', '.join(sorted(unknown))}")
        tables = []
        for key, fields in (("s", ("u", "v", "count")), ("r", ("vertex", "count"))):
            entries = [] if raw.get(key) is None else raw[key]
            if not isinstance(entries, list):
                raise BlowupError(f"'{key}' must be an array")
            for i, entry in enumerate(entries):
                if not isinstance(entry, Mapping) or set(entry) != set(fields):
                    raise BlowupError(f"{key}[{i}] must be an object with fields {', '.join(fields)}")
            tables.append([[entry[field] for field in fields] for entry in entries])
        return cls([((u, v), count) for u, v, count in tables[0]], tables[1])

    def to_dict(self) -> dict:
        return {
            "s": [{"u": u, "v": v, "count": c} for u, v, c in self.s_items()],
            "r": [{"vertex": vid, "count": c} for vid, c in self.r_items()],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BlowupConfig):
            return NotImplemented
        return (self._s, self._r) == (other._s, other._r)

    def __hash__(self) -> int:
        return hash((self.s_items(), self.r_items()))

    def __repr__(self) -> str:
        return f"BlowupConfig(s={dict(self._s)!r}, r={dict(self._r)!r})"


PairOrigin = tuple  # ("pair", u, v) or ("self", v)


class QuasistableGraph(DualGraph):
    """Dual graph of a blow-up model, with its exceptional vertices flagged.

    Invariants enforced on construction: every exceptional vertex is rational
    (pa 0, no self-nodes) with contact exactly 2, no two exceptional vertices
    are joined, and the origin table covers exactly the exceptional vertices.
    Contracting them all must recover the source graph (checked on node
    counts: each core pair keeps its nodes plus one per exceptional vertex of
    that origin, each core vertex its pa and self-nodes plus one per blown
    self-node), and the origin table counted per pair and per self-node host
    must be the config's s and r.
    """

    def __init__(
        self, vertices: Iterable, edges, *, exceptional: Iterable[str],
        origin: Mapping[str, PairOrigin], source: DualGraph, config: BlowupConfig,
    ) -> None:
        super().__init__(vertices, edges)
        fault = self._flag(exceptional, origin, source, config)
        if fault is not None:
            raise GraphError(fault)

    @classmethod
    def _trusted(cls, vertices, adjacency, *, exceptional, origin, source, config):
        """A model built by `expand` from a validated source and config.  The
        invariants are checked as on construction, but a failure is the
        library's own: it raises RuntimeError whose payload replays through
        `expand`."""
        q = super()._trusted(vertices, adjacency)
        fault = q._flag(exceptional, origin, source, config)
        if fault is not None:
            raise _model_error(q, fault)
        return q

    def _flag(self, exceptional, origin, source, config) -> Optional[str]:
        """Set the blow-up data and return the first broken invariant's
        message, or None when all hold."""
        self.exceptional = exc = _converted(frozenset, exceptional, "exceptional", "vertex ids")
        self.origin = _converted(dict, origin, "origin", "a mapping of exceptional ids to origins")
        self.source = source
        self.config = config
        self._spin_cache: dict[int, Multidegree] = {}
        self._row_cache: dict[int, SimpleNamespace] = {}

        for vid in sorted(exc, key=str):
            i = self.index(vid)
            vert = self._vertices[i]
            if vert.pa != 0 or vert.self_nodes != 0:
                return f"exceptional vertex {vid!r} must be smooth rational"
            if self._contacts[i] != 2:
                return (
                    f"exceptional vertex {vid!r} must meet the rest of the curve "
                    f"in exactly 2 points, found {self._contacts[i]}"
                )
            if not exc.isdisjoint(self._adjacency[vid]):
                nbr = min(exc.intersection(self._adjacency[vid]))
                return (
                    f"exceptional vertices {vid!r} and {nbr!r} are joined; "
                    f"exceptional components must be pairwise disjoint"
                )
        if self.origin.keys() != exc:
            return "origin table must cover exactly the exceptional vertices"
        blown: dict = {}  # by sorted pair and by self-node host, as config's s and r
        for vid, origin in self.origin.items():
            shape = (origin[0], len(origin)) if isinstance(origin, tuple) and origin else None
            if shape == ("pair", 3) and isinstance(origin[1], str) and isinstance(origin[2], str):
                key = _pair(origin[1], origin[2])
            elif shape == ("self", 2) and isinstance(origin[1], str):
                key = origin[1]
            else:
                return f"origin of {vid!r} must be ('pair', u, v) or ('self', v), got {origin!r}"
            blown[key] = blown.get(key, 0) + 1
        try:
            contracted = _contraction(self)
        except KeyError:  # an origin names no core vertex
            contracted = None
        if not isinstance(source, DualGraph) or contracted != (source._vertices, source._adjacency):
            return "contracting the exceptional vertices does not recover the source graph"
        if not isinstance(config, BlowupConfig) or blown != {**config._s, **config._r}:
            return "the blow-up config does not match the origin table"
        return None

    @property
    def core_ids(self) -> tuple[str, ...]:
        """Non-exceptional vertex ids in sorted order."""
        return tuple(v for v in self.ids if v not in self.exceptional)

    def is_exceptional(self, vid: str) -> bool:
        self.index(vid)
        return vid in self.exceptional

    def core_contact(self, vid: str) -> int:
        """Nodes joining vid to non-exceptional components only."""
        self.index(vid)
        return sum(m for nbr, m in self._adjacency[vid].items() if nbr not in self.exceptional)

    def _lane_verdict(self, multidegree: Multidegree) -> Optional[bool]:
        """True when the lanes at the twist of this spin multidegree show the basic inequality."""
        t = next((t for t, md in self._spin_cache.items() if md.items == multidegree.items), None)
        return None if t is None else _model_lanes(self, t).satisfied

    @cached_property
    def _exceptional_mask(self) -> int:
        return sum(1 << self._index[vid] for vid in self.exceptional)

    @cached_property
    def _core_nodes(self) -> tuple:
        """The node matrix with exceptional rows and columns zeroed, its row
        sums cc_v, and delta_v: 2 on an exceptional vertex, cc_v - c_v on a core one."""
        keep = [vid not in self.exceptional for vid in self.ids]
        zero = [0] * self.n
        rows = [list(map(mul, row, keep)) if k else zero for row, k in zip(self._matrix, keep)]
        contacts = list(map(sum, rows))
        deltas = [cc - c if k else 2 for cc, c, k in zip(contacts, self._contacts, keep)]
        return rows, contacts, deltas

    def __repr__(self) -> str:
        return (
            f"QuasistableGraph({self.n} vertices, {len(self.exceptional)} exceptional, "
            f"genus {self.genus})"
        )


def _fresh_id(base: str, taken: set) -> str:
    vid = base
    while vid in taken:
        vid = "_" + vid
    taken.add(vid)
    return vid


def expand(graph: DualGraph, config: BlowupConfig) -> QuasistableGraph:
    """Blow up the selected nodes, producing the quasistable model's graph.

    The arithmetic genus is preserved.  With an all-zero config the result has
    no exceptional vertices and equals the input graph.
    """
    _check_kind(graph, DualGraph, "graph")
    _check_kind(config, BlowupConfig, "config", BlowupError)
    config.validate(graph)
    taken = set(graph.ids)
    adjacency = {vid: row.copy() for vid, row in graph._adjacency.items()}
    origin: dict[str, PairOrigin] = {}
    for u, v, count in config.s_items():
        row_u, row_v = adjacency[u], adjacency[v]
        rest = row_u[v] - count
        if rest:
            row_u[v] = row_v[u] = rest
        else:
            del row_u[v], row_v[u]
        for idx in range(1, count + 1):
            eid = _fresh_id(f"E({u}|{v})#{idx}", taken)
            adjacency[eid] = {u: 1, v: 1}
            row_u[eid] = row_v[eid] = 1
            origin[eid] = ("pair", u, v)
    vertices = list(graph.vertices)
    for vid, count in config.r_items():
        i = graph._index[vid]
        pa, self_nodes = vertices[i].pa - count, vertices[i].self_nodes - count
        vertices[i] = _unchecked(Vertex, {"id": vid, "pa": pa, "self_nodes": self_nodes})
        for idx in range(1, count + 1):
            eid = _fresh_id(f"E({vid}|{vid})#{idx}", taken)
            adjacency[eid] = {vid: 2}
            adjacency[vid][eid] = 2
            origin[eid] = ("self", vid)
    vertices += [_unchecked(Vertex, {"id": eid, "pa": 0, "self_nodes": 0}) for eid in origin]
    return QuasistableGraph._trusted(
        vertices, adjacency, exceptional=origin, origin=origin, source=graph, config=config
    )


def _contraction(q: QuasistableGraph) -> tuple[tuple[Vertex, ...], dict[str, dict[str, int]]]:
    """Vertices and node rows of the graph that contracting every exceptional
    vertex of q leaves: each exceptional vertex restores the node its origin
    names.  KeyError when an origin names no core vertex."""
    exc = q.exceptional
    adjacency = {
        vid: {nbr: m for nbr, m in row.items() if nbr not in exc}
        for vid, row in q._adjacency.items() if vid not in exc
    }
    blown = dict.fromkeys(adjacency, 0)
    for kind, *ends in map(q.origin.__getitem__, exc):
        if kind == "pair":
            u, v = ends
            adjacency[u][v] = adjacency[v][u] = adjacency[u].get(v, 0) + 1
        else:
            (v,) = ends
            blown[v] += 1
    vertices = tuple(
        _unchecked(Vertex, {"id": v.id, "pa": v.pa + b, "self_nodes": v.self_nodes + b})
        if (b := blown[v.id]) else v
        for v in q._vertices if v.id not in exc
    )
    return vertices, adjacency


def contract(q: QuasistableGraph) -> DualGraph:
    """Contract every exceptional vertex, restoring the node it replaced."""
    _check_kind(q, QuasistableGraph, "q")
    return DualGraph._trusted(*_contraction(q))


def spin_parity(graph: DualGraph, config: BlowupConfig) -> bool:
    """Whether the blow-up admits a spin structure: every vertex must keep an
    even number of unblown nodes with other components.

    Self-node blow-ups are irrelevant to parity.
    """
    _check_kind(graph, DualGraph, "graph")
    _check_kind(config, BlowupConfig, "config", BlowupError)
    config.validate(graph)
    return _odd_vertex(graph, config._s) is None


def spin_multidegree(q: QuasistableGraph, t: int, *, unsafe_t: bool = False) -> Multidegree:
    """The canonical spin multidegree of the model at twist t.

    Exceptional vertices carry degree 1; the total is (2t+1)(g-1).
    Raises ParityError when the model admits no spin structure: a core
    vertex keeps an odd number of nodes with other core vertices.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    if t in q._spin_cache:
        return q._spin_cache[t]
    exc, core_contact = q.exceptional, q._core_nodes[1]
    odd = next((i for i, c in enumerate(core_contact) if c % 2), None)
    if odd is not None:
        raise ParityError(
            f"no spin structure: vertex {q.ids[odd]!r} keeps {core_contact[odd]} nodes with "
            f"non-exceptional neighbors (odd)"
        )
    md = _unchecked(Multidegree, "items", tuple([
        (vid, 1 if vid in exc else base + c // 2)
        for vid, base, c in zip(q.ids, _spin_base(q, t), core_contact)
    ]))
    expected = (2 * t + 1) * (q.genus - 1)
    if md.total != expected:
        raise _model_error(
            q, f"spin multidegree totals {md.total}, expected {expected}",
            t=t, multidegree=md.as_dict(),
        )
    q._spin_cache[t] = md
    return md


def _model_error(q: QuasistableGraph, message: str, mask: int = 0, **context) -> RuntimeError:
    """Internal error on a blow-up model, naming the subcurve ``mask`` if any,
    with the source graph and blow-up config that ``expand`` rebuilds it from."""
    if mask:
        context["subcurve"] = [vid for i, vid in enumerate(q.ids) if mask >> i & 1]
    return _internal_error(
        message, q, source=q.source.to_dict(), blowups=q.config.to_dict(), **context
    )


def _node_counts(q: QuasistableGraph, mask: int) -> tuple[int, int, int, int]:
    """Core contact, core-internal, inner and outer nodes of one mask in one
    O(n^2) pass over the core rows of the node matrix, which see every node
    (exceptionals are never joined): the per-mask route past the cap."""
    exc = q._exceptional_mask
    core_contact = core_internal = inner = outer = 0
    for i, row in enumerate(q._matrix):
        if exc >> i & 1:
            continue
        in_y = mask >> i & 1
        for j, m in enumerate(row):
            if not m:
                continue
            if (mask >> j & 1) == in_y:
                if in_y and j > i and not exc >> j & 1:
                    core_internal += m
            elif exc >> j & 1:
                if in_y:
                    outer += m
                else:
                    inner += m
            elif in_y:
                core_contact += m
    return core_contact, core_internal, inner, outer


def _checked_row(
    q: QuasistableGraph, mask: int, k_y: int, internal: int, counts: tuple,
    t: Optional[int] = None, degree: int = 0, offset: int = 0,
) -> Optional[tuple]:
    """The boundary row (degree, core_contact, inner_ok, outer_ok, at_min,
    at_max) of one mask from its contact, internal nodes, `_node_counts` and
    offset 2(g-1)(d(Y) - m(Y)), checked (without ``t``, only the t-free
    identities): Y's exceptionals fill their 2 slots each with nodes in Y and
    inner ones; k(Y) = core contact + inner + outer, none negative; and the
    offset is (g-1)(core contact + 2 inner), so exact ends and structural
    clauses agree.  A failure raises with a replayable payload."""
    core_contact, core_internal, inner, outer = counts
    taken = internal - core_internal + inner
    slots = 2 * (mask & q._exceptional_mask).bit_count()
    context = {} if t is None else {"t": t}
    if taken > slots:
        raise _model_error(q, "exceptional node count exceeds its bound", mask, **context)
    if taken < slots or min(core_contact, inner, outer) < 0 or core_contact + inner + outer != k_y:
        raise _model_error(q, "exceptional node slots unaccounted for", mask, **context)
    if t is None:
        return None
    g = q.genus
    at_min, at_max = offset == 0, offset == 2 * (g - 1) * k_y
    if offset != (g - 1) * (core_contact + 2 * inner):
        raise _model_error(
            q,
            f"boundary predicates disagree (direct min/max {at_min}/{at_max}, "
            f"structural {not core_contact and not inner}/{not core_contact and not outer})",
            mask, t=t,
        )
    return degree, core_contact, not inner, not outer, at_min, at_max


class ExceptionalProfile(_Record):
    """Exceptional-component bookkeeping for one subcurve Y of a blow-up model.

    components / core_components count the vertices of Y and its
    non-exceptional part; internal_nodes / core_internal_nodes count nodes
    between two distinct components of Y and between two non-exceptional ones;
    core_contact counts nodes joining Y's non-exceptional part to the
    non-exceptional part of the complement.
    """

    def __init__(
        self, subcurve: frozenset, components: int, core_components: int,
        internal_nodes: int, core_internal_nodes: int, core_contact: int,
    ) -> None:
        vars(self).update(
            subcurve=subcurve, components=components, core_components=core_components,
            internal_nodes=internal_nodes, core_internal_nodes=core_internal_nodes,
            core_contact=core_contact,
        )


def exceptional_profile(q: QuasistableGraph, subcurve: Iterable[str]) -> ExceptionalProfile:
    _check_kind(q, QuasistableGraph, "q")
    Y, mask = _as_subcurve(q, subcurve)
    _, k_y, internal = _mask_numbers(q, mask)
    counts = _node_counts(q, mask)
    _checked_row(q, mask, k_y, internal, counts)
    return _unchecked(ExceptionalProfile, {
        "subcurve": Y,
        "components": mask.bit_count(),
        "core_components": (mask & ~q._exceptional_mask).bit_count(),
        "internal_nodes": internal,
        "core_internal_nodes": counts[1],
        "core_contact": counts[0],
    })


class BoundaryCase(_Record):
    """Whether a subcurve's spin degree sits at an end of its admissible range.

    ``at_min`` / ``at_max`` come from exact comparison of the degree with the
    range ends; the two ``..._avoid_...`` flags are the structural clauses
    (combined with core_contact == 0 they characterize the same facts, and the
    constructor of this report has already cross-checked the two routes).
    """

    def __init__(
        self, subcurve: frozenset, degree: int, lower: Fraction, contact: int,
        core_contact: int, at_min: bool, at_max: bool,
        inner_exceptionals_avoid_complement: bool, outer_exceptionals_avoid_subcurve: bool,
    ) -> None:
        vars(self).update(
            subcurve=subcurve, degree=degree, lower=lower, contact=contact,
            core_contact=core_contact, at_min=at_min, at_max=at_max,
            inner_exceptionals_avoid_complement=inner_exceptionals_avoid_complement,
            outer_exceptionals_avoid_subcurve=outer_exceptionals_avoid_subcurve,
        )

    @property
    def upper(self) -> Fraction:
        return self.lower + self.contact


def _model_lanes(q: QuasistableGraph, t: int) -> SimpleNamespace:
    """Every scan verdict and the packed columns of the model at twist t, one
    lane per mask, for the latest twist (callers run spin_multidegree at t
    first).  `_subset_lanes` gives k(Y) and d(Y) on the node matrix, and cc(Y)
    and D(Y) = inner - outer on `_core_nodes`.  So 2 inner = k - cc + D, 2
    outer = k - cc - D, and the offset 2(g-1)(d(Y) - m(Y)) and the room 2(g-1)
    k(Y) - offset are (g-1)(k + D) and (g-1)(k - D).  With internal(Y) = (sum c
    - k)/2 the offset identity is additive, so it is checked vertex by vertex
    (a failure replays that singleton through `_direct_row`); every lane of 2
    inner and 2 outer must be even and not negative.  The lanes hold sum |d_i|
    + sum (g-1)(c_i + delta_i) + 3(g-1) sum c_i, a bound on every column."""
    if t in q._row_cache:
        return q._row_cache[t]
    g = _require_genus(q)
    half = g - 1
    degrees = q._spin_cache[t].values(q.ids)
    core_matrix, core_contacts, deltas = q._core_nodes
    singles = [half * (c + delta) for c, delta in zip(q._contacts, deltas)]
    for i, (d, v, c, x) in enumerate(zip(degrees, q.vertices, q._contacts, singles)):
        if 2 * half * d - _scaled_lower((2 * t + 1) * half, g, v.pa, c) != x:
            _direct_row(q, t, 1 << i)
            raise _model_error(q, "boundary columns fail on no single subcurve", t=t)
    bound = sum(map(abs, (*degrees, *singles))) + 3 * half * sum(q._contacts)
    width, signs = _lane_format(bound, q.n)
    contact, degree = _subset_lanes(q._matrix, q._contacts, degrees, width)
    core_contact, balance = _subset_lanes(core_matrix, core_contacts, deltas, width)
    inner, outer = contact - core_contact + balance, contact - core_contact - balance  # doubled
    ones = signs >> (width - 1)
    # 2 inner and 2 outer differ by 2D, so one low bit tests both for evenness.
    if (inner + signs) & (outer + signs) & (signs | ones) != signs:
        lanes = zip(_lanes(inner, signs, width), _lanes(outer, signs, width))
        mask = next((m for m, (a, b) in enumerate(lanes) if m and (min(a, b) < 0 or a % 2)), 0)
        raise _model_error(q, "exceptional node slots unaccounted for", mask, t=t)
    offset, room = half * (contact + balance), half * (contact - balance)
    lows = signs - ones  # v + lows: sign bit clear exactly when v = 0
    # The GIT scan skips the top lane (the full curve) and unions of exceptionals.
    unions = 1 << (width - 1)
    for vid in q.exceptional:
        unions |= unions << (width << q._index[vid])
    q._row_cache = {t: SimpleNamespace(
        satisfied=(offset + signs) & (room + signs) & signs == signs,
        git_stable=not (~(room + lows) & signs >> width & ~unions),
        orbit_closed=not (~(offset + lows) & (core_contact + lows) & signs),
        signs=signs, width=width, rows=None,
        columns=(degree, core_contact, inner, outer, offset, room, contact),
    )}
    return q._row_cache[t]


def _table_rows(q: QuasistableGraph, t: int) -> list:
    """(m(Y), k(Y), row) of every mask at twist t (index 0 the empty mask),
    decoded once from the model's packed columns, one Fraction per distinct m(Y)."""
    table = _model_lanes(q, t)
    if table.rows is None:
        degree, core_contact, inner, outer, offset, room, contact = (
            _lanes(column, table.signs, table.width) for column in table.columns
        )
        scale = 2 * (q.genus - 1)
        scaled = [scale * d - x for d, x in zip(degree, offset)]  # 2(g-1) m(Y)
        lowers = {x: _fraction(x, scale) for x in set(scaled)}
        rows = zip(degree, core_contact, *(map(not_, x) for x in (inner, outer, offset, room)))
        table.rows = list(zip(map(lowers.__getitem__, scaled), contact, rows))
        table.columns = None
    return table.rows


def _direct_row(q: QuasistableGraph, t: int, mask: int) -> tuple[Fraction, int, tuple]:
    """(lower, contact, row) of one mask in O(n^2), for models over the cap."""
    g_y, k_y, internal = _mask_numbers(q, mask)
    g = _require_genus(q)
    degrees = q._spin_cache[t].values(q.ids)
    degree = sum(d for i, d in enumerate(degrees) if mask >> i & 1)
    offset = 2 * (g - 1) * degree - _scaled_lower((2 * t + 1) * (g - 1), g, g_y, k_y)
    row = _checked_row(q, mask, k_y, internal, _node_counts(q, mask), t, degree, offset)
    return degree - _fraction(offset, 2 * (g - 1)), k_y, row


def boundary_case(
    q: QuasistableGraph, t: int, subcurve: Iterable[str], *, unsafe_t: bool = False
) -> BoundaryCase:
    """Decide d(Y) = m(Y) and d(Y) = m(Y) + k(Y) for one subcurve, twice.

    Route one compares exact rationals; route two tests the structural
    characterization (core_contact zero plus the appropriate exceptional
    clause).  The routes must agree, else RuntimeError: the degree formulas
    and the combinatorics would have come apart.  Within MAX_SUBSET_VERTICES
    this is a lookup in the model's boundary table for t, decoded once from
    its packed columns; larger models compute the one row directly.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    rows = getattr(q._row_cache.get(t), "rows", None)
    if rows is None:  # the first call at t: the spin structure, then the table
        spin_multidegree(q, t, unsafe_t=unsafe_t)
        rows = None if q.n > MAX_SUBSET_VERTICES else _table_rows(q, t)
    Y, mask = _as_subcurve(q, subcurve)
    lower, contact, (degree, core_contact, inner_ok, outer_ok, at_min, at_max) = (
        _direct_row(q, t, mask) if rows is None else rows[mask]
    )
    return _unchecked(BoundaryCase, {
        "subcurve": Y, "degree": degree, "lower": lower, "contact": contact,
        "core_contact": core_contact, "at_min": at_min, "at_max": at_max,
        "inner_exceptionals_avoid_complement": inner_ok,
        "outer_exceptionals_avoid_subcurve": outer_ok,
    })


def git_stable(q: QuasistableGraph, t: int, *, unsafe_t: bool = False) -> bool:
    """GIT stability of the spin model: the non-exceptional part is connected.

    The twist only needs to be in range and the model spin, which
    spin_multidegree checks (once per twist); the verdict does not depend on t.
    """
    _check_kind(q, QuasistableGraph, "q")
    spin_multidegree(q, t, unsafe_t=unsafe_t)
    core = q.core_ids
    return len(q._reached(core[0], q.exceptional)) == len(core)


def git_stable_exhaustive(
    q: QuasistableGraph, t: int, *, unsafe_t: bool = False, max_vertices: Optional[int] = None
) -> bool:
    """Independent oracle for git_stable by full subcurve scan.

    Unstable exactly when some proper subcurve that is not a union of
    exceptional components attains the top of its degree range.  (The full
    curve always attains it trivially, hence 'proper'.)  The scan reads the
    lanes of the model's packed columns for t where the offset 2(g-1)(d(Y) -
    m(Y)) reaches 2(g-1) k(Y), checked against the structural clauses.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    _check_cap(q, max_vertices)
    if q.n == 1:
        return True  # a single component has no proper subcurve
    spin_multidegree(q, t, unsafe_t=unsafe_t)
    return _model_lanes(q, t).git_stable


def orbit_closed_check(
    q: QuasistableGraph, t: int, *, unsafe_t: bool = False, max_vertices: Optional[int] = None
) -> bool:
    """Exhaustively verify the orbit-closure criterion: the oracle.

    The orbit is closed when every subcurve attaining the bottom of its degree
    range has core_contact zero.  For spin models this holds universally,
    since d(Y) - m(Y) = core_contact(Y)/2 + (nodes from Y's exceptional
    components to the rest), and the CLI answers from that identity; this
    check performs the scan for real instead, on every lane of the model's
    packed columns for t, checked against the structural clauses.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    _check_cap(q, max_vertices)
    spin_multidegree(q, t, unsafe_t=unsafe_t)
    return _model_lanes(q, t).orbit_closed


def iter_blowup_configs(graph: DualGraph, *, spin_only: bool = False) -> Iterator[BlowupConfig]:
    """Every blow-up configuration of the graph, in a deterministic order.

    Ranges over all node subsets by count: each joined pair contributes
    0..k(u, v) and each vertex 0..self_nodes choices, pairs outermost.  With
    ``spin_only`` each choice of pair counts is tested for parity once, before
    the self-node counts (parity ignores them); configs are built in range,
    unchecked.  Their number is the product of the ranges: keep graphs small.
    The graph is checked on the call, before any iteration.
    """
    _check_kind(graph, DualGraph, "graph")
    pairs = list(graph.pairs())
    selfs = [v for v in graph.vertices if v.self_nodes]
    r_tables = [
        {v.id: c for v, c in zip(selfs, choice) if c}
        for choice in itertools.product(*[range(v.self_nodes + 1) for v in selfs])
    ]
    def configs() -> Iterator[BlowupConfig]:
        for choice in itertools.product(*[range(k + 1) for _, _, k in pairs]):
            s = {(u, v): c for (u, v, _), c in zip(pairs, choice) if c}
            if spin_only and _odd_vertex(graph, s) is not None:
                continue
            for r in r_tables:
                config = _unchecked(BlowupConfig, "_s", s)
                config._r = r
                yield config
    return configs()
