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
orbit is closed.  Within the subset cap they read one twist-free kernel per
model (`_model_lanes`, one lane per subcurve, from two calls of the recurrence
`basic_inequality` runs).  The twist lives in one record per model, the
latest twist's spin multidegree and, once `boundary_case` asks, its rows.
Past the cap, `_mask_counts` checks single subcurves.  The lane format, the
recurrence, the count helpers and ``check_t`` come from :mod:`spinpicard.graphs`.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from functools import cached_property
from operator import not_
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
        Plain JSON is read in one pass, anything else by the checks naming its fault.
        """
        if cls is BlowupConfig and type(raw) is dict and raw.keys() <= {"s", "r"}:
            pairs, hosts = ([] if x is None else x for x in (raw.get("s"), raw.get("r")))
            if type(pairs) is list and type(hosts) is list:
                s = {_pair(u, v): c for e in pairs if type(e) is dict and len(e) == 3
                     and type(u := e.get("u")) is type(v := e.get("v")) is str and u and v
                     and u != v and type(c := e.get("count")) is int and c >= 0}
                r = {vid: c for e in hosts if type(e) is dict and len(e) == 2
                     and type(vid := e.get("vertex")) is str and vid
                     and type(c := e.get("count")) is int and c >= 0}
                if len(s) == len(pairs) and len(r) == len(hosts):  # every entry, no key twice
                    config = _unchecked(BlowupConfig, "_s", {k: c for k, c in s.items() if c})
                    config._r = {vid: c for vid, c in r.items() if c}
                    return config
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
        self._kernel = self._twist = None  # `_model_lanes` and `spin_multidegree` set them

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
        """The kernel's verdict when this is the latest twist's spin multidegree, else None."""
        record = self._twist
        spin = record is not None and record.spin.items == multidegree.items
        return _model_lanes(self).satisfied if spin else None

    @cached_property
    def _exceptional_mask(self) -> int:
        return sum(1 << self._index[vid] for vid in self.exceptional)

    @cached_property
    def _core_nodes(self) -> tuple:
        """The node rows `_later` of core pairs alone, the core contacts cc_v,
        and delta_v: 2 on an exceptional vertex, cc_v - c_v on a core one."""
        keep, contacts = [vid not in self.exceptional for vid in self._ids], [0] * self.n
        rows = [[(j, m) for j, m in row if keep[j]] if k else ()
                for row, k in zip(self._later, keep)]
        for i, row in enumerate(rows):
            for j, m in row:
                contacts[i] += m
                contacts[j] += m
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
    vertex keeps an odd number of nodes with other core vertices.  Each degree
    is tied to the model kernel, 2(g-1)(d_v - m(v)) = (g-1)(c_v + delta_v).
    The model keeps one twist record, ``q._twist``; another t replaces it.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    if (record := q._twist) is not None and record.t == t:
        return record.spin
    exc, (_, core_contact, deltas), half = q.exceptional, q._core_nodes, q.genus - 1
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
    for i, ((_, d), v, c, delta) in enumerate(zip(md.items, q.vertices, q._contacts, deltas)):
        if 2 * half * d - _scaled_lower((2 * t + 1) * half, q.genus, v.pa, c) != half * (c + delta):
            raise _model_error(q, "boundary predicates disagree on a single component", 1 << i, t=t)
    expected = (2 * t + 1) * half
    if md.total != expected:
        raise _model_error(
            q, f"spin multidegree totals {md.total}, expected {expected}",
            t=t, multidegree=md.as_dict(),
        )
    q._twist = SimpleNamespace(t=t, spin=md, rows=None)
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
    """Core contact, core-internal, inner and outer nodes of one mask, one
    O(n + E) walk over the node rows: the per-mask route past the cap.  No two
    exceptionals are joined, so a pair with one is inner or outer by its end in Y."""
    exc, counts = q._exceptional_mask, [0, 0, 0, 0]
    for i, row in enumerate(q._later):
        for j, m in row:
            in_i, in_j = mask >> i & 1, mask >> j & 1
            if (exc >> i | exc >> j) & 1:  # inner when the exceptional end is in Y
                if in_i != in_j:
                    counts[2 if in_i == exc >> i & 1 else 3] += m
            elif in_i or in_j:  # core contact, or core internal with both in Y
                counts[in_i & in_j] += m
    return tuple(counts)


def _mask_counts(q: QuasistableGraph, mask: int) -> tuple[int, ...]:
    """(genus, contact, internal, core contact, core internal, inner, outer) of
    one mask, checked t-free: Y's exceptionals fill their 2 slots each with
    nodes in Y and inner ones, and k(Y) = core contact + inner + outer, none
    negative.  A failure raises with a payload the source and blow-ups replay."""
    g_y, k_y, internal = _mask_numbers(q, mask)
    core_contact, core_internal, inner, outer = counts = _node_counts(q, mask)
    taken = internal - core_internal + inner
    slots = 2 * (mask & q._exceptional_mask).bit_count()
    if taken > slots:
        raise _model_error(q, "exceptional node count exceeds its bound", mask)
    if taken < slots or min(core_contact, inner, outer) < 0 or core_contact + inner + outer != k_y:
        raise _model_error(q, "exceptional node slots unaccounted for", mask)
    return (g_y, k_y, internal, *counts)


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
    _, _, internal, core_contact, core_internal, _, _ = _mask_counts(q, mask)
    return _unchecked(ExceptionalProfile, {
        "subcurve": Y,
        "components": mask.bit_count(),
        "core_components": (mask & ~q._exceptional_mask).bit_count(),
        "internal_nodes": internal,
        "core_internal_nodes": core_internal,
        "core_contact": core_contact,
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


def _model_lanes(q: QuasistableGraph) -> SimpleNamespace:
    """The model kernel: every scan verdict and the packed columns, one lane
    per mask, built once per model and kept for its life; no column depends on
    the twist.  `_subset_lanes` gives k(Y) and W(Y), the sum of w_v = 2pa_v - 2
    + c_v, on the node rows `_later`, and cc(Y) and D(Y) = inner - outer on
    `_core_nodes`.  So 2 inner = k - cc + D, 2 outer = k - cc - D, and at
    every twist the offset 2(d(Y) - m(Y)) and the room 2k(Y) - offset are k +
    D and k - D (`spin_multidegree` ties the degrees to these columns); every
    lane of 2 inner and 2 outer must be even and not negative.  The lanes hold
    sum |w_v| + 2 sum c_v, a bound on every column.  Nothing here depends on t."""
    if q._kernel is not None:
        return q._kernel
    _require_genus(q)
    core_rows, core_contacts, deltas = q._core_nodes
    weights = [2 * v.pa - 2 + c for v, c in zip(q.vertices, q._contacts)]
    width, signs = _lane_format(sum(map(abs, weights)) + 2 * sum(q._contacts), q.n)
    contact, weight = _subset_lanes(q._later, q._contacts, weights, width)
    core_contact, balance = _subset_lanes(core_rows, core_contacts, deltas, width)
    inner, outer = contact - core_contact + balance, contact - core_contact - balance  # doubled
    ones = signs >> (width - 1)
    # 2 inner and 2 outer differ by 2D, so one low bit tests both for evenness.
    if (inner + signs) & (outer + signs) & (signs | ones) != signs:
        lanes = zip(_lanes(inner, signs, width), _lanes(outer, signs, width))
        mask = next((m for m, (a, b) in enumerate(lanes) if m and (min(a, b) < 0 or a % 2)), 0)
        raise _model_error(q, "exceptional node slots unaccounted for", mask)
    offset, room = contact + balance, contact - balance
    lows = signs - ones  # v + lows: sign bit clear exactly when v = 0
    # The GIT scan skips the top lane (the full curve) and unions of exceptionals.
    unions = 1 << (width - 1)
    for vid in q.exceptional:
        unions |= unions << (width << q._index[vid])
    q._kernel = SimpleNamespace(
        satisfied=(offset + signs) & (room + signs) & signs == signs,
        git_stable=not (~(room + lows) & signs >> width & ~unions),
        orbit_closed=not (~(offset + lows) & (core_contact + lows) & signs),
        signs=signs, width=width,
        columns=(contact, weight, core_contact, inner, outer, offset, room),
    )
    return q._kernel


def _table_rows(q: QuasistableGraph, t: int) -> list:
    """(m(Y), k(Y), row) of every mask at twist t, decoded from the kernel's
    columns, in which the rows are linear: 2m(Y) = (2t+1) W(Y) - k(Y) and
    2d(Y) = 2m(Y) + offset.  One Fraction per distinct m(Y); nothing is kept."""
    kernel = _model_lanes(q)
    contact, weight, core_contact, inner, outer, offset, room = (
        _lanes(column, kernel.signs, kernel.width) for column in kernel.columns
    )
    twice = [(2 * t + 1) * w - k for w, k in zip(weight, contact)]  # 2 m(Y)
    lowers = {x: _fraction(x, 2) for x in set(twice)}
    degree = [(x + y) >> 1 for x, y in zip(twice, offset)]
    rows = zip(degree, core_contact, *(map(not_, x) for x in (inner, outer, offset, room)))
    return list(zip(map(lowers.__getitem__, twice), contact, rows))


def _direct_row(
    q: QuasistableGraph, t: int, spin: Multidegree, mask: int
) -> tuple[Fraction, int, tuple]:
    """(lower, contact, row) of one mask past the cap, from the caller's spin
    multidegree at t.  Beyond `_mask_counts`, the offset 2(g-1)(d(Y) - m(Y))
    must be (g-1)(core contact + 2 inner): exact ends and structural clauses agree."""
    g = _require_genus(q)
    g_y, k_y, _, core_contact, _, inner, outer = _mask_counts(q, mask)
    degree = sum(d for i, d in enumerate(spin.values(q.ids)) if mask >> i & 1)
    offset = 2 * (g - 1) * degree - _scaled_lower((2 * t + 1) * (g - 1), g, g_y, k_y)
    at_min, at_max = offset == 0, offset == 2 * (g - 1) * k_y
    if offset != (g - 1) * (core_contact + 2 * inner):
        raise _model_error(
            q,
            f"boundary predicates disagree (direct min/max {at_min}/{at_max}, "
            f"structural {not core_contact and not inner}/{not core_contact and not outer})",
            mask, t=t,
        )
    row = degree, core_contact, not inner, not outer, at_min, at_max
    return degree - _fraction(offset, 2 * (g - 1)), k_y, row


def boundary_case(
    q: QuasistableGraph, t: int, subcurve: Iterable[str], *, unsafe_t: bool = False
) -> BoundaryCase:
    """Decide d(Y) = m(Y) and d(Y) = m(Y) + k(Y) for one subcurve, twice.

    Route one compares exact rationals; route two tests the structural
    characterization (core_contact zero plus the appropriate exceptional
    clause).  The routes must agree, else RuntimeError: the degree formulas
    and the combinatorics would have come apart.  Within MAX_SUBSET_VERTICES
    this is a lookup in the twist record's rows, decoded on the first call at
    t; larger models compute the one row directly.  Each call keeps the record it read.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    while (record := q._twist) is None or record.t != t:  # first call at t, or another t between
        spin_multidegree(q, t, unsafe_t=unsafe_t)
    rows = record.rows
    if rows is None and q.n <= MAX_SUBSET_VERTICES:
        rows = record.rows = _table_rows(q, t)
    Y, mask = _as_subcurve(q, subcurve)
    lower, contact, (degree, core_contact, inner_ok, outer_ok, at_min, at_max) = (
        _direct_row(q, t, record.spin, mask) if rows is None else rows[mask]
    )
    return _unchecked(BoundaryCase, {
        "subcurve": Y, "degree": degree, "lower": lower, "contact": contact,
        "core_contact": core_contact, "at_min": at_min, "at_max": at_max,
        "inner_exceptionals_avoid_complement": inner_ok,
        "outer_exceptionals_avoid_subcurve": outer_ok,
    })


def git_stable(q: QuasistableGraph, t: int, *, unsafe_t: bool = False) -> bool:
    """GIT stability of the spin model: the non-exceptional part is connected.

    The twist only needs to be in range, the model spin (spin_multidegree
    checks it once per twist) and its genus 2 or more; the verdict is t-free.
    """
    _check_kind(q, QuasistableGraph, "q")
    spin_multidegree(q, t, unsafe_t=unsafe_t)
    _require_genus(q)
    core = q.core_ids
    return len(q._reached(core[0], q.exceptional)) == len(core)


def git_stable_exhaustive(
    q: QuasistableGraph, t: int, *, unsafe_t: bool = False, max_vertices: Optional[int] = None
) -> bool:
    """Independent oracle for git_stable by full subcurve scan.

    Unstable exactly when some proper subcurve that is not a union of
    exceptional components attains the top of its degree range.  (The full
    curve always attains it trivially, hence 'proper'.)  The scan reads the
    lanes of the model kernel where the offset 2(d(Y) - m(Y)) reaches 2k(Y),
    checked against the structural clauses.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    _check_cap(q, max_vertices)
    spin_multidegree(q, t, unsafe_t=unsafe_t)
    return _model_lanes(q).git_stable


def orbit_closed_check(
    q: QuasistableGraph, t: int, *, unsafe_t: bool = False, max_vertices: Optional[int] = None
) -> bool:
    """Exhaustively verify the orbit-closure criterion: the oracle.

    The orbit is closed when every subcurve attaining the bottom of its degree
    range has core_contact zero.  For spin models this holds universally,
    since d(Y) - m(Y) = core_contact(Y)/2 + (nodes from Y's exceptional
    components to the rest), and the CLI answers from that identity; this
    check performs the scan for real instead, on every lane of the model
    kernel, checked against the structural clauses.
    """
    _check_kind(q, QuasistableGraph, "q")
    check_t(t, unsafe_t=unsafe_t)
    _check_cap(q, max_vertices)
    spin_multidegree(q, t, unsafe_t=unsafe_t)
    return _model_lanes(q).orbit_closed


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
