"""Dual graphs of nodal curves, subcurve invariants, and the basic inequality.

A connected projective nodal curve is encoded by its dual graph: one vertex per
irreducible component carrying that component's arithmetic genus ``pa`` (its own
self-nodes included) and its number of self-nodes, plus a symmetric table
``k(u, v)`` counting nodes that join two distinct components.

Degree bounds are exact.  Every lower bound ``m(Y)`` handed back is a
`fractions.Fraction`; subcurve scans compare integers scaled by 2(g - 1),
which is equally exact.  No floats are used anywhere in this module.  The
first rational built (`_fraction`) imports `fractions`, which loads
`decimal`, so a process that builds none loads neither.

Scaled by 2(g - 1), the basic inequality at any total is Hakimi's condition
for splitting the nodes of each pair between its two ends with prescribed
per-vertex quotas (Hakimi 1965).  One orientation kernel, shortest augmenting
paths over such splits, decides it in polynomial time; the multidegree
enumerator and the spin-locus questions run on it.  `basic_inequality`, which
reports every violated subcurve, scans them all as packed-integer lanes in
the one format (`_lane_format`, `_lanes`) the blow-up model kernel shares.
Every kernel on a graph comes from ``_Orientation.on_graph(graph, units)``:
2(g - 1) units per node for enumeration, 2 for spin witnesses.  Where the
singleton bounds are integers, enumeration lists orientations instead.

Graphs built from data the library has checked itself (the node rows of
parsed JSON, a blow-up, a contraction or a relabeling) come from one
builder, ``DualGraph._trusted``, which skips re-validation but still checks
connectivity.  Every other value the library derives itself (vertices,
multidegrees, profiles, violations and reports, blow-up configs, boundary
cases, witnesses and split-curve rows) comes from one helper, `_unchecked`,
which sets its attributes without running the class's validating
constructor.  The value classes are frozen records (`errors._Record`), not
dataclasses: their fields are the parameters of their ``__init__``, and
``vars()`` gives them.

The twist check, the spin base, and the per-pair count tables that blow-up
models and spin witnesses share live here as well, so
:mod:`spinpicard.spin_locus` imports this module alone and never
:mod:`spinpicard.quasistable`.

All classes are immutable (or immutable by convention) and all operations are
pure functions of their arguments, so values can be shared freely across
threads.
"""

from __future__ import annotations

import sys
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import compress
from operator import attrgetter
from typing import Iterable, Iterator, Optional, Sequence, Union

from .errors import DomainError, GraphError, GraphTooLargeError, _Record

__all__ = [
    "MAX_SUBSET_VERTICES",
    "Vertex",
    "DualGraph",
    "Multidegree",
    "SubcurveProfile",
    "BIViolation",
    "BIReport",
    "validate_graph",
    "arithmetic_genus",
    "is_stable",
    "subcurve_profile",
    "basic_inequality",
    "enumerate_multidegrees",
    "iter_subcurves",
]

#: Default cap on the vertex count of graphs fed to exhaustive subset scans.
#: Operations that enumerate all 2^n - 1 subcurves accept ``max_vertices`` to
#: override it explicitly.
MAX_SUBSET_VERTICES = 12


_WHOLE = object()


def _unchecked(cls: type, attrs, value=_WHOLE, _new=object.__new__, _set=object.__setattr__):
    """An instance of ``cls`` built without its checking ``__init__``, for
    values the library checked or derived itself.  ``attrs`` is its whole
    attribute dict, holding what the validating constructor would set, in
    its order, so the two agree on eq, hash, repr and vars; or, given
    ``value``, the name of one attribute, set as an assignment sets it: a
    multidegree's one field, or the first of a plain class, whose others the
    caller assigns.  Attributes set that way need no dict per instance; a
    dict each would double the memory of an enumeration's multidegrees and
    the time of a blow-up config.  (``_new`` and ``_set`` save two lookups
    per call.)"""
    instance = _new(cls)
    if value is _WHOLE:
        _set(instance, "__dict__", attrs)
    else:
        _set(instance, attrs, value)
    return instance


class Vertex(_Record):
    """One irreducible component: identifier, arithmetic genus, self-node count.

    ``pa`` is the arithmetic genus of the (possibly singular) component itself,
    so it already accounts for the component's ``self_nodes``; the geometric
    genus is ``pa - self_nodes`` and must be non-negative.
    """

    def __init__(self, id: str, pa: int, self_nodes: int = 0) -> None:
        _check_vertex(id, pa, self_nodes)
        vars(self).update(id=id, pa=pa, self_nodes=self_nodes)


def _check_vertex(vid, pa, self_nodes) -> None:
    """Raise GraphError unless the fields make a vertex: a non-empty string
    id, non-negative integers, and no more self-nodes than pa."""
    if not isinstance(vid, str) or not vid:
        raise GraphError(f"vertex id must be a non-empty string, got {vid!r}")
    for field, value in (("pa", pa), ("self_nodes", self_nodes)):
        if isinstance(value, bool) or not isinstance(value, int):
            raise GraphError(f"vertex {vid!r}: {field} must be an integer")
        if value < 0:
            raise GraphError(f"vertex {vid!r}: {field} must be non-negative")
    if pa < self_nodes:
        raise GraphError(
            f"vertex {vid!r}: pa={pa} is smaller than "
            f"self_nodes={self_nodes} (geometric genus would be negative)"
        )


VertexLike = Union[Vertex, tuple]
EdgeTable = Union[Mapping[tuple, int], Iterable[tuple]]


class DualGraph:
    """Weighted dual graph of a connected nodal curve.

    Instances are immutable by convention: no method mutates the graph after
    construction.  The genus and per-vertex contacts are set on construction;
    the sorted pairs and the node rows `_later` are memoized on first use.
    """

    def __init__(self, vertices: Iterable[VertexLike], edges: EdgeTable = ()) -> None:
        try:
            vs = [v if isinstance(v, Vertex) else Vertex(*v) for v in vertices]
        except TypeError:  # from the call, never from Vertex's own checks
            raise GraphError("vertices must be Vertex or (id, pa[, self_nodes]) tuples") from None
        if not vs:
            raise GraphError("a dual graph needs at least one vertex")
        try:  # the errors of unpacking
            pairs = edges.items() if isinstance(edges, Mapping) else ((p, m) for *p, m in edges)
            triples = [(u, v, mult) for (u, v), mult in pairs]
        except (TypeError, ValueError):
            raise GraphError("edges must be (u, v, count) triples or {(u, v): count}") from None
        self._build(vs, _node_rows(_unique_ids(vs), triples))

    @classmethod
    def _trusted(cls, vertices: Iterable[Vertex], adjacency: dict[str, dict[str, int]]):
        """A graph of data the library has checked or derived itself: distinct
        vertices in any order, and ``adjacency`` their symmetric node counts,
        positive entries only, keyed by exactly their ids, which the graph
        keeps.  Connectivity is still checked."""
        graph = object.__new__(cls)
        graph._build(vertices, adjacency)
        return graph

    def _build(self, vertices: Iterable[Vertex], adjacency: dict[str, dict[str, int]]) -> None:
        """Set the ids, index, contacts and genus, then check connectivity."""
        vs = tuple(sorted(vertices, key=_vertex_id))
        ids = tuple(map(_vertex_id, vs))
        contacts = tuple([sum(adjacency[u].values()) for u in ids])
        self._vertices: tuple[Vertex, ...] = vs
        self._ids: tuple[str, ...] = ids
        self._index: dict[str, int] = {vid: i for i, vid in enumerate(ids)}
        self._adjacency = adjacency
        self._contacts: tuple[int, ...] = contacts
        #: Arithmetic genus: sum(pa_i) + sum(k_ij over pairs) - n + 1.
        self.genus: int = sum(map(_vertex_pa, vs)) + sum(contacts) // 2 - len(ids) + 1
        stranded = sorted(set(ids) - self._reached(ids[0]))
        if stranded:
            raise GraphError(f"graph is disconnected; unreachable vertices: {', '.join(stranded)}")

    # -- structure ---------------------------------------------------------

    def _reached(self, start: str, skip: frozenset = frozenset()) -> set[str]:
        """The vertices a walk along the nodes from ``start`` reaches without
        entering ``skip``."""
        adjacency = self._adjacency
        todo = [start]
        reached = {start}
        for vid in todo:
            for nbr in adjacency[vid]:
                if nbr not in reached and nbr not in skip:
                    reached.add(nbr)
                    todo.append(nbr)
        return reached

    @property
    def vertices(self) -> tuple[Vertex, ...]:
        return self._vertices

    @property
    def ids(self) -> tuple[str, ...]:
        """Vertex identifiers in sorted order; the canonical coordinate order."""
        return self._ids

    @property
    def n(self) -> int:
        return len(self._ids)

    def index(self, vid: str) -> int:
        try:
            return self._index[vid]
        except KeyError:
            raise GraphError(f"unknown vertex id {vid!r}") from None
        except TypeError:  # unhashable, so never an id
            raise GraphError(f"vertex id must be a non-empty string, got {vid!r}") from None

    def vertex(self, vid: str) -> Vertex:
        return self._vertices[self.index(vid)]

    def pa(self, vid: str) -> int:
        return self.vertex(vid).pa

    def self_nodes(self, vid: str) -> int:
        return self.vertex(vid).self_nodes

    def k(self, u: str, v: str) -> int:
        """Number of nodes joining the distinct components u and v."""
        self.index(u)
        self.index(v)
        return 0 if u == v else self._adjacency[u].get(v, 0)

    def contact(self, vid: str) -> int:
        """Total number of nodes joining vid to all other components."""
        return self._contacts[self.index(vid)]

    def neighbors(self, vid: str) -> tuple[str, ...]:
        self.index(vid)
        return tuple(sorted(self._adjacency[vid]))

    def pairs(self) -> Iterator[tuple[str, str, int]]:
        """Yield (u, v, multiplicity) with u < v for every joined pair, sorted."""
        return iter(self._pairs)

    @cached_property
    def _pairs(self) -> tuple[tuple[str, str, int], ...]:
        """Every joined pair (u, v, multiplicity) with u < v, sorted: read off
        the neighbor rows once, on first use, since many graphs (blow-up
        models, say) never list their pairs."""
        adjacency = self._adjacency
        return tuple(sorted([
            (u, v, m) for u, row in adjacency.items() for v, m in row.items() if u < v
        ]))

    @cached_property
    def _later(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Node rows: per vertex i, the (j, nodes) of each joined j > i, every pair once."""
        index, adjacency = self._index, self._adjacency
        return tuple([
            tuple([(index[v], m) for v, m in adjacency[u].items() if v > u]) for u in self._ids
        ])

    def _lane_verdict(self, multidegree: "Multidegree") -> Optional[bool]:
        """True where kept lanes show the basic inequality; only blow-up models keep any."""

    # -- conversions -------------------------------------------------------

    def to_dict(self) -> dict:
        """The documented JSON object form of this graph."""
        return {
            "vertices": [
                {"id": v.id, "pa": v.pa, "self_nodes": v.self_nodes} for v in self._vertices
            ],
            "edges": [{"u": u, "v": v, "multiplicity": m} for u, v, m in self._pairs],
        }

    def relabeled(self, mapping: Mapping[str, str]) -> "DualGraph":
        """Copy of the graph with vertex ids renamed through an injective map."""
        mapping = _converted(dict, mapping, "mapping", "a bijection of the vertex ids")
        try:
            if mapping.keys() != set(self._ids) or len(set(mapping.values())) != self.n:
                raise GraphError("relabeling must be a bijection defined on every vertex id")
        except TypeError:  # an unhashable new id: the vertex check below names it
            pass
        vs = [Vertex(mapping[v.id], v.pa, v.self_nodes) for v in self._vertices]
        adjacency = {
            mapping[u]: {mapping[v]: m for v, m in row.items()}
            for u, row in self._adjacency.items()
        }
        return DualGraph._trusted(vs, adjacency)

    def _canonical(self) -> tuple:
        return (self._vertices, self._pairs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DualGraph):
            return NotImplemented
        return self._canonical() == other._canonical()

    def __hash__(self) -> int:
        return hash(self._canonical())

    def __repr__(self) -> str:
        return f"DualGraph({self.n} vertices, genus {self.genus})"


_GRAPH_FIELDS = frozenset({"vertices", "edges"})
_VERTEX_FIELDS = frozenset({"id", "pa", "self_nodes"})
_EDGE_FIELDS = frozenset({"u", "v", "multiplicity"})


def validate_graph(raw) -> DualGraph:
    """Parse a raw graph description (JSON object form) into a DualGraph.

    Expected shape::

        {"vertices": [{"id": "a", "pa": 1, "self_nodes": 0}, ...],
         "edges":    [{"u": "a", "v": "b", "multiplicity": 2}, ...]}

    ``self_nodes`` defaults to 0 when omitted.  Duplicate vertex ids, duplicate
    or asymmetric edge entries, unknown endpoints, non-positive multiplicities,
    pa < self_nodes, and disconnected graphs are all rejected.
    """
    if isinstance(raw, DualGraph):
        return raw
    if not isinstance(raw, (dict, Mapping)):
        raise GraphError("graph description must be a JSON object")
    if not _GRAPH_FIELDS.issuperset(raw):
        unknown = sorted(set(raw) - _GRAPH_FIELDS)
        raise GraphError(f"unknown top-level fields: {', '.join(unknown)}")

    verts_raw = raw.get("vertices")
    if not isinstance(verts_raw, list) or not verts_raw:
        raise GraphError("'vertices' must be a non-empty array")
    vertices = []
    for i, entry in enumerate(verts_raw):
        if not (  # a plain entry; off it, the helpers name the fault
            type(entry) is dict and _VERTEX_FIELDS.issuperset(entry)
            and type(vid := entry.get("id")) is str and vid
            and type(pa := entry.get("pa")) is type(self_nodes := entry.get("self_nodes", 0)) is int
            and 0 <= self_nodes <= pa
        ):
            _check_object(entry, _VERTEX_FIELDS, "vertices", i)
            if "id" not in entry or "pa" not in entry:
                raise GraphError(f"vertices[{i}]: 'id' and 'pa' are required")
            vid, pa, self_nodes = entry["id"], entry["pa"], entry.get("self_nodes", 0)
            _check_vertex(vid, pa, self_nodes)
        vertices.append(_unchecked(Vertex, {"id": vid, "pa": pa, "self_nodes": self_nodes}))

    edges_raw = raw.get("edges", [])
    if not isinstance(edges_raw, list):
        raise GraphError("'edges' must be an array")
    triples = []
    for i, entry in enumerate(edges_raw):
        if not (type(entry) is dict and len(entry) == 3 and _EDGE_FIELDS.issuperset(entry)
                and type(mult := entry["multiplicity"]) is int and mult > 0):
            _check_object(entry, _EDGE_FIELDS, "edges", i)
            if len(entry) < 3:  # a field is missing: name the first
                for field in ("u", "v", "multiplicity"):
                    if field not in entry:
                        raise GraphError(f"edges[{i}]: '{field}' is required")
            mult = entry["multiplicity"]
            if isinstance(mult, bool) or not isinstance(mult, int) or mult < 1:
                raise GraphError(f"edges[{i}]: multiplicity must be a positive integer")
        triples.append((entry["u"], entry["v"], mult))

    return DualGraph._trusted(vertices, _node_rows(_unique_ids(vertices), triples))


def _check_object(entry, fields: frozenset, label: str, i: int) -> None:
    if not isinstance(entry, (dict, Mapping)):
        raise GraphError(f"{label}[{i}] must be an object")
    if not fields.issuperset(entry):
        raise GraphError(f"{label}[{i}]: unknown fields: {', '.join(sorted(set(entry) - fields))}")


_vertex_id = attrgetter("id")
_vertex_pa = attrgetter("pa")


def _unique_ids(vertices: Sequence[Vertex]) -> list[str]:
    """The ids of the vertices; a repeated id raises GraphError."""
    ids = list(map(_vertex_id, vertices))
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise GraphError(f"duplicate vertex ids: {', '.join(dupes)}")
    return ids


def _node_rows(ids: Sequence[str], edges: Iterable[tuple]) -> dict[str, dict[str, int]]:
    """The symmetric node counts of (u, v, multiplicity) triples over
    ``ids``, each pair given once, zero multiplicities dropped.  Faults raise
    GraphError."""
    adjacency: dict[str, dict[str, int]] = {i: {} for i in ids}
    zeros = []
    for u, v, mult in edges:
        row = adjacency.get(u) if isinstance(u, str) else None
        back = None if row is None or not isinstance(v, str) else adjacency.get(v)
        if back is None:
            missing = u if row is None else v
            raise GraphError(f"edge ({u!r}, {v!r}) references unknown vertex {missing!r}")
        if u == v:
            raise GraphError(
                f"edge ({u!r}, {v!r}): a node of a component with itself "
                f"belongs in self_nodes, not in the edge table"
            )
        if isinstance(mult, bool) or not isinstance(mult, int) or mult < 0:
            raise GraphError(f"edge ({u!r}, {v!r}): multiplicity must be a non-negative integer")
        if v in row:
            if row[v] != mult:
                raise GraphError(
                    f"asymmetric multiplicities for pair ({u!r}, {v!r}): {row[v]} vs {mult}"
                )
            raise GraphError(f"duplicate edge entry for pair ({u!r}, {v!r})")
        row[v] = back[u] = mult
        if not mult:
            zeros.append((u, v))
    for u, v in zeros:  # kept until now to catch a repeated entry
        del adjacency[u][v], adjacency[v][u]
    return adjacency


def _check_kind(value, kind: type, name: str, error: type = GraphError) -> None:
    """Raise ``error`` naming the argument ``name`` unless ``value`` is a ``kind``."""
    if not isinstance(value, kind):
        raise error(f"{name} must be a {kind.__name__}, got {type(value).__name__}")


def arithmetic_genus(graph: DualGraph) -> int:
    """Arithmetic genus of the curve the graph encodes."""
    _check_kind(graph, DualGraph, "graph")
    return graph.genus


def is_stable(graph: DualGraph) -> bool:
    """Deligne-Mumford stability: every component satisfies 2*pa - 2 + contact > 0.

    With pa counted on the component itself (self-nodes included), this single
    formula covers both the rational case (needs at least 3 contact points) and
    the genus-one case (needs at least 1).
    """
    _check_kind(graph, DualGraph, "graph")
    return all(2 * v.pa - 2 + c > 0 for v, c in zip(graph.vertices, graph._contacts))


# -- multidegrees ----------------------------------------------------------


class Multidegree(_Record):
    """An integer degree per vertex, stored as id-sorted (id, degree) pairs.
    The dict behind lookups by id is built on the first such lookup."""

    def __init__(self, items: Iterable[tuple[str, int]]) -> None:
        entries = _converted(tuple, items, "items", "an iterable of (id, degree) pairs")
        # Every entry is checked before sorting, which would compare them.
        for entry in entries:
            if not isinstance(entry, tuple) or len(entry) != 2:
                raise GraphError(f"multidegree entry must be an (id, degree) pair, got {entry!r}")
            vid, deg = entry
            if not isinstance(vid, str) or not vid:
                raise GraphError(f"multidegree key must be a non-empty string, got {vid!r}")
            if isinstance(deg, bool) or not isinstance(deg, int):
                raise GraphError(f"degree of {vid!r} must be an integer, got {deg!r}")
        norm = tuple(sorted(entries))
        if len({vid for vid, _ in norm}) != len(norm):
            raise GraphError("multidegree assigns a vertex id twice")
        vars(self).update(items=norm)

    @cached_property
    def _lookup(self) -> dict[str, int]:
        # Not a field, so eq, hash and repr ignore it.
        return dict(self.items)

    @classmethod
    def of(cls, degrees: Mapping[str, int]) -> "Multidegree":
        return cls(tuple(_converted(dict, degrees, "degrees", "an id-to-degree mapping").items()))

    @classmethod
    def from_values(cls, graph: DualGraph, values: Sequence[int]) -> "Multidegree":
        """Pair values with the graph's vertex ids in sorted-id order.  The
        ids are the graph's, sorted and distinct, so only degrees are checked."""
        values = _converted(tuple, values, "values", "a sequence of degrees")
        if len(values) != graph.n:
            raise GraphError(
                f"multidegree has {len(values)} entries but the graph has "
                f"{graph.n} vertices (order: {', '.join(graph.ids)})"
            )
        items = tuple(zip(graph._ids, values))
        if all([type(deg) is int for deg in values]):
            return _unchecked(Multidegree, "items", items)
        return Multidegree(items)  # names the first degree that is no integer

    @property
    def total(self) -> int:
        return sum(d for _, d in self.items)

    def __getitem__(self, vid: str) -> int:
        return self._lookup[vid]

    def as_dict(self) -> dict[str, int]:
        return dict(self.items)

    def values(self, ids: Sequence[str]) -> tuple[int, ...]:
        keys, degrees = zip(*self.items) if self.items else ((), ())
        if keys == ids:  # the id-sorted order: read off without a lookup
            return degrees
        try:
            return tuple([self._lookup[i] for i in ids])
        except (KeyError, TypeError):
            raise GraphError(f"ids must be vertex ids with a degree, got {ids!r}") from None

    def degree_on(self, subcurve: Iterable[str]) -> int:
        """Total degree carried by the components in the subcurve."""
        try:
            if isinstance(subcurve, str):  # an id, not a subcurve of its characters
                raise TypeError
            return sum(self._lookup[v] for v in subcurve)
        except (KeyError, TypeError):
            raise GraphError(f"subcurve must hold ids with a degree, got {subcurve!r}") from None


def _check_multidegree(graph: DualGraph, md: Multidegree) -> None:
    _check_kind(md, Multidegree, "multidegree")
    if tuple([vid for vid, _ in md.items]) == graph._ids:
        return  # the graph's ids in id order: the common case
    have, want = {vid for vid, _ in md.items}, set(graph.ids)
    if have != want:
        parts = [
            f"{label} vertices: {', '.join(sorted(ids))}"
            for label, ids in (("missing", want - have), ("unknown", have - want)) if ids
        ]
        raise GraphError(f"multidegree does not match the graph ({'; '.join(parts)})")


# -- subcurves -------------------------------------------------------------


class SubcurveProfile(_Record):
    """Invariants of one subcurve Y (any nonempty set of components).

    ``lower`` is the exact rational m(Y) = d/(g-1) * (g(Y) - 1 + k(Y)/2) - k(Y)/2;
    together with ``contact`` = k(Y) it bounds the admissible degree on Y:
    m(Y) <= d(Y) <= m(Y) + k(Y), both ends included.
    """

    def __init__(
        self, subcurve: frozenset, genus: int, contact: int, lower: Fraction,
        degree: Optional[int] = None,
    ) -> None:
        vars(self).update(
            subcurve=subcurve, genus=genus, contact=contact, lower=lower, degree=degree
        )

    @property
    def upper(self) -> Fraction:
        return self.lower + self.contact


def _as_subcurve(graph: DualGraph, subcurve: Iterable[str]) -> tuple[frozenset, int]:
    """A nonempty subcurve of known ids and its bitmask over the id-sorted
    vertex order, validated in one pass."""
    index, mask = graph._index, 0
    try:
        if isinstance(subcurve, str):  # an id, which frozenset would split into characters
            raise TypeError
        Y = frozenset(subcurve)
        for vid in Y:
            mask |= 1 << index[vid]
    except TypeError:
        raise GraphError(f"subcurve must be an iterable of vertex ids, got {subcurve!r}") from None
    except KeyError as unknown:
        raise GraphError(f"unknown vertex id {unknown.args[0]!r}") from None
    if not Y:
        raise GraphError("a subcurve must contain at least one component")
    return Y, mask


def _converted(kind: type, value, name: str, what: str):
    """``kind(value)`` for a builtin type ``kind``, or GraphError naming ``name``."""
    try:
        return kind(value)
    except (TypeError, ValueError):
        raise GraphError(f"{name} must be {what}, got {value!r}") from None


def _subset_sums(values: Sequence, zero=0) -> list:
    """Sum of ``values[i]`` over the bits i of every mask, starting from
    ``zero``, indexed by mask; a zero value only copies the sums."""
    sums = [zero]
    for value in values:
        sums += [s + value for s in sums] if value else sums
    return sums


def _mask_numbers(graph: DualGraph, mask: int) -> tuple[int, int, int]:
    """(genus, contact, internal nodes) of one subcurve, in O(n + E) over the node rows."""
    members = [i for i in range(graph.n) if mask >> i & 1]
    internal = sum([m for i in members for j, m in graph._later[i] if mask >> j & 1])
    genus = sum(graph.vertices[i].pa - 1 for i in members) + internal + 1
    contact = sum(graph._contacts[i] for i in members) - 2 * internal
    return genus, contact, internal


def _check_total(d_total: int) -> None:
    if isinstance(d_total, bool) or not isinstance(d_total, int):
        raise DomainError(f"d_total must be an integer, got {d_total!r}")


def _require_genus(graph: DualGraph) -> int:
    """The graph's genus, which degree bounds need to be at least 2."""
    g = graph.genus
    if g <= 1:
        raise DomainError(f"degree bounds need total arithmetic genus >= 2, got {g}")
    return g


def _scaled_lower(d_total: int, g: int, genus: int, contact: int) -> int:
    """2(g-1) * m(Y): the lower degree bound of a subcurve as an integer."""
    return d_total * (2 * genus - 2 + contact) - (g - 1) * contact


def _spin_base(graph: DualGraph, t: int) -> list[int]:
    """(2t+1)(pa - 1) + t * contact per vertex, in id order: the scaled
    singleton bounds at the spin total (2t+1)(g-1), divided by 2(g-1)."""
    return [(2 * t + 1) * (v.pa - 1) + t * c for v, c in zip(graph.vertices, graph._contacts)]


#: `fractions.Fraction` once `_fraction` has imported it.  `fractions` loads
#: `decimal`, which a call that builds no rational has no use for; a
#: function-level import would cost each call about 0.8 us.
Fraction = None


def _fraction(numerator: int, denominator: int) -> Fraction:
    """numerator / denominator as an exact rational: every Fraction the library builds."""
    global Fraction
    if Fraction is None:
        from fractions import Fraction
    return Fraction(numerator, denominator)


def _exact_lower(d_total: int, g: int, genus: int, contact: int) -> Fraction:
    """m(Y), the lower end of a subcurve's degree window, as an exact rational."""
    return _fraction(_scaled_lower(d_total, g, genus, contact), 2 * (g - 1))


def _internal_error(message: str, graph: DualGraph, **context) -> RuntimeError:
    """RuntimeError for a failed internal cross-check.

    The message ends in a JSON payload (after ``replay: ``) holding the graph
    in its ``to_dict`` form plus the given context, enough to replay the call.
    """
    import json  # deferred: only this failure path needs it

    payload = json.dumps({"graph": graph.to_dict(), **context}, sort_keys=True)
    return RuntimeError(f"internal error: {message}; replay: {payload}")


def subcurve_profile(
    graph: DualGraph, subcurve: Iterable[str], d_total: int,
    multidegree: Optional[Multidegree] = None,
) -> SubcurveProfile:
    """Genus, contact count, and exact degree bounds for one subcurve.

    The subcurve may be disconnected; its genus is computed from the same
    additive formula as the whole graph.  Requires total genus >= 2, since the
    lower bound divides by g - 1.
    """
    _check_kind(graph, DualGraph, "graph")
    Y, mask = _as_subcurve(graph, subcurve)
    _check_total(d_total)
    g = _require_genus(graph)
    g_y, k_y, _ = _mask_numbers(graph, mask)
    lower = _exact_lower(d_total, g, g_y, k_y)
    degree: Optional[int] = None
    if multidegree is not None:
        _check_multidegree(graph, multidegree)
        if multidegree.total != d_total:
            raise GraphError(
                f"multidegree total {multidegree.total} does not match d_total {d_total}"
            )
        degree = multidegree.degree_on(Y)
    return _unchecked(SubcurveProfile, {
        "subcurve": Y, "genus": g_y, "contact": k_y, "lower": lower, "degree": degree,
    })


class BIViolation(_Record):
    """One subcurve whose degree falls outside [m(Y), m(Y) + k(Y)]."""

    def __init__(self, subcurve: frozenset, degree: int, lower: Fraction, upper: Fraction) -> None:
        vars(self).update(subcurve=subcurve, degree=degree, lower=lower, upper=upper)


class BIReport(_Record):
    """Outcome of checking the basic inequality on every nonempty subcurve."""

    def __init__(self, satisfied: bool, violations: tuple[BIViolation, ...]) -> None:
        vars(self).update(satisfied=satisfied, violations=violations)


def _check_cap(graph: DualGraph, max_vertices: Optional[int]) -> None:
    limit = MAX_SUBSET_VERTICES if max_vertices is None else max_vertices
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise DomainError(f"max_vertices must be an integer or None, got {max_vertices!r}")
    if graph.n > limit:
        raise GraphTooLargeError(
            f"graph has {graph.n} vertices; subset scans are capped at {limit} "
            f"(pass max_vertices / --max-vertices to raise the cap)"
        )


def iter_subcurves(
    graph: DualGraph, *, proper: bool = False, max_vertices: Optional[int] = None
) -> Iterator[frozenset]:
    """All nonempty subcurves in a deterministic order (ascending bitmask
    over the id-sorted vertex list).  With ``proper=True`` the full curve is
    skipped.  The arguments are checked on the call, before any iteration."""
    _check_kind(graph, DualGraph, "graph")
    _check_cap(graph, max_vertices)
    ids = graph.ids
    # Low ten bits' members from a table, the rest once per table block.
    low = _subset_sums([(vid,) for vid in ids[:10]], ())
    def subcurves() -> Iterator[frozenset]:
        high: tuple = ()
        for mask in range(1, (1 << graph.n) - 1 if proper else 1 << graph.n):
            if not mask % len(low):
                high = tuple(vid for i, vid in enumerate(ids) if i >= 10 and mask >> i & 1)
            yield frozenset(low[mask % len(low)] + high)
    return subcurves()


#: memoryview formats of signed lanes by width, on little-endian hosts.
_LANE_FORMATS = {8: "b", 16: "h", 32: "i", 64: "q"} if sys.byteorder == "little" else {}


def _lane_format(bound: int, n: int) -> tuple[int, int]:
    """Width and sign lane (each top bit) of packed integers, one lane per mask
    of n vertices: the least power of two from 8 bits that holds +-``bound``."""
    return _lane_layout(max(8, 1 << bound.bit_length().bit_length()), n)


@lru_cache(maxsize=64)  # the sign lane of 2^n lanes costs microseconds to build
def _lane_layout(width: int, n: int) -> tuple[int, int]:
    return width, int.from_bytes((bytes(width // 8 - 1) + b"\x80") * (1 << n), "little")


def _lanes(value: int, signs: int, width: int) -> list[int]:
    """Signed lanes of a packed integer, lowest first: two's complements once the
    sign lane is added and flipped back.  Sign flags read as ``flags - signs``: 0 if set."""
    raw = ((value + signs) ^ signs).to_bytes(signs.bit_length() // 8, "little")
    if width in _LANE_FORMATS:
        return memoryview(raw).cast(_LANE_FORMATS[width]).tolist()
    k = width // 8
    return [int.from_bytes(raw[i:i + k], "little", signed=True) for i in range(0, len(raw), k)]


def _subset_lanes(later: Sequence, contacts: Sequence, values: Sequence, width: int) -> tuple:
    """k(Y) and the sum of ``values`` over Y, one ``width``-bit lane per mask
    Y, from node rows ``later`` and contacts ``contacts``: the recurrence of
    every 2^n scan, k(Y + h) = k(Y) + c_h - 2 (nodes from h to Y), its cross
    sums doubled alongside only for later vertices some node already reaches."""
    contact, total, across, ones, shift = 0, 0, {}, 1, width
    for h, (row, c, x) in enumerate(zip(later, contacts, values)):
        contact += (contact + c * ones - 2 * across.pop(h, 0)) << shift
        total += (total + x * ones) << shift
        for j, a in across.items():
            across[j] = a + (a << shift)
        high = ones << shift
        for j, m in row:
            across[j] = across.get(j, 0) + m * high
        ones |= high
        shift <<= 1
    return contact, total


def basic_inequality(
    graph: DualGraph, multidegree: Multidegree, *, max_vertices: Optional[int] = None
) -> BIReport:
    """Check m(Y) <= d(Y) <= m(Y) + k(Y) on every nonempty subcurve.

    Every subset of components is tested, disconnected ones included, the full
    curve too (where the bounds are trivially tight), in exact arithmetic.  A
    blow-up model answers for its spin multidegrees from its kernel's lanes.
    """
    _check_kind(graph, DualGraph, "graph")
    _check_multidegree(graph, multidegree)
    _check_cap(graph, max_vertices)
    g = _require_genus(graph)
    if graph._lane_verdict(multidegree):
        return _unchecked(BIReport, {"satisfied": True, "violations": ()})
    d_total = multidegree.total
    ids, half = graph.ids, g - 1
    # 2(g-1) m(Y) = d w(Y) - (g-1) k(Y) with w(Y) = 2 g(Y) - 2 + k(Y) additive
    # over the components of Y, so scaled by 2(g-1) the window is |X(Y)| <=
    # (g-1) k(Y) with X(Y) = 2(g-1) d(Y) - d w(Y).  X and k are packed, one
    # lane per mask, by `_subset_lanes`.  Offset by its sign bit, no lane of
    # (g-1) k -+ X leaves the lane, so a cleared sign bit marks a violation.
    # Mask 0 always passes.
    degrees = multidegree.values(ids)
    weights = [2 * v.pa - 2 + c for v, c in zip(graph.vertices, graph._contacts)]
    offsets = [2 * half * deg - d_total * w for deg, w in zip(degrees, weights)]
    width, signs = _lane_format(sum(map(abs, offsets)) + half * sum(graph._contacts), graph.n)
    contact, offset = _subset_lanes(graph._later, graph._contacts, offsets, width)
    scaled = half * contact + signs
    kept = (scaled - offset) & (scaled + offset) & signs
    if kept == signs:
        return _unchecked(BIReport, {"satisfied": True, "violations": ()})
    # Violating masks ascend where kept's sign flag is clear.  d(Y), w(Y) and
    # members come from half-id tables, bounds once per distinct window (w, k).
    split = graph.n // 2
    masks = compress(range(1 << graph.n), _lanes(kept - signs, signs, width))
    k_lanes = _lanes(contact, signs, width)
    (deg_low, deg_high), (w_low, w_high), (ids_low, ids_high) = (
        (_subset_sums(column[:split], zero), _subset_sums(column[split:], zero))
        for column, zero in ((degrees, 0), (weights, 0), ([(vid,) for vid in ids], ()))
    )
    windows: dict[tuple[int, int], dict[str, Fraction]] = {}
    violations = []
    for mask in masks:
        low, high = mask & ((1 << split) - 1), mask >> split
        key = (w_low[low] + w_high[high], k_lanes[mask])
        window = windows.get(key)
        if window is None:
            w_y, k_y = key
            lower = _exact_lower(d_total, g, (w_y - k_y) // 2 + 1, k_y)  # g(Y) from w(Y)
            window = windows[key] = {"lower": lower, "upper": lower + k_y}
        violations.append(_unchecked(BIViolation, {
            "subcurve": frozenset(ids_low[low] + ids_high[high]),
            "degree": deg_low[low] + deg_high[high], **window,
        }))
    return _unchecked(BIReport, {"satisfied": False, "violations": tuple(violations)})


# -- twists and per-pair counts, shared by blow-ups and witnesses ----------


#: Twists below this bound are outside the supported regime; reachable only
#: through unsafe_t=True (the CLI's --unsafe-t), and then still >= 0.
MIN_T = 10


def check_t(t: int, *, unsafe_t: bool = False) -> None:
    if isinstance(t, bool) or not isinstance(t, int):
        raise DomainError(f"twist t must be an integer, got {t!r}")
    if unsafe_t:
        if t < 0:
            raise DomainError(f"twist t must be non-negative even in unsafe mode, got {t}")
        return
    if t < MIN_T:
        raise DomainError(
            f"twist t must be at least {MIN_T} (got {t}); "
            f"pass unsafe_t=True / --unsafe-t to explore smaller values"
        )


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


def _record(
    table: dict, key, count, label: str, error: type, *, keep_zero: bool = False
) -> None:
    """Store one count under key: a non-negative integer, never given twice.
    Zero counts are dropped unless ``keep_zero``; faults raise ``error``."""
    if isinstance(count, bool) or not isinstance(count, int) or count < 0:
        raise error(f"{label}: count must be a non-negative integer")
    if key in table:
        raise error(f"{label}: duplicate entry")
    if count or keep_zero:
        table[key] = count


def _pair_key(key, label: str, error: type) -> tuple[str, str]:
    """``key`` when it is a pair key, a 2-tuple of non-empty strings (so no
    two-character string); else ``error`` naming it in table ``label``."""
    if isinstance(key, tuple) and len(key) == 2 and all(isinstance(x, str) and x for x in key):
        return key
    shown = ", ".join(map(repr, key)) if isinstance(key, tuple) else repr(key)
    raise error(f"{label}[{shown}]: vertex ids must be non-empty strings, two per pair key")


def _count_items(entries, label: str, error: type) -> Iterable[tuple]:
    """The (key, count) items of table ``label``, given as a mapping or as
    pairs, or none for None; anything else raises ``error`` naming the item."""
    if entries is None:
        return ()
    if isinstance(entries, Mapping):
        return entries.items()
    iterable = hasattr(entries, "__iter__") and not isinstance(entries, str)
    items = list(entries) if iterable else [entries]
    for item in items:
        if not (isinstance(item, (tuple, list)) and len(item) == 2):
            raise error(f"{label}: {item!r} is not a (key, count) pair")
    return items


def _pair_counts(entries, error: type, loop_message: str) -> dict[tuple[str, str], int]:
    """Nonzero per-pair counts ``s`` from a mapping or (pair key, count)
    items, keyed by sorted pair; a malformed item or key raises ``error``,
    and so does a pair of a vertex with itself, with ``loop_message``."""
    table: dict[tuple[str, str], int] = {}
    for key, count in _count_items(entries, "s", error):
        u, v = _pair_key(key, "s", error)
        _record(table, _pair(u, v), count, f"s[{u}, {v}]", error)
        if u == v:
            raise error(f"s[{u}, {v}]: {loop_message}")
    return table


def _check_pair_bounds(graph: DualGraph, counts: Mapping, error: type) -> None:
    """Raise ``error`` at the first pair, in sorted order, whose count in
    ``counts`` exceeds the nodes joining it (sorted only when one does); an
    unknown id raises GraphError."""
    adjacency = graph._adjacency
    if all(u in adjacency and v in adjacency and count <= adjacency[u].get(v, 0)
           for (u, v), count in counts.items()):
        return
    for (u, v), count in sorted(counts.items()):
        k = adjacency[u].get(v, 0) if u in adjacency and v in adjacency else graph.k(u, v)
        if count > k:
            raise error(f"s[{u}, {v}] = {count} exceeds the {k} nodes joining {u} and {v}")


def _odd_vertex(graph: DualGraph, s: Mapping) -> Optional[tuple[str, int]]:
    """The first vertex, in id order, left with an odd number of unblown
    nodes with other components, and that number, or None: the parity count
    of configs and witnesses, ``s`` counting the blown nodes of each pair."""
    left = list(graph._contacts)
    index = graph._index
    for (u, v), count in s.items():
        left[index[u]] -= count
        left[index[v]] -= count
    return next(((vid, x) for vid, x in zip(graph.ids, left) if x % 2), None)


# -- the orientation kernel ------------------------------------------------


class _Orientation:
    """Units of each pair (i, j, total) split between its ends: ``a[p]`` go
    into i and ``total - a[p]`` into j.  A settled pair leaves both of its
    incidence lists, so no later search or move changes its units.

    Moving units of in-degree from one end of a pair to the other changes no
    third vertex, so moves along a path shift in-degree from its first vertex
    to its last.  Paths are shortest (breadth-first) and each carries as many
    units as all of its moves allow.  Searches share one parent list, whose
    entries count only where ``seen`` holds the current search's number.
    """

    def __init__(self, n: int, pairs: Sequence[tuple[int, int, int]]) -> None:
        self.ends = [(i, j) for i, j, _ in pairs]
        self.total = [total for _, _, total in pairs]
        self.a = [total // 2 for total in self.total]
        self.incident: list[list[int]] = [[] for _ in range(n)]
        for p, (i, j) in enumerate(self.ends):
            if i != j:
                self.incident[i].append(p)
                self.incident[j].append(p)
        self.parent: list[Optional[tuple[int, int]]] = [None] * n
        self.seen = [0] * n
        self.searches = 0

    @classmethod
    def on_graph(cls, graph: DualGraph, units: int) -> "_Orientation":
        """The kernel splitting ``units`` per node of each pair, pairs in id
        order, read off the node rows (indices follow the sorted ids)."""
        index, adjacency = graph._index, graph._adjacency
        pairs = [(i, index[v], units * k) for i, u in enumerate(graph._ids)
                 for v, k in adjacency[u].items() if u < v]
        return cls(graph.n, sorted(pairs))

    def _path(
        self, sources: Sequence[int], targets
    ) -> tuple[list[tuple[int, int]], int, int] | set[int]:
        """(moves, start, end) of one shortest path from a source to a target,
        each move a (vertex, pair) with room to move units off the vertex;
        the set of vertices reached when no target is."""
        ends, a, total, incident = self.ends, self.a, self.total, self.incident
        parent, seen = self.parent, self.seen
        self.searches += 1
        search = self.searches
        for x in sources:
            seen[x] = search
            parent[x] = None
        queue = list(sources)
        for x in queue:
            for p in incident[x]:
                i, j = ends[p]
                y = j if x == i else i
                if (a[p] if x == i else total[p] - a[p]) <= 0 or seen[y] == search:
                    continue
                seen[y] = search
                parent[y] = (x, p)
                if y in targets:
                    moves, end = [], y
                    while parent[y] is not None:
                        y, p = parent[y]
                        moves.append((y, p))
                    return moves, y, end
                queue.append(y)
        return set(queue)

    def _send(self, moves: list, limit: int) -> int:
        ends, a, total = self.ends, self.a, self.total
        amount = min([limit] + [a[p] if x == ends[p][0] else total[p] - a[p] for x, p in moves])
        for x, p in moves:
            a[p] += -amount if x == ends[p][0] else amount
        return amount

    def meet(self, quota: Sequence[int]) -> Optional[set[int]]:
        """Reshape the split so that vertex x receives quota[x] units and
        return None; when no split does, return the vertex set R the last
        search reached.  Units move along single pairs first, then along paths.

        R holds every vertex over its quota and none under it, and no pair can
        move a unit out of R, so its pairs to the rest send them every unit:
        the units of pairs inside R alone exceed R's quota (Hakimi's
        condition fails on R).  Quotas totalling more than the units are
        refused even when no vertex is over its quota (R is then empty).
        """
        ends, a, total, incident = self.ends, self.a, self.total, self.incident
        excess = [-q for q in quota]
        for (i, j), units, whole in zip(ends, a, total):
            excess[i] += units
            excess[j] += whole - units
        # A move, along one pair (one pass, no search) or a path, takes units
        # from a vertex over its quota to one under it, never past either.
        sources = [x for x, e in enumerate(excess) if e > 0]
        for x in sources:
            for p in incident[x]:
                i, j = ends[p]
                y = j if x == i else i
                if excess[y] < 0:
                    moved = min(excess[x], -excess[y], a[p] if x == i else total[p] - a[p])
                    a[p] += -moved if x == i else moved
                    excess[x] -= moved
                    excess[y] += moved
        sources = [x for x in sources if excess[x]]
        targets = {x for x, e in enumerate(excess) if e < 0}
        while sources or targets:
            found = self._path(sources, targets)
            if isinstance(found, set):
                return found
            moves, start, end = found
            moved = self._send(moves, min(excess[start], -excess[end]))
            excess[start] -= moved
            excess[end] += moved
            if not excess[start]:
                sources.remove(start)
            if not excess[end]:
                targets.remove(end)
        return None

    def settle(self, p: int, target: int) -> int:
        """Take pair p out of the graph, walk a[p] toward target while a path
        takes up the change, then return where it stopped.

        The values a[p] takes over the splits that meet the quotas form an
        interval, so the walk ends at its point nearest the target.  Where an
        end of p has no other unsettled pair, no path reaches it and the
        interval is the point a[p]: that settle runs no search.
        """
        i, j = self.ends[p]
        a, at_i, at_j = self.a, self.incident[i], self.incident[j]
        at_i.remove(p)
        at_j.remove(p)
        while at_i and at_j and a[p] != target:
            # Lowering a[p] moves in-degree from i to j; a path from j to i
            # moves it back (and the other way round for raising).
            down = a[p] > target
            found = self._path((j,) if down else (i,), (i,) if down else (j,))
            if isinstance(found, set):
                break
            moved = self._send(found[0], abs(a[p] - target))
            a[p] += -moved if down else moved
        return a[p]


def _score_vectors(graph: DualGraph, base: Sequence[int]) -> list[Multidegree]:
    """``base`` (id order) plus the in-degree vector of every orientation of
    the node multigraph, sorted: one sum over pairs, deduplicated per pair.
    A vector is coded as one integer, in-degree i its digit of radix
    contact(i) + 1, vertex 0 the most significant: no digit carries, and
    integer order is lexicographic order."""
    index = graph._index
    weights = [1] * graph.n
    for i in range(graph.n - 2, -1, -1):
        weights[i] = weights[i + 1] * (graph._contacts[i + 1] + 1)
    reached = {0}
    for u, v, k in graph.pairs():
        w_i, w_j = weights[index[u]], weights[index[v]]
        steps = [a * w_i + (k - a) * w_j for a in range(k + 1)]
        reached = {x + step for x in reached for step in steps}
    codes = sorted(reached)
    # Columns of (id, degree) entries shared per digit: their rows are items.
    columns = []
    for vid, w, c, b in zip(graph.ids, weights, graph._contacts, base):
        entries = [(vid, b + x) for x in range(c + 1)]
        columns.append([entries[code // w % (c + 1)] for code in codes])
    return [_unchecked(Multidegree, "items", items) for items in zip(*columns)]


def enumerate_multidegrees(
    graph: DualGraph, d_total: int, *, max_vertices: Optional[int] = None
) -> list[Multidegree]:
    """All integer multidegrees of the given total that satisfy the basic
    inequality, in lexicographic order over the id-sorted coordinates.

    They are the lattice points of the node multigraph's graphical zonotope
    shifted by the singleton lower bounds m(v) (Stanley 1991): m plus the
    in-degree vectors of the node orientations when every m(v) is an integer
    (at every spin total, say).  Otherwise one orientation kernel decides each
    candidate of the per-vertex boxes, warm-started from the previous one.
    The output can grow exponentially with the vertex count, so the vertex
    cap (``max_vertices``) stays.  Requires a stable graph of genus >= 2.
    """
    _check_kind(graph, DualGraph, "graph")
    _check_total(d_total)
    g = _require_genus(graph)
    if not is_stable(graph):
        raise DomainError("multidegree enumeration expects a stable graph")
    _check_cap(graph, max_vertices)

    scale = 2 * (g - 1)
    contacts = graph._contacts
    lower = [_scaled_lower(d_total, g, v.pa, c) for v, c in zip(graph.vertices, contacts)]
    if not any(low % scale for low in lower):
        return _score_vectors(graph, [low // scale for low in lower])

    ids, n = graph.ids, graph.n
    lo = [-(-low // scale) for low in lower]
    hi = [low // scale + c for low, c in zip(lower, contacts)]
    suffix_lo, suffix_hi = ([sum(box[i:]) for i in range(n + 1)] for box in (lo, hi))

    # Scaled by 2(g-1), m(Y) is the sum of the singleton bounds L_i = lower[i]
    # over Y plus 2(g-1) e(Y), with e(Y) the nodes between distinct components
    # of Y, and the upper end of a window is the lower end on the complement.
    # With quotas Q_i = 2(g-1) d_i - L_i the basic inequality is Hakimi's
    # condition Q(Y) >= 2(g-1) e(Y) for splitting 2(g-1) k(i, j) units per
    # pair between its ends.  One kernel decides every leaf, starting from the
    # last split.
    kernel = _Orientation.on_graph(graph, scale)
    found: list[Multidegree] = []
    stack: list[int] = []

    def descend(i: int, remaining: int) -> None:
        if i == n:
            if kernel.meet([scale * x - low for x, low in zip(stack, lower)]) is None:
                found.append(_unchecked(Multidegree, "items", tuple(zip(ids, stack))))
            return
        for value in range(lo[i], hi[i] + 1):
            rest = remaining - value
            if suffix_lo[i + 1] <= rest <= suffix_hi[i + 1]:
                stack.append(value)
                descend(i + 1, rest)
                stack.pop()

    descend(0, d_total)
    return found
