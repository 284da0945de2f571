"""Which fiber components the spin locus hits, decided by orientations.

Grouping the degree-1 exceptional components of a blow-up model with the
component they came from turns the canonical spin multidegree into a degree
vector on the original stable graph:

    d(i) = (2t+1)(pa(i) - 1) + t * sum_j k(i, j)
           + (sum_j (k(i, j) - s(i, j))) / 2 + sum_j sigma(i, j)

where s(i, j) = s(j, i) counts blown nodes between i and j (with
sum_j (k(i, j) - s(i, j)) even at every i) and sigma(i, j) + sigma(j, i) =
s(i, j) splits each pair's exceptional components between the two sides.  Self-node blow-ups
cancel out of the grouped vector and are therefore absent from witnesses.

A multidegree is met by the spin locus exactly when such a witness (s, sigma)
exists.  Doubled, pair (i, j) sends a = k - s + 2 sigma(i, j) units to i and
2k - a to j; every a in 0..2k comes from some (s, sigma), the smallest such s
being |a - k|.  So a witness is an orientation of the doubled node multigraph
in which i has in-degree 2q(i), where q(i) = d(i) - (2t+1)(pa(i) - 1)
- t * contact(i), d minus the spin base `graphs._spin_base` (Hakimi 1965),
and the parity condition holds by itself.  The orientation kernel of
:mod:`spinpicard.graphs`, shortest augmenting paths over such orientations,
answers every "does a split exist" question in polynomial time: the
lexicographically smallest witness, settled pair by pair on
``_Orientation.on_graph(graph, 2)``, and :func:`orientation_feasible`.
At the spin total the basic inequality on Y reads q(Y) >= e(Y), with e(Y)
the nodes inside Y, which is exactly Hakimi's condition: every fiber
component is met, and when the walk is stuck the vertices it reached violate
the inequality.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Iterable, Optional

from .errors import BasicInequalityError, DomainError, GraphError, WitnessError, _Record
from .graphs import (
    DualGraph,
    Multidegree,
    _Orientation,
    _check_cap,
    _check_kind,
    _check_multidegree,
    _check_pair_bounds,
    _count_items,
    _internal_error,
    _odd_vertex,
    _pair,
    _pair_counts,
    _pair_key,
    _record,
    _score_vectors,
    _spin_base,
    _unchecked,
    check_t,
    is_stable,
    subcurve_profile,
)

__all__ = [
    "SpinWitness",
    "SplitCurveRow",
    "grouped_multidegree",
    "decide_spin_component",
    "enumerate_spin_multidegrees",
    "split_curve_graph",
    "split_curve_table",
    "orientation_feasible",
]


class SpinWitness:
    """A witness (s, sigma) that a multidegree is met by the spin locus.

    ``s`` maps unordered pairs to blown-node counts; ``sigma`` maps ordered
    pairs to the share credited to the first coordinate.  Zero-count s entries
    are dropped, and sigma entries are kept for both directions of every blown
    pair.  Immutable by convention.
    """

    def __init__(self, s=None, sigma=None) -> None:
        self._s = _pair_counts(s, WitnessError, "pairs must join distinct vertices")
        given: dict[tuple[str, str], int] = {}
        for key, count in _count_items(sigma, "sigma", WitnessError):
            u, v = _pair_key(key, "sigma", WitnessError)
            _record(given, (u, v), count, f"sigma[{u}, {v}]", WitnessError, keep_zero=True)

        self._sigma: dict[tuple[str, str], int] = {}
        for (u, v), s_uv in self._s.items():
            a = given.pop((u, v), None)
            b = given.pop((v, u), None)
            if a is None and b is None:
                raise WitnessError(f"sigma missing for blown pair ({u}, {v})")
            if a is None:
                a = s_uv - b
            elif b is None:
                b = s_uv - a
            if a < 0 or b < 0 or a + b != s_uv:
                raise WitnessError(
                    f"sigma[{u}, {v}] + sigma[{v}, {u}] must equal s = {s_uv}, "
                    f"got {a} + {b}"
                )
            self._sigma[(u, v)] = a
            self._sigma[(v, u)] = b
        for (u, v), count in given.items():
            if count:
                raise WitnessError(f"sigma[{u}, {v}] = {count} but s[{u}, {v}] = 0")

    def s(self, u: str, v: str) -> int:
        return self._s.get(_pair(u, v), 0)

    def sigma(self, u: str, v: str) -> int:
        return self._sigma.get((u, v), 0)

    def s_items(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((u, v, c) for (u, v), c in sorted(self._s.items()))

    def sigma_items(self) -> tuple[tuple[str, str, int], ...]:
        return tuple((u, v, c) for (u, v), c in sorted(self._sigma.items()))

    def validate(self, graph: DualGraph) -> None:
        """Check bounds against the graph and the per-vertex parity condition."""
        _check_kind(graph, DualGraph, "graph")
        _check_pair_bounds(graph, self._s, WitnessError)
        odd = _odd_vertex(graph, self._s)
        if odd:
            raise WitnessError(
                f"parity fails at {odd[0]!r}: {odd[1]} unblown nodes with other "
                f"components (odd)"
            )

    def sort_key(self, graph: DualGraph) -> tuple:
        """Key realizing the lexicographic order on (s, then sigma) used by
        the decision procedure, relative to the graph's sorted pair list."""
        _check_kind(graph, DualGraph, "graph")
        pairs = [(u, v) for u, v, _ in graph.pairs()]
        return (
            tuple(self.s(u, v) for u, v in pairs),
            tuple(self.sigma(u, v) for u, v in pairs),
        )

    def to_dict(self) -> dict:
        return {
            "s": [{"u": u, "v": v, "count": c} for u, v, c in self.s_items()],
            "sigma": [{"u": u, "v": v, "count": c} for u, v, c in self.sigma_items()],
        }

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpinWitness):
            return NotImplemented
        return (self._s, self._sigma) == (other._s, other._sigma)

    def __hash__(self) -> int:
        return hash((self.s_items(), self.sigma_items()))

    def __repr__(self) -> str:
        return f"SpinWitness(s={dict(self._s)!r}, sigma={dict(self._sigma)!r})"


def _require_spin_graph(graph: DualGraph) -> None:
    _check_kind(graph, DualGraph, "graph")
    if graph.genus < 3:
        raise DomainError(f"spin-locus operations need genus >= 3, got {graph.genus}")
    if not is_stable(graph):
        raise DomainError("spin-locus operations expect a stable graph")


def grouped_multidegree(
    graph: DualGraph, witness: SpinWitness, t: int, *, unsafe_t: bool = False
) -> Multidegree:
    """Degree vector on the stable graph cut out by a witness at twist t,
    replayed once the witness passes its checks (s within k, then parity)."""
    check_t(t, unsafe_t=unsafe_t)
    _require_spin_graph(graph)
    _check_kind(witness, SpinWitness, "witness", WitnessError)
    witness.validate(graph)
    degrees = _replay(graph, witness, _spin_base(graph, t))
    md = _unchecked(Multidegree, "items", tuple(zip(graph.ids, degrees)))
    expected = (2 * t + 1) * (graph.genus - 1)
    if md.total != expected:
        raise _internal_error(
            f"grouped multidegree totals {md.total}, expected {expected}",
            graph, t=t, witness=witness.to_dict(), multidegree=md.as_dict(),
        )
    return md


def _replay(graph: DualGraph, witness: SpinWitness, base: list[int]) -> list[int]:
    """The degrees, in id order, a checked witness cuts out: half of 2 base +
    contact - s at both ends of each blown pair + 2 sigma at the end it credits."""
    index = graph._index
    doubled = [2 * b + c for b, c in zip(base, graph._contacts)]
    for (u, v), count in witness._s.items():
        doubled[index[u]] -= count
        doubled[index[v]] -= count
    for (u, _), share in witness._sigma.items():
        doubled[index[u]] += 2 * share
    return [x // 2 for x in doubled]


# -- orientations ----------------------------------------------------------


def orientation_feasible(
    pairs: Mapping[tuple, int] | Iterable[tuple], quotas: Mapping[str, int]
) -> bool:
    """Whether each pair's count splits between its two vertices so that
    every vertex receives exactly its quota (0 for vertices not in quotas);
    never when a count is negative.

    By Hakimi's theorem this holds iff the quotas are non-negative, total the
    sum of counts, and every vertex subset A can absorb the counts of pairs
    lying inside A: sum(quotas over A) >= sum(counts inside A).  Decided by
    shortest augmenting paths in polynomial time, without the 2^n subsets.
    """
    _check_kind(quotas, Mapping, "quotas")
    try:
        items = pairs.items() if isinstance(pairs, Mapping) else ((p, c) for *p, c in pairs)
        items = [(u, v, count) for (u, v), count in items]
        names = dict.fromkeys([*quotas, *(x for u, v, _ in items for x in (u, v))])
    except (TypeError, ValueError):
        raise GraphError(
            f"pairs must be (u, v, count) triples or {{(u, v): count}}, got {pairs!r}"
        ) from None
    for label, values in (("pairs", [count for _, _, count in items]), ("quotas", quotas.values())):
        for x in values:
            if isinstance(x, bool) or not isinstance(x, int):
                raise GraphError(f"{label} must hold integer counts, got {x!r}")
    if any(count < 0 for _, _, count in items):
        return False  # a negative count has no split into non-negative shares
    index = {x: i for i, x in enumerate(names)}
    kernel = _Orientation(len(index), [(index[u], index[v], count) for u, v, count in items])
    return kernel.meet([quotas.get(x, 0) for x in index]) is None


def decide_spin_component(
    graph: DualGraph, t: int, multidegree: Multidegree, *, unsafe_t: bool = False
) -> SpinWitness:
    """The lexicographically smallest witness (s, then sigma) for the
    multidegree, in polynomial time with no vertex cap.

    The multidegree must be a fiber component: total (2t+1)(g-1) and the
    basic inequality throughout, else BasicInequalityError.  The orientation
    walk is the certificate either way: it meets the quotas exactly when the
    basic inequality holds (Hakimi), so the spin locus never misses a
    component, and when it is stuck the vertices it reached form a subcurve
    whose degree falls below its window, which the error names.  The witness
    is read off the settled kernel without the constructor's re-validation,
    then checked against the graph and replayed, as `grouped_multidegree`
    replays it, which must give back the multidegree.
    """
    check_t(t, unsafe_t=unsafe_t)
    _require_spin_graph(graph)
    _check_multidegree(graph, multidegree)
    ids, d_total = graph.ids, (2 * t + 1) * (graph.genus - 1)
    values = multidegree.values(ids)
    if sum(values) != d_total:
        raise BasicInequalityError(
            f"total degree {sum(values)} does not equal "
            f"(2t+1)(g-1) = {d_total}"
        )

    base = _spin_base(graph, t)
    kernel = _Orientation.on_graph(graph, 2)
    stuck = kernel.meet([2 * (d - b) for d, b in zip(values, base)])
    if stuck is not None:
        worst = subcurve_profile(graph, [ids[i] for i in stuck], d_total, multidegree)
        if not worst.degree < worst.lower:
            raise _internal_error(
                "stuck orientation walk names no violated subcurve",
                graph, t=t, subcurve=sorted(worst.subcurve), multidegree=multidegree.as_dict(),
            )
        raise BasicInequalityError(
            f"multidegree is not a fiber component: degree {worst.degree} on "
            f"Y={{{', '.join(sorted(worst.subcurve))}}} falls outside "
            f"[{worst.lower}, {worst.upper}]"
        )
    s, sigma = {}, {}
    for p, (i, j) in enumerate(kernel.ends):
        # The smallest s_p left by the pairs before p is the distance from k
        # to the interval of doubled units into u; when it is positive the
        # interval lies on one side of k, so the units and sigma are forced.
        k = kernel.total[p] // 2
        shift = kernel.settle(p, k) - k
        if shift:
            u, v = ids[i], ids[j]
            s[(u, v)] = abs(shift)
            sigma[(u, v)] = max(shift, 0)
            sigma[(v, u)] = max(-shift, 0)
    witness = _unchecked(SpinWitness, "_s", s)
    witness._sigma = sigma
    witness.validate(graph)
    if _replay(graph, witness, base) != list(values):
        raise _internal_error(
            "witness does not reproduce the multidegree",
            graph, t=t, witness=witness.to_dict(), multidegree=multidegree.as_dict(),
        )
    return witness


def enumerate_spin_multidegrees(
    graph: DualGraph, t: int, *, unsafe_t: bool = False, max_vertices: Optional[int] = None
) -> list[Multidegree]:
    """Every multidegree the spin locus meets at twist t, sorted by degree
    vector over the id-sorted coordinates (no duplicates).

    Halving the doubled orientations of the witnesses gives every orientation
    of the node multigraph (Hakimi's subset condition halves exactly), so the
    locus is the spin base plus their in-degree vectors: every fiber component,
    listed as `enumerate_multidegrees` lists them at the spin total.
    """
    check_t(t, unsafe_t=unsafe_t)
    _require_spin_graph(graph)
    _check_cap(graph, max_vertices)
    return _score_vectors(graph, _spin_base(graph, t))


# -- the split curve -------------------------------------------------------


def _check_split_genus(genus: int) -> None:
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 3:
        raise DomainError(f"split curves need integer genus >= 3, got {genus!r}")


def split_curve_graph(genus: int) -> DualGraph:
    """Two rational components joined in genus + 1 nodes."""
    _check_split_genus(genus)
    return DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): genus + 1})


class SplitCurveRow(_Record):
    """One admissible (s, sigma) choice on the split curve and its bidegree."""

    def __init__(self, genus: int, t: int, s: int, sigma: int, d1: int, d2: int) -> None:
        for name, value in zip(self.__match_args__, (genus, t, s, sigma, d1, d2)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise WitnessError(f"{name} must be an integer, got {value!r}")
        if not 0 <= sigma <= s <= genus + 1:
            raise WitnessError("split-curve row out of range: need 0 <= sigma <= s <= g+1")
        if (genus + 1 - s) % 2:
            raise WitnessError("split-curve row violates parity: g + 1 - s must be even")
        if d1 + d2 != (2 * t + 1) * (genus - 1):
            raise WitnessError("split-curve row total is not (2t+1)(g-1)")
        vars(self).update(genus=genus, t=t, s=s, sigma=sigma, d1=d1, d2=d2)


def split_curve_table(genus: int, t: int, *, unsafe_t: bool = False) -> list[SplitCurveRow]:
    """Closed-form bidegrees on the split curve, one row per (s, sigma).

    d1 = (t + 1/2)(g+1) - (2t+1) - s/2 + sigma, with s running over
    0 <= s <= g+1 of the same parity as g+1 and 0 <= sigma <= s.  Written as
    t(g+1) + (g+1-s)/2 - (2t+1) + sigma it is an integer by construction.
    Rows come in order of s, then sigma; distinct rows may repeat a bidegree,
    deliberately.
    """
    check_t(t, unsafe_t=unsafe_t)
    _check_split_genus(genus)
    total = (2 * t + 1) * (genus - 1)
    rows = []
    for s in range((genus + 1) % 2, genus + 2, 2):
        low = t * (genus + 1) + (genus + 1 - s) // 2 - (2 * t + 1)
        rows += [
            _unchecked(SplitCurveRow, {
                "genus": genus, "t": t, "s": s, "sigma": sigma,
                "d1": low + sigma, "d2": total - low - sigma,
            })
            for sigma in range(s + 1)
        ]
    return rows
