"""Which fiber components the spin locus hits, decided by witness search.

Grouping the degree-1 exceptional components of a blow-up model with the
component they came from turns the canonical spin multidegree into a degree
vector on the original stable graph:

    d(i) = (2t+1)(pa(i) - 1) + t * sum_j k(i, j)
           + (sum_j (k(i, j) - s(i, j))) / 2 + sum_j sigma(i, j)

where s(i, j) = s(j, i) counts blown nodes between i and j (with every
k(i, j) - s(i, j) even) and sigma(i, j) + sigma(j, i) = s(i, j) splits each
pair's exceptional components between the two sides.  Self-node blow-ups
cancel out of the grouped vector and are therefore absent from witnesses.

A multidegree is met by the spin locus exactly when such a witness (s, sigma)
exists.  The search enumerates s tables exhaustively (with parity pruning) and
solves the sigma split per s; the split is a prescribed-indegree orientation
problem, decided here by backtracking and, independently, by the subset
feasibility criterion in :func:`orientation_feasible`.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Sequence

from .errors import BasicInequalityError, DomainError, GraphError, WitnessError
from .graphs import (
    DualGraph,
    Multidegree,
    _check_cap,
    _check_multidegree,
    _internal_error,
    basic_inequality,
    is_stable,
)
from .quasistable import check_t

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


def _pair(u: str, v: str) -> tuple[str, str]:
    return (u, v) if u <= v else (v, u)


class SpinWitness:
    """A witness (s, sigma) that a multidegree is met by the spin locus.

    ``s`` maps unordered pairs to blown-node counts; ``sigma`` maps ordered
    pairs to the share credited to the first coordinate.  Zero-count s entries
    are dropped, and sigma entries are kept for both directions of every blown
    pair.  Immutable by convention.
    """

    def __init__(self, s=None, sigma=None) -> None:
        self._s: dict[tuple[str, str], int] = {}
        if s:
            items = s.items() if isinstance(s, Mapping) else s
            for key, count in items:
                u, v = key
                if u == v:
                    raise WitnessError(f"s[{u}, {v}]: pairs must join distinct vertices")
                if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                    raise WitnessError(f"s[{u}, {v}]: count must be a non-negative integer")
                if _pair(u, v) in self._s:
                    raise WitnessError(f"s[{u}, {v}]: duplicate entry")
                if count:
                    self._s[_pair(u, v)] = count

        given: dict[tuple[str, str], int] = {}
        if sigma:
            items = sigma.items() if isinstance(sigma, Mapping) else sigma
            for key, count in items:
                u, v = key
                if isinstance(count, bool) or not isinstance(count, int) or count < 0:
                    raise WitnessError(f"sigma[{u}, {v}]: count must be a non-negative integer")
                if (u, v) in given:
                    raise WitnessError(f"sigma[{u}, {v}]: duplicate entry")
                given[(u, v)] = count

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
        for u, v, count in self.s_items():
            if count > graph.k(u, v):
                raise WitnessError(
                    f"s[{u}, {v}] = {count} exceeds the {graph.k(u, v)} nodes "
                    f"joining {u} and {v}"
                )
        for vid in graph.ids:
            left = graph.contact(vid) - sum(self.s(vid, u) for u in graph.neighbors(vid))
            if left % 2:
                raise WitnessError(
                    f"parity fails at {vid!r}: {left} unblown nodes with other "
                    f"components (odd)"
                )

    def sort_key(self, graph: DualGraph) -> tuple:
        """Key realizing the lexicographic order on (s, then sigma) used by
        the decision procedure, relative to the graph's sorted pair list."""
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
    if graph.genus < 3:
        raise DomainError(f"spin-locus operations need genus >= 3, got {graph.genus}")
    if not is_stable(graph):
        raise DomainError("spin-locus operations expect a stable graph")


def grouped_multidegree(
    graph: DualGraph, witness: SpinWitness, t: int, *, unsafe_t: bool = False
) -> Multidegree:
    """Degree vector on the stable graph cut out by a witness at twist t."""
    check_t(t, unsafe_t=unsafe_t)
    _require_spin_graph(graph)
    witness.validate(graph)
    degrees = {}
    for vid in graph.ids:
        contact = graph.contact(vid)
        blown = sum(witness.s(vid, u) for u in graph.neighbors(vid))
        credited = sum(witness.sigma(vid, u) for u in graph.neighbors(vid))
        degrees[vid] = (
            (2 * t + 1) * (graph.pa(vid) - 1)
            + t * contact
            + (contact - blown) // 2
            + credited
        )
    md = Multidegree.of(degrees)
    expected = (2 * t + 1) * (graph.genus - 1)
    if md.total != expected:
        raise _internal_error(
            f"grouped multidegree totals {md.total}, expected {expected}",
            graph, t=t, witness=witness.to_dict(), multidegree=md.as_dict(),
        )
    return md


def _lexmin_split(
    pairs: Sequence[tuple[str, str, int]], need: dict[str, int]
) -> Optional[list[int]]:
    """Smallest (lexicographic over the given pair order) split of each pair's
    count between its endpoints meeting every vertex's quota, or None.

    ``need`` holds per-vertex quotas and is consumed; callers pass a copy.
    """
    capacity = dict.fromkeys(need, 0)
    for u, v, count in pairs:
        capacity[u] += count
        capacity[v] += count
    for vid, quota in need.items():
        if quota < 0 or quota > capacity[vid]:
            return None
    if sum(need.values()) != sum(c for _, _, c in pairs):
        return None

    chosen: list[int] = []

    def descend(idx: int) -> bool:
        if idx == len(pairs):
            return True  # quotas are all zero here: sums match and none is negative
        u, v, count = pairs[idx]
        capacity[u] -= count
        capacity[v] -= count
        for a in range(count + 1):
            b = count - a
            if need[u] - a < 0 or need[v] - b < 0:
                continue
            if need[u] - a > capacity[u] or need[v] - b > capacity[v]:
                continue
            need[u] -= a
            need[v] -= b
            chosen.append(a)
            if descend(idx + 1):
                return True
            chosen.pop()
            need[u] += a
            need[v] += b
        capacity[u] += count
        capacity[v] += count
        return False

    return chosen if descend(0) else None


def orientation_feasible(
    pairs: Mapping[tuple, int] | Iterable[tuple], quotas: Mapping[str, int]
) -> bool:
    """Subset criterion for splitting pair counts to meet per-vertex quotas.

    A split exists iff quotas are non-negative, they total the sum of counts,
    and every vertex subset A can absorb the counts of pairs lying inside A:
    sum(quotas over A) >= sum(counts inside A).  Runs over all 2^n subsets;
    meant as an independent cross-check at desk scale, not a solver.
    """
    table: dict[tuple[str, str], int] = {}
    items = pairs.items() if isinstance(pairs, Mapping) else ((p, c) for *p, c in pairs)
    for key, count in items:
        u, v = key
        table[_pair(u, v)] = table.get(_pair(u, v), 0) + count
    vertices = sorted({x for p in table for x in p} | set(quotas))
    if any(quotas.get(v, 0) < 0 for v in vertices):
        return False
    if sum(quotas.get(v, 0) for v in vertices) != sum(table.values()):
        return False
    index = {v: i for i, v in enumerate(vertices)}
    for mask in range(1, 1 << len(vertices)):
        inside = sum(
            count
            for (u, v), count in table.items()
            if mask >> index[u] & 1 and mask >> index[v] & 1
        )
        quota = sum(
            quotas.get(v, 0) for v in vertices if mask >> index[v] & 1
        )
        if inside > quota:
            return False
    return True


def _iter_s_tables(graph: DualGraph):
    """Yield (pairs, s values) lexicographically; pairs in sorted order."""
    pairs = list(graph.pairs())
    ranges = [range(k + 1) for _, _, k in pairs]
    for choice in itertools.product(*ranges):
        yield pairs, choice


def _parity_ok(graph: DualGraph, pairs, choice) -> bool:
    blown = dict.fromkeys(graph.ids, 0)
    for (u, v, _), s_uv in zip(pairs, choice):
        blown[u] += s_uv
        blown[v] += s_uv
    return all((graph.contact(v) - blown[v]) % 2 == 0 for v in graph.ids)


def decide_spin_component(
    graph: DualGraph,
    t: int,
    multidegree: Multidegree,
    *,
    unsafe_t: bool = False,
    max_vertices: Optional[int] = None,
) -> Optional[SpinWitness]:
    """Find the lexicographically smallest witness (s, then sigma) for the
    multidegree, or None when the spin locus misses that fiber component.

    The multidegree must be a fiber component in the first place: total
    (2t+1)(g-1) and the basic inequality throughout.  Violations raise
    BasicInequalityError rather than returning None, so "not a component" and
    "a component the spin locus misses" stay distinguishable.
    """
    check_t(t, unsafe_t=unsafe_t)
    _require_spin_graph(graph)
    _check_multidegree(graph, multidegree)
    d_total = (2 * t + 1) * (graph.genus - 1)
    if multidegree.total != d_total:
        raise BasicInequalityError(
            f"total degree {multidegree.total} does not equal "
            f"(2t+1)(g-1) = {d_total}"
        )
    report = basic_inequality(graph, multidegree, max_vertices=max_vertices)
    if not report.satisfied:
        worst = report.violations[0]
        raise BasicInequalityError(
            f"multidegree is not a fiber component: degree {worst.degree} on "
            f"Y={{{', '.join(sorted(worst.subcurve))}}} falls outside "
            f"[{worst.lower}, {worst.upper}]"
        )

    base = {
        vid: (2 * t + 1) * (graph.pa(vid) - 1) + t * graph.contact(vid)
        for vid in graph.ids
    }
    for pairs, choice in _iter_s_tables(graph):
        if not _parity_ok(graph, pairs, choice):
            continue
        blown = dict.fromkeys(graph.ids, 0)
        for (u, v, _), s_uv in zip(pairs, choice):
            blown[u] += s_uv
            blown[v] += s_uv
        need = {}
        feasible = True
        for vid in graph.ids:
            quota = (
                multidegree[vid]
                - base[vid]
                - (graph.contact(vid) - blown[vid]) // 2
            )
            if quota < 0 or quota > blown[vid]:
                feasible = False
                break
            need[vid] = quota
        if not feasible:
            continue
        blown_pairs = [
            (u, v, s_uv) for (u, v, _), s_uv in zip(pairs, choice) if s_uv
        ]
        split = _lexmin_split(blown_pairs, dict(need))
        if split is None:
            continue
        witness = SpinWitness(
            {(u, v): s_uv for (u, v, s_uv) in blown_pairs},
            {(u, v): a for (u, v, _), a in zip(blown_pairs, split)},
        )
        if grouped_multidegree(graph, witness, t, unsafe_t=unsafe_t) != multidegree:
            raise _internal_error(
                "witness does not reproduce the multidegree",
                graph, t=t, witness=witness.to_dict(), multidegree=multidegree.as_dict(),
            )
        return witness
    return None


def enumerate_spin_multidegrees(
    graph: DualGraph,
    t: int,
    *,
    unsafe_t: bool = False,
    max_vertices: Optional[int] = None,
) -> list[Multidegree]:
    """Every multidegree the spin locus meets at twist t, sorted by degree
    vector over the id-sorted coordinates (no duplicates).

    Derived purely from witness tables: all parity-feasible s, then all sigma
    splits of each.
    """
    check_t(t, unsafe_t=unsafe_t)
    _require_spin_graph(graph)
    _check_cap(graph, max_vertices)
    ids = graph.ids
    base = {
        vid: (2 * t + 1) * (graph.pa(vid) - 1) + t * graph.contact(vid)
        for vid in ids
    }
    seen: set[tuple[int, ...]] = set()
    for pairs, choice in _iter_s_tables(graph):
        if not _parity_ok(graph, pairs, choice):
            continue
        blown = dict.fromkeys(ids, 0)
        for (u, v, _), s_uv in zip(pairs, choice):
            blown[u] += s_uv
            blown[v] += s_uv
        start = {
            vid: base[vid] + (graph.contact(vid) - blown[vid]) // 2 for vid in ids
        }
        blown_pairs = [
            (u, v, s_uv) for (u, v, _), s_uv in zip(pairs, choice) if s_uv
        ]

        def sweep(idx: int, vec: dict[str, int]) -> None:
            if idx == len(blown_pairs):
                seen.add(tuple(vec[i] for i in ids))
                return
            u, v, count = blown_pairs[idx]
            for a in range(count + 1):
                vec[u] += a
                vec[v] += count - a
                sweep(idx + 1, vec)
                vec[u] -= a
                vec[v] -= count - a

        sweep(0, dict(start))
    return [Multidegree.from_values(graph, values) for values in sorted(seen)]


# -- the split curve -------------------------------------------------------


def split_curve_graph(genus: int) -> DualGraph:
    """Two rational components joined in genus + 1 nodes."""
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 3:
        raise DomainError(f"split curves need integer genus >= 3, got {genus!r}")
    return DualGraph([("C1", 0), ("C2", 0)], {("C1", "C2"): genus + 1})


@dataclass(frozen=True)
class SplitCurveRow:
    """One admissible (s, sigma) choice on the split curve and its bidegree."""

    genus: int
    t: int
    s: int
    sigma: int
    d1: int
    d2: int

    def __post_init__(self) -> None:
        if not 0 <= self.sigma <= self.s <= self.genus + 1:
            raise WitnessError("split-curve row out of range: need 0 <= sigma <= s <= g+1")
        if (self.genus + 1 - self.s) % 2:
            raise WitnessError("split-curve row violates parity: g + 1 - s must be even")
        if self.d1 + self.d2 != (2 * self.t + 1) * (self.genus - 1):
            raise WitnessError("split-curve row total is not (2t+1)(g-1)")


def split_curve_table(genus: int, t: int, *, unsafe_t: bool = False) -> list[SplitCurveRow]:
    """Closed-form bidegrees on the split curve, one row per (s, sigma).

    d1 = (t + 1/2)(g+1) - (2t+1) - s/2 + sigma, with s running over
    0 <= s <= g+1 of the same parity as g+1 and 0 <= sigma <= s.  Rows are
    evaluated in exact rationals and must come out integral; distinct rows may
    repeat a bidegree, deliberately.
    """
    check_t(t, unsafe_t=unsafe_t)
    if isinstance(genus, bool) or not isinstance(genus, int) or genus < 3:
        raise DomainError(f"split curves need integer genus >= 3, got {genus!r}")
    rows = []
    for s in range(0, genus + 2):
        if (genus + 1 - s) % 2:
            continue
        for sigma in range(0, s + 1):
            d1 = (
                Fraction(2 * t + 1, 2) * (genus + 1)
                - (2 * t + 1)
                - Fraction(s, 2)
                + sigma
            )
            d2 = (2 * t + 1) * (genus - 1) - d1
            if d1.denominator != 1 or d2.denominator != 1:
                raise _internal_error(
                    f"non-integral split-curve degree at s={s}, sigma={sigma}",
                    split_curve_graph(genus), t=t, s=s, sigma=sigma,
                )
            rows.append(
                SplitCurveRow(genus=genus, t=t, s=s, sigma=sigma, d1=int(d1), d2=int(d2))
            )
    return rows
