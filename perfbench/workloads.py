"""The benchmark's in-process workloads: seeded inputs, queries and oracles.

A workload is a list of queries, built once from the seed and replayed round
after round by ``run.py``.  Each query is one call a user would make: it
starts from raw JSON-shaped input, so the program parses the graph itself,
and it looks up every library function on the package at call time, so the
traced run sees each call.  ``oracle`` computes the expected answer by an
independent route before any timing starts; ``norm`` turns the program's
answer into the same plain form.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable

import families as fam
import oracles as orc
from families import Shape


@dataclass(frozen=True)
class Raised:
    """A query ended in one of the package's own errors, by class name."""

    error: str


@dataclass
class Query:
    kind: str
    call: Callable[[Any], Any]
    norm: Callable[[Any], Any]
    oracle: Callable[[], Any]
    expect: Any = None

    def prepare(self) -> None:
        self.expect = self.oracle()

    def judge(self, answer) -> str:
        """'ok' when the answer matches the oracle, else 'wrong'."""
        got = answer if isinstance(answer, Raised) else self.norm(answer)
        return "ok" if got == self.expect else "wrong"


def _twist(rng: random.Random) -> int:
    return rng.randint(10, 30)


def _random_component(shape: Shape, rng: random.Random, t: int) -> list[int]:
    """A uniformly drawn witness, as the degree vector it cuts out: each pair
    splits its doubled nodes (a, 2k - a); the draw is kept when every vertex
    total is even.  At spin totals these are exactly the admissible vectors."""
    while True:
        q = [0] * shape.n
        for i, j, k in shape.pairs:
            a = rng.randint(0, 2 * k)
            q[i] += a
            q[j] += 2 * k - a
        if all(x % 2 == 0 for x in q):
            return [b + x // 2 for b, x in zip(shape.spin_base(t), q)]


def _violating(shape: Shape, degrees: list[int], rng: random.Random) -> list[int]:
    """Move more than vertex i's contact onto i from another vertex: the
    singleton {i} then leaves its window, whose width is that contact."""
    i, j = rng.sample(range(shape.n), 2)
    shift = shape.contact[i] + 1 + rng.randrange(3)
    out = list(degrees)
    out[i] += shift
    out[j] -= shift
    return out


def _values(result, ids) -> tuple:
    return tuple(md.values(ids) for md in result)


# -- admissibility ---------------------------------------------------------


def _bi_query(raw: dict, degrees: list[int]) -> Query:
    shape = Shape(raw)

    def call(sp):
        graph = sp.validate_graph(raw)
        return sp.basic_inequality(graph, sp.Multidegree.of(dict(zip(shape.ids, degrees))))

    def norm(report):
        rows = tuple(
            (tuple(sorted(v.subcurve)), v.degree, v.lower, v.upper) for v in report.violations
        )
        return report.satisfied, rows

    def oracle():
        rows = tuple(orc.bi_violations(shape, degrees))
        return not rows, rows

    return Query(f"bi.n{shape.n}", call, norm, oracle)


def _enum_query(raw: dict, total: int, *, spin_t: int | None) -> Query:
    """Enumeration at a spin total (spin_t set) or at a coprime total."""
    shape = Shape(raw)

    def call(sp):
        return sp.enumerate_multidegrees(sp.validate_graph(raw), total)

    if spin_t is not None:
        def norm(result):
            return _values(result, shape.ids)

        def oracle():
            return tuple(sorted(orc.spin_locus(shape, spin_t)))

        kind = "enum.spin"
    else:
        # Kirchhoff gives the count; each output is checked on its own.
        count = orc.spanning_trees(shape)

        def norm(result):
            vals = _values(result, shape.ids)
            ok = (
                list(vals) == sorted(set(vals))
                and all(sum(v) == total for v in vals)
                and not any(orc.bi_violations(shape, list(v)) for v in vals)
            )
            return ok, len(vals)

        def oracle():
            return True, count

        kind = "enum.coprime"
    return Query(f"{kind}.n{shape.n}", call, norm, oracle)


#: (vertices, nodes between components, self-nodes) of the random stable
#: graphs.  Fixed shapes keep each slot's cost steady from seed to seed; the
#: seed places the nodes and picks the genera.
RANDOM_SHAPES = ((2, 3, 0), (2, 4, 1), (3, 4, 0), (3, 5, 1), (3, 3, 1), (4, 4, 0), (4, 5, 1), (4, 6, 0))


def _random_graphs(rng: random.Random, min_genus: int = 2) -> list[dict]:
    return [
        fam.random_stable(rng, n, pair_nodes=p, self_nodes=s, min_genus=min_genus)
        for n, p, s in RANDOM_SHAPES
    ]


def admissibility(rng: random.Random) -> list[Query]:
    """Basic-inequality verdicts and multidegree enumeration.

    The counts per family place the median inside the K_6 verdicts and the
    tail inside the C_10 verdicts, blocks of like cost, so that neither
    figure jumps between families from one seed to the next."""
    verdict_graphs = (
        [fam.cycle(12)] * 2
        + [fam.cycle(10)] * 8
        + [fam.cycle(9)] * 4
        + [fam.cycle(8)] * 8
        + [fam.complete(6)] * 14
        + [fam.complete(n) for n in (4, 5) for _ in range(6)]
        + [fam.split(rng.randint(5, 40)) for _ in range(8)]
        + _random_graphs(rng)
        + _random_graphs(rng)
    )
    queries = []
    for idx, raw in enumerate(verdict_graphs):
        shape = Shape(raw)
        degrees = _random_component(shape, rng, _twist(rng))
        if idx % 2:
            degrees = _violating(shape, degrees, rng)
        queries.append(_bi_query(raw, degrees))

    spin_graphs = (
        [fam.cycle(6)]
        + [fam.cycle(5)] * 2
        + [fam.complete(4)]
        + [fam.complete(3)] * 4
        + [fam.split(rng.randint(8, 12)) for _ in range(4)]
        + _random_graphs(rng, min_genus=3)
    )
    for raw in spin_graphs:
        t = _twist(rng)
        total = (2 * t + 1) * (Shape(raw).genus - 1)
        queries.append(_enum_query(raw, total, spin_t=t))

    coprime_graphs = (
        [fam.cycle(6)] * 4
        + [fam.complete(4)] * 2
        + [fam.complete(3)] * 4
        + _random_graphs(rng)
    )
    for raw in coprime_graphs:
        g = Shape(raw).genus
        total = orc.coprime_total(g, 20 * (g - 1) + rng.randrange(2 * g - 2))
        queries.append(_enum_query(raw, total, spin_t=None))
    rng.shuffle(queries)
    return queries


# -- blow-up models --------------------------------------------------------

#: Node patterns and self-node counts of the sampled graphs.  Fully blown
#: models reach 7-10 vertices, under the default 12-vertex cap of the
#: exhaustive scans.  The seed shuffles the vertices and draws the genera,
#: the self-node host and the twists; the patterns stay fixed, because they
#: alone set how many models of each size exist - and each size doubles the
#: cost of the one below - so the cost mix does not move with the seed.
BLOWUP_PATTERNS = (
    ({(0, 1): 4}, 1),
    ({(0, 1): 4}, 2),
    ({(0, 1): 4}, 3),
    ({(0, 1): 2, (1, 2): 2, (0, 2): 2}, 0),
    ({(0, 1): 2, (1, 2): 2, (0, 2): 2}, 1),
    ({(0, 1): 3, (1, 2): 2}, 2),
    ({(0, 1): 4, (1, 2): 3}, 0),
    ({(0, 1): 2, (1, 2): 1, (2, 3): 2}, 1),
    ({(0, 1): 1, (1, 2): 2, (2, 3): 1, (0, 3): 2}, 0),
    ({(0, 1): 1, (1, 2): 1, (2, 3): 1, (0, 3): 1}, 2),
    ({(0, 1): 2, (0, 2): 1, (0, 3): 2}, 0),
)

#: One model in this many also runs boundary_case on every subcurve.
BOUNDARY_EVERY = 8


def _config_raw(s: dict, r: dict) -> dict:
    return {
        "s": [{"u": u, "v": v, "count": c} for (u, v), c in sorted(s.items())],
        "r": [{"vertex": v, "count": c} for v, c in sorted(r.items())],
    }


def _configs_query(raw: dict) -> Query:
    shape = Shape(raw)

    def call(sp):
        return list(sp.iter_blowup_configs(sp.validate_graph(raw), spin_only=True))

    def norm(result):
        return tuple((c.s_items(), c.r_items()) for c in result)

    def oracle():
        return tuple(
            (tuple((u, v, c) for (u, v), c in sorted(s.items())), tuple(sorted(r.items())))
            for s, r in orc.spin_configs(shape)
        )

    return Query("configs", call, norm, oracle)


def _model_query(raw: dict, s: dict, r: dict, t: int) -> Query:
    shape = Shape(raw)
    config = _config_raw(s, r)

    def call(sp):
        q = sp.expand(sp.validate_graph(raw), sp.BlowupConfig.from_dict(config))
        md = sp.spin_multidegree(q, t)
        return (
            q,
            md,
            sp.basic_inequality(q, md),
            sp.git_stable(q, t),
            sp.git_stable_exhaustive(q, t),
            sp.orbit_closed_check(q, t),
        )

    def norm(answer):
        q, md, report, stable, stable_scan, closed = answer
        degrees = md.as_dict()
        return (
            q.n,
            len(q.exceptional),
            {v: degrees[v] for v in shape.ids},
            sorted(degrees[e] for e in q.exceptional),
            md.total,
            report.satisfied,
            stable,
            stable_scan,
            closed,
        )

    def oracle():
        core, exceptional, connected = orc.blowup_model(shape, s, r, t)
        # Spin multidegrees satisfy the basic inequality (criterion 3) and
        # spin models have closed orbits, so those two answers are constant.
        return (
            shape.n + exceptional,
            exceptional,
            core,
            [1] * exceptional,
            (2 * t + 1) * (shape.genus - 1),
            True,
            connected,
            connected,
            True,
        )

    return Query(f"model.v{shape.n + sum(s.values()) + sum(r.values())}", call, norm, oracle)


def _boundary_query(raw: dict, s: dict, r: dict, t: int) -> Query:
    shape = Shape(raw)
    config = _config_raw(s, r)

    def call(sp):
        q = sp.expand(sp.validate_graph(raw), sp.BlowupConfig.from_dict(config))
        return [sp.boundary_case(q, t, y) for y in sp.iter_subcurves(q)]

    def norm(cases):
        return tuple(
            (
                tuple(sorted(c.subcurve)),
                c.degree,
                c.lower,
                c.contact,
                c.core_contact,
                c.at_min,
                c.at_max,
            )
            for c in cases
        )

    return Query("boundary", call, norm, lambda: orc.boundary_cases(shape, s, r, t))


def blowup_models(rng: random.Random) -> list[Query]:
    """Every spin blow-up model of seeded small stable graphs."""
    queries = []
    offset = rng.randrange(BOUNDARY_EVERY)
    serial = 0
    for pattern, self_nodes in BLOWUP_PATTERNS:
        raw = fam.patterned(rng, pattern, self_nodes=self_nodes)
        queries.append(_configs_query(raw))
        for s, r in orc.spin_configs(Shape(raw)):
            t = _twist(rng)
            queries.append(_model_query(raw, s, r, t))
            if serial % BOUNDARY_EVERY == offset:
                queries.append(_boundary_query(raw, s, r, t))
            serial += 1
    rng.shuffle(queries)
    return queries


# -- spin locus ------------------------------------------------------------

#: Decide time on K_5 (m = 2) spans 1 ms to 0.4 s with the component, so a
#: seeded sample would make a round's cost swing with the seed.  The K_5
#: components are a fixed draw and K_4 contributes every component; the seed
#: sets each one's twist, which moves the multidegree but not the search.
K5_DRAW_SEED = 5
K5_COMPONENTS = 8


def _decide_query(raw: dict, t: int, degrees: list[int], *, component: bool) -> Query:
    shape = Shape(raw)

    def call(sp):
        graph = sp.validate_graph(raw)
        return sp.decide_spin_component(graph, t, sp.Multidegree.from_values(graph, degrees))

    def norm(witness):
        if witness is None:
            return None
        s = {(u, v): c for u, v, c in witness.s_items()}
        sigma = {(u, v): c for u, v, c in witness.sigma_items()}
        return orc.witness_valid(shape, s, sigma), tuple(orc.grouped_degree(shape, t, s, sigma))

    def oracle():
        # At a spin total every component is met (Hakimi orientations), so a
        # valid witness reproducing the degrees is the only right answer.
        if component:
            return True, tuple(degrees)
        return Raised("BasicInequalityError")

    return Query(f"decide.n{shape.n}" if component else "decide.reject", call, norm, oracle)


def _locus_query(raw: dict, t: int) -> Query:
    shape = Shape(raw)

    def call(sp):
        return sp.enumerate_spin_multidegrees(sp.validate_graph(raw), t)

    return Query(
        f"locus.n{shape.n}",
        call,
        lambda result: _values(result, shape.ids),
        lambda: tuple(sorted(orc.spin_locus(shape, t))),
    )


def _split_query(genus: int, t: int) -> Query:
    def call(sp):
        return (
            sp.split_curve_table(genus, t),
            sp.enumerate_spin_multidegrees(sp.split_curve_graph(genus), t),
        )

    def norm(answer):
        rows, found = answer
        return (
            tuple((r.s, r.sigma, r.d1, r.d2) for r in rows),
            _values(found, ("C1", "C2")),
        )

    def oracle():
        rows = orc.split_rows(genus, t)
        return tuple(rows), tuple(sorted({(d1, d2) for _, _, d1, d2 in rows}))

    return Query("split", call, norm, oracle)


def _rich_small(rng: random.Random) -> dict:
    """Two or three rational or elliptic components with many shared nodes."""
    n = rng.randint(2, 3)
    return fam.random_stable(
        rng, n, pair_nodes=rng.randint(3 * (n - 1), 4 * (n - 1) + n - 2),
        max_pa=1, min_genus=3,
    )


def _retwisted(shape: Shape, degrees, t: int) -> list[int]:
    """Move a spin-total degree vector from twist 0 to twist t."""
    return [d - b0 + b for d, b0, b in zip(degrees, shape.spin_base(0), shape.spin_base(t))]


def spin_locus(rng: random.Random) -> list[Query]:
    """Witness search, spin-locus enumeration and the split-curve table."""
    queries = []
    k4, k5 = fam.complete(4), fam.complete(5)
    k4s, k5s = Shape(k4), Shape(k5)
    k5_draw = random.Random(K5_DRAW_SEED)
    for _ in range(K5_COMPONENTS):
        t = _twist(rng)
        degrees = _retwisted(k5s, _random_component(k5s, k5_draw, 0), t)
        queries.append(_decide_query(k5, t, degrees, component=True))
    for degrees in sorted(orc.spin_locus(k4s, 0)):
        t = _twist(rng)
        queries.append(_decide_query(k4, t, _retwisted(k4s, degrees, t), component=True))
    rich = [_rich_small(rng) for _ in range(24)]
    for raw in rich:
        t = _twist(rng)
        queries.append(_decide_query(raw, t, _random_component(Shape(raw), rng, t), component=True))
    for raw in [k4] * 2 + rich[:6]:
        shape, t = Shape(raw), _twist(rng)
        bad = _violating(shape, _random_component(shape, rng, t), rng)
        queries.append(_decide_query(raw, t, bad, component=False))

    for raw in [fam.complete(5, 1)] * 6 + [k4] * 6 + rich[:6]:
        queries.append(_locus_query(raw, _twist(rng)))
    for _ in range(8):
        queries.append(_split_query(rng.randint(10, 40), _twist(rng)))
    rng.shuffle(queries)
    return queries


WORKLOADS = {
    "admissibility": admissibility,
    "blowup-models": blowup_models,
    "spin-locus": spin_locus,
}
