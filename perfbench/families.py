"""Seeded graph families for the benchmark, as raw JSON-shaped graph dicts.

Every generator returns the documented graph object form
(``{"vertices": [...], "edges": [...]}``), so the program under test parses
its own input with ``validate_graph`` exactly as the CLI does.  Nothing here
imports the package under test or its test suite.
"""

from __future__ import annotations

import random


def graph(vertices, edges) -> dict:
    """Raw graph from ``[(id, pa, self_nodes)]`` and ``{(u, v): multiplicity}``."""
    return {
        "vertices": [{"id": v, "pa": pa, "self_nodes": sn} for v, pa, sn in vertices],
        "edges": [
            {"u": u, "v": v, "multiplicity": m} for (u, v), m in sorted(edges.items()) if m
        ],
    }


class Shape:
    """Plain numbers of a raw graph in sorted-id order: the oracles' input."""

    def __init__(self, raw: dict) -> None:
        verts = sorted(raw["vertices"], key=lambda v: v["id"])
        self.ids = [v["id"] for v in verts]
        self.n = len(self.ids)
        self.pa = [v["pa"] for v in verts]
        self.self_nodes = [v.get("self_nodes", 0) for v in verts]
        index = {vid: i for i, vid in enumerate(self.ids)}
        self.k = [[0] * self.n for _ in range(self.n)]
        for e in raw["edges"]:
            i, j = index[e["u"]], index[e["v"]]
            self.k[i][j] = self.k[j][i] = e["multiplicity"]
        self.contact = [sum(row) for row in self.k]
        self.pairs = [
            (i, j, self.k[i][j])
            for i in range(self.n)
            for j in range(i + 1, self.n)
            if self.k[i][j]
        ]
        self.genus = sum(self.pa) + sum(m for _, _, m in self.pairs) - self.n + 1

    def stable(self) -> bool:
        return all(2 * p - 2 + c > 0 for p, c in zip(self.pa, self.contact))

    def connected(self) -> bool:
        seen, todo = {0}, [0]
        while todo:
            i = todo.pop()
            for j in range(self.n):
                if self.k[i][j] and j not in seen:
                    seen.add(j)
                    todo.append(j)
        return len(seen) == self.n

    def spin_base(self, t: int) -> list[int]:
        """(2t+1)(pa_i - 1) + t * contact_i: the part of every spin degree
        that does not depend on the blow-up."""
        return [(2 * t + 1) * (p - 1) + t * c for p, c in zip(self.pa, self.contact)]


def cycle(n: int) -> dict:
    """C_n: n elliptic components in a cycle, one node per neighbouring pair."""
    ids = [f"e{i:02d}" for i in range(n)]
    return graph(
        [(v, 1, 0) for v in ids],
        {tuple(sorted((ids[i], ids[(i + 1) % n]))): 1 for i in range(n)},
    )


def complete(n: int, m: int = 2) -> dict:
    """K_n: n rational components, every pair joined in m nodes."""
    ids = [f"v{i}" for i in range(n)]
    return graph(
        [(v, 0, 0) for v in ids],
        {(ids[i], ids[j]): m for i in range(n) for j in range(i + 1, n)},
    )


def split(genus: int) -> dict:
    """The split curve: two rational components joined in genus + 1 nodes."""
    return graph([("C1", 0, 0), ("C2", 0, 0)], {("C1", "C2"): genus + 1})


def patterned(
    rng: random.Random,
    pattern: dict,
    *,
    self_nodes: int = 0,
    max_pa: int = 3,
    min_genus: int = 2,
) -> dict:
    """A stable graph with the given node pattern ``{(i, j): multiplicity}``
    on vertices 0..n-1, its vertices shuffled, genera drawn at random and
    all ``self_nodes`` on one random vertex of large enough genus."""
    n = 1 + max(max(p) for p in pattern)
    ids = [f"r{i}" for i in range(n)]
    while True:
        perm = list(range(n))
        rng.shuffle(perm)
        edges = {}
        for (i, j), m in pattern.items():
            a, b = sorted((perm[i], perm[j]))
            edges[(ids[a], ids[b])] = m
        pa = [rng.randint(0, max_pa) for _ in range(n)]
        selfn = [0] * n
        if self_nodes:
            hosts = [i for i in range(n) if pa[i] >= self_nodes]
            if not hosts:
                continue
            selfn[rng.choice(hosts)] = self_nodes
        raw = graph([(ids[i], pa[i], selfn[i]) for i in range(n)], edges)
        shape = Shape(raw)
        if shape.stable() and shape.genus >= min_genus:
            return raw


def random_stable(
    rng: random.Random,
    n: int,
    *,
    pair_nodes: int,
    max_k: int = 4,
    max_pa: int = 2,
    self_nodes: int = 0,
    min_genus: int = 2,
) -> dict:
    """A connected stable graph on n vertices with exactly ``pair_nodes``
    nodes between distinct components and ``self_nodes`` self-nodes, all on
    one vertex.

    Draws until the sample is connected, stable and of genus >= min_genus;
    ids are ``r0 .. r{n-1}``.
    """
    if pair_nodes < n - 1 or pair_nodes > max_k * n * (n - 1) // 2:
        raise ValueError(f"{pair_nodes} pair nodes cannot connect {n} vertices")
    if self_nodes > max_pa:
        raise ValueError(f"{self_nodes} self-nodes need a vertex of genus {self_nodes}")
    ids = [f"r{i}" for i in range(n)]
    all_pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    while True:
        mult = dict.fromkeys(all_pairs, 0)
        order = list(range(n))
        rng.shuffle(order)
        for a in range(1, n):  # random spanning tree keeps it connected
            i, j = sorted((order[a], order[rng.randrange(a)]))
            mult[(i, j)] += 1
        placed = n - 1
        while placed < pair_nodes:
            key = rng.choice(all_pairs)
            if mult[key] < max_k:
                mult[key] += 1
                placed += 1
        pa = [rng.randint(0, max_pa) for _ in range(n)]
        selfn = [0] * n
        if self_nodes:
            # All on one vertex: how self-nodes are spread sets how many
            # blow-up models of each size exist, and so the cost mix.
            hosts = [i for i in range(n) if pa[i] >= self_nodes]
            if not hosts:
                continue
            selfn[rng.choice(hosts)] = self_nodes
        raw = graph(
            [(ids[i], pa[i], selfn[i]) for i in range(n)],
            {(ids[i], ids[j]): m for (i, j), m in mult.items()},
        )
        shape = Shape(raw)
        if shape.stable() and shape.genus >= min_genus:
            return raw
