"""Independent oracles for the benchmark's answers.

Each oracle recomputes an answer by a route that shares no code with the
package under test: integer arithmetic scaled by 2(g-1) in place of
``Fraction``, a lowest-set-bit subset table in place of per-subset loops, the
witness (orientation) description of the spin locus in place of box
enumeration, and Kirchhoff's matrix-tree theorem for admissible-set sizes.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import gcd

from families import Shape, graph


def subset_table(shape: Shape):
    """Per mask over the sorted ids: (sum pa, component count, internal nodes,
    total contact), built by the lowest-set-bit recurrence."""
    n = shape.n
    size = 1 << n
    pa = [0] * size
    count = [0] * size
    internal = [0] * size
    contact = [0] * size
    for mask in range(1, size):
        low = mask & -mask
        i = low.bit_length() - 1
        rest = mask ^ low
        row = shape.k[i]
        inside = 0
        bits = rest
        while bits:
            b = bits & -bits
            inside += row[b.bit_length() - 1]
            bits ^= b
        pa[mask] = pa[rest] + shape.pa[i]
        count[mask] = count[rest] + 1
        internal[mask] = internal[rest] + inside
        contact[mask] = contact[rest] + shape.contact[i]
    return pa, count, internal, contact


def bi_violations(shape: Shape, degrees: list[int]) -> list[tuple]:
    """Every subcurve outside its window, in ascending mask order, as
    (sorted ids, degree, lower, upper) with exact rational bounds."""
    g = shape.genus
    d = sum(degrees)
    pa, count, internal, contact = subset_table(shape)
    dsum = [0] * (1 << shape.n)
    found = []
    for mask in range(1, 1 << shape.n):
        low = mask & -mask
        dsum[mask] = dsum[mask ^ low] + degrees[low.bit_length() - 1]
        g_y = pa[mask] + internal[mask] - count[mask] + 1
        k_y = contact[mask] - 2 * internal[mask]
        # 2(g-1) * m(Y) = d (2 g_Y - 2 + k_Y) - (g-1) k_Y
        low2 = d * (2 * g_y - 2 + k_y) - (g - 1) * k_y
        scaled = 2 * (g - 1) * dsum[mask]
        if scaled < low2 or scaled > low2 + 2 * (g - 1) * k_y:
            lower = Fraction(low2, 2 * (g - 1))
            members = [shape.ids[i] for i in range(shape.n) if mask >> i & 1]
            found.append((tuple(members), dsum[mask], lower, lower + k_y))
    return found


def spanning_trees(shape: Shape) -> int:
    """Kirchhoff: the determinant of the reduced Laplacian, multiplicities
    counted.  At totals with gcd(d - g + 1, 2g - 2) = 1 it equals the number
    of admissible multidegrees."""
    n = shape.n
    lap = [
        [Fraction(shape.contact[i] if i == j else -shape.k[i][j]) for j in range(1, n)]
        for i in range(1, n)
    ]
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if lap[r][col] != 0), None)
        if pivot is None:
            return 0
        if pivot != col:
            lap[col], lap[pivot] = lap[pivot], lap[col]
            det = -det
        det *= lap[col][col]
        for r in range(col + 1, size):
            factor = lap[r][col] / lap[col][col]
            if factor:
                for c in range(col, size):
                    lap[r][c] -= factor * lap[col][c]
    return int(det)


def coprime_total(genus: int, start: int) -> int:
    """Smallest total >= start with gcd(d - g + 1, 2g - 2) = 1."""
    d = start
    while gcd(d - genus + 1, 2 * genus - 2) != 1:
        d += 1
    return d


def spin_locus(shape: Shape, t: int) -> set[tuple[int, ...]]:
    """Degree vectors the spin locus meets at twist t, from witnesses.

    A witness blows s of a pair's k nodes and credits sigma of them to the
    first end, so the first end gains (k - s)/2 + sigma = a/2 with
    a = k - s + 2 sigma, which takes every value 0..2k, and the second end
    gains k - a/2.  Vectors whose halves are all integral are the locus.
    """
    states = {tuple([0] * shape.n)}
    for i, j, k in shape.pairs:
        grown = set()
        for vec in states:
            for a in range(2 * k + 1):
                new = list(vec)
                new[i] += a
                new[j] += 2 * k - a
                grown.add(tuple(new))
        states = grown
    base = shape.spin_base(t)
    return {
        tuple(b + q // 2 for b, q in zip(base, vec))
        for vec in states
        if all(q % 2 == 0 for q in vec)
    }


def grouped_degree(shape: Shape, t: int, s: dict, sigma: dict) -> list[int]:
    """Degree vector a witness cuts out: s and sigma keyed by id pairs
    (s by sorted pair, sigma by ordered pair)."""
    degrees = shape.spin_base(t)
    unblown = list(shape.contact)
    for i, j, _ in shape.pairs:
        u, v = shape.ids[i], shape.ids[j]
        blown = s.get((u, v), 0)
        unblown[i] -= blown
        unblown[j] -= blown
        degrees[i] += sigma.get((u, v), 0)
        degrees[j] += sigma.get((v, u), 0)
    return [d + left // 2 for d, left in zip(degrees, unblown)]


def witness_valid(shape: Shape, s: dict, sigma: dict) -> bool:
    """Bounds, sigma sums and per-vertex parity of a witness."""
    index = {v: i for i, v in enumerate(shape.ids)}
    blown = [0] * shape.n
    for (u, v), count in s.items():
        i, j = index[u], index[v]
        if not 0 < count <= shape.k[i][j]:
            return False
        if sigma.get((u, v), 0) + sigma.get((v, u), 0) != count:
            return False
        blown[i] += count
        blown[j] += count
    return all((c - b) % 2 == 0 for c, b in zip(shape.contact, blown))


def split_rows(genus: int, t: int) -> list[tuple[int, int, int, int]]:
    """Closed-form split-curve rows (s, sigma, d1, d2), integer arithmetic:
    2 d1 = (2t+1)(g+1) - 2(2t+1) - s + 2 sigma."""
    total = (2 * t + 1) * (genus - 1)
    rows = []
    for s in range((genus + 1) % 2, genus + 2, 2):
        for sigma in range(s + 1):
            twice = (2 * t + 1) * (genus + 1) - 2 * (2 * t + 1) - s + 2 * sigma
            rows.append((s, sigma, twice // 2, total - twice // 2))
    return rows


def blowup_model(shape: Shape, s: dict, r: dict, t: int):
    """Spin degrees of the core vertices, the exceptional count, and whether
    the core stays connected (GIT stability), for blow-up counts s (sorted
    id pairs) and r (ids), straight from the source graph."""
    index = {v: i for i, v in enumerate(shape.ids)}
    left = [row[:] for row in shape.k]
    for (u, v), count in s.items():
        i, j = index[u], index[v]
        left[i][j] -= count
        left[j][i] -= count
    degrees = {}
    for i, vid in enumerate(shape.ids):
        core = sum(left[i])
        pa = shape.pa[i] - r.get(vid, 0)
        contact = shape.contact[i] + 2 * r.get(vid, 0)
        degrees[vid] = (2 * t + 1) * (pa - 1) + t * contact + core // 2
    seen, todo = {0}, [0]
    while todo:
        i = todo.pop()
        for j in range(shape.n):
            if left[i][j] and j not in seen:
                seen.add(j)
                todo.append(j)
    exceptional = sum(s.values()) + sum(r.values())
    return degrees, exceptional, len(seen) == shape.n


def spin_configs(shape: Shape) -> list[tuple[dict, dict]]:
    """Every spin-parity blow-up configuration as (s, r) dicts, in the order
    of the product over sorted pairs, then over vertices with self-nodes."""
    keys = [(shape.ids[i], shape.ids[j]) for i, j, _ in shape.pairs]
    selfs = [(v, sn) for v, sn in zip(shape.ids, shape.self_nodes) if sn]
    found = []
    for choice in product(*(range(k + 1) for _, _, k in shape.pairs)):
        blown = [0] * shape.n
        for (i, j, _), c in zip(shape.pairs, choice):
            blown[i] += c
            blown[j] += c
        if any((c - b) % 2 for c, b in zip(shape.contact, blown)):
            continue
        for rs in product(*(range(sn + 1) for _, sn in selfs)):
            found.append(
                (
                    {key: c for key, c in zip(keys, choice) if c},
                    {v: c for (v, _), c in zip(selfs, rs) if c},
                )
            )
    return found


def model_graph(shape: Shape, s: dict, r: dict) -> dict:
    """The expanded model, exceptional ids named as the package names them."""
    vertices = [
        (v, pa - r.get(v, 0), sn - r.get(v, 0))
        for v, pa, sn in zip(shape.ids, shape.pa, shape.self_nodes)
    ]
    edges = {}
    for i, j, k in shape.pairs:
        u, v = shape.ids[i], shape.ids[j]
        edges[(u, v)] = k - s.get((u, v), 0)
    for (u, v), count in sorted(s.items()):
        for idx in range(1, count + 1):
            eid = f"E({u}|{v})#{idx}"
            vertices.append((eid, 0, 0))
            edges[(eid, u)] = edges[(eid, v)] = 1
    for v, count in sorted(r.items()):
        for idx in range(1, count + 1):
            eid = f"E({v}|{v})#{idx}"
            vertices.append((eid, 0, 0))
            edges[(eid, v)] = 2
    return graph(vertices, edges)


def boundary_cases(shape: Shape, s: dict, r: dict, t: int) -> tuple:
    """Per subcurve of the model, in ascending mask order: (ids, degree,
    lower, contact, core contact, at_min, at_max)."""
    model = Shape(model_graph(shape, s, r))
    core_deg, _, _ = blowup_model(shape, s, r, t)
    degrees = [core_deg.get(v, 1) for v in model.ids]
    core = [v in core_deg for v in model.ids]
    g = model.genus
    d = (2 * t + 1) * (g - 1)
    pa, count, internal, contact = subset_table(model)
    rows = []
    for mask in range(1, 1 << model.n):
        members = [i for i in range(model.n) if mask >> i & 1]
        g_y = pa[mask] + internal[mask] - count[mask] + 1
        k_y = contact[mask] - 2 * internal[mask]
        d_y = sum(degrees[i] for i in members)
        low2 = d * (2 * g_y - 2 + k_y) - (g - 1) * k_y
        core_contact = sum(
            model.k[i][j]
            for i in members
            if core[i]
            for j in range(model.n)
            if core[j] and not mask >> j & 1
        )
        rows.append(
            (
                tuple(model.ids[i] for i in members),
                d_y,
                Fraction(low2, 2 * (g - 1)),
                k_y,
                core_contact,
                2 * (g - 1) * d_y == low2,
                2 * (g - 1) * d_y == low2 + 2 * (g - 1) * k_y,
            )
        )
    return tuple(rows)
