"""Self-tests for the benchmark's generators, oracles, golden file and tracer.

Run from the repository root: ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import cliwork  # noqa: E402
import families as fam  # noqa: E402
import oracles as orc  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from families import Shape  # noqa: E402


def _inputs(name: str, seed: int) -> list:
    queries = workloads.WORKLOADS[name](random.Random(seed))
    for query in queries:
        query.prepare()
    return [(q.kind, q.expect) for q in queries]


def test_generators_are_deterministic_per_seed():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 7) == _inputs(name, 7), name
        assert _inputs(name, 7) != _inputs(name, 8), name
    assert cliwork.order(random.Random(3)) == cliwork.order(random.Random(3))
    draw = [fam.random_stable(random.Random(4), 3, pair_nodes=5, self_nodes=1) for _ in range(2)]
    assert draw[0] == draw[1]


def test_random_stable_graphs_are_stable_and_connected():
    rng = random.Random(0)
    for n, nodes, selfs in workloads.RANDOM_SHAPES:
        shape = Shape(fam.random_stable(rng, n, pair_nodes=nodes, self_nodes=selfs))
        assert shape.stable() and shape.connected() and shape.genus >= 2
        assert sum(m for _, _, m in shape.pairs) == nodes
        assert sum(shape.self_nodes) == selfs
    for pattern, selfs in workloads.BLOWUP_PATTERNS:
        shape = Shape(fam.patterned(rng, pattern, self_nodes=selfs))
        assert shape.stable() and shape.connected() and shape.genus >= 2
        assert sorted(m for _, _, m in shape.pairs) == sorted(pattern.values())
        assert sorted(shape.self_nodes)[-1] == sum(shape.self_nodes) == selfs


def test_kirchhoff_counts_at_coprime_totals():
    c6 = Shape(fam.cycle(6))
    assert orc.coprime_total(c6.genus, 121) == 121
    assert orc.spanning_trees(c6) == 6
    k4 = Shape(fam.complete(4))
    assert orc.coprime_total(k4.genus, 161) == 161
    assert orc.spanning_trees(k4) == 128


def test_split_curve_genus_3_gives_the_five_bidegrees():
    five = {(19, 23), (20, 22), (21, 21), (22, 20), (23, 19)}
    rows = orc.split_rows(3, 10)
    assert {(d1, d2) for _, _, d1, d2 in rows} == five
    assert sorted({s for s, _, _, _ in rows}) == [0, 2, 4]
    assert orc.spin_locus(Shape(fam.split(3)), 10) == five


def test_basic_inequality_oracle_on_the_split_curve():
    split3 = Shape(fam.split(3))
    assert orc.bi_violations(split3, [21, 21]) == []
    assert orc.bi_violations(split3, [18, 24]) == [
        (("C1",), 18, Fraction(19), Fraction(23)),
        (("C2",), 24, Fraction(19), Fraction(23)),
    ]


def test_witness_and_blowup_oracles():
    split3 = Shape(fam.split(3))
    s, sigma = {("C1", "C2"): 2}, {("C1", "C2"): 0, ("C2", "C1"): 2}
    assert orc.witness_valid(split3, s, sigma)
    assert orc.grouped_degree(split3, 10, s, sigma) == [20, 22]
    assert not orc.witness_valid(split3, {("C1", "C2"): 1}, {("C1", "C2"): 1})
    core, exceptional, connected = orc.blowup_model(split3, {("C1", "C2"): 4}, {}, 10)
    assert core == {"C1": 19, "C2": 19} and exceptional == 4 and not connected


def test_golden_covers_the_catalog_and_keeps_the_cap_refusal():
    golden = cliwork.load_golden()
    assert sorted(golden) == sorted(cliwork.all_keys())
    cap = golden[cliwork.CAP_ENTRY]
    refusal = (cap["refusal"]["exit"], "", cap["refusal"]["stderr"])
    assert cliwork.judge(golden, cliwork.CAP_ENTRY, refusal) == "refused"
    assert cliwork.judge(golden, cliwork.CAP_ENTRY, (0, cap["stdout"], "")) == "ok"
    assert cliwork.judge(golden, cliwork.CAP_ENTRY, (1, "", "other\n")) == "wrong"
    assert "13 vertices" in cap["refusal"]["stderr"]


def test_tracer_spans_nest_and_uninstall_restores():
    import spinpicard as sp

    original = sp.basic_inequality
    tracer = tracing.Tracer()
    tracer.install()
    try:
        graph = sp.validate_graph(fam.cycle(5))
        found = sp.enumerate_multidegrees(graph, 21 * (graph.genus - 1))
    finally:
        tracer.uninstall()
    assert sp.basic_inequality is original
    metrics = tracing.per_layer(tracer, 1)
    assert metrics["graphs.enumerate_multidegrees.outputs"] == len(found) == 31
    candidates = metrics["graphs.enumerate_multidegrees.candidates"]
    assert candidates == metrics["graphs.basic_inequality.calls"] >= len(found)
    assert metrics["graphs.basic_inequality.subcurves"] == 31 * candidates
    own, inclusive, _ = tracer.totals()
    for name, spent in own.items():
        assert 0 <= spent <= inclusive[name] + 1e-9


def test_benchmark_file_names_every_metric_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    assert len(names) == len(spec["end_to_end"]) + len(spec["per_layer"])
    assert {w["name"] for w in spec["workloads"]} == {*workloads.WORKLOADS, "cli"}
