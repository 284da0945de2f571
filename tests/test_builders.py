"""Graphs and blow-up models built from data the library has checked.

`expand` hands its model to the trusted builder, which still checks every
model invariant: a failure there is the library's own, so it raises
RuntimeError with a payload that replays through `expand`.
"""

from __future__ import annotations

import json

import pytest

import spinpicard.quasistable as quasistable
from spinpicard import (
    BlowupConfig,
    DualGraph,
    GraphError,
    QuasistableGraph,
    Vertex,
    expand,
    iter_blowup_configs,
    validate_graph,
)


def test_expand_calls_no_validating_constructor(quasistable_corpus, monkeypatch):
    """With `contract` and the validating graph and vertex constructors
    patched to raise, expand still builds every spin model of a small
    corpus, each equal to the one it builds without the patches."""
    cases = [
        (graph, config)
        for graph in quasistable_corpus[::25]
        for config in iter_blowup_configs(graph, spin_only=True)
    ]
    expected = [expand(graph, config) for graph, config in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("validating constructor called")

    monkeypatch.setattr(quasistable, "contract", refuse)
    monkeypatch.setattr(DualGraph, "__init__", refuse)
    monkeypatch.setattr(Vertex, "__init__", refuse)
    models = [expand(graph, config) for graph, config in cases]
    monkeypatch.undo()
    assert len(models) >= 100
    assert models == expected
    assert [(q.exceptional, q.origin) for q in models] == [
        (q.exceptional, q.origin) for q in expected
    ]


# Two nodes joined to one self-node: a pair blow-up, a self-node blow-up and
# one core pair left, so each count below has something to corrupt.
GRAPH = DualGraph([("a", 2, 1), ("b", 1)], {("a", "b"): 3})
CONFIG = BlowupConfig({("a", "b"): 1}, {"a": 1})


def _corrupt(fault):
    """`QuasistableGraph._trusted`, handed one wrong count by expand."""
    build = QuasistableGraph._trusted.__func__

    def corrupted(cls, vertices, adjacency, *, exceptional, origin, source, config):
        if fault == "pair":  # one node too many left on the core pair
            adjacency["a"]["b"] += 1
            adjacency["b"]["a"] += 1
        elif fault == "origin":  # a pair blow-up recorded as a self-node one
            origin = {**origin, "E(a|b)#1": ("self", "a")}
        else:  # the self-node blow-up not taken off its vertex
            vertices = [Vertex("a", 2, 1) if v.id == "a" else v for v in vertices]
        return build(
            cls, vertices, adjacency,
            exceptional=exceptional, origin=origin, source=source, config=config,
        )

    return classmethod(corrupted)


@pytest.mark.parametrize("fault", ["pair", "origin", "r"])
def test_expand_postcondition_raises_a_replayable_internal_error(fault, monkeypatch):
    model = expand(GRAPH, CONFIG)
    assert model.k("a", "b") == 2 and model.pa("a") == 1
    monkeypatch.setattr(QuasistableGraph, "_trusted", _corrupt(fault))
    with pytest.raises(RuntimeError) as info:
        expand(GRAPH, CONFIG)
    monkeypatch.undo()
    message = str(info.value)
    assert type(info.value) is RuntimeError
    assert message.startswith(
        "internal error: contracting the exceptional vertices does not recover the source graph"
    )
    payload = json.loads(message.split("replay: ", 1)[1])
    replayed = expand(validate_graph(payload["source"]), BlowupConfig.from_dict(payload["blowups"]))
    assert replayed == model and replayed.origin == model.origin
    # The payload's graph is the one the builder was handed: only an origin
    # fault leaves it equal to the model.
    assert (validate_graph(payload["graph"]) == model) == (fault == "origin")


def test_validating_model_constructor_keeps_its_graph_errors():
    """Outside data that contracts to another graph is a GraphError, whether
    a core pair, an origin or a blown self-node is off."""
    source = validate_graph(GRAPH.to_dict())
    model = expand(source, CONFIG)
    vertices = [(v.id, v.pa, v.self_nodes) for v in model.vertices]
    pairs = list(model.pairs())
    wrong = [
        (vertices, [(u, v, m + ((u, v) == ("a", "b"))) for u, v, m in pairs], model.origin),
        (vertices, pairs, {**model.origin, "E(a|b)#1": ("self", "a")}),
        (vertices, pairs, {**model.origin, "E(a|b)#1": ("pair", "a", "zzz")}),
        ([("a", 2, 1) if v[0] == "a" else v for v in vertices], pairs, model.origin),
    ]
    for vs, es, origin in wrong:
        with pytest.raises(GraphError, match="recover the source"):
            QuasistableGraph(
                vs, es, exceptional=model.exceptional, origin=origin,
                source=source, config=CONFIG,
            )
