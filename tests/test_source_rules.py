"""Rules the library source keeps, checked by parsing it."""

from __future__ import annotations

import argparse
import ast
from pathlib import Path

from spinpicard.cli import build_parser
from test_trusted import TRUSTED

SRC = Path(__file__).resolve().parent.parent / "src" / "spinpicard"


def test_no_assert_statements_in_the_library():
    """`python -O` strips asserts, so runtime checks must raise explicitly."""
    modules = sorted(SRC.rglob("*.py"))
    assert modules
    found = [
        f"{path.name}:{node.lineno}"
        for path in modules
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert not found, f"assert statements in src/spinpicard: {', '.join(found)}"


def test_no_dataclasses_import_in_the_library():
    """``dataclasses`` loads ``inspect``, about 13 ms of a command's cold
    start: the value classes are frozen records on `errors._Record`."""
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Import) and any(a.name == "dataclasses" for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.module == "dataclasses"
    ]
    assert not found, f"dataclasses imported in src/spinpicard: {', '.join(found)}"


def test_every_max_vertices_parameter_is_read():
    """A cap that a function accepts but never reads is a dead knob: callers
    would believe it bounds a scan that no longer runs."""
    unread = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            args = node.args
            params = args.posonlyargs + args.args + args.kwonlyargs
            if not any(arg.arg == "max_vertices" for arg in params):
                continue
            if not any(
                isinstance(name, ast.Name) and name.id == "max_vertices"
                and isinstance(name.ctx, ast.Load)
                for stmt in node.body for name in ast.walk(stmt)
            ):
                unread.append(f"{path.name}:{node.lineno} {node.name}")
    assert not unread, f"max_vertices accepted but never read: {', '.join(unread)}"


def test_no_isinstance_against_typing_names():
    """typing's aliases answer isinstance through Python-level
    __instancecheck__ code, several times slower than the collections.abc
    classes they stand for: runtime checks use those classes."""
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        names, modules = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "typing":
                names |= {alias.asname or alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                modules |= {
                    alias.asname or alias.name for alias in node.names if alias.name == "typing"
                }
        for node in ast.walk(tree):
            if not (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2
            ):
                continue
            classes = node.args[1]
            for cls in classes.elts if isinstance(classes, ast.Tuple) else [classes]:
                if (isinstance(cls, ast.Name) and cls.id in names) or (
                    isinstance(cls, ast.Attribute) and isinstance(cls.value, ast.Name)
                    and cls.value.id in modules
                ):
                    found.append(f"{path.name}:{node.lineno} {ast.unparse(cls)}")
    assert not found, f"isinstance against a typing name: {', '.join(found)}"


def test_every_cli_option_is_read():
    """An option the parser registers but no handler reads is accepted and
    silently ignored, so every option's dest is read as args.<dest>."""
    dests = set()
    parsers = [build_parser()]
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings and not isinstance(action, argparse._HelpAction):
                dests.add(action.dest)
    tree = ast.parse((SRC / "cli.py").read_text())
    read = {
        node.attr for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id == "args" and isinstance(node.ctx, ast.Load)
    }
    assert "max_vertices" in dests
    assert not dests - read, f"options never read: {', '.join(sorted(dests - read))}"


def test_every_trusted_constructor_has_an_equality_check():
    """Values built without validation, every class handed to the one
    helper `_unchecked` plus the graph builders defined as ``_trusted``,
    must each appear in the parametrization of the test holding them equal
    to validated ones; only `DualGraph` and `QuasistableGraph` define
    ``_trusted``."""
    unchecked, defining = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ClassDef) and any(
                isinstance(item, ast.FunctionDef) and item.name == "_trusted"
                for item in node.body
            ):
                defining.add(node.name)
            elif (
                isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "_unchecked"
            ):
                unchecked.add(ast.unparse(node.args[0]))
    assert defining == {"DualGraph", "QuasistableGraph"}, sorted(defining)
    assert unchecked | defining == set(TRUSTED), (
        f"classes built unchecked {sorted(unchecked | defining)} vs checked {sorted(TRUSTED)}"
    )


def test_object_new_only_in_the_builders():
    """`object.__new__` skips a class's constructor, so it is named only in
    `graphs._unchecked`, the helper behind every value built without
    validation, and in `DualGraph._trusted`, which runs the graph's own
    ``_build``."""
    found = []

    def visit(node, where):
        if isinstance(node, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where}.{node.name}"
        if isinstance(node, ast.Attribute) and ast.unparse(node) == "object.__new__":
            found.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), path.stem)
    assert sorted(found) == ["graphs.DualGraph._trusted", "graphs._unchecked"], found


def test_graph_kernels_come_from_on_graph():
    """`_Orientation(...)` is called by name only in `orientation_feasible`,
    whose input is not a graph: every kernel on a graph's pairs comes from
    `_Orientation.on_graph`, so vertices and pairs are in one order and one
    place scales nodes into units."""
    calls = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "_Orientation"
        ):
            calls.append(where)
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.name}:<module>")
    assert calls == ["spin_locus.py:orientation_feasible"], calls


def test_validating_constructors_only_where_outside_input_arrives():
    """`DualGraph(...)`, `QuasistableGraph(...)` and `Vertex(...)` check every
    field they are given, so the library calls them by name only where data
    from outside arrives: tuples handed to the graph constructor, the new ids
    of a relabeling, and a split curve's genus.  Graphs, models and vertices
    it derives from checked data come from the ``_trusted`` builders and
    `_unchecked`."""
    names = {"DualGraph", "QuasistableGraph", "Vertex"}
    calls = []

    def visit(node, where):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            where = f"{where.split(':')[0]}:{node.name}"
        if (
            isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in names
        ):
            calls.append(f"{where} {node.func.id}")
        for child in ast.iter_child_nodes(node):
            visit(child, where)

    for path in sorted(SRC.rglob("*.py")):
        visit(ast.parse(path.read_text(), filename=str(path)), f"{path.name}:<module>")
    assert sorted(calls) == [
        "graphs.py:__init__ Vertex",
        "graphs.py:relabeled Vertex",
        "spin_locus.py:split_curve_graph DualGraph",
    ], calls


def test_one_witness_replay():
    """The doubled-degree replay of a witness, 2 base + contact - s + 2 sigma,
    is written once, in `spin_locus._replay`, and both functions that read a
    multidegree off a witness call it."""
    tree = ast.parse((SRC / "spin_locus.py").read_text())
    defined = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
    assert defined["_replay"] == ["spin_locus.py"]
    callers = {
        node.name
        for node in ast.walk(tree) if isinstance(node, ast.FunctionDef)
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id == "_replay"
    }
    assert callers == {"grouped_multidegree", "decide_spin_component"}, callers


def test_one_lane_format():
    """Packed lanes have one byte layout: `graphs.py` alone defines the width
    rule, `_lane_format`, and the signed-lane decoder, `_lanes`; the blow-up
    model kernel in `quasistable.py` reads its lanes through them and turns
    no integer into bytes or back itself."""
    defined = {}
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef):
                defined.setdefault(node.name, []).append(path.name)
    assert defined["_lane_format"] == defined["_lanes"] == ["graphs.py"]
    tree = ast.parse((SRC / "quasistable.py").read_text())
    used = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    used |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert not used & {"to_bytes", "from_bytes", "memoryview", "_LANE_FORMATS"}, used


def test_one_subset_lane_recurrence():
    """`graphs.py` alone defines the doubling recurrence, `_subset_lanes`, and
    both 2^n scans call it: `basic_inequality` and the blow-up model kernel,
    `quasistable._model_lanes`.  Its ``shift <<= 1`` is the package's only
    augmented left shift, and `quasistable.py` names no ``shift``: it doubles
    no lanes of its own."""
    defined, callers, doublings = {}, set(), []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.FunctionDef):
                continue
            defined.setdefault(node.name, []).append(path.name)
            for inner in ast.walk(node):
                if isinstance(inner, ast.Call) and getattr(inner.func, "id", None) == "_subset_lanes":
                    callers.add(f"{path.name}:{node.name}")
                if isinstance(inner, ast.AugAssign) and isinstance(inner.op, ast.LShift):
                    doublings.append(f"{path.name}:{node.name}")
    assert defined["_subset_lanes"] == ["graphs.py"]
    assert callers == {"graphs.py:basic_inequality", "quasistable.py:_model_lanes"}, callers
    assert doublings == ["graphs.py:_subset_lanes"], doublings
    tree = ast.parse((SRC / "quasistable.py").read_text())
    assert "shift" not in {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_dense_node_matrix():
    """The subset recurrence reads sparse node rows (`DualGraph._later` and a
    model's core rows): the dense n x n node matrix, `_matrix`, appears
    nowhere in the package, code, comments or docstrings."""
    named = [path.name for path in sorted(SRC.rglob("*.py")) if "_matrix" in path.read_text()]
    assert not named, named


def test_the_model_kernel_takes_no_twist():
    """The blow-up model kernel, `quasistable._model_lanes`, takes the model
    alone, and its body names neither a twist ``t`` nor the per-twist spin
    cache: it is built once per model, and no lane depends on the twist."""
    tree = ast.parse((SRC / "quasistable.py").read_text())
    (kernel,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_model_lanes"
    ]
    params = kernel.args
    assert len(params.posonlyargs + params.args + params.kwonlyargs) == 1
    assert params.vararg is params.kwarg is None
    names = {node.id for node in ast.walk(kernel) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(kernel) if isinstance(node, ast.Attribute)}
    assert not names & {"t", "_spin_cache"}, names & {"t", "_spin_cache"}


def test_one_twist_record_per_model():
    """What depends on the twist sits in one record per blow-up model,
    ``q._twist``, which `spin_multidegree` alone assigns (`_flag` sets it
    to None on construction): no per-twist spin cache is left, the model
    kernel's namespace holds no twist or rows, and the per-mask counts
    `_node_counts` are read only through the checks of `_mask_counts`."""
    stores, callers = set(), set()
    for path in sorted(SRC.rglob("*.py")):
        source = path.read_text()
        assert "_spin_cache" not in source, path.name
        for fn in ast.walk(ast.parse(source, filename=str(path))):
            if not isinstance(fn, ast.FunctionDef):
                continue
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "_node_counts":
                    callers.add(f"{path.name}:{fn.name}")
                targets = node.targets if isinstance(node, ast.Assign) else []
                for target in targets:
                    if isinstance(target, ast.Attribute) and target.attr == "_twist":
                        none = isinstance(node.value, ast.Constant) and node.value.value is None
                        stores.add((path.name, fn.name, none))
    assert stores == {
        ("quasistable.py", "spin_multidegree", False), ("quasistable.py", "_flag", True)
    }, stores
    assert callers == {"quasistable.py:_mask_counts"}, callers
    tree = ast.parse((SRC / "quasistable.py").read_text())
    (kernel,) = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_model_lanes"
    ]
    (namespace,) = [
        node for node in ast.walk(kernel)
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "SimpleNamespace"
    ]
    fields = {keyword.arg for keyword in namespace.keywords}
    assert "satisfied" in fields and not fields & {"twist", "rows"}, fields
