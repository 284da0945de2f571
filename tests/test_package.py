"""What ``import spinpicard`` and each ``spinpicard`` command load, and the
public surface the package keeps while it loads its modules lazily.

The footprint cases each run in a fresh interpreter, since the test process
has long imported every module.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import spinpicard

ROOT = Path(__file__).resolve().parent.parent
SPLIT3 = str(ROOT / "demos" / "data" / "split_genus3.json")
BLOW_ALL = str(ROOT / "demos" / "data" / "blow_all_nodes.json")

#: ``spinpicard.__all__`` as it was when the package imported every module,
#: after ``__version__``, grouped by the module that defines each name.
EXPORTED = {
    "errors": [
        "SpinPicardError",
        "GraphError",
        "BlowupError",
        "WitnessError",
        "ParityError",
        "DomainError",
        "BasicInequalityError",
        "GraphTooLargeError",
    ],
    "graphs": [
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
    ],
    "quasistable": [
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
    ],
    "spin_locus": [
        "SpinWitness",
        "SplitCurveRow",
        "grouped_multidegree",
        "decide_spin_component",
        "enumerate_spin_multidegrees",
        "split_curve_graph",
        "split_curve_table",
        "orientation_feasible",
    ],
    "numerics": [
        "PicardParams",
        "kouvidakis_class",
        "coarse_moduli_predicate",
        "class_group_rank",
        "normalize_degree",
    ],
}
LIBRARY = ("graphs", "quasistable", "spin_locus", "numerics")

LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'spinpicard')"


def _fresh(code: str, *args: str):
    """Run ``code`` in a new interpreter on this checkout's ``src``; the JSON
    it prints."""
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_bare_import_loads_errors_alone_and_a_module_at_first_use():
    bare, dir_ok, after, bound, submodules = _fresh(f"""
import json, sys
import spinpicard
bare = {LOADED}
dir_ok = set(spinpicard.__all__) <= set(dir(spinpicard))
spinpicard.validate_graph
after = {LOADED}
bound = [name for name in spinpicard.__all__ if name in vars(spinpicard)]
submodules = [getattr(spinpicard, name).__name__ for name in {LIBRARY!r}]
print(json.dumps([bare, dir_ok, after, bound, submodules]))
""")
    assert bare == ["spinpicard", "spinpicard.errors"]
    assert dir_ok
    assert after == ["spinpicard", "spinpicard.errors", "spinpicard.graphs"]
    assert bound == ["__version__", *EXPORTED["errors"], *EXPORTED["graphs"]]
    assert submodules == [f"spinpicard.{name}" for name in LIBRARY]


#: Standard modules no command needs: ``dataclasses`` loads ``inspect``.
COSTLY = ("dataclasses", "inspect")
#: What building one ``Fraction`` loads; a command loads it only when it
#: builds a rational.
RATIONAL = ("decimal", "fractions")

RUN_CLI = f"""
import contextlib, io, json, sys
before = set(sys.modules)
from spinpicard.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = main(sys.argv[1:])
added = set(sys.modules) - before
print(json.dumps([code, {LOADED}, sorted(added & {{*{COSTLY!r}, *{RATIONAL!r}}})]))
"""

#: A command line of each mode, the library modules it should load, whether
#: it builds a rational (a violated basic inequality, a refused multidegree)
#: and its exit code.
COMMANDS = [
    (["numerics", "rank", "-g", "9"], ["numerics"], False, 0),
    (["numerics", "kdg", "-g", "5", "-d", "30"], ["numerics"], False, 0),
    (["info", SPLIT3], ["graphs"], False, 0),
    (["bi", SPLIT3, "--total", "42", "--multidegree", "18,24"], ["graphs"], True, 0),
    (["bi", SPLIT3, "--total", "42", "--multidegree", "21,21"], ["graphs"], False, 0),
    (["bi", SPLIT3, "--total", "42", "--enumerate"], ["graphs"], False, 0),
    (["spin", SPLIT3, "-t", "10", "--decide", "19,23"], ["graphs", "spin_locus"], False, 0),
    (["spin", SPLIT3, "-t", "10", "--decide", "0,42"], ["graphs", "spin_locus"], True, 1),
    (["spin", SPLIT3, "-t", "10", "--locus"], ["graphs", "spin_locus"], False, 0),
    (["spin", "-t", "10", "--split-curve", "-g", "3"], ["graphs", "spin_locus"], False, 0),
    (["spin", SPLIT3, "-t", "10", "--blowups", BLOW_ALL], ["graphs", "quasistable"], False, 0),
]


@pytest.mark.parametrize(
    "argv, modules, rational, exit_code", COMMANDS,
    ids=[" ".join(Path(a).name for a in argv) for argv, *_ in COMMANDS],
)
def test_each_command_loads_only_the_modules_it_uses(argv, modules, rational, exit_code):
    """Each command loads the library modules it calls and no standard
    module it does not need: never ``dataclasses`` or ``inspect``, and
    ``fractions`` with ``decimal`` only when it builds a rational."""
    code, loaded, added = _fresh(RUN_CLI, *argv)
    assert code == exit_code
    assert loaded == sorted(
        ["spinpicard", "spinpicard.cli", "spinpicard.errors", *(f"spinpicard.{m}" for m in modules)]
    )
    assert added == (sorted(RATIONAL) if rational else [])


def test_package_surface_is_that_of_an_eager_import():
    assert spinpicard.__all__ == ["__version__", *(n for names in EXPORTED.values() for n in names)]
    star: dict = {}
    exec("from spinpicard import *", star)
    assert star["__version__"] == spinpicard.__version__
    for module, names in EXPORTED.items():
        source = importlib.import_module(f"spinpicard.{module}")
        for name in names:
            obj = getattr(spinpicard, name)
            assert obj is getattr(source, name) is star[name], name
            assert getattr(obj, "__module__", source.__name__) == source.__name__, name
    # check_t is public in quasistable but was never exported by the package.
    for name in ("no_such_name", "check_t"):
        with pytest.raises(AttributeError, match=f"^module 'spinpicard' has no attribute '{name}'$"):
            getattr(spinpicard, name)
