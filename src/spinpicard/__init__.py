"""Boundary combinatorics of compactified universal Picard varieties.

The package models nodal curves by their dual graphs and answers, in exact
integer/rational arithmetic, the combinatorial questions that control the
boundary of a compactified universal Picard variety and the closure of the
theta-characteristic (spin) locus inside it: admissible multidegrees, blow-up
models with their spin parity, canonical spin multidegrees, GIT stability and
orbit closure, witness search for spin-reachable fiber components, and a few
scalar invariants.

Importing the package loads :mod:`spinpicard.errors` alone.  Every other
module is imported the first time one of its names, or the module itself, is
read from the package (PEP 562 ``__getattr__``), which then binds all of that
module's public names at once.  ``__all__``, ``dir()``, ``import *`` and the
identity of every exported object are those of an eager import, but a process
using one module, such as a ``spinpicard`` subcommand, compiles no other:
without a bytecode cache, compiling the whole package costs more than most
commands take to run.
"""

from __future__ import annotations

from importlib import import_module

from .errors import (
    BasicInequalityError,
    BlowupError,
    DomainError,
    GraphError,
    GraphTooLargeError,
    ParityError,
    SpinPicardError,
    WitnessError,
)

__version__ = "0.1.0"

#: The public names of each lazily loaded module, in ``__all__`` order.
_LAZY = {
    "graphs": (
        "MAX_SUBSET_VERTICES", "Vertex", "DualGraph", "Multidegree", "SubcurveProfile",
        "BIViolation", "BIReport", "validate_graph", "arithmetic_genus", "is_stable",
        "subcurve_profile", "basic_inequality", "enumerate_multidegrees", "iter_subcurves",
    ),
    "quasistable": (
        "BlowupConfig", "QuasistableGraph", "ExceptionalProfile", "BoundaryCase", "expand",
        "contract", "spin_parity", "spin_multidegree", "exceptional_profile", "boundary_case",
        "git_stable", "git_stable_exhaustive", "orbit_closed_check", "iter_blowup_configs",
    ),
    "spin_locus": (
        "SpinWitness", "SplitCurveRow", "grouped_multidegree", "decide_spin_component",
        "enumerate_spin_multidegrees", "split_curve_graph", "split_curve_table",
        "orientation_feasible",
    ),
    "numerics": (
        "PicardParams", "kouvidakis_class", "coarse_moduli_predicate", "class_group_rank",
        "normalize_degree",
    ),
}

#: The module that defines each lazily loaded name.
_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__all__ = [
    "__version__",
    "SpinPicardError", "GraphError", "BlowupError", "WitnessError", "ParityError",
    "DomainError", "BasicInequalityError", "GraphTooLargeError",
    *_OWNER,
]


def __getattr__(name: str):
    """Import the module that defines ``name``, or the module ``name``, and
    bind all of its public names here; each module goes through this once."""
    module = name if name in _LAZY else _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    source = import_module(f".{module}", __name__)
    namespace = globals()
    namespace.update((attr, getattr(source, attr)) for attr in _LAZY[module])
    return namespace[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_LAZY})
