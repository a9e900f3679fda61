"""Decision procedure, proof search, countermodels and Craig interpolation
for a catalog of three-valued propositional logics, via a cut-free
bisequent calculus backed by a brute-force matrix-semantics oracle.

The names from ``calculus``, ``prover`` and ``interpolation`` load their
module on first use (PEP 562), so that a process which never searches
for a proof does not pay for importing them.
"""

from importlib import import_module

from .bisequent import Bisequent, bisequent, is_atomic, is_axiomatic
from .formula import (
    Atom,
    Compound,
    Constant,
    Formula,
    InputError,
    atoms,
    complexity,
    parse_formula,
    render,
)
from .logics import LogicDef, TruthTable, Value, available_logics, evaluate, lookup_logic
from .semantics import bisequent_valid, falsifying_assignments, matrix_consequence

__version__ = "0.1.0"

_LAZY = {
    "calculus": (
        "Placement",
        "PremissSchema",
        "RuleSchema",
        "apply_rule",
        "catalog",
        "synthesize_rules",
        "verify_rule_schema",
    ),
    "interpolation": ("interpolate", "interpolate_extended", "verify_interpolant"),
    "prover": (
        "ProofTree",
        "Proved",
        "Refuted",
        "complete_search",
        "countermodel_from_leaf",
        "prove",
        "prove_bisequent",
    ),
}
_MODULE_OF = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    # read from the module on every access, never stored here, so that a
    # name rebound in its module (a wrapper, a test's patch) is seen here too
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
