"""Decision procedure, proof search, countermodels and Craig interpolation
for a catalog of three-valued propositional logics, via a cut-free
bisequent calculus backed by a brute-force matrix-semantics oracle."""

from .bisequent import Bisequent, bisequent, is_atomic, is_axiomatic
from .calculus import (
    AxiomSchema,
    Placement,
    PremissSchema,
    RuleSchema,
    apply_rule,
    catalog,
    synthesize_rules,
    verify_rule_schema,
)
from .formula import Atom, Compound, Constant, Formula, atoms, complexity, parse_formula, render
from .interpolation import interpolate, interpolate_extended, verify_interpolant
from .logics import LogicDef, TruthTable, Value, available_logics, evaluate, lookup_logic
from .prover import (
    ProofTree,
    Proved,
    Refuted,
    complete_search,
    countermodel_from_leaf,
    prove,
    prove_bisequent,
)
from .semantics import bisequent_valid, falsifying_assignments, matrix_consequence

__version__ = "0.1.0"
