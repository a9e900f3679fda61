from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import pytest
from hypothesis import strategies as st

from trivalent.formula import (
    CONNECTIVES, Atom, Compound, Constant, complexity, iter_formulas,
)
from trivalent.logics import available_logics, lookup_logic
from trivalent.prover import designated_mode, goal_bisequent, prove_bisequent
from trivalent.semantics import matrix_consequence

DATA_DIR = Path(__file__).parent / "data"

ALL_LOGICS = available_logics()

#: logics whose signature covers distinct chunks of the rule catalog
CORE_LOGICS = ("K3", "LP", "K3w", "L3", "J3", "I1", "P1", "P3", "Palasinska1")


def formulas(signature, atom_names=("p", "q", "r"), max_leaves=6, constants=False):
    """Hypothesis strategy for formulas over a signature; with
    ``constants`` the leaves include T, F and U."""
    sig = sorted(signature)
    unary = [c for c in sig if CONNECTIVES[c] == 1]
    binary = [c for c in sig if CONNECTIVES[c] == 2]
    base = st.builds(Atom, st.sampled_from(list(atom_names)))
    if constants:
        base = st.one_of(
            base, st.builds(Constant, st.sampled_from(("top", "bottom", "undef")))
        )

    def extend(children):
        options = []
        if unary:
            options.append(
                st.builds(
                    Compound,
                    st.sampled_from(unary),
                    st.tuples(children),
                )
            )
        if binary:
            options.append(
                st.builds(
                    Compound,
                    st.sampled_from(binary),
                    st.tuples(children, children),
                )
            )
        return st.one_of(options)

    return st.recursive(base, extend, max_leaves=max_leaves)


def random_formula(rng: random.Random, signature, atom_names, n_connectives: int):
    """A uniform-ish random formula with exactly n_connectives connectives."""
    if n_connectives == 0:
        return Atom(rng.choice(list(atom_names)))
    sig = sorted(signature)
    cid = rng.choice(sig)
    if CONNECTIVES[cid] == 1:
        return Compound(cid, (random_formula(rng, sig, atom_names, n_connectives - 1),))
    k = rng.randint(0, n_connectives - 1)
    return Compound(
        cid,
        (
            random_formula(rng, sig, atom_names, k),
            random_formula(rng, sig, atom_names, n_connectives - 1 - k),
        ),
    )


def with_constants(rng: random.Random, f):
    """``f`` with about a quarter of its atom leaves replaced by constants."""
    if isinstance(f, Atom):
        return Constant(rng.choice(("top", "bottom", "undef"))) if rng.random() < 0.25 else f
    if isinstance(f, Compound):
        return Compound(f.connective, tuple(with_constants(rng, a) for a in f.args))
    return f


@dataclass
class LogicSweep:
    logic: object
    memo: dict = field(default_factory=dict)
    n_goals: int = 0
    proved: list = field(default_factory=list)
    refuted: list = field(default_factory=list)  # (root, countermodel)
    disagreements: list = field(default_factory=list)
    formula_pool: list = field(default_factory=list)


def run_sweep(
    logic, atom_names=("p", "q"), premiss_budget=1, conclusion_budget=2, solo_budget=3
) -> LogicSweep:
    """Decide every goal with an empty premiss set and conclusions of at
    most ``solo_budget`` connectives, plus every single-premiss goal with
    premisses of at most ``premiss_budget`` and conclusions of at most
    ``conclusion_budget`` connectives, comparing the proof-search verdict
    with the matrix oracle on each."""
    data = LogicSweep(logic)
    budget = max(premiss_budget, conclusion_budget, solo_budget)
    by_count: dict[int, list] = {}
    for f in iter_formulas(logic.signature, atom_names, budget):
        by_count.setdefault(complexity(f), []).append(f)
    of_size = lambda n: [f for k in range(n + 1) for f in by_count.get(k, ())]
    mode = designated_mode(logic)
    goals = [((), f) for f in of_size(solo_budget)]
    goals += [
        ((g,), f) for g in of_size(premiss_budget) for f in of_size(conclusion_budget)
    ]
    data.formula_pool = of_size(conclusion_budget)
    for premisses, conclusion in goals:
        root = goal_bisequent(logic, mode, premisses, conclusion)
        result = prove_bisequent(logic, root, memo=data.memo)
        oracle = matrix_consequence(logic, premisses, conclusion)
        data.n_goals += 1
        if result.proved != oracle:
            data.disagreements.append((premisses, conclusion, result.proved, oracle))
        if result.proved:
            data.proved.append(root)
        else:
            data.refuted.append((root, result.countermodel))
    return data


@pytest.fixture(scope="session")
def k3():
    return lookup_logic("K3")


@pytest.fixture(scope="session")
def lp():
    return lookup_logic("LP")
