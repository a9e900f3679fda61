from __future__ import annotations

import random
from pathlib import Path

import pytest
from hypothesis import strategies as st

from trivalent.formula import CONNECTIVES, Atom, Compound, Constant
from trivalent.logics import available_logics, lookup_logic

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


@pytest.fixture(scope="session")
def k3():
    return lookup_logic("K3")


@pytest.fixture(scope="session")
def lp():
    return lookup_logic("LP")
