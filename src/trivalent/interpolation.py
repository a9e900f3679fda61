"""Interpolant construction from complete proof-search trees.

For an entailment between contingent formulas, the open (nonaxiomatic
atomic) leaves of separate proof-search trees for the two formulas
determine an interpolant: each side's leaf atoms are filtered through
the opposite side's leaves ("primed" sets), and every leaf contributes
one disjunct whose literals all close that leaf.  The construction is
native for I1, I2, P1 and P2.  For K3, LP, G3 and G3prime,
``interpolate_extended`` builds an interpolant in the language extended
with one extra negation; it is validated by ``verify_interpolant``
against the extended logic rather than trusted.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Sequence

from .bisequent import Bisequent, bisequent
from .formula import Atom, Compound, Formula, atoms
from .logics import LogicDef
from .prover import complete_search, designated_mode, prove
from .semantics import DEFAULT_ATOM_CAP, matrix_consequence

__all__ = [
    "InterpolationError",
    "LeafAtoms",
    "NoSharedAtomError",
    "NotContingentError",
    "NotEntailedError",
    "combined_leaf_check",
    "interpolate",
    "interpolate_extended",
    "verify_interpolant",
]


class InterpolationError(ValueError):
    pass


class NotEntailedError(InterpolationError):
    pass


class NotContingentError(InterpolationError):
    pass


class NoSharedAtomError(InterpolationError):
    pass


@dataclass(frozen=True)
class LeafAtoms:
    """Atom names of one nonaxiomatic atomic leaf, slot by slot."""

    ant1: frozenset[str]
    suc1: frozenset[str]
    ant2: frozenset[str]
    suc2: frozenset[str]


def _open_leaf_atoms(logic: LogicDef, root: Bisequent) -> list[LeafAtoms]:
    """The distinct open leaves of the search tree, in order of first
    occurrence: the tree shares subtrees, and a leaf reached along two
    paths would otherwise give the interpolant a repeated disjunct."""
    tree = complete_search(logic, root)
    out = []
    for leaf in tree.open_leaves():
        node = leaf.node
        sets = []
        for slot in ("ant1", "suc1", "ant2", "suc2"):
            fs = node.slot(slot)
            if not all(isinstance(f, Atom) for f in fs):
                raise InterpolationError("open leaf contains a non-atom")
            sets.append(frozenset(f.name for f in fs))
        out.append(LeafAtoms(*sets))
    return list(dict.fromkeys(out))


def combined_leaf_check(
    leaves_phi: Sequence[LeafAtoms], leaves_psi: Sequence[LeafAtoms]
) -> bool:
    """True iff gluing any left leaf with any right leaf slot by slot
    gives an axiomatic bisequent.  Holds whenever the two trees come from
    a provable entailment; checked before the primed sets are used."""
    for a in leaves_phi:
        for b in leaves_psi:
            ant1, suc1 = a.ant1 | b.ant1, a.suc1 | b.suc1
            ant2, suc2 = a.ant2 | b.ant2, a.suc2 | b.suc2
            if not (ant1 & suc1 or ant1 & suc2 or ant2 & suc2):
                return False
    return True


# ---------------------------------------------------------------------------
# Formula assembly

def _family_tag(logic: LogicDef, prefix: str) -> str:
    matches = [c for c in logic.connectives if c.split("_")[0] == prefix]
    if len(matches) != 1:
        raise InterpolationError(
            f"{logic.name} has no unique '{prefix}' connective"
        )
    return matches[0]


def _fold(tag: str, parts: Sequence[Formula]) -> Formula:
    if not parts:
        raise InterpolationError("cannot fold an empty list")
    return reduce(lambda acc, f: Compound(tag, (f, acc)), reversed(parts[:-1]), parts[-1])


@dataclass(frozen=True)
class _Primed:
    ant1: tuple[str, ...]
    suc1: tuple[str, ...]
    ant2: tuple[str, ...]
    suc2: tuple[str, ...]

    @property
    def empty(self) -> bool:
        return not (self.ant1 or self.suc1 or self.ant2 or self.suc2)


def _primed_sets(
    leaves_phi: Sequence[LeafAtoms], leaves_psi: Sequence[LeafAtoms]
) -> list[_Primed]:
    theta: frozenset[str] = frozenset().union(*(l.ant1 for l in leaves_psi))
    lam: frozenset[str] = frozenset().union(*(l.suc1 for l in leaves_psi))
    xi: frozenset[str] = frozenset().union(*(l.ant2 for l in leaves_psi))
    omega: frozenset[str] = frozenset().union(*(l.suc2 for l in leaves_psi))
    out = []
    for leaf in leaves_phi:
        out.append(
            _Primed(
                ant1=tuple(sorted(leaf.ant1 & (lam | omega))),
                suc1=tuple(sorted(leaf.suc1 & theta)),
                ant2=tuple(sorted(leaf.ant2 & omega)),
                suc2=tuple(sorted(leaf.suc2 & (theta | xi))),
            )
        )
    return out


def _disjunct(primed: _Primed, neg: str, conj: str, disj: str, style: int) -> Formula:
    """One disjunct of the interpolant.

    ``style`` 1 (one designated value): positive atoms from ant1, negated
    atoms from suc2, and a negated disjunction collecting negated ant2
    atoms and plain suc1 atoms.  ``style`` 2 is the mirror image with the
    two sequents' roles swapped.  Empty parts are simply left out; the
    whole quadruple is never empty when the combined-leaf check holds.
    """
    if style == 1:
        pos, negd, inner_neg, inner_pos = (
            primed.ant1, primed.suc2, primed.ant2, primed.suc1,
        )
    else:
        pos, negd, inner_neg, inner_pos = (
            primed.ant2, primed.suc1, primed.ant1, primed.suc2,
        )
    conjuncts: list[Formula] = [Atom(a) for a in pos]
    conjuncts += [Compound(neg, (Atom(a),)) for a in negd]
    inner: list[Formula] = [Compound(neg, (Atom(a),)) for a in inner_neg]
    inner += [Atom(a) for a in inner_pos]
    if inner:
        # keep a disjunction node even for one disjunct: the disjunction
        # rule moving literals across the two sequents is what lets these
        # literals close their leaf, and or_c/or_se are not transparent to
        # the second-sequent value constraints the way a bare literal is
        body = _fold(disj, inner) if len(inner) > 1 else Compound(disj, (inner[0], inner[0]))
        conjuncts.append(Compound(neg, (body,)))
    return _fold(conj, conjuncts)


def _build_trees(
    logic: LogicDef, phi: Formula, psi: Formula
) -> tuple[list[LeafAtoms], list[LeafAtoms]]:
    if logic.goal_mode == 1:
        root_phi = bisequent(ant1=(phi,))
        root_psi = bisequent(suc1=(psi,))
    else:
        root_phi = bisequent(ant2=(phi,))
        root_psi = bisequent(suc2=(psi,))
    leaves_phi = _open_leaf_atoms(logic, root_phi)
    leaves_psi = _open_leaf_atoms(logic, root_psi)
    if not leaves_phi:
        raise NotContingentError(
            "left formula is not contingent (its proof-search tree has no open leaf)"
        )
    if not leaves_psi:
        raise NotContingentError(
            "right formula is not contingent (its proof-search tree has no open leaf)"
        )
    return leaves_phi, leaves_psi


def _check_inputs(
    logic: LogicDef, phi: Formula, psi: Formula, max_atoms: int
) -> None:
    if not matrix_consequence(logic, (phi,), psi, max_atoms):
        raise NotEntailedError(
            f"the entailment does not hold in {logic.name}"
        )
    if not (atoms(phi) & atoms(psi)):
        raise NoSharedAtomError("the formulas share no atom")


_SUPPORTED = ("I1", "I2", "P1", "P2")


def interpolate(
    logic: LogicDef,
    phi: Formula,
    psi: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> Formula:
    """Interpolant for an entailment of contingent formulas in I1, I2,
    P1 or P2: its atoms occur in both formulas, the left formula entails
    it, and it entails the right formula."""
    if logic.name not in _SUPPORTED:
        raise InterpolationError(
            f"interpolation is supported for {', '.join(_SUPPORTED)}; "
            f"for K3, LP, G3 and G3prime see interpolate_extended"
        )
    _check_inputs(logic, phi, psi, max_atoms)
    leaves_phi, leaves_psi = _build_trees(logic, phi, psi)
    if not combined_leaf_check(leaves_phi, leaves_psi):
        raise InterpolationError("combined leaves are not all axiomatic")
    neg = _family_tag(logic, "neg")
    conj = _family_tag(logic, "and")
    disj = _family_tag(logic, "or")
    disjuncts = []
    for primed in _primed_sets(leaves_phi, leaves_psi):
        if primed.empty:
            raise InterpolationError("a leaf lost all atoms in the primed sets")
        disjuncts.append(_disjunct(primed, neg, conj, disj, logic.goal_mode))
    return _fold(disj, disjuncts)


def verify_interpolant(
    logic: LogicDef,
    phi: Formula,
    psi: Formula,
    candidate: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> bool:
    """Atom inclusion plus both entailments, each confirmed by the matrix
    oracle and by proof search independently."""
    if not atoms(candidate) <= (atoms(phi) & atoms(psi)):
        return False
    mode = designated_mode(logic)
    for left, right in ((phi, candidate), (candidate, psi)):
        if not matrix_consequence(logic, (left,), right, max_atoms):
            return False
        if not prove(logic, mode, (left,), right).proved:
            return False
    return True


# ---------------------------------------------------------------------------
# Extended-language interpolants

def _extended_disjunct(host: str, primed: _Primed, logic: LogicDef) -> Formula:
    conj = _family_tag(logic, "and")
    disj = _family_tag(logic, "or")

    def negs(tag: str, names: tuple[str, ...], inner=None) -> list[Formula]:
        return [
            Compound(tag, (inner(a) if inner else Atom(a),)) for a in names
        ]

    conjuncts: list[Formula]
    if host == "K3":
        # positive ant1 atoms, strong-negated suc2 atoms, outer-negated
        # suc1 atoms and outer-negated strong-negated ant2 atoms
        conjuncts = [Atom(a) for a in primed.ant1]
        conjuncts += negs("neg", primed.suc2)
        conjuncts += negs("neg_b", primed.suc1)
        conjuncts += negs("neg_b", primed.ant2, lambda a: Compound("neg", (Atom(a),)))
    elif host == "LP":
        conjuncts = [Atom(a) for a in primed.ant2]
        conjuncts += negs("neg", primed.suc1)
        conjuncts += negs("neg_h", primed.suc2)
        conjuncts += negs("neg_h", primed.ant1, lambda a: Compound("neg", (Atom(a),)))
    elif host == "G3":
        conjuncts = [Atom(a) for a in primed.ant1]
        if primed.ant2 and primed.suc2:
            body: Formula = Compound(
                "impl_h",
                (_fold(conj, [Atom(a) for a in primed.ant2]),
                 _fold(disj, [Atom(a) for a in primed.suc2])),
            )
            conjuncts.append(Compound("neg_h", (body,)))
        elif primed.suc2:
            conjuncts.append(Compound("neg_h", (_fold(disj, [Atom(a) for a in primed.suc2]),)))
        elif primed.ant2:
            # "not false" of the conjunction, expressed by a double negation
            inner = _fold(conj, [Atom(a) for a in primed.ant2])
            conjuncts.append(Compound("neg_h", (Compound("neg_h", (inner,)),)))
        conjuncts += negs("neg_b", primed.suc1)
    elif host == "G3prime":
        conjuncts = [Atom(a) for a in primed.ant2]
        conjuncts += negs("neg_b", primed.suc1)
        conjuncts += negs("neg_h", primed.suc2)
        conjuncts += negs(
            "neg_b", primed.ant1, lambda a: Compound("neg_b", (Atom(a),))
        )
    else:
        raise InterpolationError(f"no extended template for {host}")
    return _fold(conj, conjuncts)


def interpolate_extended(
    logic: LogicDef,
    phi: Formula,
    psi: Formula,
    max_atoms: int = DEFAULT_ATOM_CAP,
) -> tuple[Formula, LogicDef]:
    """Interpolant for K3, LP, G3 or G3prime in the language extended with
    one extra negation.  Returns the interpolant together with the
    extended logic it lives in; callers should accept it only after
    ``verify_interpolant`` in that logic."""
    extra = {"K3": "neg_b", "LP": "neg_h", "G3": "neg_b", "G3prime": "neg_h"}
    if logic.name not in extra:
        raise InterpolationError(
            "extended interpolation is supported for K3, LP, G3 and G3prime"
        )
    _check_inputs(logic, phi, psi, max_atoms)
    leaves_phi, leaves_psi = _build_trees(logic, phi, psi)
    if not combined_leaf_check(leaves_phi, leaves_psi):
        raise InterpolationError("combined leaves are not all axiomatic")
    disj = _family_tag(logic, "or")
    disjuncts = []
    for primed in _primed_sets(leaves_phi, leaves_psi):
        if primed.empty:
            raise InterpolationError("a leaf lost all atoms in the primed sets")
        disjuncts.append(_extended_disjunct(logic.name, primed, logic))
    extended = logic.extended((extra[logic.name],))
    return _fold(disj, disjuncts), extended
